import pytest

from crlab import budgets


def test_short_counts_are_printed_in_decimal(monkeypatch):
    monkeypatch.setenv(budgets.SYND_BUDGET_VAR, "16")
    monkeypatch.setenv(budgets.ENUM_BUDGET_VAR, "16")
    with pytest.raises(budgets.BudgetExceeded) as exc:
        budgets.check_synd(17, "profile of [9,5]_2 code", (2, 4))
    assert str(exc.value) == (
        "profile of [9,5]_2 code needs 17 syndromes, over the limit 16 "
        "(raise CRLAB_SYND_BUDGET to allow)")
    count = (1 << 256) - 1
    with pytest.raises(budgets.BudgetExceeded) as exc:
        budgets.check_enum(count)
    assert str(exc.value) == (
        f"codeword enumeration needs {count} items, over the limit 16 "
        "(raise CRLAB_ENUM_BUDGET to allow)")
    budgets.check_synd(16)
    budgets.check_enum(16)


def test_counts_too_long_to_print_are_named_as_powers():
    """128^8125 has 17120 digits, past the 4300 that Python converts to
    a string; the refusal names it as the power its caller gives, or by
    its bit length, and the comparison never formats it."""
    count = 128 ** 8125
    with pytest.raises(budgets.BudgetExceeded,
                       match=r"needs 128\^8125 syndromes, over the limit"):
        budgets.check_synd(count, "profile of [8128,3]_128 code", (128, 8125))
    with pytest.raises(budgets.BudgetExceeded,
                       match=r"needs 128\^8125 items, over the limit"):
        budgets.check_enum(count, "weight distribution", (128, 8125))
    with pytest.raises(budgets.BudgetExceeded,
                       match=r"needs at least 2\^56875 items, over"):
        budgets.check_enum(count)
    with pytest.raises(budgets.BudgetExceeded,
                       match=r"needs at least 2\^56875 syndromes, over"):
        budgets.check_synd(count + 1)
