"""Work budgets for the enumeration-heavy operations.

Defaults keep everything desk-scale; both can be raised through the
environment for deliberate heavy runs.  Work is charged before it is
allocated, the k n_c entries of a complementary generator and the
(m + 1) 2^m of an extended Hamming generator among it.  A count that is
a power of an exponent the user gives is first refused from its bit
length (:func:`check_enum_bits`), so that a huge exponent costs no huge
int.
"""

import os

DEFAULT_ENUM_BUDGET = 1 << 24
DEFAULT_SYND_BUDGET = 1 << 24

ENUM_BUDGET_VAR = "CRLAB_ENUM_BUDGET"
SYND_BUDGET_VAR = "CRLAB_SYND_BUDGET"


class BudgetExceeded(Exception):
    """Raised when an operation would exceed its configured budget."""


def _read(var: str, default: int) -> int:
    raw = os.environ.get(var)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{var} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{var} must be positive, got {value}")
    return value


def _amount(count: int, power) -> str:
    """count in decimal up to 256 bits (Python prints no int of more than
    4300 digits), past that as in :func:`_large`."""
    if count.bit_length() <= 256:
        return str(count)
    return _large(count.bit_length(), power)


def _large(bits: int, power) -> str:
    """A count of at least `bits` bits, past 256: the power (q, r) its
    caller names, or its bit length."""
    if power:
        return "{}^{}".format(*power)
    return f"at least 2^{bits - 1}"


def check_enum(count: int, what: str = "codeword enumeration",
               power=None) -> None:
    _check(count, what, power, "items", ENUM_BUDGET_VAR, DEFAULT_ENUM_BUDGET)


def check_enum_bits(bits: int, what: str, power=None) -> None:
    """Refuse an enumeration before its count is formed: the caller reads
    `bits`, a lower bound on the count's bit length, off the exponents it
    was given, in O(1).  A bound past 256 bits and past the limit's bit
    length refuses at once; below it the count is cheap to form, and the
    caller charges it with :func:`check_enum`."""
    limit = _read(ENUM_BUDGET_VAR, DEFAULT_ENUM_BUDGET)
    if bits > max(256, limit.bit_length()):
        raise _refusal(what, _large(bits, power), "items", ENUM_BUDGET_VAR,
                       limit)


def check_synd(count: int, what: str = "syndrome space",
               power=None) -> None:
    _check(count, what, power, "syndromes", SYND_BUDGET_VAR,
           DEFAULT_SYND_BUDGET)


def _check(count: int, what: str, power, unit: str, var: str,
           default: int) -> None:
    limit = _read(var, default)
    if count > limit:
        raise _refusal(what, _amount(count, power), unit, var, limit)


def _refusal(what: str, amount: str, unit: str, var: str,
             limit: int) -> BudgetExceeded:
    return BudgetExceeded(f"{what} needs {amount} {unit}, over the limit "
                          f"{limit} (raise {var} to allow)")
