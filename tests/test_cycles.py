"""Library calls and CLI ops leave no reference cycle that holds an array.

Their codes, matrices and tables are freed by reference counting when the
call returns, not at the next run of the cycle collector, so a process
that makes many calls keeps its peak memory.  Each check runs the call
once to warm the caches, then again with ``gc.DEBUG_SAVEALL`` set, and
looks at what the collector found unreachable.  The ``--json`` ops leave
no cycle at all.
"""

import contextlib
import gc
import io

import numpy as np
import pytest

from crlab import cli, fileio, search
from crlab.families import cr4_bose_bush, cr6_denniston
from crlab.regularity import complete_regularity
from crlab.report import build_code_report

HOLDERS = ("ndarray", "LinearCode", "MatGF", "PlaneGeometry")


def _holds_array(obj) -> bool:
    return (type(obj).__name__ in HOLDERS
            or any(isinstance(x, np.ndarray) for x in gc.get_referents(obj)))


def cycle_garbage(fn, keep=_holds_array) -> list:
    """Type names of the collected garbage left by fn() that keep
    accepts: by default, what is or directly holds an array or a code."""
    fn()
    debug = gc.get_debug()
    gc.collect()
    gc.set_debug(debug | gc.DEBUG_SAVEALL)
    try:
        fn()
        gc.collect()
        return sorted(type(o).__name__ for o in gc.garbage if keep(o))
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        gc.collect()


def _quiet_cli(*argv):
    def op():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(argv)) == 0
    return op


CALLS = {
    "arcs-16-18": lambda: search.search_arcs(16, 18),
    "arcs-5-6-count": lambda: search.search_arcs(5, 6, count_all=True),
    "census-3-3-9": lambda: search.search_antipodal_duals(3, 3, 9),
    "census-4-3-6-projective": lambda: search.search_antipodal_duals(
        4, 3, 6, projective=True),
    "family-complete-regularity": lambda: complete_regularity(
        cr6_denniston(8, 2).cr_code),
    "report-both-sides": lambda: [
        build_code_report(code) for inst in [cr4_bose_bush(8)]
        for code in (inst.two_weight_code, inst.cr_code)],
    "cli-construct-json": _quiet_cli("construct", "--family", "bose-bush",
                                     "--q", "8", "--json"),
    "cli-arcs": _quiet_cli("search", "arcs", "--q", "7", "--size", "9"),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_no_cycle_holds_an_array(name):
    assert cycle_garbage(CALLS[name]) == []


def _report_json_op(tmp_path):
    path = tmp_path / "bb4.gfc"
    fileio.write_gfc(path, cr4_bose_bush(4).cr_code)
    return _quiet_cli("report", str(path), "--json")


JSON_OPS = {
    "report": _report_json_op,
    "construct": lambda tmp_path: _quiet_cli(
        "construct", "--family", "denniston", "--q", "8", "--h", "4",
        "--json"),
    "search-classify": lambda tmp_path: _quiet_cli(
        "search", "classify", "--q", "3", "--r", "3", "--n-max", "6",
        "--json"),
}


@pytest.mark.parametrize("name", sorted(JSON_OPS))
def test_json_op_leaves_no_cycle(name, tmp_path):
    """A warm --json op leaves nothing at all for the cycle collector."""
    assert cycle_garbage(JSON_OPS[name](tmp_path), keep=lambda o: True) == []


@pytest.mark.parametrize("call", [
    lambda: search.search_arcs(5, 6, count_all=True),
    lambda: search.search_antipodal_duals(2, 3, 8),
], ids=["arcs", "census"])
def test_no_cycle_holds_an_array_after_an_error(call, monkeypatch):
    """A search that raises after its walk (here from the exact double
    count) frees its tables too."""
    def refuse(total, what):
        raise search.SymmetryCountError(what)

    monkeypatch.setattr(search, "_exact_total", refuse)

    def failing():
        try:
            call()
        except search.SymmetryCountError:
            return
        raise AssertionError("the search did not raise")

    assert cycle_garbage(failing) == []


def test_cycle_garbage_sees_a_cycle():
    """The probe itself: a code tied into a cycle is reported."""
    def leak():
        code = cr4_bose_bush(4).two_weight_code
        code.self_link = code

    assert "LinearCode" in cycle_garbage(leak)
