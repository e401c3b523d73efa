"""Shared fixtures: the family verification grid is built once per session
because several test modules and most acceptance criteria consume it."""

import time

import numpy as np
import pytest

from crlab import families, regularity


GRID_SPEC = (
    [("ext-hamming", {"m": m}) for m in (2, 3, 4)]
    + [("dm-dual", {"p": p, "l": l, "h": h})
       for (p, l, h) in ((2, 1, 1), (2, 1, 2), (2, 2, 2), (3, 1, 1))]
    + [("mds-dual", {"q": q, "n": n})
       for q in (3, 4, 5, 7, 8) for n in range(3, q + 1)]
    + [("bose-bush", {"q": q}) for q in (4, 8, 16)]
    + [("delsarte", {"q": q}) for q in (8, 16)]
    + [("denniston", {"q": q, "h": h})
       for (q, h) in ((8, 2), (8, 4), (16, 2), (16, 4), (16, 8))]
)

# The families of the benchmark's `construct` workload
# (perfbench/workloads.py::CONSTRUCT), restated.
CONSTRUCT_SPEC = (
    [("bose-bush", {"q": 32})]
    + [("denniston", {"q": 32, "h": h}) for h in (2, 4, 8)]
    + [("delsarte", {"q": 16}), ("ext-hamming", {"m": 8}),
       ("mds-dual", {"q": 25, "n": 25}), ("mds-dual", {"q": 27, "n": 27})]
    + [("dm-dual", {"p": p, "l": l, "h": h})
       for (p, l, h) in ((2, 2, 4), (2, 3, 3), (3, 1, 2), (5, 1, 1))]
)

# The benchmark's `report` random codes, (p, m, n, k)
# (perfbench/workloads.py::RANDOM_CODES), restated; the workload seeds
# code i of run seed s with s * 100 + i.
RANDOM_CODE_SHAPES = ((3, 1, 10, 5), (2, 2, 8, 4), (5, 1, 7, 3), (7, 1, 6, 3))


def build_instance(kind, params):
    if kind == "ext-hamming":
        return families.cr1_extended_hamming(params["m"])
    if kind == "dm-dual":
        return families.cr2_dm_dual(params["p"], params["l"], params["h"])
    if kind == "mds-dual":
        return families.cr3_mds_dual(params["q"], params["n"])
    if kind == "bose-bush":
        return families.cr4_bose_bush(params["q"])
    if kind == "delsarte":
        return families.cr5_delsarte(params["q"])
    if kind == "denniston":
        return families.cr6_denniston(params["q"], params["h"])
    raise ValueError(kind)


def min_distance(code) -> int:
    """d(C), from the weight distribution of the cheaper side."""
    d = code.weight_distribution_auto().d
    if d is None:
        raise ValueError("the zero code has no minimum distance")
    return d


def normalize_point(field, vec):
    """Projective representative, one element at a time: scale so the
    first nonzero entry is 1.  Returns None for the zero vector.  The
    oracle of the library's array kernels over points."""
    for x in vec:
        if x:
            if x == 1:
                return tuple(vec)
            inv = field.inv(x)
            return tuple(field.mul(inv, y) for y in vec)
    return None


def column_point_counts(field, G) -> dict:
    """Projective point -> how many columns of G give it, in order of
    first column, by :func:`normalize_point`; ValueError names the first
    zero column."""
    mult: dict = {}
    for j, col in enumerate(G.rows.T.tolist()):
        rep = normalize_point(field, col)
        if rep is None:
            raise ValueError(f"generator column {j} is zero")
        mult[rep] = mult.get(rep, 0) + 1
    return mult


def row_space_equal(a, b) -> bool:
    """Whether two MatGF span the same row space (equal RREF)."""
    if a.field != b.field or a.ncols != b.ncols:
        return False
    return np.array_equal(a.rref()[0], b.rref()[0])


class GridEntry:
    def __init__(self, kind, params, instance):
        self.kind = kind
        self.params = params
        self.instance = instance
        self.tw = instance.two_weight_code
        self.cr = instance.cr_code
        self.tw_wd = self.tw.weight_distribution()
        self.cr_result = regularity.complete_regularity(self.cr)

    @property
    def label(self):
        return f"{self.kind} {self.params}"


class GridData(list):
    build_seconds: float = 0.0


@pytest.fixture(scope="session")
def family_grid():
    start = time.monotonic()
    grid = GridData(GridEntry(kind, params, build_instance(kind, params))
                    for kind, params in GRID_SPEC)
    grid.build_seconds = time.monotonic() - start
    return grid
