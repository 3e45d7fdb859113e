"""Which small (G, m) have a valency-3 m-PDR, and how the package knows.

This is the package's own reading of the classification on a small grid,
not a quotation of the paper's theorem.  ``CELLS`` maps each cell (G, m) to
its verdict and the source of that verdict:

* every prime p and every m >= 2 with m * p <= 64: a construction, positive
  with |Aut| = p (``cyclic_2pdr`` at m = 2, ``cyclic_mpdr`` at m >= 3);
* the three refused cells, each with its exhaustive evidence: (Z2, 2) has
  no 3-subset to connect by; (Z3, 2) has one spec, whose digraph has
  |Aut| = 72; every (Z2, 3) spec has |Aut| = 6;
* A5, PSL(2,7), A6, PSL(2,8) and PSL(2,11) at m = 2, by extending the first
  valency-2 DRR with ``drr_to_2pdr``.  Their cells at m >= 3 are in
  ``test_verdict_checker.py``.
"""

import itertools

import pytest

from mpdr import FiniteGroup, PreconditionError, is_pdr
from mpdr.constructions import cyclic_2pdr, cyclic_mpdr, drr_to_2pdr
from mpdr.search import exhaust_2partite_valency3, exhaust_z2_m3_valency3, find_valency2_drr

from conftest import A5_GENS
from test_verdict_checker import SIMPLE_GROUPS

PRIMES = [p for p in range(2, 33) if all(p % d for d in range(2, p))]
REFUSED = {
    ("Z2", 2): "no 3-subset",
    ("Z3", 2): "exhaust_2partite_valency3: its one spec has |Aut| = 72",
    ("Z2", 3): "exhaust_z2_m3_valency3: every spec has |Aut| = 6",
}
SIMPLE = {"A5": (lambda: (5, A5_GENS), 60), **SIMPLE_GROUPS}

CELLS = {
    **{(f"Z{p}", m): ("positive", "cyclic_2pdr" if m == 2 else "cyclic_mpdr")
       for p in PRIMES for m in range(2, 64 // p + 1)},
    **{cell: ("none", source) for cell, source in REFUSED.items()},
    **{(name, 2): ("positive", "drr_to_2pdr") for name in SIMPLE},
}


def test_the_table_covers_the_grid():
    cyclic = {cell for cell in CELLS if cell[0].startswith("Z")}
    assert cyclic == {(f"Z{p}", m) for p in PRIMES for m in range(2, 33) if m * p <= 64}
    assert {cell for cell, (verdict, _) in CELLS.items() if verdict == "none"} == set(REFUSED)


@pytest.mark.parametrize("p", PRIMES)
def test_cyclic_cells_are_constructed(p):
    group = FiniteGroup.cyclic(p)
    for m in range(2, 64 // p + 1):
        verdict, source = CELLS[f"Z{p}", m]
        if verdict == "none":
            continue
        spec = cyclic_2pdr(p) if source == "cyclic_2pdr" else cyclic_mpdr(p, m)
        report = is_pdr(group, spec)
        assert report.is_pdr and report.aut_order == p, (p, m)


def test_refused_cells_by_exhaustion():
    z2, z3 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(3)
    # (Z2, 2): valency 3 over two parts needs a 3-subset of the group
    assert list(itertools.combinations(range(2), 3)) == []
    with pytest.raises(PreconditionError, match="at least 3"):
        exhaust_2partite_valency3(z2)
    # (Z3, 2): the whole group both ways, and more automorphisms than |G|
    assert exhaust_2partite_valency3(z3) == [(((0, 1, 2), (0, 1, 2)), 72)]
    # (Z2, 3): every spec of the forced shape
    orders = [order for _, order in exhaust_z2_m3_valency3()]
    assert len(orders) == 16 and set(orders) == {6}
    # and the constructions refuse exactly these cells
    for p in (2, 3):
        with pytest.raises(PreconditionError):
            cyclic_2pdr(p)
    with pytest.raises(PreconditionError):
        cyclic_mpdr(2, 3)


@pytest.mark.parametrize("name", SIMPLE)
def test_simple_groups_at_two_parts(name):
    build, order = SIMPLE[name]
    group = FiniteGroup.from_permutations(*build())
    assert group.order == order and CELLS[name, 2] == ("positive", "drr_to_2pdr")
    spec = drr_to_2pdr(group, find_valency2_drr(group))
    report = is_pdr(group, spec)
    assert report.is_pdr and report.aut_order == order
    assert report.valency == 3
