import collections
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mpdr import (Digraph, FiniteGroup, PreconditionError, automorphism_group,
                  cayley_digraph, exhaust_2partite_valency3, exhaust_z2_m3_valency3,
                  find_valency2_drr, search, translate_relation,
                  trivial_aut_3regular_search)


def test_exhaust_z3():
    recs = exhaust_2partite_valency3(FiniteGroup.cyclic(3))
    assert len(recs) == 1
    (spec, order), = recs
    assert spec.set_for(0, 1) == (0, 1, 2) and spec.set_for(1, 0) == (0, 1, 2)
    assert order > 3


def test_exhaust_z4_all_fail_with_shift_property():
    z4 = FiniteGroup.cyclic(4)
    recs = exhaust_2partite_valency3(z4)
    assert len(recs) == 16
    for spec, order in recs:
        assert order > 4
        shift = translate_relation(z4, spec.set_for(0, 1), spec.set_for(1, 0))
        assert shift is not None
        expected = tuple(sorted(z4.mul(shift, t) for t in spec.set_for(0, 1)))
        assert expected == spec.set_for(1, 0)


def test_exhaust_count_formula():
    for n in (3, 4, 5):
        recs = exhaust_2partite_valency3(FiniteGroup.cyclic(n))
        assert len(recs) == math.comb(n, 3) ** 2


def test_exhaust_z5_contains_witness():
    recs = exhaust_2partite_valency3(FiniteGroup.cyclic(5))
    assert any(order == 5 for _, order in recs)


def test_exhaust_cap():
    with pytest.raises(PreconditionError):
        exhaust_2partite_valency3(FiniteGroup.cyclic(9))


def test_translate_relation():
    z4 = FiniteGroup.cyclic(4)
    assert translate_relation(z4, (0, 1, 2), (1, 2, 3)) == 1
    assert translate_relation(z4, (0, 1), (0, 2)) is None


def test_z2_three_parts_all_order_6():
    recs = exhaust_z2_m3_valency3()
    assert len(recs) == 16
    assert all(order == 6 for _, order in recs)
    for spec, _ in recs:
        assert spec.is_partite()
        singles = [e for _, _, e in spec.entries if len(e) == 1]
        assert len(singles) == 3


def test_rigid_m4_forced_complete():
    verdict = trivial_aut_3regular_search(4)
    assert verdict.verdict == "none-exists"
    assert verdict.nodes_explored == 1
    k4 = Digraph(4, [(u, v) for u in range(4) for v in range(4) if u != v])
    assert automorphism_group(k4).order == 24


def test_rigid_m5_none_with_derangement_count():
    """Independent cross-check: the complement of a 3-regular digraph on 5
    vertices is a loop-free permutation digraph, so the candidate count is
    the number of derangements of 5 points and every candidate inherits the
    permutation's centralizer as automorphisms."""
    verdict = trivial_aut_3regular_search(5)
    assert verdict.verdict == "none-exists"
    assert verdict.nodes_explored == 44  # derangements of 5


@pytest.mark.parametrize("m, oriented, count", [
    (4, False, 1),     # the complete digraph on 4 vertices
    (5, False, 44),    # derangements of 5 (complements of permutation digraphs)
    (6, False, 7570),
    (7, True, 2640),   # labelled regular tournaments on 7 vertices, OEIS A007079
])
def test_rigid_enumeration_counts(m, oriented, count):
    """The scan's candidates, without running Aut: distinct, loopless,
    3-regular, digon-free when oriented, and as many as the closed form.
    Each of the C(m-1, 3) vertex-0 rows carries the same number of
    candidates (1; 11 x 4; 757 x 10; 132 x 20), as a permutation of
    1..m-1 maps one row's candidates onto another's."""
    seen = set()
    for rows in search._branch_rows(m, oriented):
        g = Digraph(m, [(u, w) for u, row in enumerate(rows) for w in row])
        assert g.is_k_regular(3)
        assert g.is_oriented() or not oriented
        seen.add(tuple(rows))
    assert len(seen) == count
    per_row = collections.Counter(rows[0] for rows in seen)
    assert len(per_row) == math.comb(m - 1, 3)
    assert set(per_row.values()) == {count // len(per_row)}


@pytest.mark.parametrize("m", [8, 12, 24])
@pytest.mark.parametrize("oriented", [False, True])
def test_rigid_sampler_draws_3_regular_digraphs(m, oriented):
    kept = list(search._sampled_rows(m, oriented, 200, 5))
    assert kept
    for rows in kept:
        g = Digraph(m, [(u, w) for u, row in enumerate(rows) for w in row])
        assert g.is_k_regular(3)
        assert g.is_oriented() or not oriented


def test_rigid_m6_witness():
    verdict = trivial_aut_3regular_search(6)
    assert verdict.verdict == "witness-found"
    arcs = [tuple(a) for a in verdict.witness["arcs"]]
    g = Digraph(6, arcs)
    assert g.is_k_regular(3)
    assert automorphism_group(g).order == 1


def test_rigid_jobs_deterministic():
    for m in (5, 6):
        first = trivial_aut_3regular_search(m, jobs=1)
        second = trivial_aut_3regular_search(m, jobs=1)
        assert (first.verdict, first.witness, first.nodes_explored) == \
            (second.verdict, second.witness, second.nodes_explored)
        assert first.parameters["jobs"] == 1
    for mode, jobs in (("exhaustive", 2), ("exhaustive", 0), ("randomized", 2)):
        with pytest.raises(PreconditionError, match="jobs must be 1"):
            trivial_aut_3regular_search(5, mode=mode, jobs=jobs)


def test_import_leaves_process_pool_unloaded():
    # the search runs in one process, so nothing imports the pool or multiprocessing
    src = str(Path(search.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, mpdr; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "False"


def test_rigid_randomized_m4_agrees():
    verdict = trivial_aut_3regular_search(4, mode="randomized", budget=50, seed=3)
    assert verdict.verdict == "inconclusive"  # no rigid digraph to find
    assert verdict.nodes_explored == 50  # every sample on 4 vertices is complete


def test_rigid_randomized_m6_finds_witness():
    verdict = trivial_aut_3regular_search(6, mode="randomized", budget=2000, seed=0)
    assert verdict.verdict == "witness-found"
    arcs = [tuple(a) for a in verdict.witness["arcs"]]
    assert automorphism_group(Digraph(6, arcs)).order == 1


def test_rigid_oriented_variant_m4_impossible():
    verdict = trivial_aut_3regular_search(4, oriented=True)
    assert verdict.verdict == "none-exists"
    assert verdict.nodes_explored == 0


def test_rigid_oriented_witnesses_have_no_digons():
    verdict = trivial_aut_3regular_search(12, mode="randomized", budget=500,
                                          oriented=True, seed=1)
    assert verdict.verdict == "witness-found"
    g = Digraph(12, [tuple(a) for a in verdict.witness["arcs"]])
    assert g.is_oriented()
    assert g.is_k_regular(3)
    assert automorphism_group(g).order == 1


def test_rigid_caps_and_modes():
    with pytest.raises(PreconditionError):
        trivial_aut_3regular_search(8)
    with pytest.raises(PreconditionError):
        trivial_aut_3regular_search(100, mode="randomized")
    with pytest.raises(ValueError):
        trivial_aut_3regular_search(5, mode="guess")
    for m, mode in ((0, "exhaustive"), (-1, "exhaustive"), (0, "randomized")):
        with pytest.raises(PreconditionError, match="at least 1 vertex"):
            trivial_aut_3regular_search(m, mode=mode)


def test_verdict_json_shape():
    doc = trivial_aut_3regular_search(4).to_json_dict()
    assert doc["problem"] == "rigid3"
    assert doc["verdict"] == "none-exists"
    assert doc["witness"] is None
    assert doc["parameters"]["m"] == 4
    assert "wall_time" in doc and "nodes_explored" in doc


def test_drr2_z2_impossible():
    assert find_valency2_drr(FiniteGroup.cyclic(2)) is None


def test_drr2_z5():
    pair = find_valency2_drr(FiniteGroup.cyclic(5))
    assert pair == (1, 2)
    assert automorphism_group(cayley_digraph(FiniteGroup.cyclic(5), pair)).order == 5


def test_drr2_q8_none(q8):
    # the quaternion group admits no DRR at all, so in particular none of
    # valency 2; the exhaustive pair scan must come back empty
    assert find_valency2_drr(q8) is None


def test_drr2_result_contract():
    z7 = FiniteGroup.cyclic(7)
    pair = find_valency2_drr(z7)
    assert pair is not None
    a, b = pair
    assert 0 not in pair and a < b
    assert z7.generates(set(pair))
