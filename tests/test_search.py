import math

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


def test_rigid_m6_witness():
    verdict = trivial_aut_3regular_search(6)
    assert verdict.verdict == "witness-found"
    arcs = [tuple(a) for a in verdict.witness["arcs"]]
    g = Digraph(6, arcs)
    assert g.is_k_regular(3)
    assert automorphism_group(g).order == 1


def test_rigid_jobs_deterministic():
    for m in (5, 6):
        seq = trivial_aut_3regular_search(m, jobs=1)
        par = trivial_aut_3regular_search(m, jobs=2)
        assert (seq.verdict, seq.witness, seq.nodes_explored) == \
            (par.verdict, par.witness, par.nodes_explored)


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: runs the branches in this process,
    lazily, and records its size, the branches merged and its shutdown."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.merged = 0
        self.shutdown_args = None

    def map(self, fn, *iterables):
        for args in zip(*iterables):
            self.merged += 1
            yield fn(*args)

    def shutdown(self, **kwargs):
        self.shutdown_args = kwargs


@pytest.mark.parametrize("jobs, cpus, workers", [
    (1000, 64, 10),   # at most one worker per branch: C(5, 3) = 10 at m = 6
    (3, 64, 3),
    (1000, 2, 2),
    (1000, None, None),
    (2, 1, None),
])
def test_rigid_pool_capped_and_stopped_at_witness(monkeypatch, jobs, cpus, workers):
    expected = trivial_aut_3regular_search(6, jobs=1)
    pools = []

    def make_pool(max_workers):
        pools.append(_InProcessPool(max_workers))
        return pools[-1]

    monkeypatch.setattr(search, "ProcessPoolExecutor", make_pool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
    verdict = trivial_aut_3regular_search(6, jobs=jobs)
    assert (verdict.verdict, verdict.witness, verdict.nodes_explored) == \
        (expected.verdict, expected.witness, expected.nodes_explored)
    assert verdict.parameters["jobs"] == jobs
    assert [pool.max_workers for pool in pools] == ([] if workers is None else [workers])
    for pool in pools:
        assert pool.merged == 1  # branch (1, 2, 3) holds the witness; nothing after it
        assert pool.shutdown_args == {"cancel_futures": True}


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
    verdict = trivial_aut_3regular_search(7, mode="randomized", budget=500,
                                          oriented=True, seed=1)
    if verdict.witness is not None:
        g = Digraph(7, [tuple(a) for a in verdict.witness["arcs"]])
        assert g.is_oriented()


def test_rigid_caps_and_modes():
    with pytest.raises(PreconditionError):
        trivial_aut_3regular_search(8)
    with pytest.raises(PreconditionError):
        trivial_aut_3regular_search(100, mode="randomized")
    with pytest.raises(ValueError):
        trivial_aut_3regular_search(5, mode="guess")


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
