import collections
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mpdr import (Digraph, FiniteGroup, PreconditionError, automorphisms, cli,
                  cayley_digraph, cyclic_2pdr, exhaust_2partite_valency3,
                  exhaust_z2_m3_valency3, find_valency2_drr, is_pdr, search,
                  translate_relation, trivial_aut_3regular_search)
from mpdr.autgroup import first_automorphism
from mpdr.cayley import ConnectionSpec


def test_exhaust_z3():
    recs = exhaust_2partite_valency3(FiniteGroup.cyclic(3))
    assert len(recs) == 1
    ((t01, t10), order), = recs
    assert t01 == (0, 1, 2) and t10 == (0, 1, 2)
    assert order > 3


@pytest.mark.parametrize("name, orbits", [("Z8", 72), ("d4", 44), ("q8", 20)])
def test_sweep_builds_one_spec_per_orbit(request, monkeypatch, name, orbits):
    """The sweep builds a ConnectionSpec only for the first pair of each
    orbit, in sweep order, and builds each one validated."""
    group = FiniteGroup.cyclic(8) if name == "Z8" else request.getfixturevalue(name)
    built = []
    post_init = ConnectionSpec.__post_init__

    def recording(spec):
        post_init(spec)
        built.append(spec)

    monkeypatch.setattr(ConnectionSpec, "__post_init__", recording)
    records = exhaust_2partite_valency3(group)
    triples = list(itertools.combinations(range(group.order), 3))
    firsts = sorted(set(search._orbit_firsts(group, triples)))
    assert len(firsts) == len(built) == orbits
    assert [(s.set_for(0, 1), s.set_for(1, 0)) for s in built] == \
        [records[k][0] for k in firsts]


@pytest.mark.parametrize("name", ["Z8", "d4", "q8", "z2z4", "Z7"])
def test_orbit_firsts_are_least_of_union_find_classes(request, name):
    """Each sweep index is labelled with the least index of its class in a
    union-find that joins every index with its image under every move."""
    group = (FiniteGroup.cyclic(int(name[1:])) if name.startswith("Z")
             else request.getfixturevalue(name))
    triples = list(itertools.combinations(range(group.order), 3))
    c = len(triples)
    index = {t: k for k, t in enumerate(triples)}
    parent = list(range(c * c))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for f01, f10, swap in search._spec_maps(group):
        m01, m10 = ([index[tuple(sorted(f[x] for x in t))] for t in triples]
                    for f in (f01, f10))
        for i, j in itertools.product(range(c), repeat=2):
            image = m10[j] * c + m01[i] if swap else m01[i] * c + m10[j]
            a, b = find(i * c + j), find(image)
            parent[max(a, b)] = min(a, b)
    assert search._orbit_firsts(group, triples) == [find(k) for k in range(c * c)]


def test_exhaust_z4_all_fail_with_shift_property():
    z4 = FiniteGroup.cyclic(4)
    recs = exhaust_2partite_valency3(z4)
    assert len(recs) == 16
    for (t01, t10), order in recs:
        assert order > 4
        shift = translate_relation(z4, t01, t10)
        assert shift is not None
        expected = tuple(sorted(z4.mul(shift, t) for t in t01))
        assert expected == t10


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


@pytest.mark.parametrize("n", [1, 2])
def test_exhaust_refuses_order_without_a_3_subset(n):
    with pytest.raises(PreconditionError, match=f"order at least 3, got {n}"):
        exhaust_2partite_valency3(FiniteGroup.cyclic(n))


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
    assert automorphisms(k4).group.order == 24


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
    1..m-1 maps one row's candidates onto another's.  Unoriented m = 7,
    too slow for this suite, gives 1,975,560 candidates, 98,778 x 20."""
    seen = set()
    for rows in search._branch_rows(m, oriented):
        g = Digraph(m, [(u, w) for u, row in enumerate(rows) for w in row])
        assert g.regular_valency() == 3
        assert not any(g.digon_adj) or not oriented
        seen.add(tuple(rows))
    assert len(seen) == count
    per_row = collections.Counter(rows[0] for rows in seen)
    assert len(per_row) == math.comb(m - 1, 3)
    assert set(per_row.values()) == {count // len(per_row)}


def _reference_branch_rows(m, oriented):
    """A plain enumerator: every row is drawn from the vertices other than v
    with in-degree below 3 (not pointing to v, if oriented), and a prefix is
    cut only once some in-degree can no longer reach 3, which can bind only
    in the last three rows."""
    rows, indeg = [], [0] * m

    def feasible(next_v):
        rem = m - next_v
        return all(d <= 3 and d + rem - (j >= next_v) >= 3 for j, d in enumerate(indeg))

    def extend(v):
        if v == m:
            yield list(rows)
            return
        allowed = [u for u in range(m) if u != v and indeg[u] < 3
                   and not (oriented and u < v and v in rows[u])]
        near_end = m - (v + 1) <= 3
        for combo in itertools.combinations(allowed, 3):
            for j in combo:
                indeg[j] += 1
            rows.append(combo)
            if not near_end or feasible(v + 1):
                yield from extend(v + 1)
            rows.pop()
            for j in combo:
                indeg[j] -= 1

    if feasible(0):
        yield from extend(0)


@pytest.mark.parametrize("m, oriented", [
    (m, oriented) for m in range(1, 8) for oriented in (False, True)
    if (m, oriented) != (7, False)])  # 1,975,560 candidates: too slow here
def test_rigid_enumeration_matches_plain_reference(m, oriented):
    """Cutting dead prefixes at every level and forcing the targets that
    must be taken yields the same candidates, in the same order, as the
    plain enumerator."""
    candidates = search._branch_rows(m, oriented)
    assert inspect.isgenerator(candidates)
    assert list(candidates) == list(_reference_branch_rows(m, oriented))


@pytest.mark.parametrize("m", [8, 12, 24])
@pytest.mark.parametrize("oriented", [False, True])
def test_rigid_sampler_draws_3_regular_digraphs(m, oriented):
    kept = list(search._sampled_rows(m, oriented, 200, 5))
    assert kept
    for rows in kept:
        g = Digraph(m, [(u, w) for u, row in enumerate(rows) for w in row])
        assert g.regular_valency() == 3
        assert not any(g.digon_adj) or not oriented


def test_rigid_m6_witness():
    verdict = trivial_aut_3regular_search(6)
    assert verdict.verdict == "witness-found"
    arcs = [tuple(a) for a in verdict.witness["arcs"]]
    g = Digraph(6, arcs)
    assert g.regular_valency() == 3
    assert automorphisms(g).group.order == 1


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


def test_two_runs_give_equal_records():
    """A verdict and a report hold no clock, so two runs of the same call
    compare equal, field for field."""
    assert trivial_aut_3regular_search(5) == trivial_aut_3regular_search(5)
    negative = ConnectionSpec.from_sets(2, 3, {(0, 1): (0, 1, 2), (1, 0): (0, 1, 2)})
    for group, spec in [(FiniteGroup.cyclic(5), cyclic_2pdr(5)),
                        (FiniteGroup.cyclic(3), negative)]:
        first = is_pdr(group, spec)
        assert first == is_pdr(group, spec)
        assert first.is_pdr == (group.order == 5)


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
    assert automorphisms(Digraph(6, arcs)).group.order == 1


def test_rigid_oriented_variant_m4_impossible():
    verdict = trivial_aut_3regular_search(4, oriented=True)
    assert verdict.verdict == "none-exists"
    assert verdict.nodes_explored == 0


def test_rigid_oriented_witnesses_have_no_digons():
    verdict = trivial_aut_3regular_search(12, mode="randomized", budget=500,
                                          oriented=True, seed=1)
    assert verdict.verdict == "witness-found"
    g = Digraph(12, [tuple(a) for a in verdict.witness["arcs"]])
    assert not any(g.digon_adj)
    assert g.regular_valency() == 3
    assert automorphisms(g).group.order == 1


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
    # randomized mode refuses what would test nothing; exhaustive mode answers
    for m in (1, 2, 3):
        with pytest.raises(PreconditionError, match="exhaustive mode answers none-exists"):
            trivial_aut_3regular_search(m, mode="randomized")
        assert trivial_aut_3regular_search(m).verdict == "none-exists"
    for budget in (0, -5):
        with pytest.raises(PreconditionError, match="budget must be at least 1"):
            trivial_aut_3regular_search(8, mode="randomized", budget=budget)


def _arcs(rows):
    return [(u, w) for u, row in enumerate(rows) for w in row]


def _plain_scan(m, candidates):
    """The reference scan: every candidate built and searched, in order."""
    tested = 0
    for rows in candidates:
        tested += 1
        if first_automorphism(Digraph(m, _arcs(rows))) is None:
            return _arcs(rows), tested
    return None, tested


@pytest.mark.parametrize("m, oriented, mode, seed", [
    *((m, oriented, "exhaustive", 0) for m in range(1, 8) for oriented in (False, True)),
    *((m, oriented, "randomized", seed) for m in (4, 5, 6, 7, 8, 12)
      for oriented in (False, True) for seed in (0, 1, 2)),
])
def test_rigid_reuse_matches_plain_scan(m, oriented, mode, seed):
    """Deciding candidates by the automorphisms already found changes no
    verdict, witness or count."""
    if mode == "exhaustive":
        candidates = search._branch_rows(m, oriented)
    else:
        candidates = search._sampled_rows(m, oriented, 200, seed)
    arcs, tested = _plain_scan(m, candidates)
    verdict = trivial_aut_3regular_search(m, mode, budget=200, oriented=oriented,
                                          seed=seed)
    assert verdict.nodes_explored == tested
    assert verdict.witness == (None if arcs is None
                               else {"n": m, "arcs": [list(a) for a in arcs]})
    expected = ("witness-found" if arcs is not None
                else "none-exists" if mode == "exhaustive" else "inconclusive")
    assert verdict.verdict == expected


def _circulant(m, steps):
    return [tuple(sorted((u + s) % m for s in steps)) for u in range(m)]


@pytest.mark.parametrize("oriented", [False, True])
@pytest.mark.parametrize("m", [16, 32, 64])
def test_rigid_reuse_wide_masks(m, oriented, monkeypatch):
    """Row masks past 63 bits decide exactly what the plain scan decides.
    Randomized draws this large are rigid at once, so a second stream
    makes the masks decide: a rotation found on one circulant also
    preserves another, which is then not searched."""
    arcs, tested = _plain_scan(m, search._sampled_rows(m, oriented, 20, 0))
    verdict = trivial_aut_3regular_search(m, "randomized", budget=20, oriented=oriented,
                                          seed=0)
    assert verdict.nodes_explored == tested
    assert verdict.witness == (None if arcs is None
                               else {"n": m, "arcs": [list(a) for a in arcs]})
    assert verdict.verdict == ("witness-found" if arcs is not None else "inconclusive")

    candidates = [_circulant(m, (1, 2, 5)), _circulant(m, (1, 3, 7)),
                  next(search._sampled_rows(m, oriented, 20, 0))]
    searched = []

    def counted(digraph):
        searched.append(digraph)
        return first_automorphism(digraph)

    monkeypatch.setattr(search, "first_automorphism", counted)
    expected = _plain_scan(m, candidates)
    assert expected == (_arcs(candidates[2]), 3)
    assert search._first_rigid(m, candidates) == expected
    assert len(searched) == 2


def test_rigid_m7_oriented_searches_pinned(monkeypatch):
    """The 2,640 labelled regular tournaments on 7 vertices fall into 3
    isomorphism classes; reusing the automorphisms found leaves 260 of them
    to search."""
    searched = []

    def counted(digraph):
        searched.append(digraph)
        return first_automorphism(digraph)

    monkeypatch.setattr(search, "first_automorphism", counted)
    verdict = trivial_aut_3regular_search(7, oriented=True)
    assert (verdict.verdict, verdict.nodes_explored) == ("none-exists", 2640)
    assert len(searched) == 260


def test_rigid_index_hit_alone_never_decides():
    """A rigid candidate that shares a non-rigid one's index key (the same
    row of vertex 0 and the same row at sigma(0)) is still searched."""
    candidates = list(search._branch_rows(6, False))
    first = candidates[0]
    sigma = first_automorphism(Digraph(6, _arcs(first)))
    assert sigma is not None
    rigid = next(rows for rows in candidates
                 if rows[0] == first[0] and rows[sigma[0]] == first[sigma[0]]
                 and first_automorphism(Digraph(6, _arcs(rows))) is None)
    # sigma maps vertex 0's row onto the row at sigma(0), so its key is hit
    assert search._image(sigma, rigid[0]) == rigid[sigma[0]]
    assert search._first_rigid(6, [first, rigid]) == (_arcs(rigid), 2)


def test_verdict_json_shape(capsys):
    """The rigid3 verdict as the CLI writes it."""
    assert cli.main(["search", "--problem", "rigid3", "--m", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["problem"] == "rigid3"
    assert doc["verdict"] == "none-exists"
    assert doc["witness"] is None
    assert doc["parameters"]["m"] == 4
    assert "elapsed_seconds" in doc and "nodes_explored" in doc


def test_drr2_z2_impossible():
    assert find_valency2_drr(FiniteGroup.cyclic(2)) is None


def test_drr2_z5():
    pair = find_valency2_drr(FiniteGroup.cyclic(5))
    assert pair == (1, 2)
    assert automorphisms(cayley_digraph(FiniteGroup.cyclic(5), pair)).group.order == 5


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
