import json
import random
import sys
from pathlib import Path

import pytest

from mpdr import (CapExceededError, ConnectionSpec, Digraph, FiniteGroup,
                  automorphism_group, automorphism_search,
                  brute_force_automorphisms, build_m_cayley, cyclic_2pdr, is_pdr,
                  part_swap_automorphism, stabilizer_criterion_check,
                  two_generated_mpdr)

# (order, nodes_explored, generator cycle strings) of the search core on fixed
# digraphs, recorded once: node order and generator lists are deterministic.
SEARCH_GOLDEN = json.loads((Path(__file__).parent / "search_golden.json").read_text())


def random_digraph(rng, n, p, colored=False):
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
    colors = [rng.randint(0, 2) for _ in range(n)] if colored else None
    return Digraph(n, arcs, vertex_color=colors)


def test_triangle_rotations():
    assert automorphism_group(Digraph(3, [(0, 1), (1, 2), (2, 0)])).order == 3


def test_complete_digraph():
    k4 = Digraph(4, [(u, v) for u in range(4) for v in range(4) if u != v])
    assert automorphism_group(k4).order == 24


def test_directed_path_rigid():
    assert automorphism_group(Digraph(3, [(0, 1), (1, 2)])).order == 1


def test_brute_force_examples():
    assert brute_force_automorphisms(Digraph(2, [(0, 1), (1, 0)])).order == 2
    assert brute_force_automorphisms(Digraph(3, [(0, 1), (1, 2)])).order == 1


def test_brute_force_cap():
    with pytest.raises(CapExceededError):
        brute_force_automorphisms(Digraph(10, []))


def test_vertex_cap():
    with pytest.raises(CapExceededError, match="2048 vertices"):
        automorphism_search(Digraph(2049, []))


def test_colors_respected():
    # directed 4-cycle: aut order 4 plain, 2 with an alternating 2-coloring,
    # 1 with a singling color
    cyc = [(i, (i + 1) % 4) for i in range(4)]
    assert automorphism_group(Digraph(4, cyc)).order == 4
    assert automorphism_group(Digraph(4, cyc, vertex_color=[0, 1, 0, 1])).order == 2
    assert automorphism_group(Digraph(4, cyc, vertex_color=[0, 1, 1, 1])).order == 1
    assert automorphism_group(Digraph(4, cyc, vertex_color=[0, 1, 1, 1]),
                              ignore_colors=True).order == 4


def test_oracle_agreement_randomized():
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randint(1, 7)
        g = random_digraph(rng, n, rng.choice([0.1, 0.25, 0.5, 0.75, 0.9]),
                           colored=rng.random() < 0.3)
        assert automorphism_group(g).order == brute_force_automorphisms(g).order


def test_soundness_generators_preserve():
    rng = random.Random(22)
    for _ in range(60):
        g = random_digraph(rng, rng.randint(2, 9), 0.4, colored=rng.random() < 0.3)
        aut = automorphism_group(g)
        for gen in aut.generators:
            assert g.is_automorphism(gen.images)


def test_loops_handled():
    g = Digraph(3, [(0, 0), (0, 1), (1, 2), (2, 1)], allow_loops=True)
    assert automorphism_group(g).order == brute_force_automorphisms(g).order


def pinned_search_cases() -> dict[str, tuple[Digraph, bool]]:
    """Name -> (digraph, ignore_colors) for the search-core pins."""
    cases = {"K7": (Digraph(7, [(u, v) for u in range(7) for v in range(7) if u != v]),
                    False),
             "3xC7": (Digraph(21, [(7 * c + i, 7 * c + (i + 1) % 7)
                                   for c in range(3) for i in range(7)]), False),
             "cyclic_2pdr(20)": (build_m_cayley(FiniteGroup.cyclic(20),
                                                cyclic_2pdr(20)).digraph, False)}
    # T[0,1] = 1 + T[1,0]: a part swap, so Aut is twice R(Z_30) color-blind
    swap = ConnectionSpec.from_sets(2, 30, {(0, 1): (1, 2, 4), (1, 0): (0, 1, 3)})
    cases["Z30-part-swap"] = (build_m_cayley(FiniteGroup.cyclic(30), swap).digraph, True)
    for seed in range(20):
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        if seed % 2:
            # circulant: vertex-transitive, so the witness searches run
            conn = rng.sample(range(1, n), rng.randint(1, max(1, n // 3)))
            g = Digraph(n, [(u, (u + s) % n) for u in range(n) for s in conn])
        else:
            g = random_digraph(rng, n, rng.choice([0.05, 0.1, 0.2]),
                               colored=seed % 4 == 0)
        cases[f"random-{seed}"] = (g, False)
    return cases


def pinned_search(name: str) -> dict:
    digraph, ignore_colors = pinned_search_cases()[name]
    result = automorphism_search(digraph, ignore_colors=ignore_colors)
    return {"order": str(result.group.order), "nodes": result.nodes_explored,
            "generators": [g.cycle_string() for g in result.group.generators]}


@pytest.mark.parametrize("name", sorted(SEARCH_GOLDEN["search"]))
def test_search_core_pinned(name):
    assert pinned_search(name) == SEARCH_GOLDEN["search"][name]


def test_search_leaves_recursion_limit_alone(monkeypatch):
    # 400 vertices: a search that sized the limit by n (3n + 200) would raise it
    def refuse(limit):
        raise AssertionError(f"setrecursionlimit({limit}) called")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    cycle = Digraph(400, [(i, (i + 1) % 400) for i in range(400)])
    assert automorphism_search(cycle).group.order == 400


def test_search_stats_populated():
    result = automorphism_search(Digraph(3, [(0, 1), (1, 2), (2, 0)]))
    assert result.group.order == 3
    assert result.nodes_explored >= 1
    assert result.elapsed >= 0


# -- is_pdr ---------------------------------------------------------------------


def test_is_pdr_z5():
    rep = is_pdr(FiniteGroup.cyclic(5), cyclic_2pdr(5))
    assert rep.is_pdr
    assert rep.aut_order == 5
    assert rep.valency == 3
    assert rep.parts_fixed_setwise == [True, True]
    assert rep.extra_automorphism_witness is None


def test_is_pdr_z3_full_sets_has_witness():
    z3 = FiniteGroup.cyclic(3)
    spec = ConnectionSpec.from_sets(2, 3, {(0, 1): (0, 1, 2), (1, 0): (0, 1, 2)})
    rep = is_pdr(z3, spec)
    assert not rep.is_pdr
    assert rep.aut_order > 3
    x = build_m_cayley(z3, spec)
    witness = rep.extra_automorphism_witness
    assert witness is not None
    assert x.digraph.is_automorphism(witness.images, respect_colors=False)
    assert not x.right_regular_group().contains(witness)


def test_is_pdr_z4_all_valency3_fail():
    import itertools
    z4 = FiniteGroup.cyclic(4)
    for t01 in itertools.combinations(range(4), 3):
        for t10 in itertools.combinations(range(4), 3):
            spec = ConnectionSpec.from_sets(2, 4, {(0, 1): t01, (1, 0): t10})
            assert not is_pdr(z4, spec).is_pdr


def test_is_pdr_rejects_diagonal():
    from mpdr import PreconditionError
    spec = ConnectionSpec.from_sets(2, 3, {(0, 0): (1,), (0, 1): (0,)})
    with pytest.raises(PreconditionError):
        is_pdr(FiniteGroup.cyclic(3), spec)


def test_is_pdr_nonregular_reported_not_error():
    z4 = FiniteGroup.cyclic(4)
    spec = ConnectionSpec.from_sets(2, 4, {(0, 1): (0, 1), (1, 0): (0,)})
    rep = is_pdr(z4, spec)
    assert rep.valency is None
    assert not rep.is_pdr


def test_report_json_shape():
    rep = is_pdr(FiniteGroup.cyclic(5), cyclic_2pdr(5))
    doc = rep.to_json_dict()
    assert doc["aut_order"] == "5"
    assert doc["is_pdr"] is True
    assert doc["valency"] == 3


# -- the regularity criterion ------------------------------------------------


def test_criterion_two_generated_s3(s3):
    x = build_m_cayley(s3, two_generated_mpdr(s3, 1, 2, 3))
    rep = stabilizer_criterion_check(x)
    assert rep.connected
    assert all(rep.parts_fixed_setwise)
    assert all(rep.stabilizer_fixes_out_neighborhood)
    assert rep.hypotheses_hold and rep.conclusion_holds and rep.consistent


def test_criterion_z3_parts_swapped():
    z3 = FiniteGroup.cyclic(3)
    spec = ConnectionSpec.from_sets(2, 3, {(0, 1): (0, 1, 2), (1, 0): (0, 1, 2)})
    x = build_m_cayley(z3, spec)
    # the swap from the shifted-sets criterion certifies a part exchange
    part_swap_automorphism(x, 0)
    rep = stabilizer_criterion_check(x)
    assert rep.connected
    assert not any(rep.parts_fixed_setwise)
    assert not rep.hypotheses_hold
    assert rep.consistent


def test_criterion_z5():
    z5 = FiniteGroup.cyclic(5)
    x = build_m_cayley(z5, cyclic_2pdr(5))
    rep = stabilizer_criterion_check(x, [x.vertex(0, 0), x.vertex(0, 1)])
    assert rep.hypotheses_hold and rep.conclusion_holds


def test_criterion_disconnected_is_hypothesis_failure():
    z4 = FiniteGroup.cyclic(4)
    spec = ConnectionSpec.from_sets(2, 4, {(0, 1): (0,), (1, 0): (0,)})
    x = build_m_cayley(z4, spec)  # disjoint digons
    rep = stabilizer_criterion_check(x)
    assert not rep.connected
    assert not rep.hypotheses_hold
    assert rep.consistent


def test_criterion_validates_chosen_vertices(s3):
    x = build_m_cayley(s3, two_generated_mpdr(s3, 1, 2, 3))
    with pytest.raises(ValueError):
        stabilizer_criterion_check(x, [0, 1])
    with pytest.raises(ValueError):
        stabilizer_criterion_check(x, [x.vertex(0, 1), x.vertex(0, 0), x.vertex(0, 2)])


def test_criterion_never_violated_on_random_specs():
    """The implication itself, probed on arbitrary small specs (connected or
    not, regular or not)."""
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(2, 4)
        m = rng.randint(2, 3)
        group = FiniteGroup.cyclic(n)
        sets = {}
        for i in range(m):
            for j in range(m):
                if i != j and rng.random() < 0.6:
                    size = rng.randint(1, n)
                    sets[(i, j)] = tuple(rng.sample(range(n), size))
        x = build_m_cayley(group, ConnectionSpec.from_sets(m, n, sets))
        report = stabilizer_criterion_check(x)
        assert report.consistent, (n, m, sets)
