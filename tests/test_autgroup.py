import ast
import dataclasses
import itertools
import json
import math
import random
import sys
from collections import deque
from pathlib import Path

import pytest

from mpdr import autgroup, perms, verify
from mpdr import (CapExceededError, ConnectionSpec, Digraph, FiniteGroup, PermGroup,
                  VerificationReport, automorphism_group, automorphism_order,
                  automorphism_search, automorphisms, brute_force_automorphisms,
                  build_m_cayley, cyclic_2pdr, cyclic_mpdr, exhaust_z2_m3_valency3,
                  is_pdr, is_rigid, part_swap_automorphism, stabilizer_criterion_check,
                  two_generated_mpdr)
from mpdr.search import _branch_rows

from conftest import A5_GENS, D4_GENS, Q8_GENS, S3_GENS, Z2Z4_GENS
from test_chain_pin import search_corpus

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


def reference_refine(digraph: Digraph, cells, splitters):
    """Refinement by definition: each queued vertex set splits every cell by
    (out, in, digon) counts into it, fragments in count order, and every
    fragment is queued."""
    out = [set(digraph.out_adj[v]) for v in range(digraph.n)]
    inn = [set(digraph.in_adj[v]) for v in range(digraph.n)]
    digon = [(out[v] & inn[v]) - {v} for v in range(digraph.n)]
    queue = deque(set(s) for s in splitters)
    while queue:
        s = queue.popleft()
        refined = []
        for cell in cells:
            groups: dict[tuple[int, int, int], list[int]] = {}
            for v in cell:
                key = (len(out[v] & s), len(inn[v] & s), len(digon[v] & s))
                groups.setdefault(key, []).append(v)
            fragments = [groups[key] for key in sorted(groups)]
            refined.extend(fragments)
            if len(fragments) > 1:
                queue.extend(set(f) for f in fragments)
        cells = refined
    return [sorted(c) for c in cells]


def partition_cells(part) -> list[list[int]]:
    lab, _, cell, _, size = part
    cells, q = [], 0
    while q < len(lab):
        k = size[cell[lab[q]]]
        cells.append(sorted(lab[q:q + k]))
        q += k
    return cells


def test_refinement_matches_definition():
    """The neighbour-driven refinement skips splitters and walks siblings in
    place of large fragments, yet must split cells in the same order as the
    refinement by definition: cell order decides the target cells, so the
    generators too."""
    rng = random.Random(5)
    for i in range(150):
        n = rng.randint(1, 16)
        if i % 3:
            p = rng.choice([0.1, 0.2, 0.4])
            arcs = [(u, v) for u in range(n) for v in range(n) if rng.random() < p]
        else:
            # relabeled circulants: large cells, so many children to refine
            sigma = rng.sample(range(n), n)
            shifts = rng.sample(range(n), rng.randint(1, min(n, 3)))
            arcs = [(sigma[u], sigma[(u + t) % n]) for u in range(n) for t in shifts]
        colors = [rng.randint(0, 1) for _ in range(n)] if i % 2 else None
        digraph = Digraph(n, arcs, vertex_color=colors, allow_loops=True)
        search = autgroup._AutSearch(digraph, ignore_colors=False)
        initial = partition_cells(search.root)
        root = search._refine(search.root, [(f, f + k, None)
                                            for f, k in zip(search.root[3], search.root[4])])
        cells = reference_refine(digraph, initial, initial)
        assert partition_cells(root) == cells
        start = 0
        for q, cell in enumerate(cells):
            for v in cell if len(cell) > 1 else ():
                rest = [u for u in cell if u != v]
                split = cells[:q] + [[v], rest] + cells[q + 1:]
                child = search._child(root, start, v)
                assert partition_cells(child) == reference_refine(digraph, split, [[v], rest])
            start += len(cell)


def test_cell_order_pinned():
    """A spec whose generators change when the largest fragment of a split
    is dropped as a splitter (plain Hopcroft): that reorders the cells."""
    spec = ConnectionSpec.from_sets(2, 8, {(0, 1): (0, 1, 2), (1, 0): (0, 6, 7)})
    digraph = build_m_cayley(FiniteGroup.cyclic(8), spec).digraph
    result = automorphism_search(digraph, ignore_colors=True)
    assert (result.group.order, result.nodes_explored) == (32, 8)
    assert [g.cycle_string() for g in result.group.generators] == [
        "(1 7)(2 6)(3 5)(8 10)(11 15)(12 14)",
        "(0 1)(2 7)(3 6)(4 5)(8 11)(9 10)(12 15)(13 14)",
        "(0 8 6 14 4 12 2 10)(1 9 7 15 5 13 3 11)"]


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
    golden = SEARCH_GOLDEN["search"][name]
    assert pinned_search(name) == golden
    digraph, ignore_colors = pinned_search_cases()[name]
    assert automorphism_order(digraph, ignore_colors=ignore_colors) == int(golden["order"])


def test_search_leaves_recursion_limit_alone(monkeypatch):
    # 400 vertices: a search that sized the limit by n (3n + 200) would raise it
    def refuse(limit):
        raise AssertionError(f"setrecursionlimit({limit}) called")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    cycle = Digraph(400, [(i, (i + 1) % 400) for i in range(400)])
    assert automorphism_search(cycle).group.order == 400


def _self_calls(module) -> list[str]:
    """The functions of the module that call themselves by name, directly
    or as a method or attribute of the same name (``self.f``)."""
    tree = ast.parse(Path(module.__file__).read_text())
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and fn.name in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    found.append(f"{fn.name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("module", [autgroup, perms], ids=lambda m: m.__name__)
def test_no_recursion(module):
    assert _self_calls(module) == []


def test_search_stats_populated():
    result = automorphism_search(Digraph(3, [(0, 1), (1, 2), (2, 0)]))
    assert result.group.order == 3
    assert result.nodes_explored >= 1
    assert result.elapsed >= 0


# -- oracles beyond brute force ---------------------------------------------------


def relabeled(digraph: Digraph, sigma: list[int]) -> Digraph:
    """The image of the digraph under the vertex map v -> sigma[v]."""
    colors = None
    if digraph.vertex_color is not None:
        colors = [0] * digraph.n
        for v, c in enumerate(digraph.vertex_color):
            colors[sigma[v]] = c
    return Digraph(digraph.n, [(sigma[u], sigma[v]) for u, v in digraph.arcs()],
                   vertex_color=colors, allow_loops=True)


def disjoint_copies(n: int, arcs, k: int, colors=None) -> Digraph:
    """k disjoint copies of a digraph on n vertices; copy c gets colors[c]."""
    return Digraph(k * n, [(c * n + u, c * n + v) for c in range(k) for u, v in arcs],
                   vertex_color=None if colors is None else [colors[c] for c in range(k)
                                                             for _ in range(n)],
                   allow_loops=True)


def test_relabeling_invariance_2000_vertices():
    """Relabeling by sigma conjugates the group: sigma^-1 g sigma for each
    generator g must lie in the group found for the image, of equal order.
    The node count is not compared: the witness searches try branches in
    label order, so how many generators are needed depends on the labels."""
    digraph = build_m_cayley(FiniteGroup.cyclic(1000), cyclic_2pdr(1000)).digraph
    assert digraph.n == 2000
    group = automorphism_group(digraph)
    assert group.order == 1000
    for seed in range(3):
        sigma = random.Random(seed).sample(range(digraph.n), digraph.n)
        image = automorphism_group(relabeled(digraph, sigma))
        assert image.order == 1000
        for g in group.generators:
            conjugate = [0] * digraph.n
            for v in range(digraph.n):
                conjugate[sigma[v]] = sigma[g(v)]
            assert image.contains(conjugate)


@pytest.mark.parametrize("n", [2, 3, 5, 16, 300])
def test_directed_cycle_order(n):
    cycle = [(i, (i + 1) % n) for i in range(n)]
    assert automorphism_group(Digraph(n, cycle)).order == n
    assert automorphism_order(Digraph(n, cycle)) == n
    # a loop on every vertex changes nothing
    looped = Digraph(n, cycle + [(i, i) for i in range(n)], allow_loops=True)
    assert automorphism_group(looped).order == n


@pytest.mark.parametrize("q", [7, 11, 19, 23])
def test_paley_tournament_order(q):
    squares = {x * x % q for x in range(1, q)}
    paley = Digraph(q, [(u, v) for u in range(q) for v in range(q) if (v - u) % q in squares])
    assert automorphism_group(paley).order == q * (q - 1) // 2
    assert automorphism_order(paley) == q * (q - 1) // 2


# connected and rigid: the triangle's rotations must fix 0, its only vertex
# of out-degree 2
RIGID = (4, [(0, 1), (1, 2), (2, 0), (0, 3)])
# connected and rigid with loops: only 0 and 1 carry one
RIGID_LOOPED = (3, [(0, 0), (1, 1), (0, 1), (1, 2), (2, 0)])


@pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
def test_disjoint_rigid_copies_order(k):
    for n, arcs in (RIGID, RIGID_LOOPED):
        assert automorphism_group(Digraph(n, arcs, allow_loops=True)).order == 1
        assert automorphism_group(disjoint_copies(n, arcs, k)).order == math.factorial(k)
    # colors split the copies into classes that are permuted independently
    colors = [c % 2 for c in range(k)]
    colored = disjoint_copies(*RIGID, k, colors)
    expected = math.factorial(colors.count(0)) * math.factorial(colors.count(1))
    assert automorphism_group(colored).order == expected
    assert automorphism_group(colored, ignore_colors=True).order == math.factorial(k)


def test_vf2_automorphism_counts():
    """Cross-check against networkx's VF2 matcher, counting every self-map."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import DiGraphMatcher

    def vf2_count(digraph: Digraph, colored: bool) -> int:
        g = nx.DiGraph()
        for v in range(digraph.n):
            g.add_node(v, c=digraph.vertex_color[v] if colored else 0)
        g.add_edges_from(digraph.arcs())
        matcher = DiGraphMatcher(g, g, node_match=lambda a, b: a["c"] == b["c"])
        return sum(1 for _ in matcher.isomorphisms_iter())

    rng = random.Random(2024)
    groups = [FiniteGroup.cyclic(n) for n in range(3, 9)]
    for i in range(200):
        if i % 2:
            group = rng.choice(groups)
            m = rng.randint(2, min(3, 24 // group.order))
            sets = {(a, b): tuple(rng.sample(range(group.order), rng.randint(2, 3)))
                    for a in range(m) for b in range(m) if a != b}
            # x_0 -> (t + x)_1 -> x_0 closes a digon when T[1,0] holds -t
            t = rng.randrange(group.order)
            sets[(0, 1)] = tuple({t, *sets[(0, 1)]})
            sets[(1, 0)] = tuple({-t % group.order, *sets[(1, 0)]})
            digraph = build_m_cayley(group, ConnectionSpec.from_sets(m, group.order,
                                                                     sets)).digraph
        else:
            n = rng.randint(2, 24)
            p = rng.choice([0.1, 0.2, 0.3])
            arcs = {(u, v) for u in range(n) for v in range(n)
                    if u != v and rng.random() < p}
            arcs |= {(v, u) for u, v in list(arcs) if rng.random() < 0.3}
            u, v = rng.sample(range(n), 2)
            arcs |= {(u, v), (v, u)}
            digraph = Digraph(n, sorted(arcs), vertex_color=[rng.randint(0, 1)
                                                              for _ in range(n)])
        assert digraph.undirected_edges()
        for colored in (False, True):
            expected = vf2_count(digraph, colored)
            assert automorphism_group(digraph, ignore_colors=not colored).order == expected


# -- order off the search, rigidity --------------------------------------------


def uncolored(digraph: Digraph) -> Digraph:
    return Digraph(digraph.n, digraph.arcs(), allow_loops=True)


def test_automorphism_order_matches_brute_force():
    rng = random.Random(31)
    for _ in range(120):
        g = random_digraph(rng, rng.randint(1, 8), rng.choice([0.1, 0.25, 0.5, 0.75]),
                           colored=True)
        assert automorphism_order(g) == brute_force_automorphisms(g).order
        assert (automorphism_order(g, ignore_colors=True)
                == brute_force_automorphisms(uncolored(g)).order)


def test_automorphism_order_closed_forms():
    # directed cycles and Paley tournaments: test_directed_cycle_order and
    # test_paley_tournament_order
    for n in (1, 2, 5, 8, 12):
        complete = Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])
        assert automorphism_order(complete) == automorphism_group(complete).order \
            == math.factorial(n)
    for k in (1, 2, 3, 5):
        cycles = Digraph(7 * k, [(7 * c + i, 7 * c + (i + 1) % 7)
                                 for c in range(k) for i in range(7)])
        assert automorphism_order(cycles) == automorphism_group(cycles).order \
            == 7 ** k * math.factorial(k)


@pytest.mark.parametrize("oriented", [False, True])
def test_is_rigid_on_rigid3_candidates(oriented):
    # no oriented candidate exists below m = 7, so that side takes m = 7 too
    tested = 0
    for m in range(1, 8 if oriented else 7):
        for rows in _branch_rows(m, oriented):
            g = Digraph(m, [(u, w) for u, row in enumerate(rows) for w in row])
            assert is_rigid(g) == (automorphism_search(g).group.order == 1)
            tested += 1
    assert tested == (2640 if oriented else 1 + 44 + 7570)


def test_is_rigid_random():
    rng = random.Random(32)
    rigid = 0
    for _ in range(300):
        g = random_digraph(rng, rng.randint(1, 12), rng.choice([0.1, 0.2, 0.4]),
                           colored=rng.random() < 0.3)
        assert is_rigid(g) == (automorphism_search(g).group.order == 1)
        rigid += is_rigid(g)
    assert 0 < rigid < 300


def test_is_rigid_stops_at_first_automorphism(monkeypatch):
    found = []
    leaf = autgroup._AutSearch._leaf

    def counted(self, lab):
        images = leaf(self, lab)
        if images is not None:
            found.append(images)
        return images

    monkeypatch.setattr(autgroup._AutSearch, "_leaf", counted)
    k7 = Digraph(7, [(u, v) for u in range(7) for v in range(7) if u != v])
    assert not is_rigid(k7)
    assert len(found) == 1
    assert automorphism_order(k7) == 5040
    assert len(found) == 1 + 6  # one per path level: target cells of 7 down to 2


def chain_cross_check_cases() -> dict[str, tuple[Digraph, bool]]:
    """The searches of test_chain_pin.py and of search_golden.json."""
    cases = {f"chain-pin-{name}": (digraph, ignore_colors)
             for name, digraph, ignore_colors in search_corpus()}
    cases.update(pinned_search_cases())
    return cases


def test_search_result_matches_chain():
    """The order and generators read off the search are the chain's: every
    automorphism kept lies outside the group generated by those before it."""
    for name, (digraph, ignore_colors) in chain_cross_check_cases().items():
        r = automorphisms(digraph, ignore_colors=ignore_colors)
        assert r.order == r.group.order, name
        assert r.generators == r.group.generators, name
        chained = automorphism_search(digraph, ignore_colors=ignore_colors)
        assert (r.order, r.generators, r.nodes_explored) == (
            chained.order, chained.generators, chained.nodes_explored), name


def test_automorphisms_builds_no_chain(monkeypatch):
    class Refused(PermGroup):
        def __init__(self, *args):
            raise AssertionError("a stabilizer chain was built")

    monkeypatch.setattr(autgroup, "PermGroup", Refused)
    k7 = Digraph(7, [(u, v) for u in range(7) for v in range(7) if u != v])
    assert automorphisms(k7).order == 5040
    swap = ConnectionSpec.from_sets(2, 30, {(0, 1): (1, 2, 4), (1, 0): (0, 1, 3)})
    assert is_pdr(FiniteGroup.cyclic(30), swap).aut_order == 60
    with pytest.raises(AssertionError, match="chain was built"):
        automorphism_search(k7)


def chain_report(group: FiniteGroup, spec: ConnectionSpec,
                 color_blind: bool) -> VerificationReport:
    """is_pdr's report computed from the stabilizer chain of
    ``automorphism_search``, the way is_pdr computed it before it read the
    search's result."""
    x = build_m_cayley(group, spec)
    result = automorphism_search(x.digraph, ignore_colors=color_blind)
    aut = result.group
    valency = x.digraph.regular_valency()
    witness = None
    if aut.order != group.order:
        witness = next((gen for gen in aut.generators
                        if gen != x.right_translation(x.vertex_element(gen(0)))), None)
    return VerificationReport(
        group_order=group.order, aut_order=aut.order,
        is_pdr=valency is not None and aut.order == group.order, valency=valency,
        is_partite=True, parts_fixed_setwise=[aut.fixes_setwise(p) for p in x.parts()],
        extra_automorphism_witness=witness, vertex_count=x.digraph.n,
        search_nodes=result.nodes_explored, elapsed=0.0, color_blind=color_blind)


def family_specs() -> list[tuple[str, FiniteGroup, ConnectionSpec]]:
    """The cyclic and multi-part families, every exhaust_z2_m3_valency3 spec
    and part swaps (negative, with witnesses)."""
    cases = [(f"cyclic_2pdr({n})", FiniteGroup.cyclic(n), cyclic_2pdr(n))
             for n in (5, 6, 7, 8, 12, 17)]
    cases += [(f"cyclic_mpdr({n}, {m})", FiniteGroup.cyclic(n), cyclic_mpdr(n, m))
              for n in (2, 3, 4, 5, 7) for m in (3, 4, 5) if (n, m) != (2, 3)]
    for label, degree, gens in (("S3", 3, S3_GENS), ("D4", 4, D4_GENS), ("Q8", 8, Q8_GENS),
                                ("Z2xZ4", 6, Z2Z4_GENS), ("A5", 5, A5_GENS)):
        group = FiniteGroup.from_permutations(degree, gens)
        x, y = group.designated_generators
        cases += [(f"two_generated_mpdr({label}, {m})", group,
                   two_generated_mpdr(group, x, y, m)) for m in (3, 4)]
    z2 = FiniteGroup.cyclic(2)
    cases += [(f"z2-m3-{k}", z2, spec) for k, (spec, _) in enumerate(exhaust_z2_m3_valency3())]
    for n in (6, 9, 10):
        swap = ConnectionSpec.from_sets(2, n, {(0, 1): (1, 2, 4 % n), (1, 0): (0, 1, 3)})
        cases.append((f"part-swap-Z{n}", FiniteGroup.cyclic(n), swap))
    return cases


@pytest.mark.parametrize("color_blind", [True, False])
def test_is_pdr_matches_chain_report(color_blind):
    negatives = 0
    for name, group, spec in family_specs():
        report = is_pdr(group, spec, color_blind=color_blind)
        expected = chain_report(group, spec, color_blind)
        assert dataclasses.replace(report, elapsed=0.0) == expected, name
        negatives += report.extra_automorphism_witness is not None
    # color-blind: the 16 Z2 three-part specs and the 3 part swaps
    assert negatives == (19 if color_blind else 1)


def test_is_pdr_lagrange_guard(monkeypatch):
    """R(G) lies in Aut, so a search order that |G| does not divide is a
    miscount, and is_pdr refuses it rather than report it."""
    search = verify.automorphisms

    def miscounted(*args, **kwargs):
        result = search(*args, **kwargs)
        return dataclasses.replace(result, order=result.order + 1)

    monkeypatch.setattr(verify, "automorphisms", miscounted)
    with pytest.raises(RuntimeError, match="not a multiple of the group order 5"):
        is_pdr(FiniteGroup.cyclic(5), cyclic_2pdr(5))


def test_chain_order_cross_check(monkeypatch):
    class Miscounted(PermGroup):
        @property
        def order(self):
            return 2 * PermGroup.order.fget(self)

    monkeypatch.setattr(autgroup, "PermGroup", Miscounted)
    with pytest.raises(RuntimeError, match="disagrees"):
        automorphism_search(Digraph(3, [(0, 1), (1, 2), (2, 0)]))


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
    assert doc["color_blind"] is True
    parts_as_colors = is_pdr(FiniteGroup.cyclic(5), cyclic_2pdr(5), color_blind=False)
    assert parts_as_colors.to_json_dict()["color_blind"] is False


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


def _criterion_corpus(s3):
    """(group, spec) pairs: those of the criterion tests above (the random
    ones drawn as there), every ``exhaust_z2_m3_valency3`` spec and every
    2-part Z4 spec with 3-element sets."""
    z4 = FiniteGroup.cyclic(4)
    yield s3, two_generated_mpdr(s3, 1, 2, 3)
    yield FiniteGroup.cyclic(3), ConnectionSpec.from_sets(
        2, 3, {(0, 1): (0, 1, 2), (1, 0): (0, 1, 2)})
    yield FiniteGroup.cyclic(5), cyclic_2pdr(5)
    yield z4, ConnectionSpec.from_sets(2, 4, {(0, 1): (0,), (1, 0): (0,)})
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(2, 4)
        m = rng.randint(2, 3)
        sets = {}
        for i in range(m):
            for j in range(m):
                if i != j and rng.random() < 0.6:
                    size = rng.randint(1, n)
                    sets[(i, j)] = tuple(rng.sample(range(n), size))
        yield FiniteGroup.cyclic(n), ConnectionSpec.from_sets(m, n, sets)
    for spec, _ in exhaust_z2_m3_valency3():
        yield FiniteGroup.cyclic(2), spec
    triples = list(itertools.combinations(range(4), 3))
    for t01, t10 in itertools.product(triples, repeat=2):
        yield z4, ConnectionSpec.from_sets(2, 4, {(0, 1): t01, (1, 0): t10})


def test_criterion_stabilizers_match_chain(monkeypatch, s3):
    """The criterion check reads each chosen vertex's stabilizer off a search
    of the digraph with that vertex in its own color class.  On every
    (spec, chosen vertex) of the corpus, that stabilizer has the order of
    the chain's ``point_stabilizer`` and the same ``fixes_pointwise``
    verdict on the vertex's out-neighborhood."""
    searched = []

    def recording(digraph, **kwargs):
        searched.append(automorphisms(digraph, **kwargs))
        return searched[-1]

    monkeypatch.setattr(verify, "automorphisms", recording)
    cases = 0
    for group, spec in _criterion_corpus(s3):
        x = build_m_cayley(group, spec)
        chain = automorphism_search(x.digraph, ignore_colors=True).group
        searched.clear()
        rep = stabilizer_criterion_check(x)
        assert rep.aut_order == chain.order
        assert len(searched) == 1 + x.m
        chosen = [x.vertex(0, i) for i in range(x.m)]
        for u, stab, fixes in zip(chosen, searched[1:],
                                  rep.stabilizer_fixes_out_neighborhood):
            expected = chain.point_stabilizer(u)
            assert stab.order == expected.order, (spec, u)
            assert fixes == expected.fixes_pointwise(x.digraph.out_adj[u]), (spec, u)
            cases += 1
    assert cases == 9 + 153 + 16 * 3 + 16 * 2
