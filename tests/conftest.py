import functools
import itertools
import re
import sys
from typing import Iterable, Iterator

import pytest

from mpdr import Digraph, FiniteGroup, MCayleyDigraph, PermGroup, Permutation, automorphisms
from mpdr.errors import CapExceededError
from mpdr.perms import _Level, generators_fix_setwise

# Permutation realizations used across the suite.  Indices of the two
# designated generators are always 1 and 2 (BFS discovery order).
S3_GENS = [[1, 2, 0], [1, 0, 2]]                      # 3-cycle, transposition
D4_GENS = [[1, 2, 3, 0], [0, 3, 2, 1]]                # square rotation, reflection
Q8_GENS = [[2, 3, 1, 0, 7, 6, 4, 5],                  # right mult. by i and j on
           [4, 5, 6, 7, 1, 0, 3, 2]]                  # (1,-1,i,-i,j,-j,k,-k)
Z2Z4_GENS = [[1, 0, 2, 3, 4, 5], [0, 1, 3, 4, 5, 2]]  # order-2 and order-4 parts
A5_GENS = [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]]          # 5-cycle, 3-cycle


def uncolored(digraph: Digraph) -> Digraph:
    """The same arcs without vertex colors: every automorphism counts."""
    return Digraph(digraph.n, digraph.arcs())


DIGRAPH_FIELDS = ("n", "out_bits", "out_adj", "in_adj", "digon_adj", "arc_count", "vertex_color")


def digraph_fields(digraph: Digraph) -> dict:
    """Every field a digraph holds, by name."""
    return {name: getattr(digraph, name) for name in DIGRAPH_FIELDS}


def fields_from_arcs(n: int, arcs, vertex_color=None) -> dict:
    """The fields ``digraph_fields`` reads, computed here straight from an arc
    set: sorted out-, in- and digon lists (loops are no digons), bitsets."""
    arcs = set(arcs)
    out = [[] for _ in range(n)]
    inn = [[] for _ in range(n)]
    for u, v in sorted(arcs):
        out[u].append(v)
        inn[v].append(u)
    return {
        "n": n,
        "out_bits": tuple(sum(1 << v for v in row) for row in out),
        "out_adj": tuple(map(tuple, out)),
        "in_adj": tuple(map(tuple, inn)),
        "digon_adj": tuple(tuple(v for v in out[u] if v != u and (v, u) in arcs)
                           for u in range(n)),
        "arc_count": len(arcs),
        "vertex_color": None if vertex_color is None else tuple(vertex_color),
    }


def k_step_out_neighborhood(digraph: Digraph, v: int, k: int) -> set[int]:
    """Vertices reachable from v by exactly k arc-steps (as a set union, so a
    vertex reached along several walks is counted once)."""
    level = {v}
    for _ in range(k):
        level = {w for u in level for w in digraph.out_adj[u]}
    return level


def induced_subdigraph(digraph: Digraph, vertices) -> tuple[Digraph, list[int]]:
    """The subdigraph on the given vertex set, re-indexed 0..|X|-1 in
    ascending original order; also returns new-index -> old-vertex."""
    mapping = sorted(set(vertices))
    pos = {old: new for new, old in enumerate(mapping)}
    arcs = [(pos[u], pos[v]) for u in mapping for v in digraph.out_adj[u] if v in pos]
    colors = None
    if digraph.vertex_color is not None:
        colors = [digraph.vertex_color[old] for old in mapping]
    return Digraph(len(mapping), arcs, vertex_color=colors), mapping


def hamiltonian_oriented_cycles(digraph: Digraph) -> list[tuple[int, ...]]:
    """All directed Hamiltonian cycles that use no loop and no digon arc,
    sorted, each once as the rotation that starts at vertex 0."""
    n = digraph.n
    plain = [[w for w in digraph.out_adj[u] if w != u and w not in digraph.digon_adj[u]]
             for u in range(n)]
    found = []
    paths = [(0,)]
    while paths:
        path = paths.pop()
        if len(path) < n:
            paths.extend(path + (w,) for w in plain[path[-1]] if w not in path)
        elif n > 1 and 0 in plain[path[-1]]:
            found.append(path)
    return sorted(found)


def is_connected(digraph: Digraph) -> bool:
    """Weak connectivity: every vertex is reached from 0 along arcs taken in
    either direction."""
    seen, stack = {0}, [0]
    while stack:
        u = stack.pop()
        for v in digraph.out_adj[u] + digraph.in_adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == digraph.n


def is_abelian(group: FiniteGroup) -> bool:
    """Every pair of elements commutes."""
    return all(group.mul(a, b) == group.mul(b, a)
               for a in range(group.order) for b in range(a))


def is_semiregular(group: PermGroup) -> bool:
    """Only the identity fixes a point: every orbit has the group's order."""
    return all(len(orbit) == group.order for orbit in group.orbits())


def vertex(x: MCayleyDigraph, element: int, part: int) -> int:
    """The vertex of ``element`` in ``part``: vertices are part-major."""
    return part * x.n + element


ELEMENT_CAP = 2_000_000


def point_stabilizer(group: PermGroup, point: int) -> PermGroup:
    """The full stabilizer of a point, as its own group: the chain rebuilt
    with the point as first base, whose strong generators below the first
    level generate the stabilizer."""
    if not 0 <= point < group.degree:
        raise ValueError(f"point {point} out of range for degree {group.degree}")
    rebased = PermGroup(group.degree, [])
    rebased._levels.append(_Level(point, group.degree))
    for _, g in group._strong_at(0):
        rebased._extend(g)
    return PermGroup(group.degree, [s for _, s in rebased._strong_at(1)])


def fixes_setwise(group: PermGroup, points: Iterable[int]) -> bool:
    return generators_fix_setwise(group.generators, points)


def fixes_pointwise(group: PermGroup, points: Iterable[int]) -> bool:
    pts = list(points)
    return all(g(p) == p for g in group.generators for p in pts)


def elements(group: PermGroup) -> Iterator[Permutation]:
    """Every element, by transversal products of the chain, the first level
    varying fastest; refused past ``ELEMENT_CAP``."""
    if group.order > ELEMENT_CAP:
        raise CapExceededError(f"refusing to enumerate {group.order} elements")
    transversals = [[lvl.transversal[p] for p in sorted(lvl.transversal)]
                    for lvl in reversed(group._levels)]
    return (functools.reduce(Permutation.__mul__, reps, Permutation.identity(group.degree))
            for reps in itertools.product(*transversals))


def part_swap(x: MCayleyDigraph, y: int) -> Permutation:
    """The map g_0 -> (y*g)_1, g_1 -> g_0 of a 2-part digraph.  It exchanges
    the parts, and it preserves arcs when G is abelian and T[0,1] = y*T[1,0]
    (unchecked here), so Aut is then larger than R(G)."""
    return Permutation([x.n + x.group.mul(y, g) for g in range(x.n)] + list(range(x.n)))


def stabilizer_criterion(x: MCayleyDigraph, chosen=None, aut=None) -> dict:
    """The paper's regularity criterion on one instance: if the digraph is
    connected, Aut fixes every part setwise, and the stabilizer of one chosen
    vertex per part (by default each part's identity vertex) fixes that
    vertex's out-neighborhood pointwise, then Aut = R(G).  ``aut`` is the
    color-blind Aut when the caller has it (``order`` and ``generators``
    suffice).  The stabilizer of u is Aut of the digraph with u alone in its
    color class, so this runs m + 1 searches."""
    g = x.digraph
    if chosen is None:
        chosen = [vertex(x, 0, i) for i in range(x.m)]
    if aut is None:
        aut = automorphisms(g, [t.images for t in x.translations()])
    stabs = [automorphisms(Digraph(g.n, g.arcs(), [v == u for v in range(g.n)]))
             for u in chosen]
    rep = {
        "connected": is_connected(g),
        "parts_fixed_setwise": [generators_fix_setwise(aut.generators, p) for p in x.parts()],
        "stabilizer_fixes_out_neighborhood": [
            all(s(w) == w for s in stab.generators for w in g.out_adj[u])
            for u, stab in zip(chosen, stabs)],
        "conclusion_holds": aut.order == x.group.order,
    }
    rep["hypotheses_hold"] = (rep["connected"] and all(rep["parts_fixed_setwise"])
                              and all(rep["stabilizer_fixes_out_neighborhood"]))
    return rep


def assert_refused(call, refusal) -> None:
    """``call()`` refuses as ``refusal`` says: it returns False when
    ``refusal`` is False, else raises ``refusal``'s type with its message."""
    if refusal is False:
        assert call() is False
    else:
        with pytest.raises(type(refusal), match=f"^{re.escape(str(refusal))}$"):
            call()


def element_order(group: FiniteGroup, a: int) -> int:
    """Least k >= 1 with a^k = identity."""
    k, power = 1, a
    while power != 0:
        power = group.mul(power, a)
        k += 1
    return k


@pytest.fixture(autouse=True)
def recursion_limit_unchanged():
    """No code path may leave the interpreter's recursion limit changed."""
    before = sys.getrecursionlimit()
    yield
    assert sys.getrecursionlimit() == before, "test changed sys.getrecursionlimit()"


@pytest.fixture(scope="session")
def s3():
    return FiniteGroup.from_permutations(3, S3_GENS)


@pytest.fixture(scope="session")
def d4():
    return FiniteGroup.from_permutations(4, D4_GENS)


@pytest.fixture(scope="session")
def q8():
    return FiniteGroup.from_permutations(8, Q8_GENS)


@pytest.fixture(scope="session")
def z2z4():
    return FiniteGroup.from_permutations(6, Z2Z4_GENS)


@pytest.fixture(scope="session")
def a5():
    return FiniteGroup.from_permutations(5, A5_GENS)
