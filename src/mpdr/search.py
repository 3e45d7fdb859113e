"""Exhaustive and randomized searches: negative-case sweeps over small
connection-set spaces, rigid 3-regular digraph hunting, and valency-2 DRR
candidates.

The 2-part valency-3 sweep runs one automorphism search per isomorphism
orbit of specs, not one per spec.  Three moves map the digraph built from
(T01, T10) onto the digraph built from another spec, so the two have the
same automorphism order (the arc rule is g_i -> (t*g)_j, with * the
group's ``mul``):

* relabeling the parts by g_0 -> (a0*g)_0 and g_1 -> (a1*g)_1, which gives
  (a1*T01*a0^-1, a0*T10*a1^-1);
* applying one automorphism s of the group to both parts, which gives
  (s(T01), s(T10));
* swapping the parts, which gives (T10, T01).

The orbits are the classes of one union-find (``perms.OrbitPartition``)
over the sweep indices, joined once per move generator.  Its roots are
least points, so each class's root is its first spec in sweep order; that
spec is searched, and every spec takes its orbit's order.

The sweeps, the valency-2 scan and the rigid-digraph search ask only for an
order or for rigidity, so they call ``automorphism_order`` and ``is_rigid``
and build no stabilizer chain; ``is_rigid`` stops at the first
automorphism it finds.

The exhaustive rigid-digraph search is one sequential scan of its
candidates in lexicographic order of their rows, so its verdict, witness
and node count are the same on every run.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field

from .autgroup import automorphism_order, is_rigid
from .cayley import ConnectionSpec, build_m_cayley, cayley_digraph
from .digraphs import Digraph
from .errors import PreconditionError
from .groups import FiniteGroup
from .perms import OrbitPartition

EXHAUST_ORDER_CAP = 8
EXHAUSTIVE_RIGID_CAP = 7
RANDOMIZED_RIGID_CAP = 64


@dataclass
class SearchVerdict:
    problem: str
    parameters: dict
    verdict: str                    # "witness-found" | "none-exists" | "inconclusive"
    witness: dict | None
    nodes_explored: int
    wall_time: float = field(compare=False)

    def to_json_dict(self) -> dict:
        return {
            "problem": self.problem,
            "parameters": self.parameters,
            "verdict": self.verdict,
            "witness": self.witness,
            "nodes_explored": self.nodes_explored,
            "wall_time": round(self.wall_time, 6),
        }


def exhaust_2partite_valency3(group: FiniteGroup) -> list[tuple[ConnectionSpec, int]]:
    """Every 2-part spec with both connection sets of size 3, with the exact
    (color-blind) automorphism order of the built digraph, in the order of
    ``itertools.product`` over the 3-subsets.  The spec space is C(n,3)^2,
    so the group order is capped at ``EXHAUST_ORDER_CAP``.

    The orbits under the moves of the module docstring (part relabelings by
    generators of the group, generators of its automorphism group, and the
    part swap) are the classes of one union-find over the sweep indices.
    Only each class's root, its first spec, is searched; each move is an
    isomorphism of the built digraphs, so every spec gets its root's order."""
    n = group.order
    check_exhaust_order(n)
    triples = list(itertools.combinations(range(n), 3))
    specs = [ConnectionSpec.from_sets(2, n, {(0, 1): t01, (1, 0): t10})
             for t01, t10 in itertools.product(triples, repeat=2)]
    first = _orbit_firsts(group, triples)
    reps = sorted(set(first))
    orders = {k: order for k, (_, order)
              in zip(reps, _aut_orders(group, (specs[k] for k in reps)))}
    return [(spec, orders[first[k]]) for k, spec in enumerate(specs)]


def check_exhaust_order(n: int) -> None:
    """Refuse a 2-part sweep over a group of order above the cap."""
    if n > EXHAUST_ORDER_CAP:
        raise PreconditionError(
            f"exhaustive 2-part sweep capped at order {EXHAUST_ORDER_CAP}, got {n}")


def _orbit_firsts(group: FiniteGroup, triples: list[tuple[int, ...]]) -> list[int]:
    """For the spec (T01, T10) = (triples[i], triples[j]) at sweep index
    k = i * len(triples) + j, the least sweep index in its orbit: the root
    of k's class once one union-find has merged every move generator."""
    c = len(triples)
    index = {t: k for k, t in enumerate(triples)}

    def on_triples(f):
        return [index[tuple(sorted(f[x] for x in t))] for t in triples]

    orbits = OrbitPartition(c * c)
    for f01, f10, swap in _spec_maps(group):
        m01, m10 = on_triples(f01), on_triples(f10)
        orbits.merge([m10[j] * c + m01[i] if swap else m01[i] * c + m10[j]
                      for i in range(c) for j in range(c)])
    return [orbits.find(k) for k in range(c * c)]


def _spec_maps(group: FiniteGroup) -> list[tuple[tuple[int, ...], tuple[int, ...], bool]]:
    """Generators of the moves as element maps (f01, f10, swap): each takes
    (T01, T10) to (f01(T01), f10(T10)), exchanged when ``swap``.  For each
    generator a of the group, with ``right`` the map t -> t*a^-1, relabeling
    part 0 gives (right, row(a)) and relabeling part 1 gives (row(a), right);
    each generator s of the group's automorphism group gives (s, s); the
    part swap comes last."""
    n = group.order
    ident = tuple(range(n))
    maps = []
    for a in _generating_set(range(n), group.mul, 0):
        inv = group.inverse(a)
        right = tuple(group.mul(t, inv) for t in range(n))
        maps += [(right, group.row(a), False), (group.row(a), right, False)]
    autos = _automorphisms(group)
    for sigma in _generating_set(autos, lambda s, t: tuple(t[x] for x in s), ident):
        maps.append((sigma, sigma, False))
    maps.append((ident, ident, True))
    return maps


def _generating_set(elements, mul, identity) -> list:
    """The elements, in order, that are not in the subgroup generated by
    those before them; together they generate the group."""
    chosen, closure = [], {identity}
    for x in elements:
        if x in closure:
            continue
        chosen.append(x)
        frontier = list(closure)
        while frontier:
            y = frontier.pop()
            for g in chosen:
                z = mul(y, g)
                if z not in closure:
                    closure.add(z)
                    frontier.append(z)
    return chosen


def _automorphisms(group: FiniteGroup) -> list[tuple[int, ...]]:
    """Every automorphism of the group as its tuple of images, found by
    trying every assignment of images to a generating set (at most 8^3
    at the sweep's order cap)."""
    n = group.order
    gens = _generating_set(range(n), group.mul, 0)
    autos = []
    for images in itertools.product(range(n), repeat=len(gens)):
        phi = _homomorphism(group, gens, images)
        if phi is not None and len(set(phi)) == n:
            autos.append(phi)
    return autos


def _homomorphism(group: FiniteGroup, gens, images) -> tuple[int, ...] | None:
    """The endomorphism taking each generator to its image, or None if
    there is none: phi(x*g) = phi(x)*phi(g) fixes phi along a breadth-first
    walk, and any clash refutes it."""
    phi = [-1] * group.order
    phi[0] = 0
    queue = [0]
    for x in queue:
        for g, h in zip(gens, images):
            y, v = group.mul(x, g), group.mul(phi[x], h)
            if phi[y] < 0:
                phi[y] = v
                queue.append(y)
            elif phi[y] != v:
                return None
    return tuple(phi)


def translate_relation(group: FiniteGroup, source: tuple[int, ...],
                       target: tuple[int, ...]) -> int | None:
    """The least g with target = g * source (as sets), or None."""
    src = sorted(set(source))
    tgt = tuple(sorted(set(target)))
    for g in range(group.order):
        if tuple(sorted(group.mul(g, s) for s in src)) == tgt:
            return g
    return None


def exhaust_z2_m3_valency3() -> list[tuple[ConnectionSpec, int]]:
    """All valency-3 three-part specs over the order-2 group, in the forced
    shape: one full directed triangle of parts carries the whole group and
    the opposite triangle carries singletons.  Both orientations of the full
    triangle are enumerated: 8 singleton assignments each, 16 specs total."""
    forward, backward = ((0, 1), (1, 2), (2, 0)), ((0, 2), (2, 1), (1, 0))
    specs = (ConnectionSpec.from_sets(3, 2, {
                 **dict.fromkeys(heavy, (0, 1)),
                 **{pair: (bit,) for pair, bit in zip(light, bits)}})
             for heavy, light in ((backward, forward), (forward, backward))
             for bits in itertools.product((0, 1), repeat=3))
    return _aut_orders(FiniteGroup.cyclic(2), specs)


def _aut_orders(group: FiniteGroup, specs) -> list[tuple[ConnectionSpec, int]]:
    """Each spec with the color-blind automorphism order of its m-Cayley
    digraph over the group, built and searched one spec at a time."""
    return [(spec, automorphism_order(build_m_cayley(group, spec).digraph,
                                      ignore_colors=True))
            for spec in specs]


def find_valency2_drr(group: FiniteGroup) -> tuple[int, int] | None:
    """First pair {a, b} of distinct non-identity elements, ascending, that
    generates the group and whose Cayley digraph has automorphism group of
    order exactly |G|.  Mutually inverse pairs are allowed (digons are fine
    for a DRR); None when the search exhausts."""
    return scan_valency2(group, inverse_free=False)[0]


def scan_valency2(group: FiniteGroup, *,
                  inverse_free: bool) -> tuple[tuple[int, int] | None, int]:
    """The first pair {a, b} of distinct non-identity elements, in ascending
    index order, that generates the group and whose Cayley digraph has
    automorphism group of order exactly |G| (None if no pair qualifies),
    and the number of generating pairs tested up to it.  With
    ``inverse_free``, a pair holding the inverse of one of its elements (an
    involution, or a mutually inverse pair) is skipped, so no digraph tested
    has a digon."""
    n = group.order
    tested = 0
    for a, b in itertools.combinations(range(1, n), 2):
        if inverse_free and {a, b} & {group.inverse(a), group.inverse(b)}:
            continue
        if not group.generates({a, b}):
            continue
        tested += 1
        if automorphism_order(cayley_digraph(group, (a, b))) == n:
            return (a, b), tested
    return None, tested


# -- rigid 3-regular digraphs -------------------------------------------------


def trivial_aut_3regular_search(m: int, mode: str = "exhaustive", *,
                                budget: int = 1000, oriented: bool = False,
                                jobs: int = 1, seed: int = 0) -> SearchVerdict:
    """Hunt for a 3-regular digraph on m >= 1 vertices with trivial
    automorphism group.  Self-loops are excluded; digons are allowed unless
    ``oriented``.

    Exhaustive mode enumerates every out-neighbor assignment with in-degree
    pruning (m <= 7) in one deterministic scan; randomized mode draws
    ``budget`` 3-regular digraphs, dropping the draws that get stuck, and
    can only answer "witness-found" or "inconclusive".  ``nodes_explored``
    counts the digraphs tested.  ``jobs`` must be 1 (any other value is
    refused); exhaustive mode records it in its parameters.
    """
    start = time.perf_counter()
    if m < 1:
        raise PreconditionError(f"rigid3 needs at least 1 vertex, got m={m}")
    if jobs != 1:
        raise PreconditionError(
            f"rigid3 runs one sequential scan: jobs must be 1, got {jobs}")
    params = {"m": m, "mode": mode, "oriented": oriented}
    if mode == "exhaustive":
        if m > EXHAUSTIVE_RIGID_CAP:
            raise PreconditionError(
                f"exhaustive mode capped at m={EXHAUSTIVE_RIGID_CAP}, got {m}")
        params["jobs"] = jobs
        witness_arcs, tested = _first_rigid(m, _branch_rows(m, oriented))
        verdict = "witness-found" if witness_arcs is not None else "none-exists"
    elif mode == "randomized":
        if m > RANDOMIZED_RIGID_CAP:
            raise PreconditionError(
                f"randomized mode capped at m={RANDOMIZED_RIGID_CAP}, got {m}")
        params["budget"] = budget
        params["seed"] = seed
        witness_arcs, tested = _first_rigid(m, _sampled_rows(m, oriented, budget, seed))
        verdict = "witness-found" if witness_arcs is not None else "inconclusive"
    else:
        raise ValueError(f"mode must be 'exhaustive' or 'randomized', got {mode!r}")
    witness = None
    if witness_arcs is not None:
        witness = {"n": m, "arcs": [list(a) for a in witness_arcs]}
    return SearchVerdict("rigid3", params, verdict, witness, tested,
                         time.perf_counter() - start)


def _first_rigid(m: int, candidates):
    """The arc list of the first candidate (a list of out-rows, one per
    vertex) whose digraph has trivial automorphism group, or None, and the
    number of candidates tested up to it."""
    tested = 0
    for rows in candidates:
        tested += 1
        arcs = [(u, w) for u, row in enumerate(rows) for w in row]
        if is_rigid(Digraph(m, arcs)):
            return arcs, tested
    return None, tested


def _row_targets(m: int, v: int, rows: list[tuple[int, ...]], indeg: list[int],
                 oriented: bool) -> list[int]:
    """What vertex v's row may draw from, given rows 0..v-1: every other vertex
    with in-degree below 3 that, if ``oriented``, does not point to v."""
    return [u for u in range(m) if u != v and indeg[u] < 3
            and not (oriented and u < v and v in rows[u])]


def _branch_rows(m: int, oriented: bool):
    """Every loopless 3-regular digraph on m vertices, digon-free when
    ``oriented``, as its out-rows, in lexicographic order.  Vertex v's row is
    drawn from its ``_row_targets``, and a prefix is cut once an in-degree
    can no longer reach 3.  A vertex's deficit is at most 3, so that
    deadline can bind only once three rows or fewer remain."""
    rows: list[tuple[int, ...]] = []
    indeg = [0] * m

    def feasible(next_v: int) -> bool:
        rem = m - next_v
        return all(d <= 3 and d + rem - (j >= next_v) >= 3 for j, d in enumerate(indeg))

    def extend(v: int):
        if v == m:
            yield list(rows)
            return
        allowed = _row_targets(m, v, rows, indeg, oriented)
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


def _sampled_rows(m: int, oriented: bool, budget: int, seed: int):
    """Out-rows of ``budget`` random draws of a loopless 3-regular digraph
    on m vertices, digon-free when ``oriented``.  Vertex v picks 3 of its
    ``_row_targets`` (a draw leaving it fewer is dropped), so out-degrees are
    all 3 and no in-degree passes 3: every kept draw is 3-regular."""
    rng = random.Random(seed)
    for _ in range(budget):
        indeg = [0] * m
        rows: list[tuple[int, ...]] = []
        for v in range(m):
            choices = _row_targets(m, v, rows, indeg, oriented)
            if len(choices) < 3:
                break
            row = tuple(sorted(rng.sample(choices, 3)))
            for j in row:
                indeg[j] += 1
            rows.append(row)
        else:
            yield rows
