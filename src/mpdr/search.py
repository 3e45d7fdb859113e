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

The orbits are found in one traversal of the sweep indices in order: each
index not yet reached starts a walk over the move generators, and every
index the walk reaches is labelled with it, so each orbit is labelled with
its first spec in sweep order.  Only that spec is built as a
``ConnectionSpec`` and searched, and every spec takes its orbit's order.

The sweeps and the valency-2 scan ask only for an order, so they read
``automorphisms(...).order`` and build no stabilizer chain.  The m-Cayley
digraphs they search carry no colors, so every order is color-blind.

The rigid-digraph search is one sequential scan of its candidates (in
lexicographic order of their rows when exhaustive), so its verdict, witness
and node count are the same on every run, and two runs return equal
``SearchVerdict`` records.  A verdict holds no clock: each of its fields is
a JSON value, and the CLI times the search and writes the document
(``cli._emit``).  It asks only for rigidity:
``first_automorphism`` stops at the first automorphism it finds, and the
scan keeps every one found.  A candidate that a kept automorphism preserves
is decided non-rigid by checking its rows, with no digraph built and no
search run (McKay, *Isomorph-free exhaustive generation*, 1998): the 2,640
oriented candidates on 7 vertices, 3 isomorphism classes, take 260
searches.  The rows are checked on bitmasks: each kept automorphism carries
1 << sigma(v) for every vertex v, each candidate the OR of 1 << w over each
of its rows, and a row is preserved when the OR of its three image bits
equals the mask of the row at its image vertex.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .autgroup import automorphisms, first_automorphism
from .cayley import ConnectionSpec, MCayleyDigraph, cayley_digraph
from .digraphs import Digraph
from .errors import PreconditionError
from .groups import FiniteGroup
from .perms import closure, then

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


def exhaust_2partite_valency3(
        group: FiniteGroup) -> list[tuple[tuple[tuple[int, ...], tuple[int, ...]], int]]:
    """Every 2-part spec with both connection sets of size 3, as its pair
    (T01, T10) of ascending triples, with the exact (color-blind)
    automorphism order of the built digraph, in the order of
    ``itertools.product`` over the 3-subsets.  The spec space is C(n,3)^2,
    so the group order must lie in 3..``EXHAUST_ORDER_CAP``.

    Only the first pair of each orbit under the moves of the module
    docstring (``_orbit_firsts``) is built as a ``ConnectionSpec`` and
    searched; each move is an isomorphism of the built digraphs, so every
    pair gets its first pair's order."""
    n = group.order
    check_exhaust_order(n)
    triples = list(itertools.combinations(range(n), 3))
    pairs = list(itertools.product(triples, repeat=2))
    first = _orbit_firsts(group, triples)
    reps = [k for k, f in enumerate(first) if f == k]
    specs = (ConnectionSpec.from_sets(2, n, {(0, 1): pairs[k][0], (1, 0): pairs[k][1]})
             for k in reps)
    orders = {k: order for k, (_, order) in zip(reps, _aut_orders(group, specs))}
    return [(pair, orders[f]) for pair, f in zip(pairs, first)]


def check_exhaust_order(n: int) -> None:
    """Refuse a 2-part sweep over a group of order below 3 (no 3-subset, so
    no spec) or above the cap."""
    if n < 3:
        raise PreconditionError(
            f"exhaustive 2-part sweep needs a group of order at least 3, got {n}")
    if n > EXHAUST_ORDER_CAP:
        raise PreconditionError(
            f"exhaustive 2-part sweep capped at order {EXHAUST_ORDER_CAP}, got {n}")


def _orbit_firsts(group: FiniteGroup, triples: list[tuple[int, ...]]) -> list[int]:
    """For the spec (T01, T10) = (triples[i], triples[j]) at sweep index
    k = i * len(triples) + j, the least sweep index in its orbit.  The
    indices are scanned in order, and each one not yet reached starts a walk
    over the move generators that labels its whole orbit with it."""
    c = len(triples)
    index = {t: k for k, t in enumerate(triples)}

    def on_triples(f):
        return [index[tuple(sorted(f[x] for x in t))] for t in triples]

    moves = [(on_triples(f01), on_triples(f10), swap) for f01, f10, swap in _spec_maps(group)]
    first = [-1] * (c * c)
    for k in range(c * c):
        if first[k] >= 0:
            continue
        first[k] = k
        stack = [k]
        while stack:
            i, j = divmod(stack.pop(), c)
            for m01, m10, swap in moves:
                y = m10[j] * c + m01[i] if swap else m01[i] * c + m10[j]
                if first[y] < 0:
                    first[y] = k
                    stack.append(y)
    return first


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
    for a in closure(range(n), group.mul, 0)[0]:
        inv = group.inverse(a)
        right = tuple(group.mul(t, inv) for t in range(n))
        maps += [(right, group.row(a), False), (group.row(a), right, False)]
    for sigma in closure(_automorphisms(group), then, ident)[0]:
        maps.append((sigma, sigma, False))
    maps.append((ident, ident, True))
    return maps


def _automorphisms(group: FiniteGroup) -> list[tuple[int, ...]]:
    """Every automorphism of the group as its tuple of images, found by
    trying every assignment of images to a generating set (at most 8^3
    at the sweep's order cap)."""
    n = group.order
    gens, _ = closure(range(n), group.mul, 0)
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
    return [(spec, automorphisms(MCayleyDigraph(group, spec).digraph).order)
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
        if automorphisms(cayley_digraph(group, (a, b))).order == n:
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
    pruning (m <= 7) in one deterministic scan; randomized mode (m >= 4)
    draws ``budget`` >= 1 3-regular digraphs, dropping the draws that get
    stuck, and can only answer "witness-found" or "inconclusive".
    ``nodes_explored`` counts the labelled candidates decided, by a search
    or by an automorphism already found.  ``jobs`` must be 1 (any other
    value is refused); exhaustive mode records it in its parameters.
    """
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
        if m < 4:  # no draw would be kept
            raise PreconditionError(f"no 3-regular digraph has {m} vertices to draw; "
                                    "exhaustive mode answers none-exists")
        if budget < 1:
            raise PreconditionError(f"randomized budget must be at least 1, got {budget}")
        params["budget"] = budget
        params["seed"] = seed
        witness_arcs, tested = _first_rigid(m, _sampled_rows(m, oriented, budget, seed))
        verdict = "witness-found" if witness_arcs is not None else "inconclusive"
    else:
        raise ValueError(f"mode must be 'exhaustive' or 'randomized', got {mode!r}")
    witness = None
    if witness_arcs is not None:
        witness = {"n": m, "arcs": [list(a) for a in witness_arcs]}
    return SearchVerdict("rigid3", params, verdict, witness, tested)


def _first_rigid(m: int, candidates):
    """The arc list of the first candidate (a list of out-rows, one per
    vertex, each an ascending triple) whose digraph has trivial automorphism
    group, or None, and the number of candidates decided up to it.

    Every automorphism a search finds is kept as its image tuple sigma with
    its single-bit masks bit[v] = 1 << sigma(v).  Each candidate D gets its
    row masks once, masks[u] the OR of 1 << w over row_D(u).  A kept sigma
    preserves D iff bit[a] | bit[b] | bit[c] = masks[sigma(u)] for every row
    (a, b, c) = row_D(u), which is the set equality sigma(row_D(u)) =
    row_D(sigma(u)); then D is decided non-rigid without a digraph or a
    search.  A rigid D is never preserved, as no kept sigma is the identity.
    The test at u = 0 picks the kept sigma worth checking: per row r of
    vertex 0 seen, they are indexed by (sigma(0), sigma(r)), D looks up
    (x, row_D(x)) for every vertex x, and each hit is checked on every row."""
    tested = 0
    one = [1 << v for v in range(m)]
    found: list[tuple[tuple[int, ...], list[int]]] = []
    # per row of vertex 0 seen: (sigma(0), sigma(row)) -> the kept (sigma, bit)
    index: dict[tuple[int, ...], dict[tuple[int, tuple[int, ...]], list]] = {}
    for rows in candidates:
        tested += 1
        if rows[0] not in index:
            index[rows[0]] = {}
            for kept in found:
                _file(index, rows[0], kept)
        keyed = index[rows[0]]
        masks = [one[a] | one[b] | one[c] for a, b, c in rows]
        if any(all(bit[a] | bit[b] | bit[c] == masks[s] for (a, b, c), s in zip(rows, sigma))
               for x, row in enumerate(rows) for sigma, bit in keyed.get((x, row), ())):
            continue
        arcs = [(u, w) for u, row in enumerate(rows) for w in row]
        sigma = first_automorphism(Digraph(m, arcs))
        if sigma is None:
            return arcs, tested
        kept = (sigma, [one[s] for s in sigma])
        found.append(kept)
        for row0 in index:
            _file(index, row0, kept)
    return None, tested


def _image(sigma: tuple[int, ...], row: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(map(sigma.__getitem__, row)))


def _file(index: dict, row0: tuple[int, ...], kept: tuple[tuple[int, ...], list[int]]) -> None:
    """Index a kept (sigma, bit) for the candidates whose vertex 0 has row
    ``row0``."""
    sigma = kept[0]
    index[row0].setdefault((sigma[0], _image(sigma, row0)), []).append(kept)


def _row_targets(m: int, v: int, rows: list[tuple[int, ...]], indeg: list[int],
                 oriented: bool) -> list[int]:
    """What vertex v's row may draw from, given rows 0..v-1: every other vertex
    with in-degree below 3 that, if ``oriented``, does not point to v."""
    return [u for u in range(m) if u != v and indeg[u] < 3
            and not (oriented and u < v and v in rows[u])]


def _branch_rows(m: int, oriented: bool):
    """Every loopless 3-regular digraph on m vertices, digon-free when
    ``oriented``, as its out-rows, in lexicographic order.  Vertex v's row
    draws from its ``_row_targets``, and every prefix is checked before its
    next row is drawn, at every level (the pruning half of orderly
    generation: Read 1978; McKay 1998).  Vertex j still lacks 3 - indeg[j]
    in-arcs, and only the rows v..m-1 other than its own can supply them,
    less (when ``oriented``) the rows of the later vertices j already
    points to.  A prefix in which some deficit exceeds that count has no
    completion and is cut.  A target of row v whose deficit equals its
    count is forced into row v, and the row is the forced targets plus each
    combination of the others; a fixed set added to ascending 3-subsets
    keeps their lexicographic order, so the candidates come out exactly as
    an unpruned scan yields its complete ones.  A prefix that passes the
    check at v = m-1 has exactly three deficits of 1, all forced, so every
    complete prefix is 3-regular and is yielded unchecked."""
    rows: list[tuple[int, ...]] = []
    indeg = [0] * m

    def extend(v: int):
        if v == m:
            yield list(rows)
            return
        rem = m - v
        slack = []
        for j in range(m):
            count = rem - (j >= v)
            if oriented and j < v:
                x, y, z = rows[j]
                count -= (x >= v) + (y >= v) + (z >= v)
            if indeg[j] + count < 3:
                return
            slack.append(indeg[j] + count - 3)
        allowed = _row_targets(m, v, rows, indeg, oriented)
        forced = tuple(j for j in allowed if not slack[j])
        if len(forced) > 3:
            return
        free = [j for j in allowed if slack[j]]
        for combo in itertools.combinations(free, 3 - len(forced)):
            row = tuple(sorted(forced + combo))
            for j in row:
                indeg[j] += 1
            rows.append(row)
            yield from extend(v + 1)
            rows.pop()
            for j in row:
                indeg[j] -= 1

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
