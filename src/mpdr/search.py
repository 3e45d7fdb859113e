"""Exhaustive and randomized searches: negative-case sweeps over small
connection-set spaces, rigid 3-regular digraph hunting, and valency-2 DRR
candidates.

The rigid-digraph search partitions its space by vertex 0's out-set and
enumerates each branch in lexicographic order.  Verdicts, witnesses and
node counts are deterministic across --jobs settings: branch b's count is
what a sequential scan of that branch alone would report, and the merged
count sums the branches up to and including the first one with a witness.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .autgroup import automorphism_search
from .cayley import ConnectionSpec, build_m_cayley, cayley_digraph
from .digraphs import Digraph
from .errors import PreconditionError
from .groups import FiniteGroup

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
    (color-blind) automorphism order of the built digraph.  The spec space
    is C(n,3)^2, so the group order is capped at 8."""
    n = group.order
    if n > 8:
        raise PreconditionError(f"exhaustive 2-part sweep capped at order 8, got {n}")
    specs = (ConnectionSpec.from_sets(2, n, {(0, 1): t01, (1, 0): t10})
             for t01, t10 in itertools.product(itertools.combinations(range(n), 3),
                                               repeat=2))
    return _aut_orders(group, specs)


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
    return [(spec, automorphism_search(build_m_cayley(group, spec).digraph,
                                       ignore_colors=True).group.order)
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
        if automorphism_search(cayley_digraph(group, (a, b))).group.order == n:
            return (a, b), tested
    return None, tested


# -- rigid 3-regular digraphs -------------------------------------------------


def trivial_aut_3regular_search(m: int, mode: str = "exhaustive", *,
                                budget: int = 1000, oriented: bool = False,
                                jobs: int = 1, seed: int = 0) -> SearchVerdict:
    """Hunt for a 3-regular digraph on m vertices with trivial automorphism
    group.  Self-loops are excluded; digons are allowed unless ``oriented``.

    Exhaustive mode enumerates every out-neighbor assignment with in-degree
    pruning (m <= 7) and is deterministic; randomized mode tests ``budget``
    sampled assignments and can only answer "witness-found" or
    "inconclusive".
    """
    start = time.perf_counter()
    params = {"m": m, "mode": mode, "oriented": oriented}
    if mode == "exhaustive":
        if m > EXHAUSTIVE_RIGID_CAP:
            raise PreconditionError(
                f"exhaustive mode capped at m={EXHAUSTIVE_RIGID_CAP}, got {m}")
        params["jobs"] = jobs
        witness_arcs, tested = _rigid_exhaustive(m, oriented, jobs)
        verdict = "witness-found" if witness_arcs is not None else "none-exists"
    elif mode == "randomized":
        if m > RANDOMIZED_RIGID_CAP:
            raise PreconditionError(
                f"randomized mode capped at m={RANDOMIZED_RIGID_CAP}, got {m}")
        params["budget"] = budget
        params["seed"] = seed
        witness_arcs, tested = _rigid_randomized(m, oriented, budget, seed)
        verdict = "witness-found" if witness_arcs is not None else "inconclusive"
    else:
        raise ValueError(f"mode must be 'exhaustive' or 'randomized', got {mode!r}")
    witness = None
    if witness_arcs is not None:
        witness = {"n": m, "arcs": [list(a) for a in witness_arcs]}
    return SearchVerdict("rigid3", params, verdict, witness, tested,
                         time.perf_counter() - start)


def _rigid_exhaustive(m: int, oriented: bool, jobs: int):
    """Merge the branches in order up to the first witness.  A pool, when
    ``jobs`` allows one, has at most one worker per branch and per CPU, and
    its queued branches are cancelled once the merge has its answer."""
    first_rows = list(itertools.combinations(range(1, m), 3))
    workers = min(jobs, len(first_rows), os.cpu_count() or 1)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        tested = 0
        for witness, count in (pool.map if pool else map)(
                _rigid_branch, itertools.repeat(m), first_rows, itertools.repeat(oriented)):
            tested += count
            if witness is not None:
                return witness, tested
        return None, tested
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _rigid_branch(m: int, first_row: tuple[int, ...], oriented: bool):
    """Sequential scan of one branch (vertex 0's out-set fixed); returns
    (first witness arc list or None, digraphs tested up to that point)."""
    rows: list[tuple[int, ...]] = [first_row]
    indeg = [0] * m
    for j in first_row:
        indeg[j] += 1
    combos = {v: list(itertools.combinations([u for u in range(m) if u != v], 3))
              for v in range(1, m)}
    state = {"tested": 0, "witness": None}

    def feasible(next_v: int) -> bool:
        rem = m - next_v
        for j in range(m):
            if indeg[j] > 3:
                return False
            if indeg[j] + rem - (1 if j >= next_v else 0) < 3:
                return False
        return True

    def rec(v: int) -> None:
        if state["witness"] is not None:
            return
        if v == m:
            if all(d == 3 for d in indeg):
                state["tested"] += 1
                arcs = [(u, w) for u, row in enumerate(rows) for w in row]
                digraph = Digraph(m, arcs)
                if automorphism_search(digraph).group.order == 1:
                    state["witness"] = arcs
            return
        for combo in combos[v]:
            if oriented and any(v in rows[u] for u in combo if u < v):
                continue
            for j in combo:
                indeg[j] += 1
            rows.append(combo)
            if feasible(v + 1):
                rec(v + 1)
            rows.pop()
            for j in combo:
                indeg[j] -= 1
            if state["witness"] is not None:
                return

    if feasible(1):
        rec(1)
    return state["witness"], state["tested"]


def _rigid_randomized(m: int, oriented: bool, budget: int, seed: int):
    rng = random.Random(seed)
    tested = 0
    for _ in range(budget):
        rows = [tuple(sorted(rng.sample([u for u in range(m) if u != v], 3)))
                for v in range(m)]
        indeg = [0] * m
        for v, row in enumerate(rows):
            for j in row:
                indeg[j] += 1
        if any(d != 3 for d in indeg):
            continue
        if oriented and any(v in rows[u] for v, row in enumerate(rows)
                            for u in row if u < v):
            continue
        tested += 1
        arcs = [(u, w) for u, row in enumerate(rows) for w in row]
        if automorphism_search(Digraph(m, arcs)).group.order == 1:
            return arcs, tested
    return None, tested
