"""The three benchmark workloads, their seeded inputs and answer checks.

Each workload is a list of instances.  An instance is one call into mpdr,
timed on its own, plus a check of the answer against a closed form or a
reference recorded at the commit that introduced this benchmark.  The seed
only picks relabelings that provably keep every expected answer:

* a cyclic connection spec is multiplied by a unit u mod n, which is an
  automorphism of Z_n, so the built digraph is isomorphic to the original;
* the K_n and cycle-copy digraphs get a random vertex permutation.

The S5 and A5 instances and the whole sweep-small workload have no seeded
part.  Relabeling a sweep's group by one of its automorphisms (a unit of Z8,
say) leaves the multiplication table, and so the input, unchanged.  Any
other relabeling keeps the histogram of automorphism orders but changes the
work: over six random relabelings of Z8 the sweep built between 359k and
549k permutations, a spread that would swamp the benchmark's bounds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

from mpdr import autgroup, cli, constructions, digraphs, groups, search, verify
from mpdr.cayley import ConnectionSpec
from mpdr.perms import Permutation

# Generators in cycle notation on 5 points (S5, A5) and 4 points (D4).
S5_GENS = ("(0 1 2 3 4)", "(0 1)")
A5_GENS = ("(0 1 2 3 4)", "(0 1 2)")
D4_GENS = ("(0 1 2 3)", "(0 2)")

# Recorded when this benchmark was introduced (2-part valency-3 sweeps:
# automorphism order -> number of specs; the first L found by drr_to_2pdr).
SWEEP_HISTOGRAMS = {
    "Z8": {8: 2240, 16: 544, 32: 160, 64: 64, 96: 32, 128: 80, 512: 8, 4608: 8},
    "D4": {8: 2048, 16: 576, 32: 256, 96: 64, 128: 112, 512: 56, 4608: 24},
}
DRR_A5_SPEC = ((0, 1, (0, 1, 2)), (1, 0, (0, 1, 3)))
RIGID3_M7_ORIENTED_TESTED = 2640


@dataclass
class Instance:
    """One timed call.  ``check`` maps the call's result to (answer, number
    of failed samples); the answer is compared across traced and untraced
    passes.  A per-verdict instance yields one latency sample per
    automorphism search that mpdr.search runs, ``samples`` in all."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], tuple[object, int]]
    samples: int = 1
    per_verdict: bool = False


class VerdictClock:
    """Stamps the end of every automorphism search run from mpdr.search, so
    a sweep yields one latency sample per verdict.  It looks the search up
    in mpdr.autgroup at call time, so spans installed later still see it.
    ``now`` is the clock the stamps are read from; a pass sets it to the
    clock it times its instances with."""

    def __init__(self):
        self.stamps: list[float] = []
        self.now: Callable[[], float] = perf_counter

    def install(self) -> None:
        stamps = self.stamps

        def stamped(*args, **kwargs):
            result = autgroup.automorphism_search(*args, **kwargs)
            stamps.append(self.now())
            return result

        search.automorphism_search = stamped

    def uninstall(self) -> None:
        search.automorphism_search = autgroup.automorphism_search

    def split(self, start: float, end: float) -> list[float]:
        """Intervals between verdicts; the work after the last one is
        charged to it, so the samples sum to the call's duration."""
        if not self.stamps:
            return [end - start]
        edges = [start, *self.stamps]
        out = [b - a for a, b in zip(edges, edges[1:])]
        out[-1] += end - edges[-1]
        return out


# -- seeded relabelings -------------------------------------------------------


def _unit(rng: random.Random, n: int) -> int:
    return rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1])


def _scale(spec: ConnectionSpec, u: int) -> ConnectionSpec:
    n = spec.group_order
    return ConnectionSpec(spec.m, n, tuple((i, j, tuple(u * e % n for e in elems))
                                           for i, j, elems in spec.entries))


def _perm_group(gens: tuple[str, ...], degree: int) -> groups.FiniteGroup:
    return groups.FiniteGroup.from_permutations(
        degree, [Permutation.from_cycles(g, degree) for g in gens])


# -- verify-large ---------------------------------------------------------------


def _positive(report, order: int) -> tuple[object, int]:
    answer = (report.is_pdr, report.aut_order, report.search_nodes)
    return answer, int(not (report.is_pdr and report.aut_order == order))


def cli_verify(rng: random.Random, n: int, work: Path) -> Instance:
    """``mpdr verify`` on a relabeled cyclic_2pdr(n), through the CLI."""
    group_file = work / f"cyclic-{n}.grp"
    spec_file = work / f"cyclic-2pdr-{n}.json"
    group_file.write_text(f"cyclic {n}\n")
    spec_file.write_text(_scale(constructions.cyclic_2pdr(n), _unit(rng, n)).to_json())
    argv = ["verify", "--group", str(group_file), "--spec", str(spec_file)]

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(result):
        code, text = result
        report = json.loads(text)["report"]
        ok = (code == 0 and report["is_pdr"] and report["aut_order"] == str(n)
              and report["vertex_count"] == 2 * n)
        return (code, report["aut_order"], report["search_nodes"]), int(not ok)

    return Instance(f"cli-verify-cyclic-2pdr-{n}", call, check)


def cyclic_pdr(rng: random.Random, n: int, m: int = 2) -> Instance:
    """is_pdr on a relabeled cyclic_2pdr(n) (m = 2) or cyclic_mpdr(n, m)."""
    spec = constructions.cyclic_2pdr(n) if m == 2 else constructions.cyclic_mpdr(n, m)
    spec = _scale(spec, _unit(rng, n))
    return Instance(f"is-pdr-cyclic-{n}-m{m}",
                    lambda: verify.is_pdr(groups.FiniteGroup.cyclic(n), spec),
                    lambda report: _positive(report, n))


def two_generated(label: str, gens: tuple[str, ...], order: int, m: int) -> Instance:
    """two_generated_mpdr over a permutation group built inside the call."""

    def call():
        group = _perm_group(gens, 5)
        x, y = group.designated_generators
        return verify.is_pdr(group, constructions.two_generated_mpdr(group, x, y, m))

    return Instance(f"two-generated-{label}-m{m}", call, lambda report: _positive(report, order))


def drr_extend(connection: tuple[int, ...]) -> Instance:
    """drr_to_2pdr over A5, built inside the call."""
    return Instance("drr-to-2pdr-A5",
                    lambda: constructions.drr_to_2pdr(_perm_group(A5_GENS, 5), connection),
                    lambda spec: (spec.entries, int(spec.entries != DRR_A5_SPEC)))


def verify_large(rng: random.Random, work: Path) -> list[Instance]:
    connection = search.find_valency2_drr(_perm_group(A5_GENS, 5))
    return [
        cli_verify(rng, 1000, work),
        cyclic_pdr(rng, 250),
        cyclic_pdr(rng, 500),
        cyclic_pdr(rng, 200, 3),
        cyclic_pdr(rng, 100, 4),
        cyclic_pdr(rng, 50, 5),
        two_generated("S5", S5_GENS, 120, 3),
        two_generated("A5", A5_GENS, 60, 4),
        drr_extend(connection),
    ]


# -- sweep-small ------------------------------------------------------------------


def sweep_2partite(label: str) -> Instance:
    """exhaust_2partite_valency3 over Z8 or D4."""
    group = groups.FiniteGroup.cyclic(8) if label == "Z8" else _perm_group(D4_GENS, 4)
    expected = SWEEP_HISTOGRAMS[label]
    total = sum(expected.values())

    def check(records):
        orders = [order for _, order in records]
        histogram = dict(sorted(Counter(orders).items()))
        if histogram != expected:
            return histogram, total
        return histogram, sum(order % group.order != 0 for order in orders)

    return Instance(f"sweep-2partite-{label}",
                    lambda: search.exhaust_2partite_valency3(group), check,
                    samples=total, per_verdict=True)


def rigid3_m7() -> Instance:
    def check(verdict):
        ok = (verdict.verdict == "none-exists"
              and verdict.nodes_explored == RIGID3_M7_ORIENTED_TESTED)
        return ((verdict.verdict, verdict.nodes_explored),
                0 if ok else RIGID3_M7_ORIENTED_TESTED)

    return Instance("rigid3-m7-oriented",
                    lambda: search.trivial_aut_3regular_search(
                        7, "exhaustive", oriented=True, jobs=1),
                    check, samples=RIGID3_M7_ORIENTED_TESTED, per_verdict=True)


def z2_m3() -> Instance:
    def check(records):
        orders = [order for _, order in records]
        bad = sum(order != 6 for order in orders) + abs(16 - len(orders))
        return orders, min(bad, 16)

    return Instance("exhaust-z2-m3", lambda: search.exhaust_z2_m3_valency3(), check,
                    samples=16, per_verdict=True)


def sweep_small(rng: random.Random, work: Path) -> list[Instance]:
    return [sweep_2partite("Z8"), sweep_2partite("D4"), rigid3_m7(), z2_m3()]


# -- symmetric ------------------------------------------------------------------------


def _aut_instance(name: str, n: int, arcs: list[tuple[int, int]], order: int) -> Instance:
    def check(result):
        answer = (result.group.order, result.nodes_explored, len(result.group.generators))
        return answer, int(result.group.order != order)

    return Instance(name, lambda: autgroup.automorphism_search(digraphs.Digraph(n, arcs)),
                    check)


def complete(rng: random.Random, n: int) -> Instance:
    """Aut of the complete digraph K_n, vertices permuted: order n!."""
    sigma = rng.sample(range(n), n)
    arcs = [(sigma[u], sigma[v]) for u in range(n) for v in range(n) if u != v]
    return _aut_instance(f"aut-K{n}", n, arcs, math.factorial(n))


def cycle_copies(rng: random.Random, k: int) -> Instance:
    """Aut of k disjoint directed 7-cycles, vertices permuted: order 7^k k!."""
    n = 7 * k
    sigma = rng.sample(range(n), n)
    arcs = [(sigma[7 * c + i], sigma[7 * c + (i + 1) % 7]) for c in range(k) for i in range(7)]
    return _aut_instance(f"aut-{k}xC7", n, arcs, 7 ** k * math.factorial(k))


def part_swap(rng: random.Random, n: int) -> Instance:
    """is_pdr on T[0,1] = {u, 2u, 4u}, T[1,0] = {0, u, 3u} over Z_n.  Since
    T[0,1] = u + T[1,0] a part swap exists and Aut has order 2n: the verdict
    is negative and carries a witness outside R(G), checked here without
    mpdr against the arcs and the right translations x_i -> (x + g)_i."""
    u = _unit(rng, n)
    t01, t10 = (u, 2 * u % n, 4 * u % n), (0, u, 3 * u % n)
    spec = ConnectionSpec.from_sets(2, n, {(0, 1): t01, (1, 0): t10})
    arcs = {(g, n + (t + g) % n) for t in t01 for g in range(n)}
    arcs |= {(n + g, (t + g) % n) for t in t10 for g in range(n)}

    def check(report):
        w = report.extra_automorphism_witness
        ok = not report.is_pdr and report.aut_order == 2 * n and w is not None
        if ok:
            images = w.images
            translation = [(v // n) * n + (v % n + images[0]) % n for v in range(2 * n)]
            ok = (all((images[a], images[b]) in arcs for a, b in arcs)
                  and list(images) != translation)
        answer = (report.is_pdr, report.aut_order, report.search_nodes,
                  None if w is None else w.cycle_string())
        return answer, int(not ok)

    return Instance(f"is-pdr-swap-{n}",
                    lambda: verify.is_pdr(groups.FiniteGroup.cyclic(n), spec), check)


def symmetric(rng: random.Random, work: Path) -> list[Instance]:
    return [
        complete(rng, 16), complete(rng, 20), complete(rng, 25),
        cycle_copies(rng, 5), cycle_copies(rng, 10),
        part_swap(rng, 100), part_swap(rng, 200), part_swap(rng, 400),
    ]


WORKLOADS = {"verify-large": verify_large, "sweep-small": sweep_small, "symmetric": symmetric}


def build(workload: str, seed: int, work: Path) -> list[Instance]:
    """The workload's instances for this seed; writes input files to work."""
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](random.Random(seed), work)
