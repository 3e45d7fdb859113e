"""An independent verdict checker for m-Cayley digraphs in the hundreds of
vertices, where the brute-force oracle (n <= 9) cannot reach.

It uses canonical colour refinement (1-WL): each round names a vertex's new
colour by the rank of its signature (old colour, sorted out-neighbour
colours, sorted in-neighbour colours) among all signatures, so equal inputs
get equal names and the colours are isomorphism-invariant (Berkholz,
Bonsma & Grohe, "Tight lower and upper bounds for the complexity of
canonical colour refinement", 2017).  The digraph is built here from the
spec by the arc rule g_i -> (t*g)_j; only the group's ``mul`` comes from
mpdr.

The argument: R(G) <= Aut is regular on each part, so |Aut| = |G| exactly
when the stabilizer of 1_0 is trivial and no automorphism sends 1_0 into
another part.  Individualizing 1_0 and refining to a discrete colouring
proves the first: an automorphism fixing 1_0 keeps every colour.  For part
i, an automorphism sending 1_0 to 1_i would carry the refinement from 1_0
onto the refinement from 1_i, so either the colour histograms differ, or
both are discrete and the unique candidate map is not an automorphism.
Then the verdict is positive.  A candidate map that is an automorphism and
leaves part 0 is an automorphism outside R(G): negative.  Anything else is
inconclusive; the checker never guesses.
"""

import collections
import itertools
import random

import pytest

from mpdr import ConnectionSpec, FiniteGroup, Permutation, is_pdr
from mpdr.autgroup import VERTEX_CAP
from mpdr.constructions import cyclic_2pdr, cyclic_mpdr, two_generated_mpdr


def refine(out_adj, in_adj, colours):
    """Canonical colour refinement to a stable colouring."""
    count = len(set(colours))
    while count < len(colours):
        get = colours.__getitem__
        signatures = [(c, tuple(sorted(map(get, out))), tuple(sorted(map(get, inn))))
                      for c, out, inn in zip(colours, out_adj, in_adj)]
        names = {s: k for k, s in enumerate(sorted(set(signatures)))}
        if len(names) == count:
            break
        colours, count = [names[s] for s in signatures], len(names)
    return colours


def check_verdict(group: FiniteGroup, spec: ConnectionSpec) -> str:
    """'positive' (|Aut| = |G|), 'negative' (|Aut| > |G|) or 'inconclusive'."""
    n = group.order
    total = spec.m * n
    arcs = {(i * n + g, j * n + group.mul(t, g))
            for i, j, elems in spec.entries for t in elems for g in range(n)}
    out_adj = [[] for _ in range(total)]
    in_adj = [[] for _ in range(total)]
    for u, v in arcs:
        out_adj[u].append(v)
        in_adj[v].append(u)

    def individualized(v):
        colours = [0] * total
        colours[v] = 1
        return refine(out_adj, in_adj, colours)

    base = individualized(0)
    if len(set(base)) < total:
        return "inconclusive"
    histogram = collections.Counter(base)
    for i in range(1, spec.m):
        other = individualized(i * n)
        if collections.Counter(other) != histogram:
            continue  # not discrete: no automorphism sends 1_0 to 1_i
        vertex_of = {c: w for w, c in enumerate(other)}
        candidate = [vertex_of[c] for c in base]
        if {(candidate[u], candidate[v]) for u, v in arcs} == arcs:
            return "negative" if candidate[0] // n == i else "inconclusive"
    return "positive"


def _perm_group(cycles, degree):
    return FiniteGroup.from_permutations(
        degree, [Permutation.from_cycles(c, degree) for c in cycles])


def _two_generated(cycles, m):
    group = _perm_group(cycles, 5)
    return group, two_generated_mpdr(group, *group.designated_generators, m)


def _part_swap(n, u):
    """T01 = u + T10 over Z_n: the part swap is an extra automorphism."""
    t01, t10 = (u, 2 * u % n, 4 * u % n), (0, u, 3 * u % n)
    return FiniteGroup.cyclic(n), ConnectionSpec.from_sets(2, n, {(0, 1): t01, (1, 0): t10})


# The verify-large corpus up to 1,000 vertices, and the symmetric workload's
# part swap at n = 100.
CORPUS = {
    "cyclic-250-m2": lambda: (FiniteGroup.cyclic(250), cyclic_2pdr(250)),
    "cyclic-500-m2": lambda: (FiniteGroup.cyclic(500), cyclic_2pdr(500)),
    "cyclic-200-m3": lambda: (FiniteGroup.cyclic(200), cyclic_mpdr(200, 3)),
    "cyclic-100-m4": lambda: (FiniteGroup.cyclic(100), cyclic_mpdr(100, 4)),
    "cyclic-50-m5": lambda: (FiniteGroup.cyclic(50), cyclic_mpdr(50, 5)),
    "S5-m3": lambda: _two_generated(("(0 1 2 3 4)", "(0 1)"), 3),
    "A5-m4": lambda: _two_generated(("(0 1 2 3 4)", "(0 1 2)"), 4),
    "swap-100": lambda: _part_swap(100, 1),
    "swap-100-u7": lambda: _part_swap(100, 7),
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_checker_agrees_with_is_pdr(name):
    group, spec = CORPUS[name]()
    verdict = check_verdict(group, spec)
    assert verdict != "inconclusive"
    report = is_pdr(group, spec)
    assert (verdict == "positive") == report.is_pdr == (report.aut_order == group.order)


def test_checker_never_contradicts_is_pdr_on_small_specs():
    """Random 2-part valency-3 specs over Z_5 to Z_8, where many digraphs
    have automorphisms fixing 1_0: every verdict the checker reaches matches
    the search's order, and each of the three outcomes occurs."""
    rng = random.Random(9)
    seen = collections.Counter()
    for n in (5, 6, 7, 8):
        group = FiniteGroup.cyclic(n)
        triples = list(itertools.combinations(range(n), 3))
        for _ in range(20):
            spec = ConnectionSpec.from_sets(2, n, {(0, 1): rng.choice(triples),
                                                   (1, 0): rng.choice(triples)})
            verdict = check_verdict(group, spec)
            seen[verdict] += 1
            if verdict != "inconclusive":
                assert (verdict == "positive") == (is_pdr(group, spec).aut_order == n)
    assert set(seen) == {"positive", "negative", "inconclusive"}, seen


def _psl2_prime(p):
    """PSL(2, p) on the projective line 0..p-1, p = infinity: x -> x + 1
    and x -> -1/x."""
    return p + 1, [[(x + 1) % p if x < p else p for x in range(p + 1)],
                   [p if x == 0 else 0 if x == p else -pow(x, -1, p) % p
                    for x in range(p + 1)]]


def _gf8_mul(a, b):
    """Product in GF(8) = GF(2)[w] / (w^3 + w + 1), elements as bit masks."""
    r = 0
    for i in range(3):
        if b >> i & 1:
            r ^= a << i
    for i in (4, 3):
        if r >> i & 1:
            r ^= 0b1011 << (i - 3)
    return r


def _psl2_8():
    """PSL(2, 8) on the projective line over GF(8), 8 = infinity: x -> wx + 1
    and x -> 1/x."""
    inverse = {0: 8, 8: 0}
    inverse.update((a, b) for a in range(1, 8) for b in range(1, 8) if _gf8_mul(a, b) == 1)
    return 9, [[_gf8_mul(2, x) ^ 1 if x < 8 else 8 for x in range(9)],
               [inverse[x] for x in range(9)]]


def _relabeled(group, spec, rng):
    """The same group and spec under a random renaming of the elements that
    keeps the identity at 0, the group given as its row table."""
    sigma = [0] + rng.sample(range(1, group.order), group.order - 1)
    table = [[0] * group.order for _ in range(group.order)]
    for a in range(group.order):
        for b, ab in enumerate(group.row(a)):
            table[sigma[a]][sigma[b]] = sigma[ab]
    return FiniteGroup(table), ConnectionSpec(spec.m, spec.group_order, tuple(
        (i, j, [sigma[t] for t in elems]) for i, j, elems in spec.entries))


# The paper's nonabelian simple groups that fit the vertex cap at m = 3:
# the first tables above order 120 that any test reads.  PSL(2,13) (order
# 1,092) and A7 (order 2,520) exceed VERTEX_CAP = 2,048 even at m = 2.
SIMPLE_GROUPS = {
    "PSL(2,7)": (lambda: _psl2_prime(7), 168),
    "A6": (lambda: (6, [Permutation.from_cycles("(0 1 2 3 4)", 6),
                        Permutation.from_cycles("(0 1 2 3 5)", 6)]), 360),
    "PSL(2,8)": (_psl2_8, 504),
    "PSL(2,11)": (lambda: _psl2_prime(11), 660),
}


@pytest.mark.parametrize("name", SIMPLE_GROUPS)
def test_simple_groups_two_generated_m3(name):
    """two_generated_mpdr at m = 3 is a 3-PDR of each simple group: positive
    for is_pdr and the colour-refinement checker, and for is_pdr again after
    a seeded renaming of the elements."""
    build, order = SIMPLE_GROUPS[name]
    group = FiniteGroup.from_permutations(*build())
    assert group.order == order and 3 * order <= VERTEX_CAP
    spec = two_generated_mpdr(group, *group.designated_generators, 3)
    report = is_pdr(group, spec)
    assert report.is_pdr and report.aut_order == order
    assert check_verdict(group, spec) == "positive"
    report = is_pdr(*_relabeled(group, spec, random.Random(order)))
    assert report.is_pdr and report.aut_order == order


@pytest.mark.parametrize("name", ["PSL(2,7)", "A6", "PSL(2,8)"])
def test_simple_groups_two_generated_m4(name):
    """two_generated_mpdr at m = 4, up to PSL(2,8) on 2,016 vertices, next
    to the cap: positive with |Aut| = |G| from the search seeded with the
    translations by the designated generators, and from the unseeded search
    of the renamed row table, which has none."""
    build, order = SIMPLE_GROUPS[name]
    group = FiniteGroup.from_permutations(*build())
    assert 4 * order <= VERTEX_CAP
    spec = two_generated_mpdr(group, *group.designated_generators, 4)
    report = is_pdr(group, spec)
    assert report.is_pdr and report.aut_order == order
    table, renamed = _relabeled(group, spec, random.Random(order))
    assert table.designated_generators == ()
    report = is_pdr(table, renamed)
    assert report.is_pdr and report.aut_order == order
