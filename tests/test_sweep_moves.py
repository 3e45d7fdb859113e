"""The moves that reduce the 2-part valency-3 sweep to one search per orbit.

Each move is checked as an explicit vertex bijection between the digraph
built from a spec and the digraph built from its image, on D4 and Q8, where
left and right multiplication differ.  The images are written out from the
formulas (arc rule g_i -> (t*g)_j, with * the group's ``mul``):

* g_0 -> (a*g)_0 takes (T01, T10) to (T01*a^-1, a*T10);
* g_1 -> (a*g)_1 takes (T01, T10) to (a*T01, T10*a^-1);
* an automorphism s on both parts takes it to (s(T01), s(T10));
* the part swap takes it to (T10, T01).
"""

import itertools
import random

import pytest

from mpdr import MCayleyDigraph, search
from mpdr.perms import closure, then
from mpdr.cayley import ConnectionSpec

AUT_ORDERS = {"d4": 8, "q8": 24}


def _arcs(group, t01, t10):
    spec = ConnectionSpec.from_sets(2, group.order, {(0, 1): t01, (1, 0): t10})
    return set(MCayleyDigraph(group, spec).digraph.arcs())


def _sample(group, k=30):
    triples = list(itertools.combinations(range(group.order), 3))
    rng = random.Random(group.order)
    return [(rng.choice(triples), rng.choice(triples)) for _ in range(k)]


def _carries(group, vertex, image, t01, t10):
    """Does ``vertex`` (part, g) -> (part, g) map the digraph of (t01, t10)
    onto the digraph of image(t01, t10)?"""
    n = group.order

    def v(x):
        part, g = vertex(*divmod(x, n))
        return part * n + g

    return {(v(a), v(b)) for a, b in _arcs(group, t01, t10)} == _arcs(group, *image(t01, t10))


def _times(group, left, right):
    return lambda ts: tuple(sorted(group.mul(group.mul(left, t), right) for t in ts))


def _formula_moves(group):
    """Each generator of the move group as (element maps as search._spec_maps
    gives them, vertex bijection, spec image from the formulas)."""
    n, e = group.order, 0
    ident = tuple(range(n))
    moves = []
    for a in closure(range(n), group.mul, 0)[0]:
        inv = group.inverse(a)
        right = tuple(group.mul(t, inv) for t in range(n))
        moves.append(((right, group.row(a), False),
                      lambda i, g, a=a: (i, group.mul(a, g) if i == 0 else g),
                      lambda t01, t10, a=a, inv=inv: (_times(group, e, inv)(t01),
                                                      _times(group, a, e)(t10))))
        moves.append(((group.row(a), right, False),
                      lambda i, g, a=a: (i, group.mul(a, g) if i == 1 else g),
                      lambda t01, t10, a=a, inv=inv: (_times(group, a, e)(t01),
                                                      _times(group, e, inv)(t10))))
    autos = search._automorphisms(group)
    for s in closure(autos, then, ident)[0]:
        moves.append(((s, s, False),
                      lambda i, g, s=s: (i, s[g]),
                      lambda t01, t10, s=s: (tuple(sorted(s[t] for t in t01)),
                                             tuple(sorted(s[t] for t in t10)))))
    moves.append(((ident, ident, True),
                  lambda i, g: (1 - i, g),
                  lambda t01, t10: (t10, t01)))
    return moves


@pytest.mark.parametrize("name", sorted(AUT_ORDERS))
def test_move_generators(request, name):
    group = request.getfixturevalue(name)
    n = group.order
    gens, _ = closure(range(n), group.mul, 0)
    assert group.generates(gens)
    autos = search._automorphisms(group)
    assert len(autos) == len(set(autos)) == AUT_ORDERS[name]
    for s in autos:
        assert sorted(s) == list(range(n))
        assert all(s[group.mul(x, y)] == group.mul(s[x], s[y])
                   for x in range(n) for y in range(n))
    assert [key for key, _, _ in _formula_moves(group)] == search._spec_maps(group)


@pytest.mark.parametrize("name", sorted(AUT_ORDERS))
def test_each_move_is_an_isomorphism(request, name):
    group = request.getfixturevalue(name)
    moves = _formula_moves(group)
    maps = search._spec_maps(group)
    assert len(maps) == len(moves)
    for (f01, f10, swap), (_, vertex, image) in zip(maps, moves):
        for t01, t10 in _sample(group):
            assert _carries(group, vertex, image, t01, t10)
            moved = (tuple(sorted(f01[t] for t in t01)), tuple(sorted(f10[t] for t in t10)))
            assert (moved[::-1] if swap else moved) == image(t01, t10)


def test_right_multiplication_variant_is_not_an_isomorphism(q8):
    """Relabeling part 1 by g_1 -> (a*g)_1 does not give (T01*a, a^-1*T10)
    for a non-central a: the convention matters on Q8."""
    e = 0
    fails = 0
    for a in closure(range(q8.order), q8.mul, 0)[0]:
        variant = lambda t01, t10, a=a: (_times(q8, e, a)(t01),  # noqa: E731
                                         _times(q8, q8.inverse(a), e)(t10))
        fails += sum(not _carries(q8, lambda i, g, a=a: (i, q8.mul(a, g) if i == 1 else g),
                                  variant, t01, t10)
                     for t01, t10 in _sample(q8))
    assert fails > 0
