import random

import pytest

from mpdr import (ConnectionSpec, FiniteGroup, PermGroup, PreconditionError,
                  build_m_cayley, cayley_digraph, is_semiregular, part_swap_automorphism)


def lemma_spec_z5():
    return ConnectionSpec.from_sets(2, 5, {(0, 1): (0, 1, 2), (1, 0): (0, 1, 3)})


def test_spec_canonicalization():
    a = ConnectionSpec.from_sets(2, 5, {(0, 1): (2, 1, 0, 1), (1, 0): (3, 0, 1)})
    b = lemma_spec_z5()
    assert a == b
    assert a.set_for(0, 1) == (0, 1, 2)
    assert a.set_for(1, 1) == ()
    assert a.is_partite()


def test_spec_validation():
    with pytest.raises(ValueError):
        ConnectionSpec.from_sets(2, 3, {(0, 1): (3,)})
    with pytest.raises(ValueError):
        ConnectionSpec.from_sets(2, 3, {(0, 2): (0,)})
    with pytest.raises(ValueError):
        ConnectionSpec(2, 3, (((0, 1, (0,))), (0, 1, (1,))))
    diag = ConnectionSpec.from_sets(2, 3, {(0, 0): (1,)})
    assert not diag.is_partite()


def test_spec_json_roundtrip_bit_exact():
    spec = lemma_spec_z5()
    text = spec.to_json()
    again = ConnectionSpec.from_json(text)
    assert again == spec
    assert again.to_json() == text


def test_spec_valency_sums():
    spec = lemma_spec_z5()
    assert spec.out_valency(0) == 3 and spec.in_valency(0) == 3


def test_build_z5():
    x = build_m_cayley(FiniteGroup.cyclic(5), lemma_spec_z5())
    assert x.digraph.n == 10
    assert x.digraph.arc_count == 30
    assert x.digraph.is_k_regular(3)
    assert x.digraph.vertex_color == tuple([0] * 5 + [1] * 5)


def test_build_z2_three_parts_forced():
    spec = ConnectionSpec.from_sets(3, 2, {
        (0, 2): (0, 1), (2, 1): (0, 1), (1, 0): (0, 1),
        (0, 1): (0,), (1, 2): (0,), (2, 0): (0,),
    })
    x = build_m_cayley(FiniteGroup.cyclic(2), spec)
    assert x.digraph.n == 6
    assert x.digraph.is_k_regular(3)


def test_build_empty_spec():
    spec = ConnectionSpec.from_sets(3, 4, {})
    x = build_m_cayley(FiniteGroup.cyclic(4), spec)
    assert x.digraph.n == 12
    assert x.digraph.arc_count == 0


def test_build_errors():
    with pytest.raises(PreconditionError):
        build_m_cayley(FiniteGroup.cyclic(4), lemma_spec_z5())


def test_degree_sums_match_spec():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(2, 6)
        m = rng.randint(2, 4)
        group = FiniteGroup.cyclic(n)
        sets = {}
        for i in range(m):
            for j in range(m):
                if i != j and rng.random() < 0.5:
                    size = rng.randint(1, n)
                    sets[(i, j)] = tuple(rng.sample(range(n), size))
        spec = ConnectionSpec.from_sets(m, n, sets)
        x = build_m_cayley(group, spec)
        for i in range(m):
            for v in x.part(i):
                assert x.digraph.out_degree(v) == spec.out_valency(i)
                assert x.digraph.in_degree(v) == spec.in_valency(i)


def test_partite_means_arcless_parts():
    spec = lemma_spec_z5()
    x = build_m_cayley(FiniteGroup.cyclic(5), spec)
    for part in x.parts():
        sub, _ = x.digraph.induced_subdigraph(part)
        assert sub.arc_count == 0


def test_nonpartite_diagonal_builds_loops():
    spec = ConnectionSpec.from_sets(2, 3, {(0, 0): (0, 1), (1, 0): (1,)})
    x = build_m_cayley(FiniteGroup.cyclic(3), spec)
    # identity on the diagonal yields one self-loop per part-0 vertex
    assert all(x.digraph.has_arc(v, v) for v in x.part(0))


def test_right_translation_identity():
    x = build_m_cayley(FiniteGroup.cyclic(5), lemma_spec_z5())
    assert x.right_translation(0).is_identity()


def test_right_translation_moves_within_part():
    x = build_m_cayley(FiniteGroup.cyclic(5), lemma_spec_z5())
    r = x.right_translation(1)
    assert r(x.vertex(0, 0)) == x.vertex(1, 0)
    assert all(x.vertex_part(r(v)) == x.vertex_part(v) for v in range(10))


def test_right_translation_composition_z6():
    spec = ConnectionSpec.from_sets(2, 6, {(0, 1): (0, 1, 2), (1, 0): (0, 1, 3)})
    x = build_m_cayley(FiniteGroup.cyclic(6), spec)
    for a in range(6):
        for b in range(6):
            assert (x.right_translation(a) * x.right_translation(b)
                    == x.right_translation(x.group.mul(a, b)))


def test_right_translations_are_automorphisms_exhaustive(s3, q8):
    specs = [
        (FiniteGroup.cyclic(5), lemma_spec_z5()),
        (s3, ConnectionSpec.from_sets(2, 6, {(0, 1): (1, 2), (1, 0): (0, 3)})),
        (q8, ConnectionSpec.from_sets(3, 8, {(0, 1): (1,), (1, 2): (2,), (2, 0): (0, 5)})),
    ]
    for group, spec in specs:
        x = build_m_cayley(group, spec)
        for g in range(group.order):
            assert x.digraph.is_automorphism(x.right_translation(g).images,
                                             respect_colors=False)


def test_left_multiplication_convention_matters(s3):
    """On a nonabelian group the arc map t*g and the swapped g*t give
    different digraphs; the constructor is pinned to t*g."""
    spec = ConnectionSpec.from_sets(2, 6, {(0, 1): (2,), (1, 0): (0,)})
    x = build_m_cayley(s3, spec)
    t = 2
    for g in range(6):
        assert x.digraph.has_arc(x.vertex(g, 0), x.vertex(s3.mul(t, g), 1))
    swapped = [(x.vertex(g, 0), x.vertex(s3.mul(g, t), 1)) for g in range(6)]
    assert any(not x.digraph.has_arc(u, v) for u, v in swapped)


def test_right_regular_group():
    x = build_m_cayley(FiniteGroup.cyclic(5), lemma_spec_z5())
    r = x.right_regular_group()
    assert r.order == 5
    assert r.orbits() == [list(x.part(0)), list(x.part(1))]
    assert is_semiregular(r)
    assert r.orbits() == [list(range(5)), list(range(5, 10))]


def test_verify_semiregular_negative():
    p = PermGroup(3, [[1, 0, 2]])  # fixes point 2
    assert not is_semiregular(p)
    assert p.orbits() == [[0, 1], [2]]


def test_verify_semiregular_trivial():
    p = PermGroup(3, [])
    assert is_semiregular(p)
    assert p.orbits() == [[0], [1], [2]]


def test_part_swap_all_of_g():
    z3 = FiniteGroup.cyclic(3)
    spec = ConnectionSpec.from_sets(2, 3, {(0, 1): (0, 1, 2), (1, 0): (0, 1, 2)})
    x = build_m_cayley(z3, spec)
    tau = part_swap_automorphism(x, 0)
    assert x.digraph.is_automorphism(tau.images, respect_colors=False)
    assert {tau(v) for v in x.part(0)} == set(x.part(1))
    assert not PermGroup(6, [tau]).fixes_setwise(x.part(0))


def test_part_swap_z4_shifted():
    """Direct arc-preservation oracle: apply the swap to every arc by hand."""
    z4 = FiniteGroup.cyclic(4)
    spec = ConnectionSpec.from_sets(2, 4, {(0, 1): (1, 2, 3), (1, 0): (0, 1, 2)})
    x = build_m_cayley(z4, spec)
    tau = part_swap_automorphism(x, 1)  # T[0,1] = x * T[1,0]
    arcs = set(x.digraph.arcs())
    assert {(tau(u), tau(v)) for u, v in arcs} == arcs


def test_part_swap_z5_never_applies():
    x = build_m_cayley(FiniteGroup.cyclic(5), lemma_spec_z5())
    for y in range(5):
        with pytest.raises(PreconditionError):
            part_swap_automorphism(x, y)


def test_part_swap_other_preconditions(s3):
    spec3 = ConnectionSpec.from_sets(3, 2, {(0, 1): (0,), (1, 2): (0,), (2, 0): (0,)})
    x3 = build_m_cayley(FiniteGroup.cyclic(2), spec3)
    with pytest.raises(PreconditionError, match="2 parts"):
        part_swap_automorphism(x3, 0)
    spec_s3 = ConnectionSpec.from_sets(2, 6, {(0, 1): (1,), (1, 0): (1,)})
    xs3 = build_m_cayley(s3, spec_s3)
    with pytest.raises(PreconditionError, match="abelian"):
        part_swap_automorphism(xs3, 0)


def test_part_swap_property_random_abelian(z2z4):
    """Whenever T[0,1] := y * T[1,0], the swap is an automorphism."""
    rng = random.Random(13)
    groups = [FiniteGroup.cyclic(n) for n in range(2, 13)] + [z2z4]
    for _ in range(40):
        group = rng.choice(groups)
        n = group.order
        size = rng.randint(1, min(4, n))
        t10 = tuple(rng.sample(range(n), size))
        y = rng.randrange(n)
        t01 = tuple(group.mul(y, t) for t in t10)
        spec = ConnectionSpec.from_sets(2, n, {(0, 1): t01, (1, 0): t10})
        x = build_m_cayley(group, spec)
        tau = part_swap_automorphism(x, y)
        arcs = set(x.digraph.arcs())
        assert {(tau(u), tau(v)) for u, v in arcs} == arcs


def test_cayley_digraph_plain():
    z5 = FiniteGroup.cyclic(5)
    g = cayley_digraph(z5, (1, 2))
    assert g.n == 5 and g.is_k_regular(2)
    assert g.has_arc(0, 1) and g.has_arc(0, 2)


def test_vertex_labels():
    x = build_m_cayley(FiniteGroup.cyclic(3),
                       ConnectionSpec.from_sets(2, 3, {(0, 1): (0,)}))
    assert x.vertex_label(0) == "1_0"
    assert x.vertex_label(4) == "x_1"
