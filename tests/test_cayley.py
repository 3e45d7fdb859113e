import random
import tracemalloc

import pytest

from mpdr import (ConnectionSpec, Digraph, FiniteGroup, MCayleyDigraph, PermGroup, Permutation,
                  PreconditionError, cayley_digraph, cyclic_2pdr, two_generated_mpdr)

from conftest import (A5_GENS, assert_refused, digraph_fields, fields_from_arcs, fixes_setwise,
                      induced_subdigraph, is_semiregular, part_swap, vertex)
from test_autgroup import family_specs


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
    """The built digraph is k-regular when every row and column of the
    spec's set sizes sums to k, and not regular when the sums differ."""
    z5 = FiniteGroup.cyclic(5)
    uneven = ConnectionSpec.from_sets(2, 5, {(0, 1): (0, 1, 2), (1, 0): (0,)})
    for spec, valency in ((lemma_spec_z5(), 3), (uneven, None)):
        sizes = [[len(spec.set_for(i, j)) for j in range(2)] for i in range(2)]
        sums = {sum(row) for row in sizes} | {sum(col) for col in zip(*sizes)}
        assert (sums == {3}) == (valency == 3)
        assert MCayleyDigraph(z5, spec).digraph.regular_valency() == valency


def test_build_z5():
    x = MCayleyDigraph(FiniteGroup.cyclic(5), lemma_spec_z5())
    assert x.digraph.n == 10
    assert x.digraph.arc_count == 30
    assert x.digraph.regular_valency() == 3
    assert x.digraph.vertex_color is None
    colored = x.part_colored()
    assert colored.vertex_color == (0,) * 5 + (1,) * 5
    assert colored.arcs() == x.digraph.arcs()


def test_build_z2_three_parts_forced():
    spec = ConnectionSpec.from_sets(3, 2, {
        (0, 2): (0, 1), (2, 1): (0, 1), (1, 0): (0, 1),
        (0, 1): (0,), (1, 2): (0,), (2, 0): (0,),
    })
    x = MCayleyDigraph(FiniteGroup.cyclic(2), spec)
    assert x.digraph.n == 6
    assert x.digraph.regular_valency() == 3


def test_build_empty_spec():
    spec = ConnectionSpec.from_sets(3, 4, {})
    x = MCayleyDigraph(FiniteGroup.cyclic(4), spec)
    assert x.digraph.n == 12
    assert x.digraph.arc_count == 0


def test_build_errors():
    with pytest.raises(PreconditionError):
        MCayleyDigraph(FiniteGroup.cyclic(4), lemma_spec_z5())


@pytest.mark.parametrize("call, refusal", [
    (lambda: ConnectionSpec(0, 5, ()), ValueError("part count must be at least 1, got 0")),
    (lambda: ConnectionSpec(2, 0, ()), ValueError("group order must be at least 1")),
    (lambda: MCayleyDigraph(FiniteGroup.cyclic(6), lemma_spec_z5()),
     PreconditionError("spec is over a group of order 5, got 6")),
], ids=["no-parts", "empty-group", "wrong-group-order"])
def test_spec_and_build_refusals(call, refusal):
    assert_refused(call, refusal)


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
        x = MCayleyDigraph(group, spec)
        for i in range(m):
            for v in x.part(i):
                assert len(x.digraph.out_adj[v]) == sum(len(spec.set_for(i, j))
                                                        for j in range(m))
                assert len(x.digraph.in_adj[v]) == sum(len(spec.set_for(j, i))
                                                       for j in range(m))


def test_partite_means_arcless_parts():
    spec = lemma_spec_z5()
    x = MCayleyDigraph(FiniteGroup.cyclic(5), spec)
    for part in x.parts():
        sub, _ = induced_subdigraph(x.digraph, part)
        assert sub.arc_count == 0


def test_nonpartite_diagonal_builds_loops():
    spec = ConnectionSpec.from_sets(2, 3, {(0, 0): (0, 1), (1, 0): (1,)})
    x = MCayleyDigraph(FiniteGroup.cyclic(3), spec)
    # identity on the diagonal yields one self-loop per part-0 vertex
    assert all(x.digraph.out_bits[v] >> v & 1 for v in x.part(0))


def test_right_translation_identity():
    x = MCayleyDigraph(FiniteGroup.cyclic(5), lemma_spec_z5())
    assert x.right_translation(0) == Permutation.identity(x.digraph.n)


def test_right_translation_moves_within_part():
    x = MCayleyDigraph(FiniteGroup.cyclic(5), lemma_spec_z5())
    r = x.right_translation(1)
    assert r(vertex(x, 0, 0)) == vertex(x, 1, 0)
    assert all(x.vertex_part(r(v)) == x.vertex_part(v) for v in range(10))


def test_right_translation_composition_z6():
    spec = ConnectionSpec.from_sets(2, 6, {(0, 1): (0, 1, 2), (1, 0): (0, 1, 3)})
    x = MCayleyDigraph(FiniteGroup.cyclic(6), spec)
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
        x = MCayleyDigraph(group, spec)
        for g in range(group.order):
            assert x.digraph.is_automorphism(x.right_translation(g).images)


def test_left_multiplication_convention_matters(s3):
    """On a nonabelian group the arc map t*g and the swapped g*t give
    different digraphs; the constructor is pinned to t*g."""
    spec = ConnectionSpec.from_sets(2, 6, {(0, 1): (2,), (1, 0): (0,)})
    x = MCayleyDigraph(s3, spec)
    t = 2
    for g in range(6):
        assert x.digraph.out_bits[vertex(x, g, 0)] >> vertex(x, s3.mul(t, g), 1) & 1
    swapped = [(vertex(x, g, 0), vertex(x, s3.mul(g, t), 1)) for g in range(6)]
    assert any(not x.digraph.out_bits[u] >> v & 1 for u, v in swapped)


def test_right_regular_group():
    x = MCayleyDigraph(FiniteGroup.cyclic(5), lemma_spec_z5())
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
    x = MCayleyDigraph(z3, spec)
    tau = part_swap(x, 0)
    assert x.digraph.is_automorphism(tau.images)
    assert {tau(v) for v in x.part(0)} == set(x.part(1))
    assert not fixes_setwise(PermGroup(6, [tau]), x.part(0))


def test_part_swap_z4_shifted():
    """Direct arc-preservation oracle: apply the swap to every arc by hand."""
    z4 = FiniteGroup.cyclic(4)
    spec = ConnectionSpec.from_sets(2, 4, {(0, 1): (1, 2, 3), (1, 0): (0, 1, 2)})
    x = MCayleyDigraph(z4, spec)
    tau = part_swap(x, 1)  # T[0,1] = x * T[1,0]
    arcs = set(x.digraph.arcs())
    assert {(tau(u), tau(v)) for u, v in arcs} == arcs


def test_part_swap_z5_never_applies():
    x = MCayleyDigraph(FiniteGroup.cyclic(5), lemma_spec_z5())
    for y in range(5):
        assert not x.digraph.is_automorphism(part_swap(x, y).images)


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
        x = MCayleyDigraph(group, spec)
        tau = part_swap(x, y)
        arcs = set(x.digraph.arcs())
        assert {(tau(u), tau(v)) for u, v in arcs} == arcs


def test_cayley_digraph_plain(s3):
    z5 = FiniteGroup.cyclic(5)
    g = cayley_digraph(z5, (1, 2))
    assert g.n == 5 and g.regular_valency() == 2
    assert g.out_adj[0] == (1, 2)
    # left multiplication, and the identity in the set gives a loop at every vertex
    g = cayley_digraph(s3, (0, 1))
    assert set(g.arcs()) == {(x, s3.mul(t, x)) for t in (0, 1) for x in range(6)}
    assert all(g.out_bits[x] >> x & 1 for x in range(6))


def test_vertex_labels():
    x = MCayleyDigraph(FiniteGroup.cyclic(3),
                       ConnectionSpec.from_sets(2, 3, {(0, 1): (0,)}))
    assert x.vertex_label(0) == "1_0"
    assert x.vertex_label(4) == "x_1"


def test_streamed_build_matches_the_arc_rule():
    """Each family digraph, built from arcs streamed once, and its part
    colouring equal the digraph of the arc rule g_i -> (t*g)_j computed
    here, field by field, whether that digraph reads the arcs from a
    one-shot iterator or from a list."""
    for name, group, spec in family_specs():
        n = group.order
        arcs = [(i * n + g, j * n + group.mul(t, g))
                for i, j, elems in spec.entries for t in elems for g in range(n)]
        x = MCayleyDigraph(group, spec)
        parts = [v // n for v in range(x.digraph.n)]
        for built, color in ((x.digraph, None), (x.part_colored(), parts)):
            expected = fields_from_arcs(spec.m * n, arcs, color)
            assert digraph_fields(built) == expected, name
            assert digraph_fields(Digraph(spec.m * n, iter(arcs), color)) == expected, name
            assert digraph_fields(Digraph(spec.m * n, list(arcs), color)) == expected, name


def build_peak(build) -> int:
    """Bytes at the tracemalloc peak of one call, counted from its start."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_holds_no_arc_list():
    """Building a 2,000-vertex m-Cayley digraph peaks below 1.6 MB: the arcs
    stream into the digraph, and its adjacency lists share one int per
    vertex.  A 6,000-arc list, or one int per adjacency entry, would each
    push the peak past the bound."""
    z1000 = FiniteGroup.cyclic(1000)
    a5 = FiniteGroup.from_permutations(5, A5_GENS)
    for group, spec in ((z1000, cyclic_2pdr(1000)),
                        (a5, two_generated_mpdr(a5, *a5.designated_generators, 34))):
        assert build_peak(lambda: MCayleyDigraph(group, spec)) < 1_600_000
