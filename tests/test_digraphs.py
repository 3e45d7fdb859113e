import random

import pytest

from mpdr import (ConnectionSpec, Digraph, FiniteGroup, FormatError, MCayleyDigraph,
                  cayley_digraph, cyclic_2pdr)

from conftest import (assert_refused, digraph_fields, fields_from_arcs, hamiltonian_oriented_cycles,
                      induced_subdigraph, is_connected, k_step_out_neighborhood)


def random_digraph(rng, n, p, loops=False):
    arcs = [(u, v) for u in range(n) for v in range(n)
            if (loops or u != v) and rng.random() < p]
    return Digraph(n, arcs)


def test_triangle():
    g = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.regular_valency() == 1
    assert not any(g.digon_adj)
    assert g.undirected_edges() == []
    assert is_connected(g)


def test_single_vertex():
    g = Digraph(1, [])
    assert g.arc_count == 0
    assert is_connected(g)


def test_digon():
    g = Digraph(2, [(0, 1), (1, 0)])
    assert g.digon_adj == ((1,), (0,))
    assert g.undirected_edges() == [(0, 1)]


def test_constructor_validation():
    with pytest.raises(ValueError):
        Digraph(3, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        Digraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Digraph(3, [(1, 1), (1, 1)])
    # a loop is an arc like any other
    loop = Digraph(3, [(1, 1)])
    assert loop.out_bits[1] >> 1 & 1 and loop.arc_count == 1
    assert loop.out_adj[1] == loop.in_adj[1] == (1,)


def random_arc_list(rng, n, k):
    """k random heads per vertex, loops allowed, plus the reverse of every
    third arc, so that digons occur; shuffled."""
    arcs = {(u, v) for u in range(n) for v in rng.sample(range(n), min(k, n))}
    arcs |= {(v, u) for u, v in sorted(arcs)[::3]}
    arcs = sorted(arcs)
    rng.shuffle(arcs)
    return arcs


def test_streamed_build_equals_list_build():
    """Arcs read once from an iterator give the same digraph as the same arcs
    in a list, field by field, and the fields match the arc set: 80 seeded
    arc lists on up to 40 vertices, with loops, digons and colors, and one
    on 600 vertices."""
    rng = random.Random(38)
    cases = [(n, random_arc_list(rng, n, rng.randint(0, 5))) for n in rng.choices(range(1, 41), k=80)]
    cases.append((600, random_arc_list(rng, 600, 3)))
    loops = digons = 0
    for n, arcs in cases:
        color = [rng.randrange(3) for _ in range(n)] if rng.random() < 0.5 else None
        streamed = digraph_fields(Digraph(n, iter(arcs), color))
        assert streamed == digraph_fields(Digraph(n, list(arcs), color))
        assert streamed == fields_from_arcs(n, arcs, color)
        loops += any(u == v for u, v in arcs)
        digons += any(streamed["digon_adj"])
    assert loops > 20 and digons > 20


@pytest.mark.parametrize("bad", [(1, 2), (2, 2), (0, 5), (5, 0), (-1, 3)],
                         ids=["duplicate", "duplicate-loop", "head-out-of-range",
                              "tail-out-of-range", "negative"])
def test_streamed_build_refuses_like_the_list(bad):
    """A bad arc part-way through a one-shot iterator raises the same
    ValueError as in a list."""
    arcs = [(0, 1), (1, 2), (2, 2), bad, (3, 4)]
    with pytest.raises(ValueError) as from_list:
        Digraph(5, list(arcs))
    stream = iter(arcs)
    with pytest.raises(ValueError) as from_stream:
        Digraph(5, stream)
    assert str(from_stream.value) == str(from_list.value)
    assert list(stream) == [(3, 4)]  # read up to the bad arc and no further


def test_adjacency_holds_one_int_per_vertex():
    """Past 256 vertices, where Python stops sharing small ints, the out-, in-
    and digon lists still hold at most one int object per vertex."""
    for g in (Digraph(600, random_arc_list(random.Random(600), 600, 3)),
              MCayleyDigraph(FiniteGroup.cyclic(500), cyclic_2pdr(500)).digraph):
        entries = [v for adj in (g.out_adj, g.in_adj, g.digon_adj) for row in adj for v in row]
        assert len(entries) > 2 * g.n
        assert len({id(v) for v in entries}) <= g.n


def test_transpose_consistency():
    rng = random.Random(2)
    for _ in range(50):
        g = random_digraph(rng, rng.randint(1, 10), rng.choice([0.2, 0.5, 0.8]))
        for u in range(g.n):
            for v in g.out_adj[u]:
                assert u in g.in_adj[v]
        for v in range(g.n):
            for u in g.in_adj[v]:
                assert v in g.out_adj[u]
        assert sum(map(len, g.out_adj)) == g.arc_count
        assert sum(map(len, g.in_adj)) == g.arc_count


def test_k_step_base_case():
    rng = random.Random(3)
    g = random_digraph(rng, 8, 0.4)
    for x in range(8):
        assert k_step_out_neighborhood(g, x, 0) == {x}


def test_k_step_matches_matrix_power_oracle():
    """Independent oracle: boolean matrix powers applied to the indicator
    vector of {x}."""
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(1, 10)
        g = random_digraph(rng, n, rng.choice([0.15, 0.35, 0.6]))
        adj = [[g.out_bits[u] >> v & 1 for v in range(n)] for u in range(n)]
        for x in range(n):
            reach = [1 if v == x else 0 for v in range(n)]
            for k in range(4):
                expected = {v for v in range(n) if reach[v]}
                assert k_step_out_neighborhood(g, x, k) == expected
                reach = [1 if any(reach[u] and adj[u][v] for u in range(n)) else 0
                         for v in range(n)]


def test_k_step_recursion_property():
    rng = random.Random(5)
    g = random_digraph(rng, 9, 0.3)
    for x in range(9):
        for k in range(3):
            level = k_step_out_neighborhood(g, x, k)
            union = set()
            for y in level:
                union |= set(g.out_adj[y])
            assert k_step_out_neighborhood(g, x, k + 1) == union


def test_induced_identity():
    rng = random.Random(6)
    g = random_digraph(rng, 7, 0.5)
    sub, mapping = induced_subdigraph(g, range(7))
    assert mapping == list(range(7))
    assert sub.arcs() == g.arcs()


def test_induced_single_vertex():
    g = Digraph(4, [(0, 1), (1, 2), (2, 3)])
    sub, mapping = induced_subdigraph(g, {2})
    assert sub.n == 1 and sub.arc_count == 0
    assert mapping == [2]


def test_induced_preserves_arcs():
    g = Digraph(5, [(0, 1), (1, 0), (1, 2), (3, 4), (4, 2)])
    sub, mapping = induced_subdigraph(g, {1, 2, 4})
    assert mapping == [1, 2, 4]
    assert set(sub.arcs()) == {(0, 1), (2, 1)}


def test_connectivity_modes():
    two_digons = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
    assert not is_connected(two_digons)
    path = Digraph(3, [(0, 1), (1, 2)])
    assert is_connected(path)  # weakly: no path leads back to 0


def test_hamiltonian_cycles_triangle():
    g = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert hamiltonian_oriented_cycles(g) == [(0, 1, 2)]


def test_hamiltonian_cycles_digon_excluded():
    g = Digraph(2, [(0, 1), (1, 0)])
    assert hamiltonian_oriented_cycles(g) == []


def test_hamiltonian_cycle_with_chord():
    g = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert hamiltonian_oriented_cycles(g) == [(0, 1, 2, 3)]


def test_text_roundtrip(s3):
    """from_text reads back every digraph to_text writes, loops included:
    random digraphs, m-Cayley digraphs with and without diagonal sets, and
    Cayley digraphs; and each one's digon lists match their definition."""
    rng = random.Random(8)
    digraphs = [random_digraph(rng, rng.randint(1, 9), 0.4, loops=i >= 20)
                for i in range(40)]
    # the non-partite spec of test_cayley's loop test: a loop at each part-0 vertex
    spec = ConnectionSpec.from_sets(2, 3, {(0, 0): (0, 1), (1, 0): (1,)})
    digraphs.append(MCayleyDigraph(FiniteGroup.cyclic(3), spec).digraph)
    assert "0 0\n" in digraphs[-1].to_text()
    partite = set()
    for group in (FiniteGroup.cyclic(6), s3):
        n = group.order
        for _ in range(10):
            m = rng.randint(2, 3)
            sets = {(i, j): rng.sample(range(n), rng.randint(0, 2))
                    for i in range(m) for j in range(m) if i != j or rng.random() < 0.5}
            spec = ConnectionSpec.from_sets(m, n, sets)
            partite.add(spec.is_partite())
            digraphs.append(MCayleyDigraph(group, spec).digraph)
            digraphs.append(cayley_digraph(group, rng.sample(range(n), rng.randint(1, 3))))
    assert partite == {True, False}
    assert any(g.out_bits[v] >> v & 1 for g in digraphs[20:40] for v in range(g.n))
    assert any(g.out_bits[v] >> v & 1 for g in digraphs[41::2] for v in range(g.n))
    c5 = MCayleyDigraph(FiniteGroup.cyclic(5), cyclic_2pdr(5)).digraph
    assert sum(map(len, c5.digon_adj)) == 2 * 10
    digraphs.append(c5)
    for g in digraphs:
        back = Digraph.from_text(g.to_text())
        assert back.n == g.n and back.arcs() == g.arcs()
        # the digon lists by their definition: ascending, loops excluded
        arcs = set(g.arcs())
        assert g.digon_adj == tuple(
            tuple(v for v in range(g.n) if v != u and (u, v) in arcs and (v, u) in arcs)
            for u in range(g.n))


def test_text_parse_errors():
    with pytest.raises(FormatError):
        Digraph.from_text("")
    with pytest.raises(FormatError):
        Digraph.from_text("3\n0 1\n")
    with pytest.raises(FormatError):
        Digraph.from_text("n 3\n0 1 2\n")
    with pytest.raises(FormatError):
        Digraph.from_text("n 3\n0 9\n")
    with pytest.raises(FormatError, match="bad vertex count line"):
        Digraph.from_text("n 3 junk\n0 1\n")
    with pytest.raises(FormatError, match="duplicate arc"):
        Digraph.from_text("n 3\n1 1\n1 1\n")
    # an integer is ASCII -?[0-9]+: no sign, underscore or other digits
    for text in ("n 1_0\n0 1\n", "n +3\n0 1\n", "n \uff13\n0 1\n"):
        with pytest.raises(FormatError, match="bad vertex count line"):
            Digraph.from_text(text)
    for text in ("n 3\n0 +1\n", "n 3\n0 1_0\n", "n 3\n\u0660 1\n"):
        with pytest.raises(FormatError, match="bad arc line"):
            Digraph.from_text(text)


def test_dot_export_renders_digons_plain():
    g = Digraph(3, [(0, 1), (1, 0), (1, 2)])
    dot = g.to_dot()
    assert "0 -> 1 [dir=none];" in dot
    assert "1 -> 2;" in dot
    assert "1 -> 0;" not in dot
    labeled = g.to_dot(["a", "b", "c"])
    assert 'label="b"' in labeled


def test_is_automorphism():
    g = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.is_automorphism([1, 2, 0])
    assert not g.is_automorphism([1, 0, 2])
    colored = Digraph(3, [(0, 1), (1, 2), (2, 0)], vertex_color=[0, 1, 1])
    assert not colored.is_automorphism([1, 2, 0])
    assert Digraph(3, colored.arcs()).is_automorphism([1, 2, 0])


@pytest.mark.parametrize("call, refusal", [
    (lambda: Digraph(3, [(0, 1)], vertex_color=[0, 1]),
     ValueError("vertex_color length must equal n")),
    # the swap keeps the digon's arcs but not its colors
    (lambda: Digraph(2, [(0, 1), (1, 0)], vertex_color=[0, 1]).is_automorphism([1, 0]),
     False),
], ids=["short-vertex-color", "color-swap"])
def test_digraph_refusals(call, refusal):
    assert_refused(call, refusal)
