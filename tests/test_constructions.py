import pytest

from mpdr import (CapExceededError, FiniteGroup, MCayleyDigraph, PreconditionError,
                  automorphisms, cayley_digraph, cyclic_2pdr,
                  cyclic_mpdr, drr_to_2pdr, find_valency2_orr, is_pdr,
                  two_generated_mpdr)

from conftest import (hamiltonian_oriented_cycles, induced_subdigraph, is_connected,
                      k_step_out_neighborhood, vertex)


def test_cyclic_2pdr_sets():
    spec = cyclic_2pdr(5)
    assert spec.set_for(0, 1) == (0, 1, 2)
    assert spec.set_for(1, 0) == (0, 1, 3)
    assert spec.m == 2 and spec.group_order == 5


def test_cyclic_2pdr_verifies():
    for n in (5, 7):
        rep = is_pdr(FiniteGroup.cyclic(n), cyclic_2pdr(n))
        assert rep.is_pdr and rep.aut_order == n


def test_cyclic_2pdr_small_orders_refused():
    for n in (1, 2, 3, 4):
        with pytest.raises(PreconditionError):
            cyclic_2pdr(n)


def test_cyclic_mpdr_order2_four_parts_sets():
    spec = cyclic_mpdr(2, 4)
    assert spec.set_for(0, 1) == (0,)
    assert spec.set_for(0, 2) == (0,)
    assert spec.set_for(0, 3) == (1,)
    assert spec.set_for(1, 0) == (0,)
    assert spec.set_for(1, 2) == (0,)
    assert spec.set_for(1, 3) == (0,)
    assert spec.set_for(2, 3) == (1,)
    assert spec.set_for(3, 2) == (1,)
    assert MCayleyDigraph(FiniteGroup.cyclic(2), spec).digraph.regular_valency() == 3


def test_cyclic_mpdr_order2_five_parts_sets():
    spec = cyclic_mpdr(2, 5)
    for i in range(5):
        assert spec.set_for(i, (i + 1) % 5) == (0,)
        assert spec.set_for(i, (i - 1) % 5) == (0,)
    assert spec.set_for(0, 2) == (1,)
    for i in range(1, 5):
        assert spec.set_for(i, (i + 2) % 5) == (0,)
    assert MCayleyDigraph(FiniteGroup.cyclic(2), spec).digraph.regular_valency() == 3


def test_cyclic_mpdr_case4_sets():
    spec = cyclic_mpdr(3, 3)
    assert spec.set_for(0, 1) == (0, 1)
    assert spec.set_for(1, 2) == (0, 1)
    assert spec.set_for(2, 0) == (0, 1)
    assert spec.set_for(1, 0) == (1,)
    assert spec.set_for(0, 2) == (0,)
    assert spec.set_for(2, 1) == (0,)
    assert MCayleyDigraph(FiniteGroup.cyclic(3), spec).digraph.regular_valency() == 3


def test_cyclic_mpdr_verifies():
    assert is_pdr(FiniteGroup.cyclic(2), cyclic_mpdr(2, 4)).aut_order == 2
    assert is_pdr(FiniteGroup.cyclic(2), cyclic_mpdr(2, 5)).is_pdr
    rep = is_pdr(FiniteGroup.cyclic(3), cyclic_mpdr(3, 3))
    assert rep.is_pdr and rep.aut_order == 3


def test_cyclic_mpdr_exceptions():
    with pytest.raises(PreconditionError):
        cyclic_mpdr(2, 3)
    with pytest.raises(PreconditionError):
        cyclic_mpdr(1, 4)
    with pytest.raises(PreconditionError):
        cyclic_mpdr(5, 2)


def test_every_emitted_spec_is_partite_3regular_connected():
    specs = [cyclic_2pdr(6), cyclic_mpdr(2, 4), cyclic_mpdr(2, 6), cyclic_mpdr(4, 5)]
    groups = [FiniteGroup.cyclic(6), FiniteGroup.cyclic(2), FiniteGroup.cyclic(2),
              FiniteGroup.cyclic(4)]
    for group, spec in zip(groups, specs):
        assert spec.is_partite()
        x = MCayleyDigraph(group, spec)
        assert x.digraph.regular_valency() == 3
        assert is_connected(x.digraph)


def test_two_part_neighborhood_towers_distinguish_parts():
    """For orders 7 and 8 the two identity vertices are told apart by their
    2-step towers: one tower has a vertex sending two arcs back into the
    1-step layer, the other has none."""
    for n in (7, 8):
        x = MCayleyDigraph(FiniteGroup.cyclic(n), cyclic_2pdr(n))

        def two_arc_senders(root):
            one_step = k_step_out_neighborhood(x.digraph, root, 1)
            two_step = k_step_out_neighborhood(x.digraph, root, 2)
            tower = {root} | one_step | two_step
            sub, mapping = induced_subdigraph(x.digraph, tower)
            layer = {mapping.index(v) for v in one_step}
            return [v for v in range(sub.n)
                    if mapping[v] in two_step
                    and sum(1 for w in sub.out_adj[v] if w in layer) == 2]

        assert len(two_arc_senders(vertex(x, 0, 0))) >= 1
        assert two_arc_senders(vertex(x, 0, 1)) == []


def test_two_generated_digon_degrees(s3):
    """Middle parts meet two undirected edges per vertex, the two special
    parts exactly one."""
    x = MCayleyDigraph(s3, two_generated_mpdr(s3, 1, 2, 4))
    for i in range(4):
        for v in x.part(i):
            expected = 1 if i in (0, 1) else 2
            assert len(x.digraph.digon_adj[v]) == expected


def test_order2_four_parts_outer_induced_cycle():
    """The subdigraph induced on parts 0 and 3 is a single digon-free
    directed 4-cycle, so the spanning cycle found there is the only
    directed cycle at all."""
    x = MCayleyDigraph(FiniteGroup.cyclic(2), cyclic_mpdr(2, 4))
    outer = list(x.part(0)) + list(x.part(3))
    sub, mapping = induced_subdigraph(x.digraph, outer)
    assert sub.arc_count == 4
    assert not any(sub.digon_adj)
    assert sub.regular_valency() == 1
    cycles = hamiltonian_oriented_cycles(sub)
    assert len(cycles) == 1
    # 1_0 -> x_3 -> x_0 -> 1_3 -> 1_0 in original labels
    original = tuple(mapping[v] for v in cycles[0])
    assert original == (vertex(x, 0, 0), vertex(x, 1, 3), vertex(x, 1, 0), vertex(x, 0, 3))


def test_two_generated_sets(s3):
    spec = two_generated_mpdr(s3, 1, 2, 4)
    assert spec.set_for(0, 1) == (1, 2)
    for i in range(1, 4):
        assert spec.set_for(i, (i + 1) % 4) == (0, 1)
    for j in range(4):
        assert spec.set_for(j, (j - 1) % 4) == (0,)
    assert MCayleyDigraph(s3, spec).digraph.regular_valency() == 3


def test_two_generated_s3_verifies(s3):
    rep = is_pdr(s3, two_generated_mpdr(s3, 1, 2, 3))
    assert rep.is_pdr and rep.aut_order == 6


def test_two_generated_z6():
    z6 = FiniteGroup.cyclic(6)
    rep = is_pdr(z6, two_generated_mpdr(z6, 1, 2, 4))
    assert rep.is_pdr and rep.aut_order == 6


def test_two_generated_not_generating(s3):
    with pytest.raises(PreconditionError):
        two_generated_mpdr(s3, 2, 2, 3)  # x == y
    with pytest.raises(PreconditionError):
        two_generated_mpdr(s3, 1, 3, 3)  # both powers of the 3-cycle


def test_two_generated_identity_warns():
    z6 = FiniteGroup.cyclic(6)
    with pytest.warns(UserWarning):
        two_generated_mpdr(z6, 0, 1, 3)


def test_two_generated_m2_refused(s3):
    with pytest.raises(PreconditionError):
        two_generated_mpdr(s3, 1, 2, 2)


def test_find_valency2_orr_small_cyclic():
    assert find_valency2_orr(FiniteGroup.cyclic(2)) is None
    assert find_valency2_orr(FiniteGroup.cyclic(4)) is None
    assert find_valency2_orr(FiniteGroup.cyclic(5)) == (1, 2)


def test_find_valency2_orr_result_is_orr():
    z7 = FiniteGroup.cyclic(7)
    pair = find_valency2_orr(z7)
    assert pair is not None
    a, b = pair
    digraph = cayley_digraph(z7, pair)
    assert not any(digraph.digon_adj)
    assert z7.generates({a, b})
    assert automorphisms(digraph).group.order == 7


def test_drr_to_2pdr_z7():
    z7 = FiniteGroup.cyclic(7)
    assert automorphisms(cayley_digraph(z7, (1, 3))).group.order == 7  # DRR check
    spec = drr_to_2pdr(z7, (1, 3))
    assert spec.set_for(0, 1) == (0, 1, 3)
    ell = set(spec.set_for(1, 0)) - {0}
    assert len(ell) == 2
    assert not ell & {0, z7.inverse(1), z7.inverse(3)}
    rep = is_pdr(z7, spec)
    assert rep.is_pdr and rep.valency == 3


def test_drr_to_2pdr_preconditions():
    z7 = FiniteGroup.cyclic(7)
    with pytest.raises(PreconditionError, match="^the connection set must be nonempty$"):
        drr_to_2pdr(z7, ())
    with pytest.raises(PreconditionError, match="identity"):
        drr_to_2pdr(z7, (0, 1))
    with pytest.raises(PreconditionError, match=r"\|R\| < \|G\|/2"):
        drr_to_2pdr(z7, (1, 2, 3, 4))
    with pytest.raises(PreconditionError, match="not a digraphical"):
        drr_to_2pdr(FiniteGroup.cyclic(6), (1, 5))  # inverse-closed: a graph, extra auts


def test_drr_to_2pdr_refuses_oversized_group_before_search(monkeypatch):
    """Every candidate is a 2-part digraph on 2|G| vertices: Z1500's 3000 are
    refused before the 1500-vertex base digraph is built or searched."""
    def unbuilt(*args, **kwargs):
        raise AssertionError("the base digraph was built or searched")

    monkeypatch.setattr("mpdr.constructions.cayley_digraph", unbuilt)
    monkeypatch.setattr("mpdr.constructions.automorphisms", unbuilt)
    with pytest.raises(CapExceededError, match="capped at 2048 vertices, got 3000$"):
        drr_to_2pdr(FiniteGroup.cyclic(1500), (1, 2))
