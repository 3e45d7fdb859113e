"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear; all expected values are exact.
"""

import random
import time

import pytest

from mpdr import (ConnectionSpec, Digraph, FiniteGroup, automorphism_group,
                  automorphism_search, brute_force_automorphisms, build_m_cayley,
                  cyclic_2pdr, cyclic_mpdr, drr_to_2pdr, exhaust_2partite_valency3,
                  exhaust_z2_m3_valency3, find_valency2_orr, is_pdr, is_semiregular,
                  PreconditionError, stabilizer_criterion_check, translate_relation,
                  trivial_aut_3regular_search, two_generated_mpdr)


class _Criterion:
    def __init__(self, num, desc):
        self.num = num
        self.desc = desc
        self.start = time.perf_counter()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.num:2d} {status} ({elapsed:6.2f}s): {self.desc}")
        return False


@pytest.fixture(scope="module")
def corpus(s3, d4, q8, z2z4, a5):
    """Every m-Cayley digraph the acceptance criteria construct, with its
    color-blind automorphism group cached for the structural criteria."""
    entries = []

    def add(name, group, spec):
        x = build_m_cayley(group, spec)
        aut = automorphism_search(x.digraph, ignore_colors=True).group
        entries.append({"name": name, "group": group, "spec": spec, "x": x,
                        "aut": aut})

    for n in range(5, 13):
        add(f"cyclic-2pdr-{n}", FiniteGroup.cyclic(n), cyclic_2pdr(n))
    add("cyclic-mpdr-2-4", FiniteGroup.cyclic(2), cyclic_mpdr(2, 4))
    for m in (5, 6, 7, 8):
        add(f"cyclic-mpdr-2-{m}", FiniteGroup.cyclic(2), cyclic_mpdr(2, m))
    for n in range(3, 9):
        for m in range(3, 7):
            add(f"cyclic-mpdr-{n}-{m}", FiniteGroup.cyclic(n), cyclic_mpdr(n, m))
    for gname, group in (("s3", s3), ("d4", d4), ("q8", q8), ("z2z4", z2z4)):
        x_gen, y_gen = group.designated_generators[:2]
        for m in (3, 4, 5):
            add(f"two-gen-{gname}-{m}", group, two_generated_mpdr(group, x_gen, y_gen, m))
    for spec, _ in exhaust_z2_m3_valency3():
        add("z2-m3", FiniteGroup.cyclic(2), spec)
    z3 = FiniteGroup.cyclic(3)
    add("z3-full", z3, ConnectionSpec.from_sets(2, 3, {(0, 1): (0, 1, 2),
                                                       (1, 0): (0, 1, 2)}))
    for spec, _ in exhaust_2partite_valency3(FiniteGroup.cyclic(4)):
        add("z4-neg", FiniteGroup.cyclic(4), spec)

    a5_pair = find_valency2_orr(a5)
    a5_spec = drr_to_2pdr(a5, a5_pair)
    add("a5-2pdr", a5, a5_spec)
    return entries


def test_criterion_01_cyclic_two_part_family():
    with _Criterion(1, "cyclic 2-part family n=5..12 verifies with aut order n"):
        for n in range(5, 13):
            rep = is_pdr(FiniteGroup.cyclic(n), cyclic_2pdr(n))
            assert rep.is_pdr, f"n={n} not a PDR"
            assert rep.aut_order == n, f"n={n}: aut {rep.aut_order}"
            assert rep.valency == 3


def test_criterion_02_small_cyclic_exhaustive_negative():
    with _Criterion(2, "orders 3 and 4 exhaustively fail; order 4 has the "
                       "shift property on every pair"):
        z3_records = exhaust_2partite_valency3(FiniteGroup.cyclic(3))
        assert len(z3_records) == 1
        assert all(order > 3 for _, order in z3_records)
        z4 = FiniteGroup.cyclic(4)
        z4_records = exhaust_2partite_valency3(z4)
        assert len(z4_records) == 16
        for spec, order in z4_records:
            assert order > 4
            assert translate_relation(z4, spec.set_for(0, 1),
                                      spec.set_for(1, 0)) is not None


def test_criterion_03_three_step_neighborhood_counts():
    with _Criterion(3, "3-step out-neighborhoods have sizes 8 and 9 for n=9,10,11"):
        for n in (9, 10, 11):
            x = build_m_cayley(FiniteGroup.cyclic(n), cyclic_2pdr(n))
            assert len(x.digraph.k_step_out_neighborhood(x.vertex(0, 0), 3)) == 8
            assert len(x.digraph.k_step_out_neighborhood(x.vertex(0, 1), 3)) == 9


def test_criterion_04_unique_spanning_digon_free_cycle():
    with _Criterion(4, "order-5 digraph has exactly one digon-free Hamiltonian "
                       "cycle, length 10, the documented sequence"):
        x = build_m_cayley(FiniteGroup.cyclic(5), cyclic_2pdr(5))
        cycles = x.digraph.directed_hamiltonian_oriented_cycles()
        assert len(cycles) == 1
        assert len(cycles[0]) == 10
        # 1_0, x_1, x^2_0, x^3_1, x^4_0, 1_1, x_0, x^2_1, x^3_0, x^4_1
        assert cycles[0] == (0, 6, 2, 8, 4, 5, 1, 7, 3, 9)


def test_criterion_05_order2_three_parts_forced():
    with _Criterion(5, "all singleton assignments on 3 parts over order 2 "
                       "give aut order 6"):
        records = exhaust_z2_m3_valency3()
        assert len(records) == 16  # 8 per orientation of the heavy triangle
        assert all(order == 6 for _, order in records)


def test_criterion_06_cyclic_multi_part_family():
    with _Criterion(6, "cyclic m>=3 family: (2,4) and (2,5..8) give 2; "
                       "n=3..8 x m=3..6 give n"):
        rep = is_pdr(FiniteGroup.cyclic(2), cyclic_mpdr(2, 4))
        assert rep.is_pdr and rep.aut_order == 2
        for m in (5, 6, 7, 8):
            rep = is_pdr(FiniteGroup.cyclic(2), cyclic_mpdr(2, m))
            assert rep.is_pdr and rep.aut_order == 2, (2, m, rep.aut_order)
        for n in range(3, 9):
            for m in range(3, 7):
                rep = is_pdr(FiniteGroup.cyclic(n), cyclic_mpdr(n, m))
                assert rep.is_pdr and rep.aut_order == n, (n, m, rep.aut_order)


def test_criterion_07_two_generated_groups(s3, d4, q8, z2z4):
    with _Criterion(7, "two-generated family: S3, D4, Q8, Z2xZ4 at m=3,4,5 "
                       "verify with aut order |G|"):
        for group in (s3, d4, q8, z2z4):
            x_gen, y_gen = group.designated_generators[:2]
            for m in (3, 4, 5):
                spec = two_generated_mpdr(group, x_gen, y_gen, m)
                rep = is_pdr(group, spec)
                assert rep.is_pdr, (group.order, m)
                assert rep.aut_order == group.order, (group.order, m, rep.aut_order)


def test_criterion_08_simple_group_pipeline(a5):
    with _Criterion(8, "A5 pipeline: valency-2 ORR found, extended to a "
                       "2-part valency-3 spec with aut order 60 on 120 vertices"):
        pair = find_valency2_orr(a5)
        assert pair is not None
        spec = drr_to_2pdr(a5, pair)
        assert spec.m == 2 and spec.is_partite()
        rep = is_pdr(a5, spec)
        assert rep.vertex_count == 120
        assert rep.valency == 3
        assert rep.is_pdr and rep.aut_order == 60


def test_criterion_09_oracle_equivalence(corpus):
    with _Criterion(9, "search order equals brute-force order on 500+ random "
                       "digraphs (n<=7) and every corpus digraph with n<=9"):
        rng = random.Random(1729)
        checked = 0
        for _ in range(520):
            n = rng.randint(1, 7)
            density = rng.choice([0.1, 0.25, 0.4, 0.55, 0.7, 0.85])
            arcs = [(u, v) for u in range(n) for v in range(n)
                    if u != v and rng.random() < density]
            colors = ([rng.randint(0, 2) for _ in range(n)]
                      if rng.random() < 0.25 else None)
            g = Digraph(n, arcs, vertex_color=colors)
            assert automorphism_group(g).order == brute_force_automorphisms(g).order
            checked += 1
        assert checked >= 500
        small = [e for e in corpus if e["x"].digraph.n <= 9]
        assert small, "corpus should contain small digraphs"
        for entry in small:
            g = entry["x"].digraph
            blind = Digraph(g.n, g.arcs())
            assert (automorphism_group(blind).order
                    == brute_force_automorphisms(blind).order), entry["name"]


def test_criterion_10_structural_properties(corpus):
    with _Criterion(10, "translations are automorphisms, semiregular with the "
                        "parts as orbits, aut order divisible by |G|, parts "
                        "arcless"):
        for entry in corpus:
            x, aut = entry["x"], entry["aut"]
            group = entry["group"]
            for g in range(group.order):
                r = x.right_translation(g)
                assert x.digraph.is_automorphism(r.images, respect_colors=False)
                assert aut.contains(r), (entry["name"], g)
            translations = x.right_regular_group()
            assert translations.order == group.order
            assert translations.degree == x.digraph.n
            assert is_semiregular(translations)
            assert translations.orbits() == [list(p) for p in x.parts()]
            assert aut.order % group.order == 0, entry["name"]
            for part in x.parts():
                sub, _ = x.digraph.induced_subdigraph(part)
                assert sub.arc_count == 0


def test_criterion_11_criterion_instances_consistent(corpus):
    with _Criterion(11, "regularity criterion: hypotheses true implies "
                        "conclusion true on every corpus instance"):
        for entry in corpus:
            report = stabilizer_criterion_check(entry["x"], aut=entry["aut"])
            assert report.consistent, entry["name"]
            # positive sanity: the flagship constructions satisfy everything
        s3_entries = [e for e in corpus if e["name"] == "two-gen-s3-3"]
        report = stabilizer_criterion_check(s3_entries[0]["x"],
                                            aut=s3_entries[0]["aut"])
        assert report.hypotheses_hold and report.conclusion_holds


def test_criterion_12_rigid_search_verdicts():
    with _Criterion(12, "rigid 3-regular verdicts: m=4 none (complete digraph, "
                        "aut 24); m=5,6 stable across reruns; jobs > 1 refused"):
        v4 = trivial_aut_3regular_search(4)
        assert v4.verdict == "none-exists"
        assert v4.nodes_explored == 1
        k4 = Digraph(4, [(u, v) for u in range(4) for v in range(4) if u != v])
        assert automorphism_group(k4).order == 24

        for m in (5, 6):
            first = trivial_aut_3regular_search(m, jobs=1)
            second = trivial_aut_3regular_search(m, jobs=1)
            key = lambda v: (v.verdict, v.witness, v.nodes_explored)
            assert key(first) == key(second), m
            with pytest.raises(PreconditionError):
                trivial_aut_3regular_search(m, jobs=2)
        assert trivial_aut_3regular_search(5).verdict == "none-exists"
        v6 = trivial_aut_3regular_search(6)
        assert v6.verdict == "witness-found"
        g6 = Digraph(6, [tuple(a) for a in v6.witness["arcs"]])
        assert g6.is_k_regular(3)
        assert automorphism_group(g6).order == 1
