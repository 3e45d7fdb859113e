import json
import random
from pathlib import Path

import pytest

from mpdr import (Digraph, FiniteGroup, FormatError, PermGroup, Permutation,
                  automorphisms, build_m_cayley, cyclic_2pdr)
from test_chain_pin import generator_corpus, search_corpus


def test_cycle_parse_format_roundtrip():
    cases = ["()", "(0 1 2)", "(0 1 2)(3 4)", "(1 4)(2 3 5)"]
    for text in cases:
        p = Permutation.from_cycles(text, 6)
        assert Permutation.from_cycles(p.cycle_string(), 6) == p
    assert Permutation.from_cycles("(0, 1, 2)", 3) == Permutation([1, 2, 0])


def test_cycle_parse_errors():
    with pytest.raises(FormatError):
        Permutation.from_cycles("(0 5)", 3)
    with pytest.raises(FormatError):
        Permutation.from_cycles("(0 0)", 3)
    with pytest.raises(FormatError):
        Permutation.from_cycles("nonsense", 3)


@pytest.mark.parametrize("text", ["(0 1)(0 2)", "(0 1)(2 1)", "(0)(0)", "(0 1 2)(3 4)(4 0)"])
def test_cycle_parse_refuses_point_repeated_across_cycles(text):
    with pytest.raises(FormatError, match="repeated point"):
        Permutation.from_cycles(text, 5)


def test_composition_convention():
    a = Permutation([1, 0, 2])   # (0 1)
    b = Permutation([0, 2, 1])   # (1 2)
    # a then b: 0 -> 1 -> 2
    assert (a * b)(0) == 2
    assert (b * a)(0) == 1


def test_inverse_and_order():
    p = Permutation.from_cycles("(0 1 2 3 4)", 5)
    assert (p * p.inverse()).is_identity()
    assert p.order() == 5
    assert Permutation.from_cycles("(0 1)(2 3 4)", 5).order() == 6


def test_not_a_permutation():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([0, 3, 1])


def test_product_of_different_degrees():
    small = Permutation([1, 0, 2])
    large = Permutation([3, 2, 1, 0])
    for a, b in ((small, large), (large, small)):
        with pytest.raises(ValueError):
            a * b


def test_symmetric_group_orders():
    for n in range(1, 7):
        gens = [Permutation.from_cycles("(0 1)", n) if n > 1 else Permutation.identity(n)]
        if n > 2:
            gens.append(Permutation(list(range(1, n)) + [0]))
        g = PermGroup(n, gens)
        expected = 1
        for k in range(2, n + 1):
            expected *= k
        if n == 1:
            expected = 1
        assert g.order == expected


def test_alternating_group(a5):
    perms = a5._permutations
    g = PermGroup(5, [perms[1], perms[2]])
    assert g.order == 60
    assert g.contains(Permutation.from_cycles("(0 1)(2 3)", 5))
    assert not g.contains(Permutation.from_cycles("(0 1)", 5))


def test_trivial_group():
    g = PermGroup(4, [])
    assert g.order == 1
    assert g.contains(Permutation.identity(4))
    assert g.orbits() == [[0], [1], [2], [3]]


def closure(degree: int, gens: list[Permutation]) -> set[tuple[int, ...]]:
    """Every element of the group, as image tuples, found by closing the
    identity under right multiplication: no stabilizer chain involved."""
    seen = {tuple(range(degree))}
    frontier = list(seen)
    while frontier:
        e = frontier.pop()
        for s in gens:
            nxt = tuple(s.images[i] for i in e)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def test_order_equals_element_count_small():
    """Chain order vs honest enumeration, on a batch of random 2-generator
    subgroups of S_6."""
    rng = random.Random(11)
    for _ in range(25):
        gens = []
        for _ in range(2):
            images = list(range(6))
            rng.shuffle(images)
            gens.append(Permutation(images))
        g = PermGroup(6, gens)
        elements = closure(6, gens)
        assert g.order == len(elements)
        assert len(set(g.elements())) == g.order
        for e in elements:
            assert g.contains(e)


def test_membership_of_random_words():
    rng = random.Random(5)
    gens = [Permutation.from_cycles("(0 1 2 3 4 5 6)", 7),
            Permutation.from_cycles("(0 1)", 7)]
    g = PermGroup(7, gens)
    word = Permutation.identity(7)
    for _ in range(40):
        word = word * rng.choice(gens)
        assert g.contains(word)


def test_point_stabilizer_order():
    gens = [Permutation.from_cycles("(0 1 2 3)", 4), Permutation.from_cycles("(0 1)", 4)]
    s4 = PermGroup(4, gens)
    stab = s4.point_stabilizer(0)
    assert stab.order == 6
    assert stab.fixes_pointwise([0])
    # stabilizer of a regular group at any point is trivial
    z5 = PermGroup(5, [Permutation.from_cycles("(0 1 2 3 4)", 5)])
    assert z5.point_stabilizer(2).order == 1


def test_orbit_stabilizer_relation():
    rng = random.Random(3)
    for _ in range(15):
        gens = []
        for _ in range(2):
            images = list(range(7))
            rng.shuffle(images)
            gens.append(Permutation(images))
        g = PermGroup(7, gens)
        for v in range(7):
            orbit = g.orbit_of(v)
            assert g.order == len(orbit) * g.point_stabilizer(v).order


def test_orbits():
    g = PermGroup(5, [Permutation.from_cycles("(0 1)", 5),
                      Permutation.from_cycles("(2 3 4)", 5)])
    assert g.orbits() == [[0, 1], [2, 3, 4]]


def test_fixes_setwise_pointwise():
    g = PermGroup(4, [Permutation.from_cycles("(0 1)", 4)])
    assert g.fixes_setwise({0, 1})
    assert not g.fixes_pointwise({0, 1})
    assert g.fixes_pointwise({2, 3})
    assert g.fixes_setwise(set())
    assert g.fixes_pointwise(set())


def test_json_report():
    g = PermGroup(3, [Permutation.from_cycles("(0 1 2)", 3)])
    doc = g.to_json_dict()
    assert doc == {"degree": 3, "order": "3", "generators": ["(0 1 2)"]}


def test_big_integer_order():
    n = 16
    gens = [Permutation(list(range(1, n)) + [0]), Permutation.from_cycles("(0 1)", n)]
    g = PermGroup(n, gens)
    assert g.order == 20922789888000  # 16!


def test_chain_order_matches_closure_at_5040():
    gens = [Permutation(list(range(1, 7)) + [0]), Permutation.from_cycles("(0 1)", 7)]
    g = PermGroup(7, gens)
    assert g.order == 5040
    assert len(closure(7, gens)) == 5040
    assert len(set(g.elements())) == 5040


def test_point_stabilizer_of_fixed_point():
    # the rebased chain's first level, at a point nothing moves, has one
    # transversal element and must not distort the order
    g = PermGroup(5, [Permutation.from_cycles("(1 2 3 4)", 5)])
    stab = g.point_stabilizer(0)
    assert stab.order == 4
    assert stab.generators == g.generators


def pinned_chain_outputs() -> dict[str, list[str]]:
    """Element order of S_4 and the stabilizer generators of S_5."""
    s4 = PermGroup(4, [Permutation.from_cycles("(0 1 2 3)", 4),
                       Permutation.from_cycles("(0 1)", 4)])
    s5 = PermGroup(5, [Permutation.from_cycles("(0 1 2 3 4)", 5),
                       Permutation.from_cycles("(0 1)", 5)])
    return {"S4-elements": [g.cycle_string() for g in s4.elements()],
            "S5-stabilizer-0": [g.cycle_string() for g in s5.point_stabilizer(0).generators]}


def test_chain_outputs_pinned():
    golden = json.loads((Path(__file__).parent / "search_golden.json").read_text())
    assert pinned_chain_outputs() == golden["perms"]


def sympy_cases() -> list[tuple[str, PermGroup]]:
    """Seeded generator sets of degree <= 30, kept to groups whose chains
    build in well under a second, and automorphism search results."""
    cases = []
    for seed in range(8):
        # independent random permutations of consecutive blocks of 2..7 points
        rng = random.Random(seed)
        n = rng.randint(10, 30)
        blocks, start = [], 0
        while start < n:
            blocks.append(range(start, min(n, start + rng.randint(2, 7))))
            start = blocks[-1].stop
        gens = []
        for _ in range(2):
            images = list(range(n))
            for block in blocks:
                points = list(block)
                rng.shuffle(points)
                for a, b in zip(block, points):
                    images[a] = b
            gens.append(Permutation(images))
        cases.append((f"blocks-{seed}", PermGroup(n, gens)))
    for seed in range(4):
        # a shift of k blocks of b points, plus a shuffle of the first block
        rng = random.Random(100 + seed)
        b = rng.randint(2, 5)
        n = b * rng.randint(2, 30 // b)
        head = list(range(b))
        rng.shuffle(head)
        gens = [Permutation([(i + b) % n for i in range(n)]),
                Permutation(head + list(range(b, n)))]
        cases.append((f"shift-{seed}", PermGroup(n, gens)))
    for n in range(2, 13):
        cases.append((f"K{n}", automorphisms(
            Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])).group))
    for k in range(1, 5):
        cases.append((f"{k}xC7", automorphisms(
            Digraph(7 * k, [(7 * c + i, 7 * c + (i + 1) % 7)
                            for c in range(k) for i in range(7)])).group))
    for n in (5, 8, 13, 21):
        x = build_m_cayley(FiniteGroup.cyclic(n), cyclic_2pdr(n))
        cases.append((f"cyclic_2pdr({n})", automorphisms(x.digraph).group))
    return cases


def test_chain_order_matches_sympy():
    """The chain's orders against an independent Schreier-Sims."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    for name, group in sympy_cases():
        other = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g.images)) for g in group.generators])
        assert group.order == other.order(), name
        for v in sorted({0, group.degree // 2, group.degree - 1}):
            assert group.point_stabilizer(v).order == other.stabilizer(v).order(), (name, v)


def chain_invariant_groups() -> list[tuple[str, PermGroup]]:
    """The chain pin's search corpus and 50 seeded groups, each generated
    by random permutations of a random subset of the points."""
    cases = [(name, automorphisms(digraph).group) for name, digraph in search_corpus()]
    for seed in range(50):
        rng = random.Random(7000 + seed)
        n = rng.randint(2, 12)
        moved = rng.sample(range(n), rng.randint(2, n))
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(n))
            for a, b in zip(moved, rng.sample(moved, len(moved))):
                images[a] = b
            gens.append(Permutation(images))
        cases.append((f"random-{seed}", PermGroup(n, gens)))
    return cases


def check_chain(name: str, group: PermGroup, rng: random.Random) -> int:
    """Membership of random words and of seeded non-members, then the
    inverse cache: every cached inverse undoes its transversal element.
    Returns the number of cached inverses checked."""
    n = group.degree
    gens = group.generators or [Permutation.identity(n)]
    orbits = group.orbits()
    for _ in range(20):
        word = Permutation.identity(n)
        for _ in range(rng.randint(0, 8)):
            s = rng.choice(gens)
            word = word * (s if rng.random() < 0.5 else s.inverse())
        assert group.contains(word), name
        if len(orbits) > 1:
            # a point sent outside its orbit: not a member
            a, b = rng.sample(orbits, 2)
            swap = list(range(n))
            x, y = rng.choice(a), rng.choice(b)
            swap[x], swap[y] = y, x
            assert not group.contains(word * Permutation(swap)), name
    if group.order <= 2000:
        members = closure(n, gens)
        assert len(members) == group.order, name
        for _ in range(20):
            images = rng.sample(range(n), n)
            assert group.contains(images) == (tuple(images) in members), name
    identity = tuple(range(n))
    checked = 0
    for lvl in group._levels:
        for p, inv in lvl.inverses.items():
            assert tuple(inv[i] for i in lvl.transversal[p].images) == identity, (name, p)
            checked += 1
    return checked


def test_chain_invariants_behind_the_inverse_cache():
    """Sifts read each transversal element's inverse from a per-level cache
    that a rebuilt orbit keeps only while the transversal elements it had
    are unchanged: membership stays exact, and every cached inverse matches
    its transversal element, also after ``_extend`` grows level 0's orbit."""
    rng = random.Random(13)
    checked = grown = 0
    for name, group in chain_invariant_groups():
        checked += check_chain(name, group, rng)
        if not group._levels:
            continue
        level0 = group._levels[0]
        outside = [v for v in range(group.degree) if v not in level0.transversal]
        if not outside:
            continue
        swap = list(range(group.degree))
        x, y = level0.point, rng.choice(outside)
        swap[x], swap[y] = y, x
        before = len(level0.transversal)
        assert group._extend(Permutation(swap)), name
        assert len(group._levels[0].transversal) > before, name
        checked += check_chain(name + " extended", group, rng)
        grown += 1
    assert checked > 0 and grown > 0, (checked, grown)


def test_each_schreier_generator_sifted_once(monkeypatch):
    """A level sifts each (point, strong generator) pair's Schreier generator
    at most once while its transversal stands, so the chains of K16 and
    10 x C7 from their search generators take a pinned number of Schreier
    sifts (``_strip`` from below the first level).  Sifting every pair again
    after each repair took 10,094 and 20,265."""
    cases = {"K16": Digraph(16, [(u, v) for u in range(16) for v in range(16) if u != v]),
             "10xC7": Digraph(70, [(7 * c + i, 7 * c + (i + 1) % 7)
                                   for c in range(10) for i in range(7)])}
    searches = {name: automorphisms(d) for name, d in cases.items()}
    strip = PermGroup._strip
    sifts = 0

    def counted(self, images, start=0):
        nonlocal sifts
        sifts += start > 0
        return strip(self, images, start)

    monkeypatch.setattr(PermGroup, "_strip", counted)
    counts = {}
    for name, search in searches.items():
        sifts = 0
        assert PermGroup(search.degree, search.generators).order == search.order, name
        counts[name] = sifts
    assert counts == {"K16": 2359, "10xC7": 3990}


def test_rebuilt_orbit_keeps_only_records_that_still_hold(monkeypatch):
    """After every orbit rebuild in the chain pin's generator corpus, each
    pair a level records as checked has a Schreier generator that sifts to
    the identity through the deeper levels, and each cached inverse undoes
    its transversal element.  The corpus includes rebuilds that change a
    transversal element the level already had, after which both records
    must be dropped."""
    rebuild = PermGroup._rebuild_orbit
    rebuilds = changed = 0

    def checked_rebuild(self, level):
        nonlocal rebuilds, changed
        lvl = self._levels[level]
        before = {p: t.images for p, t in lvl.transversal.items()}
        rebuild(self, level)
        rebuilds += 1
        changed += any(lvl.transversal[p].images != images for p, images in before.items())
        identity = tuple(range(self.degree))
        for p, inv in lvl.inverses.items():
            assert tuple(inv[i] for i in lvl.transversal[p].images) == identity, p
        for p, done in lvl.checked.items():
            t_p = lvl.transversal[p]
            for bit, s in self._strong_at(level):
                if done & bit:
                    schreier = t_p * s * lvl.transversal[s(p)].inverse()
                    assert self._strip(schreier.images, level + 1)[0] == identity, (p, s)

    monkeypatch.setattr(PermGroup, "_rebuild_orbit", checked_rebuild)
    generator_corpus()
    assert rebuilds > changed > 0, (rebuilds, changed)
