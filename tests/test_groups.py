import hashlib
import json
import random
import time
import tracemalloc

import pytest

from mpdr import CapExceededError, FiniteGroup, Permutation
from mpdr.groups import CLOSURE_CAP

from conftest import (A5_GENS, D4_GENS, Q8_GENS, S3_GENS, Z2Z4_GENS, assert_refused,
                      element_order, is_abelian)


def check_axioms(group, exhaustive_limit=60, samples=2000, seed=0):
    """Identity, inverses, associativity; exhaustive for small orders."""
    n = group.order
    for a in range(n):
        assert group.mul(0, a) == a
        assert group.mul(a, 0) == a
        assert group.mul(a, group.inverse(a)) == 0
        assert group.mul(group.inverse(a), a) == 0
    if n <= exhaustive_limit:
        triples = ((a, b, c) for a in range(n) for b in range(n) for c in range(n))
    else:
        rng = random.Random(seed)
        triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n))
                   for _ in range(samples))
    for a, b, c in triples:
        assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))


def test_cyclic_trivial():
    g = FiniteGroup.cyclic(1)
    assert g.order == 1
    assert g.designated_generators == ()
    assert g.generates(set())


def test_cyclic_generator_order():
    assert element_order(FiniteGroup.cyclic(5), 1) == 5


def test_cyclic_inverse():
    assert FiniteGroup.cyclic(6).inverse(2) == 4


def test_cyclic_multiply():
    assert FiniteGroup.cyclic(5).mul(2, 4) == 1


def test_invalid_order():
    with pytest.raises(ValueError):
        FiniteGroup.cyclic(0)


@pytest.mark.parametrize("table, message", [
    ([], "at least 1"),
    ([[0, 1, 2], [1, 2, 0], [2, 0]], "not square"),            # short row
    ([[0, 1, 2], [1, 2, 0], [2, 0, 1, 2]], "not square"),      # long row
    ([[0, 1], [1, 2]], "not square"),                          # entry n
    ([[0, 1], [1, -1]], "not square"),                         # negative entry
    ([[0, 1], [0, 1]], "two-sided identity"),                  # left identity only
    ([[0, 0], [1, 0]], "two-sided identity"),                  # right identity only
    ([[0, 1, 2], [1, 1, 1], [2, 1, 0]], "no two-sided inverse"),  # no inverse
    ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "no two-sided inverse"),  # one-sided only
    ([[0, 1], [1, 65536]], "not square"),                      # past a 2-byte cell
    ([[0, 1], [1, 2 ** 64]], "not square"),
    ([[0, 1], [1, 1.5]], "not square"),                        # non-integer entries
    ([[0, 1], [1, "1"]], "not square"),
    ([[0, 1.0], [1, 0]], "not square"),                        # a float, even a whole one
])
def test_bad_table_rejected(table, message):
    with pytest.raises(ValueError, match=message):
        FiniteGroup(table)


def test_cyclic_table_is_two_bytes_a_product():
    tracemalloc.start()
    try:
        FiniteGroup.cyclic(1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000  # 2.0 MB of 2-byte cells, where 8-byte slots take 8 MB


@pytest.mark.parametrize("call, refusal", [
    (lambda: FiniteGroup.from_permutations(0, []),
     ValueError("degree must be at least 1, got 0")),
    (lambda: FiniteGroup.from_permutations(3, [Permutation([1, 0])]),
     ValueError("generator degree 2 != 3")),
], ids=["degree-0", "generator-degree"])
def test_from_permutations_refusals(call, refusal):
    assert_refused(call, refusal)


def test_cyclic_table_and_inverses():
    for n in range(1, 41):
        g = FiniteGroup.cyclic(n)
        assert [g.row(a) for a in range(n)] == [tuple((a + b) % n for b in range(n))
                                                for a in range(n)]
        assert [g.inverse(a) for a in range(n)] == [-a % n for a in range(n)]
    g = FiniteGroup.cyclic(1000)
    for a in (0, 1, 999):
        assert g.row(a) == tuple((a + b) % 1000 for b in range(1000))


def test_cyclic_order_cap():
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="5000 elements"):
        FiniteGroup.cyclic(CLOSURE_CAP + 1)
    assert time.perf_counter() - start < 1.0


def test_row_is_mul(s3, d4, q8, z2z4, a5):
    given = FiniteGroup([[a ^ b for b in range(4)] for a in range(4)])  # Z2 x Z2
    s3_given = FiniteGroup([list(s3.row(a)) for a in range(6)])
    for g in (FiniteGroup.cyclic(1), FiniteGroup.cyclic(7), FiniteGroup.cyclic(12),
              s3, d4, q8, z2z4, a5, given, s3_given):
        for a in range(g.order):
            row = g.row(a)
            assert type(row) is tuple
            assert row == tuple(g.mul(a, b) for b in range(g.order))
        for a in (g.order, -1):
            with pytest.raises(ValueError, match="out of range"):
                g.row(a)


def test_mul_inverse_roundtrip():
    for n in (1, 2, 3, 7, 12):
        g = FiniteGroup.cyclic(n)
        for a in range(n):
            assert g.mul(a, g.inverse(a)) == 0


def test_axioms_cyclic():
    for n in (1, 2, 6, 12):
        check_axioms(FiniteGroup.cyclic(n))


def test_axioms_permutation_groups(s3, d4, q8, z2z4, a5):
    for g in (s3, d4, q8, z2z4, a5):
        check_axioms(g)


def test_s3_order_and_structure(s3):
    assert s3.order == 6
    assert not is_abelian(s3)
    # product of the designated generators: (0 1 2) then (0 1) is a transposition
    assert element_order(s3, s3.mul(1, 2)) == 2


def test_permutation_group_is_isomorphic_to_table(s3):
    perms = s3._permutations
    for a in range(s3.order):
        for b in range(s3.order):
            assert perms[s3.mul(a, b)] == perms[a] * perms[b]


def test_a5_order(a5):
    assert a5.order == 60


def test_identity_only_generator():
    g = FiniteGroup.from_permutations(2, [[0, 1]])
    assert g.order == 1


def test_closure_cap():
    # S8 (order 40320) generated by an 8-cycle and a transposition
    with pytest.raises(CapExceededError, match="5000 elements"):
        FiniteGroup.from_permutations(8, [[1, 2, 3, 4, 5, 6, 7, 0],
                                          [1, 0, 2, 3, 4, 5, 6, 7]])


def test_non_bijective_generator_rejected():
    with pytest.raises(ValueError):
        FiniteGroup.from_permutations(3, [[0, 0, 1]])


def test_out_of_range_index():
    g = FiniteGroup.cyclic(4)
    with pytest.raises(ValueError):
        g.mul(0, 4)
    with pytest.raises(ValueError):
        g.inverse(-1)


def test_element_orders():
    assert element_order(FiniteGroup.cyclic(6), 0) == 1
    assert element_order(FiniteGroup.cyclic(6), 2) == 3
    assert element_order(FiniteGroup.cyclic(4), 1) == 4


def test_lagrange(s3, d4, q8, z2z4, a5):
    for g in (FiniteGroup.cyclic(12), s3, d4, q8, z2z4, a5):
        for a in range(g.order):
            assert g.order % element_order(g, a) == 0


def test_generates():
    z5 = FiniteGroup.cyclic(5)
    assert z5.generates({1})
    z4 = FiniteGroup.cyclic(4)
    assert not z4.generates({2})


def test_generates_designated(s3, d4, q8, z2z4, a5):
    for g in (FiniteGroup.cyclic(9), s3, d4, q8, z2z4, a5):
        assert g.generates(set(g.designated_generators))


def test_is_abelian(s3):
    assert is_abelian(FiniteGroup.cyclic(7))
    assert is_abelian(FiniteGroup.cyclic(1))
    assert not is_abelian(s3)


def test_named_group_orders(d4, q8, z2z4):
    assert d4.order == 8 and not is_abelian(d4)
    assert q8.order == 8 and not is_abelian(q8)
    assert z2z4.order == 8 and is_abelian(z2z4)
    # the quaternion signature: a unique involution
    assert sum(1 for a in range(q8.order) if element_order(q8, a) == 2) == 1


def test_bfs_indexing_deterministic():
    gens = [[1, 2, 0], [1, 0, 2]]
    g1 = FiniteGroup.from_permutations(3, gens)
    g2 = FiniteGroup.from_permutations(3, gens)
    assert [g1.row(a) for a in range(6)] == [g2.row(a) for a in range(6)]
    assert [g1.label(a) for a in range(6)] == [g2.label(a) for a in range(6)]


def test_convention_pinned_on_nonabelian(s3):
    """table(a, b) is 'a then b': left operand acts first."""
    p = {i: s3._permutations[i] for i in range(6)}
    a, b = 1, 2
    then = [p[b].images[p[a].images[x]] for x in range(3)]  # a first, then b
    assert p[s3.mul(a, b)] == Permutation(then)
    assert s3.mul(a, b) != s3.mul(b, a)


def test_labels():
    z3 = FiniteGroup.cyclic(3)
    assert z3.label(0) == "1"
    assert z3.label(1) == "x"
    assert z3.label(2) == "x^2"


S5_GENS = [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]]
# The closure's tables, inverses, designated generators and labels; the
# last case repeats a generator and lists the identity.
TABLES_SHA256 = "822b501bda25022d38b5a05622d1628e88a7aeae4120aecf7eac514d23f34531"


def test_permutation_group_tables_pinned():
    cases = [(3, S3_GENS), (4, D4_GENS), (8, Q8_GENS), (6, Z2Z4_GENS), (5, A5_GENS),
             (5, S5_GENS), (3, [S3_GENS[0], [0, 1, 2], S3_GENS[0], S3_GENS[1]])]
    records = []
    for degree, gens in cases:
        g = FiniteGroup.from_permutations(degree, gens)
        elements = range(g.order)
        records.append([[g.row(a) for a in elements], [g.inverse(a) for a in elements],
                        g.designated_generators, [g.label(a) for a in elements]])
    text = json.dumps(records, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == TABLES_SHA256
