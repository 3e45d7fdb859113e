"""Connection-set recipes for valency-3 partite representations.

Each function emits a ConnectionSpec ready for verification.  Element
indices in the cyclic recipes are exponents of the designated generator,
so the set {0, 1, 2} reads "identity, x, x squared".
"""

from __future__ import annotations

import itertools
import warnings

from .autgroup import VERTEX_CAP, automorphisms, check_vertex_count
from .cayley import ConnectionSpec, cayley_digraph
from .errors import CapExceededError, PreconditionError, SearchExhaustedError
from .groups import FiniteGroup
from .search import scan_valency2
from .verify import is_pdr


def cyclic_2pdr(n: int) -> ConnectionSpec:
    """Two-part valency-3 representation of the cyclic group of order n.

    Sets: T[0,1] = {1, x, x^2}, T[1,0] = {1, x, x^3}.  Exists exactly for
    n >= 5; cyclic groups of order below 5 have no two-part valency-3
    representation (every candidate digraph has extra automorphisms).
    """
    if n < 5:
        raise PreconditionError(
            f"no 2-part valency-3 representation exists for cyclic order {n}: "
            "orders below 5 always admit extra automorphisms")
    return ConnectionSpec.from_sets(2, n, {(0, 1): (0, 1, 2), (1, 0): (0, 1, 3)})


def cyclic_mpdr(n: int, m: int) -> ConnectionSpec:
    """m-part valency-3 representation of the cyclic group of order n, for
    3 <= m <= ``VERTEX_CAP``.

    Dispatches on the order:
      - n = 2, m = 4: a crossed two-generator pattern on four parts;
      - n = 2, m >= 5: nearest-neighbor digons around the part cycle plus a
        two-step chord, twisted between parts 0 and 2;
      - n >= 3: a two-arc forward band {1, x} with a backward matching,
        twisted on the (1, 0) entry.

    The pair (n, m) = (2, 3) is refused: all valency-3 assignments on three
    parts over the order-2 group force a digraph with automorphism group of
    order 6.
    """
    if m < 3:
        raise PreconditionError(f"this family needs at least 3 parts, got m={m}")
    _check_part_count(m)
    if n < 2:
        raise PreconditionError(
            "the trivial group is out of scope for this family (its valency-3 "
            "representation problem is open)")
    if n == 2 and m == 3:
        raise PreconditionError(
            "no 3-part valency-3 representation exists for the cyclic group of "
            "order 2: every assignment yields automorphism group of order 6")
    sets: dict[tuple[int, int], tuple[int, ...]] = {}
    if n == 2 and m == 4:
        sets = {
            (0, 1): (0,), (0, 2): (0,), (0, 3): (1,),
            (1, 0): (0,), (1, 2): (0,), (1, 3): (0,),
            (2, 0): (0,), (2, 1): (0,), (2, 3): (1,),
            (3, 0): (0,), (3, 1): (0,), (3, 2): (1,),
        }
    elif n == 2:
        for i in range(m):
            sets[(i, (i - 1) % m)] = (0,)
            sets[(i, (i + 1) % m)] = (0,)
            sets[(i, (i + 2) % m)] = (1,) if i == 0 else (0,)
    else:
        for i in range(m):
            sets[(i, (i + 1) % m)] = (0, 1)
        for j in range(m):
            if j != 1:
                sets[(j, (j - 1) % m)] = (0,)
        sets[(1, 0)] = (1,)
    return ConnectionSpec.from_sets(m, n, sets)


def two_generated_mpdr(group: FiniteGroup, x: int, y: int, m: int) -> ConnectionSpec:
    """m-part valency-3 representation of a group generated by {x, y}, for
    3 <= m <= ``VERTEX_CAP``.

    Sets: T[0,1] = {x, y}; T[i,i+1] = {1, x} for i != 0; T[j,j-1] = {1} for
    every j.  Identity generators degrade the construction (the forward band
    collapses to valency below 3), so they are flagged with a warning and the
    verdict is left to verification.
    """
    if m < 3:
        raise PreconditionError(f"this family needs at least 3 parts, got m={m}")
    _check_part_count(m)
    group._check(x)
    group._check(y)
    if x == y:
        raise PreconditionError("the two generators must be distinct")
    if not group.generates({x, y}):
        raise PreconditionError(
            f"elements {x} and {y} do not generate the group")
    if 0 in (x, y):
        warnings.warn("identity generator: the construction may fail to be "
                      "3-regular; verify the result", stacklevel=2)
    sets: dict[tuple[int, int], tuple[int, ...]] = {(0, 1): tuple(sorted({x, y}))}
    for i in range(1, m):
        sets[(i, (i + 1) % m)] = tuple(sorted({0, x}))
    for j in range(m):
        sets[(j, (j - 1) % m)] = (0,)
    return ConnectionSpec.from_sets(m, group.order, sets)


def _check_part_count(m: int) -> None:
    """Refuse more parts than the search takes vertices, before anything is
    built: such a spec is over the vertex cap for every group."""
    if m > VERTEX_CAP:
        raise CapExceededError(
            f"part count {m} exceeds the automorphism search's cap of {VERTEX_CAP} vertices")


def find_valency2_orr(group: FiniteGroup) -> tuple[int, int] | None:
    """First pair {a, b} of non-identity elements, in ascending index order,
    that generates the group, is inverse-free (no digons), and whose Cayley
    digraph has automorphism group of order exactly |G|.  None if no pair
    qualifies."""
    return scan_valency2(group, inverse_free=True)[0]


def drr_to_2pdr(group: FiniteGroup, connection: tuple[int, ...] | list[int]) -> ConnectionSpec:
    """Extend a digraphical regular representation to a two-part one.

    Given R with Cay(G, R) a DRR, 1 not in R, and |R| < |G|/2, search the
    completing sets L of the same size, disjoint from R^{-1} and the
    identity, in lexicographic order; return the spec T[0,1] = R + {1},
    T[1,0] = L + {1} for the first L whose two-part digraph verifies.  Such
    an L always exists for a genuine DRR, so exhausting the candidates
    raises SearchExhaustedError.  Every candidate's digraph has 2|G|
    vertices, so a group over half the search's vertex cap is refused
    before anything is built."""
    r_set = tuple(sorted(set(connection)))
    if 0 in r_set:
        raise PreconditionError("the connection set must not contain the identity")
    if not r_set:
        raise PreconditionError("the connection set must be nonempty")
    if not 2 * len(r_set) < group.order:
        raise PreconditionError(
            f"need |R| < |G|/2, got |R|={len(r_set)} for |G|={group.order}")
    check_vertex_count(2 * group.order)
    base = cayley_digraph(group, r_set)
    base_aut = automorphisms(base).order
    if base_aut != group.order:
        raise PreconditionError(
            f"Cay(G, R) is not a digraphical regular representation: "
            f"automorphism order {base_aut} != {group.order}")
    excluded = {0} | {group.inverse(r) for r in r_set}
    candidates = [e for e in range(1, group.order) if e not in excluded]
    for ell in itertools.combinations(candidates, len(r_set)):
        spec = ConnectionSpec.from_sets(2, group.order, {
            (0, 1): (0,) + r_set,
            (1, 0): (0,) + ell,
        })
        if is_pdr(group, spec).is_pdr:
            return spec
    raise SearchExhaustedError(
        "no completing set produced a two-part representation; this contradicts "
        "the guaranteed extension of a DRR and indicates a bug upstream")
