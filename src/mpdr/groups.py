"""Finite groups over a canonical 0-based element indexing.

A group is stored as its full multiplication table, built once by the
constructor that knows its structure and kept as one ``array('H')`` per
column, ``_cols[b][a] = mul(a, b)``: 2 bytes per product.  A cyclic group's
columns (which are also its rows) are slices of one array, 0..n-1 twice.
Only ``mul`` and ``row`` read the table, and everything else goes through
them; ``row(a)`` builds its tuple on each call.
Both constructors refuse more than ``CLOSURE_CAP`` elements.  Index 0 is
always the identity, which keeps connection-set literals stable across
runs.  The product convention is ``table(a, b) = "a then b"``: for groups
built from permutations, the permutation assigned to ``mul(a, b)`` equals
"apply the permutation of a, then the permutation of b".
"""

from __future__ import annotations

from array import array
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .errors import CapExceededError
from .perms import Permutation, closure

CLOSURE_CAP = 5000
# a table cell: 'H' holds 0..65535, so every index below CLOSURE_CAP fits
_CELL = "H"
_NOT_SQUARE = "multiplication table is not square over 0..n-1"


class FiniteGroup:
    """A finite group with elements 0..order-1 and identity 0."""

    def __init__(self, table: Sequence[Sequence[int]],
                 designated_generators: Sequence[int] = (), *, by_columns: bool = False):
        """The group with ``table[a][b] = mul(a, b)``.  The constructors pass
        ``by_columns``: ``table`` is then a list of ``array('H')`` columns,
        ``table[b][a] = mul(a, b)``, kept as it is.  Either table is checked."""
        if by_columns:
            cols = table
        else:
            try:
                rows = [array(_CELL, row) for row in table]
            except (TypeError, OverflowError):  # an entry that is no integer in 0..65535
                raise ValueError(_NOT_SQUARE) from None
            if any(len(row) != len(rows) for row in rows):
                raise ValueError(_NOT_SQUARE)
            cols = [array(_CELL, col) for col in zip(*rows)]
        n = self.order = len(cols)
        if n < 1:
            raise ValueError("group order must be at least 1, got 0")
        if any(len(col) != n or max(col) >= n for col in cols):
            raise ValueError(_NOT_SQUARE)
        if cols[0] != array(_CELL, range(n)) or [col[0] for col in cols] != list(range(n)):
            raise ValueError("index 0 is not a two-sided identity")
        # inverse[a] is the least b with a * b = 0 (the columns are read from
        # the last, so a smaller b overwrites), as a scan of row a finds it
        inverse = [-1] * n
        for b in reversed(range(n)):
            col, a = cols[b], -1
            for _ in range(col.count(0)):
                a = col.index(0, a + 1)
                inverse[a] = b
        for a, b in enumerate(inverse):
            if b < 0 or cols[a][b] != 0:
                raise ValueError(f"element {a} has no two-sided inverse")
        self._inverse = tuple(inverse)
        self._cols = cols
        self.designated_generators = tuple(int(g) for g in designated_generators)
        self._permutations: tuple[Permutation, ...] | None = None
        self._name: Callable[[int], str] = str  # see label()
        self._labels: tuple[str, ...] | None = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def cyclic(cls, n: int) -> FiniteGroup:
        """The cyclic group of order n; element i is the generator's i-th power."""
        if n < 1:
            raise ValueError(f"group order must be at least 1, got {n}")
        if n > CLOSURE_CAP:
            raise CapExceededError(
                f"group order {n} exceeds cap of {CLOSURE_CAP} elements")
        rotations = array(_CELL, range(n)) * 2
        cols = [rotations[b:b + n] for b in range(n)]
        group = cls(cols, (1,) if n > 1 else (), by_columns=True)
        group._name = lambda i: "1" if i == 0 else "x" if i == 1 else f"x^{i}"
        return group

    @classmethod
    def from_permutations(cls, degree: int,
                          gens: Iterable[Permutation | Sequence[int]],
                          *, max_order: int = CLOSURE_CAP) -> FiniteGroup:
        """Enumerate the closure of the given permutations under composition.

        A generator given twice is used once.  Elements are indexed in
        discovery order: identity first, then the generators in the order
        given, then products found breadth-first (right-multiplying each
        known element by each generator in turn).  This makes element
        indices deterministic and documented.  The closure stops at its
        first element past ``max_order`` (at most ``CLOSURE_CAP``), the
        largest order the caller accepts, and raises ``CapExceededError``.
        """
        if degree < 1:
            raise ValueError(f"degree must be at least 1, got {degree}")
        norm: dict[Permutation, None] = {}
        for g in gens:
            if not isinstance(g, Permutation):
                try:
                    g = Permutation(g)
                except ValueError as exc:
                    raise ValueError(f"invalid generator permutation: {exc}") from exc
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != {degree}")
            norm[g] = None
        cap = min(max_order, CLOSURE_CAP)

        ident = Permutation.identity(degree)
        elements: list[Permutation] = [ident]
        index: dict[Permutation, int] = {ident: 0}
        # each element after the identity is found as elements[p] * gen k:
        # its (p, k) is an edge of the discovery tree; the identity's
        # products are the generators themselves
        found_as: list[tuple[int, int]] = [(0, 0)]
        # times[k][x] is the index of elements[x] * gen k
        times: list[list[int]] = [[] for _ in norm]
        cursor = 0
        while cursor < len(elements):
            e = elements[cursor]
            for k, g in enumerate(norm):
                prod = e * g
                if prod not in index:
                    if len(elements) >= cap:
                        raise CapExceededError(
                            f"group closure exceeds cap of {cap} elements")
                    index[prod] = len(elements)
                    elements.append(prod)
                    found_as.append((cursor, k))
                times[k].append(index[prod])
            cursor += 1

        # Column b maps a to a * b.  Along the tree, a * b = (a * elements[p])
        # * gen k, so column b is column p followed by times[k]: integer
        # lookups, no permutation products.
        columns = [array(_CELL, range(len(elements)))]
        for p, k in found_as[1:]:
            columns.append(array(_CELL, list(map(times[k].__getitem__, columns[p]))))
        # times[k][0] is the index of the identity * gen k, gen k's own
        group = cls(columns, [t[0] for t in times], by_columns=True)
        perms = group._permutations = tuple(elements)
        group._name = lambda a: perms[a].cycle_string()
        return group

    # -- arithmetic ----------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        """a then b."""
        self._check(a)
        self._check(b)
        return self._cols[b][a]

    def row(self, a: int) -> tuple[int, ...]:
        """mul(a, b) for every b, indexed by b; a new tuple on each call."""
        self._check(a)
        return tuple(map(itemgetter(a), self._cols))

    def inverse(self, a: int) -> int:
        self._check(a)
        return self._inverse[a]

    def generates(self, subset: Iterable[int]) -> bool:
        """True iff the closure of the subset (with the identity) is the group."""
        return len(closure(sorted(set(subset)), self.mul, 0)[1]) == self.order

    def label(self, a: int) -> str:
        """The name of element a: ``x^i`` for the i-th power in ``cyclic``,
        the permutation's cycle string in ``from_permutations``, else the
        index.  Every name is made on the first call and kept."""
        self._check(a)
        if self._labels is None:
            self._labels = tuple(map(self._name, range(self.order)))
        return self._labels[a]

    def _check(self, a: int) -> None:
        if not 0 <= a < self.order:
            raise ValueError(f"element index {a} out of range for order {self.order}")

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"

