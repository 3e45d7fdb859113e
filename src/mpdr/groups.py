"""Finite groups over a canonical 0-based element indexing.

A group is stored as its full multiplication table, built once by the
constructor that knows its structure (a cyclic group's rows are rotations of
one shared tuple); other modules read it only through ``row(a)``.  Both
constructors refuse more than ``CLOSURE_CAP`` elements.  Index 0 is always the
identity, which keeps connection-set literals stable across runs.  The
product convention is ``table(a, b) = "a then b"``: for groups built from
permutations, the permutation assigned to ``mul(a, b)`` equals "apply the
permutation of a, then the permutation of b".
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import CapExceededError
from .perms import Permutation, closure

CLOSURE_CAP = 5000


class FiniteGroup:
    """A finite group with elements 0..order-1 and identity 0."""

    def __init__(self, table: Sequence[Sequence[int]],
                 designated_generators: Sequence[int] = (),
                 labels: Sequence[str] | None = None):
        rows = tuple(tuple(row) for row in table)
        n = self.order = len(rows)
        if n < 1:
            raise ValueError("group order must be at least 1, got 0")
        if any(len(row) != n or min(row) < 0 or max(row) >= n for row in rows):
            raise ValueError("multiplication table is not square over 0..n-1")
        if rows[0] != tuple(range(n)) or [row[0] for row in rows] != list(range(n)):
            raise ValueError("index 0 is not a two-sided identity")
        self._inverse = tuple(row.index(0) if 0 in row else -1 for row in rows)
        for a, b in enumerate(self._inverse):
            if b < 0 or rows[b][a] != 0:
                raise ValueError(f"element {a} has no two-sided inverse")
        self._table = rows
        self.designated_generators = tuple(int(g) for g in designated_generators)
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != self.order:
            raise ValueError("labels length must equal group order")
        self._permutations: tuple[Permutation, ...] | None = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def cyclic(cls, n: int) -> FiniteGroup:
        """The cyclic group of order n; element i is the generator's i-th power."""
        if n < 1:
            raise ValueError(f"group order must be at least 1, got {n}")
        if n > CLOSURE_CAP:
            raise CapExceededError(
                f"group order {n} exceeds cap of {CLOSURE_CAP} elements")
        elems = tuple(range(n))
        table = [elems[a:] + elems[:a] for a in range(n)]
        labels = ["1"] + ["x" if i == 1 else f"x^{i}" for i in range(1, n)]
        gens = (1,) if n > 1 else ()
        return cls(table, designated_generators=gens, labels=labels)

    @classmethod
    def from_permutations(cls, degree: int,
                          gens: Iterable[Permutation | Sequence[int]]) -> FiniteGroup:
        """Enumerate the closure of the given permutations under composition.

        Elements are indexed in discovery order: identity first, then the
        generators in the order given, then products found breadth-first
        (right-multiplying each known element by each generator in turn).
        This makes element indices deterministic and documented.
        """
        if degree < 1:
            raise ValueError(f"degree must be at least 1, got {degree}")
        norm: list[Permutation] = []
        for g in gens:
            if not isinstance(g, Permutation):
                try:
                    g = Permutation(g)
                except ValueError as exc:
                    raise ValueError(f"invalid generator permutation: {exc}") from exc
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != {degree}")
            norm.append(g)

        ident = Permutation.identity(degree)
        elements: list[Permutation] = [ident]
        index: dict[Permutation, int] = {ident: 0}
        # each element after the identity is found as elements[p] * norm[k]:
        # its (p, k) is an edge of the discovery tree
        found_as: list[tuple[int, int]] = [(0, 0)]
        gen_indices: list[int] = []
        for k, g in enumerate(norm):
            if g not in index:
                index[g] = len(elements)
                elements.append(g)
                found_as.append((0, k))
            gen_indices.append(index[g])

        # times[k][x] is the index of elements[x] * norm[k]
        times: list[list[int]] = [[] for _ in norm]
        cursor = 0
        while cursor < len(elements):
            e = elements[cursor]
            for k, g in enumerate(norm):
                prod = e * g
                if prod not in index:
                    if len(elements) >= CLOSURE_CAP:
                        raise CapExceededError(
                            f"group closure exceeds cap of {CLOSURE_CAP} elements")
                    index[prod] = len(elements)
                    elements.append(prod)
                    found_as.append((cursor, k))
                times[k].append(index[prod])
            cursor += 1

        # Column b maps a to a * b.  Along the tree, a * b = (a * elements[p])
        # * norm[k], so column b is column p followed by times[k]: integer
        # lookups, no permutation products.
        columns = [list(range(len(elements)))]
        for p, k in found_as[1:]:
            columns.append(list(map(times[k].__getitem__, columns[p])))
        table = list(zip(*columns))
        labels = [p.cycle_string() for p in elements]
        seen: set[int] = set()
        designated = [i for i in gen_indices if not (i in seen or seen.add(i))]
        group = cls(table, designated_generators=tuple(designated), labels=labels)
        group._permutations = tuple(elements)
        return group

    # -- arithmetic ----------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        """a then b."""
        self._check(a)
        self._check(b)
        return self._table[a][b]

    def row(self, a: int) -> tuple[int, ...]:
        """mul(a, b) for every b, indexed by b."""
        self._check(a)
        return self._table[a]

    def inverse(self, a: int) -> int:
        self._check(a)
        return self._inverse[a]

    def generates(self, subset: Iterable[int]) -> bool:
        """True iff the closure of the subset (with the identity) is the group."""
        return len(closure(sorted(set(subset)), self.mul, 0)[1]) == self.order

    def is_abelian(self) -> bool:
        n = self.order
        return all(self._table[a][b] == self._table[b][a]
                   for a in range(n) for b in range(a + 1, n))

    def label(self, a: int) -> str:
        self._check(a)
        if self.labels is not None:
            return self.labels[a]
        return str(a)

    def _check(self, a: int) -> None:
        if not 0 <= a < self.order:
            raise ValueError(f"element index {a} out of range for order {self.order}")

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"

