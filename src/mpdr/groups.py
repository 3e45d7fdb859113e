"""Finite groups over a canonical 0-based element indexing.

A group is stored as its full multiplication table.  Index 0 is always the
identity, which keeps connection-set literals stable across runs.  The
product convention is ``table(a, b) = "a then b"``: for groups built from
permutations, the permutation assigned to ``mul(a, b)`` equals "apply the
permutation of a, then the permutation of b".
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import CapExceededError
from .perms import Permutation

DEFAULT_CLOSURE_CAP = 5000


class FiniteGroup:
    """A finite group with elements 0..order-1 and identity 0."""

    def __init__(self, table: Sequence[Sequence[int]],
                 designated_generators: Sequence[int] = (),
                 labels: Sequence[str] | None = None):
        self.order = len(table)
        self._table = tuple(tuple(int(x) for x in row) for row in table)
        for row in self._table:
            if len(row) != self.order or any(not 0 <= x < self.order for x in row):
                raise ValueError("multiplication table is not square over 0..n-1")
        self.designated_generators = tuple(int(g) for g in designated_generators)
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != self.order:
            raise ValueError("labels length must equal group order")
        self._inverse = self._compute_inverses()
        self._permutations: tuple[Permutation, ...] | None = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def cyclic(cls, n: int) -> FiniteGroup:
        """The cyclic group of order n; element i is the generator's i-th power."""
        if n < 1:
            raise ValueError(f"group order must be at least 1, got {n}")
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        labels = ["1"] + ["x" if i == 1 else f"x^{i}" for i in range(1, n)]
        gens = (1,) if n > 1 else ()
        return cls(table, designated_generators=gens, labels=labels)

    @classmethod
    def from_permutations(cls, degree: int,
                          gens: Iterable[Permutation | Sequence[int]],
                          closure_cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
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
        gen_indices: list[int] = []
        for g in norm:
            if g not in index:
                index[g] = len(elements)
                elements.append(g)
            gen_indices.append(index[g])

        cursor = 0
        while cursor < len(elements):
            e = elements[cursor]
            cursor += 1
            for g in norm:
                prod = e * g
                if prod not in index:
                    if len(elements) >= closure_cap:
                        raise CapExceededError(
                            f"group closure exceeds cap of {closure_cap} elements")
                    index[prod] = len(elements)
                    elements.append(prod)

        n = len(elements)
        table = [[index[elements[a] * elements[b]] for b in range(n)] for a in range(n)]
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

    def inverse(self, a: int) -> int:
        self._check(a)
        return self._inverse[a]

    def element_order(self, a: int) -> int:
        """Least k >= 1 with a^k = identity."""
        self._check(a)
        k, acc = 1, a
        while acc != 0:
            acc = self._table[acc][a]
            k += 1
        return k

    def generates(self, subset: Iterable[int]) -> bool:
        """True iff the closure of the subset (with the identity) is the group."""
        closure = {0}
        frontier = [0]
        gens = sorted(set(subset))
        for g in gens:
            self._check(g)
        while frontier:
            e = frontier.pop()
            for g in gens:
                p = self._table[e][g]
                if p not in closure:
                    closure.add(p)
                    frontier.append(p)
        return len(closure) == self.order

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

    def _compute_inverses(self) -> tuple[int, ...]:
        if any(self._table[0][b] != b or self._table[b][0] != b
               for b in range(self.order)):
            raise ValueError("index 0 is not a two-sided identity")
        inv = [-1] * self.order
        for a in range(self.order):
            for b in range(self.order):
                if self._table[a][b] == 0 and self._table[b][a] == 0:
                    inv[a] = b
                    break
            if inv[a] < 0:
                raise ValueError(f"element {a} has no two-sided inverse")
        return tuple(inv)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"

