"""m-Cayley digraphs over finite groups, built from connection-set matrices.

Vertices are encoded part-major: element g in part i is vertex ``i*n + g``
(n the group order), so parts occupy contiguous index ranges and the part
of a vertex is just ``v // n``.  Arcs follow the left-multiplication rule:
for t in the (i, j) connection set, every g contributes the arc
``g_i -> (t*g)_j``.  Right translations ``x_i -> (x*g)_i`` are then always
automorphisms, which is the structural fact the whole package leans on.
``MCayleyDigraph(group, spec)`` builds the digraph, with no vertex colors:
whether its automorphisms fix the parts is for the search to find.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .digraphs import Digraph
from .errors import FormatError, PreconditionError
from .groups import FiniteGroup
from .perms import PermGroup, Permutation


@dataclass(frozen=True)
class ConnectionSpec:
    """An m x m matrix of subsets of group element indices.

    Only nonempty entries are stored; a missing (i, j) pair means the empty
    set.  The spec is m-partite exactly when every diagonal entry is empty.
    """

    m: int
    group_order: int
    entries: tuple[tuple[int, int, tuple[int, ...]], ...] = field(default=())

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"part count must be at least 1, got {self.m}")
        if self.group_order < 1:
            raise ValueError("group order must be at least 1")
        canon = []
        seen = set()
        for i, j, elems in self.entries:
            if not (0 <= i < self.m and 0 <= j < self.m):
                raise ValueError(f"part pair ({i}, {j}) out of range for m={self.m}")
            if (i, j) in seen:
                raise ValueError(f"duplicate entry for part pair ({i}, {j})")
            seen.add((i, j))
            elems = tuple(sorted(set(int(e) for e in elems)))
            if elems and not (0 <= elems[0] and elems[-1] < self.group_order):
                raise ValueError(f"element index out of range in T[{i},{j}]")
            if elems:
                canon.append((i, j, elems))
        object.__setattr__(self, "entries", tuple(sorted(canon)))

    @classmethod
    def from_sets(cls, m: int, group_order: int,
                  sets: Mapping[tuple[int, int], Iterable[int]]) -> ConnectionSpec:
        return cls(m, group_order,
                   tuple((i, j, tuple(v)) for (i, j), v in sets.items()))

    def set_for(self, i: int, j: int) -> tuple[int, ...]:
        for a, b, elems in self.entries:
            if (a, b) == (i, j):
                return elems
        return ()

    def is_partite(self) -> bool:
        return all(i != j for i, j, _ in self.entries)

    def to_json(self) -> str:
        doc = {
            "m": self.m,
            "n": self.group_order,
            "sets": [{"i": i, "j": j, "elements": list(e)} for i, j, e in self.entries],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> ConnectionSpec:
        """Parse the ``to_json`` document exactly: no value is coerced, and
        no key is missing or added."""
        try:
            doc = json.loads(text)
        except ValueError as exc:  # a decode error, or an integer too long to read
            raise FormatError(f"connection spec is not valid JSON: {exc}") from exc
        except RecursionError as exc:  # arrays or objects nested past the recursion limit
            raise FormatError("connection spec is not valid JSON: nested too deeply") from exc
        try:
            sets, m, n = _fields(doc, ("sets", "m", "n"), "at the top level")
            entries = []
            for e in _exact(sets, list, "sets"):
                i, j, elements = _fields(e, ("i", "j", "elements"), "in a sets entry")
                entries.append((_exact(i, int, "i"), _exact(j, int, "j"),
                                tuple(_exact(x, int, "element")
                                      for x in _exact(elements, list, "elements"))))
            return cls(_exact(m, int, "m"), _exact(n, int, "n"), tuple(entries))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed connection spec document: {exc}") from exc


def _fields(doc, names: tuple[str, ...], where: str) -> list:
    """The values of ``names`` in a JSON object that has no other key."""
    if type(doc) is dict:
        extra = sorted(doc.keys() - set(names))
        if extra:
            raise ValueError(f"unknown key {json.dumps(extra[0])} {where}")
    return [doc[name] for name in names]


def _exact(value, kind: type, name: str):
    if type(value) is not kind:  # an isinstance check would pass a bool as an int
        raise TypeError(f"{name} must be a JSON {kind.__name__}, got {json.dumps(value)}")
    return value


class MCayleyDigraph:
    """A built m-Cayley digraph together with its group and spec."""

    def __init__(self, group: FiniteGroup, spec: ConnectionSpec):
        if spec.group_order != group.order:
            raise PreconditionError(
                f"spec is over a group of order {spec.group_order}, got {group.order}")
        if spec.m < 2:
            raise PreconditionError(
                "m-Cayley constructions here require at least 2 parts")
        self.group = group
        self.spec = spec
        self.digraph = Digraph(spec.m * group.order, _arcs(group, spec.entries))

    @property
    def n(self) -> int:
        return self.group.order

    @property
    def m(self) -> int:
        return self.spec.m

    def part_colored(self) -> Digraph:
        """The same arcs, each vertex colored by its part index: its
        automorphisms are the part-preserving ones."""
        g = self.digraph
        return Digraph(g.n, ((u, v) for u in range(g.n) for v in g.out_adj[u]),
                       vertex_color=[v // self.n for v in range(g.n)])

    def vertex_part(self, v: int) -> int:
        return v // self.n

    def vertex_element(self, v: int) -> int:
        return v % self.n

    def vertex_label(self, v: int) -> str:
        return f"{self.group.label(self.vertex_element(v))}_{self.vertex_part(v)}"

    def part(self, i: int) -> range:
        return range(i * self.n, (i + 1) * self.n)

    def parts(self) -> list[range]:
        return [self.part(i) for i in range(self.m)]

    def right_translation(self, g: int) -> Permutation:
        """The vertex map x_i -> (x*g)_i; an automorphism by construction."""
        n = self.n
        images = [0] * (self.m * n)
        for i in range(self.m):
            base = i * n
            for x in range(n):
                images[base + x] = base + self.group.mul(x, g)
        return Permutation(images)

    def translations(self) -> list[Permutation]:
        """The right translations by the group's designated generators, which
        generate R(G); none for a group given by a bare table."""
        return [self.right_translation(g) for g in self.group.designated_generators]

    def right_regular_group(self) -> PermGroup:
        """The group of all right translations, generated by
        :meth:`translations`; semiregular with the parts as orbits."""
        return PermGroup(self.m * self.n, self.translations())

    def __repr__(self) -> str:
        return f"MCayleyDigraph(m={self.m}, group_order={self.n})"


def _arcs(group: FiniteGroup, entries: Iterable[tuple]) -> Iterator[tuple[int, int]]:
    """The arcs g_i -> (t*g)_j, yielded one at a time: ``Digraph`` reads them
    once, so no arc list is ever held."""
    n = group.order
    for i, j, elems in entries:
        for t in elems:
            yield from zip(range(i * n, (i + 1) * n), map((j * n).__add__, group.row(t)))


def cayley_digraph(group: FiniteGroup, connection: Iterable[int]) -> Digraph:
    """The classical Cayley digraph on the group itself: arcs g -> s*g."""
    return Digraph(group.order, _arcs(group, [(0, 0, sorted(set(connection)))]))
