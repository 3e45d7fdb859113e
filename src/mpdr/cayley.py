"""m-Cayley digraphs over finite groups, built from connection-set matrices.

Vertices are encoded part-major: element g in part i is vertex ``i*n + g``
(n the group order), so parts occupy contiguous index ranges and the part
coloring is just ``v // n``.  Arcs follow the left-multiplication rule: for
t in the (i, j) connection set, every g contributes the arc
``g_i -> (t*g)_j``.  Right translations ``x_i -> (x*g)_i`` are then always
automorphisms, which is the structural fact the whole package leans on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping

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

    def out_valency(self, part: int) -> int:
        return sum(len(e) for i, _, e in self.entries if i == part)

    def in_valency(self, part: int) -> int:
        return sum(len(e) for _, j, e in self.entries if j == part)

    def to_json(self) -> str:
        doc = {
            "m": self.m,
            "n": self.group_order,
            "sets": [{"i": i, "j": j, "elements": list(e)} for i, j, e in self.entries],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> ConnectionSpec:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"connection spec is not valid JSON: {exc}") from exc
        try:
            entries = tuple((int(e["i"]), int(e["j"]), tuple(int(x) for x in e["elements"]))
                            for e in doc["sets"])
            return cls(int(doc["m"]), int(doc["n"]), entries)
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed connection spec document: {exc}") from exc


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
        n = group.order
        m = spec.m
        arcs = []
        for i, j, elems in spec.entries:
            for t in elems:
                row = group._table[t]
                for g in range(n):
                    arcs.append((i * n + g, j * n + row[g]))
        colors = [v // n for v in range(m * n)]
        self.digraph = Digraph(m * n, arcs, vertex_color=colors, allow_loops=True)

    @property
    def n(self) -> int:
        return self.group.order

    @property
    def m(self) -> int:
        return self.spec.m

    def vertex(self, element: int, part: int) -> int:
        return part * self.n + element

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
        perm = Permutation(images)
        assert self.digraph.is_automorphism(perm.images, respect_colors=False)
        return perm

    def right_regular_group(self) -> PermGroup:
        """The group of all right translations, generated by the designated
        generators; semiregular with the parts as orbits."""
        gens = [self.right_translation(g) for g in self.group.designated_generators]
        return PermGroup(self.m * self.n, gens)

    def __repr__(self) -> str:
        return f"MCayleyDigraph(m={self.m}, group_order={self.n})"


def build_m_cayley(group: FiniteGroup, spec: ConnectionSpec) -> MCayleyDigraph:
    return MCayleyDigraph(group, spec)


def cayley_digraph(group: FiniteGroup, connection: Iterable[int]) -> Digraph:
    """The classical Cayley digraph on the group itself: arcs g -> s*g."""
    n = group.order
    arcs = []
    for s in sorted(set(connection)):
        row = group._table[s]
        for g in range(n):
            arcs.append((g, row[g]))
    return Digraph(n, arcs, allow_loops=True)


def part_swap_automorphism(x: MCayleyDigraph, y: int) -> Permutation:
    """For an abelian 2-part construction whose connection sets satisfy
    T[0,1] = y * T[1,0], the swap  g_0 -> (y*g)_1,  g_1 -> g_0  preserves
    arcs.  It exchanges the two parts, so it certifies that the full
    automorphism group is strictly larger than the right translations.
    """
    if x.m != 2:
        raise PreconditionError("part swap requires exactly 2 parts")
    if not x.group.is_abelian():
        raise PreconditionError("part swap requires an abelian group")
    x.group._check(y)
    t01 = x.spec.set_for(0, 1)
    t10 = x.spec.set_for(1, 0)
    shifted = tuple(sorted(x.group.mul(y, t) for t in t10))
    if shifted != t01:
        raise PreconditionError(
            f"T[0,1] != y*T[1,0] for y={y}: {t01} vs {shifted}")
    n = x.n
    images = [0] * (2 * n)
    for g in range(n):
        images[g] = n + x.group.mul(y, g)
        images[n + g] = g
    perm = Permutation(images)
    assert x.digraph.is_automorphism(perm.images, respect_colors=False)
    return perm
