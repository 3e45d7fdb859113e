"""Plain digraphs with the predicates the rest of the package relies on.

Adjacency is stored as sorted out, in and digon lists, and as per-vertex
out-arc bitsets (Python ints), which the automorphism search uses for O(1)
arc queries.  Each fact about adjacency has this one home.
A digraph is its arcs and vertex colors, nothing more: a loop (v, v) is an
arc like any other.  Digraphs are immutable after construction; colors,
when present, are part of the value, and automorphisms keep each class.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .errors import FormatError, parse_int, read_text


class Digraph:
    """A digraph on vertices 0..n-1 with no duplicate arcs; loops allowed.
    ``arcs`` may be any iterable of pairs; it is read once."""

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]],
                 vertex_color: Sequence[int] | None = None):
        if n < 1:
            raise ValueError(f"vertex count must be at least 1, got {n}")
        self.n = int(n)
        out_bits = [0] * n
        in_mask = [0] * n
        count = 0
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
            if out_bits[u] >> v & 1:
                raise ValueError(f"duplicate arc ({u}, {v})")
            out_bits[u] |= 1 << v
            in_mask[v] |= 1 << u
            count += 1
        self.out_bits = tuple(out_bits)
        self.arc_count = count
        # the three lists share one int object per vertex: past 256, where
        # Python stops caching small ints, each entry would otherwise be its own
        vertex = list(range(n))
        self.out_adj = tuple(tuple(_bits(b, vertex)) for b in out_bits)
        self.in_adj = tuple(tuple(_bits(b, vertex)) for b in in_mask)
        # per vertex, the out-neighbours joined both ways, loops excluded
        self.digon_adj = tuple(tuple(_bits(o & i & ~(1 << v), vertex))
                               for v, (o, i) in enumerate(zip(out_bits, in_mask)))
        if vertex_color is not None:
            vertex_color = tuple(int(c) for c in vertex_color)
            if len(vertex_color) != n:
                raise ValueError("vertex_color length must equal n")
        self.vertex_color = vertex_color

    # -- basic queries -------------------------------------------------------

    def arcs(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.out_adj[u]]

    def regular_valency(self) -> int | None:
        """The k with in- and out-valency k at every vertex, or None if the
        digraph is not regular."""
        k = len(self.out_adj[0])
        regular = all(len(o) == k and len(i) == k for o, i in zip(self.out_adj, self.in_adj))
        return k if regular else None

    def undirected_edges(self) -> list[tuple[int, int]]:
        """All pairs {u, v} joined by arcs both ways, as (u, v) with u < v."""
        return [(u, v) for u in range(self.n) for v in self.digon_adj[u] if u < v]

    # -- automorphism support --------------------------------------------------

    def is_automorphism(self, images: Sequence[int]) -> bool:
        """Check that a vertex bijection preserves arcs, and colors when the
        digraph has them."""
        if len(images) != self.n or set(images) != set(range(self.n)):
            return False
        if self.vertex_color is not None:
            col = self.vertex_color
            if any(col[images[v]] != col[v] for v in range(self.n)):
                return False
        for u in range(self.n):
            iu = images[u]
            for v in self.out_adj[u]:
                if not self.out_bits[iu] >> images[v] & 1:
                    return False
        return True

    # -- text formats ------------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"n {self.n}"]
        lines.extend(f"{u} {v}" for u, v in self.arcs())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, check: Callable[[int], None] | None = None) -> Digraph:
        """Parse ``n <count>``, then one ``u v`` per line (``v v`` is a loop), by
        ``errors.read_text``.  ``check``, when given, is called with the count
        before anything is built, so a caller's vertex cap refuses it unbuilt."""
        _, n, body = read_text(text, {"n": "vertex count"})
        if check is not None:
            check(n)
        arcs = []
        for line in body:
            try:
                u, v = line
                arcs.append((parse_int(u), parse_int(v)))
            except ValueError as exc:
                raise FormatError(f"bad arc line: {' '.join(line)!r}") from exc
        try:
            return cls(n, arcs)
        except ValueError as exc:
            raise FormatError(str(exc)) from exc

    def to_dot(self, labels: Sequence[str] | None = None) -> str:
        """DOT text with digons drawn as plain (undirected-looking) edges and
        one-way arcs as arrows, matching the usual drawing convention."""
        out = ["digraph {"]
        for v in range(self.n):
            name = labels[v] if labels is not None else str(v)
            out.append(f'  {v} [label="{name}"];')
        for u, v in self.undirected_edges():
            out.append(f"  {u} -> {v} [dir=none];")
        for u in range(self.n):
            digons = set(self.digon_adj[u])  # a loop is never a digon
            out.extend(f"  {u} -> {v};" for v in self.out_adj[u] if v not in digons)
        out.append("}")
        return "\n".join(out) + "\n"

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={self.arc_count})"


def _bits(mask: int, vertex: list[int]) -> Iterable[int]:
    """The vertices of a bitset, ascending, as the entries of ``vertex``."""
    while mask:
        low = mask & -mask
        yield vertex[low.bit_length() - 1]
        mask ^= low
