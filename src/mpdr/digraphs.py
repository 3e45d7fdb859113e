"""Plain digraphs with the predicates the rest of the package relies on.

Adjacency is stored both as sorted out/in lists and as per-vertex bitsets
(Python ints), which the automorphism search uses for O(1) arc queries.
A digraph is its arcs and vertex colors, nothing more: a loop (v, v) is an
arc like any other.  Digraphs are immutable after construction; colors,
when present, are part of the value, and automorphisms keep each class.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Sequence

from .errors import CapExceededError, FormatError, parse_int, read_text

HAMILTONIAN_CAP = 16


class Digraph:
    """A digraph on vertices 0..n-1 with no duplicate arcs; loops allowed."""

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]],
                 vertex_color: Sequence[int] | None = None):
        if n < 1:
            raise ValueError(f"vertex count must be at least 1, got {n}")
        self.n = int(n)
        out_bits = [0] * n
        in_bits = [0] * n
        count = 0
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
            if out_bits[u] >> v & 1:
                raise ValueError(f"duplicate arc ({u}, {v})")
            out_bits[u] |= 1 << v
            in_bits[v] |= 1 << u
            count += 1
        self.out_bits = tuple(out_bits)
        self.in_bits = tuple(in_bits)
        self.arc_count = count
        self.out_adj = tuple(tuple(_bits(b)) for b in out_bits)
        self.in_adj = tuple(tuple(_bits(b)) for b in in_bits)
        self.digon_bits = tuple((o & i) & ~(1 << v)
                                for v, (o, i) in enumerate(zip(out_bits, in_bits)))
        if vertex_color is not None:
            vertex_color = tuple(int(c) for c in vertex_color)
            if len(vertex_color) != n:
                raise ValueError("vertex_color length must equal n")
        self.vertex_color = vertex_color

    # -- basic queries -------------------------------------------------------

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.out_bits[u] >> v & 1)

    def arcs(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.out_adj[u]]

    def out_degree(self, v: int) -> int:
        return len(self.out_adj[v])

    def in_degree(self, v: int) -> int:
        return len(self.in_adj[v])

    def is_k_regular(self, k: int) -> bool:
        return all(len(self.out_adj[v]) == k and len(self.in_adj[v]) == k
                   for v in range(self.n))

    def regular_valency(self) -> int | None:
        """The common in/out valency, or None if the digraph is not regular."""
        k = len(self.out_adj[0])
        return k if self.is_k_regular(k) else None

    def k_step_out_neighborhood(self, v: int, k: int) -> set[int]:
        """Vertices reachable by exactly k arc-steps (as a set union, so a
        vertex reached along several walks is counted once)."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        if k < 0:
            raise ValueError("step count must be non-negative")
        mask = 1 << v
        for _ in range(k):
            new = 0
            m = mask
            while m:
                low = m & -m
                new |= self.out_bits[low.bit_length() - 1]
                m ^= low
            mask = new
        return set(_bits(mask))

    def induced_subdigraph(self, vertices: Iterable[int]) -> tuple[Digraph, list[int]]:
        """The subdigraph on the given vertex set, re-indexed 0..|X|-1 in
        ascending original order; also returns new-index -> old-vertex."""
        mapping = sorted(set(vertices))
        if not mapping:
            raise ValueError("cannot induce on an empty vertex set")
        if not (0 <= mapping[0] and mapping[-1] < self.n):
            raise ValueError("vertex out of range")
        pos = {old: new for new, old in enumerate(mapping)}
        arcs = [(pos[u], pos[v]) for u in mapping for v in self.out_adj[u] if v in pos]
        colors = None
        if self.vertex_color is not None:
            colors = [self.vertex_color[old] for old in mapping]
        return Digraph(len(mapping), arcs, vertex_color=colors), mapping

    def is_oriented(self) -> bool:
        return all(b == 0 for b in self.digon_bits)

    def undirected_edges(self) -> list[tuple[int, int]]:
        """All pairs {u, v} joined by arcs both ways, as (u, v) with u < v."""
        return [(u, v) for u in range(self.n) for v in _bits(self.digon_bits[u])
                if u < v]

    def is_connected(self, mode: str = "weak") -> bool:
        if mode not in ("weak", "strong"):
            raise ValueError(f"mode must be 'weak' or 'strong', got {mode!r}")
        if mode == "weak":
            step = [self.out_bits[v] | self.in_bits[v] for v in range(self.n)]
            return _reaches_all(step, 0, self.n)
        return (_reaches_all(list(self.out_bits), 0, self.n)
                and _reaches_all(list(self.in_bits), 0, self.n))

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

    # -- cycle search ----------------------------------------------------------

    def directed_hamiltonian_oriented_cycles(self) -> list[tuple[int, ...]]:
        """All directed Hamiltonian cycles that avoid digon arcs.

        Each cycle is reported once, as the rotation starting at vertex 0
        (a Hamiltonian cycle always visits vertex 0, and a directed cycle
        has a single traversal direction, so this is canonical).  Results
        are sorted lexicographically.
        """
        if self.n > HAMILTONIAN_CAP:
            raise CapExceededError(
                f"Hamiltonian cycle search capped at {HAMILTONIAN_CAP} vertices")
        plain = [self.out_bits[v] & ~self.digon_bits[v] & ~(1 << v)
                 for v in range(self.n)]
        full = (1 << self.n) - 1
        found: list[tuple[int, ...]] = []
        path = [0]

        def extend(visited: int) -> None:
            here = path[-1]
            if visited == full:
                if plain[here] & 1:
                    found.append(tuple(path))
                return
            choices = plain[here] & ~visited
            while choices:
                low = choices & -choices
                v = low.bit_length() - 1
                choices ^= low
                path.append(v)
                extend(visited | low)
                path.pop()

        if self.n == 1:
            return []
        extend(1)
        return sorted(found)

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
            for v in self.out_adj[u]:
                if not self.digon_bits[u] >> v & 1:  # a loop is never a digon
                    out.append(f"  {u} -> {v};")
        out.append("}")
        return "\n".join(out) + "\n"

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={self.arc_count})"


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reaches_all(step_bits: list[int], start: int, n: int) -> bool:
    seen = 1 << start
    queue = deque([start])
    while queue:
        v = queue.popleft()
        fresh = step_bits[v] & ~seen
        seen |= fresh
        while fresh:
            low = fresh & -fresh
            queue.append(low.bit_length() - 1)
            fresh ^= low
    return seen == (1 << n) - 1
