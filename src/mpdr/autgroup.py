"""Exact automorphism groups of colored digraphs.

The solver refines vertex partitions to equitability using per-cell
(out-arc, in-arc, digon-edge) count profiles, then runs individualize-and-
refine search (McKay & Piperno, *Practical Graph Isomorphism II*, 2014) in
two loops.  The first walks the leftmost path to its leaf, recording the
shape every node at each depth must match.  The second, deepest level first,
searches each branch outside the orbits of the branches explored there
(under the group found so far) depth-first on an explicit stack, until one
leaf yields an automorphism: one witness per branch suffices.

Cell order is part of the partition value and every tie-break (splitter
order, key order, target cell, branch order) is structural, so equal
inputs produce identical generator lists.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass

from .digraphs import Digraph
from .errors import CapExceededError
from .perms import PermGroup, Permutation

VERTEX_CAP = 2048
BRUTE_FORCE_CAP = 9


@dataclass
class AutSearchResult:
    group: PermGroup
    nodes_explored: int
    elapsed: float


def automorphism_group(digraph: Digraph, *, ignore_colors: bool = False) -> PermGroup:
    """Generators and exact order of the automorphism group.

    Vertex colors, when the digraph carries them, constrain automorphisms
    to map each color class onto itself; ``ignore_colors=True`` drops that
    constraint (the right mode whenever part-fixing is a conclusion rather
    than an assumption).
    """
    return automorphism_search(digraph, ignore_colors=ignore_colors).group


def automorphism_search(digraph: Digraph, *,
                        ignore_colors: bool = False) -> AutSearchResult:
    """Like :func:`automorphism_group` but also reports search statistics."""
    if digraph.n > VERTEX_CAP:
        raise CapExceededError(
            f"automorphism search capped at {VERTEX_CAP} vertices, got {digraph.n}")
    start = time.perf_counter()
    search = _AutSearch(digraph, ignore_colors=ignore_colors)
    return AutSearchResult(search.run(), search.nodes, time.perf_counter() - start)


def brute_force_automorphisms(digraph: Digraph) -> PermGroup:
    """Independent oracle: filter all n! vertex permutations by arc and
    color preservation.  Only for n <= 9."""
    n = digraph.n
    if n > BRUTE_FORCE_CAP:
        raise CapExceededError(f"brute force capped at {BRUTE_FORCE_CAP} vertices")
    col = digraph.vertex_color
    arcs = digraph.arcs()
    out_bits = digraph.out_bits
    survivors = []
    for p in itertools.permutations(range(n)):
        if col is not None and any(col[p[v]] != col[v] for v in range(n)):
            continue
        ok = True
        for u, v in arcs:
            if not out_bits[p[u]] >> p[v] & 1:
                ok = False
                break
        if ok:
            survivors.append(p)
    group = PermGroup(n, survivors)
    if group.order != len(survivors):
        raise RuntimeError("stabilizer chain order disagrees with filtered count")
    return group


class _AutSearch:
    """One individualize-and-refine run over a fixed digraph."""

    def __init__(self, digraph: Digraph, ignore_colors: bool):
        self.g = digraph
        self.n = digraph.n
        self.out_bits = digraph.out_bits
        self.in_bits = digraph.in_bits
        self.digon_bits = digraph.digon_bits
        if ignore_colors or digraph.vertex_color is None:
            initial = [list(range(self.n))]
        else:
            classes: dict[int, list[int]] = {}
            for v, c in enumerate(digraph.vertex_color):
                classes.setdefault(c, []).append(v)
            initial = [classes[c] for c in sorted(classes)]
        self.initial = initial
        self.nodes = 0
        self.group = PermGroup(self.n, [])
        self.first_leaf: tuple[int, ...] = ()
        # per path depth: (cell-size shape, (position, vertex) of singletons)
        self.first_info: list[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]] = []
        self.parent = list(range(self.n))

    # -- union-find over found automorphisms --------------------------------

    def _find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def _union(self, a: int, b: int) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    # -- equitable refinement ------------------------------------------------

    def _refine(self, cells: list[list[int]], queue: deque[int]) -> list[list[int]]:
        """Split cells by (out, in, digon) counts into splitter sets until no
        queued splitter separates anything.  Stale splitter masks are unions
        of current cells, which is still a sound splitting invariant."""
        out_bits, in_bits, digon_bits = self.out_bits, self.in_bits, self.digon_bits
        masks = [_mask(c) for c in cells]
        while queue:
            smask = queue.popleft()
            touched = 0
            m = smask
            while m:
                low = m & -m
                s = low.bit_length() - 1
                m ^= low
                touched |= out_bits[s] | in_bits[s]
            new_cells: list[list[int]] = []
            new_masks: list[int] = []
            for cell, cmask in zip(cells, masks):
                if len(cell) == 1 or not cmask & touched:
                    new_cells.append(cell)
                    new_masks.append(cmask)
                    continue
                groups: dict[tuple[int, int, int], list[int]] = {}
                for v in cell:
                    key = ((out_bits[v] & smask).bit_count(),
                           (in_bits[v] & smask).bit_count(),
                           (digon_bits[v] & smask).bit_count())
                    groups.setdefault(key, []).append(v)
                if len(groups) == 1:
                    new_cells.append(cell)
                    new_masks.append(cmask)
                    continue
                for key in sorted(groups):
                    sub = groups[key]
                    submask = _mask(sub)
                    new_cells.append(sub)
                    new_masks.append(submask)
                    queue.append(submask)
            cells = new_cells
            masks = new_masks
        return cells

    # -- search ----------------------------------------------------------------

    def run(self) -> PermGroup:
        cells = [sorted(c) for c in self.initial]
        cells = self._refine(cells, deque(_mask(c) for c in cells))
        path: list[tuple[list[list[int]], int]] = []  # (partition, target) per level
        while True:
            self.nodes += 1
            self.first_info.append((tuple(map(len, cells)), _singles(cells)))
            if len(cells) == self.n:
                break
            target = _target(cells)
            path.append((cells, target))
            cells = self._child(cells, target, cells[target][0])
        self.first_leaf = tuple(c[0] for c in cells)
        for depth in range(len(path) - 1, -1, -1):
            cells, target = path[depth]
            explored = [cells[target][0]]
            for v in cells[target][1:]:
                rv = self._find(v)
                if any(self._find(w) == rv for w in explored):
                    continue
                self._witness(cells, target, v, depth + 1)
                explored.append(v)
        return self.group

    def _child(self, cells: list[list[int]], target: int, v: int) -> list[list[int]]:
        """The refined partition after individualizing v in cells[target]."""
        rest = [u for u in cells[target] if u != v]
        child = cells[:target] + [[v], rest] + cells[target + 1:]
        return self._refine(child, deque([1 << v, _mask(rest)]))

    def _witness(self, cells: list[list[int]], target: int, v: int, depth: int) -> None:
        """Depth-first, left to right, below branch v of cells[target] until a
        leaf yields an automorphism.  Stack entries are nodes not yet refined:
        (parent partition, target cell, branch vertex, depth)."""
        stack = [(cells, target, v, depth)]
        while stack:
            cells, target, v, depth = stack.pop()
            cells = self._child(cells, target, v)
            self.nodes += 1
            shape, singles = self.first_info[depth]
            if tuple(map(len, cells)) != shape or not self._consistent(singles, _singles(cells)):
                continue
            if len(cells) < self.n:
                target = _target(cells)
                stack.extend((cells, target, u, depth + 1) for u in reversed(cells[target]))
            elif self._leaf(tuple(c[0] for c in cells)):
                return

    def _leaf(self, leaf: tuple[int, ...]) -> bool:
        images = [0] * self.n
        for a, b in zip(self.first_leaf, leaf):
            images[a] = b
        # colors hold by construction (cells refine color classes positionally)
        if not self.g.is_automorphism(images, respect_colors=False):
            return False
        # never a member of the group found so far: it fixes the path above its
        # level and maps the path vertex there outside that vertex's orbit
        self.group._extend(Permutation(images))
        for a, b in zip(self.first_leaf, leaf):
            self._union(a, b)
        return True

    def _consistent(self, first_singles: tuple[tuple[int, int], ...],
                    singles: tuple[tuple[int, int], ...]) -> bool:
        """Partial-map pruning: the position-aligned singleton vertices must
        already induce an arc-preserving bijection."""
        amap: dict[int, int] = {}
        mask_a = 0
        mask_b = 0
        for (pos_a, a), (pos_b, b) in zip(first_singles, singles):
            if pos_a != pos_b:
                return False
            amap[a] = b
            mask_a |= 1 << a
            mask_b |= 1 << b
        arc_count_a = 0
        arc_count_b = 0
        out_bits = self.out_bits
        for a, b in amap.items():
            arc_count_a += (out_bits[a] & mask_a).bit_count()
            arc_count_b += (out_bits[b] & mask_b).bit_count()
            rem = out_bits[a] & mask_a
            while rem:
                low = rem & -rem
                w = low.bit_length() - 1
                rem ^= low
                if not out_bits[b] >> amap[w] & 1:
                    return False
        return arc_count_a == arc_count_b


def _singles(cells: list[list[int]]) -> tuple[tuple[int, int], ...]:
    return tuple((i, c[0]) for i, c in enumerate(cells) if len(c) == 1)


def _target(cells: list[list[int]]) -> int:
    """The first smallest non-singleton cell."""
    return min((len(c), i) for i, c in enumerate(cells) if len(c) > 1)[1]


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m
