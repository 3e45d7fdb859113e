"""Exact automorphism groups of colored digraphs.

The solver refines vertex partitions to equitability using per-cell
(out-arc, in-arc, digon-edge) count profiles, then runs individualize-and-
refine search (McKay & Piperno, *Practical Graph Isomorphism II*, 2014) in
two loops.  The first walks the leftmost path to its leaf, recording the
shape every node at each depth must match.  The second, deepest level first,
searches each branch outside the orbits of the branches explored there
(under the group found so far) depth-first on an explicit stack, until one
leaf yields an automorphism: one witness per branch suffices.  The search
keeps only the automorphisms it finds and their orbits.

|Aut| is the product, over the levels of the leftmost path, of the length
of the path vertex's orbit under the automorphisms found at that level and
below, which fix the path vertices above it (McKay & Piperno 2014, as nauty
reports group size; Seress, *Permutation Group Algorithms*, 2003, ch. 4).
So :func:`automorphism_order` reads the order off the search and builds no
stabilizer chain, and :func:`is_rigid` stops at the first automorphism
found.  :func:`automorphism_search` builds the chain once, from the
generator list, and checks its order against the search's.

A partition is one ``lab`` array holding the cells side by side, with an
index from each vertex to its position and to its cell's id, and each
cell's first index and size kept by id.  Refinement is neighbour-driven, as
in nauty and bliss (Junttila & Kaski, ALENEX 2007): a splitter visits only
its vertices' arcs and digons and splits only the cells they hit.  The last
fragment of a split is never a splitter, and a fragment larger than the
rest of its cell is processed through its siblings, so no vertex is
walked for the larger side of a split (as with Hopcroft's rule) and a
refinement costs O(m log n) rather than O(n) per splitter.  Cells are split
in exactly the order of processing every fragment directly.

Cell order is part of the partition value and every tie-break (splitter
order, key order, target cell, branch order) is structural, so equal
inputs produce identical generator lists.  Order inside a cell is not: only
the target cell's vertices become branches, so the search sorts that cell
when it picks it, and every other cell's order never reaches the output.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .digraphs import Digraph
from .errors import CapExceededError
from .perms import OrbitPartition, PermGroup, Permutation

VERTEX_CAP = 2048
BRUTE_FORCE_CAP = 9

# (lab, pos, cell, first, size): the vertices cell by cell, each vertex's
# index in lab, each vertex's cell id, and each cell's first index and size
_Partition = tuple[list[int], list[int], list[int], list[int], list[int]]


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
    """Like :func:`automorphism_group` but also reports search statistics.

    The chain built from the generators must have the order the search
    read off its orbits; a disagreement raises RuntimeError."""
    start = time.perf_counter()
    search = _search(digraph, ignore_colors)
    group = PermGroup(digraph.n, [Permutation(images) for images in search.automorphisms()])
    if group.order != search.order:
        raise RuntimeError(f"stabilizer chain order {group.order} disagrees with "
                           f"the search's orbit product {search.order}")
    return AutSearchResult(group, search.nodes, time.perf_counter() - start)


def automorphism_order(digraph: Digraph, *, ignore_colors: bool = False) -> int:
    """The order of the automorphism group, read off the search: no
    stabilizer chain is built.  Colors as in :func:`automorphism_group`."""
    search = _search(digraph, ignore_colors)
    for _ in search.automorphisms():
        pass
    return search.order


def is_rigid(digraph: Digraph) -> bool:
    """True iff the only automorphism (respecting colors) is the identity;
    the search stops at the first other one it finds."""
    return next(_search(digraph, False).automorphisms(), None) is None


def _search(digraph: Digraph, ignore_colors: bool) -> _AutSearch:
    if digraph.n > VERTEX_CAP:
        raise CapExceededError(
            f"automorphism search capped at {VERTEX_CAP} vertices, got {digraph.n}")
    return _AutSearch(digraph, ignore_colors=ignore_colors)


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
        n = self.n = digraph.n
        self.out_bits = digraph.out_bits
        if ignore_colors or digraph.vertex_color is None:
            initial = [list(range(n))]
        else:
            classes: dict[int, list[int]] = {}
            for v, c in enumerate(digraph.vertex_color):
                classes.setdefault(c, []).append(v)
            initial = [classes[c] for c in sorted(classes)]
        # the color classes as a partition, in color order
        lab = [v for cls in initial for v in cls]
        first = list(itertools.accumulate(map(len, initial[:-1]), initial=0))
        size = list(map(len, initial))
        pos, cell = [0] * n, [0] * n
        for i, v in enumerate(lab):
            pos[v] = i
        for c, cls in enumerate(initial):
            for v in cls:
                cell[v] = c
        self.root: _Partition = (lab, pos, cell, first, size)
        self.digon_adj = [tuple(v for v in digraph.out_adj[u]
                                if digraph.digon_bits[u] >> v & 1) for u in range(n)]
        self.nodes = 0
        # |Aut| once automorphisms() is exhausted: the product, over the
        # levels done so far, of each path vertex's orbit length
        self.order = 1
        self.first_leaf: tuple[int, ...] = ()
        # per path depth: (cell-size shape, singleton vertices by position)
        self.first_info: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        # orbits of the automorphisms found so far
        self.orbits = OrbitPartition(n)

    # -- equitable refinement ------------------------------------------------

    def _refine(self, part: _Partition,
                queue: list[tuple[int, int, tuple[int, int] | None]]) -> _Partition:
        """Refine ``part`` in place to equitability.

        ``queue`` holds splitters ``(a, b, parent)``: the vertices in
        ``lab[a:b]``, a fragment of the cell that was ``lab[parent[0]:
        parent[1]]`` (None for the color classes).  Splits happen in place,
        so a range keeps its vertex set.  A splitter walks only its
        vertices' in, out and digon lists, counting for each neighbour its
        (out, in, digon) arcs into the splitter.  Each cell hit, in
        position order, splits into fragments in key order, the untouched
        vertices (key 0) first and keeping the cell's id, and the fragments
        are queued in that order.

        A fragment is processed after its parent (first in, first out), or
        its parent was a cell of the equitable partition a child starts
        from, so the parent's counts are constant on every cell by then, and
        a fragment's counts are the parent's minus its siblings'.  Hence the
        last fragment, processed after all its siblings, would split nothing
        and is not queued; and a fragment larger than the rest of its parent
        is processed through its siblings, ordering each cell by descending
        sibling counts, untouched last.  The sibling walk is what keeps a
        refinement cheap: the untouched part of a split comes first, so it is
        queued, and after a vertex is individualized it is usually most of a
        cell: walked directly, it would cost O(n) per child rather than the
        arcs of its smaller siblings.  Order inside a cell is arbitrary."""
        lab, pos, cell, first, size = part
        out_adj, in_adj, digon_adj = self.g.out_adj, self.g.in_adj, self.digon_adj
        # a (out, in, digon) count key packed base n + 1: integer order is
        # tuple order
        out_w, in_w = (self.n + 1) ** 2, self.n + 1
        queue = deque(queue)
        while queue:
            a, b, parent = queue.popleft()
            through_siblings = parent is not None and 2 * (b - a) > parent[1] - parent[0]
            if through_siblings:
                splitter = lab[parent[0]:a] + lab[b:parent[1]]
            else:
                splitter = lab[a:b]
            key: dict[int, int] = {}
            get = key.get
            for u in splitter:
                for v in in_adj[u]:
                    key[v] = get(v, 0) + out_w
                for v in out_adj[u]:
                    key[v] = get(v, 0) + in_w
                for v in digon_adj[u]:
                    key[v] = get(v, 0) + 1
            hit: dict[int, list[int]] = {}
            for v in key:
                c = cell[v]
                if size[c] > 1:
                    if c in hit:
                        hit[c].append(v)
                    else:
                        hit[c] = [v]
            for c in sorted(hit, key=first.__getitem__):
                touched = hit[c]
                touched.sort(key=key.__getitem__, reverse=through_siblings)
                lo, hi = first[c], first[c] + size[c]
                if len(touched) == size[c] and key[touched[0]] == key[touched[-1]]:
                    continue
                # the touched vertices go to the cell's front or back, in order
                t0 = lo if through_siblings else hi - len(touched)
                for q, v in enumerate(touched, t0):
                    p, w = pos[v], lab[q]
                    lab[p], pos[w] = w, p
                    lab[q], pos[v] = v, q
                frags = [q for q in range(t0, t0 + len(touched))
                         if q == t0 or key[lab[q]] != key[lab[q - 1]]]
                if len(touched) < size[c]:
                    untouched = t0 + len(touched) if through_siblings else lo
                    frags.append(untouched)
                    frags.sort()
                else:
                    untouched = lo
                ends = frags[1:] + [hi]
                for f, g in zip(frags, ends):
                    if f == untouched:
                        first[c], size[c] = f, g - f
                        continue
                    new = len(first)
                    first.append(f)
                    size.append(g - f)
                    for v in lab[f:g]:
                        cell[v] = new
                queue.extend((f, g, (lo, hi)) for f, g in zip(frags[:-1], ends))
        return part

    # -- search ----------------------------------------------------------------

    def automorphisms(self) -> Iterator[list[int]]:
        """Run the search, yielding each automorphism found (as its list of
        images) the moment it is found.

        The automorphisms found at a level and below fix the path vertices
        above it, and together they carry the level's path vertex onto every
        branch in its orbit under that pointwise stabilizer.  So when a level
        is done, the path vertex's class in ``orbits`` is that orbit, and
        ``order`` takes its length as a factor: the product over the levels
        is |Aut| (see the module docstring)."""
        first, size = self.root[3], self.root[4]
        part = self._refine(self.root, [(f, f + k, None) for f, k in zip(first, size)])
        path: list[tuple[_Partition, int, list[int]]] = []  # per level
        while True:
            self.nodes += 1
            shape, singles, target = _summary(part)
            self.first_info.append((shape, singles))
            if target is None:
                break
            branches = _cell(part, target)
            path.append((part, target, branches))
            part = self._child(part, target, branches[0])
        self.first_leaf = tuple(part[0])
        for depth in range(len(path) - 1, -1, -1):
            part, target, branches = path[depth]
            explored = [branches[0]]
            for v in branches[1:]:
                rv = self.orbits.find(v)
                if any(self.orbits.find(w) == rv for w in explored):
                    continue
                images = self._witness(part, target, v, depth + 1)
                if images is not None:
                    yield images
                explored.append(v)
            self.order *= self.orbits.orbit_length(branches[0])

    def _child(self, part: _Partition, target: int, v: int) -> _Partition:
        """The refined partition after individualizing v in the cell starting
        at ``target``: v becomes a singleton cell there, before the rest."""
        lab, pos, cell, first, size = (list(a) for a in part)
        p, w = pos[v], lab[target]
        lab[p], pos[w] = w, p
        lab[target], pos[v] = v, target
        rest = cell[v]
        end = first[rest] + size[rest]
        first[rest], size[rest] = target + 1, size[rest] - 1
        cell[v] = len(first)
        first.append(target)
        size.append(1)
        # the rest is the last fragment of the target cell: never a splitter
        return self._refine((lab, pos, cell, first, size), [(target, target + 1, (target, end))])

    def _witness(self, part: _Partition, target: int, v: int,
                 depth: int) -> list[int] | None:
        """Depth-first, left to right, below branch v of the target cell until
        a leaf yields an automorphism, which is returned (None if none does).
        Stack entries are nodes not yet refined: (parent partition, target
        cell, branch vertex, depth)."""
        stack = [(part, target, v, depth)]
        while stack:
            part, target, v, depth = stack.pop()
            part = self._child(part, target, v)
            self.nodes += 1
            shape, singles, target = _summary(part)
            first_shape, first_singles = self.first_info[depth]
            if shape != first_shape or not self._consistent(first_singles, singles):
                continue
            if target is not None:
                stack.extend((part, target, u, depth + 1)
                             for u in reversed(_cell(part, target)))
            else:
                images = self._leaf(part[0])
                if images is not None:
                    return images
        return None

    def _leaf(self, leaf: list[int]) -> list[int] | None:
        images = [0] * self.n
        for a, b in zip(self.first_leaf, leaf):
            images[a] = b
        # colors hold by construction (cells refine color classes positionally)
        if not self.g.is_automorphism(images, respect_colors=False):
            return None
        # never a member of the group found so far: it fixes the path above its
        # level and maps the path vertex there outside that vertex's orbit
        self.orbits.merge(images)
        return images

    def _consistent(self, first_singles: tuple[int, ...],
                    singles: tuple[int, ...]) -> bool:
        """Partial-map pruning: the position-aligned singleton vertices must
        already induce an arc-preserving bijection.  Called only after the
        shapes matched, so both singleton lists sit at the same positions."""
        amap: dict[int, int] = {}
        mask_a = 0
        mask_b = 0
        for a, b in zip(first_singles, singles):
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


def _summary(part: _Partition):
    """(cell-size shape, the vertex of each singleton cell in position order,
    first index of the first smallest non-singleton cell or None when the
    partition is discrete)."""
    lab, _, cell, _, size = part
    shape, singles = [], []
    target, smallest = None, len(lab) + 1
    q = 0
    while q < len(lab):
        k = size[cell[lab[q]]]
        shape.append(k)
        if k == 1:
            singles.append(lab[q])
        elif k < smallest:
            target, smallest = q, k
        q += k
    return tuple(shape), tuple(singles), target


def _cell(part: _Partition, q: int) -> list[int]:
    """The vertices of the cell starting at index q, sorted: order inside a
    cell is arbitrary, and only the target cell's order (the branch order)
    is part of the search's output."""
    lab, _, cell, _, size = part
    return sorted(lab[q:q + size[cell[lab[q]]]])
