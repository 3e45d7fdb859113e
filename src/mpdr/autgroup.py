"""Exact automorphism groups of digraphs.

A digraph's vertex colors are data: when it has them, an automorphism must
keep every color class, and no flag switches that off.

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
So :func:`automorphisms` reads the order and the generators off the search
and builds no stabilizer chain; ``verify.is_pdr``, the searches and the
CLI's ``verify`` and ``aut`` read their answers from it, and
:func:`first_automorphism` stops at the first automorphism found: a
digraph is rigid when it returns None.
A chain is built only on the first read of ``AutSearchResult.group``: by
:func:`automorphism_search`, once, from the generator list, with its order
checked against the search's.  The brute-force oracle returns the same
report, its generators kept by ``perms.closure``, and builds no chain.
The report holds no clock and no JSON form: the CLI times the call and
writes the document (``cli._emit``).

A caller that already has some automorphisms passes them to
:func:`automorphisms` as ``known`` image sequences; each is checked once
with ``Digraph.is_automorphism``, and a map that is not an automorphism is
refused with ValueError.  Orbit pruning is valid for any known group of
automorphisms (McKay & Piperno 2014), but the orbits a level merges must
come from automorphisms that fix the path above it, so the known maps are
merged only at depth 0, where nothing is fixed above: after the deeper
levels are done and just before depth 0's branches.  Each one that joins
two orbits is kept as a generator, so the order is still the orbit product
and the generators still generate Aut.  ``verify`` seeds its searches of
Aut with R(G) this way; no other caller passes ``known``.

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

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .digraphs import Digraph
from .errors import CapExceededError
from .perms import OrbitPartition, PermGroup, Permutation, closure, then

VERTEX_CAP = 2048
BRUTE_FORCE_CAP = 9

# (lab, pos, cell, first, size): the vertices cell by cell, each vertex's
# index in lab, each vertex's cell id, and each cell's first index and size
_Partition = tuple[list[int], list[int], list[int], list[int], list[int]]


@dataclass
class AutSearchResult:
    """What one search (or the brute-force oracle) found: |Aut| and the
    automorphisms it kept, each outside the group generated by those before
    it, so they are exactly the generators a ``PermGroup`` keeps."""

    degree: int
    order: int
    generators: list[Permutation]
    nodes_explored: int

    @functools.cached_property
    def group(self) -> PermGroup:
        """The stabilizer chain of the generators, built on first read.  Its
        order must be ``order``: the search's orbit product, or the oracle's
        count of survivors; a disagreement raises RuntimeError."""
        group = PermGroup(self.degree, self.generators)
        if group.order != self.order:
            raise RuntimeError(f"stabilizer chain order {group.order} disagrees with "
                               f"the reported order {self.order}")
        return group


def automorphism_search(digraph: Digraph) -> AutSearchResult:
    """Like :func:`automorphisms`, with the stabilizer chain (``group``)
    built before it returns.  No caller in the package uses it: the
    benchmark (``perfbench/``) calls it and wraps it by name."""
    result = automorphisms(digraph)
    result.group  # builds the chain, which checks the search's order
    return result


def automorphisms(digraph: Digraph, known: Iterable[Sequence[int]] = ()) -> AutSearchResult:
    """|Aut|, its generators and the search statistics, read off the search:
    no stabilizer chain is built unless ``group`` is read.  ``known`` holds
    automorphisms the caller already has, as image sequences, to seed the
    search with (see the module docstring); one that is not an
    automorphism raises ValueError."""
    search = _AutSearch(digraph, known)
    generators = [Permutation(images) for images in search.run()]
    return AutSearchResult(digraph.n, search.order, generators, search.nodes)


def first_automorphism(digraph: Digraph) -> tuple[int, ...] | None:
    """The first automorphism the search finds, as its tuple of images, or
    None when the group is trivial: the search never yields the identity,
    and it stops at the first one."""
    images = next(_AutSearch(digraph).run(), None)
    return None if images is None else tuple(images)


def check_vertex_count(n: int, *, brute_force: bool = False) -> None:
    """Refuse a digraph on more vertices than the search's cap, or with
    ``brute_force`` the oracle's; callers that know n before building the
    digraph call it first."""
    if brute_force and n > BRUTE_FORCE_CAP:
        raise CapExceededError(f"brute force capped at {BRUTE_FORCE_CAP} vertices")
    if n > VERTEX_CAP:
        raise CapExceededError(
            f"automorphism search capped at {VERTEX_CAP} vertices, got {n}")


def brute_force_automorphisms(digraph: Digraph) -> AutSearchResult:
    """Independent oracle: filter all n! vertex permutations by arc and
    color preservation (n <= 9).  ``order`` counts the survivors, of which
    ``perms.closure`` keeps the ``generators``, and ``nodes_explored`` is n!."""
    n = digraph.n
    check_vertex_count(n, brute_force=True)
    col = digraph.vertex_color
    arcs = digraph.arcs()
    out_bits = digraph.out_bits
    count = 0

    def survivors() -> Iterator[tuple[int, ...]]:
        nonlocal count
        for p in itertools.permutations(range(n)):
            if col is not None and any(col[p[v]] != col[v] for v in range(n)):
                continue
            for u, v in arcs:
                if not out_bits[p[u]] >> p[v] & 1:
                    break
            else:
                count += 1
                yield p

    generators, _ = closure(survivors(), then, tuple(range(n)))
    return AutSearchResult(n, count, [Permutation._unchecked(g) for g in generators],
                           math.factorial(n))


class _AutSearch:
    """One individualize-and-refine run over a digraph within the vertex cap."""

    def __init__(self, digraph: Digraph, known: Iterable[Sequence[int]] = ()):
        check_vertex_count(digraph.n)
        self.g = digraph
        self.known = [tuple(images) for images in known]
        for k, images in enumerate(self.known):
            if not digraph.is_automorphism(images):
                raise ValueError(f"known map {k} is not an automorphism of the digraph")
        n = self.n = digraph.n
        self.out_bits = digraph.out_bits
        if digraph.vertex_color is None:
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
        self.nodes = 0
        # |Aut| once run() is exhausted: the product, over the levels done
        # so far, of each path vertex's orbit length
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
        out_adj, in_adj, digon_adj = self.g.out_adj, self.g.in_adj, self.g.digon_adj
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
            # one hit cell and one touched vertex are the common case after an
            # individualization: neither needs a sort
            for c in hit if len(hit) == 1 else sorted(hit, key=first.__getitem__):
                touched = hit[c]
                if len(touched) > 1:
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

    def run(self) -> Iterator[list[int]]:
        """Run the search, yielding each automorphism found (as its list of
        images) the moment it is found.

        The automorphisms found at a level and below fix the path vertices
        above it, and together they carry the level's path vertex onto every
        branch in its orbit under that pointwise stabilizer.  So when a level
        is done, the path vertex's class in ``orbits`` is that orbit, and
        ``order`` takes its length as a factor: the product over the levels
        is |Aut| (see the module docstring).

        The known automorphisms are merged into ``orbits`` just before
        depth 0's branches (see the module docstring), and each one that
        joins two orbits is yielded: it lies outside the group found so far,
        as a witness does."""
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
            if depth == 0:
                for images in self.known:
                    if self.orbits.merge(images):
                        yield list(images)
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
                return self._leaf(part[0])
        return None

    def _leaf(self, leaf: list[int]) -> list[int]:
        """The map from the first leaf to a leaf that passed ``_consistent``:
        an automorphism, since that check found every arc's image to be an
        arc and the arc counts equal, and the colors hold by construction
        (cells refine the color classes position by position)."""
        images = [0] * self.n
        for a, b in zip(self.first_leaf, leaf):
            images[a] = b
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
