"""Permutations and permutation groups with exact big-integer orders.

Permutations act on points 0..n-1 and compose left to right: ``(a * b)(x)
== b(a(x))``, i.e. "apply a, then b".  Groups are represented by a
deterministic stabilizer chain (Schreier-Sims), which gives the exact
order, a membership test and orbits.  Every generator enters a chain
through one method, ``PermGroup._extend``.  Sifting runs on raw image
tuples, and each level caches the inverse images of a transversal element
the first time a sift needs them.  Each level records the (orbit
point, strong generator) pairs whose Schreier generators it has verified,
so each is sifted once while the level's transversal stands (the
incremental Schreier-Sims of Seress, *Permutation Group Algorithms*, ch. 4).
``OrbitPartition`` is the union-find shared by ``PermGroup.orbits`` and the
automorphism search; ``closure`` keeps generators as the chain does, with no chain.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Callable, Iterable, Sequence

from .errors import FormatError, fields

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class Permutation:
    """An immutable permutation of 0..n-1, stored in one-line notation."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(int(i) for i in images)
        n = len(images)
        seen = [False] * n
        for i in images:
            if not 0 <= i < n or seen[i]:
                raise ValueError(f"not a permutation of 0..{n - 1}: {images}")
            seen[i] = True
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> Permutation:
        """Wrap a tuple already known to be a permutation, skipping the
        validation in ``__init__``: products and inverses of permutations
        are permutations."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "images", images)
        return perm

    @classmethod
    def identity(cls, degree: int) -> Permutation:
        return cls._unchecked(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, text: str, degree: int) -> Permutation:
        """Parse cycle notation like ``(0 1 2)(3 4)``; ``()`` is the identity.

        Commas, ASCII spaces and tabs separate points.  Points not mentioned
        are fixed, and no point may appear twice, in one cycle or in two.
        """
        line = " ".join(fields(text))  # one space between fields, none at the ends
        if not re.fullmatch(r"(\([0-9, ]*\) ?)*", line):
            raise FormatError(f"cannot parse permutation: {text!r}")
        try:
            cycles = [[int(point) for point in fields(body.replace(",", " "))]
                      for body in _CYCLE_RE.findall(line)]
        except ValueError as exc:  # more digits than int() reads
            raise FormatError(f"point with too many digits for degree {degree}") from exc
        mentioned = [p for points in cycles for p in points]
        if any(p >= degree for p in mentioned):
            raise FormatError(f"point out of range for degree {degree}: {text!r}")
        if len(mentioned) != len(set(mentioned)):
            raise FormatError(f"repeated point in cycle notation: {text!r}")
        images = list(range(degree))
        for points in cycles:
            for a, b in zip(points, points[1:]):
                images[a] = b
            if points:
                images[points[-1]] = points[0]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: Permutation) -> Permutation:
        """self, then other."""
        if len(other.images) != len(self.images):
            raise ValueError(f"degrees differ: {len(self.images)} and {len(other.images)}")
        return Permutation._unchecked(tuple(map(other.images.__getitem__, self.images)))

    def inverse(self) -> Permutation:
        return Permutation._unchecked(_inverse_images(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point, sorted."""
        out = []
        seen = [False] * len(self.images)
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()!r}, degree={self.degree})"


def _inverse_images(images: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(images)
    for i, j in enumerate(images):
        inv[j] = i
    return tuple(inv)


class _Level:
    """One level of a stabilizer chain: a base point, the strong generators
    added at this level with their bits (``1 << serial``, the serial counting
    the chain's strong generators in the order they were added), the
    transversal of the base point's orbit, ``inverses``, the inverse images of
    the transversal elements that sifts have used so far, and ``checked``,
    which maps an orbit point p to the bits of the strong generators s whose
    Schreier generator at (p, s) is known to lie in the group of the deeper
    levels.  A rebuilt orbit keeps ``inverses`` and ``checked`` only when
    every transversal element the level had comes out unchanged."""

    __slots__ = ("point", "gens", "bits", "transversal", "inverses", "checked")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens: list[Permutation] = []
        self.bits: list[int] = []
        self.transversal = {point: Permutation.identity(degree)}
        self.inverses: dict[int, tuple[int, ...]] = {}
        self.checked: dict[int, int] = {}

    def inverse(self, p: int) -> tuple[int, ...]:
        """The images of ``transversal[p]``'s inverse, computed once."""
        inv = self.inverses.get(p)
        if inv is None:
            inv = self.inverses[p] = _inverse_images(self.transversal[p].images)
        return inv


class OrbitPartition:
    """Union-find over the points 0..degree-1; each class's root is its least
    point, and ``size[r]`` is the size of the class rooted at r."""

    def __init__(self, degree: int):
        self.parent = list(range(degree))
        self.size = [1] * degree

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def orbit_length(self, x: int) -> int:
        return self.size[self.find(x)]

    def merge(self, images: Sequence[int]) -> bool:
        """Join each point i with images[i]: add one generator's orbits.
        True when two classes were joined."""
        find, parent, size = self.find, self.parent, self.size
        joined = False
        for i, j in enumerate(images):
            ri, rj = find(i), find(j)
            if ri != rj:
                lo, hi = (ri, rj) if ri < rj else (rj, ri)
                parent[hi] = lo
                size[lo] += size[hi]
                joined = True
        return joined


class PermGroup:
    """A permutation group given by generators, with a stabilizer chain.

    The chain is built deterministically (breadth-first orbits, generators
    in insertion order, new base points chosen as the least moved point),
    so generator lists and transversals are reproducible.
    """

    def __init__(self, degree: int, generators: Iterable[Permutation | Sequence[int]]):
        self.degree = int(degree)
        self._identity = tuple(range(self.degree))
        self._levels: list[_Level] = []
        self._serial = 0
        self.generators: list[Permutation] = []
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            if g.degree != self.degree:
                raise ValueError(f"generator degree {g.degree} != group degree {self.degree}")
            self._extend(g)

    # -- chain construction ------------------------------------------------

    def _strong_at(self, level: int) -> list[tuple[int, Permutation]]:
        # (bit, generator) for each strong generator fixing the first `level`
        # base points pointwise, level by level.
        return [pair for lvl in self._levels[level:] for pair in zip(lvl.bits, lvl.gens)]

    def _rebuild_orbit(self, level: int) -> None:
        """Rebuild the level's orbit and transversal breadth-first.  Each tree
        edge (p, s) is recorded as checked: t_p * s is t_{s(p)} by
        construction.  The cached inverses and the other checked pairs stay
        when every point the orbit had keeps its transversal element, and
        are dropped otherwise."""
        lvl = self._levels[level]
        strong = self._strong_at(level)
        old = lvl.transversal
        transversal = {lvl.point: old[lvl.point]}
        tree: dict[int, int] = {}
        queue = deque([lvl.point])
        while queue:
            p = queue.popleft()
            t_p = transversal[p]
            for bit, s in strong:
                q = s(p)
                if q not in transversal:
                    transversal[q] = t_p * s
                    tree[p] = tree.get(p, 0) | bit
                    queue.append(q)
        lvl.transversal = transversal
        if all(transversal[p].images == t.images for p, t in old.items()):
            checked = lvl.checked
            for p, bits in tree.items():
                checked[p] = checked.get(p, 0) | bits
        else:
            lvl.checked = tree
            lvl.inverses = {}

    def _strip(self, images: tuple[int, ...], start: int = 0) -> tuple[tuple[int, ...], int]:
        """Sift a permutation's images through the chain from level
        ``start``; return (residue images, level it stuck at)."""
        levels = self._levels
        for i in range(start, len(levels)):
            lvl = levels[i]
            p = images[lvl.point]
            if p == lvl.point:
                continue
            if p not in lvl.transversal:
                return images, i
            inv = lvl.inverses.get(p) or lvl.inverse(p)  # the hit inline: hot loop
            images = tuple(map(inv.__getitem__, images))
        return images, len(levels)

    def _extend(self, g: Permutation) -> bool:
        """Add a generator, repairing the chain.  Returns False, changing
        nothing, when g is already a member (the identity included).

        ``pending`` stacks the levels still to complete, the next on top.  A
        residue stuck at level ``at`` while ``level`` is checked joins the
        chain, and levels ``at`` down to ``level + 1`` are completed first."""
        residue, at = self._strip(g.images)
        if residue == self._identity:
            return False
        self._add_strong(Permutation._unchecked(residue), at)
        pending = list(range(at + 1))
        while pending:
            level = pending[-1]
            self._rebuild_orbit(level)
            found = self._schreier_residue(level)
            if found is None:
                pending.pop()
            else:
                self._add_strong(*found)
                pending.extend(range(level + 1, found[1] + 1))
        self.generators.append(g)
        return True

    def _add_strong(self, residue: Permutation, at: int) -> None:
        """Make residue a strong generator at level ``at``, opening it if new,
        with the next serial's bit."""
        if at == len(self._levels):
            moved = next(i for i, j in enumerate(residue.images) if i != j)
            self._levels.append(_Level(moved, self.degree))
        lvl = self._levels[at]
        lvl.gens.append(residue)
        lvl.bits.append(1 << self._serial)
        self._serial += 1

    def _schreier_residue(self, level: int) -> tuple[Permutation, int] | None:
        """The first Schreier generator of the level whose residue through
        the deeper chain is not the identity, as (residue, level it stuck
        at); None when the level is complete.  A generator is the identity
        exactly when t_p * s equals the transversal element of s(p), which
        is tested before any inverse is looked up.

        Pairs (p, s) in ``checked`` are skipped, and each pair found to be a
        member is added to it.  A skipped pair would pass here again: the
        deeper levels are complete whenever this runs (``_extend`` completes
        them first), the group they generate only grows, and its Schreier
        generator is unchanged while t_p and t_{s(p)} are.  So the scan
        returns the same residue as a scan of every pair."""
        lvl = self._levels[level]
        transversal, checked = lvl.transversal, lvl.checked
        strong = [(bit, s.images) for bit, s in self._strong_at(level)]
        every = sum(bit for bit, _ in strong)
        for p, t_p in transversal.items():
            done = checked.get(p, 0)
            if done == every:
                continue
            t = t_p.images
            for bit, s in strong:
                if done & bit:
                    continue
                t_ps = tuple(map(s.__getitem__, t))
                q = s[p]
                if t_ps != transversal[q].images:
                    residue, at = self._strip(tuple(map(lvl.inverse(q).__getitem__, t_ps)),
                                              level + 1)
                    if residue != self._identity:
                        checked[p] = done
                        return Permutation._unchecked(residue), at
                done |= bit
            checked[p] = done
        return None

    # -- queries -----------------------------------------------------------

    @property
    def order(self) -> int:
        n = 1
        for lvl in self._levels:
            n *= len(lvl.transversal)
        return n

    def contains(self, g: Permutation | Sequence[int]) -> bool:
        if not isinstance(g, Permutation):
            g = Permutation(g)
        if g.degree != self.degree:
            return False
        residue, _ = self._strip(g.images)
        return residue == self._identity

    def __contains__(self, g) -> bool:
        return self.contains(g)

    def orbits(self) -> list[list[int]]:
        """Orbit partition of 0..degree-1, each orbit sorted, ordered by min."""
        classes = OrbitPartition(self.degree)
        for g in self.generators:
            classes.merge(g.images)
        buckets: dict[int, list[int]] = {}
        for v in range(self.degree):
            buckets.setdefault(classes.find(v), []).append(v)
        return [buckets[r] for r in sorted(buckets)]

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"


def generators_fix_setwise(generators: Iterable[Permutation], points: Iterable[int]) -> bool:
    """True iff every generator, and so the group they generate, maps the
    point set onto itself."""
    s = set(points)
    return all({g(p) for p in s} == s for g in generators)


def then(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The images of "a, then b", for permutations given as image tuples."""
    return tuple(map(b.__getitem__, a))


def closure(elements: Iterable, mul: Callable, identity) -> tuple[list, set]:
    """The elements, in order, outside the group generated by those kept
    before them (the rule of ``PermGroup._extend``, so on permutations the
    chain's generators), and the set of the group they generate.  Dimino's
    algorithm (Butler, *Fundamental Algorithms for Permutation Groups*, LNCS
    559, 1991): a new generator adds whole right cosets of the group before
    it, one per product of a coset representative and a generator outside."""
    kept, group = [], {identity}
    for g in elements:
        if g in group:
            continue
        kept.append(g)
        old, reps = list(group), [identity]
        for r in reps:
            for s in kept:
                y = mul(r, s)
                if y not in group:
                    reps.append(y)
                    group.update([mul(h, y) for h in old])
    return kept, group
