"""Spans and counters at the boundaries between mpdr modules.

The tracer replaces, at run time, each function or method that one mpdr
module calls in another with a wrapper that records a span: its name, start,
end, parent span and the benchmark instance it belongs to.  Nothing under
``src/`` changes.  A span's self time is its duration minus the time covered
by its child spans; a module's self time is the sum over its spans.  Spans
stay in memory and are written out by :meth:`Tracer.write` when the run ends.

Calls inside one module are not boundaries, so work done by a helper of
another module's type (``Permutation`` products inside ``groups``, say) is
charged to the caller.  ``Permutation`` constructions are only counted: one
span each would cost more than the work it times.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable

from mpdr import autgroup, cayley, cli, constructions, digraphs, groups, perms, search, verify

HARNESS = "harness"


def _after_aut(tracer, args, result):
    tracer.counts["autgroup.nodes"] += result.nodes_explored
    tracer.counts["autgroup.generators"] += len(result.group.generators)
    if tracer.open_modules["search"]:
        tracer.counts["search.aut_calls"] += 1


def _after_extend(tracer, args, result):
    tracer.counts["perms.extend_accepted"] += bool(result)


def _after_is_pdr(tracer, args, result):
    if tracer.open_names["drr_to_2pdr"]:
        tracer.counts["constructions.candidates_total"] += 1


def _after_group(tracer, args, result):
    tracer.counts["groups.elements"] += args[0].order


# (module, owner, attribute, callback run with (tracer, args, result)).
# A function is replaced in every mpdr namespace that imported it; a method
# or classmethod is replaced on its class.  ``PermGroup._extend`` is private
# but is autgroup's only entry into perms, so it is a boundary all the same.
BOUNDARIES = [
    ("autgroup", autgroup, "automorphism_search", _after_aut),
    ("perms", perms.PermGroup, "__init__", None),
    ("perms", perms.PermGroup, "_extend", _after_extend),
    ("perms", perms.PermGroup, "contains", None),
    ("digraphs", digraphs.Digraph, "__init__", None),
    ("digraphs", digraphs.Digraph, "is_automorphism", None),
    ("cayley", cayley.ConnectionSpec, "__post_init__", None),
    ("cayley", cayley.MCayleyDigraph, "__init__", None),
    ("cayley", cayley.MCayleyDigraph, "right_regular_group", None),
    ("cayley", cayley, "cayley_digraph", None),
    ("verify", verify, "is_pdr", _after_is_pdr),
    ("search", search, "exhaust_2partite_valency3", None),
    ("search", search, "exhaust_z2_m3_valency3", None),
    ("search", search, "trivial_aut_3regular_search", None),
    ("search", search, "find_valency2_drr", None),
    ("constructions", constructions, "cyclic_2pdr", None),
    ("constructions", constructions, "cyclic_mpdr", None),
    ("constructions", constructions, "two_generated_mpdr", None),
    ("constructions", constructions, "drr_to_2pdr", None),
    ("groups", groups.FiniteGroup, "__init__", _after_group),
    ("groups", groups.FiniteGroup, "cyclic", None),
    ("groups", groups.FiniteGroup, "from_permutations", None),
    ("cli", cli, "main", None),
]

MODULES = ["autgroup", "perms", "digraphs", "cayley", "verify", "search",
           "constructions", "groups", "cli"]


def _span_name(owner, attr: str) -> str:
    return f"{owner.__name__}.{attr}" if isinstance(owner, type) else attr


class Tracer:
    """Records spans while installed; one per traced run.  Spans are timed
    on ``now``, which must be the clock the benchmark times its passes with."""

    def __init__(self, now: Callable[[], float] = perf_counter):
        self.now = now
        self.spans: list = []          # (name, module, start, end, parent, instance)
        self.instance = None
        self.self_s: defaultdict[str, float] = defaultdict(float)     # by span name
        self.inclusive_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.open_names: Counter[str] = Counter()
        self.open_modules: Counter[str] = Counter()
        self.module_of: dict[str, str] = {}    # span name -> module
        self._stack: list[list] = []   # [span index, child seconds]
        self._undo: list = []

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name: str, module: str, fn, after):
        spans, stack = self.spans, self._stack
        open_names, open_modules = self.open_names, self.open_modules
        now = self.now
        self.module_of[name] = module

        def traced(*args, **kwargs):
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            open_names[name] += 1
            open_modules[module] += 1
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                open_names[name] -= 1
                open_modules[module] -= 1
                duration = end - start
                self.self_s[name] += duration - frame[1]
                self.inclusive_s[name] += duration
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                spans[frame[0]] = (name, module, start, end, parent, self.instance)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every boundary in BOUNDARIES and count Permutation builds."""
        namespaces = [m for k, m in sys.modules.items()
                      if m is not None and (k == "mpdr" or k.startswith("mpdr."))]
        for module, owner, attr, after in BOUNDARIES:
            name = _span_name(owner, attr)
            original = vars(owner)[attr]
            if isinstance(owner, type):
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(name, module, original.__func__, after))
                else:
                    wrapped = self._wrap(name, module, original, after)
                self._replace(owner, attr, original, wrapped)
                continue
            wrapped = self._wrap(name, module, original, after)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._replace(ns, key, original, wrapped)

        init = perms.Permutation.__init__
        counts = self.counts

        def counted_init(perm, images):
            counts["perms.permutations_built"] += 1
            init(perm, images)

        self._replace(perms.Permutation, "__init__", init, counted_init)

    def _replace(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def root(self, instance, fn):
        """Run one benchmark instance under a top-level harness span and
        return (result, start, end) as that span recorded them."""
        self.instance = instance
        index = len(self.spans)
        result = self._wrap("instance", HARNESS, fn, None)()
        _, _, start, end, _, _ = self.spans[index]
        return result, start, end

    # -- results ---------------------------------------------------------------

    def module_self_s(self) -> dict[str, float]:
        out = {m: 0.0 for m in [*MODULES, HARNESS]}
        for name, seconds in self.self_s.items():
            out[self.module_of[name]] += seconds
        return out

    def write(self, path, header: dict) -> None:
        """Write the spans as tab-separated lines after a JSON header line."""
        with open(path, "w") as fh:
            fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
            fh.write("span\tname\tmodule\tstart\tend\tparent\tinstance\n")
            for i, (name, module, start, end, parent, inst) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{module}\t{start:.9f}\t{end:.9f}\t{parent}\t{inst}\n")
