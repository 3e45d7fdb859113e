"""Command-line front end.

Subcommands: construct, verify, aut, export, search.  JSON reports are the
single source of truth, and this module alone knows their format: ``_emit``
writes every one, with the tool version, a sha256 of each input file, the
command's keys and one ``elapsed_seconds``, the seconds ``_timed`` measured
for the library call that computed the answer.  The library's result types
are plain records with no clock.  Exit codes are a stable contract:

  0  success (for ``verify``: the representation property holds)
  1  verified false
  2  a precondition or known-exception was hit, or memory ran out (the
     message explains it)
  3  unreadable or malformed input
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Callable

from . import __version__
from .autgroup import (BRUTE_FORCE_CAP, VERTEX_CAP, automorphisms,
                       brute_force_automorphisms, check_vertex_count)
from .cayley import ConnectionSpec, MCayleyDigraph
from .constructions import cyclic_2pdr, cyclic_mpdr, drr_to_2pdr, two_generated_mpdr
from .digraphs import Digraph
from .errors import (CapExceededError, FormatError, MpdrError, PreconditionError,
                     parse_int, read_text)
from .groups import CLOSURE_CAP, FiniteGroup
from .perms import Permutation
from .search import (EXHAUST_ORDER_CAP, SearchVerdict, check_exhaust_order,
                     exhaust_2partite_valency3, scan_valency2, translate_relation,
                     trivial_aut_3regular_search)
from .verify import check_pdr_input, is_pdr


def parse_group_text(text: str, check: Callable[[int], None] | None = None,
                     max_order: int = CLOSURE_CAP) -> FiniteGroup:
    """Parse the group file format, read by ``errors.read_text``: ``cyclic <n>``,
    or ``perm <degree>`` and one generator per line in cycle notation.  An n or
    degree above ``CLOSURE_CAP`` is refused unbuilt; else ``check``, if given, gets
    the order, for ``cyclic <n>`` before the table is built, else after a closure
    that stops past ``max_order``, the largest order ``check`` passes."""
    kind, n, body = read_text(text, {"cyclic": "cyclic order", "perm": "permutation degree"})
    if kind == "cyclic":
        if body:
            raise FormatError("unexpected lines after 'cyclic <n>'")
        if n < 1:
            raise FormatError("cyclic order must be at least 1")
        if check is not None and n <= CLOSURE_CAP:
            check(n)
        return FiniteGroup.cyclic(n)
    if n > CLOSURE_CAP:  # a group within the cap acts regularly on |G| points
        raise CapExceededError(f"permutation degree {n} exceeds cap of {CLOSURE_CAP} points")
    gens = [Permutation.from_cycles(" ".join(line), n) for line in body]
    if not gens:
        raise FormatError("perm group file needs at least one generator line")
    try:
        group = FiniteGroup.from_permutations(n, gens, max_order=max_order)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    if check is not None:
        check(group.order)
    return group


def _read(path: str, role: str, inputs: dict) -> str:
    """The text of an input file.  Records its path and the sha256 of the
    bytes read under ``role`` in ``inputs``: a pipe cannot be read twice."""
    try:
        data = Path(path).read_bytes()
        text = data.decode()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    inputs[role] = {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}
    return text


def _write(text: str, out: str | None) -> None:
    """Write ``text`` to the --out file, or to stdout without one."""
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise FormatError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _timed(compute: Callable) -> tuple[object, float]:
    """``compute()`` and the seconds it took: the one clock of the reports.
    A command calls it after its inputs are read and checked."""
    start = time.perf_counter()
    result = compute()
    return result, time.perf_counter() - start


def _emit(inputs: dict, body: dict, seconds: float, out: str | None) -> None:
    """Write a report document: the tool, the ``inputs`` read (path and
    sha256 each), the command's ``body`` and ``elapsed_seconds``, the
    ``_timed`` seconds of the call that computed the answer."""
    doc = {"tool": {"name": "mpdr", "version": __version__}, "inputs": inputs,
           **body, "elapsed_seconds": round(seconds, 6)}
    _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", out)


def _load_group(path: str, inputs: dict, check: Callable[[int], None] | None,
                max_order: int = CLOSURE_CAP) -> FiniteGroup:
    """The group of a --group file: the one place a group file is read.
    ``check`` and ``max_order`` are the command's cap on |G|: see ``parse_group_text``."""
    return parse_group_text(_read(path, "group", inputs), check, max_order)


def _load_group_and_spec(args, inputs: dict, check: Callable[[ConnectionSpec, int], None],
                         max_vertices: int | None) -> tuple[FiniteGroup, ConnectionSpec]:
    """The --spec and --group files, read in that order, so that ``check(spec,
    order)`` and ``max_vertices // m`` (None: none) are the cap ``_load_group`` applies."""
    spec = ConnectionSpec.from_json(_read(args.spec, "spec", inputs))
    return _load_group(args.group, inputs, lambda order: check(spec, order),
                       CLOSURE_CAP if max_vertices is None else max_vertices // spec.m), spec


def _load_digraph_args(args, inputs: dict, check: Callable[[int], None] | None,
                       max_vertices: int | None) -> tuple[Digraph, MCayleyDigraph | None]:
    """The digraph of --digraph, or of --group and --spec, with the m-Cayley
    digraph it was built as (None for --digraph).  ``check``, when given, is
    called with the vertex count before the digraph is built: from a
    --digraph file's header, or as m * |G| before a ``cyclic <n>`` table.
    ``max_vertices`` is the largest count it passes.  --digraph with --group
    or --spec is refused before any file is read."""
    if args.digraph:
        _check_flags(args, "--digraph")
        return Digraph.from_text(_read(args.digraph, "digraph", inputs), check), None
    if not (args.group and args.spec):
        raise FormatError("need either --digraph or both --group and --spec")
    x = MCayleyDigraph(*_load_group_and_spec(
        args, inputs, lambda spec, order: check(spec.m * order) if check else None,
        max_vertices))
    return x.digraph, x


def _check_elements(group: FiniteGroup, flag: str, elements) -> None:
    """Refuse, as a bad flag value, an element index outside 0..|G|-1."""
    for e in elements:
        if not 0 <= e < group.order:
            raise FormatError(f"{flag} element {e} out of range for group order "
                              f"{group.order}")


# -- subcommands ----------------------------------------------------------------


def _cmd_construct(args) -> int:
    _check_flags(args, args.family)
    if args.family == "cyclic-2pdr":
        spec = cyclic_2pdr(args.n)
        summary = f"2-part valency-3 spec for cyclic group of order {args.n}"
    elif args.family == "cyclic-mpdr":
        spec = cyclic_mpdr(args.n, args.m)
        summary = f"{args.m}-part valency-3 spec for cyclic group of order {args.n}"
    elif args.family == "two-gen-mpdr":
        group = _load_group(args.group, {}, None)
        if (args.x is None) != (args.y is None):
            raise FormatError("two-gen-mpdr needs both --x and --y, or neither")
        if args.x is not None:
            _check_elements(group, "--x", [args.x])
            _check_elements(group, "--y", [args.y])
            x, y = args.x, args.y
        elif len(group.designated_generators) >= 2:
            x, y = group.designated_generators[:2]
        else:
            raise PreconditionError(
                "two-gen-mpdr needs two generators; pass --x and --y or use a "
                "group file with at least two generator lines")
        spec = two_generated_mpdr(group, x, y, args.m)
        summary = (f"{args.m}-part valency-3 spec for group of order {group.order} "
                   f"with generators {x}, {y}")
    elif args.family == "drr-extend":
        # every candidate is a 2-part digraph on 2|G| vertices
        group = _load_group(args.group, {}, lambda n: check_vertex_count(2 * n),
                            VERTEX_CAP // 2)
        try:
            connection = tuple(parse_int(tok) for tok in args.r.split(","))
        except ValueError as exc:
            raise FormatError(f"bad --r list: {args.r!r}") from exc
        _check_elements(group, "--r", connection)
        spec = drr_to_2pdr(group, connection)
        r_set = sorted(set(connection))
        summary = (f"2-part valency-{len(r_set) + 1} extension of the "
                   f"valency-{len(r_set)} DRR {r_set}")
    else:  # unreachable: argparse restricts choices
        raise FormatError(f"unknown family {args.family!r}")

    _write(spec.to_json(), args.out)
    if args.out:
        print(f"{summary}\nwrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    inputs: dict = {}
    group, spec = _load_group_and_spec(args, inputs, check_pdr_input, VERTEX_CAP)
    report, seconds = _timed(lambda: is_pdr(group, spec, color_blind=not args.parts_as_colors))
    witness = report.extra_automorphism_witness
    _emit(inputs, {"report": {
        **vars(report), "aut_order": str(report.aut_order),
        "extra_automorphism_witness": None if witness is None else witness.cycle_string(),
    }}, seconds, args.out)
    return 0 if report.is_pdr else 1


def _cmd_aut(args) -> int:
    inputs: dict = {}
    digraph, x = _load_digraph_args(
        args, inputs, lambda n: check_vertex_count(n, brute_force=args.oracle),
        BRUTE_FORCE_CAP if args.oracle else VERTEX_CAP)
    if x is not None:  # the parts are vertex colors
        digraph = x.part_colored()
    result, seconds = _timed(
        lambda: (brute_force_automorphisms if args.oracle else automorphisms)(digraph))
    body = {"mode": "oracle" if args.oracle else "search",
            "aut": {"degree": result.degree, "order": str(result.order),
                    "generators": [g.cycle_string() for g in result.generators]}}
    if not args.oracle:
        body["nodes_explored"] = result.nodes_explored
    _emit(inputs, body, seconds, args.out)
    return 0


def _cmd_export(args) -> int:
    digraph, x = _load_digraph_args(args, {}, None, None)
    labels = None if x is None else [x.vertex_label(v) for v in range(digraph.n)]
    _write(digraph.to_dot(labels), args.out)
    return 0


# The flags each search problem (and rigid3 mode), each construct family and
# an aut or export --digraph needs, in the order its refusal names them, and
# the others it reads; and the default of every flag these commands take.  A
# flag that is not read is refused, not dropped, and so is a needed flag left
# out or given empty.
_READS = {
    "exhaust-negative": ((), {"n", "group"}),
    "rigid3 exhaustive mode": (("m",), {"mode", "oriented", "jobs"}),
    "rigid3 randomized mode": (("m",), {"mode", "oriented", "budget", "seed"}),
    "drr2": (("group",), set()),
    "cyclic-2pdr": (("n",), set()),
    "cyclic-mpdr": (("n", "m"), set()),
    "two-gen-mpdr": (("group", "m"), {"x", "y"}),
    "drr-extend": (("group", "r"), set()),
    "--digraph": ((), set()),
}
_DEFAULTS = {"m": None, "mode": "exhaustive", "budget": 1000, "oriented": False,
             "jobs": 1, "seed": 0, "n": None, "group": None, "x": None, "y": None,
             "r": None, "spec": None}


def _check_flags(args, what: str) -> None:
    """Refuse every flag ``what`` does not read that was given a value other
    than its default (a flag the command lacks is at its default), then any
    flag it needs that is None or empty, naming all it needs and the family
    or problem (``rigid3``, not its mode)."""
    needs, reads = _READS[what]
    reads = {*needs, *reads}
    unread = [f"--{name}" for name, default in _DEFAULTS.items()
              if name not in reads and getattr(args, name, default) != default]
    if unread:
        raise FormatError(f"{what} does not take {', '.join(unread)}")
    if any(getattr(args, name) in (None, "") for name in needs):
        needed = " and ".join(f"--{name}" for name in needs)
        raise FormatError(f"{what.split()[0]} needs {needed}")


def _cmd_search(args) -> int:
    _check_flags(args, f"rigid3 {args.mode} mode" if args.problem == "rigid3"
                 else args.problem)
    inputs: dict = {}
    if args.problem == "exhaust-negative":
        if args.group and args.n is not None:
            raise FormatError("exhaust-negative takes --n or --group, not both")
        if args.group:
            group = _load_group(args.group, inputs, check_exhaust_order,
                                EXHAUST_ORDER_CAP)
        elif args.n is not None:
            group = parse_group_text(f"cyclic {args.n}", check_exhaust_order)
        else:
            raise FormatError("exhaust-negative needs --n or --group")
        recs, seconds = _timed(lambda: [
            {"t01": list(t01), "t10": list(t10), "aut_order": order,
             "shift_exponent": translate_relation(group, t01, t10)}
            for (t01, t10), order in exhaust_2partite_valency3(group)])
        _emit(inputs, {
            "problem": "exhaust-negative",
            "parameters": {"group_order": group.order},
            "records": recs,
            "all_exceed_group_order": all(r["aut_order"] > group.order for r in recs),
        }, seconds, args.out)
        return 0
    if args.problem == "rigid3":
        verdict, seconds = _timed(lambda: trivial_aut_3regular_search(
            args.m, args.mode, budget=args.budget, oriented=args.oriented,
            jobs=args.jobs, seed=args.seed))
    else:  # drr2
        # each Cayley digraph searched has |G| vertices
        group = _load_group(args.group, inputs, check_vertex_count, VERTEX_CAP)
        (pair, tested), seconds = _timed(lambda: scan_valency2(group, inverse_free=False))
        verdict = SearchVerdict(
            "drr2", {"group_order": group.order},
            "none-exists" if pair is None else "witness-found",
            None if pair is None else {"pair": list(pair)}, tested)
    _emit(inputs, vars(verdict), seconds, args.out)
    return 0


def _integer(minimum: int | None = None):
    """An argparse type: a ``parse_int`` integer, no smaller than ``minimum``."""
    def integer(text: str) -> int:
        value = parse_int(text)
        if minimum is not None and value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return integer


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mpdr",
        description="m-partite Cayley digraphs: construct, verify, and search")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a connection-set spec from a family")
    p.add_argument("--family", required=True,
                   choices=["cyclic-2pdr", "cyclic-mpdr", "two-gen-mpdr", "drr-extend"])
    p.add_argument("--n", type=_integer(1), help="cyclic group order")
    p.add_argument("--m", type=_integer(1), help="number of parts")
    p.add_argument("--group", help="group file (for two-gen-mpdr / drr-extend)")
    p.add_argument("--x", type=_integer(), help="first generator index")
    p.add_argument("--y", type=_integer(), help="second generator index")
    p.add_argument("--r", help="comma-separated connection set for drr-extend")
    p.add_argument("--out", help="write the spec here instead of stdout")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check the representation property")
    p.add_argument("--group", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--parts-as-colors", action="store_true",
                   help="restrict Aut to part-preserving maps (cross-check only)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("aut", help="automorphism group of a digraph")
    p.add_argument("--digraph", help="digraph file (arc-list format)")
    p.add_argument("--group", help="group file (with --spec); the parts are vertex "
                   "colors, so only part-preserving automorphisms are counted")
    p.add_argument("--spec", help="connection spec file (with --group)")
    p.add_argument("--oracle", action="store_true",
                   help="brute-force all permutations (degree <= 9)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_aut)

    p = sub.add_parser("export", help="export a digraph as DOT")
    p.add_argument("--digraph")
    p.add_argument("--group")
    p.add_argument("--spec")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("search", help="exhaustive and randomized searches")
    p.add_argument("--problem", required=True,
                   choices=["rigid3", "drr2", "exhaust-negative"])
    p.add_argument("--m", type=_integer(1), help="vertex count for rigid3")
    p.add_argument("--mode", choices=["exhaustive", "randomized"],
                   default=_DEFAULTS["mode"])
    p.add_argument("--budget", type=_integer(1), default=_DEFAULTS["budget"])
    p.add_argument("--oriented", action="store_true",
                   help="rigid3 variant: forbid digons")
    p.add_argument("--jobs", type=_integer(1), default=_DEFAULTS["jobs"],
                   help="rigid3 exhaustive mode runs one sequential scan: must be 1")
    p.add_argument("--seed", type=_integer(), default=_DEFAULTS["seed"])
    p.add_argument("--n", type=_integer(1), help="cyclic order for exhaust-negative")
    p.add_argument("--group", help="group file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_search)

    return top


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except (PreconditionError, CapExceededError, ValueError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except MpdrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("refused: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
