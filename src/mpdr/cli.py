"""Command-line front end.

Subcommands: construct, verify, aut, export, search.  JSON reports are the
single source of truth; every report embeds the tool version and a sha256
of each input file.  Exit codes are a stable contract:

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

from . import __version__
from .autgroup import automorphisms, brute_force_automorphisms, check_vertex_count
from .cayley import ConnectionSpec, build_m_cayley
from .constructions import cyclic_2pdr, cyclic_mpdr, drr_to_2pdr, two_generated_mpdr
from .digraphs import Digraph
from .errors import CapExceededError, FormatError, MpdrError, PreconditionError
from .groups import CLOSURE_CAP, FiniteGroup
from .perms import Permutation, group_json
from .search import (SearchVerdict, check_exhaust_order, exhaust_2partite_valency3,
                     scan_valency2, translate_relation, trivial_aut_3regular_search)
from .verify import is_pdr


def parse_group_text(text: str) -> FiniteGroup:
    """Parse the group file format: ``cyclic <n>``, or ``perm <degree>``
    followed by one generator per line in cycle notation."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise FormatError("empty group file")
    head = lines[0].split()
    if head[0] == "cyclic" and len(head) == 2:
        try:
            n = int(head[1])
        except ValueError as exc:
            raise FormatError(f"bad cyclic order: {head[1]!r}") from exc
        if len(lines) > 1:
            raise FormatError("unexpected lines after 'cyclic <n>'")
        if n < 1:
            raise FormatError("cyclic order must be at least 1")
        return FiniteGroup.cyclic(n)
    if head[0] == "perm" and len(head) == 2:
        try:
            degree = int(head[1])
        except ValueError as exc:
            raise FormatError(f"bad permutation degree: {head[1]!r}") from exc
        gens = [Permutation.from_cycles(ln, degree) for ln in lines[1:]]
        if not gens:
            raise FormatError("perm group file needs at least one generator line")
        try:
            return FiniteGroup.from_permutations(degree, gens)
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
    raise FormatError(f"group file must start with 'cyclic <n>' or 'perm <degree>', "
                      f"got {lines[0]!r}")


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


def _envelope(inputs: dict) -> dict:
    return {"tool": {"name": "mpdr", "version": __version__}, "inputs": inputs}


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_group(path: str, inputs: dict) -> FiniteGroup:
    return parse_group_text(_read(path, "group", inputs))


def _load_spec(path: str, inputs: dict) -> ConnectionSpec:
    return ConnectionSpec.from_json(_read(path, "spec", inputs))


def _load_digraph_args(args, inputs: dict, *,
                       searched: bool = False) -> tuple[Digraph, list[str] | None]:
    """The digraph of --digraph, or of --group and --spec.  When it is
    ``searched``, a spec over more vertices than the search takes is
    refused before it is built."""
    if args.digraph:
        return Digraph.from_text(_read(args.digraph, "digraph", inputs)), None
    if not (args.group and args.spec):
        raise FormatError("need either --digraph or both --group and --spec")
    group = _load_group(args.group, inputs)
    spec = _load_spec(args.spec, inputs)
    if searched:
        check_vertex_count(spec.m * group.order)
    x = build_m_cayley(group, spec)
    labels = [x.vertex_label(v) for v in range(x.digraph.n)]
    return x.digraph, labels


# -- subcommands ----------------------------------------------------------------


def _cmd_construct(args) -> int:
    if args.family == "cyclic-2pdr":
        if args.n is None:
            raise FormatError("cyclic-2pdr needs --n")
        spec = cyclic_2pdr(args.n)
        summary = f"2-part valency-3 spec for cyclic group of order {args.n}"
    elif args.family == "cyclic-mpdr":
        if args.n is None or args.m is None:
            raise FormatError("cyclic-mpdr needs --n and --m")
        spec = cyclic_mpdr(args.n, args.m)
        summary = f"{args.m}-part valency-3 spec for cyclic group of order {args.n}"
    elif args.family == "two-gen-mpdr":
        if not args.group or args.m is None:
            raise FormatError("two-gen-mpdr needs --group and --m")
        group = _load_group(args.group, {})
        if (args.x is None) != (args.y is None):
            raise FormatError("two-gen-mpdr needs both --x and --y, or neither")
        if args.x is not None and args.y is not None:
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
        if not args.group or not args.r:
            raise FormatError("drr-extend needs --group and --r")
        group = _load_group(args.group, {})
        try:
            connection = tuple(int(tok) for tok in args.r.split(","))
        except ValueError as exc:
            raise FormatError(f"bad --r list: {args.r!r}") from exc
        spec = drr_to_2pdr(group, connection)
        summary = (f"2-part valency-3 extension of the valency-{len(connection)} "
                   f"DRR {sorted(set(connection))}")
    else:  # unreachable: argparse restricts choices
        raise FormatError(f"unknown family {args.family!r}")

    if args.out:
        Path(args.out).write_text(spec.to_json())
        print(f"{summary}\nwrote {args.out}")
    else:
        sys.stdout.write(spec.to_json())
    return 0


def _cmd_verify(args) -> int:
    inputs: dict = {}
    group = _load_group(args.group, inputs)
    spec = _load_spec(args.spec, inputs)
    report = is_pdr(group, spec, color_blind=not args.parts_as_colors)
    doc = _envelope(inputs)
    doc["report"] = report.to_json_dict()
    _emit(doc, args.out)
    return 0 if report.is_pdr else 1


def _cmd_aut(args) -> int:
    inputs: dict = {}
    digraph, _ = _load_digraph_args(args, inputs, searched=True)
    if args.oracle:
        group = brute_force_automorphisms(digraph)
        doc = _envelope(inputs)
        doc["mode"] = "oracle"
        doc["aut"] = group.to_json_dict()
    else:
        result = automorphisms(digraph)
        doc = _envelope(inputs)
        doc["mode"] = "search"
        doc["aut"] = group_json(result.degree, result.order, result.generators)
        doc["nodes_explored"] = result.nodes_explored
    _emit(doc, args.out)
    return 0


def _cmd_export(args) -> int:
    digraph, labels = _load_digraph_args(args, {})
    text = digraph.to_dot(labels)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


# The search flags each problem (and rigid3 mode) reads, and every search
# flag's default: a flag a problem does not read is refused, not dropped.
_SEARCH_READS = {
    "exhaust-negative": {"n", "group"},
    "rigid3 exhaustive mode": {"m", "mode", "oriented", "jobs"},
    "rigid3 randomized mode": {"m", "mode", "oriented", "budget", "seed"},
    "drr2": {"group"},
}
_SEARCH_DEFAULTS = {"m": None, "mode": "exhaustive", "budget": 1000, "oriented": False,
                    "jobs": 1, "seed": 0, "n": None, "group": None}


def _cmd_search(args) -> int:
    what = f"rigid3 {args.mode} mode" if args.problem == "rigid3" else args.problem
    unread = [f"--{name}" for name, default in _SEARCH_DEFAULTS.items()
              if name not in _SEARCH_READS[what] and getattr(args, name) != default]
    if unread:
        raise FormatError(f"{what} does not take {', '.join(unread)}")
    inputs: dict = {}
    if args.problem == "exhaust-negative":
        if args.group and args.n is not None:
            raise FormatError("exhaust-negative takes --n or --group, not both")
        if args.group:
            group = _load_group(args.group, inputs)
        elif args.n is not None:
            # Refuse an order the sweep would refuse before building its
            # table; cyclic() refuses orders above its own cap unbuilt.
            if args.n <= CLOSURE_CAP:
                check_exhaust_order(args.n)
            group = FiniteGroup.cyclic(args.n)
        else:
            raise FormatError("exhaust-negative needs --n or --group")
        records = exhaust_2partite_valency3(group)
        recs = []
        for spec, order in records:
            shift = translate_relation(group, spec.set_for(0, 1), spec.set_for(1, 0))
            recs.append({
                "t01": list(spec.set_for(0, 1)),
                "t10": list(spec.set_for(1, 0)),
                "aut_order": order,
                "shift_exponent": shift,
            })
        doc = _envelope(inputs)
        doc.update({
            "problem": "exhaust-negative",
            "parameters": {"group_order": group.order},
            "records": recs,
            "all_exceed_group_order": all(r["aut_order"] > group.order for r in recs),
        })
        _emit(doc, args.out)
        return 0
    if args.problem == "rigid3":
        if args.m is None:
            raise FormatError("rigid3 needs --m")
        verdict = trivial_aut_3regular_search(
            args.m, args.mode, budget=args.budget, oriented=args.oriented,
            jobs=args.jobs, seed=args.seed)
    else:  # drr2
        if not args.group:
            raise FormatError("drr2 needs --group")
        group = _load_group(args.group, inputs)
        start = time.perf_counter()
        pair, tested = scan_valency2(group, inverse_free=False)
        verdict = SearchVerdict(
            "drr2", {"group_order": group.order},
            "none-exists" if pair is None else "witness-found",
            None if pair is None else {"pair": list(pair)},
            tested, time.perf_counter() - start)
    doc = _envelope(inputs)
    doc.update(verdict.to_json_dict())
    _emit(doc, args.out)
    return 0


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
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
    p.add_argument("--n", type=_at_least(1), help="cyclic group order")
    p.add_argument("--m", type=_at_least(1), help="number of parts")
    p.add_argument("--group", help="group file (for two-gen-mpdr / drr-extend)")
    p.add_argument("--x", type=int, help="first generator index")
    p.add_argument("--y", type=int, help="second generator index")
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

    p = sub.add_parser("export", help="export a digraph")
    p.add_argument("--format", choices=["dot"], default="dot")
    p.add_argument("--digraph")
    p.add_argument("--group")
    p.add_argument("--spec")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("search", help="exhaustive and randomized searches")
    p.add_argument("--problem", required=True,
                   choices=["rigid3", "drr2", "exhaust-negative"])
    p.add_argument("--m", type=_at_least(1), help="vertex count for rigid3")
    p.add_argument("--mode", choices=["exhaustive", "randomized"],
                   default=_SEARCH_DEFAULTS["mode"])
    p.add_argument("--budget", type=_at_least(0), default=_SEARCH_DEFAULTS["budget"])
    p.add_argument("--oriented", action="store_true",
                   help="rigid3 variant: forbid digons")
    p.add_argument("--jobs", type=_at_least(1), default=_SEARCH_DEFAULTS["jobs"],
                   help="rigid3 exhaustive mode runs one sequential scan: must be 1")
    p.add_argument("--seed", type=int, default=_SEARCH_DEFAULTS["seed"])
    p.add_argument("--n", type=_at_least(1), help="cyclic order for exhaust-negative")
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
