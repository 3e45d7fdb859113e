"""Benchmark for mpdr: one workload per run, closed loop, single process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-large --seed 1 --seconds 26 --trace 0

Each pass runs the workload's instances one after another, the next only
after the previous verdict returns, and checks every answer.  ``--seconds``
fixes the number of passes from the nominal pass time, so two commits are
compared on the same work.  While an instance runs, a host probe times a
fixed kernel every 0.1 s, and the timed metrics are scaled to a reference
host speed (see HostProbe).  With ``--trace 0`` the run prints
the end-to-end metrics; with ``--trace 1`` it runs each pass untraced and
then traced, alternating, and prints the per-module metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
DEFAULT_SEED = 1

# Each workload is sized so that one pass takes about this long on a 2-core
# x86-64 machine with Python 3.11 at the commit that introduced the
# benchmark.  Used only to turn --seconds into a pass count.
NOMINAL_PASS_S = 13.0


def _import_mpdr():
    """Import mpdr from this checkout's src/, never from anywhere else."""
    if not (SRC / "mpdr" / "__init__.py").is_file():
        sys.exit(f"error: no mpdr sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mpdr
    if Path(mpdr.__file__).resolve().parent != (SRC / "mpdr").resolve():
        sys.exit(f"error: imported mpdr from {mpdr.__file__}, not from {SRC}")


# -- host speed ---------------------------------------------------------------------


class HostProbe:
    """Tracks the host's speed while the program runs.

    The shared machines this benchmark runs on change speed by up to 1.6x
    over seconds to minutes, with nothing of that visible to a process (see
    perfbench/README.md).  While an instance runs, a SIGALRM handler times a
    fixed kernel every PERIOD_S of wall time.  The kernel composes
    permutations stored as tuples and keys a dict by them, the operations
    mpdr's own hot loops are made of, but it calls no mpdr code, so a change
    to the program leaves its time alone.  A timed region divided by the mean
    probe time over the same interval, times REF_S, is the region's time on a
    host whose probe takes REF_S.

    ``spent`` is the time spent in the handler; ``now`` is the work clock,
    perf_counter without it.
    """

    PERIOD_S = 0.1
    # Within the 1.7 to 2.2 ms the probe took on the 2-core x86-64 machine
    # (Python 3.11) where the benchmark was written, so that scaled times
    # read roughly as seconds there.
    REF_S = 0.002
    DEGREE, COMPOSITIONS = 400, 120

    def __init__(self):
        rng = random.Random(0)
        self.perms = [tuple(rng.sample(range(self.DEGREE), self.DEGREE)) for _ in range(8)]
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def kernel(self) -> float:
        """Run the kernel once, with the cyclic collector off; its time."""
        was_enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        perms, seen, p = self.perms, {}, self.perms[0]
        for k in range(self.COMPOSITIONS):
            q = perms[k % 8]
            p = tuple([q[i] for i in p])
            seen[p] = k
        seconds = perf_counter() - start
        if was_enabled:
            gc.enable()
        return seconds

    def _handler(self, signum, frame) -> None:
        # A signal that arrives while the kernel runs must not start a second
        # one inside it: the nested call's time would be counted twice in
        # ``spent``, and the work clock would run backwards.
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        self.samples.append(self.kernel())
        self.spent += perf_counter() - start
        self._busy = False

    def now(self) -> float:
        # Retried when the handler ran between the two reads, so that the
        # clock never runs backwards.
        while True:
            spent = self.spent
            seconds = perf_counter()
            if spent == self.spent:
                return seconds - spent

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, samples: list[float]) -> float:
        """Factor that takes times measured alongside ``samples`` to REF_S."""
        return self.REF_S / statistics.fmean(samples)


# -- one pass ---------------------------------------------------------------------


@dataclass
class Pass:
    wall_s: float = 0.0
    samples: list[float] = field(default_factory=list)   # seconds per latency sample
    answers: list = field(default_factory=list)          # (instance name, answer)
    attempted: int = 0
    failed: int = 0
    probes: list[float] = field(default_factory=list)    # host probe times, seconds

    def wall_norm_s(self, probe: HostProbe) -> float:
        return self.wall_s * probe.scale(self.probes)


def _guarded(fn):
    try:
        return fn(), None
    except Exception as exc:  # a raising instance is a failed instance
        return None, exc


def run_pass(instances, clock, probe: HostProbe, tracer=None, between=None) -> Pass:
    """One pass over ``instances``.  The host is probed while each instance
    runs, and instances are timed on the probe's work clock, which a tracer
    must read too.  After each instance, outside the timed region,
    ``between`` is called if given."""
    result = Pass()
    clock.now = probe.now
    gc.collect()
    for index, inst in enumerate(instances):
        clock.stamps.clear()
        call = partial(_guarded, inst.call)
        first = len(probe.samples)
        probe.start()
        try:
            if tracer is not None:
                (out, error), start, end = tracer.root(index, call)
            else:
                start = probe.now()
                out, error = call()
                end = probe.now()
        finally:
            probe.stop()
        result.probes.extend(probe.samples[first:])
        result.wall_s += end - start
        result.samples.extend(clock.split(start, end) if inst.per_verdict else [end - start])
        if error is None:
            checked, error = _guarded(lambda: inst.check(out))
        if error is None:
            answer, failed = checked
        else:
            answer, failed = f"raised {type(error).__name__}: {error}", inst.samples
        result.answers.append((inst.name, answer))
        result.attempted += inst.samples
        result.failed += failed
        if between is not None:
            between()
    return result


# -- metrics ------------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def time_setup(workload: str, seed: int) -> float:
    """Interpreter start, import and input generation, in one fresh process."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    start = perf_counter()
    subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def provenance(args, runs: list[Pass]) -> dict:
    revision = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            revision = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass  # provenance still carries the sha256 of the sources
    digest = hashlib.sha256()
    for path in sorted((SRC / "mpdr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": len(runs),
        "trace": args.trace,
        # Mean host probe time per pass (untraced, then traced), in ms,
        # against REF_S.
        "probe_ms": [round(1000 * statistics.fmean(p.probes), 4) for p in runs if p.probes],
        "probe_ref_ms": 1000 * HostProbe.REF_S,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[Pass], setup: list[float],
               probe: HostProbe) -> tuple[dict, list[str]]:
    """The gated metrics, and as printed notes the unscaled times and the
    per-instance latencies.

    The gated times are scaled to the probe's reference speed: unscaled, the
    host's changes of speed spread them past any bound the benchmark may
    set.  The set-up processes are spread over the whole run, so their median
    is scaled by the mean of all the run's probes.  The few probes next to
    one set-up process are a poor guide: the mean of ten of them ran up to
    twice their median.  The latencies stay out of the gated metrics: on
    verify-large and symmetric they rest on one or two sub-second samples.
    """
    samples = [s for p in passes for s in p.samples]
    tail_s, pct = tail(samples)
    metrics = {
        "wall_norm_s": _metric(statistics.median(p.wall_norm_s(probe) for p in passes), "s"),
        "setup_s": _metric(statistics.median(setup)
                           * probe.scale([x for p in passes for x in p.probes]), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [f"wall_s {statistics.median(p.wall_s for p in passes):.6g} s (unscaled)",
             f"instance_p50_ms {1000 * statistics.median(samples):.6g} ms "
             f"(unscaled, median of n={len(samples)} samples)",
             f"instance_tail_ms {1000 * tail_s:.6g} ms "
             f"(unscaled, p{pct:.3f} of n={len(samples)} samples)",
             f"setup_s unscaled, median of {len(setup)}: "
             + " ".join(f"{seconds:.4f}" for seconds in setup)]
    return metrics, notes


def per_layer(tracer, traced: list[Pass], untraced: list[Pass], probe: HostProbe) -> dict:
    """Per traced pass, on the work clock and unscaled."""
    k = len(traced)
    selfs = tracer.module_self_s()
    calls, counts, self_by_name = tracer.calls, tracer.counts, tracer.self_s
    extend_calls = calls["PermGroup._extend"]
    drr_calls = calls["drr_to_2pdr"]
    values = {
        "autgroup.self_s": (selfs["autgroup"] / k, "s"),
        "autgroup.calls": (calls["automorphism_search"] / k, "count"),
        "autgroup.nodes": (counts["autgroup.nodes"] / k, "count"),
        "autgroup.generators": (counts["autgroup.generators"] / k, "count"),
        "perms.self_s": (selfs["perms"] / k, "s"),
        "perms.extend_calls": (extend_calls / k, "count"),
        "perms.extend_useful_ratio": (
            counts["perms.extend_accepted"] / extend_calls if extend_calls else 0.0, "ratio"),
        "perms.permutations_built": (counts["perms.permutations_built"] / k, "count"),
        "digraphs.build_s": (self_by_name["Digraph.__init__"] / k, "s"),
        "digraphs.builds": (calls["Digraph.__init__"] / k, "count"),
        "digraphs.autcheck_s": (self_by_name["Digraph.is_automorphism"] / k, "s"),
        "digraphs.autchecks": (calls["Digraph.is_automorphism"] / k, "count"),
        "cayley.self_s": (selfs["cayley"] / k, "s"),
        "cayley.builds": ((calls["MCayleyDigraph.__init__"] + calls["cayley_digraph"]) / k,
                          "count"),
        "cayley.translations_s": (
            tracer.inclusive_s["MCayleyDigraph.right_regular_group"] / k, "s"),
        "verify.self_s": (selfs["verify"] / k, "s"),
        "verify.calls": (calls["is_pdr"] / k, "count"),
        "search.self_s": (selfs["search"] / k, "s"),
        "search.aut_calls": (counts["search.aut_calls"] / k, "count"),
        "constructions.self_s": (selfs["constructions"] / k, "s"),
        "constructions.candidates": (
            counts["constructions.candidates_total"] / drr_calls if drr_calls else 0.0, "count"),
        "groups.self_s": (selfs["groups"] / k, "s"),
        "groups.elements": (counts["groups.elements"] / k, "count"),
        "cli.self_s": (selfs["cli"] / k, "s"),
        "harness.self_s": (selfs["harness"] / k, "s"),
        "trace.spans": (len(tracer.spans) / k, "count"),
        "trace.overhead_frac": (
            statistics.median(p.wall_norm_s(probe) for p in traced)
            / statistics.median(p.wall_norm_s(probe) for p in untraced) - 1, "ratio"),
    }
    return {name: _metric(value, unit) for name, (value, unit) in values.items()}


# -- main ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify-large", "sweep-small",
                                                               "symmetric"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="generate the inputs and exit (times setup_s)")
    args = parser.parse_args(argv)

    _import_mpdr()
    import workloads

    instances = workloads.build(args.workload, args.seed, WORK)
    if args.setup_only:
        return 0
    passes = max(1, round(args.seconds / NOMINAL_PASS_S))
    # setup_s is sampled in fresh processes spread over the whole run (one
    # before the first pass, one after every instance), so that its median
    # sees the same host conditions as the passes do.
    probe = HostProbe()
    setup: list[float] = []
    between = None
    if not args.trace:
        def between():
            setup.append(time_setup(args.workload, args.seed))
        between()
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer(probe.now)
    clock = workloads.VerdictClock()
    clock.install()
    # In a traced run untraced and traced passes alternate, so that both
    # medians are taken under the same host conditions.
    untraced, traced = [], []
    for _ in range(passes):
        untraced.append(run_pass(instances, clock, probe, between=between))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_pass(instances, clock, probe, tracer))
            finally:
                tracer.uninstall()
    runs = untraced + traced
    prov = provenance(args, runs)
    if tracer is not None:
        metrics = per_layer(tracer, traced, untraced, probe)
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.tsv"
        tracer.write(trace_file, prov)
        notes = [f"spans written to {trace_file.relative_to(ROOT)}"]
    else:
        metrics, notes = end_to_end(untraced, setup, probe)
    clock.uninstall()

    # A pass whose answers differ from the first pass's failed every sample.
    attempted = sum(p.attempted for p in runs)
    failed = sum(p.attempted if p.answers != untraced[0].answers else p.failed for p in runs)
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, answer in untraced[0].answers:
        print(f"answer {name}: {answer}"[:160])
    print("pass wall_s: " + " ".join(f"{p.wall_s:.4f}" for p in runs))
    print("pass wall_norm_s: " + " ".join(f"{p.wall_norm_s(probe):.4f}" for p in runs))
    for note in notes:
        print(note)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
