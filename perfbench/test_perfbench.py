"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``.

They compose small workloads from the same instance factories the real
workloads use, so they take seconds rather than minutes.
"""

from __future__ import annotations

import random
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def small(name: str, seed: int, work: Path) -> list[workloads.Instance]:
    rng = random.Random(seed)
    if name == "verify-large":
        return [workloads.cli_verify(rng, 40, work), workloads.cyclic_pdr(rng, 30),
                workloads.cyclic_pdr(rng, 20, 3),
                workloads.two_generated("A5", workloads.A5_GENS, 60, 4),
                workloads.drr_extend((1, 2))]
    if name == "sweep-small":
        return [workloads.sweep_2partite("Z8"), workloads.z2_m3()]
    return [workloads.complete(rng, 7), workloads.cycle_copies(rng, 3),
            workloads.part_swap(rng, 30)]


NAMES = ["verify-large", "sweep-small", "symmetric"]


def fast_probe() -> run.HostProbe:
    """A host probe that fires often enough for the small workloads."""
    probe = run.HostProbe()
    probe.PERIOD_S = 0.005
    return probe


def passes(name: str, seed: int, work: Path):
    """One untraced and one traced pass over fresh instances, probed as in a
    traced run."""
    instances = small(name, seed, work)
    probe = fast_probe()
    clock = workloads.VerdictClock()
    clock.install()
    tracer = spans.Tracer(probe.now)
    try:
        untraced = run.run_pass(instances, clock, probe)
        tracer.install()
        traced = run.run_pass(instances, clock, probe, tracer)
    finally:
        tracer.uninstall()
        clock.uninstall()
    return untraced, traced, tracer, probe


@pytest.fixture(scope="module", params=NAMES)
def runs(request, tmp_path_factory):
    work = tmp_path_factory.mktemp(request.param)
    return [passes(request.param, 3, work) for _ in range(2)]


def test_count_metrics_repeat_across_traced_runs(runs):
    (u1, t1, tr1, p1), (u2, t2, tr2, p2) = runs
    m1 = run.per_layer(tr1, [t1], [u1], p1)
    m2 = run.per_layer(tr2, [t2], [u2], p2)
    counts = [k for k, m in m1.items() if m["unit"] == "count"]
    assert counts
    assert {k: m1[k] for k in counts} == {k: m2[k] for k in counts}
    assert tr1.calls == tr2.calls and tr1.counts == tr2.counts


def test_traced_and_untraced_answers_agree(runs):
    for untraced, traced, _, _ in runs:
        assert untraced.failed == traced.failed == 0
        assert untraced.attempted == traced.attempted > 0
        assert traced.answers == untraced.answers


def test_module_self_times_add_up_to_traced_wall(runs):
    for _, traced, tracer, _ in runs:
        selfs = tracer.module_self_s()
        assert sum(selfs.values()) == pytest.approx(traced.wall_s, rel=1e-9)
        assert selfs[spans.HARNESS] < 0.01 * traced.wall_s
        assert sum(v for k, v in selfs.items() if k != spans.HARNESS) > 0.99 * traced.wall_s


def test_spans_nest_within_their_parent_and_instance(runs):
    _, _, tracer, _ = runs[0]
    for name, module, start, end, parent, instance in tracer.spans:
        assert start <= end
        if parent == -1:
            assert module == spans.HARNESS
            continue
        _, _, p_start, p_end, _, p_instance = tracer.spans[parent]
        assert p_start <= start and end <= p_end and instance == p_instance


def test_uninstall_restores_the_program(tmp_path):
    import mpdr.autgroup
    import mpdr.verify
    before = (mpdr.verify.automorphism_search, mpdr.perms.PermGroup._extend,
              vars(mpdr.groups.FiniteGroup)["cyclic"])
    tracer = spans.Tracer()
    tracer.install()
    assert mpdr.verify.automorphism_search is not before[0]
    tracer.uninstall()
    after = (mpdr.verify.automorphism_search, mpdr.perms.PermGroup._extend,
             vars(mpdr.groups.FiniteGroup)["cyclic"])
    assert after == before
    assert mpdr.verify.automorphism_search is mpdr.autgroup.automorphism_search


@pytest.mark.parametrize("seed", [1, 2])
def test_seeded_relabelings_keep_every_answer_correct(seed, tmp_path):
    instances = small("symmetric", seed, tmp_path)
    clock = workloads.VerdictClock()
    result = run.run_pass(instances, clock, fast_probe())
    assert result.failed == 0 and result.attempted == len(instances)


def test_probe_runs_during_instances_and_is_left_out_of_their_time(tmp_path):
    instances = small("verify-large", 1, tmp_path)
    probe = fast_probe()
    calls = []
    start = perf_counter()
    result = run.run_pass(instances, workloads.VerdictClock(), probe,
                          between=lambda: calls.append(1))
    elapsed = perf_counter() - start
    assert len(calls) == len(instances) and result.failed == 0
    assert result.probes == probe.samples and len(probe.samples) >= 5
    assert all(seconds > 0 for seconds in probe.samples)
    assert probe.spent >= sum(probe.samples)
    assert result.wall_s < elapsed - probe.spent
    assert result.wall_norm_s(probe) == pytest.approx(
        result.wall_s * probe.REF_S / statistics.fmean(probe.samples))


def test_probe_signal_during_its_kernel_is_not_counted_twice():
    probe = run.HostProbe()
    kernel = probe.kernel

    def kernel_interrupted():
        probe._handler(signal.SIGALRM, None)
        return kernel()

    probe.kernel = kernel_interrupted
    start = perf_counter()
    probe._handler(signal.SIGALRM, None)
    elapsed = perf_counter() - start
    assert len(probe.samples) == 1
    assert probe.spent <= elapsed


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    random.Random(0).shuffle(samples)
    assert run.tail(samples) == (89.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
