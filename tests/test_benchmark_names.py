"""The names that the benchmark under ``perfbench/`` wraps and calls still exist.

``perfbench/spans.py`` wraps, at run time, each function or method that its
``BOUNDARIES`` list names, and it reads each one with ``vars(owner)[attr]``.
So a boundary removed or renamed in ``src/`` makes every traced benchmark run
raise before its first instance.  These tests load ``spans.py`` and
``workloads.py`` by file path, without writing bytecode next to them, and
check the names, a round of ``Tracer.install`` and ``uninstall``, and that
every workload builds its instances.
"""

import contextlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@contextlib.contextmanager
def loaded(*names):
    """``perfbench/<name>.py`` as modules, registered in ``sys.modules`` only
    while the block runs (dataclasses look their module up there)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        modules = []
        for name in names:
            spec = importlib.util.spec_from_file_location(
                f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            patch.setitem(sys.modules, spec.name, module)
            spec.loader.exec_module(module)
            modules.append(module)
        yield modules


@pytest.fixture(scope="module")
def perfbench():
    with loaded("spans", "workloads") as modules:
        yield modules


def test_every_boundary_is_an_attribute_of_its_owner(perfbench):
    spans, _ = perfbench
    missing = [f"{owner.__name__}.{attr}" for _, owner, attr, _ in spans.BOUNDARIES
               if attr not in vars(owner)]
    assert not missing


def test_tracer_wraps_every_boundary_and_restores_it(perfbench):
    spans, _ = perfbench
    owners = [m for k, m in sys.modules.items()
              if m is not None and (k == "mpdr" or k.startswith("mpdr."))]
    owners += [owner for _, owner, _, _ in spans.BOUNDARIES if isinstance(owner, type)]
    before = {owner: dict(vars(owner)) for owner in owners}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not before[owner][attr]
                   for _, owner, attr, _ in spans.BOUNDARIES)
    finally:
        tracer.uninstall()
    for owner, names in before.items():
        after = vars(owner)
        assert after.keys() == names.keys(), owner
        assert all(after[key] is value for key, value in names.items()), owner


def test_every_workload_builds_its_instances(perfbench, tmp_path):
    _, workloads = perfbench
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in declared)
    for name in workloads.WORKLOADS:
        instances = workloads.build(name, 1, tmp_path / name)
        names = [instance.name for instance in instances]
        assert names and len(set(names)) == len(names), name
        assert all(callable(i.call) and callable(i.check) for i in instances), name
