"""The benchmark in perfbench/ traces package functions by module and name,
and rebinds two private ones; a rename or removal must fail here, in the
unit suite, not only in the benchmark's own self-test. Its workloads also
carry the recorded digests of their outputs, so a change that alters a
report fails here too."""

import importlib
import pathlib
import sys

import pytest

import edgeideals  # noqa: F401  (loads every module the tracer patches)
import edgeideals.graphs as graphs
import edgeideals.harness as harness

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _import_from_perfbench(name, monkeypatch):
    """Import one perfbench module read-only: no bytecode is written there,
    and the module is dropped from sys.modules again."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    module = importlib.import_module(name)
    sys.modules.pop(name)
    return module


def test_every_traced_function_exists_and_is_restored(monkeypatch):
    spans = _import_from_perfbench("spans", monkeypatch)
    homes = [(sys.modules[f"edgeideals.{mod}"], attr)
             for _, mod, attr, _ in spans.TARGETS]
    originals = [getattr(home, attr, None) for home, attr in homes]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        for (home, attr), fn in zip(homes, originals):
            assert getattr(home, attr).__wrapped__ is fn
    finally:
        tracer.uninstall()
    assert [getattr(home, attr) for home, attr in homes] == originals
    assert callable(harness._run_payload)
    assert callable(graphs._canonical)


@pytest.mark.parametrize("workload", ["verify-n6", "analyze-n12", "betti-fields"])
def test_workload_outputs_match_the_recorded_digests(workload, monkeypatch):
    workloads = _import_from_perfbench("workloads", monkeypatch)
    prepare, run, check = workloads.WORKLOADS[workload]
    res = run(prepare(0, "full"), 30.0)
    check(res)
    workloads.check_recorded(workload, res, 0)
    assert res.gate_errors == []
    assert [(op.label, op.status) for op in res.ops if op.status != "ok"] == []
