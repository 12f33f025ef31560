"""The benchmark in perfbench/ traces package functions by module and name,
and rebinds two private ones; a rename or removal must fail here, in the
unit suite, not only in the benchmark's own self-test."""

import importlib
import pathlib
import sys

import edgeideals  # noqa: F401  (loads every module the tracer patches)
import edgeideals.graphs as graphs
import edgeideals.harness as harness

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_function_exists_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spans = importlib.import_module("spans")
    sys.modules.pop("spans")
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
