"""The benchmark's tracer rebinds names inside the package and its
workloads import and call them; every one of them must exist and keep its
behaviour, so that removing or changing one fails here and not only in a
benchmark run."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_rebound_names_exist():
    tracing = _load("tracing")
    missing = [f"{module.__name__}.{attr}" for module, attr in tracing.REBIND
               if not hasattr(module, attr)]
    assert missing == []


def test_install_and_uninstall_restore_originals():
    tracing = _load("tracing")
    originals = {key: getattr(*key) for key in tracing.REBIND}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (module, attr) in tracing.REBIND:
            assert getattr(module, attr).__wrapped__ is originals[(module, attr)]
    finally:
        tracer.uninstall()
    for key, original in originals.items():
        assert getattr(*key) is original


def test_byte_counters_read_the_path_parameters():
    # the tracer counts cli.bytes_written from args[1] of write_instance and
    # cli.bytes_read from args[0] of read_instance
    import inspect

    import fusematch.cli

    written = list(inspect.signature(fusematch.cli.write_instance).parameters)
    read = list(inspect.signature(fusematch.cli.read_instance).parameters)
    assert written[:2] == ["instance", "path"]
    assert read[:1] == ["path"]


def test_tracer_counts_a_solve_and_an_oracle_call():
    # the tracer reads args[3].max_inner_iters of pgd_inner and .accepted of
    # armijo_search's result; a signature change breaks those reads only
    # under tracing, so run one traced solve and one traced oracle call
    import fusematch.oracle
    import fusematch.solver
    from fusematch import SolverConfig, SynthConfig, generate

    tracing = _load("tracing")
    instance, _ = generate(SynthConfig(universe_size=3, num_sets=3, noise_sigma=0.2,
                                       rng_seed=1))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        fusematch.solver.solve(instance, SolverConfig(rng_seed=0))
        fusematch.oracle.solve_exact(instance)
    finally:
        tracer.uninstall()
    for counter in ("solver.stage.calls", "solver.inner_iters", "solver.linesearch.calls",
                    "solver.linesearch_accepted", "oracle.solve_exact.calls"):
        assert tracer.counts[counter] > 0, counter


@pytest.mark.parametrize("workload, count", [("paper-small", None), ("solve-mid", 1),
                                             ("io-large", 1)])
def test_workload_ops_pass_their_verification(workload, count, tmp_path):
    # paper-small runs its whole chunk: verify compares precision_recall's F1
    # with the benchmark's own _pair_f1, and only the cases with F1 below 1
    # tell a drift apart
    w = _load("workloads").WORKLOADS[workload]
    failures = [(case.label, w.verify(case, w.op(case)).failures)
                for case in w.build(1, 0, tmp_path)[:count]]
    assert [f for f in failures if f[1]] == []
