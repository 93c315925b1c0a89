"""Measurement loop, metrics and report of the fusematch benchmark."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import Tracer
from workloads import WORKLOADS

MIN_PASSES = 2
WARMUP_POLICY = ("before every pass, a set-up round: build the next chunk of cases from "
                 "the seed, then one discarded, verified warm-up op on its first case; "
                 "setup_s = median over the rounds of build + warm-up op")

# The gated metrics: reported on every workload, never zero.
END_TO_END = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# Reported where they apply, not gated: see NOTES.md for why.
REPORTED = {"op_s.p50": "s", "op_s.p90": "s", "failed_frac": "ratio", "f1_mean": "ratio",
            "repair_frac": "ratio", "gap_pct_mean": "%", "truth_excess_pct_mean": "%"}
QUALITY = {"f1_mean": "f1", "repair_frac": "repaired", "gap_pct_mean": "gap_pct",
           "truth_excess_pct_mean": "truth_excess_pct"}

# per-layer metric -> span names whose self times it sums
LAYER_TIMES = {
    "solver.solve_self_s": ("solver.solve",),
    "solver.stage_s": ("solver.stage",),
    "solver.linesearch_s": ("solver.linesearch",),
    "solver.project_s": ("solver.project",),
    "relax.objective_s": ("relax.objective",),
    "relax.gradient_s": ("relax.gradient",),
    "relax.build_s": ("relax.build",),
    "relax.frobenius_s": ("relax.frobenius",),
    "cli.write_instance_s": ("cli.write_instance",),
    "cli.read_instance_s": ("cli.read_instance",),
    "cli.check_s": ("cli.main", "cli.check", "cli.read_result"),
    "core.instance_s": ("core.instance",),
    "core.cycle_check_s": ("core.cycle_check", "core.pairwise"),
    "core.feasibility_s": ("core.feasibility",),
    "synth.generate_s": ("synth.generate", "synth.suite"),
    "oracle.solve_exact_s": ("oracle.solve_exact",),
    "bench.metrics_s": ("bench.metrics",),
}
# per-layer metric -> (tracer counter, unit)
LAYER_COUNTS = {
    "solver.stages": ("solver.stage.calls", "count"),
    "solver.inner_iters": ("solver.inner_iters", "count"),
    "solver.linesearch_trials": ("solver.linesearch_trials", "count"),
    "solver.maxiter_stages": ("solver.maxiter_stages", "count"),
    "solver.project_calls": ("solver.project.calls", "count"),
    "solver.repairs": ("solver.repairs", "count"),
    "relax.objective_calls": ("relax.objective.calls", "count"),
    "relax.gradient_calls": ("relax.gradient.calls", "count"),
    "relax.flops_computed": ("relax.flops_computed", "flop"),
    "cli.bytes_written": ("cli.bytes_written", "byte"),
    "cli.bytes_read": ("cli.bytes_read", "byte"),
    "core.instance_calls": ("core.instance.calls", "count"),
    "synth.pairs": ("synth.pairs", "count"),
    "oracle.solve_exact_calls": ("oracle.solve_exact.calls", "count"),
    "bench.metrics_calls": ("bench.metrics.calls", "count"),
}


@dataclass
class Pass:
    """One closed-loop pass over every case of a workload."""

    op_s: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    failed_ops: int = 0

    def fingerprint(self) -> dict:
        counts: Counter = Counter()
        digest = hashlib.sha256()
        for verdict in self.verdicts:
            counts.update(verdict.counts)
            digest.update(verdict.digest.encode())
        return {**dict(sorted(counts.items())), "digest": digest.hexdigest()[:16]}


def _run_pass(workload, cases, tracer: Tracer | None = None) -> Pass:
    result = Pass()
    for case in cases:
        start = time.perf_counter()
        try:
            out = (workload.op(case) if tracer is None
                   else tracer.span("op", workload.op, case))
        except Exception as exc:  # a failed op is counted; the run goes on
            result.op_s.append(time.perf_counter() - start)
            result.failures.append(f"{case.label}: op raised {exc!r}")
            result.failed_ops += 1
            continue
        result.op_s.append(time.perf_counter() - start)
        try:
            verdict = workload.verify(case, out)
        except Exception as exc:  # a check that cannot run is a failed check
            result.failures.append(f"{case.label}: verify raised {exc!r}")
            result.failed_ops += 1
            continue
        result.verdicts.append(verdict)
        result.failures += [f"{case.label}: {f}" for f in verdict.failures]
        result.failed_ops += bool(verdict.failures)
    return result


def measure(workload, seed: int, seconds: float, workdir, trace: bool) -> dict:
    setup_s, warmups, passes = [], [], []
    while len(passes) < MIN_PASSES or sum(sum(p.op_s) for p in passes) < seconds:
        cases = None   # free the previous chunk's cases before building the next
        start = time.perf_counter()
        cases = workload.build(seed, len(passes), workdir)
        build_s = time.perf_counter() - start
        warmups.append(_run_pass(workload, cases[:1]))
        setup_s.append(build_s + warmups[-1].op_s[0])
        gc.collect()
        passes.append(_run_pass(workload, cases))
        if warmups[-1].failed_ops or passes[-1].failed_ops:
            break   # the run is already wrong; failing ops may add no time
    ops = [t for p in passes for t in p.op_s]
    values = {
        "op_s.p50": statistics.median(ops),
        "op_s.p90": statistics.quantiles(ops, n=10)[-1] if len(ops) >= 100 else None,
        "ops_per_s": len(ops) / sum(ops),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"op_s.p50": len(ops), "op_s.p90": len(ops), "ops_per_s": len(ops),
               "setup_s": len(setup_s), "peak_rss_mb": 1}
    for metric, key in QUALITY.items():
        found = [v.quality[key] for v in passes[0].verdicts if key in v.quality]
        values[metric] = statistics.fmean(found) if found else None
        samples[metric] = len(found)
    fingerprint = passes[0].fingerprint()
    report = {"values": values, "samples": samples,
              "pass_ops_per_s": [len(p.op_s) / sum(p.op_s) for p in passes],
              "cases": len(passes[0].op_s), "fingerprint": fingerprint,
              "consistent": True}
    if trace:
        cases = None   # the traced round builds its own; keep one copy alive
        traced, tracer = _traced_pass(workload, seed, workdir)
        report["layers"] = _layers(tracer, traced, sum(passes[0].op_s))
        report["traced_fingerprint"] = {
            **traced.fingerprint(),
            "linesearch_trials": tracer.counts["solver.linesearch_trials"],
            "project_calls": tracer.counts["solver.project.calls"]}
        report["consistent"] = traced.fingerprint() == fingerprint
        passes.append(traced)
    passes += warmups   # warm-up ops are verified and counted too
    report["attempted"] = sum(len(p.op_s) for p in passes)
    report["failed"] = sum(p.failed_ops for p in passes)
    report["failures"] = [f for p in passes for f in p.failures]
    values["failed_frac"] = report["failed"] / report["attempted"]
    samples["failed_frac"] = report["attempted"]
    return report


def _traced_pass(workload, seed: int, workdir) -> tuple[Pass, Tracer]:
    """One traced set-up round and one traced pass, over the first chunk."""
    tracer = Tracer()
    tracer.install()
    try:
        cases = tracer.span("setup", workload.build, seed, 0, workdir)
        return _run_pass(workload, cases, tracer), tracer
    finally:
        tracer.uninstall()


def _layers(tracer: Tracer, traced: Pass, untraced_pass_s: float) -> dict:
    self_s = tracer.self_times()
    layers = {name: (sum(self_s.get(s, 0.0) for s in spans), "s")
              for name, spans in LAYER_TIMES.items()}
    for name, (counter, unit) in LAYER_COUNTS.items():
        layers[name] = (tracer.counts[counter], unit)
    trials = tracer.counts["solver.linesearch_trials"]
    layers["solver.linesearch_accept_ratio"] = (
        tracer.counts["solver.linesearch_accepted"] / trials if trials else 0.0, "ratio")
    layers["trace.overhead_s"] = (sum(traced.op_s) - untraced_pass_s, "s")
    return layers


def environment(seeds: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "loadavg_start": os.getloadavg(), "seeds": seeds,
            "warmup": WARMUP_POLICY}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _print_report(name: str, report: dict, trace: bool) -> None:
    for metric, unit in {**END_TO_END, **REPORTED}.items():
        value = report["values"][metric]
        if value is not None:
            print(f"{name:<12} {metric:<22} {_fmt(value):>12} {unit:<6} "
                  f"n={report['samples'][metric]}")
    print(f"{name:<12} cases={report['cases']} pass ops_per_s "
          + " ".join(f"{v:.6g}" for v in report["pass_ops_per_s"]))
    print(f"{name:<12} fingerprint {json.dumps(report['fingerprint'])}")
    if trace:
        for metric, (value, unit) in report["layers"].items():
            print(f"{name:<12} {metric:<30} {_fmt(value):>12} {unit}")
        print(f"{name:<12} traced fingerprint {json.dumps(report['traced_fingerprint'])}")
    for failure in report["failures"]:
        print(f"{name:<12} FAILED {failure}")


def run_workloads(args, root, seeds: dict) -> int:
    env = environment(seeds)
    print("env " + json.dumps(env))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        workdir = Path(tmp)
        for name in names:
            workload = WORKLOADS[name]
            print(f"{name:<12} seed={args.seed} seconds={args.seconds} trace={args.trace}")
            report = measure(workload, args.seed, args.seconds, workdir, bool(args.trace))
            _print_report(name, report, bool(args.trace))
            attempted += report["attempted"]
            failed += report["failed"]
            correct &= report["failed"] == 0 and report["consistent"]
            prefix = "" if len(names) == 1 else name + "/"
            if args.trace:
                chosen = report["layers"]
            else:
                chosen = {m: (report["values"][m], u) for m, u in END_TO_END.items()}
            for metric, (value, unit) in chosen.items():
                metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0
