"""Outside-in layer tracing for the fusematch benchmark.

Spans are recorded from the benchmark's side only: ``Tracer.install``
rebinds names inside the ``fusematch`` modules (``solver``, ``cli``,
``synth`` and ``bench``, plus the ``relax`` and ``oracle`` entry points the
benchmark itself calls) to timing wrappers and ``Tracer.uninstall`` puts
the originals back.  No file of the package changes.  Every call through a
rebound name becomes a span (name, start, end, parent); a layer's self time
is its spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

import fusematch.bench
import fusematch.cli
import fusematch.oracle
import fusematch.relax
import fusematch.solver
import fusematch.synth

# (module, attribute) -> span name.  The module attribute is what callers
# inside that module (or the benchmark, calling through the module) look up
# at call time, so rebinding it intercepts those calls and no others.
REBIND = {
    (fusematch.solver, "solve"): "solver.solve",
    (fusematch.solver, "pgd_inner"): "solver.stage",
    (fusematch.solver, "armijo_search"): "solver.linesearch",
    (fusematch.solver, "project"): "solver.project",
    (fusematch.solver, "build_relaxation"): "relax.build",
    (fusematch.solver, "relaxed_objective"): "relax.objective",
    (fusematch.solver, "relaxed_gradient"): "relax.gradient",
    (fusematch.solver, "frobenius_objective"): "relax.frobenius",
    (fusematch.solver, "feasibility_report"): "core.feasibility",
    (fusematch.cli, "main"): "cli.main",
    (fusematch.cli, "cmd_check"): "cli.check",
    (fusematch.cli, "read_result"): "cli.read_result",
    (fusematch.cli, "read_instance"): "cli.read_instance",
    (fusematch.cli, "write_instance"): "cli.write_instance",
    (fusematch.cli, "Instance"): "core.instance",
    (fusematch.cli, "check_feasible"): "core.feasibility",
    (fusematch.cli, "check_cycle_consistency"): "core.cycle_check",
    (fusematch.cli, "pairwise_from_assignment"): "core.pairwise",
    (fusematch.synth, "generate"): "synth.generate",
    (fusematch.synth, "multimodal_suite"): "synth.suite",
    (fusematch.synth, "Instance"): "core.instance",
    (fusematch.bench, "precision_recall"): "bench.metrics",
    (fusematch.relax, "build_relaxation"): "relax.build",
    (fusematch.relax, "frobenius_objective"): "relax.frobenius",
    (fusematch.oracle, "solve_exact"): "oracle.solve_exact",
}


def _dense_flops(name: str, args: tuple) -> int:
    """Flops of the one dense product each relax kernel forms: U U^T for
    the objective and the Frobenius score, (abar + d p_d) U for the
    gradient; 2 r r c for an r-by-c U in every case."""
    if name in ("relax.objective", "relax.gradient", "relax.frobenius") and args:
        shape = getattr(args[0], "shape", ())
        if len(shape) == 2:
            return 2 * shape[0] * shape[0] * shape[1]
    return 0


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: dict = {}

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)
        self._count(name, args, result, parent)
        return result

    def _count(self, name: str, args: tuple, result, parent: int) -> None:
        self.counts[name + ".calls"] += 1
        self.counts["relax.flops_computed"] += _dense_flops(name, args)
        if name == "relax.objective" and parent >= 0 \
                and self.spans[parent][0] == "solver.linesearch":
            self.counts["solver.linesearch_trials"] += 1
        elif name == "solver.linesearch":
            self.counts["solver.linesearch_accepted"] += int(result.accepted)
        elif name == "solver.stage":
            self.counts["solver.inner_iters"] += result.iterations
            max_iters = args[3].max_inner_iters
            self.counts["solver.maxiter_stages"] += int(result.iterations == max_iters)
        elif name == "solver.solve":
            self.counts["solver.repairs"] += int(not result.converged)
        elif name == "synth.generate":
            self.counts["synth.pairs"] += len(result[0].scores)
        elif name == "cli.write_instance" and len(args) > 1 and args[1] is not None:
            self.counts["cli.bytes_written"] += os.path.getsize(args[1])
        elif name == "cli.read_instance":
            self.counts["cli.bytes_read"] += os.path.getsize(args[0])

    def _wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for (module, attr), name in REBIND.items():
            original = getattr(module, attr)
            self._saved[(module, attr)] = original
            setattr(module, attr, self._wrapper(name, original))

    def uninstall(self) -> None:
        for (module, attr), original in self._saved.items():
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus children's."""
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[idx]
        return dict(totals)
