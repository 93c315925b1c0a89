"""Command-line interface and on-disk file formats.

Instance files are JSON objects {"set_sizes", "modalities", "a", "b", "s",
optional "metadata"} holding the bytes of Instance's arrays: "a" and "b"
are each one base64 string (RFC 4648, standard alphabet, padded) of a
column of Instance.pairs as little-endian int64, and "s" is a list of K
such strings, s[k] holding modality k's scores as little-endian float64,
so entry i is the pair (a[i], b[i]), global indices a < b, with score
s[k][i] in modality k.  Pairs whose scores equal the default (0.5 across
sets, 0 within a set) are not stored, and the entries follow Instance's
canonical order, so equal instances write equal bytes.  write_instance is
one json.dump(..., indent=2).  read_instance checks what the file can get
wrong (fields, set_sizes, modalities, and per column a base64 string of
whole 8-byte values, K score columns, one length) and passes the arrays
to Instance, which checks the values and names the lowest faulty entry.
Files in a layout of earlier versions are rejected: number lists in "a"
with "a: expected a base64 string", per-entry "scores" for their unknown
field.  To look into a file with numpy:

    data = json.loads(Path(path).read_text())
    a = np.frombuffer(base64.b64decode(data["a"]), "<i8")
    s0 = np.frombuffer(base64.b64decode(data["s"][0]), "<f8")

Result files carry clusters, both objective values, the convergence flag, a
continuation trace and the SolverConfig fields; runs are byte-reproducible
for a fixed seed.

Exit codes: 0 success (solve: converged), 2 solve fell back to repair,
1 error.
"""

from __future__ import annotations

import argparse
import base64
import json
import sys
from contextlib import nullcontext
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .bench import (ablation, format_ablation_table, format_gap_table,
                    monte_carlo_gap, precision_recall, write_ablation_csv,
                    write_gap_csv)
# check_* and pairwise_* are not called (see cmd_check); perfbench/tracing.py rebinds
# them, and tests/test_perfbench_contract.py guards that they stay importable
from .core import (Assignment, InfeasibleAssignmentError, Instance,  # noqa: F401
                   InvalidInstanceError, check_cycle_consistency, check_feasible,
                   pairwise_from_assignment)
from .oracle import InstanceTooLargeError, OracleConfig, solve_exact
from .relax import build_relaxation, frobenius_objective, relaxed_objective
from .solver import (STOP_REASONS, SolverConfig, SolverResult, StageRecord,
                     penalty_weights, solve)
from .synth import (DEFAULT_SUITE_BASE, GroundTruth, SynthConfig, derive_seed,
                    generate)

INSTANCE_FIELDS = {"set_sizes", "modalities", "a", "b", "s", "metadata"}
NUMBER_TYPES = frozenset({int, float})   # bool is not a number
RESULT_FIELDS = {"clusters", "relaxed_value", "frobenius_value", "converged",
                 "trace", "config"}
TRUTH_FIELDS = {"set_sizes", "labels"}
# required in a trace entry; StageRecord's other fields are optional, since
# older result files lack them
TRACE_FIELDS = {"d", "inner_iterations", "objective"}
VALUE_RTOL = 1e-9  # check: relative tolerance of a reported objective value
STAGE_RTOL = 1e-6  # check: a converged solve's last-stage objective vs its relaxed value

# sweep defaults of the bench shape flags; the ablation's are DEFAULT_SUITE_BASE
SWEEP_SHAPE = {"universe_size": 3, "num_sets": 3, "observe_prob": 1.0,
               "outliers": "0,1,2,3"}
# sweep defaults of the bench corruption flags; the ablation's modality
# profiles fix their own, so it rejects these flags
SWEEP_CORRUPTION = {"modalities": 2, "noise_sigma": 0.15, "inconclusive_rate": 0.15,
                    "flip_rate": 0.05}


class FileFormatError(ValueError):
    """A file failed schema validation; the message names the offender."""


def _load_json(path: str | Path) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror}") from exc


def _dump_json(payload: Any, path: str | Path | None) -> None:
    """To standard output for None, else to the file, its parent directories made."""
    if path is not None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    with nullcontext(sys.stdout) if path is None else open(path, "w") as fh:
        json.dump(payload, fh, indent=2)   # streamed: no second copy of the text
        fh.write("\n")


def _require_fields(data: dict, allowed: set, required: set, where: str) -> None:
    if not isinstance(data, dict):
        raise FileFormatError(f"{where}: expected a JSON object")
    unknown = set(data) - allowed
    if unknown:
        raise FileFormatError(f"{where}: unknown field '{sorted(unknown)[0]}'")
    missing = required - set(data)
    if missing:
        raise FileFormatError(f"{where}: missing field '{sorted(missing)[0]}'")


def _column(text: Any, dtype: str, where: str) -> np.ndarray:
    """One base64 column of little-endian 8-byte values, as an array."""
    if not isinstance(text, str):
        raise FileFormatError(f"{where}: expected a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:   # binascii.Error, or a character past ASCII
        raise FileFormatError(f"{where}: invalid base64") from exc
    if len(raw) % 8:
        raise FileFormatError(f"{where}: expected a multiple of 8 bytes, got {len(raw)}")
    return np.frombuffer(raw, dtype)


def _set_sizes(sizes, path: str | Path) -> list[int]:
    if (not isinstance(sizes, list) or not sizes
            or not all(type(s) is int and s >= 1 for s in sizes)):
        raise FileFormatError(f"{path}: set_sizes: expected positive integers")
    return sizes


def read_instance(path: str | Path) -> Instance:
    data = _load_json(path)
    _require_fields(data, INSTANCE_FIELDS, INSTANCE_FIELDS - {"metadata"}, str(path))
    sizes = _set_sizes(data["set_sizes"], path)
    count = data["modalities"]
    if type(count) is not int or count < 1:
        raise FileFormatError(f"{path}: modalities: expected a positive integer")
    a, b = (_column(data[name], "<i8", f"{path}: {name}") for name in "ab")
    if not isinstance(data["s"], list) or len(data["s"]) != count:
        raise FileFormatError(f"{path}: s: expected {count} base64 strings, "
                              f"one per modality")
    scores = [_column(text, "<f8", f"{path}: s[{k}]") for k, text in enumerate(data["s"])]
    lengths = {"b": len(b), **{f"s[{k}]": len(column) for k, column in enumerate(scores)}}
    for name, length in lengths.items():
        if length != len(a):
            raise FileFormatError(f"{path}: {name}: length {length}, expected "
                                  f"a's length {len(a)}")
    try:
        return Instance(tuple(sizes), count, np.stack((a, b), axis=1),
                        np.stack(scores, axis=1))
    except InvalidInstanceError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _base64(column: np.ndarray, dtype: str) -> str:
    return base64.b64encode(np.asarray(column, dtype).tobytes()).decode("ascii")


def write_instance(instance: Instance, path: str | Path | None,
                   metadata: dict | None = None) -> None:
    a, b = instance.pairs.T
    payload = {"set_sizes": list(instance.set_sizes),
               "modalities": instance.modality_count,
               "a": _base64(a, "<i8"), "b": _base64(b, "<i8"),
               "s": [_base64(column, "<f8") for column in instance.scores.T]}
    if metadata is not None:
        payload["metadata"] = metadata
    _dump_json(payload, path)


def read_truth(path: str | Path) -> GroundTruth:
    data = _load_json(path)
    _require_fields(data, TRUTH_FIELDS, TRUTH_FIELDS, str(path))
    sizes, labels = _set_sizes(data["set_sizes"], path), data["labels"]
    if not isinstance(labels, list) or not all(type(x) is int for x in labels):
        raise FileFormatError(f"{path}: labels: expected integers")
    if len(labels) != sum(sizes):
        raise FileFormatError(
            f"{path}: labels: expected {sum(sizes)} entries, got {len(labels)}")
    try:
        return GroundTruth.from_labels(labels, sizes)
    except InfeasibleAssignmentError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def write_truth(truth: GroundTruth, set_sizes: Sequence[int],
                path: str | Path | None) -> None:
    _dump_json({"set_sizes": [int(s) for s in set_sizes],
                "labels": list(truth.labels)}, path)


def _clusters(assignment: Assignment) -> list[list[int]]:
    labels = np.array(assignment.labels)
    return [np.flatnonzero(labels == c).tolist() for c in range(assignment.num_clusters)]


def result_payload(result: SolverResult, config: dict) -> dict:
    return {
        "clusters": _clusters(result.assignment),
        "relaxed_value": result.relaxed_value,
        "frobenius_value": result.frobenius_value,
        "converged": result.converged,
        "trace": [asdict(stage) for stage in result.trace],
        "config": config,
    }


def read_result(path: str | Path) -> dict:
    data = _load_json(path)
    _require_fields(data, RESULT_FIELDS, {"clusters"}, str(path))
    clusters = data["clusters"]
    if not isinstance(clusters, list) or not all(
            isinstance(c, list) and all(type(x) is int for x in c)
            for c in clusters):
        raise FileFormatError(f"{path}: clusters: expected lists of integers")
    if any(type(data[k]) not in NUMBER_TYPES
           for k in ("relaxed_value", "frobenius_value") if k in data):
        raise FileFormatError(f"{path}: objective values must be numbers")
    if type(data.get("converged", False)) is not bool:
        raise FileFormatError(f"{path}: converged: expected true or false")
    if type(data.get("config", {})) is not dict:
        raise FileFormatError(f"{path}: config: expected an object")
    trace = data.get("trace", [])
    if not isinstance(trace, list):
        raise FileFormatError(f"{path}: trace: expected a list")
    for i, stage in enumerate(trace):
        _require_fields(stage, {f.name for f in fields(StageRecord)}, TRACE_FIELDS,
                        f"{path}: trace[{i}]")
        steps = stage["inner_iterations"]
        if (type(stage["d"]) not in NUMBER_TYPES or type(steps) is not int or steps < 0
                or type(stage["objective"]) not in NUMBER_TYPES):
            raise FileFormatError(f"{path}: trace[{i}]: expected numbers d and objective "
                                  f"and a nonnegative integer inner_iterations")
        if stage.get("stop", STOP_REASONS[0]) not in STOP_REASONS:
            raise FileFormatError(f"{path}: trace[{i}]: stop: expected one of "
                                  f"{', '.join(STOP_REASONS)}")
        for count in ("merges", "fills"):
            value = stage.get(count, 0)
            if type(value) is not int or value < 0:
                raise FileFormatError(f"{path}: trace[{i}]: {count}: expected a "
                                      f"nonnegative integer")
    if trace:   # a trace comes from solve, so config holds SolverConfig fields
        config = data.get("config", {})
        _require_fields(config, {f.name for f in fields(SolverConfig)}, set(),
                        f"{path}: config")
        try:
            SolverConfig(**config)
        except ValueError as exc:
            raise FileFormatError(f"{path}: config: {exc}") from exc
    return data


def _agree(reported: float, value: float, rtol: float) -> bool:
    return abs(reported - value) <= rtol * max(1.0, abs(reported), abs(value))


def _trace_error(result: dict, instance: Instance, path: str) -> str | None:
    """The first stage of a solver trace that solve cannot have written:
    it lies past the schedule's last weight, its d is not the schedule's
    ``penalty_weights`` entry, its inner iterations exceed
    config.max_inner_iters, its stop reason is "max_iters" while they stay
    under that cap, or another reason while they reach it, or it merged
    or filled more rows than its steps can: each follows an accepted step,
    a merge needs two private columns per merged row, so m // 2 rows a
    step, and a fill raises each row at most once, so m rows a step.  A
    result that is not converged must also have run every weight, since
    the repair runs only after the last one."""
    trace = result.get("trace", [])
    if not trace:
        return None
    cap = SolverConfig(**result.get("config", {})).max_inner_iters
    m = instance.num_elements
    weights = list(penalty_weights(instance.modality_count))
    for i, stage in enumerate(trace):
        where = f"{path}: trace[{i}]"
        if i == len(weights):
            return (f"{where}: past the schedule, which ends after {len(weights)} "
                    f"penalty weights")
        if not _agree(stage["d"], weights[i], VALUE_RTOL):
            return f"{where}: d {stage['d']!r} is not the schedule's {weights[i]!r}"
        steps = stage["inner_iterations"]
        if steps > cap:
            return f"{where}: inner_iterations {steps} exceeds max_inner_iters {cap}"
        if "stop" in stage and (stage["stop"] == "max_iters") != (steps == cap):
            return (f"{where}: stop {stage['stop']!r} with {steps} of "
                    f"max_inner_iters {cap} inner iterations")
        for count, per_step in (("merges", m // 2), ("fills", m)):
            if stage.get(count, 0) > steps * per_step:
                return (f"{where}: {count} {stage[count]} with {steps} inner "
                        f"iterations, at most {per_step} a step")
    if result.get("converged") is False and len(trace) < len(weights):
        return (f"{path}: trace[{len(trace) - 1}]: not converged after {len(trace)} of "
                f"the schedule's {len(weights)} penalty weights; the repair runs only "
                f"after the last")
    return None


def cmd_solve(args: argparse.Namespace) -> int:
    instance = read_instance(args.instance)
    truth = read_truth(args.truth) if args.truth else None
    if truth is not None and truth.assignment.set_sizes != instance.set_sizes:
        raise FileFormatError(
            f"{args.truth}: set_sizes: expected {list(instance.set_sizes)}")
    cfg = SolverConfig(rng_seed=args.seed)
    result = solve(instance, cfg)
    _dump_json(result_payload(result, asdict(cfg)), args.out)
    print(f"converged={result.converged} clusters={result.assignment.num_clusters} "
          f"frobenius={result.frobenius_value:.6g} relaxed={result.relaxed_value:.6g}")
    if truth is not None:
        metrics = precision_recall(result.assignment, truth)
        print(f"precision={metrics.precision:.4f} recall={metrics.recall:.4f} "
              f"f1={metrics.f1:.4f}")
    return 0 if result.converged else 2


def cmd_oracle(args: argparse.Namespace) -> int:
    instance = read_instance(args.instance)
    cfg = OracleConfig(max_elements=args.max_elements)
    exact = solve_exact(instance, cfg)
    # written as a converged solve with an empty trace, so relaxed at d = 0
    relaxed = relaxed_objective(exact.assignment.entries, build_relaxation(instance), 0.0)
    result = SolverResult(assignment=exact.assignment, relaxed_value=relaxed,
                          frobenius_value=exact.value, trace=(), converged=True)
    _dump_json(result_payload(result, asdict(cfg)), args.out)
    print(f"optimum={exact.value:.6g} clusters={exact.assignment.num_clusters}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    base = SynthConfig(
        universe_size=args.universe_size, num_sets=args.num_sets,
        modality_count=args.modalities, observe_prob=args.observe_prob,
        outliers_per_run=args.outliers, noise_sigma=args.noise_sigma,
        inconclusive_rate=args.inconclusive_rate, flip_rate=args.flip_rate,
        rng_seed=args.seed)
    if args.trials < 1:
        raise ValueError("trials must be at least 1")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for t in range(args.trials):
        seed = derive_seed(args.seed, t)
        instance, truth = generate(replace(base, rng_seed=seed))
        metadata = {"seed": seed, "generator": asdict(replace(base, rng_seed=seed))}
        write_instance(instance, out_dir / f"instance_{t:03d}.json", metadata)
        write_truth(truth, instance.set_sizes, out_dir / f"truth_{t:03d}.json")
    print(f"wrote {args.trials} instances to {out_dir}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    # the study flags default to None, so only those given override a study's base
    given = {k: getattr(args, k) for k in (*SWEEP_SHAPE, *SWEEP_CORRUPTION)
             if getattr(args, k) is not None}
    fixed = [k for k in SWEEP_CORRUPTION if k in given]
    if args.ablation and fixed:
        raise FileFormatError(f"--{fixed[0].replace('_', '-')}: the ablation's modality "
                              f"profiles fix the corruption")
    shape = given if args.ablation else {**SWEEP_SHAPE, **SWEEP_CORRUPTION, **given}
    try:
        n_o_values = [int(x) for x in shape.pop("outliers", "").split(",") if x.strip()]
    except ValueError as exc:
        raise FileFormatError(f"--outliers: {exc}") from exc
    if args.outliers is not None and not n_o_values:
        raise FileFormatError("--outliers: expected at least one outlier count")
    if args.ablation:
        if len(n_o_values) > 1:
            raise FileFormatError("--outliers: the ablation takes one outlier count")
        if n_o_values:
            shape["outliers_per_run"] = n_o_values[0]
        rows = ablation(args.trials, args.seed, base=replace(DEFAULT_SUITE_BASE, **shape))
        if args.out:
            write_ablation_csv(rows, args.out)
        print(format_ablation_table(rows))
        return 0
    shape["modality_count"] = shape.pop("modalities")
    base = SynthConfig(**shape, rng_seed=args.seed)
    rows = monte_carlo_gap(base, n_o_values, args.trials)
    if args.out:
        write_gap_csv(rows, args.out)
    print(format_gap_table(rows))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    result = read_result(args.result)
    instance = read_instance(args.instance)
    m = instance.num_elements
    seen: dict[int, int] = {}
    for c, members in enumerate(result["clusters"]):
        if not members:
            print(f"cluster {c} is empty")
            return 1
        for r in members:
            if not 0 <= r < m:
                print(f"element {r} out of range for {m} elements")
                return 1
            if r in seen:
                print(f"element {r} appears in clusters {seen[r]} and {c}")
                return 1
            seen[r] = c
    if len(seen) != m:
        missing = sorted(set(range(m)) - set(seen))
        print(f"elements missing from clusters: {missing}")
        return 1
    labels = [seen[r] for r in range(m)]
    try:
        assignment = Assignment(labels, instance.set_sizes)
    except InfeasibleAssignmentError as exc:
        print(f"infeasible clusters: {exc}")
        return 1
    # feasible by the line above, and one-hot labels are cycle consistent by construction
    # (tests/test_core.py::TestCycleConsistency::test_random_assignments_are_cycle_consistent)
    error = _trace_error(result, instance, args.result)
    if error:
        print(error)
        return 1
    if "frobenius_value" in result:
        reported, value = result["frobenius_value"], frobenius_objective(
            assignment.entries, instance)
        if not _agree(reported, value, VALUE_RTOL):
            print(f"frobenius_value {reported!r} does not match the recomputed {value!r}")
            return 1
    # relaxed value: at the last stage's d, or at 0 for an empty (oracle) trace
    trace = result.get("trace") or [{"d": 0.0}]
    last_objective = trace[-1].get("objective") if result.get("converged") is True else None
    if "relaxed_value" in result or last_objective is not None:
        value = relaxed_objective(assignment.entries, build_relaxation(instance),
                                  trace[-1]["d"])
        reported = result.get("relaxed_value", value)
        if not _agree(reported, value, VALUE_RTOL):
            print(f"relaxed_value {reported!r} does not match the recomputed {value!r}")
            return 1
        # a converged solve's last stage ends within BINARY_TOL of its binary output
        if last_objective is not None and not _agree(last_objective, value, STAGE_RTOL):
            print(f"{args.result}: trace[{len(trace) - 1}]: objective {last_objective!r} "
                  f"is not the converged solve's relaxed value {value!r}")
            return 1
    print("ok: clusters are feasible and cycle consistent")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusematch",
        description="Multimodal multiway association: fuse pair scores across "
                    "observation sets into a consistent assignment.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--seed", type=int, default=0, help="solver seed (rng_seed)")
    p_solve.add_argument("--truth", help="truth file; prints precision/recall/F1")
    p_solve.add_argument("--out", help="result file path (default: stdout)")
    p_solve.set_defaults(func=cmd_solve)

    p_oracle = sub.add_parser("oracle", help="exhaustive exact solve (small instances)")
    p_oracle.add_argument("instance")
    p_oracle.add_argument("--out", help="result file path (default: stdout)")
    p_oracle.add_argument("--max-elements", dest="max_elements", type=int, default=12)
    p_oracle.set_defaults(func=cmd_oracle)

    p_synth = sub.add_parser("synth", help="generate instance/truth files")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--universe-size", dest="universe_size", type=int, default=10)
    p_synth.add_argument("--num-sets", dest="num_sets", type=int, default=3)
    p_synth.add_argument("--modalities", type=int, default=1)
    p_synth.add_argument("--observe-prob", dest="observe_prob", type=float, default=1.0)
    p_synth.add_argument("--outliers", type=int, default=0)
    p_synth.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=0.0)
    p_synth.add_argument("--inconclusive-rate", dest="inconclusive_rate",
                         type=float, default=0.0)
    p_synth.add_argument("--flip-rate", dest="flip_rate", type=float, default=0.0)
    p_synth.add_argument("--trials", type=int, default=1)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.set_defaults(func=cmd_synth)

    p_bench = sub.add_parser("bench", help="outlier sweep or modality ablation")
    p_bench.add_argument("--out", help="CSV output path")
    p_bench.add_argument("--ablation", action="store_true",
                         help="run the modality ablation instead of the sweep")
    p_bench.add_argument("--universe-size", dest="universe_size", type=int)
    p_bench.add_argument("--num-sets", dest="num_sets", type=int)
    p_bench.add_argument("--observe-prob", dest="observe_prob", type=float)
    p_bench.add_argument("--modalities", type=int)
    p_bench.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    p_bench.add_argument("--inconclusive-rate", dest="inconclusive_rate", type=float)
    p_bench.add_argument("--flip-rate", dest="flip_rate", type=float)
    p_bench.add_argument("--outliers",
                         help="comma-separated outlier counts (one for --ablation)")
    p_bench.add_argument("--trials", type=int, default=50)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(func=cmd_bench)

    p_check = sub.add_parser("check", help="validate a result against an instance")
    p_check.add_argument("result")
    p_check.add_argument("instance")
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, InvalidInstanceError, InfeasibleAssignmentError,
            InstanceTooLargeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
