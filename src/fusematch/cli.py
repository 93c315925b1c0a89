"""Command-line interface and on-disk file formats.

Instance files are JSON objects {"set_sizes", "modalities", "pairs", "s",
optional "metadata"} holding the bytes of Instance's arrays in hex (RFC 4648
base16, lowercase): "pairs" is one hex string of the keys a * m + b of
Instance.pairs as little-endian int64, m the element count, and "s" is a
list of K such strings, s[k] holding modality k's scores as little-endian
float64, so entry i is the pair (a, b) = divmod(key[i], m), global indices
a < b, with score s[k][i] in modality k.  Pairs whose scores equal the
default (0.5 across sets, 0 within a set) are not stored, and the entries
follow Instance's canonical order (ascending keys), so equal instances
write equal bytes.  write_instance writes to a path the bytes of
json.dump(..., indent=2) plus a newline, with the hex columns spliced in
unescaped; it encodes the metadata, the only part that can fail, before it
opens the file, so a failed encode creates or changes no file, and then
encodes and writes one column at a time.  read_instance checks what the
file can get wrong (fields, set_sizes by Instance's rule, which bounds m so
that every key fits int64, modalities, and per column a hex string of
whole 8-byte values, K score columns, one length) and passes the
arrays to Instance, which checks the values and names the lowest faulty
entry: a negative key, a key of m * m or more, or one with b <= a fails as
"indices must satisfy 0 <= a < b < m".  Files in a layout of earlier
versions are rejected by their first unknown field: 'a' for index columns,
'scores' for per-entry objects.  To look into a file with numpy:

    data = json.loads(Path(path).read_text())
    m = sum(data["set_sizes"])
    a, b = np.divmod(np.frombuffer(bytes.fromhex(data["pairs"]), "<i8"), m)
    s0 = np.frombuffer(bytes.fromhex(data["s"][0]), "<f8")

A result file is either a labelling, {"clusters"} alone, of which check
tests only feasibility, or a complete result as solve and oracle write it:
every field of RESULT_FIELDS, every StageRecord field in each trace stage,
and a config of SolverConfig's fields (OracleConfig's with the oracle's
empty trace, which is converged), of which check recomputes every value.
Any other set of fields is rejected, naming the first missing one.  Runs
are byte-reproducible for a fixed seed.

Exit codes: 0 success (solve: converged), 2 solve fell back to repair,
1 error, an allocation that runs out of memory included, with one
"error: ..." line on stderr; a failed check's line names the result file,
"error: <result>: ...".  A usage error (an unknown subcommand or flag, a
missing or mistyped value) exits 2 from argparse on every subcommand,
before any work.
"""

from __future__ import annotations

import argparse
import binascii
import functools
import json
import sys
from contextlib import nullcontext
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .bench import (SWEEP_BASE, SWEEP_OUTLIERS, ablation, format_ablation_table,
                    format_gap_table, monte_carlo_gap, precision_recall,
                    write_ablation_csv, write_gap_csv)
# check_* and pairwise_* are not called (see cmd_check); perfbench/tracing.py rebinds
# them, and tests/test_perfbench_contract.py guards that they stay importable
from .core import (Assignment, InfeasibleAssignmentError, Instance,  # noqa: F401
                   InvalidInstanceError, _check_sizes, check_cycle_consistency,
                   check_feasible, pairwise_from_assignment)
from .oracle import OracleConfig, solve_exact
from .relax import _labelling_values
from .solver import (STOP_REASONS, SolverConfig, SolverResult, StageRecord,
                     penalty_weights, solve)
from .synth import (DEFAULT_SUITE_BASE, GroundTruth, SynthConfig, derive_seed,
                    generate)

INSTANCE_FIELDS = {"set_sizes", "modalities", "pairs", "s", "metadata"}
RESULT_FIELDS = {"clusters", "relaxed_value", "frobenius_value", "converged",
                 "trace", "config"}
STAGE_FIELDS = {f.name for f in fields(StageRecord)}
TRUTH_FIELDS = {"set_sizes", "labels"}
VALUE_RTOL = 1e-9  # check: relative tolerance of a reported objective value
STAGE_RTOL = 1e-6  # check: a converged solve's last-stage objective vs its relaxed value

# the generator flags: each SynthConfig field a subcommand can set, with its
# flag and type; _add_synth_flags adds the ones a subcommand takes
SYNTH_FLAGS = {
    "universe_size": ("--universe-size", int), "num_sets": ("--num-sets", int),
    "observe_prob": ("--observe-prob", float), "modality_count": ("--modalities", int),
    "noise_sigma": ("--noise-sigma", float),
    "inconclusive_rate": ("--inconclusive-rate", float),
    "flip_rate": ("--flip-rate", float), "outliers_per_run": ("--outliers", int),
    "rng_seed": ("--seed", int)}
SYNTH_BASE = SynthConfig(universe_size=10, num_sets=3)   # fusematch synth's defaults


class FileFormatError(ValueError):
    """A file failed validation; the message names the file and the offender."""


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


def _finite(value: Any) -> bool:
    """A JSON number (bool is not one) that float64 holds: json reads 1e400,
    Infinity and NaN as non-finite floats, which no relative bound holds."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


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
    """One hex column of little-endian 8-byte values, as an array."""
    if not isinstance(text, str):
        raise FileFormatError(f"{where}: expected a hex string")
    try:
        raw = binascii.a2b_hex(text)
    except ValueError as exc:   # binascii.Error, or a character past ASCII
        raise FileFormatError(f"{where}: invalid hex") from exc
    if len(raw) % 8:
        raise FileFormatError(f"{where}: expected a multiple of 8 bytes, got {len(raw)}")
    return np.frombuffer(raw, dtype)


def read_instance(path: str | Path) -> Instance:
    data = _load_json(path)
    _require_fields(data, INSTANCE_FIELDS, INSTANCE_FIELDS - {"metadata"}, str(path))
    sizes = _check_sizes(data["set_sizes"], lambda msg: FileFormatError(f"{path}: {msg}"))
    count = data["modalities"]
    if type(count) is not int or count < 1:
        raise FileFormatError(f"{path}: modalities: expected a positive integer")
    # each JSON string is dropped from data as soon as it is decoded
    keys = _column(data.pop("pairs"), "<i8", f"{path}: pairs")
    pairs = np.empty((len(keys), 2), np.int64)
    np.divmod(keys, sum(sizes), out=(pairs[:, 0], pairs[:, 1]))
    texts = data.pop("s")
    if not isinstance(texts, list) or len(texts) != count:
        raise FileFormatError(f"{path}: s: expected {count} hex strings, one per modality")
    scores = np.empty((len(pairs), count))
    for k in range(count):
        column = _column(texts[k], "<f8", f"{path}: s[{k}]")
        texts[k] = None
        if len(column) != len(pairs):
            raise FileFormatError(f"{path}: s[{k}]: length {len(column)}, expected "
                                  f"the length of pairs, {len(pairs)}")
        scores[:, k] = column
    try:
        return Instance(sizes, count, pairs, scores)
    except InvalidInstanceError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _hex(column: np.ndarray, dtype: str) -> bytes:
    return binascii.b2a_hex(np.ascontiguousarray(column, dtype))


def _member(value: Any) -> bytes:
    """value as json.dump(..., indent=2) writes it as a member of the top-level
    object: its text indented one more level (a JSON string holds no raw newline)."""
    return json.dumps(value, indent=2).replace("\n", "\n  ").encode("ascii")


def write_instance(instance: Instance, path: str | Path,
                   metadata: dict | None = None) -> None:
    """Write to path the bytes of json.dump(fields, indent=2) plus a
    newline.  The hex columns are spliced in as they are: their alphabet
    needs no JSON escape.  The metadata, the only part that can fail, is
    encoded before the file is opened, so metadata that JSON cannot encode
    raises without creating or changing a file; then each column is
    encoded and written in turn, so one column is held at a time."""
    tail = b"" if metadata is None else b',\n  "metadata": ' + _member(metadata)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(b'{\n  "set_sizes": ' + _member(list(instance.set_sizes))
                 + b',\n  "modalities": ' + _member(instance.modality_count)
                 + b',\n  "pairs": "')
        a, b = instance.pairs.T
        fh.write(_hex(a * instance.num_elements + b, "<i8"))
        for k, column in enumerate(instance.scores.T):
            fh.write(b'",\n    "' if k else b'",\n  "s": [\n    "')
            fh.write(_hex(column, "<f8"))
        fh.write(b'"\n  ]' + tail + b"\n}\n")


def read_truth(path: str | Path) -> GroundTruth:
    data = _load_json(path)
    _require_fields(data, TRUTH_FIELDS, TRUTH_FIELDS, str(path))
    sizes = _check_sizes(data["set_sizes"], lambda msg: FileFormatError(f"{path}: {msg}"))
    labels = data["labels"]
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
    if len(data) == 1:   # a labelling; anything more is a complete result
        return data
    _require_fields(data, RESULT_FIELDS, RESULT_FIELDS, str(path))
    if not all(_finite(data[k]) for k in ("relaxed_value", "frobenius_value")):
        raise FileFormatError(f"{path}: objective values must be numbers and finite")
    if type(data["converged"]) is not bool:
        raise FileFormatError(f"{path}: converged: expected true or false")
    if type(data["config"]) is not dict:
        raise FileFormatError(f"{path}: config: expected an object")
    trace = data["trace"]
    if not isinstance(trace, list):
        raise FileFormatError(f"{path}: trace: expected a list")
    for i, stage in enumerate(trace):
        _require_fields(stage, STAGE_FIELDS, STAGE_FIELDS, f"{path}: trace[{i}]")
        steps = stage["inner_iterations"]
        if (not _finite(stage["d"]) or type(steps) is not int or steps < 0
                or not _finite(stage["objective"])):
            raise FileFormatError(f"{path}: trace[{i}]: expected finite numbers d and "
                                  f"objective and a nonnegative integer inner_iterations")
        if stage["stop"] not in STOP_REASONS:
            raise FileFormatError(f"{path}: trace[{i}]: stop: expected one of "
                                  f"{', '.join(STOP_REASONS)}")
        for count in ("merges", "fills"):
            if type(stage[count]) is not int or stage[count] < 0:
                raise FileFormatError(f"{path}: trace[{i}]: {count}: expected a "
                                      f"nonnegative integer")
    # a trace comes from solve, so config holds SolverConfig fields; an empty
    # one from oracle, which always converges and writes OracleConfig fields
    if not trace and not data["converged"]:
        raise FileFormatError(f"{path}: converged: expected true with an empty "
                              f"(oracle) trace")
    config_type = SolverConfig if trace else OracleConfig
    _require_fields(data["config"], {f.name for f in fields(config_type)}, set(),
                    f"{path}: config")
    try:
        config_type(**data["config"])
    except ValueError as exc:
        raise FileFormatError(f"{path}: config: {exc}") from exc
    return data


def _agree(reported: float, value: float, rtol: float) -> bool:
    return abs(reported - value) <= rtol * max(1.0, abs(reported), abs(value))


def _check_trace(result: dict, instance: Instance, path: str) -> None:
    """Raise on the first stage of a solver trace that solve cannot have
    written: it lies past the schedule's last weight, its d is not the
    schedule's ``penalty_weights`` entry, its inner iterations exceed
    config.max_inner_iters, its stop reason is "max_iters" while they stay
    under that cap, or another reason while they reach it, or it merged
    or filled more rows than its steps can: each follows an accepted step,
    a merge needs two private columns per merged row, so m // 2 rows a
    step, and a fill raises each row at most once, so m rows a step.  A
    result that is not converged must also have run every weight, since
    the repair runs only after the last one."""
    trace = result["trace"]
    if not trace:
        return
    cap = SolverConfig(**result["config"]).max_inner_iters
    m = instance.num_elements
    weights = list(penalty_weights(instance.modality_count))
    for i, stage in enumerate(trace):
        where = f"{path}: trace[{i}]"
        if i == len(weights):
            raise FileFormatError(f"{where}: past the schedule, which ends after "
                                  f"{len(weights)} penalty weights")
        if not _agree(stage["d"], weights[i], VALUE_RTOL):
            raise FileFormatError(
                f"{where}: d {stage['d']!r} is not the schedule's {weights[i]!r}")
        steps = stage["inner_iterations"]
        if steps > cap:
            raise FileFormatError(
                f"{where}: inner_iterations {steps} exceeds max_inner_iters {cap}")
        if (stage["stop"] == "max_iters") != (steps == cap):
            raise FileFormatError(f"{where}: stop {stage['stop']!r} with {steps} of "
                                  f"max_inner_iters {cap} inner iterations")
        for count, per_step in (("merges", m // 2), ("fills", m)):
            if stage[count] > steps * per_step:
                raise FileFormatError(f"{where}: {count} {stage[count]} with {steps} "
                                      f"inner iterations, at most {per_step} a step")
    if not result["converged"] and len(trace) < len(weights):
        raise FileFormatError(
            f"{path}: trace[{len(trace) - 1}]: not converged after {len(trace)} of the "
            f"schedule's {len(weights)} penalty weights; the repair runs only after "
            f"the last")


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
    # written as a converged solve with an empty trace, so relaxed at d = 0, by
    # the stored-pair formula that gave exact.value
    relaxed = _labelling_values(exact.assignment.labels, instance, 0.0)[1]
    result = SolverResult(assignment=exact.assignment, relaxed_value=relaxed,
                          frobenius_value=exact.value, trace=(), converged=True)
    _dump_json(result_payload(result, asdict(cfg)), args.out)
    print(f"optimum={exact.value:.6g} clusters={exact.assignment.num_clusters}")
    return 0


def _synth_config(args: argparse.Namespace) -> SynthConfig:
    """The subcommand's base config with the value of each generator flag it takes."""
    return replace(args.base, **{k: v for k, v in vars(args).items() if k in SYNTH_FLAGS})


def cmd_synth(args: argparse.Namespace) -> int:
    base = _synth_config(args)
    if args.trials < 1:
        raise ValueError("trials must be at least 1")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for t in range(args.trials):
        config = replace(base, rng_seed=derive_seed(base.rng_seed, t))
        instance, truth = generate(config)
        metadata = {"seed": config.rng_seed, "generator": asdict(config)}
        write_instance(instance, out_dir / f"instance_{t:03d}.json", metadata)
        write_truth(truth, instance.set_sizes, out_dir / f"truth_{t:03d}.json")
    print(f"wrote {args.trials} instances to {out_dir}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = monte_carlo_gap(_synth_config(args), args.outliers, args.trials)
    if args.out:
        write_gap_csv(rows, args.out)
    print(format_gap_table(rows))
    return 0


def cmd_ablation(args: argparse.Namespace) -> int:
    base = _synth_config(args)
    rows = ablation(args.trials, base.rng_seed, base=base)
    if args.out:
        write_ablation_csv(rows, args.out)
    print(format_ablation_table(rows))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    path = args.result
    result = read_result(path)
    instance = read_instance(args.instance)
    m = instance.num_elements
    seen: dict[int, int] = {}
    for c, members in enumerate(result["clusters"]):
        if not members:
            raise FileFormatError(f"{path}: cluster {c} is empty")
        for r in members:
            if not 0 <= r < m:
                raise FileFormatError(f"{path}: element {r} out of range for {m} elements")
            if r in seen:
                raise FileFormatError(
                    f"{path}: element {r} appears in clusters {seen[r]} and {c}")
            seen[r] = c
    if len(seen) != m:
        covered = np.zeros(m, bool)   # one byte an element; the message lists ten
        covered[list(seen)] = True
        missing = np.flatnonzero(~covered)
        raise FileFormatError(f"{path}: elements missing from clusters: {len(missing)} "
                              f"of {m}, lowest {missing[:10].tolist()}")
    labels = [seen[r] for r in range(m)]
    try:
        Assignment(labels, instance.set_sizes)
    except InfeasibleAssignmentError as exc:
        raise FileFormatError(f"{path}: infeasible clusters: {exc}") from exc
    # feasible by the line above, and one-hot labels are cycle consistent by construction
    # (tests/test_core.py::TestCycleConsistency::test_random_assignments_are_cycle_consistent)
    if len(result) > 1:   # a complete result: check every number it reports
        _check_trace(result, instance, path)
        # from the stored pairs, with no m x m array; relaxed at the last
        # stage's d, or at 0 for an empty (oracle) trace
        trace = result["trace"]
        frobenius, relaxed = _labelling_values(labels, instance,
                                               trace[-1]["d"] if trace else 0.0)
        for field, value in (("frobenius_value", frobenius), ("relaxed_value", relaxed)):
            if not _agree(result[field], value, VALUE_RTOL):
                raise FileFormatError(f"{path}: {field} {result[field]!r} does not match "
                                      f"the recomputed {value!r}")
        # a converged solve's last stage ends within BINARY_TOL of its binary output
        last = trace[-1]["objective"] if trace and result["converged"] else None
        if last is not None and not _agree(last, relaxed, STAGE_RTOL):
            raise FileFormatError(f"{path}: trace[{len(trace) - 1}]: objective {last!r} "
                                  f"is not the converged solve's relaxed value {relaxed!r}")
    print("ok: clusters are feasible and cycle consistent")
    return 0


def _add_synth_flags(parser: argparse.ArgumentParser, base: SynthConfig,
                     *names: str) -> None:
    """Add the generator flag of each named SynthConfig field, dest the field
    and default the base's value; _synth_config reads them back."""
    for name in names:
        flag, kind = SYNTH_FLAGS[name]
        parser.add_argument(flag, dest=name, type=kind, default=getattr(base, name),
                            help="default: %(default)s")
    parser.set_defaults(base=base)


@functools.cache   # one per process: each parser is a web of reference cycles
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusematch",
        description="Multimodal multiway association: fuse pair scores across "
                    "observation sets into a consistent assignment.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--seed", type=int, default=SolverConfig().rng_seed,
                         help="solver seed (rng_seed)")
    p_solve.add_argument("--truth", help="truth file; prints precision/recall/F1")
    p_solve.add_argument("--out", help="result file path (default: stdout)")
    p_solve.set_defaults(func=cmd_solve)

    p_oracle = sub.add_parser("oracle", help="exhaustive exact solve (small instances)")
    p_oracle.add_argument("instance")
    p_oracle.add_argument("--out", help="result file path (default: stdout)")
    p_oracle.add_argument("--max-elements", dest="max_elements", type=int,
                          default=OracleConfig().max_elements)
    p_oracle.set_defaults(func=cmd_oracle)

    p_synth = sub.add_parser("synth", help="generate instance/truth files")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--trials", type=int, default=1)
    _add_synth_flags(p_synth, SYNTH_BASE, *SYNTH_FLAGS)
    p_synth.set_defaults(func=cmd_synth)

    p_sweep = sub.add_parser("sweep", help="outlier sweep against the exact optimum")
    p_sweep.add_argument("--out", help="CSV output path")
    p_sweep.add_argument("--trials", type=int, default=50)
    p_sweep.add_argument("--outliers", type=int, nargs="+", default=SWEEP_OUTLIERS,
                         help="outlier counts to sweep (default: %(default)s)")
    _add_synth_flags(p_sweep, SWEEP_BASE, "universe_size", "num_sets", "observe_prob",
                     "modality_count", "noise_sigma", "inconclusive_rate", "flip_rate",
                     "rng_seed")
    p_sweep.set_defaults(func=cmd_sweep)

    # the modality profiles fix the ablation's modalities and corruption
    p_ablation = sub.add_parser("ablation", help="modality ablation: mean F1 per "
                                "modality subset, solver against two baselines")
    p_ablation.add_argument("--out", help="CSV output path")
    p_ablation.add_argument("--trials", type=int, default=50)
    _add_synth_flags(p_ablation, DEFAULT_SUITE_BASE, "universe_size", "num_sets",
                     "observe_prob", "outliers_per_run", "rng_seed")
    p_ablation.set_defaults(func=cmd_ablation)

    p_check = sub.add_parser("check", help="validate a result against an instance")
    p_check.add_argument("result")
    p_check.add_argument("instance")
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:   # the package's errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:   # numpy's message names the allocation that failed
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
