"""Command-line interface and file formats, exercised in process."""

from __future__ import annotations

import base64
import hashlib
import json
import math
import struct
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusematch.cli
from fusematch import Instance, SolverConfig, StageRecord, SynthConfig, generate, solve
from fusematch.cli import (
    FileFormatError,
    main,
    read_instance,
    read_result,
    read_truth,
    write_instance,
    write_truth,
)
from fusematch.synth import DEFAULT_SUITE_BASE


@pytest.fixture
def instance_file(tmp_path):
    cfg = SynthConfig(universe_size=3, num_sets=3, noise_sigma=0.05, rng_seed=4)
    instance, truth = generate(cfg)
    inst_path = tmp_path / "instance.json"
    truth_path = tmp_path / "truth.json"
    write_instance(instance, inst_path)
    write_truth(truth, instance.set_sizes, truth_path)
    return inst_path, truth_path, instance, truth


def _i64(values) -> str:
    """An index column as a file holds it: base64 of little-endian int64."""
    return base64.b64encode(struct.pack(f"<{len(values)}q", *values)).decode()


def _f64(values) -> str:
    """A score column as a file holds it: base64 of little-endian float64."""
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode()


def _decoded(data: dict) -> tuple[list, list, list]:
    """The a, b and s columns of a parsed instance file, decoded without numpy."""
    def unpack(code, text):
        raw = base64.b64decode(text, validate=True)
        return list(struct.unpack(f"<{len(raw) // 8}{code}", raw))
    a, b = (unpack("q", data[name]) for name in "ab")
    return a, b, [unpack("d", column) for column in data["s"]]


def _columns_file(path, a, b, s, sizes=(1, 1), count=1):
    """An instance file holding the given columns, encoded as written, faults
    included."""
    path.write_text(json.dumps({"set_sizes": list(sizes), "modalities": count,
                                "a": _i64(a), "b": _i64(b),
                                "s": [_f64(column) for column in s]}))
    return path


SPECIAL_SCORES = [0.0, 1.0, 5e-324, 0.1 + 0.2, math.nextafter(1.0, 0.0)]


@st.composite
def instances(draw) -> Instance:
    """Up to three sets of up to three elements, so within-set and cross-set
    pairs, K = 1-3, and scores that a decimal layout could round."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    count = draw(st.integers(1, 3))
    m = sum(sizes)
    candidates = [(a, b) for a in range(m) for b in range(a + 1, m)]
    pairs = draw(st.lists(st.sampled_from(candidates), unique=True)) if candidates else []
    score = st.one_of(st.sampled_from(SPECIAL_SCORES), st.floats(0.0, 1.0))
    scores = [draw(st.lists(score, min_size=count, max_size=count)) for _ in pairs]
    return Instance(tuple(sizes), count, pairs, scores)


class TestInstanceIO:
    def test_write_then_read_is_exact(self, instance_file):
        inst_path, _, instance, _ = instance_file
        loaded = read_instance(inst_path)
        assert loaded == instance

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_generated_instances_roundtrip(self, tmp_path, count):
        cfg = SynthConfig(universe_size=4, num_sets=3, modality_count=count,
                          observe_prob=0.8, outliers_per_run=1, noise_sigma=0.2,
                          inconclusive_rate=0.2, flip_rate=0.1, rng_seed=count)
        instance, _ = generate(cfg)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        write_instance(instance, first)
        write_instance(read_instance(first), second)
        assert read_instance(first) == instance
        assert first.read_bytes() == second.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(instance=instances())
    def test_roundtrip_property(self, instance):
        # the read gives the instance back bit for bit, and a re-write the same bytes
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "first.json"), Path(tmp, "second.json")
            write_instance(instance, first)
            loaded = read_instance(first)
            write_instance(loaded, second)
            assert loaded == instance
            assert first.read_bytes() == second.read_bytes()

    def test_default_score_vectors_omitted(self, tmp_path):
        inst = Instance(set_sizes=(1, 1, 1), modality_count=1,
                        pairs=[(0, 1), (0, 2)], scores=[(0.5,), (0.9,)])
        path = tmp_path / "sparse.json"
        write_instance(inst, path)
        data = json.loads(path.read_text())
        assert _decoded(data) == ([0], [2], [[0.9]])
        assert read_instance(path) == inst

    def test_within_set_half_scores_roundtrip(self, tmp_path):
        # 0.5 is the default only across sets; within a set it is information
        inst = Instance(set_sizes=(2, 1), modality_count=1,
                        pairs=[(0, 1), (0, 2)], scores=[(0.5,), (0.9,)])
        path = tmp_path / "within.json"
        write_instance(inst, path)
        data = json.loads(path.read_text())
        assert _decoded(data) == ([0, 0], [1, 2], [[0.5, 0.9]])
        assert read_instance(path) == inst

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "set_sizes": [1, 1], "modalities": 1, "a": "", "b": "", "s": [""],
            "extra": 1}))
        with pytest.raises(FileFormatError, match="unknown field 'extra'"):
            read_instance(path)

    def test_per_entry_layout_rejected(self, tmp_path):
        # the layout of earlier versions has no second reader
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"set_sizes": [1, 1], "modalities": 1,
                                    "scores": [{"a": 0, "b": 1, "s": [0.9]}]}))
        with pytest.raises(FileFormatError, match="unknown field 'scores'"):
            read_instance(path)

    def test_score_out_of_range_names_entry(self, tmp_path):
        path = _columns_file(tmp_path / "bad.json", [0], [1], [[1.5]])
        with pytest.raises(FileFormatError,
                           match=r"entry 0: scores must lie in \[0, 1\]$"):
            read_instance(path)

    def test_unordered_pair_rejected(self, tmp_path):
        path = _columns_file(tmp_path / "bad.json", [1], [0], [[0.9]])
        with pytest.raises(FileFormatError, match="entry 0: indices must satisfy 0 <= a < b"):
            read_instance(path)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = _columns_file(tmp_path / "bad.json", [0, 0], [1, 1], [[0.9, 0.8]])
        with pytest.raises(FileFormatError, match=r"entry 1: duplicate pair \(0, 1\)"):
            read_instance(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(FileFormatError, match="line 2"):
            read_instance(path)

    @pytest.mark.parametrize("sizes, count, fault", [
        ([True, True], 1, "set_sizes"), ([1, 1], True, "modalities")])
    def test_boolean_sizes_rejected(self, tmp_path, sizes, count, fault):
        path = _columns_file(tmp_path / "bad.json", [0], [1], [[0.9]], sizes, count)
        with pytest.raises(FileFormatError, match=fault):
            read_instance(path)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_nonfinite_score_rejected(self, tmp_path, bad):
        path = _columns_file(tmp_path / "bad.json", [0], [1], [[float(bad.lower())]])
        with pytest.raises(FileFormatError, match=r"entry 0: scores must lie in \[0, 1\]"):
            read_instance(path)

    @pytest.mark.parametrize("a, b, s, message", [
        ([0, -1], [1, 2], [[0.9, 0.9]], "entry 1: indices must satisfy 0 <= a < b < 3"),
        ([0, 0], [1, 3], [[0.9, 0.9]], "entry 1: indices must satisfy 0 <= a < b < 3"),
        ([0], [2 ** 63 - 1], [[0.9]], "entry 0: indices must satisfy 0 <= a < b < 3"),
        ([0, 0], [1, 2], [[0.9, math.inf]], "entry 1: scores must lie in [0, 1]"),
    ], ids=["a-negative", "b-past-m", "b-int64-max", "score-past-float"])
    def test_number_past_machine_range_exits_one(self, tmp_path, capsys, a, b, s, message):
        # an int64 column holds any index up to 2**63 - 1 and a float64 column
        # holds a score past its range as inf; Instance names the entry, and
        # solve exits 1 with no crash
        path = _columns_file(tmp_path / "bad.json", a, b, s, (1, 1, 1))
        with pytest.raises(FileFormatError) as err:
            read_instance(path)
        assert str(err.value) == f"{path}: {message}"
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("columns, message", [
        ({"a": [0]}, "a: expected a base64 string"),
        ({"a": 0}, "a: expected a base64 string"),
        ({"b": {"0": 1}}, "b: expected a base64 string"),
        ({"a": "AAAAAAAAAA!="}, "a: invalid base64"),
        ({"b": "AQAAAAAAAAé="}, "b: invalid base64"),
        ({"a": "AAAAAAAA\nAAA="}, "a: invalid base64"),
        ({"a": "AAAAAAAAAAA"}, "a: invalid base64"),
        ({"b": base64.b64encode(bytes(12)).decode()},
         "b: expected a multiple of 8 bytes, got 12"),
        ({"s": [_f64([1.5])]}, "s: expected 2 base64 strings, one per modality"),
        ({"s": {"0": _f64([1.5])}}, "s: expected 2 base64 strings, one per modality"),
        ({"s": [1.5, 0.8]}, "s[0]: expected a base64 string"),
        ({"b": _i64([1, 2])}, "b: length 2, expected a's length 1"),
        ({"s": [_f64([1.5]), _f64([])]}, "s[1]: length 0, expected a's length 1"),
    ], ids=["a-list", "a-not-list", "b-not-list", "a-not-alphabet", "b-non-ascii",
            "a-whitespace", "a-bad-padding", "b-not-8-bytes", "s-one-list", "s-object",
            "s-numbers", "lengths-differ", "s-column-short"])
    def test_shape_fault_rejected(self, tmp_path, columns, message):
        # every other column is sound and entry 0's score is out of range: a
        # column's fault comes before any entry's; "a-list" is the number-list
        # layout of earlier versions
        payload = {"set_sizes": [1, 1, 1], "modalities": 2, "a": _i64([0]),
                   "b": _i64([1]), "s": [_f64([1.5]), _f64([0.8])], **columns}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FileFormatError) as err:
            read_instance(path)
        assert str(err.value) == f"{path}: {message}"

    def test_synth_files_golden_bytes(self, tmp_path):
        # pins the byte layout of written instance and truth files
        code = main(["synth", "--out", str(tmp_path), "--universe-size", "3",
                     "--num-sets", "3", "--modalities", "2", "--noise-sigma", "0.15",
                     "--inconclusive-rate", "0.15", "--flip-rate", "0.05",
                     "--outliers", "1", "--seed", "7"])
        assert code == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("instance_000.json", "truth_000.json")}
        assert digests == {
            "instance_000.json":
                "2994604e13a2d5786616ea1a624f791bbe1466f5cff373d23c0aba0078e11d64",
            "truth_000.json":
                "175d0e143955c7547c57d81bbb9667fc08315badfd41c76c3716a6a5315291a7",
        }

    def test_truth_roundtrip(self, instance_file):
        _, truth_path, _, truth = instance_file
        loaded = read_truth(truth_path)
        assert loaded.labels == truth.labels

    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("metadata", [
        None, {}, {"seed": 3, "note": None, "sigma": 0.15,
                   "generator": {"flip_rate": 1e-05, "sizes": [2, 2], "rng_seed": None}}])
    @pytest.mark.parametrize("stored", [True, False])
    def test_write_matches_json_reference(self, tmp_path, count, metadata, stored):
        # within-set rows (0, 1) and (2, 3), cross-set rows, floats with long reprs;
        # no row is all-default, so all are stored, in canonical order
        table = {(0, 1): [0.5, 0.0, 1.0], (0, 2): [0.0, 1e-05, 0.5],
                 (0, 4): [1.0, 0.5, 0.1 + 0.2], (1, 4): [1e-05, 0.3, 0.0],
                 (2, 3): [0.1 + 0.2, 1.0, 0.0], (3, 4): [0.123456789012345, 0.5, 1.0]}
        pairs = list(table) if stored else []
        scores = [table[p][:count] for p in pairs]
        inst = Instance(set_sizes=(2, 2, 1), modality_count=count,
                        pairs=pairs, scores=scores)
        assert len(inst.pairs) == len(pairs)
        path = tmp_path / "instance.json"
        write_instance(inst, path, metadata)
        columns = ([a for a, _ in pairs], [b for _, b in pairs],
                   [[row[k] for row in scores] for k in range(count)])
        # the columns, read back with struct alone
        data = json.loads(path.read_text())
        assert _decoded(data) == columns
        # the whole text: json.dumps(..., indent=2) of the fields in their order
        reference = {"set_sizes": [2, 2, 1], "modalities": count,
                     "a": _i64(columns[0]), "b": _i64(columns[1]),
                     "s": [_f64(column) for column in columns[2]]}
        if metadata is not None:
            reference["metadata"] = metadata
        assert path.read_text() == json.dumps(reference, indent=2) + "\n"
        assert read_instance(path) == inst

    def test_write_to_stdout(self, instance_file, capsys):
        inst_path, _, instance, _ = instance_file
        write_instance(instance, None)
        assert capsys.readouterr().out == inst_path.read_text()

    def test_write_makes_parent_directories(self, instance_file, tmp_path):
        inst_path, _, instance, _ = instance_file
        path = tmp_path / "new" / "dirs" / "instance.json"
        write_instance(instance, path)
        assert path.read_bytes() == inst_path.read_bytes()

    def test_lowest_faulty_entry_named(self, tmp_path):
        # Instance's checks run on whole columns, yet must report the first
        # faulty entry, whatever its fault: entry 0 is sound and every later
        # entry holds one fault
        good = (0, 1, [0.9, 0.8])
        faulty = [(0, 2, [0.9, math.inf]), (-1, 2, [0.9, 0.8]), (2, 1, [0.9, 0.8]),
                  (0, 3, [0.9, 0.8]), (1, 2, [1.5, 0.8]), (1, 2, [0.9, -0.5]),
                  (0, 2, [0.9, math.nan]), good]
        expected = ["scores must lie in \\[0, 1\\]", "indices must satisfy",
                    "indices must satisfy", "indices must satisfy",
                    "scores must lie in \\[0, 1\\]", "scores must lie in \\[0, 1\\]",
                    "scores must lie in \\[0, 1\\]", "duplicate pair \\(0, 1\\)"]
        for i in range(len(faulty)):
            entries = [good] + faulty[i:] + faulty[:i]
            path = _columns_file(tmp_path / "bad.json", [e[0] for e in entries],
                                 [e[1] for e in entries],
                                 [[e[2][k] for e in entries] for k in range(2)],
                                 (1, 1, 1), 2)
            with pytest.raises(FileFormatError, match=r"entry 1: ") as err:
                read_instance(path)
            assert err.match(expected[i])

    @pytest.mark.parametrize("a, b, s", [
        ([0, 0], [1, 1], [[1.5, 0.9]]),
        ([0, 1], [1, 3], [[-0.5, 0.9]]),
    ], ids=["then-duplicate", "then-index-past-m"])
    def test_score_fault_named_before_later_faults(self, tmp_path, a, b, s):
        # entry 0's score is out of range and entry 1 holds another fault,
        # which Instance finds; entry 0 is named either way
        path = _columns_file(tmp_path / "bad.json", a, b, s, (1, 1, 1))
        with pytest.raises(FileFormatError) as err:
            read_instance(path)
        assert str(err.value) == f"{path}: entry 0: scores must lie in [0, 1]"

    def test_truth_empty_set_sizes_rejected(self, tmp_path):
        path = tmp_path / "truth.json"
        path.write_text(json.dumps({"set_sizes": [], "labels": []}))
        with pytest.raises(FileFormatError, match="set_sizes: expected positive integers"):
            read_truth(path)

    @pytest.mark.parametrize("sizes, labels, fault", [
        ([1, 1], [0, True], "labels: expected integers"),
        ([True, 1], [0, 1], "set_sizes: expected positive integers")])
    def test_truth_boolean_rejected(self, tmp_path, sizes, labels, fault):
        path = tmp_path / "truth.json"
        path.write_text(json.dumps({"set_sizes": sizes, "labels": labels}))
        with pytest.raises(FileFormatError, match=fault):
            read_truth(path)


class TestSolveCommand:
    def test_solve_writes_result_and_exits_zero(self, instance_file, tmp_path, capsys):
        inst_path, truth_path, _, _ = instance_file
        out = tmp_path / "result.json"
        code = main(["solve", str(inst_path), "--out", str(out),
                     "--truth", str(truth_path), "--seed", "7"])
        assert code == 0
        captured = capsys.readouterr()
        assert "converged=True" in captured.out
        assert "precision=1.0000" in captured.out
        result = read_result(out)
        assert result["converged"] is True
        assert result["config"] == {"max_inner_iters": 1000, "rng_seed": 7}

    def test_truth_for_other_set_sizes_rejected(self, instance_file, tmp_path, capsys):
        # the label count matches, the sets do not
        inst_path, _, instance, _ = instance_file
        m = instance.num_elements
        truth_path = tmp_path / "one_set.json"
        truth_path.write_text(json.dumps({"set_sizes": [m], "labels": list(range(m))}))
        out = tmp_path / "result.json"
        assert main(["solve", str(inst_path), "--out", str(out),
                     "--truth", str(truth_path)]) == 1
        captured = capsys.readouterr()
        assert (f"error: {truth_path}: set_sizes: expected {list(instance.set_sizes)}"
                in captured.err)
        # the truth is checked before solving: nothing printed, no result file
        assert captured.out == ""
        assert not out.exists()

    def test_trace_entries_are_stage_records(self, instance_file, tmp_path):
        # each trace entry holds StageRecord's fields, in their order, with
        # the values solve returned
        inst_path, _, instance, _ = instance_file
        out = tmp_path / "result.json"
        assert main(["solve", str(inst_path), "--out", str(out), "--seed", "7"]) == 0
        trace = json.loads(out.read_text())["trace"]
        stages = solve(instance, SolverConfig(rng_seed=7)).trace
        assert [list(entry) for entry in trace] == [[f.name for f in fields(StageRecord)]
                                                    for _ in stages]
        assert tuple(StageRecord(**entry) for entry in trace) == stages

    def test_reruns_byte_identical(self, instance_file, tmp_path):
        inst_path, _, _, _ = instance_file
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["solve", str(inst_path), "--out", str(a), "--seed", "7"]) == 0
        assert main(["solve", str(inst_path), "--out", str(b), "--seed", "7"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_instance_exits_one(self, tmp_path, capsys):
        path = _columns_file(tmp_path / "bad.json", [0], [1], [[2.0]])
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: entry 0: scores must lie in [0, 1]\n")

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err


class TestOracleCommand:
    def test_oracle_matches_solver_on_clean_instance(self, tmp_path, capsys):
        cfg = SynthConfig(universe_size=2, num_sets=3, rng_seed=1)
        instance, _ = generate(cfg)
        inst_path = tmp_path / "instance.json"
        write_instance(instance, inst_path)
        out = tmp_path / "oracle.json"
        assert main(["oracle", str(inst_path), "--out", str(out)]) == 0
        assert "optimum=0" in capsys.readouterr().out
        result = read_result(out)
        assert result["frobenius_value"] == 0.0
        assert result["trace"] == []

    def test_cap_exceeded_exits_one(self, tmp_path, capsys):
        cfg = SynthConfig(universe_size=5, num_sets=3, rng_seed=0)
        instance, _ = generate(cfg)
        inst_path = tmp_path / "instance.json"
        write_instance(instance, inst_path)
        assert main(["oracle", str(inst_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_cap_override_flag(self, tmp_path, capsys):
        cfg = SynthConfig(universe_size=5, num_sets=3, rng_seed=0)
        instance, _ = generate(cfg)
        inst_path = tmp_path / "instance.json"
        write_instance(instance, inst_path)
        assert main(["oracle", str(inst_path), "--max-elements", "15"]) == 0


class TestSynthCommand:
    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_nonpositive_trials_exit_one(self, tmp_path, trials, capsys):
        out_dir = tmp_path / "corpus"
        assert main(["synth", "--out", str(out_dir), "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert "error: trials must be at least 1" in captured.err
        assert captured.out == ""
        assert not out_dir.exists()

    def test_writes_instances_and_truths(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        code = main(["synth", "--out", str(out_dir), "--universe-size", "3",
                     "--num-sets", "3", "--trials", "2", "--seed", "5",
                     "--noise-sigma", "0.05"])
        assert code == 0
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == ["instance_000.json", "instance_001.json",
                         "truth_000.json", "truth_001.json"]
        inst = read_instance(out_dir / "instance_000.json")
        truth = read_truth(out_dir / "truth_000.json")
        assert len(truth.labels) == inst.num_elements


def _past_schedule(result: dict) -> None:
    # stages on the doubling schedule up to d = 0.01 * 2^24, 25 in all; with
    # no relaxed value and no convergence claim, nothing else ties down the
    # last d
    trace = result["trace"]
    trace.extend(dict(trace[-1], d=trace[0]["d"] * 2.0 ** i) for i in range(len(trace), 25))
    del result["relaxed_value"]
    result["converged"] = False


class TestCheckCommand:
    def _solve_to_file(self, tmp_path):
        cfg = SynthConfig(universe_size=3, num_sets=3, rng_seed=2)
        instance, _ = generate(cfg)
        inst_path = tmp_path / "instance.json"
        write_instance(instance, inst_path)
        out = tmp_path / "result.json"
        assert main(["solve", str(inst_path), "--out", str(out)]) == 0
        return inst_path, out

    def test_valid_result_passes(self, tmp_path, capsys):
        inst_path, out = self._solve_to_file(tmp_path)
        assert main(["check", str(out), str(inst_path)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_tampered_result_fails(self, tmp_path, capsys):
        inst_path, out = self._solve_to_file(tmp_path)
        data = json.loads(out.read_text())
        data["clusters"][0] = data["clusters"][0] + data["clusters"][1]
        out.write_text(json.dumps(data))
        assert main(["check", str(out), str(inst_path)]) == 1

    def test_forged_objective_fails(self, tmp_path, capsys):
        inst_path, out = self._solve_to_file(tmp_path)
        data = json.loads(out.read_text())
        frobenius_value = data["frobenius_value"]
        data["frobenius_value"] = -123.0
        data["relaxed_value"] = 9e9
        out.write_text(json.dumps(data))
        assert main(["check", str(out), str(inst_path)]) == 1
        assert "frobenius_value -123.0" in capsys.readouterr().out
        data["frobenius_value"] = frobenius_value
        out.write_text(json.dumps(data))
        assert main(["check", str(out), str(inst_path)]) == 1
        assert "relaxed_value 9000000000.0" in capsys.readouterr().out

    def test_oracle_result_passes(self, tmp_path, capsys):
        cfg = SynthConfig(universe_size=2, num_sets=3, noise_sigma=0.2, rng_seed=3)
        instance, _ = generate(cfg)
        inst_path = tmp_path / "instance.json"
        write_instance(instance, inst_path)
        out = tmp_path / "oracle.json"
        assert main(["oracle", str(inst_path), "--out", str(out)]) == 0
        assert main(["check", str(out), str(inst_path)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_clusters_only_result_passes(self, tmp_path, capsys):
        inst_path, out = self._solve_to_file(tmp_path)
        data = json.loads(out.read_text())
        out.write_text(json.dumps({"clusters": data["clusters"]}))
        capsys.readouterr()
        assert main(["check", str(out), str(inst_path)]) == 0
        assert capsys.readouterr().out == (
            "ok: clusters are feasible and cycle consistent\n")

    def test_non_numeric_objective_rejected(self, tmp_path, capsys):
        inst_path, out = self._solve_to_file(tmp_path)
        data = json.loads(out.read_text())
        data["frobenius_value"] = "0"
        out.write_text(json.dumps(data))
        assert main(["check", str(out), str(inst_path)]) == 1
        assert "must be numbers" in capsys.readouterr().err

    def test_boolean_cluster_index_rejected(self, tmp_path, capsys):
        inst_path, out = tmp_path / "instance.json", tmp_path / "result.json"
        write_instance(Instance(set_sizes=(1, 1), modality_count=1), inst_path)
        out.write_text('{"clusters": [[0], [true]]}')
        assert main(["check", str(out), str(inst_path)]) == 1
        assert "clusters: expected lists of integers" in capsys.readouterr().err
        out.write_text('{"clusters": [[0], [1]]}')
        assert main(["check", str(out), str(inst_path)]) == 0

    def test_empty_cluster_fails(self, tmp_path, capsys):
        # solve never writes an empty cluster; check used to accept one
        inst_path, out = self._solve_to_file(tmp_path)
        data = json.loads(out.read_text())
        data["clusters"].append([])
        out.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["check", str(out), str(inst_path)]) == 1
        assert capsys.readouterr().out == f"cluster {len(data['clusters']) - 1} is empty\n"

    @pytest.mark.parametrize("field, value, message", [
        ("converged", "yes", "converged: expected true or false"),
        ("config", 5, "config: expected an object"),
        ("trace", {"d": 1.0}, "trace: expected a list"),
        ("trace", [{"d": 1.0, "inner_iterations": 3, "objective": 0.5, "bogus": 1}],
         "trace[0]: unknown field 'bogus'"),
        ("trace", [{"d": 1.0, "objective": 0.5}], "trace[0]: missing field 'inner_iterations'"),
        ("trace", [{"d": "1", "inner_iterations": 3, "objective": 0.5}], "trace[0]: expected"),
        ("trace", [{"d": 1.0, "inner_iterations": -1, "objective": 0.5}], "trace[0]: expected"),
        ("trace", [{"d": 1.0, "inner_iterations": 2.0, "objective": 0.5}], "trace[0]: expected"),
        ("trace", [{"d": 1.0, "inner_iterations": True, "objective": 0.5}], "trace[0]: expected"),
        ("trace", [{"d": 1.0, "inner_iterations": 3, "objective": None}], "trace[0]: expected"),
        ("trace", [7], "trace[0]: expected a JSON object"),
        ("trace", [{"d": 0.01, "inner_iterations": 3, "objective": 0.5, "stop": "done"}],
         "trace[0]: stop: expected one of tol, stall, max_iters"),
        ("config", {"max_elements": 12}, "config: unknown field 'max_elements'"),
        ("config", {"max_inner_iters": 0}, "config: max_inner_iters must be at least 1"),
        ("trace", [{"d": 0.01, "inner_iterations": 3, "objective": 0.5, "merges": -1}],
         "trace[0]: merges: expected a nonnegative integer"),
        ("trace", [{"d": 0.01, "inner_iterations": 3, "objective": 0.5, "merges": 1.0}],
         "trace[0]: merges: expected a nonnegative integer"),
        ("trace", [{"d": 0.01, "inner_iterations": 3, "objective": 0.5, "merges": True}],
         "trace[0]: merges: expected a nonnegative integer"),
        ("trace", [{"d": 0.01, "inner_iterations": 3, "objective": 0.5, "fills": -1}],
         "trace[0]: fills: expected a nonnegative integer"),
        ("trace", [{"d": 0.01, "inner_iterations": 3, "objective": 0.5, "fills": 1.0}],
         "trace[0]: fills: expected a nonnegative integer"),
        ("trace", [{"d": 0.01, "inner_iterations": 3, "objective": 0.5, "fills": False}],
         "trace[0]: fills: expected a nonnegative integer"),
    ])
    def test_malformed_result_fields_rejected(self, tmp_path, capsys, field, value, message):
        # each of these used to pass with "ok"
        inst_path, out = self._solve_to_file(tmp_path)
        data = json.loads(out.read_text())
        data[field] = value
        out.write_text(json.dumps(data))
        assert main(["check", str(out), str(inst_path)]) == 1
        captured = capsys.readouterr()
        assert f"error: {out}: {message}" in captured.err
        assert "ok:" not in captured.out

    @pytest.mark.parametrize("forge, message", [
        (lambda res: res["trace"][0].update(inner_iterations=999999),
         "trace[0]: inner_iterations 999999 exceeds max_inner_iters 1000"),
        (lambda res: res["trace"].insert(
            0, {"d": 7.0, "inner_iterations": 3, "objective": 0.5}),
         "trace[0]: d 7.0 is not the schedule's 0.01"),
        (lambda res: res["trace"][-1].update(d=-1.0),
         "trace[-1]: d -1.0 is not the schedule's"),
        (lambda res: res["trace"][-1].update(objective=123456.0),
         "trace[-1]: objective 123456.0 is not the converged solve's relaxed value"),
        (lambda res: res["trace"][-1].update(stop="max_iters"),
         "trace[-1]: stop 'max_iters' with"),
        (lambda res: res["trace"][0].update(inner_iterations=0, merges=1),
         "trace[0]: merges 1 with 0 inner iterations"),
        (lambda res: res["trace"][0].update(inner_iterations=2, merges=9),
         "trace[0]: merges 9 with 2 inner iterations, at most 4 a step"),
        (_past_schedule, "trace[20]: past the schedule, which ends after 20 penalty weights"),
        (lambda res: res.update(converged=False),
         "trace[-1]: not converged after 1 of the schedule's 20 penalty weights"),
        (lambda res: res["trace"][0].update(inner_iterations=0, merges=0, fills=1),
         "trace[0]: fills 1 with 0 inner iterations"),
        (lambda res: res["trace"][0].update(inner_iterations=2, merges=0, fills=19),
         "trace[0]: fills 19 with 2 inner iterations, at most 9 a step"),
    ], ids=["iterations-over-cap", "d-off-schedule", "negative-d", "last-objective",
            "max-iters-under-cap", "merges-without-steps", "merges-over-rows",
            "past-schedule", "repair-before-cap", "fills-without-steps",
            "fills-over-rows"])
    def test_forged_trace_fails(self, tmp_path, capsys, forge, message):
        # solve cannot write any of these traces; the message names the
        # file and the stage, also for a negative d that relaxed_value
        # would otherwise reject as an unnamed penalty weight
        inst_path, out = self._solve_to_file(tmp_path)
        data = json.loads(out.read_text())
        forge(data)
        out.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["check", str(out), str(inst_path)]) == 1
        last = f"trace[{len(data['trace']) - 1}]"
        assert capsys.readouterr().out.startswith(
            f"{out}: {message.replace('trace[-1]', last)}")

    def test_forced_repair_result_passes(self, tmp_path, capsys, forced_repair):
        # the check reads the solver's schedule, so a repaired solve's trace
        # of every weight passes under the same schedule
        inst_path = tmp_path / "instance.json"
        write_instance(generate(SynthConfig(universe_size=3, num_sets=3, noise_sigma=0.3,
                                            flip_rate=0.3, rng_seed=1))[0], inst_path)
        out = tmp_path / "result.json"
        assert main(["solve", str(inst_path), "--out", str(out)]) == 2
        assert len(json.loads(out.read_text())["trace"]) == 2
        assert main(["check", str(out), str(inst_path)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_trace_without_merges_passes(self, tmp_path, capsys):
        # result files written before the merge count existed still check
        inst_path, out = self._solve_to_file(tmp_path)
        data = json.loads(out.read_text())
        assert all(stage.pop("merges") >= 0 for stage in data["trace"])
        out.write_text(json.dumps(data))
        assert main(["check", str(out), str(inst_path)]) == 0

    def test_trace_without_fills_passes(self, tmp_path, capsys):
        # result files written before the fill count existed still check
        inst_path, out = self._solve_to_file(tmp_path)
        data = json.loads(out.read_text())
        assert all(stage.pop("fills") >= 0 for stage in data["trace"])
        out.write_text(json.dumps(data))
        assert main(["check", str(out), str(inst_path)]) == 0

    def test_missing_element_fails(self, tmp_path, capsys):
        inst_path, out = self._solve_to_file(tmp_path)
        data = json.loads(out.read_text())
        data["clusters"] = data["clusters"][1:]
        out.write_text(json.dumps(data))
        assert main(["check", str(out), str(inst_path)]) == 1
        assert "missing" in capsys.readouterr().out


class TestBenchCommand:
    def test_zero_corruption_sweep_reports_zero_gap(self, tmp_path, capsys):
        out = tmp_path / "gap.csv"
        code = main(["bench", "--universe-size", "2", "--num-sets", "3",
                     "--modalities", "1", "--noise-sigma", "0",
                     "--inconclusive-rate", "0", "--flip-rate", "0",
                     "--outliers", "0,1", "--trials", "3", "--seed", "0",
                     "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 3
        for line in rows[1:]:
            cells = line.split(",")
            assert float(cells[1]) == 0.0  # gap_mean

    def test_ablation_honours_shape_flags(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(fusematch.cli, "ablation",
                            lambda trials, seed, base: seen.append(base) or [])
        assert main(["bench", "--ablation", "--trials", "1"]) == 0
        assert main(["bench", "--ablation", "--trials", "1", "--universe-size", "2",
                     "--num-sets", "2", "--observe-prob", "0.5", "--outliers", "0"]) == 0
        assert main(["bench", "--ablation", "--trials", "1", "--num-sets", "5"]) == 0
        assert seen == [
            DEFAULT_SUITE_BASE,
            replace(DEFAULT_SUITE_BASE, universe_size=2, num_sets=2,
                    observe_prob=0.5, outliers_per_run=0),
            replace(DEFAULT_SUITE_BASE, num_sets=5),
        ]
        assert main(["bench", "--ablation", "--outliers", "0,1"]) == 1
        assert "one outlier count" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--modalities", "5"), ("--noise-sigma", "0.9"),
        ("--inconclusive-rate", "1.0"), ("--flip-rate", "0.5")])
    def test_ablation_rejects_corruption_flags(self, monkeypatch, flag, value, capsys):
        # the ablation's modality profiles fix the corruption; these flags
        # used to be accepted and ignored
        monkeypatch.setattr(fusematch.cli, "ablation",
                            lambda trials, seed, base: pytest.fail("ablation ran"))
        assert main(["bench", "--ablation", "--trials", "1", flag, value]) == 1
        captured = capsys.readouterr()
        assert f"error: {flag}:" in captured.err
        assert captured.out == ""

    def test_sweep_defaults(self, monkeypatch):
        seen = []
        monkeypatch.setattr(fusematch.cli, "monte_carlo_gap",
                            lambda base, n_o_values, trials: seen.append(
                                (base, n_o_values, trials)) or [])
        monkeypatch.setattr(fusematch.cli, "format_gap_table", lambda rows: "")
        assert main(["bench", "--trials", "2", "--seed", "4"]) == 0
        assert main(["bench", "--trials", "2", "--modalities", "1", "--noise-sigma",
                     "0", "--inconclusive-rate", "0.3", "--flip-rate", "0"]) == 0
        sweep = SynthConfig(universe_size=3, num_sets=3, observe_prob=1.0,
                            modality_count=2, noise_sigma=0.15, inconclusive_rate=0.15,
                            flip_rate=0.05, rng_seed=4)
        assert seen == [
            (sweep, [0, 1, 2, 3], 2),
            (replace(sweep, modality_count=1, noise_sigma=0.0, inconclusive_rate=0.3,
                     flip_rate=0.0, rng_seed=0), [0, 1, 2, 3], 2),
        ]

    @pytest.mark.parametrize("mode", [[], ["--ablation"]])
    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_nonpositive_trials_exit_one(self, mode, trials, capsys):
        # the sweep and the ablation used to print a table of nan and exit 0
        assert main(["bench", *mode, "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert "error: trials must be at least 1" in captured.err
        assert captured.out == ""

    def test_bad_outlier_list_exits_one(self, capsys):
        assert main(["bench", "--outliers", "0,x"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [[], ["--ablation"]])
    @pytest.mark.parametrize("outliers", [" ", ",", ""])
    def test_outliers_flag_without_counts_exits_one(self, monkeypatch, mode, outliers,
                                                     capsys):
        # the sweep used to print an empty table and the ablation to ignore the flag
        monkeypatch.setattr(fusematch.cli, "ablation",
                            lambda trials, seed, base: pytest.fail("ablation ran"))
        monkeypatch.setattr(fusematch.cli, "monte_carlo_gap",
                            lambda base, n_o_values, trials: pytest.fail("sweep ran"))
        assert main(["bench", *mode, "--trials", "1", "--outliers", outliers]) == 1
        captured = capsys.readouterr()
        assert "error: --outliers: expected at least one outlier count" in captured.err
        assert captured.out == ""
