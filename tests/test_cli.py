"""Command-line interface and file formats, exercised in process."""

from __future__ import annotations

import base64
import hashlib
import json
import math
import re
import struct
import tempfile
import tracemalloc
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
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
from fusematch.bench import SWEEP_BASE, SWEEP_OUTLIERS
from fusematch.core import MAX_ELEMENTS
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
    """A key column as a file holds it: hex of little-endian int64."""
    return struct.pack(f"<{len(values)}q", *values).hex()


def _f64(values) -> str:
    """A score column as a file holds it: hex of little-endian float64."""
    return struct.pack(f"<{len(values)}d", *values).hex()


def _decoded(data: dict) -> tuple[list, list, list]:
    """The a, b and s columns of a parsed instance file, decoded without numpy:
    each pair key is a * m + b."""
    def unpack(code, text):
        raw = bytes.fromhex(text)
        return list(struct.unpack(f"<{len(raw) // 8}{code}", raw))
    m = sum(data["set_sizes"])
    pairs = [divmod(key, m) for key in unpack("q", data["pairs"])]
    return ([a for a, _ in pairs], [b for _, b in pairs],
            [unpack("d", column) for column in data["s"]])


def _columns_file(path, keys, s, sizes=(1, 1), count=1):
    """An instance file holding the given pair keys and score columns,
    encoded as written, faults included."""
    path.write_text(json.dumps({"set_sizes": list(sizes), "modalities": count,
                                "pairs": _i64(keys),
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

    def test_instance_copies_read_arrays(self, instance_file):
        # a read instance's read-only arrays, in order, passed on to Instance:
        # no sort or filter copies them, and the new instance still keeps its own
        inst_path, _, _, _ = instance_file
        loaded = read_instance(inst_path)
        again = Instance(loaded.set_sizes, loaded.modality_count, loaded.pairs, loaded.scores)
        assert again == loaded
        for stored, given in ((again.pairs, loaded.pairs), (again.scores, loaded.scores)):
            assert not stored.flags.writeable and not given.flags.writeable
            assert not np.shares_memory(stored, given)

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
            "set_sizes": [1, 1], "modalities": 1, "pairs": "", "s": [""],
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

    def test_base64_layout_rejected(self, tmp_path):
        # the base64 index and score columns of earlier versions: no second reader
        def column(code, values):
            return base64.b64encode(struct.pack(f"<{len(values)}{code}", *values)).decode()
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"set_sizes": [1, 1], "modalities": 1,
                                    "a": column("q", [0]), "b": column("q", [1]),
                                    "s": [column("d", [0.9])]}, indent=2) + "\n")
        with pytest.raises(FileFormatError) as err:
            read_instance(path)
        assert str(err.value) == f"{path}: unknown field 'a'"

    def test_out_of_order_keys_read_sorted(self, tmp_path):
        # a file's keys need not ascend: Instance sorts them, as it sorts any pairs
        path = _columns_file(tmp_path / "unsorted.json", [5, 1, 2],
                             [[0.7, 0.9, 0.8]], (1, 1, 1))
        loaded = read_instance(path)
        assert loaded == Instance((1, 1, 1), 1, [(0, 1), (0, 2), (1, 2)],
                                  [(0.9,), (0.8,), (0.7,)])

    def test_score_out_of_range_names_entry(self, tmp_path):
        path = _columns_file(tmp_path / "bad.json", [1], [[1.5]])
        with pytest.raises(FileFormatError,
                           match=r"entry 0: scores must lie in \[0, 1\]$"):
            read_instance(path)

    def test_unordered_pair_rejected(self, tmp_path):
        path = _columns_file(tmp_path / "bad.json", [2], [[0.9]])   # 1 * 2 + 0
        with pytest.raises(FileFormatError, match="entry 0: indices must satisfy 0 <= a < b"):
            read_instance(path)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = _columns_file(tmp_path / "bad.json", [1, 1], [[0.9, 0.8]])
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
        path = _columns_file(tmp_path / "bad.json", [1], [[0.9]], sizes, count)
        with pytest.raises(FileFormatError, match=fault):
            read_instance(path)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_nonfinite_score_rejected(self, tmp_path, bad):
        path = _columns_file(tmp_path / "bad.json", [1], [[float(bad.lower())]])
        with pytest.raises(FileFormatError, match=r"entry 0: scores must lie in \[0, 1\]"):
            read_instance(path)

    @pytest.mark.parametrize("keys, s, message", [
        ([1, -1], [[0.9, 0.9]], "entry 1: indices must satisfy 0 <= a < b < 3"),
        ([1, 9], [[0.9, 0.9]], "entry 1: indices must satisfy 0 <= a < b < 3"),
        ([1, 7], [[0.9, 0.9]], "entry 1: indices must satisfy 0 <= a < b < 3"),
        ([1, 4], [[0.9, 0.9]], "entry 1: indices must satisfy 0 <= a < b < 3"),
        ([1, 2, 1], [[0.9, 0.9, 0.9]], "entry 2: duplicate pair (0, 1)"),
        ([2 ** 63 - 1], [[0.9]], "entry 0: indices must satisfy 0 <= a < b < 3"),
        ([-2 ** 63], [[0.9]], "entry 0: indices must satisfy 0 <= a < b < 3"),
        ([1, 2], [[0.9, math.inf]], "entry 1: scores must lie in [0, 1]"),
    ], ids=["a-negative", "key-m-squared", "key-b-below-a", "key-b-equals-a",
            "key-repeat", "key-int64-max", "key-int64-min", "score-past-float"])
    def test_number_past_machine_range_exits_one(self, tmp_path, capsys, keys, s, message):
        # an int64 key column holds any key in [-2**63, 2**63), and m = 3 splits
        # each into a = key // 3 (negative for a negative key, 3 or more from
        # 3 * 3 on) and b = key % 3; a float64 column holds a score past its
        # range as inf.  Instance names the entry, and solve exits 1 with no crash
        path = _columns_file(tmp_path / "bad.json", keys, s, (1, 1, 1))
        with pytest.raises(FileFormatError) as err:
            read_instance(path)
        assert str(err.value) == f"{path}: {message}"
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("columns, message", [
        ({"a": [0]}, "unknown field 'a'"),
        ({"pairs": [1]}, "pairs: expected a hex string"),
        ({"pairs": 1}, "pairs: expected a hex string"),
        ({"pairs": {"0": 1}}, "pairs: expected a hex string"),
        ({"pairs": "010000000000000g"}, "pairs: invalid hex"),
        ({"pairs": "01000000000000é0"}, "pairs: invalid hex"),
        ({"pairs": "01000000\n0000000"}, "pairs: invalid hex"),
        ({"pairs": "010000000000000"}, "pairs: invalid hex"),
        ({"pairs": bytes(12).hex()}, "pairs: expected a multiple of 8 bytes, got 12"),
        ({"s": [_f64([1.5]), _f64([0.8])[1:]]}, "s[1]: invalid hex"),
        ({"s": [_f64([1.5])]}, "s: expected 2 hex strings, one per modality"),
        ({"s": {"0": _f64([1.5])}}, "s: expected 2 hex strings, one per modality"),
        ({"s": [1.5, 0.8]}, "s[0]: expected a hex string"),
        ({"pairs": _i64([1, 2])}, "s[0]: length 1, expected the length of pairs, 2"),
        ({"s": [_f64([1.5]), _f64([])]}, "s[1]: length 0, expected the length of pairs, 1"),
        ({"set_sizes": 3}, "set_sizes: expected positive integers"),
        ({"set_sizes": None}, "set_sizes: expected positive integers"),
        ({"set_sizes": "111"}, "set_sizes: expected positive integers"),
        ({"set_sizes": [1, 1.0, 1]}, "set_sizes: expected positive integers"),
    ], ids=["a-list", "pairs-list", "pairs-number", "pairs-object", "pairs-not-hex",
            "pairs-non-ascii", "pairs-whitespace", "pairs-odd-length",
            "pairs-not-8-bytes", "s-odd-length", "s-one-list", "s-object", "s-numbers",
            "lengths-differ", "s-column-short", "sizes-number", "sizes-null",
            "sizes-string", "sizes-float"])
    def test_shape_fault_rejected(self, tmp_path, columns, message):
        # every other column is sound and entry 0's score is out of range: a
        # column's fault comes before any entry's; "a-list" is the number-list
        # layout of earlier versions, rejected by its index column's name
        payload = {"set_sizes": [1, 1, 1], "modalities": 2, "pairs": _i64([1]),
                   "s": [_f64([1.5]), _f64([0.8])], **columns}
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
                "b63a51911093677d8cf9042d5a2bbb2bd40f7a8c908721ef2c1622924ae35158",
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
                   "generator": {"flip_rate": 1e-05, "sizes": [2, 2], "rng_seed": None}},
        {"note": "caf\u00e9 \u2211 \U0001f600", "\u00e9t\u00e9": ["\u00fc"]},
        {"text": "two\nlines, \"quoted\", back\\slash", "tab\t": "\\n"},
        {"empty": {"list": [], "object": {}}, "both": [[], {}, [[]], [{}]]},
        {"runs": [{"seed": 1, "tags": ["a", "b"]}, {"seed": 2, "nested": {"x": [1]}}]}])
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
                     "pairs": _i64([a * 5 + b for a, b in pairs]),
                     "s": [_f64(column) for column in columns[2]]}
        if metadata is not None:
            reference["metadata"] = metadata
        assert path.read_text() == json.dumps(reference, indent=2) + "\n"
        assert read_instance(path) == inst

    def test_write_matches_json_reference_at_scale(self, tmp_path):
        # the io-large shape (m = 502, about 100,000 stored pairs, K = 2) with
        # synth's metadata, so the splice is pinned on a multi-megabyte file
        cfg = SynthConfig(universe_size=100, num_sets=5, modality_count=2,
                          noise_sigma=0.15, inconclusive_rate=0.15, flip_rate=0.05,
                          outliers_per_run=2, rng_seed=1)
        instance, _ = generate(cfg)
        assert instance.num_elements == 502
        metadata = {"seed": 1, "generator": asdict(cfg)}
        path = tmp_path / "instance.json"
        write_instance(instance, path, metadata)
        a, b = instance.pairs.T
        reference = {"set_sizes": list(instance.set_sizes), "modalities": 2,
                     "pairs": (a * 502 + b).astype("<i8").tobytes().hex(),
                     "s": [column.astype("<f8").tobytes().hex()
                           for column in instance.scores.T],
                     "metadata": metadata}
        text = json.dumps(reference, indent=2) + "\n"
        assert path.read_bytes() == text.encode("ascii")
        assert read_instance(path) == instance

    def test_unencodable_metadata_writes_nothing(self, instance_file, tmp_path):
        inst_path, _, instance, _ = instance_file
        path = tmp_path / "new" / "instance.json"
        with pytest.raises(TypeError):
            write_instance(instance, path, {"x": object()})
        assert not path.parent.exists()
        before = inst_path.read_bytes()
        with pytest.raises(TypeError):
            write_instance(instance, inst_path, {"x": object()})
        assert inst_path.read_bytes() == before

    def test_write_makes_parent_directories(self, instance_file, tmp_path):
        inst_path, _, instance, _ = instance_file
        path = tmp_path / "new" / "dirs" / "instance.json"
        write_instance(instance, path)
        assert path.read_bytes() == inst_path.read_bytes()

    def test_lowest_faulty_entry_named(self, tmp_path):
        # Instance's checks run on whole columns, yet must report the first
        # faulty entry, whatever its fault: entry 0 is sound and every later
        # entry holds one fault
        good = (1, [0.9, 0.8])   # keys a * 3 + b: 1 is (0, 1)
        faulty = [(2, [0.9, math.inf]), (-1, [0.9, 0.8]), (7, [0.9, 0.8]),
                  (9, [0.9, 0.8]), (5, [1.5, 0.8]), (5, [0.9, -0.5]),
                  (2, [0.9, math.nan]), good]
        expected = ["scores must lie in \\[0, 1\\]", "indices must satisfy",
                    "indices must satisfy", "indices must satisfy",
                    "scores must lie in \\[0, 1\\]", "scores must lie in \\[0, 1\\]",
                    "scores must lie in \\[0, 1\\]", "duplicate pair \\(0, 1\\)"]
        for i in range(len(faulty)):
            entries = [good] + faulty[i:] + faulty[:i]
            path = _columns_file(tmp_path / "bad.json", [e[0] for e in entries],
                                 [[e[1][k] for e in entries] for k in range(2)],
                                 (1, 1, 1), 2)
            with pytest.raises(FileFormatError, match=r"entry 1: ") as err:
                read_instance(path)
            assert err.match(expected[i])

    @pytest.mark.parametrize("keys, s", [
        ([1, 1], [[1.5, 0.9]]),
        ([1, 9], [[-0.5, 0.9]]),
    ], ids=["then-duplicate", "then-index-past-m"])
    def test_score_fault_named_before_later_faults(self, tmp_path, keys, s):
        # entry 0's score is out of range and entry 1 holds another fault
        # (key 9 = 3 * 3 + 0 puts a at m = 3), which Instance finds; entry 0
        # is named either way
        path = _columns_file(tmp_path / "bad.json", keys, s, (1, 1, 1))
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
        ([True, 1], [0, 1], "set_sizes: expected positive integers"),
        ([10 ** 30, 1], [0, 1], f"set_sizes: {10 ** 30 + 1} elements, more than")])
    def test_truth_boolean_rejected(self, tmp_path, sizes, labels, fault):
        path = tmp_path / "truth.json"
        path.write_text(json.dumps({"set_sizes": sizes, "labels": labels}))
        with pytest.raises(FileFormatError, match=fault):
            read_truth(path)

    @pytest.mark.parametrize("command", ["solve", "check"])
    def test_set_sizes_past_int64_keys_exit_one(self, tmp_path, capsys, command):
        # m = 10**30 + 1 puts the pair keys a * m + b past int64: both commands
        # used to end in an OverflowError traceback
        path = _columns_file(tmp_path / "big.json", [1], [[0.9]], (10 ** 30, 1))
        result = tmp_path / "result.json"
        result.write_text(json.dumps({"clusters": [[0], [1]]}))
        argv = {"solve": ["solve", str(path)],
                "check": ["check", str(result), str(path)]}[command]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: {path}: set_sizes: {10 ** 30 + 1} elements, more "
                                f"than the {MAX_ELEMENTS} whose pair keys a * m + b fit "
                                f"int64\n")
        assert captured.out == ""


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
        path = _columns_file(tmp_path / "bad.json", [1], [[2.0]])
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: entry 0: scores must lie in [0, 1]\n")

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unwritable_out_exits_one(self, instance_file, tmp_path, capsys):
        # the result's directory would be a regular file: an error line, no traceback
        inst_path, _, _, _ = instance_file
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "result.json"
        assert main(["solve", str(inst_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "File exists" in captured.err
        assert captured.out == ""


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

    def test_out_is_a_file_exits_one(self, tmp_path, capsys):
        out = tmp_path / "afile"
        out.write_text("")
        assert main(["synth", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "File exists" in captured.err
        assert captured.out == ""
        assert out.read_text() == ""

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


def _stage(**fields) -> dict:
    """A trace stage of the given fields, with stop, merges and fills filled
    in (as "tol", 0 and 0) where not given."""
    return {"stop": "tol", "merges": 0, "fills": 0, **fields}


def _past_schedule(result: dict) -> None:
    # stages on the doubling schedule up to d = 0.01 * 2^24, 25 in all, with
    # no convergence claim; the trace check names the first stage past the
    # schedule before the relaxed value is recomputed at the last d
    trace = result["trace"]
    trace.extend(dict(trace[-1], d=trace[0]["d"] * 2.0 ** i) for i in range(len(trace), 25))
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
        assert capsys.readouterr().err.startswith(f"error: {out}: frobenius_value -123.0 ")
        data["frobenius_value"] = frobenius_value
        out.write_text(json.dumps(data))
        assert main(["check", str(out), str(inst_path)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {out}: relaxed_value 9000000000.0 ")

    def test_oracle_result_passes(self, tmp_path, capsys):
        cfg = SynthConfig(universe_size=2, num_sets=3, noise_sigma=0.2, rng_seed=3)
        instance, _ = generate(cfg)
        inst_path = tmp_path / "instance.json"
        write_instance(instance, inst_path)
        out = tmp_path / "oracle.json"
        assert main(["oracle", str(inst_path), "--out", str(out)]) == 0
        assert main(["check", str(out), str(inst_path)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_large_complete_result_allocates_no_square_array(self, tmp_path, capsys):
        # m = 2000 with one stored pair, (0, 1000) at 0.9, joined and every
        # other element alone, as an oracle result: 2 * 10^6 - 2 ordered
        # unstored cross-set pairs at (0 - 0.5)^2 plus 2 (1 - 0.9)^2 give the
        # Frobenius value, 2 (1 - 2 * 0.9) the relaxed value at d = 0.  One
        # m x m float64 array would take 32 MB.
        m = 2000
        inst_path, out = tmp_path / "instance.json", tmp_path / "result.json"
        write_instance(Instance((1000, 1000), 1, [(0, 1000)], [(0.9,)]), inst_path)
        clusters = [[0, 1000]] + [[r] for r in range(1, m) if r != 1000]
        out.write_text(json.dumps({
            "clusters": clusters, "relaxed_value": -1.6,
            "frobenius_value": 0.25 * (2 * 1000 * 1000 - 2) + 0.02, "converged": True,
            "trace": [], "config": {"max_elements": 12}}))
        tracemalloc.start()
        try:
            assert main(["check", str(out), str(inst_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out == "ok: clusters are feasible and cycle consistent\n"
        assert peak < m * m

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

    @pytest.mark.parametrize("text", ["1e400", "-1e400", "Infinity", "NaN", "1" + "0" * 400],
                             ids=["1e400", "-1e400", "Infinity", "NaN", "integer-past-float64"])
    @pytest.mark.parametrize("field", ["frobenius_value", "relaxed_value", "d", "objective"])
    def test_non_finite_number_rejected(self, tmp_path, capsys, field, text):
        # json reads 1e400 as inf, which made the relative bound of the
        # recompute inf too, so a forged 1e400 printed "ok:"; an integer past
        # float64 ended in an OverflowError
        inst_path, out = self._solve_to_file(tmp_path)
        data = json.loads(out.read_text())
        stage = {"d": 0, "objective": len(data["trace"]) - 1}.get(field)
        (data if stage is None else data["trace"][stage])[field] = "forged"
        out.write_text(json.dumps(data).replace('"forged"', text))
        capsys.readouterr()
        assert main(["check", str(out), str(inst_path)]) == 1
        captured = capsys.readouterr()
        where = "" if stage is None else f"trace[{stage}]: "
        assert captured.err.startswith(f"error: {out}: {where}")
        assert "finite" in captured.err
        assert captured.out == ""

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
        assert capsys.readouterr().err == (
            f"error: {out}: cluster {len(data['clusters']) - 1} is empty\n")

    @pytest.mark.parametrize("field, value, message", [
        ("converged", "yes", "converged: expected true or false"),
        ("config", 5, "config: expected an object"),
        ("trace", {"d": 1.0}, "trace: expected a list"),
        ("trace", [{"d": 1.0, "inner_iterations": 3, "objective": 0.5, "bogus": 1}],
         "trace[0]: unknown field 'bogus'"),
        ("trace", [_stage(d=1.0, objective=0.5)], "trace[0]: missing field 'inner_iterations'"),
        ("trace", [_stage(d="1", inner_iterations=3, objective=0.5)], "trace[0]: expected"),
        ("trace", [_stage(d=1.0, inner_iterations=-1, objective=0.5)], "trace[0]: expected"),
        ("trace", [_stage(d=1.0, inner_iterations=2.0, objective=0.5)], "trace[0]: expected"),
        ("trace", [_stage(d=1.0, inner_iterations=True, objective=0.5)], "trace[0]: expected"),
        ("trace", [_stage(d=1.0, inner_iterations=3, objective=None)], "trace[0]: expected"),
        ("trace", [7], "trace[0]: expected a JSON object"),
        ("trace", [_stage(d=0.01, inner_iterations=3, objective=0.5, stop="done")],
         "trace[0]: stop: expected one of tol, stall, max_iters"),
        ("config", {"max_elements": 12}, "config: unknown field 'max_elements'"),
        ("config", {"max_inner_iters": 0}, "config: max_inner_iters must be at least 1"),
        ("trace", [_stage(d=0.01, inner_iterations=3, objective=0.5, merges=-1)],
         "trace[0]: merges: expected a nonnegative integer"),
        ("trace", [_stage(d=0.01, inner_iterations=3, objective=0.5, merges=1.0)],
         "trace[0]: merges: expected a nonnegative integer"),
        ("trace", [_stage(d=0.01, inner_iterations=3, objective=0.5, merges=True)],
         "trace[0]: merges: expected a nonnegative integer"),
        ("trace", [_stage(d=0.01, inner_iterations=3, objective=0.5, fills=-1)],
         "trace[0]: fills: expected a nonnegative integer"),
        ("trace", [_stage(d=0.01, inner_iterations=3, objective=0.5, fills=1.0)],
         "trace[0]: fills: expected a nonnegative integer"),
        ("trace", [_stage(d=0.01, inner_iterations=3, objective=0.5, fills=False)],
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
            0, _stage(d=7.0, inner_iterations=3, objective=0.5)),
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
        assert capsys.readouterr().err.startswith(
            f"error: {out}: {message.replace('trace[-1]', last)}")

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

    @pytest.mark.parametrize("forge, message", [
        *[(lambda res, name=name: res["trace"][0].pop(name),
           f"trace[0]: missing field '{name}'") for name in ("stop", "merges", "fills")],
        *[(lambda res, name=name: res.pop(name), f"missing field '{name}'")
          for name in sorted(fusematch.cli.RESULT_FIELDS)],
        # each of these two printed "ok:" while a partial result was accepted
        (lambda res: (res["trace"][-1].update(objective=123456.0), res.pop("converged")),
         "missing field 'converged'"),
        (lambda res: (res["trace"][0].update(inner_iterations=1000),
                      res["trace"][0].pop("stop")),
         "trace[0]: missing field 'stop'"),
    ], ids=["stop", "merges", "fills", *sorted(fusematch.cli.RESULT_FIELDS),
            "last-objective-unconverged", "iterations-at-cap-without-stop"])
    def test_partial_result_rejected(self, tmp_path, capsys, forge, message):
        # a result file holds clusters alone or every field, each stage every
        # StageRecord field; the error names the first missing one
        inst_path, out = self._solve_to_file(tmp_path)
        data = json.loads(out.read_text())
        forge(data)
        out.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["check", str(out), str(inst_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {out}: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("forge, message", [
        (lambda res: res.update(converged=False),
         "converged: expected true with an empty (oracle) trace"),
        (lambda res: res.update(config={"max_inner_iters": 1000, "rng_seed": 0}),
         "config: unknown field 'max_inner_iters'"),
        (lambda res: res.update(config={"max_elements": 0}),
         "config: max_elements must be at least 1"),
    ], ids=["unconverged", "solver-config", "max-elements-zero"])
    def test_forged_oracle_result_fails(self, tmp_path, capsys, forge, message):
        # an oracle result (empty trace) always converges and holds OracleConfig's
        # fields; each of these used to pass with "ok"
        instance, _ = generate(SynthConfig(universe_size=2, num_sets=3, rng_seed=3))
        inst_path, out = tmp_path / "instance.json", tmp_path / "oracle.json"
        write_instance(instance, inst_path)
        assert main(["oracle", str(inst_path), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        forge(data)
        out.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["check", str(out), str(inst_path)]) == 1
        assert capsys.readouterr().err == f"error: {out}: {message}\n"

    def test_missing_element_fails(self, tmp_path, capsys):
        inst_path, out = self._solve_to_file(tmp_path)
        data = json.loads(out.read_text())
        data["clusters"] = data["clusters"][1:]
        out.write_text(json.dumps(data))
        assert main(["check", str(out), str(inst_path)]) == 1
        assert "missing" in capsys.readouterr().err

    def test_missing_elements_report_is_bounded(self, tmp_path, capsys, monkeypatch):
        # the report listed every missing element: 1.4 MB on one line here
        monkeypatch.chdir(tmp_path)   # short file names, so the line's length is the report's
        write_instance(Instance((200_000,), 1), "instance.json")
        Path("result.json").write_text('{"clusters": [[0]]}')
        assert main(["check", "result.json", "instance.json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: result.json: elements missing from clusters: 199999 "
                                "of 200000, lowest [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]\n")
        assert len(captured.err.encode()) < 200
        assert captured.out == ""


# one failing invocation of each subcommand, then one of each fault check
# finds: (argv with {instance}, {result} and {tmp} to fill in, a forge of
# the solved result file, a fragment of the message)
FAILURES = {
    "solve": (["solve", "{tmp}/absent.json"], None, "absent.json"),
    "oracle": (["oracle", "{instance}", "--max-elements", "1"], None, "capped at 1"),
    "synth": (["synth", "--out", "{tmp}/synth", "--trials", "0"], None, "trials"),
    "sweep": (["sweep", "--trials", "0"], None, "trials"),
    "ablation": (["ablation", "--trials", "0"], None, "trials"),
    "check": (None, lambda res: res.update(clusters=5), "expected lists of integers"),
    "empty-cluster": (None, lambda res: res["clusters"].append([]), "is empty"),
    "out-of-range": (None, lambda res: res["clusters"][0].append(10 ** 6), "out of range"),
    "repeat": (None, lambda res: res["clusters"][-1].append(res["clusters"][0][0]),
               "appears in clusters"),
    "missing": (None, lambda res: res["clusters"].pop(), "missing from clusters"),
    "infeasible": (None, lambda res: res.update(clusters=[sum(res["clusters"], [])]),
                   "infeasible clusters"),
    "off-schedule-d": (None, lambda res: res["trace"][0].update(d=7.0),
                       "is not the schedule's"),
    "forged-value": (None, lambda res: res.update(frobenius_value=-123.0),
                     "does not match the recomputed"),
    "forged-last-objective": (None, lambda res: res["trace"][-1].update(objective=123456.0),
                              "is not the converged solve's relaxed value"),
}


@pytest.mark.parametrize("argv, forge, fragment", FAILURES.values(), ids=FAILURES)
def test_failure_is_one_error_line(argv, forge, fragment, instance_file, tmp_path, capsys):
    # every failure exits 1 with nothing on stdout and one "error: " line on
    # stderr; check's faults name the result file
    inst_path = instance_file[0]
    result = tmp_path / "result.json"
    assert main(["solve", str(inst_path), "--out", str(result)]) == 0
    if forge is not None:
        data = json.loads(result.read_text())
        forge(data)
        result.write_text(json.dumps(data))
    argv = argv or ["check", "{result}", "{instance}"]
    capsys.readouterr()
    assert main([a.format(instance=inst_path, result=result, tmp=tmp_path)
                 for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {result}: " if forge else "error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert fragment in captured.err


def _exit_code(argv) -> int | str | None:
    """The code of the SystemExit that main(argv) raises from argparse."""
    with pytest.raises(SystemExit) as exited:
        main(argv)
    return exited.value.code


SUBCOMMANDS = re.search(r"\{(.*?)\}", fusematch.cli.build_parser().format_usage())[1]


@pytest.mark.parametrize("command", SUBCOMMANDS.split(","))
def test_help_exits_zero(command, capsys):
    assert _exit_code([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: fusematch {command} ")


@pytest.mark.parametrize("command, name", [("solve", "solve"), ("oracle", "solve_exact"),
                                           ("check", "_labelling_values")])
@pytest.mark.parametrize("text, message", [
    ("Unable to allocate 8.00 GiB for an array with shape (32768, 32768) and data type "
     "float64", "error: out of memory: Unable to allocate 8.00 GiB for an array with "
                "shape (32768, 32768) and data type float64\n"),
    ("", "error: out of memory\n")], ids=["numpy", "bare"])
def test_out_of_memory_exits_one(command, name, text, message, instance_file, tmp_path,
                                 capsys, monkeypatch):
    # an allocation that fails ends in an error line and exit 1, not a
    # traceback; the failing call is stubbed, so nothing large is allocated
    inst_path, _, _, _ = instance_file
    result = tmp_path / "result.json"
    assert main(["solve", str(inst_path), "--out", str(result)]) == 0
    capsys.readouterr()

    def out_of_memory(*args, **kwargs):
        raise MemoryError(text) if text else MemoryError

    monkeypatch.setattr(fusematch.cli, name, out_of_memory)
    argv = {"solve": ["solve", str(inst_path), "--out", str(tmp_path / "again.json")],
            "oracle": ["oracle", str(inst_path)],
            "check": ["check", str(result), str(inst_path)]}[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.err, captured.out) == (message, "")


class TestBenchCommand:
    """The subcommands sweep and ablation, which run fusematch.bench's studies."""

    def test_zero_corruption_sweep_reports_zero_gap(self, tmp_path, capsys):
        out = tmp_path / "gap.csv"
        code = main(["sweep", "--universe-size", "2", "--num-sets", "3",
                     "--modalities", "1", "--noise-sigma", "0",
                     "--inconclusive-rate", "0", "--flip-rate", "0",
                     "--outliers", "0", "1", "--trials", "3", "--seed", "0",
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
                            lambda trials, seed, base: seen.append((seed, base)) or [])
        assert main(["ablation", "--trials", "1"]) == 0
        assert main(["ablation", "--trials", "1", "--universe-size", "2",
                     "--num-sets", "2", "--observe-prob", "0.5", "--outliers", "0"]) == 0
        assert main(["ablation", "--trials", "1", "--num-sets", "5", "--seed", "4"]) == 0
        assert seen == [
            (0, DEFAULT_SUITE_BASE),
            (0, replace(DEFAULT_SUITE_BASE, universe_size=2, num_sets=2,
                        observe_prob=0.5, outliers_per_run=0)),
            (4, replace(DEFAULT_SUITE_BASE, num_sets=5, rng_seed=4)),
        ]

    @pytest.mark.parametrize("flag, value", [
        ("--modalities", "5"), ("--noise-sigma", "0.9"),
        ("--inconclusive-rate", "1.0"), ("--flip-rate", "0.5"), ("--outliers", "0 1")])
    def test_ablation_rejects_corruption_flags(self, monkeypatch, flag, value, capsys):
        # the ablation's modality profiles fix the corruption, and it takes
        # one outlier count; its parser has no other flags
        monkeypatch.setattr(fusematch.cli, "ablation",
                            lambda trials, seed, base: pytest.fail("ablation ran"))
        assert _exit_code(["ablation", "--trials", "1", flag, *value.split()]) == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err
        assert captured.out == ""

    def test_bench_is_not_a_command(self, capsys):
        assert _exit_code(["bench", "--ablation"]) == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_sweep_defaults(self, monkeypatch):
        seen = []
        monkeypatch.setattr(fusematch.cli, "monte_carlo_gap",
                            lambda base, n_o_values, trials: seen.append(
                                (base, n_o_values, trials)) or [])
        monkeypatch.setattr(fusematch.cli, "format_gap_table", lambda rows: "")
        assert main(["sweep", "--trials", "2", "--seed", "4"]) == 0
        assert main(["sweep", "--trials", "2", "--modalities", "1", "--noise-sigma",
                     "0", "--inconclusive-rate", "0.3", "--flip-rate", "0",
                     "--outliers", "0", "2"]) == 0
        assert seen == [
            (replace(SWEEP_BASE, rng_seed=4), SWEEP_OUTLIERS, 2),
            (replace(SWEEP_BASE, modality_count=1, noise_sigma=0.0, inconclusive_rate=0.3,
                     flip_rate=0.0), [0, 2], 2),
        ]
        # the paper's sweep: m = 9-12 elements, within the oracle's default cap
        assert SWEEP_BASE == SynthConfig(universe_size=3, num_sets=3, modality_count=2,
                                         noise_sigma=0.15, inconclusive_rate=0.15,
                                         flip_rate=0.05)
        assert SWEEP_OUTLIERS == (0, 1, 2, 3)

    @pytest.mark.parametrize("mode", [["sweep"], ["ablation"]])
    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_nonpositive_trials_exit_one(self, mode, trials, capsys):
        # the sweep and the ablation used to print a table of nan and exit 0
        assert main([*mode, "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert "error: trials must be at least 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("mode", [["sweep"], ["ablation"]])
    @pytest.mark.parametrize("outliers", [[], ["0,x"], ["0,1"]])
    def test_bad_outlier_list_exits_two(self, mode, outliers, capsys):
        # a count per value, not a comma-separated list
        assert _exit_code([*mode, "--outliers", *outliers]) == 2
        assert "error: argument --outliers" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [["sweep"], ["ablation"]])
    @pytest.mark.parametrize("outliers", [" ", ",", ""])
    def test_outliers_flag_without_counts_exits_two(self, monkeypatch, mode, outliers,
                                                    capsys):
        # the sweep used to print an empty table and the ablation to ignore the flag
        monkeypatch.setattr(fusematch.cli, "ablation",
                            lambda trials, seed, base: pytest.fail("ablation ran"))
        monkeypatch.setattr(fusematch.cli, "monte_carlo_gap",
                            lambda base, n_o_values, trials: pytest.fail("sweep ran"))
        assert _exit_code([*mode, "--trials", "1", "--outliers", outliers]) == 2
        captured = capsys.readouterr()
        assert "error: argument --outliers: invalid int value" in captured.err
        assert captured.out == ""
