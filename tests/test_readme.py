"""README examples run as documented: the Python blocks, the CLI demo and
the solver constants the text states."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from fusematch import solver
from fusematch.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
DEMO_COMMANDS = {"synth", "solve", "check"}   # oracle, sweep and ablation take seconds


def blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def test_python_blocks():
    quick_start, by_hand = blocks("python")
    ns: dict = {}
    exec(quick_start, ns)
    report = ns["precision_recall"](ns["labels"], ns["truth"].labels)
    assert "F1 = 1.0" in quick_start and report.f1 == 1.0
    # the last line is an expression whose documented value follows the '#'
    *body, last = by_hand.strip().splitlines()
    expr, _, documented = last.partition("#")
    ns = {}
    exec("\n".join(body), ns)
    assert documented.split(":")[0].strip() == "(0, 0, 0)"
    assert eval(expr, ns) == (0, 0, 0)


def demo_steps() -> list[tuple[list[str], list[str]]]:
    """The CLI block's synth/solve/check commands, each with the output
    lines documented in the comments right after it."""
    text = re.sub(r"\\\n\s*", "", blocks("sh")[1])
    steps: list[tuple[list[str], list[str]]] = []
    in_output = False
    for line in text.splitlines():
        if line.startswith("fusematch "):
            steps.append((shlex.split(line)[1:], []))
            in_output = True
        elif in_output and line.startswith("# "):
            steps[-1][1].append(line[2:])
        else:
            in_output = False
    return [(argv, out) for argv, out in steps if argv[0] in DEMO_COMMANDS]


def test_cli_demo(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    steps = demo_steps()
    assert [argv[0] for argv, _ in steps] == ["synth", "solve", "check"]
    for argv, documented in steps:
        assert main(argv) == 0, argv
        printed = capsys.readouterr().out.splitlines()
        if documented:
            assert printed == documented
        if argv[0] == "check":
            assert printed[-1].startswith("ok:")
    (_, solve_output), = [s for s in steps if s[0][0] == "solve"]
    assert solve_output[0] == "converged=True clusters=5 frobenius=1.13019 relaxed=-43.1105"


NUMBER = r"([0-9][0-9.e+-]*)"
STATED_CONSTANTS = {   # how the README states each solver constant
    "D_INIT": rf"starts at {NUMBER} per modality",
    "D_MAX": rf"up to {NUMBER} per modality",
    "INNER_TOL": rf"norm at most {NUMBER} per element",
    "BINARY_TOL": rf"within {NUMBER} of \{{0, 1\}}",
    "SETTLE": rf"`SETTLE` = {NUMBER}",
    "S_MAX": rf"`S_MAX` = {NUMBER}",
}


def test_stated_solver_constants_match_the_code():
    text = " ".join(README.split())   # statements may wrap across lines
    for name, pattern in STATED_CONSTANTS.items():
        assert {float(v) for v in re.findall(pattern, text)} == {getattr(solver, name)}, name
    assert "doubles each stage" in text and solver.D_GROWTH == 2.0
    weights = {int(v) for v in re.findall(r"(\d+) penalty weights for any K", text)}
    assert weights == {len(list(solver.penalty_weights(1)))}
    iters = {int(v) for v in re.findall(r"`max_inner_iters` \((\d+)\)", text)}
    assert iters == {solver.SolverConfig().max_inner_iters}
