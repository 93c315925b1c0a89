"""fusematch benchmark: closed-loop workloads with outside verification.

Usage, from the repository root:

    python3 perfbench/run.py --workload solve-mid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  perfbench/NOTES.md describes the
loop, the workloads, the metrics, the tracing and the known gaps.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# Pin BLAS to one thread before numpy loads: the machine's cores are shared,
# and a fixed thread count keeps the floating-point reduction order, hence
# the output digest, the same on every machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SEEDS = {"default": 1, "heldout": 14990}


def _seed(text: str) -> int:
    if text in SEEDS:
        return SEEDS[text]
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or one of {sorted(SEEDS)}, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be nonnegative")
    return value


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-small", "solve-mid", "io-large", "all"])
    parser.add_argument("--seed", type=_seed, default=SEEDS["default"],
                        help="workload seed: an integer, 'default' (1) or "
                             "'heldout' (14990, kept for confirming claims)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed op seconds per run (whole passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "fusematch" / "__init__.py").is_file():
        print(f"error: no fusematch sources under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True   # leave no caches in the checkout
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from harness import run_workloads
    return run_workloads(args, ROOT, SEEDS)


if __name__ == "__main__":
    raise SystemExit(main())
