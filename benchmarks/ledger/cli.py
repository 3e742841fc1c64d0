"""Argument parsing for ``python -m benchmarks.ledger``.

Three forms::

    python -m benchmarks.ledger --workload NAME --seed N [--seconds S]
                                [--trace [0|1]] [--out FILE] [--smoke]
    python -m benchmarks.ledger compare --base A*.json --change B*.json
    python -m benchmarks.ledger _serve ...   (the serving child; internal)
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

from . import SRC


def _run_parser() -> argparse.ArgumentParser:
    from .workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger",
        description="Run one seeded ledger workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int,
                        help="draws the query set (non-negative)")
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="length of the warm run_batch window (default 5)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="also run traced and report per-layer metrics")
    parser.add_argument("--out", help="write the result document (JSON) here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny data and one repetition (tests)")
    return parser


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger _serve")
    for name in ("--artifact", "--queries", "--oracle", "--result"):
        parser.add_argument(name, required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--rounds", required=True, type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Dispatch to a run, a comparison or the serving child; returns the exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["compare"]:
        from .compare import main as compare_main

        return compare_main(argv[1:])
    if not (SRC / "repro").is_dir():
        print(f"error: the library sources are missing ({SRC / 'repro'} does not exist); "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if argv[:1] == ["_serve"]:
        from .serve import serve

        args = _serve_parser().parse_args(argv[1:])
        serve(args.artifact, args.queries, args.oracle, args.result, args.seconds,
              args.rounds, args.trace, args.spans)
        return 0
    from .run import run

    args = _run_parser().parse_args(argv)
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exit, so the serving child is killed and waited
    # for and the work directory is removed.
    previous = signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        return run(args)
    finally:
        signal.signal(signal.SIGTERM, previous)


def _exit_on_signal(signum, _frame) -> None:
    sys.exit(128 + signum)
