"""Command line runner: ``levylab KIND --config FILE [options]``, one kind per run.

Progress goes to stderr; standard output carries only the final record
JSON.  Exit codes: 0 pass, 1 verdict fail, 2 usage/config error,
3 numerical failure or any other internal error (reported on one stderr
line, without a traceback).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from pathlib import Path

from .config import parse_config
from .errors import ConfigError, NumericalFailure, SupportOverflowError
from .runner import EXIT_CONFIG_ERROR, EXIT_NUMERICAL_FAILURE, EXIT_PASS, EXIT_VERDICT_FAIL, EXPERIMENTS, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levylab",
        description="Reproducible experiments on noise-driven quantum dynamical semigroups",
    )
    parser.add_argument("kind", choices=list(EXPERIMENTS), help="the experiment kind to run")
    parser.add_argument("--config", required=True, help="path to the run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--threads", type=int, default=None, help="override worker thread count")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:  # an unmapped failure is a bug: one line, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE


def _run(args: argparse.Namespace) -> int:
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    overrides = {key: value for key in ("seed", "out", "threads")
                 if (value := getattr(args, key)) is not None}
    try:
        cfg = parse_config(text, kind_override=args.kind, overrides=overrides)
    except ConfigError as exc:
        for problem in exc.errors:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    _freeze_setup()
    try:
        record, path = run(cfg)
    except (NumericalFailure, SupportOverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except ValueError as exc:  # a parameter range the config grammar does not check
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    print(json.dumps({
        "record": str(path),
        "verdict": record["verdict"],
        "metrics": record["metrics"],
    }, sort_keys=True))
    return EXIT_PASS if record["verdict"] == "pass" else EXIT_VERDICT_FAIL


@functools.cache
def _freeze_setup() -> None:
    """Move every object alive after set-up into the permanent GC generation, once per process.

    Modules, classes and the parsed config are then skipped by the gen-2
    collections of the run and by those of interpreter exit.  An in-process
    caller freezes on its first :func:`main` only; cyclic garbage alive at
    that moment is kept until exit.
    """
    gc.freeze()


if __name__ == "__main__":
    raise SystemExit(main())
