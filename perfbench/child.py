"""Run one levylab CLI command and record when its set-up finished.

Usage::

    python3 perfbench/child.py --stamp FILE [--spans FILE --run-id N] -- KIND --config CFG ...

Everything after ``--`` is passed to ``levylab.cli.main`` unchanged, so the
run is the real CLI.  ``--stamp`` receives two ``time.monotonic()`` readings: when
``parse_config`` returned (the end of set-up) and when the child was done,
just before the interpreter exits.  With ``--spans`` the run is
traced: the tracer is installed after the package import and removed before
the spans are written.
"""

import sys
import time


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    stamp_path = opts[opts.index("--stamp") + 1]
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None

    tracer = None
    if spans_path is None:
        import levylab.cli as cli
    else:
        start = time.monotonic()
        from tracer import Tracer
        import levylab.cli as cli

        tracer = Tracer(int(opts[opts.index("--run-id") + 1]))
        tracer.record("cli.import", start, time.monotonic())
        tracer.install()

    setup_end = []
    parse = cli.parse_config

    def parse_and_stamp(*args, **kwargs):
        cfg = parse(*args, **kwargs)
        setup_end.append(time.monotonic())
        return cfg

    cli.parse_config = parse_and_stamp
    try:
        code = cli.main(cli_args)
    finally:
        cli.parse_config = parse
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        import json

        with open(spans_path, "w") as fh:
            json.dump(tracer.records(), fh)
    # The stamp is written last: its second time marks where interpreter exit begins.
    with open(stamp_path, "w") as fh:
        fh.write(f"{setup_end[0] if setup_end else float('nan')!r} {time.monotonic()!r}\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
