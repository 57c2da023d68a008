"""Write ``tests/golden_manifests.json``: the data-file hashes of every sample config.

Each case is one ``configs/*.cfg`` at one of :data:`SEEDS`, run in process
through :func:`levylab.cli.main` with the sizes of :data:`SHRINK` (fixed
once, for run time only).  Its entry is the run's exit code and, from
``record.json``, the sha256 manifest of its data files, its metrics and
its verdict.  ``tests/test_golden_manifests.py`` reruns every case and
compares, the multi-chunk kinds at ``--threads`` 1 and 2.

Regenerate only for an intended change of results, and name every moved
hash in ``CHANGES.md``; before writing, the script prints every
``(config, seed, file or metric)`` entry that differs from the file it
replaces::

    PYTHONPATH=src python tests/make_golden_manifests.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from levylab.cli import main
from levylab.config import parse_config

REPO = Path(__file__).resolve().parent.parent
MANIFESTS = Path(__file__).resolve().parent / "golden_manifests.json"
SEEDS = (1, 7, 13)

#: Config keys set smaller than in ``configs/``.  Each Monte Carlo kind keeps
#: more paths than one chunk (``rng.CHUNK`` = 8192; 4096 for the Galilean
#: dilation), so its ``--threads 2`` run splits work across threads.
SHRINK = {
    "char_check_gauss.cfg": {"n_samples": "10000"},
    "covariance_check.cfg": {"n_paths": "4200", "n_steps": "2"},
    "cp_suite.cfg": {"count": "12"},
    "galilei_gauss.cfg": {"n_paths": "4200", "n_steps": "2"},
    "generator_check.cfg": {"n_paths": "8400"},
    "killed_bm.cfg": {"n_paths": "8400", "dt": "0.01"},
    "mc_semigroup_mixed.cfg": {"n_paths": "8400"},
}
#: Kinds whose Monte Carlo runs span more than one chunk at the sizes above.
MULTI_CHUNK = ("char_check_gauss.cfg", "covariance_check.cfg", "galilei_gauss.cfg", "generator_check.cfg",
               "killed_bm.cfg", "mc_semigroup_mixed.cfg")


def config_text(name: str) -> str:
    """The sample config ``name`` with every key of ``SHRINK[name]`` set to its smaller value.

    Each key must match exactly one line, so a renamed key cannot leave a
    case running at full size.
    """
    text = (REPO / "configs" / name).read_text()
    for key, value in SHRINK.get(name, {}).items():
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        if count != 1:
            raise ValueError(f"SHRINK[{name!r}]: key {key!r} matches {count} lines, expected 1")
    return text


def run_case(name: str, seed: int, threads: int = 1) -> dict:
    """Exit code, data-file manifest, metrics and verdict of one shrunk run."""
    text = config_text(name)
    kind = parse_config(text).kind
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / name
        cfg.write_text(text)
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([kind, "--config", str(cfg), "--out", str(out), "--seed", str(seed),
                         "--threads", str(threads)])
        record = json.loads((out / "record.json").read_text())
    return {"exit": code, "manifest": record["manifest"], "metrics": record["metrics"], "verdict": record["verdict"]}


def build() -> dict:
    return {path.name: {str(seed): run_case(path.name, seed) for seed in SEEDS}
            for path in sorted((REPO / "configs").glob("*.cfg"))}


def _entries(case: dict) -> dict:
    """One case as ``{data file or metric: value}``, with its exit code and verdict."""
    return {"exit": case.get("exit"), "verdict": case.get("verdict"), **case.get("manifest", {}),
            **case.get("metrics", {})}


def moved(old: dict, new: dict) -> list[str]:
    """``config seed entry: old -> new`` for every data file, metric, exit code or verdict that differs."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        for seed in sorted(old.get(name, {}).keys() | new.get(name, {}).keys(), key=int):
            was, now = (_entries(cases.get(name, {}).get(seed, {})) for cases in (old, new))
            for entry in sorted(was.keys() | now.keys()):
                a, b = json.dumps(was.get(entry)), json.dumps(now.get(entry))  # JSON text: NaN equals itself
                if a != b:
                    lines.append(f"{name} {seed} {entry}: {a} -> {b}")
    return lines


if __name__ == "__main__":
    built = build()
    old = json.loads(MANIFESTS.read_text()) if MANIFESTS.exists() else {}
    for line in moved(old, built):
        print(line)
    MANIFESTS.write_text(json.dumps(built, sort_keys=True, indent=1) + "\n")
    print(f"wrote {MANIFESTS}")
