"""levylab benchmark: runs the real CLI in a closed loop and reports its cost.

Usage (from the repository root)::

    python3 perfbench/run.py --workload shift-semigroup --seed 1 --seconds 20 --trace 0

One client, one CLI process at a time, ``--threads 1`` and one BLAS/FFT
thread.  A warm-up run fills the bytecode and page caches, then runs repeat
until ``--seconds`` have passed.  Every run is checked: exit code 0, verdict
``pass``, a reference check against an exact value, and data-file hashes equal
to those of the first run.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics (medians over the timed runs); with ``--trace 1`` traced and
untraced runs alternate and it carries the per-layer metrics from the traced
runs.  The line before it is the provenance record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: One thread everywhere, so runs do not compete for the cores they measure.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

from workloads import WORKLOADS, Reference, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

WRITES = ("levylab.runner._Workspace.write_csv", "levylab.runner._Workspace.write_json",
          "levylab.runner._Workspace.write_record")
FFTS = ("numpy.fft.fft", "numpy.fft.ifft", "scipy.fft.fft", "scipy.fft.ifft")

#: Per-layer metric -> (how it is computed from the spans, span names).
#: ``dur`` sums span durations, ``self`` sums self times (duration minus
#: child spans), ``calls`` counts spans, ``sum:<key>`` sums a span counter.
#: A name ending in ``.`` matches every span whose name starts with it.
#: Kernel and write spans have no children, so their durations are self times.
LAYERS = {
    "cli.import_s": ("dur", ("cli.import",)),
    "config.parse_s": ("dur", ("levylab.config.parse_config",)),
    "runner.self_s": ("self", ("levylab.runner.run",)),
    "runner.write_s": ("dur", WRITES),
    "runner.bytes_written": ("sum:bytes", WRITES),
    "levy.sample_s": ("self", ("levylab.levy.sample_ensemble",)),
    "levy.sample_calls": ("calls", ("levylab.levy.sample_ensemble",)),
    "levy.increments": ("sum:increments", ("levylab.levy.sample_ensemble",)),
    "phase.s": ("dur", ("phase",)),
    "phase.elems": ("sum:elems", ("phase",)),
    "fft.s": ("dur", FFTS),
    "fft.calls": ("calls", FFTS),
    "fft.points": ("sum:points", FFTS),
    "semigroup.self_s": ("self", ("levylab.semigroup.",)),
    "semigroup.paths": ("sum:paths", ("levylab.semigroup.mc_heisenberg_expectation",)),
    "galilean.self_s": ("self", ("levylab.galilean.",)),
    "galilean.path_steps": ("sum:path_steps", ("levylab.galilean.mc_weyl_expectation",)),
    "galilean.closed_form_s": ("dur", ("levylab.galilean.evolve_weyl_closed_form",
                                       "levylab.galilean.scheme_expected_weyl")),
    "feller.simulate_s": ("self", ("levylab.feller.",)),
    "feller.path_steps": ("sum:path_steps", ("levylab.feller.",)),
    "generators.choi_s": ("self", ("levylab.generators.choi_matrix",)),
    "generators.expm_s": ("self", ("levylab.generators.exact_evolve",)),
    "generators.ccp_s": ("self", ("levylab.generators.is_conditionally_cp",)),
    "generators.build_s": ("self", ("levylab.generators.random_standard_generator",)),
    "rng.stream_s": ("dur", ("levylab.rng.stream",)),
    "rng.streams": ("calls", ("levylab.rng.stream",)),
}

#: Disjoint times that together should make up a traced run's experiment time
#: (``wall_s - setup_s``); what they miss is ``trace.unattributed_s``.
PARTITION = ("runner.self_s", "runner.write_s", "levy.sample_s", "phase.s", "fft.s", "semigroup.self_s",
             "galilean.self_s", "feller.simulate_s", "generators.choi_s", "generators.expm_s",
             "generators.ccp_s", "generators.build_s", "rng.stream_s", "cli.exit_s")

#: Which end-to-end metric each layer metric should move, and on which workload.
LAYER_MAP = {
    "cli.import_s": "setup_s on all workloads; largest share on structure-suite",
    "config.parse_s": "setup_s on all workloads; largest share on structure-suite",
    "runner.write_s": "wall_s on all workloads (below 0.3 % today)",
    "runner.bytes_written": "wall_s on all workloads",
    "levy.sample_s": "wall_s on shift-semigroup (below 1 % today; no change expected from sampler unification)",
    "phase.s": "wall_s and work_per_s on shift-semigroup and galilei-dilation; none on killed-diffusion or structure-suite",
    "fft.s": "wall_s and work_per_s on shift-semigroup and galilei-dilation; none on killed-diffusion or structure-suite",
    "semigroup.self_s": "wall_s and work_per_s on shift-semigroup only",
    "galilean.self_s": "wall_s and work_per_s on galilei-dilation only",
    "galilean.closed_form_s": "wall_s on galilei-dilation only",
    "feller.simulate_s": "wall_s and work_per_s on killed-diffusion only",
    "generators.choi_s": "wall_s and work_per_s on structure-suite only",
    "generators.expm_s": "wall_s and work_per_s on structure-suite only",
    "generators.ccp_s": "wall_s and work_per_s on structure-suite only",
    "generators.build_s": "wall_s and work_per_s on structure-suite only",
    "runner.self_s": "wall_s on all workloads",
    "rng.stream_s": "wall_s on structure-suite, which derives a stream per Choi matrix",
    "rng.streams": "none; an exact count that must repeat on every run",
    "cli.exit_s": "wall_s on all workloads (interpreter exit after the CLI returns)",
    "trace.overhead_s": "none; traced minus untraced wall_s",
    "trace.unattributed_s": "none; traced experiment time not covered by the disjoint layer times",
}


@dataclass
class RunResult:
    traced: bool
    wall: float
    setup: float = float("nan")
    rss_mb: float = float("nan")
    layers: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children."""
    child = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child[s["id"]] for s in spans}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    own = self_times(spans)
    out = {}
    for metric, (how, names) in LAYERS.items():
        hit = [s for s in spans
               if any(s["name"] == n or (n.endswith(".") and s["name"].startswith(n)) for n in names)]
        if how == "dur":
            out[metric] = sum(s["end"] - s["start"] for s in hit)
        elif how == "self":
            out[metric] = sum(own[s["id"]] for s in hit)
        elif how == "calls":
            out[metric] = len(hit)
        else:
            key = how.split(":", 1)[1]
            out[metric] = sum((s["counters"] or {}).get(key, 0) for s in hit)
    return out


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Bench:
    def __init__(self, name: str, workload: Workload, seed: int, size: str, work: Path):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.size = size
        self.work = work
        self.config = work / f"{name}.cfg"
        self.config.write_text(workload.config(size))
        self.reference = Reference()
        self.first_manifest: dict | None = None
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.count = 0

    def run_cli(self, traced: bool) -> RunResult:
        self.count += 1
        rundir = self.work / f"run{self.count:04d}"
        rundir.mkdir()
        out = rundir / "out"
        cmd = [sys.executable, str(CHILD), "--stamp", str(rundir / "stamp")]
        if traced:
            cmd += ["--spans", str(rundir / "spans.json"), "--run-id", str(self.count)]
        cmd += ["--", self.workload.kind, "--config", str(self.config), "--seed", str(self.seed),
                "--out", str(out), "--threads", "1"]
        with open(rundir / "stdout", "wb") as so, open(rundir / "stderr", "wb") as se:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=so, stderr=se, env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        res = RunResult(traced=traced, wall=end - start, rss_mb=usage.ru_maxrss / 1024.0)
        try:
            self._evaluate(res, proc.returncode, rundir, out, start, end)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            res.problems.append(f"unreadable output: {exc!r}")
        if res.problems:
            tail = (rundir / "stderr").read_text(errors="replace")[-2000:]
            res.problems.append(f"stderr tail: {tail}")
        shutil.rmtree(rundir, ignore_errors=True)
        return res

    def _evaluate(self, res: RunResult, code: int, rundir: Path, out: Path, start: float, end: float) -> None:
        if code != 0:
            res.problems.append(f"exit code {code}")
            return
        setup_end, done = map(float, (rundir / "stamp").read_text().split())
        res.setup = setup_end - start
        printed = json.loads((rundir / "stdout").read_text().strip().splitlines()[-1])
        record = json.loads((out / "record.json").read_text())
        if printed["verdict"] != "pass" or record["verdict"] != "pass":
            res.problems.append(f"verdict {printed['verdict']!r}, record verdict {record['verdict']!r}")
        manifest = record["manifest"]
        on_disk = {p.name: sha256_file(p) for p in out.iterdir() if p.name != "record.json"}
        if on_disk != manifest:
            res.problems.append(f"data files {on_disk} do not match the manifest {manifest}")
        if self.first_manifest is None:
            self.first_manifest = manifest
        elif manifest != self.first_manifest:
            res.problems.append(f"data-file hashes {manifest} differ from the first run {self.first_manifest}")
        res.problems += self.workload.check(out, self.workload.sizes[self.size], self.reference)
        if res.traced:
            spans = json.loads((rundir / "spans.json").read_text())
            reached = {s["name"] for s in spans}
            missing = [n for n in self.workload.reaches if n not in reached]
            if missing:
                res.problems.append(f"coverage: no spans recorded for {missing}")
            res.layers = layer_metrics(spans)
            res.layers["cli.exit_s"] = end - done
            res.layers["trace.unattributed_s"] = (res.wall - res.setup) - sum(res.layers[m] for m in PARTITION)

    def measure(self, seconds: float, trace: bool) -> list[RunResult]:
        """Warm-up run, then timed runs until ``seconds`` have passed.

        With ``trace`` the timed runs alternate untraced and traced, and at
        least one of each is made.
        """
        runs = [self.run_cli(traced=False)]  # fills the bytecode and page caches
        deadline = time.monotonic() + seconds
        n_plain = n_traced = 0
        while time.monotonic() < deadline or n_plain == 0 or (trace and n_traced == 0):
            traced = trace and n_traced < n_plain
            r = self.run_cli(traced)
            runs.append(r)
            n_traced += traced
            n_plain += not traced
            print(f"[{self.name}] run {self.count} traced={int(traced)} wall={r.wall:.4f}s "
                  f"setup={r.setup:.4f}s rss={r.rss_mb:.1f}MB {r.problems or 'ok'}",
                  file=sys.stderr, flush=True)
        return runs


def end_to_end(timed: list[RunResult], units: int) -> dict[str, float]:
    plain = [r for r in timed if not r.traced]
    return {
        "wall_s": statistics.median(r.wall for r in plain),
        "setup_s": statistics.median(r.setup for r in plain),
        "work_per_s": statistics.median(units / (r.wall - r.setup) for r in plain),
        "peak_rss_mb": statistics.median(r.rss_mb for r in plain),
    }


def per_layer(timed: list[RunResult]) -> dict[str, float]:
    traced = [r for r in timed if r.traced]
    out = {m: statistics.median_low(r.layers[m] for r in traced) for m in traced[0].layers}
    out["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                               - statistics.median(r.wall for r in timed if not r.traced))
    return out


def provenance(name: str, bench: Bench, meta: dict, runs: list[RunResult]) -> dict:
    import numpy
    import scipy

    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for f in files:
        digest.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = git.stdout.strip() or None
    why = {w["name"]: w["why"] for w in meta["workloads"]}
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(f.read_text().splitlines()) for f in files),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "workload": name,
        "kind": bench.workload.kind,
        "why": why.get(name),
        "size": bench.workload.sizes[bench.size],
        "work_units": bench.workload.units(bench.workload.sizes[bench.size]),
        "seed": bench.seed,
        "config_sha256": hashlib.sha256(bench.workload.config(bench.size).encode()).hexdigest(),
        "runs": len(runs),
        "traced_runs": sum(r.traced for r in runs),
        "manifest": bench.first_manifest,
        "layer_map": LAYER_MAP,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy sizes are for the benchmark's own self-check")
    args = parser.parse_args(argv)

    if not (SRC / "levylab" / "cli.py").is_file():
        print(f"error: no levylab sources under {SRC}", file=sys.stderr)
        return 2
    meta_path = ROOT / "BENCHMARK.json"
    if not meta_path.is_file():
        print(f"error: {meta_path} is missing", file=sys.stderr)
        return 2
    meta = json.loads(meta_path.read_text())
    sys.path.insert(0, str(SRC))

    work = ROOT / ".bench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, WORKLOADS[args.workload], args.seed, args.size, work)
        runs = bench.measure(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    failed = sum(bool(r.problems) for r in runs)
    for r in runs:
        for problem in r.problems:
            print(f"[{args.workload}] FAILED run: {problem}", file=sys.stderr)
    # Timings come from every timed run that ran to the end, correct or not;
    # wrong results are counted in ``failed`` and make ``correct`` false.
    timed = [r for r in runs[1:] if math.isfinite(r.setup) and (r.layers or not r.traced)]
    if not any(not r.traced for r in timed) or (args.trace and not any(r.traced for r in timed)):
        print("error: no timed run completed; nothing to measure", file=sys.stderr)
        return 1
    if args.trace:
        values, wanted = per_layer(timed), meta["per_layer"]
    else:
        values = end_to_end(timed, bench.workload.units(bench.workload.sizes[args.size]))
        wanted = meta["end_to_end"]
    print(json.dumps({"provenance": provenance(args.workload, bench, meta, runs)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
