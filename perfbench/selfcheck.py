"""Fast self-check of the benchmark at toy sizes.

Run from the repository root::

    python3 perfbench/selfcheck.py

It asserts that the tracer removes every wrapper it installed, that the
shift-semigroup reference check rejects an estimate that is off, and, for
every workload, that ``run.py`` emits each metric named in ``BENCHMARK.json``
with its unit and that traced and untraced runs write identical data files.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

from tracer import Tracer, bindings_snapshot  # noqa: E402
from workloads import SHIFT_TIMES, WORKLOADS, Reference  # noqa: E402


def check_tracer_is_removed() -> None:
    import levylab.cli  # noqa: F401  (semigroup stays unimported: the hook must wrap it)

    assert "levylab.semigroup" not in sys.modules, "semigroup must load lazily for this check"
    before = bindings_snapshot()
    tracer = Tracer()
    tracer.install()
    import levylab.levy
    import levylab.runner
    import levylab.semigroup

    wrappers = {id(w) for _, w in tracer._wrappers.values()}
    for fn in (levylab.semigroup.mc_heisenberg_expectation, levylab.semigroup.sample_ensemble,
               levylab.levy.sample_ensemble, levylab.runner.sample_ensemble, np.exp, np.fft.fft):
        assert id(fn) in wrappers, f"{fn!r} is not wrapped"
    levylab.levy.sample_ensemble(levylab.levy.LevyTriplet1D(alpha=1.0), 1.0, 8, 1)
    np.exp(1j * np.arange(4.0))
    names = [s["name"] for s in tracer.records()]
    assert names.count("levylab.levy.sample_ensemble") == 1 and "phase" in names, names
    assert names.count("levylab.rng.stream") == 1, names
    tracer.uninstall()
    after = bindings_snapshot()
    changed = [k for k, v in before.items() if after.get(k) is not v]
    assert not changed, f"bindings not restored: {changed}"
    left = [k for k, v in after.items() if id(v) in wrappers]
    assert not left, f"wrappers left in place: {left}"
    assert not any(type(h).__name__ == "_WrapOnImport" for h in sys.meta_path), "import hook left installed"


def check_reference_rejects_wrong_estimates() -> None:
    ref = Reference()
    exact = ref.shift_semigroup()
    se = 0.003
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for offset, should_pass in ((0.5 * se, True), (10.0 * se, False)):
            rows = [f"{t},bump(1)(Q),{exact[t] + offset!r},0,{se},4096,1" for t in SHIFT_TIMES]
            (out / "semigroup.csv").write_text(
                "t,observable,estimate_re,estimate_im,stderr,n_paths,seed\n" + "\n".join(rows) + "\n")
            problems = WORKLOADS["shift-semigroup"].check(out, {}, ref)
            assert (not problems) == should_pass, (offset, problems)


def run_bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--size", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}"
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def check_workloads() -> None:
    meta = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        manifests = []
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            prov, result = run_bench(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            want = {m["name"]: m["unit"] for m in meta[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, got, want)
            manifests.append(prov["manifest"])
            print(f"ok  {workload} trace={trace}: {len(got)} metrics, {result['attempted']} runs")
        assert manifests[0] == manifests[1], f"{workload}: traced and untraced data files differ"


def main() -> int:
    check_tracer_is_removed()
    print("ok  tracer wraps lazily imported modules and restores every binding")
    check_reference_rejects_wrong_estimates()
    print("ok  shift-semigroup reference check rejects a 10-stderr error")
    check_workloads()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
