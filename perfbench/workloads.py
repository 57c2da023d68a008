"""The four benchmark workloads: config, size, work units and reference checks.

Each workload is one CLI experiment kind at a fixed size.  The workload seed
is not part of the config; the benchmark passes it to the CLI as ``--seed``.
Why each workload exists is recorded in ``BENCHMARK.json``; the comments here
say what each size was chosen for.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: Every check that compares a Monte Carlo estimate with an exact value
#: allows this many standard errors.
SIGMAS = 5.0


@dataclass(frozen=True)
class Workload:
    kind: str
    template: str
    sizes: dict[str, dict]
    units: Callable[[dict], int]
    #: Entry points (tracer span names) the run must reach; the coverage guard
    #: fails a traced run in which one of them records no span.
    reaches: tuple[str, ...]
    #: ``check(out_dir, size_params, reference)`` -> list of problems.
    check: Callable[[Path, dict, "Reference"], list[str]]

    def config(self, size: str) -> str:
        return self.template.format(**self.sizes[size])


class Reference:
    """Exact values a run is checked against, computed at most once per process."""

    def __init__(self):
        self._lattice: dict[float, float] | None = None

    def shift_semigroup(self) -> dict[float, float]:
        if self._lattice is None:
            self._lattice = lattice_expectations(SHIFT_LAW, SHIFT_GRID, SHIFT_TIMES)
        return self._lattice


# -- shift-semigroup ------------------------------------------------------

SHIFT_LAW = {"beta": 0.3, "alpha": 0.5, "atoms": ((0.5, 1.0), (-2.0, 0.4)), "h": 1.0}
SHIFT_GRID = {"n": 1024, "x_min": -40.0, "dx": 0.078125}
SHIFT_TIMES = (0.25, 0.5, 1.0)


def lattice_expectations(law: dict, grid: dict, times) -> dict[float, float]:
    """Exact ``E <S_xi psi, f(Q) S_xi psi>`` on the lattice, without sampling.

    With ``a = FFT(psi)`` and ``F[m] = (1/N) sum_j f(x_j) e^{2 pi i j m / N}``,
    one shift gives ``dx sum_{k,k'} a_k conj(a_k') F[k-k'] e^{-i xi (p_k - p_k')}``.
    Averaging over the increment law replaces the last factor by
    ``exp(t eta(p_k' - p_k))``, with ``eta`` from ``levy.char_exponent_1d``.
    The state is the unit Gaussian and ``f`` the unit bump, as in the config.
    """
    from levylab.levy import JumpMeasure, LevyTriplet1D, char_exponent_1d

    n, dx = grid["n"], grid["dx"]
    x = grid["x_min"] + dx * np.arange(n)
    psi = np.exp(-0.5 * x**2)
    psi /= np.sqrt(dx * np.sum(psi**2))
    a = np.fft.fft(psi, norm="ortho")
    F = np.fft.ifft(np.exp(-0.5 * x**2))
    k = np.arange(n)
    weights = a[:, None] * a.conj()[None, :] * F[(k[:, None] - k[None, :]) % n]
    m = np.rint(np.fft.fftfreq(n) * n).astype(int)
    dp = 2.0 * np.pi / (n * dx)
    triplet = LevyTriplet1D(beta=law["beta"], alpha=law["alpha"], jumps=JumpMeasure(atoms=law["atoms"]), h=law["h"])
    eta = np.array([char_exponent_1d(triplet, float(d) * dp) for d in range(-(n - 1), n)])
    diff = m[None, :] - m[:, None] + (n - 1)
    return {t: float((dx * np.sum(weights * np.exp(t * eta[diff]))).real) for t in times}


def _check_shift(out: Path, size: dict, ref: Reference) -> list[str]:
    exact = ref.shift_semigroup()
    with open(out / "semigroup.csv") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if sorted(float(r["t"]) for r in rows) != sorted(exact):
        problems.append(f"semigroup.csv has times {[r['t'] for r in rows]}, expected {sorted(exact)}")
    for r in rows:
        t, est, se = float(r["t"]), float(r["estimate_re"]), float(r["stderr"])
        if t in exact and not abs(est - exact[t]) <= SIGMAS * se + 1e-12:
            problems.append(f"t={t}: estimate {est} is {abs(est - exact[t]) / se:.1f} stderr from the lattice value {exact[t]}")
    return problems


# -- galilei-dilation -----------------------------------------------------

def _check_galilei(out: Path, size: dict, ref: Reference) -> list[str]:
    rep = json.loads((out / "galilei_compare.json").read_text())
    problems = []
    if not rep["passed"] or rep["inconclusive"]:
        problems.append(f"dilation vs closed form: passed={rep['passed']} inconclusive={rep['inconclusive']}")
    if not abs(rep["order_estimate"] - 2.0) < 0.1:
        problems.append(f"Strang scheme bias order {rep['order_estimate']}, expected 2")
    return problems


# -- killed-diffusion -----------------------------------------------------

def _check_killed(out: Path, size: dict, ref: Reference) -> list[str]:
    res = json.loads((out / "survival.json").read_text())
    # Brownian motion from x0 = 1 killed at 0: P(survive to t = 1) = erf(1/sqrt(2)).
    # The bridge correction makes the discrete scheme exact for driftless motion.
    exact = math.erf(1.0 / math.sqrt(2.0))
    if abs(res["final"] - exact) <= SIGMAS * res["stderr"]:
        return []
    return [f"survival {res['final']} is more than {SIGMAS} stderr from erf(1/sqrt 2) = {exact}"]


# -- structure-suite ------------------------------------------------------

def _check_structure(out: Path, size: dict, ref: Reference) -> list[str]:
    with open(out / "cp_suite.csv") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != size["count"]:
        problems.append(f"cp_suite.csv has {len(rows)} generators, expected {size['count']}")
    failing = [r["index"] for r in rows if r["pass"] != "true"]
    if failing:
        problems.append(f"generators failing the CP checks: {failing}")
    if not json.loads((out / "cp_suite.json").read_text())["transpose_rejected"]:
        problems.append("the transpose map was not rejected as non-CP")
    return problems


_COMMON = ("levylab.cli.main", "levylab.config.parse_config", "levylab.runner.run",
           "levylab.runner._Workspace.write_json", "levylab.runner._Workspace.write_record",
           "levylab.rng.stream")

WORKLOADS: dict[str, Workload] = {
    # One exact spectral shift per path on N=1024: phases and FFTs dominate.
    "shift-semigroup": Workload(
        kind="mc-semigroup",
        template="""[run]
kind = mc-semigroup
seed = 1
[triplet]
beta = 0.3
alpha = 0.5
atoms = 0.5:1.0; -2.0:0.4
[grid]
n = 1024
x_min = -40.0
dx = 0.078125
[state]
center = 0.0
width = 1.0
momentum = 0.0
[mc]
n_paths = {paths}
[observable]
kind = qtable
func = bump
scale = 1.0
[semigroup]
t = 0.25, 0.5, 1.0
""",
        sizes={"full": {"paths": 4096}, "toy": {"paths": 256}},
        units=lambda s: s["paths"] * len(SHIFT_TIMES),
        reaches=_COMMON + ("levylab.runner._Workspace.write_csv", "levylab.levy.sample_ensemble",
                           "levylab.semigroup.mc_heisenberg_expectation"),
        check=_check_shift,
    ),
    # Split-step dilation at n and 2n Strang steps on N=512: one Weyl kick per step.
    "galilei-dilation": Workload(
        kind="galilei-compare",
        template="""[run]
kind = galilei-compare
seed = 1
[triplet2]
alpha = 1.0, 0.3, 0.5
[grid]
n = 512
x_min = -40.0
dx = 0.15625
[mc]
n_paths = {paths}
[galilei]
x0 = 0.0
v0 = 1.0
t = 1.0
n_steps = {steps}
free = true
""",
        sizes={"full": {"paths": 512, "steps": 16}, "toy": {"paths": 64, "steps": 4}},
        units=lambda s: s["paths"] * 3 * s["steps"],
        reaches=_COMMON + ("levylab.galilean.mc_vs_closed_form", "levylab.galilean.mc_weyl_expectation",
                           "levylab.galilean.evolve_weyl_closed_form", "levylab.galilean.scheme_expected_weyl"),
        check=_check_galilei,
    ),
    # Python loop over Euler steps; no lattice, phase or FFT code.  Enough paths
    # that the config tolerance is more than four binomial standard errors.
    "killed-diffusion": Workload(
        kind="killed-diffusion",
        template="""[run]
kind = killed-diffusion
seed = 1
[feller]
drift = zero
[mc]
n_paths = {paths}
[kd]
x_start = 1.0
t = 1.0
dt = {dt}
expect = 0.6826894921370859
tol = {tol}
""",
        sizes={"full": {"paths": 50000, "dt": 0.004, "tol": 0.01},
               "toy": {"paths": 20000, "dt": 0.02, "tol": 0.02}},
        units=lambda s: s["paths"] * round(1.0 / s["dt"]),
        reaches=_COMMON + ("levylab.runner._Workspace.write_csv", "levylab.feller.simulate_killed_diffusion"),
        check=_check_killed,
    ),
    # Many small dense linear-algebra calls; set-up is a visible share.
    "structure-suite": Workload(
        kind="cp-suite",
        template="""[run]
kind = cp-suite
seed = 1
[suite]
count = {count}
max_dim = 6
max_jumps = 3
times = 0.1, 1.0, 10.0
""",
        sizes={"full": {"count": 400}, "toy": {"count": 10}},
        units=lambda s: s["count"],
        reaches=_COMMON + ("levylab.runner._Workspace.write_csv", "levylab.generators.random_standard_generator",
                           "levylab.generators.is_conditionally_cp", "levylab.generators.is_completely_positive",
                           "levylab.generators.exact_evolve", "levylab.generators.choi_matrix"),
        check=_check_structure,
    ),
}
