"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; with plain ``pytest -v`` the test names serve as the report.
"""

import json
import time

import numpy as np
from scipy.special import erf

from levylab import rng
from levylab.cli import main as cli_main
from levylab.feller import DriftSpec, feller_test, simulate_killed_diffusion
from levylab.galilean import (
    GalileanGenerator,
    evolve_weyl_closed_form,
    galilean_covariance_check,
    mc_weyl_expectation,
    scheme_expected_weyl,
)
from levylab.generators import (
    StandardGenerator,
    cp_part_superop,
    dyson_terms,
    exact_evolve,
    gauge_group_law_check,
    apply_gauge,
    GaugeElement,
    random_standard_generator,
    structure_rows,
    superop_matrix,
)
from levylab.grid import (
    GridSpec,
    QTable,
    WeylLabel,
    apply_weyl,
    expectation,
    gaussian_state,
)
from levylab.levy import (
    JumpMeasure,
    LevyTriplet1D,
    LevyTriplet2D,
    char_exponent_1d,
    char_exponent_2d,
    sample_ensemble,
)
from levylab.montecarlo import MCConfig
from levylab.semigroup import generator_consistency_check, mc_heisenberg_expectation
from oracles import (
    apply_generator,
    ccr_defect,
    classical_fixed_point_oracle,
    default_grid,
    empirical_char_function,
    hermitian_basis,
    map_is_completely_positive,
    momentum_expectation,
    position_expectation,
    trace_decay_link,
)

# ---------------------------------------------------------------------------
# Battery definitions
# ---------------------------------------------------------------------------

BATTERY_1D = {
    "drift": LevyTriplet1D(beta=1.0),
    "gauss": LevyTriplet1D(alpha=1.0),
    "one_big_atom": LevyTriplet1D(jumps=JumpMeasure(atoms=[(2.0, 3.0)])),
    "big_small_atoms": LevyTriplet1D(jumps=JumpMeasure(atoms=[(2.0, 0.5), (0.5, 1.5)])),
    "mixed": LevyTriplet1D(beta=0.3, alpha=0.5, jumps=JumpMeasure(atoms=[(0.5, 1.0), (-2.0, 0.4)])),
}
MIXED_2D = LevyTriplet2D(
    beta_p=0.4,
    beta_q=-0.7,
    alpha=((1.0, 0.3), (0.3, 0.8)),
    jumps=JumpMeasure(atoms=[((1.5, 0.5), 0.6), ((0.2, -0.3), 1.1)]),
)

ARGS_1D = [0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]
ARGS_2D = [
    (0.5, 0.0), (0.0, 0.5), (1.0, 0.5), (0.5, -1.0),
    (1.5, 1.0), (-1.0, 1.5), (2.0, -0.5), (-0.5, -0.5),
]
TIMES = [0.5, 1.0]
N_LAW = 100_000


def report(criterion: int, name: str, passed: bool, detail: str = "") -> None:
    line = f"[acceptance] criterion {criterion:2d} ({name}): {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line, flush=True)
    assert passed, line


def test_criterion_01_levy_law_correctness():
    worst = 0.0
    slowest = 0.0
    ok = True
    for idx, (name, triplet) in enumerate(BATTERY_1D.items()):
        start = time.time()
        for j, t in enumerate(TIMES):
            xs = sample_ensemble(triplet, t, N_LAW, seed=1000 + 10 * idx + j)
            for lam in ARGS_1D:
                emp, se = empirical_char_function(xs, lam)
                theo = np.exp(t * char_exponent_1d(triplet, lam))
                dist = abs(emp - theo)
                budget = 4.0 * se + 1e-12
                ok &= dist <= budget
                worst = max(worst, dist / budget)
        slowest = max(slowest, time.time() - start)
    start = time.time()
    for j, t in enumerate(TIMES):
        xs = sample_ensemble(MIXED_2D, t, N_LAW, seed=2000 + j)
        for mu, lam in ARGS_2D:
            emp, se = empirical_char_function(xs, (mu, -lam))
            theo = np.exp(t * char_exponent_2d(MIXED_2D, mu, lam))
            dist = abs(emp - theo)
            budget = 4.0 * se + 1e-12
            ok &= dist <= budget
            worst = max(worst, dist / budget)
    slowest = max(slowest, time.time() - start)
    ok &= slowest < 60.0
    report(1, "levy law", ok, f"worst distance/budget {worst:.3f}, slowest triplet {slowest:.1f}s")


def test_criterion_02_quantum_classical_reduction():
    grid = default_grid(1024)
    psi = gaussian_state(grid, 0.0, 1.0, 0.0)
    observables = {
        "cos": lambda x: np.cos(0.7 * x),
        "bump": lambda x: np.exp(-0.5 * x**2),
        "step": lambda x: np.tanh(0.5 * x),
    }
    triplets = {k: BATTERY_1D[k] for k in ("drift", "gauss", "one_big_atom", "mixed")}
    worst = 0.0
    ok = True
    for i, (tname, triplet) in enumerate(triplets.items()):
        tables = [QTable.from_function(grid, f, label=n) for n, f in observables.items()]
        quantum = [mc_heisenberg_expectation(triplet, psi, table, 1.0, MCConfig(N_LAW, 3000 + i)) for table in tables]
        for j, (oname, f) in enumerate(observables.items()):
            classical = classical_fixed_point_oracle(f, triplet, 1.0, psi, MCConfig(N_LAW, 4000 + 10 * i + j))
            joint = np.hypot(quantum[j].stderr, classical.stderr)
            dist = abs(quantum[j].estimate - classical.estimate)
            budget = 4.0 * joint + 1e-12
            ok &= dist <= budget
            worst = max(worst, dist / budget)
    report(2, "quantum-classical reduction", ok, f"worst distance/budget {worst:.3f}")


def test_criterion_03_generator_recovery():
    f = lambda x: np.exp(-0.5 * x**2)
    cases = {
        "drift": (LevyTriplet1D(beta=1.0), 1000),
        "gauss": (LevyTriplet1D(alpha=1.0), N_LAW),
        "poisson": (LevyTriplet1D(jumps=JumpMeasure(atoms=[(2.0, 1.5)])), N_LAW),
    }
    details = []
    ok = True
    for name, (triplet, n_paths) in cases.items():
        rep = generator_consistency_check(triplet, f, 0.01, MCConfig(n_paths, 500), np.linspace(-2.0, 2.0, 9))
        ok &= bool(rep.gate.passed.all()) and not rep.inconclusive
        details.append(f"{name} max dev {rep.deviation.max():.2e}")
    report(3, "generator recovery", ok, "; ".join(details))


def test_criterion_04_ccr_and_weyl_algebra():
    worst_ccr = 0.0
    for n in (256, 1024, 4096):
        g = GridSpec(n_points=n, x_min=-40.0, dx=80.0 / n)
        worst_ccr = max(worst_ccr, ccr_defect(g, 4 * g.dx, 2 * g.dp))
    grid = default_grid(1024)
    psi = gaussian_state(grid, 0.0, 1.0, 0.0)
    moved = apply_weyl(psi, WeylLabel(1.0, 2.0))
    disp_err = max(
        abs(position_expectation(moved) - position_expectation(psi) - 1.0),
        abs(momentum_expectation(moved) - momentum_expectation(psi) - 2.0),
    )
    ok = worst_ccr < 1e-10 and disp_err < 1e-8
    report(4, "CCR and Weyl algebra", ok, f"ccr defect {worst_ccr:.2e}, displacement error {disp_err:.2e}")


def test_criterion_05_cp_structure_suite():
    gen0 = rng.stream(77, "criterion-05.shapes")
    gens = []
    for i in range(20):
        d = int(gen0.integers(2, 5))
        m = int(gen0.integers(1, 4))
        unital = bool(gen0.integers(0, 2))
        gens.append(random_standard_generator(d, m, seed=7000 + i, unital=unital))
    rows = structure_rows(gens, (0.1, 1.0, 10.0))
    worst_eig = min([0.0, *(row.choi_min_eig for row in rows)])
    ok = all(row.passed for row in rows)
    cp_ok, witness = map_is_completely_positive(lambda X: X.T, 2)
    ok &= (not cp_ok) and abs(witness + 1.0) <= 1e-10
    report(5, "CP structure suite", ok, f"worst Choi eig {worst_eig:.2e}, transpose witness {witness:+.12f}")


def test_criterion_06_dyson_convergence():
    sigma_minus = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    H = 0.25 * np.array([[0.5, 1.0], [1.0, -0.5]], dtype=complex) * 2.0
    g = StandardGenerator.unital_build(H, [sigma_minus])
    t = 1.0
    terms = dyson_terms(g, t, 12)
    err = np.abs(sum(terms) - exact_evolve(superop_matrix(g), t)).max()
    norms = [np.linalg.norm(T, 2) for T in terms]
    phi_norm = np.linalg.norm(cp_part_superop(g), 2)
    ratios_ok = all(
        norms[n + 1] / norms[n] <= phi_norm * t / (n + 1) * 1.1
        for n in range(len(norms) - 1)
        if norms[n] > 1e-14
    )
    ok = err <= 1e-6 and ratios_ok
    report(6, "Dyson convergence", ok, f"12-term error {err:.2e}, factorial ratio bound {'held' if ratios_ok else 'violated'}")


def test_criterion_07_gauge_invariance():
    worst_action = 0.0
    worst_law = 0.0
    for i in range(20):
        g = random_standard_generator(2 + i % 2, 3, seed=8000 + i, unital=bool(i % 2))
        stream = rng.stream(81, "criterion-07.gauge-element", i)
        m = 3
        A = stream.standard_normal((m, m)) + 1j * stream.standard_normal((m, m))
        Q, _ = np.linalg.qr(A)
        elem = GaugeElement(
            D=Q,
            a=stream.standard_normal(m) + 1j * stream.standard_normal(m),
            b=float(stream.standard_normal()),
        )
        transformed = apply_gauge(g, elem)
        worst_action = max(
            worst_action,
            max(
                float(np.abs(apply_generator(transformed, X) - apply_generator(g, X)).max())
                for X in hermitian_basis(g.dim)
            ),
        )
        A2 = stream.standard_normal((m, m)) + 1j * stream.standard_normal((m, m))
        Q2, _ = np.linalg.qr(A2)
        elem2 = GaugeElement(
            D=Q2,
            a=stream.standard_normal(m) + 1j * stream.standard_normal(m),
            b=float(stream.standard_normal()),
        )
        worst_law = max(worst_law, gauge_group_law_check(elem, elem2, g))
    ok = worst_action <= 1e-10 and worst_law <= 1e-10
    report(7, "gauge invariance", ok, f"action defect {worst_action:.2e}, group law defect {worst_law:.2e}")


GALILEI_GENERATORS = {
    "gaussian": GalileanGenerator(LevyTriplet2D(alpha=((1.0, 0.3), (0.3, 0.5)))),
    "atomic": GalileanGenerator(
        LevyTriplet2D(jumps=JumpMeasure(atoms=[((1.2, 0.8), 0.7), ((-0.4, 1.5), 0.5)]))
    ),
}


def test_criterion_08_galilean_closed_form_vs_langevin_mc():
    grid = default_grid(256, half_width=20.0)
    psi = gaussian_state(grid, 0.0, 1.0, 0.0)
    x0, v0, t = 0.0, 1.0, 1.0
    ok = True
    details = []
    for name, gen in GALILEI_GENERATORS.items():
        sym = evolve_weyl_closed_form(gen, x0, v0, t)
        closed = sym.multiplier * expectation(psi, WeylLabel(*sym.point))
        bias = {}
        for n_steps in (64, 128):
            mc = mc_weyl_expectation(gen, psi, WeylLabel(x0, v0), t, n_steps, MCConfig(10_000, 6000, threads=2))
            bias[n_steps] = abs(scheme_expected_weyl(gen, psi, x0, v0, t, n_steps) - closed)
            dist = abs(mc.estimate - closed)
            budget = 4.0 * mc.stderr + bias[n_steps] + 1e-10
            ok &= dist <= budget
        shrink = bias[64] / bias[128]
        ok &= 3.5 <= shrink <= 4.5
        details.append(f"{name}: band shrink x{shrink:.2f}")
    report(8, "Galilean closed form vs Langevin MC", ok, "; ".join(details))


def test_criterion_09_galilean_covariance():
    grid = default_grid(256, half_width=20.0)
    psi = gaussian_state(grid, 0.0, 1.0, 0.0)
    gen = GALILEI_GENERATORS["gaussian"]
    combos = [(0.0, 0.0, 0.5), (1.0, 0.0, 0.5), (0.0, 0.8, 0.5),
              (1.0, 0.8, 1.0), (-0.5, 0.4, 0.7), (0.7, -0.6, 1.0)]
    worst = 0.0
    for x, v, t in combos:
        worst = max(worst, galilean_covariance_check(gen, x, v, t, psi, MCConfig(512, 42), n_steps=16))
    ok = worst < 1e-10
    report(9, "Galilean covariance", ok, f"worst shared-seed defect {worst:.2e} over {len(combos)} combos")


def test_criterion_10_feller_explosion():
    ok = True
    details = []
    zero, bessel3, ou = (DriftSpec(name, 0.0, 1.0, 1.0) for name in ("zero", "bessel3", "ou"))
    rep_zero = feller_test(zero)
    ok &= rep_zero.left == "absorbing"
    details.append(f"zero: l {rep_zero.left}")
    rep_bessel = feller_test(bessel3)
    ok &= rep_bessel.left == "non-absorbing"
    details.append(f"bessel3: l {rep_bessel.left}")
    rep_ou = feller_test(ou)
    ok &= rep_ou.right == "non-absorbing"
    details.append(f"ou: inf {rep_ou.right}")
    curve = simulate_killed_diffusion(zero, 1.0, 1.0, 1e-3, MCConfig(N_LAW, 99, threads=2))
    target = erf(1.0 / np.sqrt(2.0))
    ok &= abs(curve.final - target) <= 0.01
    details.append(f"survival {curve.final:.4f} vs {target:.4f}")
    witness = trace_decay_link(zero, 1.0, np.array([0.25, 0.5, 0.75, 1.0]), MCConfig(20000, 101, threads=2), dt=1e-3)
    ok &= witness.witness and witness.max_separation_sigmas > 5.0
    details.append(f"non-uniqueness separation {witness.max_separation_sigmas:.0f} sigma")
    report(10, "Feller / explosion", ok, "; ".join(details))


def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""
[run]
kind = char-check
seed = 4242

[triplet]
beta = 0.3
alpha = 0.5
atoms = 0.5:1.0; -2.0:0.4

[check]
t = 0.5, 1.0
args = 0.5, 1.0, 1.5, 2.0
n_samples = 20000
""")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["char-check", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli_main(["char-check", "--config", str(cfg), "--out", str(out2)]) == 0
    same = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("char_check.csv", "char_check.json")
    )
    rec1 = json.loads((out1 / "record.json").read_text())
    rec2 = json.loads((out2 / "record.json").read_text())
    same &= rec1["manifest"] == rec2["manifest"] and rec1["config_hash"] == rec2["config_hash"]
    ens_a = sample_ensemble(BATTERY_1D["mixed"], 1.0, 50000, seed=11, threads=1)
    ens_b = sample_ensemble(BATTERY_1D["mixed"], 1.0, 50000, seed=11, threads=3)
    same &= bool(np.array_equal(ens_a, ens_b))
    report(11, "determinism", same, "byte-identical reruns, thread-count invariant ensembles")
