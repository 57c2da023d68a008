"""Covariant dynamics: symbol calculus, dilation, covariance identity."""

import tracemalloc
import warnings

import numpy as np
import pytest

from levylab import galilean as galilean_module
from levylab import grid as grid_module
from levylab import rng
from levylab.errors import NumericalFailure
from levylab.galilean import (
    DILATION_CHUNK,
    GalileanGenerator,
    _evolve_block,
    WeylSymbolState,
    evolve_weyl_closed_form,
    galilean_covariance_check,
    mc_vs_closed_form,
    mc_weyl_expectation,
    scheme_expected_weyl,
    weyl_symbol_rate,
)
from levylab.grid import (
    OVERFLOW_FRACTION,
    STATE_TILE_BYTES,
    WaveFunction,
    WeylLabel,
    expectation,
    expectations,
    gaussian_state,
    tile_rows,
)
from levylab.levy import (
    JumpMeasure,
    LevyTriplet1D,
    LevyTriplet2D,
    _sample_increments,
    char_exponent_1d,
    char_exponent_2d,
    char_exponent_2d_integral,
)
from levylab.montecarlo import MCConfig
from levylab.semigroup import mc_heisenberg_expectation
from oracles import (
    apply_free_evolution,
    default_grid,
    momentum_expectation,
    one_dimensional_reduction,
    position_expectation,
    quadrature_rate_integral,
)

FULL = LevyTriplet2D(
    beta_p=0.4,
    beta_q=-0.7,
    alpha=((1.0, 0.3), (0.3, 0.8)),
    jumps=JumpMeasure(atoms=[((1.5, 0.5), 0.6), ((0.2, -0.3), 1.1)]),
)
GAUSS_PP = LevyTriplet2D(alpha=((1.0, 0.0), (0.0, 0.0)))
ATOMIC = LevyTriplet2D(jumps=JumpMeasure(atoms=[((1.2, 0.8), 0.7), ((-0.4, 1.5), 0.5)]))
#: Closed form versus quadrature: Gaussian, atomic (one atom inside ``h``, one outside) and mixed with drift.
INTEGRAL_LAWS = {
    "gaussian": LevyTriplet2D(alpha=((1.0, 0.3), (0.3, 0.8))),
    "atomic": LevyTriplet2D(jumps=JumpMeasure(atoms=[((0.3, -0.5), 0.9), ((1.2, 0.8), 0.7)])),
    "mixed": FULL,
}


@pytest.fixture(scope="module")
def psi512():
    return gaussian_state(default_grid(512), 0.0, 1.0, 0.0)


class TestSymbolRate:
    def test_identity_label_fixed(self):
        assert weyl_symbol_rate(GalileanGenerator(FULL), 0.0, 0.0) == 0.0

    def test_pure_first_diffusion(self):
        gen = GalileanGenerator(GAUSS_PP)
        v0 = 1.7
        assert weyl_symbol_rate(gen, 0.9, v0) == pytest.approx(-0.5 * v0**2, abs=1e-14)

    def test_single_big_atom_conjugation_phase(self):
        x1, v1, rate = 1.2, 0.9, 0.7
        gen = GalileanGenerator(LevyTriplet2D(jumps=JumpMeasure(atoms=[((x1, v1), rate)])))
        x0, v0 = -0.6, 1.1
        expected = rate * (np.exp(1j * (v0 * x1 - x0 * v1)) - 1.0)
        assert weyl_symbol_rate(gen, x0, v0) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("x0,v0", [(0.3, 1.0), (-1.2, 0.5), (2.0, -0.4), (0.0, 0.0)])
    def test_matches_two_dim_exponent_at_pinned_pairing(self, x0, v0):
        # the resolved pairing: symbol rate (x0, v0) = exponent at (mu, lam) = (v0, x0)
        rate = weyl_symbol_rate(GalileanGenerator(FULL), x0, v0)
        assert rate == pytest.approx(char_exponent_2d(FULL, v0, x0), abs=1e-12)

    def test_real_part_nonpositive(self):
        gen = GalileanGenerator(FULL)
        for x0, v0 in [(0.5, 0.5), (-2.0, 1.0), (3.0, -0.3)]:
            assert weyl_symbol_rate(gen, x0, v0).real <= 1e-12


class TestClosedForm:
    def test_time_zero(self):
        state = evolve_weyl_closed_form(GalileanGenerator(FULL), 0.7, -0.2, 0.0)
        assert state.multiplier == 1.0 and state.point == (0.7, -0.2)

    def test_free_only_transports_label(self):
        gen = GalileanGenerator(LevyTriplet2D(), include_free_hamiltonian=True)
        state = evolve_weyl_closed_form(gen, 1.0, 2.0, 0.5)
        assert abs(state.multiplier) == pytest.approx(1.0, abs=1e-14)
        assert state.point == (0.0, 2.0)

    def test_autonomous_rate_without_free_term(self):
        gen = GalileanGenerator(FULL, include_free_hamiltonian=False)
        x0, v0, t = 0.8, -0.5, 1.3
        state = evolve_weyl_closed_form(gen, x0, v0, t)
        assert state.point == (x0, v0)
        assert state.multiplier == pytest.approx(np.exp(t * weyl_symbol_rate(gen, x0, v0)), rel=1e-12)

    def test_gaussian_benchmark_value(self):
        gen = GalileanGenerator(GAUSS_PP)
        state = evolve_weyl_closed_form(gen, 0.0, 1.0, 1.0)
        assert state.multiplier == pytest.approx(np.exp(-0.5), rel=1e-10)
        assert state.point == (-1.0, 1.0)

    def test_closed_form_against_hand_integral(self):
        # alpha_qq-only noise: rate(x) = -a x^2 / 2 along x(s) = x0 - v0 s
        a = 0.8
        gen = GalileanGenerator(LevyTriplet2D(alpha=((0.0, 0.0), (0.0, a))))
        x0, v0, t = 1.5, 0.7, 1.2
        hand = -0.5 * a * (x0**2 * t - x0 * v0 * t**2 + v0**2 * t**3 / 3.0)
        state = evolve_weyl_closed_form(gen, x0, v0, t)
        assert state.multiplier == pytest.approx(np.exp(hand), rel=1e-9)

    def test_contractivity_in_time(self):
        gen = GalileanGenerator(FULL)
        mags = [abs(evolve_weyl_closed_form(gen, 0.8, 1.1, t).multiplier) for t in (0.0, 0.3, 0.9, 2.0)]
        assert all(a >= b - 1e-12 for a, b in zip(mags, mags[1:]))

    def test_multiplier_bound_enforced(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            WeylSymbolState(multiplier=1.1, point=(0.0, 0.0))

    @pytest.mark.parametrize("v0", [0.0, 1e-9, 1.1])
    @pytest.mark.parametrize("free", [True, False])
    @pytest.mark.parametrize("law", sorted(INTEGRAL_LAWS))
    def test_exact_integral_matches_quadrature(self, law, free, v0):
        gen = GalileanGenerator(INTEGRAL_LAWS[law], include_free_hamiltonian=free)
        x0, t = 0.7, 1.3
        state = evolve_weyl_closed_form(gen, x0, v0, t)
        exact = char_exponent_2d_integral(gen.triplet2, v0, x0, state.point[0], t)
        oracle = quadrature_rate_integral(gen, x0, v0, t)
        assert abs(exact - oracle) <= 1e-12 * max(1.0, abs(oracle))
        assert state.multiplier == pytest.approx(np.exp(oracle), abs=1e-12)

    @pytest.mark.parametrize("alpha", [1e307, 1.7e308])
    @pytest.mark.parametrize("x0,v0,t", [(0.0, 1.0, 1.0), (2.0, -3.0, 2.0)])
    def test_alpha_near_the_float_range_is_contractive_or_fails(self, alpha, x0, v0, t):
        # the rate integral is huge and negative or -inf (at 1.7e308 its Gaussian term
        # overflows): either way the multiplier is exactly 0, without a warning
        gen = GalileanGenerator(LevyTriplet2D(alpha=((alpha, 0.0), (0.0, alpha))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            multiplier = evolve_weyl_closed_form(gen, x0, v0, t).multiplier
        assert multiplier == 0.0

    @pytest.mark.parametrize("integral", [complex(np.nan, 0.0), complex(np.inf, 0.0), complex(-np.inf, np.nan),
                                          complex(-np.inf, np.inf), complex(0.0, np.inf)])
    def test_non_finite_rate_integral_fails(self, monkeypatch, integral):
        monkeypatch.setattr(galilean_module, "char_exponent_2d_integral", lambda *args: integral)
        with pytest.raises(NumericalFailure, match="closed-form rate integral not finite"):
            evolve_weyl_closed_form(GalileanGenerator(GAUSS_PP), 0.0, 1.0, 1.0)


def one_step(gen, psi, dt, increments):
    """The batched Strang step on a single path."""
    out = _evolve_block(gen, psi, np.array([[increments]], dtype=float), dt)
    return WaveFunction(psi.grid, out[0])


class TestLangevinStep:
    def test_zero_increments_is_free_step(self, psi512):
        out = one_step(GalileanGenerator(GAUSS_PP), psi512, 0.25, (0.0, 0.0))
        ref = apply_free_evolution(psi512, 0.25, check_bandlimit=False)
        assert np.abs(out.amplitudes - ref.amplitudes).max() < 1e-12

    def test_position_kick_moves_mean(self, psi512):
        dt, dxi = 0.25, 0.6
        out = one_step(GalileanGenerator(GAUSS_PP), psi512, dt, (dxi, 0.0))
        expected = position_expectation(psi512) + dt * momentum_expectation(psi512) + dxi
        assert position_expectation(out) == pytest.approx(expected, abs=1e-8)

    def test_momentum_kick_moves_mean(self, psi512):
        out = one_step(GalileanGenerator(GAUSS_PP), psi512, 0.25, (0.0, 0.9))
        assert momentum_expectation(out) == pytest.approx(momentum_expectation(psi512) + 0.9, abs=1e-8)


def passed(report) -> bool:
    """The ``passed`` key of ``galilei_compare.json``: both runs within their gates, and conclusive."""
    return bool(report.gate_coarse.passed and report.gate_fine.passed) and not report.inconclusive


class TestDilation:
    def test_noise_free_case_exact(self, psi512):
        gen = GalileanGenerator(LevyTriplet2D(), include_free_hamiltonian=True)
        report = mc_vs_closed_form(gen, 0.6, 1.0, psi512, 1.0, 16, MCConfig(32, 5))
        assert report.deviation_coarse < 1e-8 and passed(report)

    def test_drift_only_sign_resolution(self, psi512):
        # the convention-pinning case: pure drifts must agree to round-off
        gen = GalileanGenerator(LevyTriplet2D(beta_p=0.8, beta_q=0.9), include_free_hamiltonian=False)
        report = mc_vs_closed_form(gen, 0.7, 0.3, psi512, 1.0, 8, MCConfig(16, 2))
        assert report.deviation_coarse < 1e-10 and passed(report)

    def test_gaussian_generator_within_band(self, psi512):
        gen = GalileanGenerator(GAUSS_PP)
        report = mc_vs_closed_form(gen, 0.0, 1.0, psi512, 1.0, 16, MCConfig(2000, 11))
        assert passed(report) and not report.inconclusive

    def test_unitality_of_trajectories(self, psi512):
        gen = GalileanGenerator(FULL)
        label = WeylLabel(0.0, 0.0)
        res = mc_weyl_expectation(gen, psi512, label, 0.5, 8, MCConfig(256, 3))
        assert res.estimate == pytest.approx(1.0, abs=1e-10)
        assert res.stderr < 1e-12

    def test_scheme_expectation_is_midpoint_rule(self, psi512):
        gen = GalileanGenerator(GAUSS_PP)
        x0, v0, t, n = 0.0, 1.0, 1.0, 8
        dt = t / n
        mids = (np.arange(n) + 0.5) * dt
        rate = np.sum([weyl_symbol_rate(gen, x0 - v0 * s, v0) for s in mids])
        expected = np.exp(dt * rate) * expectation(psi512, WeylLabel(x0 - v0 * t, v0))
        assert scheme_expected_weyl(gen, psi512, x0, v0, t, n) == pytest.approx(expected, rel=1e-12)

    def test_second_order_scheme_defect(self, psi512):
        gen = GalileanGenerator(LevyTriplet2D(alpha=((1.0, 0.3), (0.3, 0.5))))
        sym = evolve_weyl_closed_form(gen, 0.0, 1.0, 1.0)
        closed = sym.multiplier * expectation(psi512, WeylLabel(*sym.point))
        defects = {n: abs(scheme_expected_weyl(gen, psi512, 0.0, 1.0, 1.0, n) - closed) for n in (16, 32, 64)}
        assert defects[16] / defects[32] == pytest.approx(4.0, rel=0.05)
        assert defects[32] / defects[64] == pytest.approx(4.0, rel=0.05)

    def test_mc_matches_scheme_law(self, psi512):
        gen = GalileanGenerator(ATOMIC)
        x0, v0, t, n = 0.5, 0.7, 1.0, 8
        res = mc_weyl_expectation(gen, psi512, WeylLabel(x0, v0), t, n, MCConfig(4000, 21))
        scheme = scheme_expected_weyl(gen, psi512, x0, v0, t, n)
        assert abs(res.estimate - scheme) <= 4.0 * res.stderr + 1e-10

    def test_overflow_fraction_reported_below_threshold(self):
        # a rare jump of 9 carries the packet into the window at 12 <= |x| < 16;
        # with no other noise a path overflows exactly when it jumps
        psi = gaussian_state(default_grid(128, 16.0))
        gen = GalileanGenerator(LevyTriplet2D(jumps=JumpMeasure(atoms=[((9.0, 0.0), 0.005)])),
                                include_free_hamiltonian=False)
        mc = MCConfig(4000, 23)
        res = mc_weyl_expectation(gen, psi, WeylLabel(0.0, 0.5), 1.0, 1, mc)
        assert 0.0 < res.overflow_fraction <= OVERFLOW_FRACTION
        inc = _sample_increments(gen.triplet2, np.ones(1), mc.n_paths, rng.stream(mc.seed, "dilation", 0))
        assert res.overflow_fraction == np.count_nonzero(inc[:, 0, 0]) / mc.n_paths
        quiet = GalileanGenerator(LevyTriplet2D(alpha=((0.5, 0.0), (0.0, 0.0))), include_free_hamiltonian=False)
        assert mc_weyl_expectation(quiet, psi, WeylLabel(0.0, 0.5), 1.0, 1, mc).overflow_fraction == 0.0

    def test_thread_count_does_not_change_estimate(self):
        # two chunks, each evolved in its worker's own buffers
        psi = gaussian_state(default_grid(128, 16.0))
        gen = GalileanGenerator(FULL)
        configs = [MCConfig(DILATION_CHUNK + 100, 8, threads=k) for k in (1, 2)]
        runs = [mc_weyl_expectation(gen, psi, WeylLabel(0.4, -0.3), 0.7, 4, mc) for mc in configs]
        assert runs[0].estimate == runs[1].estimate and runs[0].stderr == runs[1].stderr

    def test_peak_memory_in_blocks(self, psi512):
        # one paths x N buffer per evolved block, and a Weyl reduction that transforms, displaces
        # and conjugates the states an eighth of a tile of rows at a time in one reused FFT
        # buffer (0.28 tiles; 1.15 with a one-tile buffer, 2.15 with a new FFT array per tile);
        # with a new array per pass the evolve peak was 4.23 blocks, and a whole-block reduction
        # of these rows peaked at 8.6 tiles
        paths, steps = 256, 8
        block = paths * psi512.grid.n_points * 16
        inc = _sample_increments(FULL, np.full(steps, 0.05), paths, rng.stream(9, "dilation", 0))
        states = np.tile(psi512.amplitudes, (4 * paths, 1))  # 1024 rows: 8 tiles at N = 512
        expectations(states[:1], psi512.grid, WeylLabel(0.4, -0.3))  # warm-up: first-call caches stay untraced
        tracemalloc.start()
        try:
            _evolve_block(GalileanGenerator(FULL), psi512, inc, 0.05)
            evolve_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            expectations(states, psi512.grid, WeylLabel(0.4, -0.3))
            reduce_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert evolve_peak <= 1.5 * block
        assert reduce_peak <= 0.4 * STATE_TILE_BYTES

    def test_estimator_peak_memory_does_not_grow_with_paths(self, psi512):
        # paths are evolved one tile and reduced an eighth of a tile at a time: apart from the
        # increments and the values, which grow with the paths, the peak is under two tiles at
        # any path count (1.38 tiles at both sizes; 2.13 with a one-tile reduction buffer and
        # three copies of a chunk's noise in the sampler, 3.0 with a conjugate copy of each
        # tile, and the whole-chunk buffers peaked at 16.5 and 17.2)
        gen = GalileanGenerator(LevyTriplet2D(beta_p=0.4, beta_q=-0.7, alpha=((1.0, 0.3), (0.3, 0.5))))
        steps, peaks = 8, []
        # warm-up: first-call caches (FFT plans, phase arguments) stay untraced
        mc_weyl_expectation(gen, psi512, WeylLabel(0.4, -0.3), 0.4, steps, MCConfig(2, 3))
        for paths in (1024, 4096):
            tracemalloc.start()
            try:
                mc_weyl_expectation(gen, psi512, WeylLabel(0.4, -0.3), 0.4, steps, MCConfig(paths, 3))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            peaks.append((peak - paths * steps * 2 * 8 - paths * 16) / STATE_TILE_BYTES)
        assert max(peaks) <= 1.8
        assert abs(peaks[1] - peaks[0]) <= 0.125


class TestCovariance:
    def test_zero_label_zero_defect(self, psi512):
        gen = GalileanGenerator(GAUSS_PP)
        defect = galilean_covariance_check(gen, 0.0, 0.0, 0.7, psi512, MCConfig(128, 3), n_steps=8)
        assert defect < 1e-12

    def test_boost_only(self, psi512):
        gen = GalileanGenerator(GAUSS_PP)
        defect = galilean_covariance_check(gen, 0.0, 0.9, 0.7, psi512, MCConfig(256, 4), n_steps=8)
        assert defect < 1e-10

    def test_generic_label_shared_seeds(self, psi512):
        gen = GalileanGenerator(FULL)
        defect = galilean_covariance_check(gen, 1.0, 0.8, 0.7, psi512, MCConfig(256, 5), n_steps=8)
        assert defect < 1e-10

    def test_generic_label_without_free_term(self, psi512):
        # with no free flow the label does not move, so the boost is W(x, v) itself
        gen = GalileanGenerator(FULL, include_free_hamiltonian=False)
        defect = galilean_covariance_check(gen, 1.0, 0.8, 0.7, psi512, MCConfig(256, 5), n_steps=8)
        assert defect < 1e-10

    def test_thread_count_does_not_change_defect(self):
        # three chunks, run concurrently at threads = 2; with two, a reduction out of
        # chunk order would go unseen, since a two-term float sum commutes
        psi = gaussian_state(default_grid(128, 16.0))
        gen = GalileanGenerator(FULL)
        defects = [galilean_covariance_check(gen, 1.0, 0.8, 0.7, psi, MCConfig(2 * DILATION_CHUNK + 100, 5, threads=k),
                                             n_steps=4) for k in (1, 2)]
        assert defects[0] == defects[1]

    def test_paths_evolve_in_state_batches(self, monkeypatch):
        # memory control: neither dilation function evolves more than one
        # tile of paths in one call, and every path is evolved
        seen = []
        evolve = galilean_module._evolve_block

        def recording(gen, psi, increments, dt):
            seen.append(increments.shape[0])
            return evolve(gen, psi, increments, dt)

        monkeypatch.setattr(galilean_module, "_evolve_block", recording)
        psi = gaussian_state(default_grid(64, 16.0))
        gen = GalileanGenerator(GAUSS_PP)
        mc = MCConfig(2 * tile_rows(64) + 50, 6)
        galilean_covariance_check(gen, 1.0, 0.8, 0.7, psi, mc, n_steps=2)
        mc_weyl_expectation(gen, psi, WeylLabel(0.4, 0.3), 0.7, 2, mc)
        assert max(seen) <= tile_rows(64)
        assert sum(seen) == 3 * mc.n_paths  # both sides of the covariance check, then the estimator


def test_tile_budget_does_not_change_results(monkeypatch):
    # the tile size is memory control only: one row per tile and every path in one
    # tile give the same bits, over two stream chunks of DILATION_CHUNK paths
    psi = gaussian_state(default_grid(128, 16.0))
    gen = GalileanGenerator(FULL)
    mc = MCConfig(DILATION_CHUNK + 100, 8)
    runs = []
    for budget, rows in ((16 * psi.grid.n_points, 1), (1 << 30, 1 << 19)):
        monkeypatch.setattr(grid_module, "STATE_TILE_BYTES", budget)
        assert tile_rows(psi.grid.n_points) == rows
        res = mc_weyl_expectation(gen, psi, WeylLabel(0.4, -0.3), 0.7, 2, mc)
        defect = galilean_covariance_check(gen, 1.0, 0.8, 0.7, psi, mc, n_steps=2)
        runs.append((res.estimate, res.stderr, res.overflow_fraction, defect))
    assert runs[0] == runs[1]


class TestOneDimensionalReduction:
    def test_reduction_extracts_first_axis(self):
        t2 = LevyTriplet2D(beta_p=0.3, alpha=((0.5, 0.0), (0.0, 0.0)),
                           jumps=JumpMeasure(atoms=[((2.0, 0.0), 0.4)]))
        gen = GalileanGenerator(t2, include_free_hamiltonian=False)
        t1 = one_dimensional_reduction(gen)
        assert t1 == LevyTriplet1D(beta=0.3, alpha=0.5, jumps=JumpMeasure(atoms=[(2.0, 0.4)]))

    def test_no_reduction_with_free_term(self):
        assert one_dimensional_reduction(GalileanGenerator(GAUSS_PP)) is None

    def test_reduced_dynamics_matches_shift_semigroup(self, psi512):
        t2 = LevyTriplet2D(beta_p=0.3, alpha=((0.5, 0.0), (0.0, 0.0)),
                           jumps=JumpMeasure(atoms=[((2.0, 0.0), 0.4)]))
        gen = GalileanGenerator(t2, include_free_hamiltonian=False)
        t1 = one_dimensional_reduction(gen)
        label = WeylLabel(0.4, 0.9)
        two_d = mc_weyl_expectation(gen, psi512, label, 1.0, 4, MCConfig(20000, 31))
        one_d = mc_heisenberg_expectation(t1, psi512, label, 1.0, MCConfig(20000, 77))
        joint = np.hypot(two_d.stderr, one_d.stderr)
        assert abs(two_d.estimate - one_d.estimate) <= 4.0 * joint
        # and both against the 1-D exponent closed form
        closed = np.exp(char_exponent_1d(t1, label.v)) * expectation(psi512, label)
        assert abs(two_d.estimate - closed) <= 4.0 * two_d.stderr + 1e-10
