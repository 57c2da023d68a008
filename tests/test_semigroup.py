"""Noise-averaged semigroup: unitality, classical reduction, covariance."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from levylab import grid as grid_module
from levylab import rng
from levylab import semigroup as semigroup_module
from levylab.config import parse_config
from levylab.errors import SupportOverflowError
from levylab.grid import (
    OVERFLOW_FRACTION,
    STATE_BATCH,
    GridSpec,
    PTable,
    QTable,
    WeylLabel,
    displace,
    expectation,
    expectations,
    gaussian_state,
)
from levylab.levy import JumpMeasure, LevyTriplet1D, char_exponent_1d, sample_ensemble
from levylab.montecarlo import MCConfig, mc_stats
from levylab.runner import OBSERVABLE_FUNCS, _verdict
from levylab.semigroup import (
    classical_generator_apply,
    classical_smoothing,
    generator_consistency_check,
    mc_heisenberg_expectation,
    _lag_coefficients,
    _lag_degree,
    _shift_values,
    _support_bounds,
)
import oracles
from oracles import (
    ORACLE_TOL,
    classical_fixed_point_oracle,
    momentum_covariance_check,
    semigroup_two_stage,
    unit_state,
)

REPO = Path(__file__).resolve().parent.parent
GAUSS = LevyTriplet1D(alpha=1.0)
MIXED = LevyTriplet1D(beta=0.3, alpha=0.5, jumps=JumpMeasure(atoms=[(2.0, 0.4)]))
#: The law of ``configs/generator_check.cfg``.
GENCHK_LAW = LevyTriplet1D(beta=0.3, alpha=0.5, jumps=JumpMeasure(atoms=[(0.5, 1.0), (-2.0, 0.4)]))


def bump(x):
    return np.exp(-0.5 * x**2)


class TestHeisenbergExpectation:
    def test_identity_exact_with_zero_variance(self, psi):
        one = QTable.from_function(psi.grid, lambda x: np.ones_like(x), "one")
        res = mc_heisenberg_expectation(MIXED, psi, one, 1.0, MCConfig(4000, 1))
        assert res.estimate == pytest.approx(1.0, abs=1e-12)
        assert res.stderr < 1e-12

    def test_momentum_observable_exact(self, psi):
        g = PTable.from_function(psi.grid, np.tanh, "tanh(P)")
        res = mc_heisenberg_expectation(MIXED, psi, g, 1.0, MCConfig(100, 2))
        assert res.n_paths == 0 and res.stderr == 0.0  # no path was sampled
        assert res.estimate == pytest.approx(expectation(psi, g), abs=1e-14)

    def test_position_observable_matches_classical_oracle(self, psi):
        fq = QTable.from_function(psi.grid, bump, "bump")
        quantum = mc_heisenberg_expectation(MIXED, psi, fq, 1.0, MCConfig(40000, 3))
        classical = classical_fixed_point_oracle(bump, MIXED, 1.0, psi, MCConfig(40000, 999))
        joint = np.hypot(quantum.stderr, classical.stderr)
        assert abs(quantum.estimate - classical.estimate) <= 4.0 * joint

    def test_oracle_sums_over_the_support(self, moving_psi):
        weights = np.abs(moving_psi.amplitudes) ** 2 * moving_psi.grid.dx
        lo, hi = _support_bounds(weights, ORACLE_TOL)
        assert weights[:lo].sum() < ORACLE_TOL / 2 and weights[hi + 1:].sum() < ORACLE_TOL / 2
        assert hi - lo + 1 < weights.size // 3
        # reference: the weighted sum over the whole lattice
        mc = MCConfig(3000, 5)
        xi = sample_ensemble(MIXED, 1.0, mc.n_paths, mc.seed)
        full = bump(moving_psi.grid.x[None, :] + xi[:, None]) @ weights
        res = classical_fixed_point_oracle(bump, MIXED, 1.0, moving_psi, mc)
        assert res.estimate == pytest.approx(full.mean(), rel=1e-13)
        assert res.stderr == pytest.approx(full.std(ddof=1) / np.sqrt(mc.n_paths), rel=1e-10)

    def test_weyl_observable_closed_form(self, psi):
        # conjugating a displacement by a shift multiplies it by a phase, so
        # the average is exp(t * exponent(v)) times the static expectation
        label = WeylLabel(0.5, 1.2)
        res = mc_heisenberg_expectation(GAUSS, psi, label, 1.0, MCConfig(20000, 4))
        closed = np.exp(char_exponent_1d(GAUSS, label.v)) * expectation(psi, label)
        assert abs(res.estimate - closed) <= 4.0 * res.stderr + 1e-12

    def test_antithetic_used_for_symmetric_law(self, psi):
        fq = QTable.from_function(psi.grid, bump, "bump")
        mc = MCConfig(2000, 5)
        assert mc.resolve_antithetic(GAUSS.is_symmetric)
        res = mc_heisenberg_expectation(GAUSS, psi, fq, 1.0, mc)
        xi = sample_ensemble(GAUSS, 1.0, mc.n_paths, mc.seed, antithetic=True)
        assert (res.estimate, res.stderr) == mc_stats(_shift_values(psi, fq, xi), antithetic=True)

    def test_antithetic_refused_for_asymmetric_law(self, psi):
        fq = QTable.from_function(psi.grid, bump, "bump")
        with pytest.raises(ValueError, match="asymmetric"):
            mc_heisenberg_expectation(MIXED, psi, fq, 1.0, MCConfig(2000, 5, antithetic=True))

    def test_support_overflow_aborts(self, grid):
        psi = gaussian_state(grid, 30.0, 1.0)
        fast = LevyTriplet1D(beta=15.0)
        fq = QTable.from_function(grid, bump, "bump")
        with pytest.raises(SupportOverflowError):
            mc_heisenberg_expectation(fast, psi, fq, 1.0, MCConfig(200, 6))


class TestShiftEstimator:
    @given(
        st.integers(1, 12),
        st.sampled_from(["qtable", "weyl"]),
        st.floats(0.0, 1.0),
        st.booleans(),
        st.integers(0, 2**31 - 1),
        st.booleans(),
    )
    @example(1, "weyl", 1.0, True, 1, False)     # N = 2
    @example(3, "qtable", 1.0, False, 2, False)  # N = 8
    @example(12, "weyl", 1.0, True, 3, False)    # N = 4096
    @example(12, "qtable", 1.0, False, 4, False)
    @example(10, "qtable", 1.0, True, 5, True)   # smooth: 64 of 1024 lags kept
    @example(10, "weyl", 1.0, False, 40, True)   # smooth: 256 of 1024 lags kept
    def test_matches_fft_route_per_path(self, log_n, kind, span, antithetic, seed, smooth):
        # random state and observable, |xi| up to span box lengths; the FFT
        # route shifts every state and measures it, the estimator does neither.
        # White noise keeps all N lags. A smooth Gaussian state (random centre,
        # width and momentum) with a smooth observable (a Gaussian bump, or a
        # Weyl label within 5 % of the box and the band) often has a lag
        # polynomial the estimator cuts below N; a Weyl label less often, as
        # the slow tail of its c carries the correlation FFT's round-off
        n = 2**log_n
        gen = rng.stream(seed, "test.state-observable")
        grid = GridSpec(n_points=n, x_min=-80.0 * gen.uniform(), dx=80.0 / n)
        box = n * grid.dx
        if smooth:
            psi = gaussian_state(grid, grid.x_min + box * gen.uniform(0.25, 0.75), box * gen.uniform(0.01, 0.1),
                                 gen.uniform(-0.25, 0.25) * n * grid.dp)
        else:
            psi = unit_state(grid, gen.standard_normal(n) + 1j * gen.standard_normal(n))
        if kind == "qtable" and smooth:
            height, centre, width = gen.uniform(-1.0, 1.0), grid.x_min + box * gen.uniform(), box * gen.uniform(0.01, 0.1)
            observable = QTable(tuple(height * np.exp(-0.5 * ((grid.x - centre) / width) ** 2)))
        elif kind == "qtable":
            observable = QTable(tuple(gen.uniform(-1.0, 1.0, n)))
        else:
            x, v = gen.uniform(-1.0, 1.0, 2) * ((0.05 if smooth else 1.0) * box, (0.05 if smooth else 0.5) * n * grid.dp)
            observable = WeylLabel(x, v)
        xi = span * box * gen.uniform(-1.0, 1.0, 16)
        if antithetic:
            xi = np.concatenate([xi, -xi])
        hat = np.fft.fft(psi.amplitudes, norm="ortho")[None, :]
        oracle = expectations(displace(hat, grid, xi), grid, observable)
        values = _shift_values(psi, observable, xi)
        # both routes round the arguments of their phases: xi p, and for a
        # Weyl label x p and v q; a phase is off by about eps |argument|, and
        # the value by that times the operator norm (measured: at most 3.4
        # times eps |argument| norm over 1500 random cases, N = 2..4096)
        arg = grid.dp * n * np.abs(xi)
        norm = 1.0
        if isinstance(observable, WeylLabel):
            arg = arg + grid.dp * n * abs(observable.x) + abs(observable.v) * np.abs(grid.x).max()
        else:
            norm = np.abs(observable.array).max()
        bound = 8.0 * np.finfo(float).eps * np.maximum(1.0, arg) * norm
        assert np.all(np.abs(values - oracle) <= bound)
        est, se = mc_stats(values, antithetic=antithetic)
        ref, ref_se = mc_stats(oracle, antithetic=antithetic)
        assert abs(est - ref) <= bound.max()
        assert abs(se - ref_se) <= bound.max()

    @pytest.mark.parametrize("observable", [QTable(tuple(np.cos(np.arange(1024.0)))), WeylLabel(0.7, -1.3)])
    def test_blocks_share_one_workspace_without_leaking(self, psi, observable):
        # the phase tables and the product of every block, the partial last one included,
        # live in one workspace per call: each block's values are those of the block alone
        xi = rng.stream(5, "test.workspace").uniform(-5.0, 5.0, 2 * STATE_BATCH + 37)
        alone = [_shift_values(psi, observable, xi[lo:lo + STATE_BATCH]) for lo in range(0, xi.size, STATE_BATCH)]
        assert np.array_equal(_shift_values(psi, observable, xi), np.concatenate(alone))

    def test_estimators_never_shift_states(self, psi, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the coefficient estimator must not call grid.displace")

        monkeypatch.setattr(grid_module, "displace", forbidden)
        monkeypatch.setattr(oracles, "displace", forbidden)
        fq = QTable.from_function(psi.grid, bump, "bump")
        mc_heisenberg_expectation(MIXED, psi, fq, 1.0, MCConfig(256, 16))
        mc_heisenberg_expectation(MIXED, psi, WeylLabel(0.3, 0.4), 1.0, MCConfig(256, 16))
        mc_heisenberg_expectation(MIXED, psi, WeylLabel(-0.2, 0.9), 0.5, MCConfig(256, 17))
        semigroup_two_stage(MIXED, psi, fq, 0.5, 0.7, MCConfig(256, 18))

    def test_overflow_fraction_reported_below_threshold(self, grid):
        # support near the right edge: a few Gaussian paths reach the window
        psi = gaussian_state(grid, 30.0, 1.0)
        near = LevyTriplet1D(alpha=2.0)
        fq = QTable.from_function(grid, bump, "bump")
        mc = MCConfig(20000, 19)
        res = mc_heisenberg_expectation(near, psi, fq, 1.0, mc)
        assert 0.0 < res.overflow_fraction <= OVERFLOW_FRACTION
        xi = sample_ensemble(near, 1.0, mc.n_paths, mc.seed, antithetic=mc.resolve_antithetic(near.is_symmetric))
        assert res.overflow_fraction == semigroup_module._check_overflow(psi, xi)
        centred = mc_heisenberg_expectation(near, gaussian_state(grid), fq, 1.0, MCConfig(2000, 19))
        assert centred.overflow_fraction == 0.0


class TestLagCut:
    @pytest.mark.parametrize("observable", [QTable.from_function(oracles.default_grid(), bump), WeylLabel(0.4, 0.6)])
    def test_cut_against_all_lags(self, psi, observable):
        # a dropped lag moves a path's value by at most its |P_d| + |R_d| (|z| = 1), and the cut
        # drops at most 2**-53 of sum |C_d|; adding the dropped lags back rounds once more
        xi = rng.stream(7, "test.lag-cut").uniform(-40.0, 40.0, STATE_BATCH + 37)
        coef = _lag_coefficients(psi, observable)
        assert _lag_degree(coef) < psi.grid.n_points
        gap = np.abs(_shift_values(psi, observable, xi) - oracles.all_lag_values(psi, observable, xi))
        assert np.all(gap <= 2.0**-52 * np.abs(coef).sum())

    def test_zero_observable_keeps_two_lags(self, psi):
        zero = QTable(tuple(np.zeros(psi.grid.n_points)))
        assert _lag_degree(_lag_coefficients(psi, zero)) == 2
        assert np.all(_shift_values(psi, zero, np.linspace(-5.0, 5.0, 9)) == 0.0)

    @pytest.mark.parametrize("kind", ["qtable", "weyl"])
    def test_white_noise_keeps_every_lag(self, grid, kind):
        # its momentum autocorrelation does not decay, so no lag carries less than the cut
        gen = rng.stream(3, "test.white-noise")
        n = grid.n_points
        psi = unit_state(grid, gen.standard_normal(n) + 1j * gen.standard_normal(n))
        observable = QTable(tuple(gen.uniform(-1.0, 1.0, n))) if kind == "qtable" else WeylLabel(0.4, 0.6)
        assert _lag_degree(_lag_coefficients(psi, observable)) == n

    def test_sample_config_keeps_128_lags(self):
        # the unit Gaussian's autocorrelation times the bump's falls below the cut after 88 lags
        cfg = parse_config((REPO / "configs" / "mc_semigroup_mixed.cfg").read_text())
        psi, observable = cfg.params["state"], cfg.params["observable"]
        assert psi.grid.n_points == 1024
        assert _lag_degree(_lag_coefficients(psi, observable)) == 128


class TestStateEnsemble:
    def test_ensemble_reproduces_expectation_numerically(self, psi):
        # same seed, same streams: the observable on each shifted state must
        # match the coefficient estimator's value for that path, and the
        # averages must agree, both to round-off (asymmetric law, so the
        # estimator uses plain sampling on both sides)
        fq = QTable.from_function(psi.grid, bump, "bump")
        xi = sample_ensemble(MIXED, 1.0, 512, 15)
        states = np.concatenate([block for _, block in oracles._shifted_batches(psi, xi)])
        by_states = psi.grid.dx * np.abs(states) ** 2 @ fq.array
        per_path = _shift_values(psi, fq, xi)
        assert np.abs(by_states - per_path).max() <= 1e-14
        direct = mc_heisenberg_expectation(MIXED, psi, fq, 1.0, MCConfig(512, 15))
        assert abs(np.mean(by_states) - direct.estimate) <= 1e-14


class TestClassicalGenerator:
    def test_constant_function_annihilated(self):
        assert classical_generator_apply(MIXED, lambda x: np.ones_like(np.asarray(x)), 0.4) == pytest.approx(0.0, abs=1e-9)

    def test_quadratic_under_diffusion(self):
        # (alpha/2) f'' with f = x^2 gives exactly alpha
        assert classical_generator_apply(GAUSS, lambda x: np.asarray(x) ** 2, 0.3) == pytest.approx(1.0, abs=1e-6)

    def test_linear_function_with_big_atoms(self):
        triplet = LevyTriplet1D(beta=0.7, jumps=JumpMeasure(atoms=[(2.0, 0.5)]), h=1.0)
        # beta f' + rate * (f(x+y) - f(x)) for f(x) = x
        expected = 0.7 + 0.5 * 2.0
        assert classical_generator_apply(triplet, lambda x: np.asarray(x) * 1.0, -0.2) == pytest.approx(expected, abs=1e-8)

    def test_compensated_small_atom(self):
        triplet = LevyTriplet1D(jumps=JumpMeasure(atoms=[(0.5, 2.0)]), h=1.0)
        # compensation kills the f' term: rate * (f(x+y) - f(x) - y f'(x))
        f = lambda x: np.asarray(x) ** 2
        expected = 2.0 * ((0.3 + 0.5) ** 2 - 0.3**2 - 0.5 * 2 * 0.3)
        assert classical_generator_apply(triplet, f, 0.3) == pytest.approx(expected, abs=1e-6)


class TestClassicalSmoothing:
    def test_time_zero_identity(self):
        x = np.linspace(-2, 2, 11)
        f = lambda v: np.tanh(v)
        values, stderr = classical_smoothing(f, GAUSS, 0.0, MCConfig(10, 1), x, "increments")
        assert np.array_equal(values, f(x)) and not stderr.any()

    def test_unit_function_stays_one(self):
        x = np.linspace(-2, 2, 5)
        values, _ = classical_smoothing(lambda v: np.ones_like(v), GENCHK_LAW, 1.0, MCConfig(2000, 2), x,
                                        "increments")
        assert np.allclose(values, 1.0, atol=1e-14)

    def test_indicator_under_symmetric_diffusion(self):
        values, stderr = classical_smoothing(
            lambda v: (v > 0).astype(float), GAUSS, 1.0, MCConfig(100000, 3), np.array([0.0]), "increments"
        )
        assert abs(values[0] - 0.5) <= 4.0 * stderr[0]

    # generator_check.cfg at [genchk] scale = 1e-4, seed 7: f(x + xi) spreads by about 1e-9 around 1,
    # where a one-pass sq/n - mean^2 variance cancels to exactly 0 at some points
    SMALL_SPREAD = staticmethod(OBSERVABLE_FUNCS["bump"](1e-4))
    POINTS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    HALVES = [(0.01, "increments"), (0.005, "generator-check.half-step")]

    def _sample_std_stderr(self, t, tag):
        xi = sample_ensemble(GENCHK_LAW, t, 20000, 7, tag=tag)
        return np.array([np.std(self.SMALL_SPREAD(xk + xi), ddof=1) for xk in self.POINTS]) / np.sqrt(20000)

    @pytest.mark.parametrize("t,tag", HALVES)
    def test_small_variance_stderr_is_the_sample_std(self, t, tag):
        _, stderr = classical_smoothing(self.SMALL_SPREAD, GENCHK_LAW, t, MCConfig(20000, 7), self.POINTS, tag)
        assert (stderr > 0).all()
        np.testing.assert_allclose(stderr, self._sample_std_stderr(t, tag), rtol=1e-9, atol=0)

    def test_generator_check_z_uses_the_sample_std(self):
        # the z the CLI records: deviation over the two quotients' stderrs
        report = generator_consistency_check(GENCHK_LAW, self.SMALL_SPREAD, 0.01, MCConfig(20000, 7), self.POINTS)
        se = sum(self._sample_std_stderr(t, tag) / t for t, tag in self.HALVES)
        np.testing.assert_allclose(report.gate.z, report.deviation / se, rtol=1e-9, atol=0)


class TestGeneratorConsistency:
    @pytest.mark.parametrize(
        "triplet,n_paths",
        [
            (LevyTriplet1D(beta=1.0), 1000),
            (LevyTriplet1D(alpha=1.0), 100000),
            (LevyTriplet1D(jumps=JumpMeasure(atoms=[(2.0, 1.5)])), 100000),
        ],
        ids=["drift", "diffusion", "jump"],
    )
    def test_three_noise_types(self, triplet, n_paths):
        report = generator_consistency_check(triplet, bump, 0.01, MCConfig(n_paths, 77), np.linspace(-2.0, 2.0, 9))
        assert report.gate.passed.all() and not report.inconclusive

    def test_noise_dominated_run_is_inconclusive(self):
        report = generator_consistency_check(GAUSS, bump, 0.01, MCConfig(50, 78), np.linspace(-2.0, 2.0, 9))
        # an inconclusive run never counts as a pass, whatever its gates say
        assert report.inconclusive and _verdict(report.gate.passed.all(), report.inconclusive) != "pass"


class TestCovarianceAndSemigroup:
    def test_momentum_covariance_weyl(self, psi):
        defect = momentum_covariance_check(MIXED, psi, WeylLabel(0.5, 1.0), y=0.8, t=1.0, mc=MCConfig(1000, 11))
        assert defect < 1e-10

    def test_momentum_covariance_position_table(self, psi):
        fq = QTable.from_function(psi.grid, bump, "bump")
        defect = momentum_covariance_check(MIXED, psi, fq, y=1.3, t=1.0, mc=MCConfig(1000, 12))
        assert defect < 1e-10

    def test_zero_boost_no_defect(self, psi):
        defect = momentum_covariance_check(MIXED, psi, WeylLabel(0.2, 0.1), y=0.0, t=1.0, mc=MCConfig(500, 13))
        assert defect < 1e-14

    def test_two_stage_composition(self, psi):
        fq = QTable.from_function(psi.grid, bump, "bump")
        one, two = semigroup_two_stage(MIXED, psi, fq, 0.5, 0.7, MCConfig(40000, 14))
        assert abs(one.estimate - two.estimate) <= 4.0 * np.hypot(one.stderr, two.stderr)
