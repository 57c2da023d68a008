"""Increment laws: exponents, integrability validation, exact sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from levylab import rng
from levylab.levy import (
    _sample_increments,
    JumpMeasure,
    LevyTriplet1D,
    LevyTriplet2D,
    char_exponent_1d,
    char_exponent_2d,
    noise_covariance_2d,
    sample_ensemble,
)
from oracles import empirical_char_function, validate_levy_condition, with_truncation

GAUSS = LevyTriplet1D(alpha=1.0)
DRIFT = LevyTriplet1D(beta=1.0)
BIG_ATOM = LevyTriplet1D(jumps=JumpMeasure(atoms=[(2.0, 3.0)]), h=1.0)
MIXED = LevyTriplet1D(beta=0.3, alpha=0.5, jumps=JumpMeasure(atoms=[(0.5, 1.0), (-2.0, 0.4)]))


class TestCharExponent1D:
    def test_pure_diffusion(self):
        # -(alpha/2) lam^2 term alone
        assert char_exponent_1d(GAUSS, 2.0) == pytest.approx(-2.0 + 0j, abs=1e-15)

    def test_zero_argument_is_zero(self):
        for triplet in (GAUSS, DRIFT, BIG_ATOM, MIXED):
            assert char_exponent_1d(triplet, 0.0) == 0.0

    def test_big_atom_is_poisson_exponent(self):
        lam = 0.7
        expected = 3.0 * (np.exp(2j * lam) - 1.0)
        assert char_exponent_1d(BIG_ATOM, lam) == pytest.approx(expected, abs=1e-14)

    def test_atomic_sum_matches_direct_evaluation(self):
        atoms = [(0.3, 1.2), (-0.8, 0.5), (1.7, 0.9)]
        triplet = LevyTriplet1D(jumps=JumpMeasure(atoms=atoms), h=1.0)
        lam = -1.3
        direct = sum(
            r * (np.exp(1j * y * lam) - 1.0 - 1j * y * lam * (abs(y) <= 1.0))
            for y, r in atoms
        )
        assert char_exponent_1d(triplet, lam) == pytest.approx(direct, abs=1e-14)

    @given(st.floats(-5.0, 5.0))
    def test_nonpositive_real_part(self, lam):
        assert char_exponent_1d(MIXED, lam).real <= 1e-12

    def test_truncation_change_preserves_exponent(self):
        for new_h in (0.25, 3.0, 10.0):
            moved = with_truncation(MIXED, new_h)
            for lam in (-2.2, 0.4, 1.9):
                assert char_exponent_1d(moved, lam) == pytest.approx(
                    char_exponent_1d(MIXED, lam), abs=1e-12
                )


class TestCharExponent2D:
    T2 = LevyTriplet2D(
        beta_p=0.4,
        beta_q=-0.7,
        alpha=((1.0, 0.3), (0.3, 0.8)),
        jumps=JumpMeasure(atoms=[((1.5, 0.5), 0.6)]),
    )

    def test_zero_argument(self):
        assert char_exponent_2d(self.T2, 0.0, 0.0) == 0.0

    def test_drift_term(self):
        t = LevyTriplet2D(beta_p=1.0)
        assert char_exponent_2d(t, 2.0, 0.0) == pytest.approx(2j, abs=1e-15)

    def test_big_atom_term(self):
        x0, v0, rate = 1.2, 0.9, 0.7
        t = LevyTriplet2D(jumps=JumpMeasure(atoms=[((x0, v0), rate)]), h=1.0)
        mu, lam = 0.8, -0.5
        expected = rate * (np.exp(1j * (mu * x0 - lam * v0)) - 1.0)
        assert char_exponent_2d(t, mu, lam) == pytest.approx(expected, abs=1e-14)

    def test_atomless_law_has_two_column_atoms(self):
        t = LevyTriplet2D(alpha=((1.0, 0.0), (0.0, 1.0)))
        assert t.jumps.atom_arrays(t.dim)[0].shape == (0, 2)

    def test_alpha_must_be_psd(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            LevyTriplet2D(alpha=((1.0, 2.0), (2.0, 1.0)))

    def test_noise_covariance_flips_cross_term(self):
        cov = noise_covariance_2d(self.T2)
        assert cov[0, 1] == -0.3 and cov[0, 0] == 1.0 and cov[1, 1] == 0.8


class TestLevyCondition:
    def test_finite_atomic_passes_with_exact_value(self):
        report = validate_levy_condition(MIXED)
        expected = 1.0 * 0.5**2 + 0.4 * 1.0  # y^2 inside h, mass outside
        assert report.passed and report.value == pytest.approx(expected, abs=1e-14)

    def test_empty_measure_passes_with_zero(self):
        report = validate_levy_condition(LevyTriplet1D())
        assert report.passed and report.value == 0.0

    def test_two_dimensional_atoms(self):
        # the single atom lies outside the unit ball, so it contributes its rate
        report = validate_levy_condition(TestCharExponent2D.T2)
        assert report.passed and report.value == pytest.approx(0.6, abs=1e-14)


class TestSampling:
    def test_drift_only_is_deterministic(self):
        inc = _sample_increments(DRIFT, np.ones(2), 1, rng.stream(1, "increments"))
        assert np.allclose(np.cumsum(inc[0]), [1.0, 2.0], atol=1e-15)

    def test_identical_seeds_bit_identical(self):
        dt = np.diff(np.linspace(0.0, 2.0, 9))
        a = _sample_increments(MIXED, dt, 1, rng.stream(7, "increments"))
        b = _sample_increments(MIXED, dt, 1, rng.stream(7, "increments"))
        assert np.array_equal(a, b)

    def test_gaussian_variance_interval(self):
        # chi-square 99% interval at n = 1e5 is well inside [0.985, 1.015]
        xs = sample_ensemble(GAUSS, 1.0, 100000, seed=3)
        assert 0.985 <= xs.var() <= 1.015

    def test_poisson_jump_count_mean(self):
        n = 20000
        sample_counts = []
        xs = sample_ensemble(BIG_ATOM, 1.0, n, seed=5)
        counts = xs / 2.0  # each jump contributes exactly y0 = 2
        mean = counts.mean()
        assert abs(mean - 3.0) <= 3.0 * np.sqrt(3.0 / n)

    def test_ensemble_chunking_is_order_independent(self):
        full = sample_ensemble(MIXED, 1.0, 10000, seed=11)
        again = sample_ensemble(MIXED, 1.0, 10000, seed=11, threads=4)
        assert np.array_equal(full, again)

    def test_2d_sampling_matches_exponent(self):
        t2 = TestCharExponent2D.T2
        xs = sample_ensemble(t2, 0.7, 100000, seed=4)
        for mu, lam in [(0.5, 0.9), (1.2, -0.6)]:
            emp, se = empirical_char_function(xs, (mu, -lam))
            theo = np.exp(0.7 * char_exponent_2d(t2, mu, lam))
            assert abs(emp - theo) <= 4.0 * se + 1e-12

    def test_stationary_independent_increments_ks(self):
        # two-sample KS at level 0.01; one test here, so the false-positive
        # budget for the module is 1%.
        n = 4000
        direct = sample_ensemble(MIXED, 0.7, n, seed=21)
        shifted = np.array([
            _sample_increments(MIXED, np.array([0.5, 0.7]), 1, rng.stream(1000 + i, "increments"))[0, -1]
            for i in range(n)
        ])
        assert stats.ks_2samp(direct, shifted).pvalue >= 0.01


_loc = st.floats(0.05, 3.0).flatmap(lambda a: st.sampled_from((a, -a)))
_rate = st.floats(0.05, 4.0)
_laws_1d = st.builds(
    LevyTriplet1D,
    beta=st.floats(-1.0, 1.0),
    alpha=st.sampled_from((0.0, 0.4, 1.0)),
    jumps=st.builds(JumpMeasure, atoms=st.lists(st.tuples(_loc, _rate), max_size=3)),
    h=st.sampled_from((0.5, 1.0)),
)
_laws_2d = st.builds(
    lambda beta, diag, corr, atoms, h: LevyTriplet2D(
        beta_p=beta[0], beta_q=beta[1],
        alpha=((diag[0], corr * np.sqrt(diag[0] * diag[1])), (corr * np.sqrt(diag[0] * diag[1]), diag[1])),
        jumps=JumpMeasure(atoms=atoms), h=h,
    ),
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
    st.floats(-0.9, 0.9),
    st.lists(st.tuples(st.tuples(_loc, _loc), _rate), max_size=3),
    st.sampled_from((0.5, 1.0)),
)


class TestUnifiedSampler:
    @settings(deadline=None, max_examples=60)
    @given(_laws_1d | _laws_2d, st.floats(0.01, 5.0), st.integers(0, 2**32))
    def test_single_step_path_is_one_path_ensemble(self, triplet, t, seed):
        # both read stream (seed, "increments", 0): a one-step path draws the ensemble's numbers
        path = _sample_increments(triplet, np.array([t]), 1, rng.stream(seed, "increments"))[0, 0]
        assert np.array_equal(path, sample_ensemble(triplet, t, 1, seed)[0])

    @pytest.mark.parametrize("two_d", [False, True])
    def test_non_uniform_steps_match_exponent(self, two_d):
        # one atom above h and one below it in each dimension; every step and
        # the summed path are checked at 4 stderr
        dt = np.array([0.05, 0.4, 0.15, 0.25, 0.15])
        if two_d:
            triplet = LevyTriplet2D(beta_p=0.4, beta_q=-0.7, alpha=((1.0, 0.3), (0.3, 0.8)),
                                    jumps=JumpMeasure(atoms=[((1.5, 0.5), 0.6), ((0.2, -0.1), 2.0)]))
            args = [(0.5, 0.9), (1.2, -0.6)]
            eta = lambda a: char_exponent_2d(triplet, *a)
            plain = lambda a: (a[0], -a[1])
        else:
            triplet = LevyTriplet1D(beta=0.2, alpha=0.1, h=0.5,
                                    jumps=JumpMeasure(atoms=[(0.3, 1.0), (0.8, 0.7)]))
            args = [0.6, 1.1, -1.8]
            eta = lambda a: char_exponent_1d(triplet, a)
            plain = lambda a: a
        inc = _sample_increments(triplet, dt, 100000, rng.stream(3, "increments"))
        assert inc.shape == (100000, dt.size) + ((2,) if two_d else ())
        checks = [(inc.sum(axis=1), dt.sum(), a) for a in args]
        checks += [(inc[:, k], dt[k], args[0]) for k in range(dt.size)]
        for xs, t, a in checks:
            emp, se = empirical_char_function(xs, plain(a))
            assert abs(emp - np.exp(t * eta(a))) <= 4.0 * se


class TestEmpiricalCharFunction:
    def test_zero_samples_give_one(self):
        val, se = empirical_char_function(np.zeros(50), 3.3)
        assert val == 1.0 + 0j and se == 0.0

    def test_single_sample_exact(self):
        val, se = empirical_char_function(np.array([0.37]), 2.0)
        assert val == pytest.approx(np.exp(0.74j), abs=1e-15) and se == 0.0

    def test_gaussian_reference(self):
        gen = np.random.Generator(np.random.Philox(key=9))
        xs = gen.standard_normal(40000)
        val, se = empirical_char_function(xs, 1.0)
        assert abs(val - np.exp(-0.5)) <= 4.0 * se

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_char_function(np.array([]), 1.0)


class TestValidationErrors:
    def test_negative_alpha(self):
        with pytest.raises(ValueError, match="alpha must be nonnegative"):
            LevyTriplet1D(alpha=-1.0)

    def test_zero_rate_atom(self):
        with pytest.raises(ValueError, match="rate must be strictly positive"):
            LevyTriplet1D(jumps=JumpMeasure(atoms=[(1.0, 0.0)]))

    def test_atom_at_origin(self):
        with pytest.raises(ValueError, match="origin"):
            LevyTriplet1D(jumps=JumpMeasure(atoms=[(0.0, 1.0)]))

    def test_nonpositive_h(self):
        with pytest.raises(ValueError, match="h must be positive"):
            LevyTriplet1D(h=0.0)
