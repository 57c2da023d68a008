"""Reference computations the tests check the package against.

Each function here is an independent route to a quantity the CLI
experiments compute another way (closed forms, exchange relations,
composition laws, the classical reduction), or a diagnostic only the tests
read.  None of it is reached by a registered experiment kind, so it lives
beside the tests rather than in ``src/levylab``.  Stream tags and seeds are
those of the package (``rng.stream``); ``tests/test_rng.py`` scans this
module for them together with ``src/``.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from levylab import rng
from levylab.errors import NumericalFailure
from levylab.feller import BoundaryReport, DriftSpec, simulate_killed_diffusion
from levylab.galilean import GalileanGenerator, transported, weyl_symbol_rate
from levylab.generators import CP_TOL, StandardGenerator, _as_matrix, exact_evolve, superop_matrix, vec
from levylab.grid import (STATE_BATCH, SUPPORT_TOL, GridSpec, Observable, PTable, QTable, WaveFunction, WeylLabel,
                          _apply_lattice_phase, _check_support, displace, expectation, expectations, gaussian_state)
from levylab.levy import JumpMeasure, LevyTriplet1D, LevyTriplet2D, sample_ensemble
from levylab.montecarlo import MCConfig, MCResult, mc_stats
from levylab.semigroup import (_check_overflow, _lag_coefficients, _lag_degree, _lag_values, _shift_estimate,
                               _support_bounds, mc_heisenberg_expectation)


# --------------------------------------------------------------------------
# Lattice: single-state unitaries, moments and the exchange-relation diagnostic
# --------------------------------------------------------------------------

def default_grid(n_points: int = 1024, half_width: float = 40.0) -> GridSpec:
    """The workhorse grid: ``x in [-half_width, half_width)``."""
    return GridSpec(n_points=n_points, x_min=-half_width, dx=2.0 * half_width / n_points)


def unit_state(grid: GridSpec, amplitudes) -> WaveFunction:
    """A random or hand-made profile divided by its norm ``sqrt(dx sum |a_k|^2)``."""
    amps = np.asarray(amplitudes, dtype=complex)
    return WaveFunction(grid, amps / np.sqrt(grid.dx * np.sum(np.abs(amps) ** 2)))


class BandLimitWarning(UserWarning):
    """State carries non-negligible mass at the extreme momenta."""


class IncommensurateShiftWarning(UserWarning):
    """Shift/phase pair is not grid-commensurate; finite-size defect expected."""


def apply_position_phase(psi: WaveFunction, y: float) -> WaveFunction:
    """``exp(i y Q)``: pointwise phase; exactly norm-preserving."""
    out = _apply_lattice_phase(psi.amplitudes[None, :], psi.grid, np.array([y]), momentum=False)
    return WaveFunction(psi.grid, out[0])


def apply_shift(psi: WaveFunction, x: float, check_support: bool = True) -> WaveFunction:
    """``exp(-i x P)``: spectral shift moving the state right by ``x``.

    Exact circular index shift when ``x`` is a multiple of ``dx``; for
    band-limited states exact interpolation otherwise.
    """
    if x == 0.0:
        return WaveFunction(psi.grid, psi.amplitudes.copy())
    if check_support:
        _check_support(psi)
    hat = np.fft.fft(psi.amplitudes, norm="ortho")
    return WaveFunction(psi.grid, displace(hat[None, :], psi.grid, [x])[0])


def apply_free_evolution(psi: WaveFunction, t: float, check_bandlimit: bool = True) -> WaveFunction:
    """Free kinetic evolution ``exp(-i t P^2 / 2)``; ``check_bandlimit`` warns on mass in the band's top eighth."""
    if t == 0.0:
        return WaveFunction(psi.grid, psi.amplitudes.copy())
    hat = np.fft.fft(psi.amplitudes, norm="ortho")
    dens, p = np.abs(hat) ** 2, np.abs(psi.grid.p)
    tail = dens[p >= 0.875 * p.max()].sum() / dens.sum() if dens.sum() > 0 else 0.0
    if check_bandlimit and tail > SUPPORT_TOL:
        warnings.warn(
            f"state has momentum tail mass {tail:.3e} > {SUPPORT_TOL:.0e}; free evolution may alias",
            BandLimitWarning,
            stacklevel=2,
        )
    hat *= np.exp(-0.5j * t * psi.grid.p**2)
    return WaveFunction(psi.grid, np.fft.ifft(hat, norm="ortho"))


def position_expectation(psi: WaveFunction) -> float:
    return float(np.real(expectation(psi, QTable(values=tuple(psi.grid.x), label="Q"))))


def momentum_expectation(psi: WaveFunction) -> float:
    return float(np.real(expectation(psi, PTable(values=tuple(psi.grid.p), label="P"))))


def _default_battery(grid: GridSpec) -> list[WaveFunction]:
    states = [
        gaussian_state(grid, 0.0, 1.0, 0.0),
        gaussian_state(grid, -3.0, 2.0, 1.5),
        gaussian_state(grid, 4.0, 0.7, -2.0),
    ]
    gen = rng.stream(0, "ccr-battery")
    hat = np.zeros(grid.n_points, dtype=complex)
    band = grid.n_points // 8
    coeffs = gen.standard_normal(2 * band) + 1j * gen.standard_normal(2 * band)
    hat[:band] = coeffs[:band]
    hat[-band:] = coeffs[band:]
    states.append(unit_state(grid, np.fft.ifft(hat, norm="ortho")))
    return states


def is_commensurate(grid: GridSpec, x: float, y: float) -> bool:
    """True when ``x`` is a multiple of ``dx`` and ``y`` of the momentum spacing, to relative 1e-9."""
    def _multiple(val, unit):
        if val == 0.0:
            return True
        k = val / unit
        return abs(k - round(k)) <= 1e-9 * max(1.0, abs(k))
    return _multiple(x, grid.dx) and _multiple(y, grid.dp)


def ccr_defect(grid: GridSpec, x: float, y: float) -> float:
    """Largest norm defect of the exchange relation over a battery of states.

    Returns ``max over psi`` of ``|| (shift(x) phase(y) - exp(-i x y)
    phase(y) shift(x)) psi ||``.  For grid-commensurate pairs this is pure
    round-off; incommensurate pairs are computed anyway but flagged with a
    warning, since a finite lattice cannot represent them exactly.
    """
    if not is_commensurate(grid, x, y):
        warnings.warn(
            f"(x={x}, y={y}) is not grid-commensurate; defect reflects lattice artifacts",
            IncommensurateShiftWarning,
            stacklevel=2,
        )
    phase = np.exp(-1j * x * y)
    worst = 0.0
    for psi in _default_battery(grid):
        lhs = apply_shift(apply_position_phase(psi, y), x, check_support=False)
        rhs = apply_position_phase(apply_shift(psi, x, check_support=False), y)
        diff = lhs.amplitudes - phase * rhs.amplitudes
        worst = max(worst, float(np.sqrt(grid.dx * np.sum(np.abs(diff) ** 2))))
    return worst


# --------------------------------------------------------------------------
# Increment laws: truncation change, the integrability condition and the
# empirical characteristic function
# --------------------------------------------------------------------------

def with_truncation(triplet: LevyTriplet1D, new_h: float) -> LevyTriplet1D:
    """Re-express the same 1-D law with truncation radius ``new_h``.

    The drift absorbs the change of compensator so the characteristic
    exponent is unchanged.
    """
    if not new_h > 0:
        raise ValueError("new_h must be positive")
    locs, rates = triplet.jumps.atom_arrays(triplet.dim)
    delta = (np.abs(locs) <= new_h).astype(float) - (np.abs(locs) <= triplet.h).astype(float)
    shift = float(np.sum(rates * locs * delta))
    return LevyTriplet1D(beta=triplet.beta + shift, alpha=triplet.alpha, jumps=triplet.jumps, h=new_h)


@dataclass
class LevyConditionReport:
    """Value and verdict for the small-jump square-integrability condition."""

    value: float
    passed: bool


def validate_levy_condition(triplet: LevyTriplet1D | LevyTriplet2D) -> LevyConditionReport:
    """Evaluate ``integral of (|y|^2 inside h) + (1 outside h)`` against the measure.

    Finite atomic measures always pass (finite sum, reported exactly).
    """
    two_d = isinstance(triplet, LevyTriplet2D)
    locs, rates = triplet.jumps.atom_arrays(triplet.dim)
    norms = np.hypot(locs[:, 0], locs[:, 1]) if two_d else np.abs(locs)
    value = float(np.sum(rates * np.where(norms <= triplet.h, norms**2, 1.0)))
    return LevyConditionReport(value=value, passed=True)


def empirical_char_function(samples: np.ndarray, arg) -> tuple[complex, float]:
    """Sample mean of ``exp(i <arg, sample>)`` with its standard error."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("empty sample list")
    if samples.ndim == 2:
        theta = samples @ np.asarray(arg, dtype=float)
    else:
        theta = samples * float(arg)
    return mc_stats(np.exp(1j * theta))


# --------------------------------------------------------------------------
# Random-shift semigroup: classical oracle, covariance and the two-stage law
# --------------------------------------------------------------------------

#: ``|psi|^2`` mass the classical oracle may leave out of its weighted sum.
ORACLE_TOL = 2e-30


def _blocked_values(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, xi: np.ndarray):
    """Yield ``(start, f(x[None, :] + xi[start:stop, None]))`` in row blocks of about 2**21 values."""
    step = max(1, (1 << 21) // max(1, x.size))
    for start in range(0, xi.shape[0], step):
        yield start, np.asarray(f(x[None, :] + xi[start:start + step, None]), dtype=float)


def classical_fixed_point_oracle(
    f: Callable[[np.ndarray], np.ndarray],
    triplet: LevyTriplet1D,
    t: float,
    psi: WaveFunction,
    mc: MCConfig,
) -> MCResult:
    """Classical estimate of the evolved expectation, weighted by ``|psi|^2``.

    Samples the increment law directly (no quantum machinery), aggregating
    ``integral |psi(x)|^2 f(x + xi) dx`` per sample so the stderr is honest
    for the weighted quantity.  The integral runs over the support of
    ``psi`` only: the lattice points left out carry less than
    ``ORACLE_TOL`` of its mass.
    """
    xi = sample_ensemble(triplet, t, mc.n_paths, mc.seed, threads=mc.threads)
    weights = np.abs(psi.amplitudes) ** 2 * psi.grid.dx
    lo, hi = _support_bounds(weights, ORACLE_TOL)
    weights = weights[lo:hi + 1]
    vals = np.empty(mc.n_paths)
    for start, block in _blocked_values(f, psi.grid.x[lo:hi + 1], xi):
        vals[start:start + block.shape[0]] = block @ weights
    est, se = mc_stats(vals.astype(complex))
    return MCResult(est, se, mc.n_paths, mc.seed)


def _shifted_batches(psi: WaveFunction, xi: np.ndarray, kick: float | None = None):
    """Yield (slice, shifted amplitude block) for exact spectral shifts by xi.

    With ``kick`` every shifted state also gets the momentum kick
    ``exp(i kick Q)`` (and the Weyl central phase, a per-path constant).
    Runs :func:`_check_overflow` first.
    """
    grid = psi.grid
    _check_overflow(psi, xi)
    hat = np.fft.fft(psi.amplitudes, norm="ortho")[None, :]
    eta = None if kick is None else [kick]
    for start in range(0, xi.size, STATE_BATCH):
        block_xi = xi[start:start + STATE_BATCH]
        yield slice(start, start + block_xi.size), displace(hat, grid, block_xi, eta)


def momentum_covariance_check(
    triplet: LevyTriplet1D,
    psi: WaveFunction,
    observable: Observable,
    y: float,
    t: float,
    mc: MCConfig,
) -> float:
    """Shared-seed defect of covariance under momentum translations.

    Compares evolving ``exp(-iyQ) X exp(iyQ)``-conjugated observables
    against boosting the state before evolving, with identical increments
    on both sides; the defect is pure round-off because the phase picked up
    by commuting the boost through each shift cancels in the sandwich.
    """
    xi = sample_ensemble(triplet, t, mc.n_paths, mc.seed, threads=mc.threads)
    boosted = apply_position_phase(psi, y)
    vals_a = np.empty(mc.n_paths, dtype=complex)
    vals_b = np.empty(mc.n_paths, dtype=complex)
    for sl, states in _shifted_batches(psi, xi, kick=y):
        vals_a[sl] = expectations(states, psi.grid, observable)
    for sl, states in _shifted_batches(boosted, xi):
        vals_b[sl] = expectations(states, psi.grid, observable)
    return float(np.abs(np.mean(vals_a) - np.mean(vals_b)))


def all_lag_values(psi: WaveFunction, observable: Observable, xi: np.ndarray) -> np.ndarray:
    """The shift estimator's path values summed over all ``N`` lags, the ones the degree cut leaves out included.

    The lags :func:`levylab.semigroup._lag_degree` keeps are evaluated as the
    estimator evaluates them, and the rest as a second polynomial on all
    ``N`` lags (zero below the cut), added to the first.  The difference from
    the estimator is then the left-out lags alone: two groupings of the whole
    sum into phase tables differ by a few ``eps sum |C_d|`` of round-off.
    """
    coef = _lag_coefficients(psi, observable)
    kept, weyl = _lag_degree(coef), isinstance(observable, WeylLabel)
    rest = coef.copy()
    rest[:kept] = 0.0
    return _lag_values(coef[:kept], weyl, psi.grid.dp, xi) + _lag_values(rest, weyl, psi.grid.dp, xi)


def semigroup_two_stage(
    triplet: LevyTriplet1D,
    psi: WaveFunction,
    observable: Observable,
    t: float,
    s: float,
    mc: MCConfig,
) -> tuple[MCResult, MCResult]:
    """One-shot estimate at ``t+s`` versus composition of independent stages.

    Composition is realized through the additivity of shifts: independent
    increments for the two stages are summed before the single shift.
    """
    one = mc_heisenberg_expectation(triplet, psi, observable, t + s, mc)
    xi1 = sample_ensemble(triplet, t, mc.n_paths, mc.seed, threads=mc.threads, tag="two-stage.first")
    xi2 = sample_ensemble(triplet, s, mc.n_paths, mc.seed, threads=mc.threads, tag="two-stage.second")
    return one, _shift_estimate(psi, observable, xi1 + xi2, mc, antithetic=False)


# --------------------------------------------------------------------------
# Structure theory: the generator's action, trace-picture adjoint, duality
# and covariance defects, and the random battery's reference draw
# --------------------------------------------------------------------------

def unvec(x: np.ndarray) -> np.ndarray:
    d = int(round(np.sqrt(x.size)))
    return np.asarray(x, dtype=complex).reshape((d, d), order="F")


def apply_generator(gen: StandardGenerator, X) -> np.ndarray:
    """``sum_k L_k^dag X L_k - K^dag X - X K``."""
    X = _as_matrix(X, gen.dim)
    out = -(gen.K.conj().T @ X) - X @ gen.K
    for L in gen.jump_ops:
        out += L.conj().T @ X @ L
    return out


def hermitian_basis(d: int) -> list[np.ndarray]:
    """A complete operator basis of Hermitian matrices."""
    out = []
    for i in range(d):
        E = np.zeros((d, d), dtype=complex)
        E[i, i] = 1.0
        out.append(E)
    for i in range(d):
        for j in range(i + 1, d):
            S = np.zeros((d, d), dtype=complex)
            S[i, j] = S[j, i] = 1.0
            out.append(S)
            A = np.zeros((d, d), dtype=complex)
            A[i, j] = -1j
            A[j, i] = 1j
            out.append(A)
    return out


def apply_preadjoint(gen: StandardGenerator, rho) -> np.ndarray:
    """Trace-picture adjoint: ``sum_k L_k rho L_k^dag - K rho - rho K^dag``."""
    rho = _as_matrix(rho, gen.dim)
    out = -(gen.K @ rho) - rho @ gen.K.conj().T
    for L in gen.jump_ops:
        out += L @ rho @ L.conj().T
    return out


def check_duality(gen: StandardGenerator, rho, X, t: float = 0.0) -> float:
    """Defect of ``Tr(gen_*[rho] X_t) = Tr(rho gen[X_t])`` with ``X_t = exp(t gen)[X]``."""
    rho = _as_matrix(rho, gen.dim)
    X = _as_matrix(X, gen.dim)
    if t != 0.0:
        X = unvec(exact_evolve(superop_matrix(gen), t) @ vec(X))
    lhs = np.trace(apply_preadjoint(gen, rho) @ X)
    rhs = np.trace(rho @ apply_generator(gen, X))
    return float(abs(lhs - rhs))


def reference_standard_generator(
    d: int, m: int, seed: int, unital: bool = True, tag: str = "random-generator", index: int = 0
) -> StandardGenerator:
    """``random_standard_generator`` drawn ``(d, d)`` block by block and validated twice.

    ``2 + 2m`` normal draws (``A``'s real and imaginary part, then each ``L_k``'s), then
    ``unital_build``; a non-unital draw goes through ``raw_build`` again with ``K + c I``.
    """
    gen = rng.stream(seed, tag, index)
    A = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    H = 0.5 * (A + A.conj().T)
    ops = [(gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))) / np.sqrt(2.0 * d) for _ in range(m)]
    base = StandardGenerator.unital_build(H, ops)
    if unital:
        return base
    return StandardGenerator.raw_build(base.K + (0.1 + 0.4 * gen.random()) * np.eye(d), ops)


def covariance_defect(map_fn: Callable, V, sample_xs: Sequence) -> float:
    """``max over X`` of ``|| M[V^dag X V] - V^dag M[X] V ||`` (spectral norm)."""
    V = _as_matrix(V)
    worst = 0.0
    for X in sample_xs:
        X = _as_matrix(X, V.shape[0])
        lhs = np.asarray(map_fn(V.conj().T @ X @ V))
        rhs = V.conj().T @ np.asarray(map_fn(X)) @ V
        worst = max(worst, float(np.linalg.norm(lhs - rhs, 2)))
    return worst


# --------------------------------------------------------------------------
# Structure theory: the black-box Choi route, for maps known only as functions
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _linear_probe(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The fixed random pair of :func:`_check_linear`, drawn once per ``d``, read-only."""
    gen = rng.stream(0, "linearity-probe")
    pair = tuple(gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d)) for _ in range(2))
    for M in pair:
        M.setflags(write=False)
    return pair


def _check_linear(map_fn: Callable[[np.ndarray], np.ndarray], d: int) -> None:
    """Spot-check linearity on a random pair; raises on violation."""
    A, B = _linear_probe(d)
    lhs = np.asarray(map_fn(1.5 * A + 2j * B))
    rhs = 1.5 * np.asarray(map_fn(A)) + 2j * np.asarray(map_fn(B))
    if np.abs(lhs - rhs).max() > 1e-9 * max(1.0, np.abs(lhs).max()):
        raise ValueError("map is not linear (spot check failed)")


def choi_of_map(map_fn: Callable[[np.ndarray], np.ndarray], d: int) -> np.ndarray:
    """Choi matrix ``C = sum_ij E_ij kron M[E_ij]`` of a black-box map, block by block.

    Spot-checks linearity on a random pair and raises on violation.  A map
    known by its superoperator matrix goes through ``generators.choi_matrix``.
    """
    _check_linear(map_fn, d)
    C = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            E = np.zeros((d, d), dtype=complex)
            E[i, j] = 1.0
            C[i * d:(i + 1) * d, j * d:(j + 1) * d] = _as_matrix(map_fn(E), d)
    return C


def map_is_completely_positive(map_fn: Callable, d: int) -> tuple[bool, float]:
    """CP test via the Choi matrix; returns the verdict and the smallest eigenvalue of its Hermitian part.

    Its own ``eigvalsh``, judged by the package's rule ``witness >= -CP_TOL * max(1, max|C|)``.
    """
    C = choi_of_map(map_fn, d)
    m = float(np.linalg.eigvalsh(0.5 * (C + C.conj().T)).min())
    return m >= -CP_TOL * max(1.0, float(np.abs(C).max())), m


# --------------------------------------------------------------------------
# Galilean generators: the 1-D reduction
# --------------------------------------------------------------------------

def one_dimensional_reduction(gen: GalileanGenerator) -> LevyTriplet1D | None:
    """The 1-D increment law this generator reduces to, when it does.

    Requires no free term, no second-component drift/diffusion and jumps on
    the first axis only; returns None otherwise.
    """
    t = gen.triplet2
    a = t.alpha_matrix
    if gen.include_free_hamiltonian or t.beta_q != 0.0 or a[0, 1] != 0.0 or a[1, 1] != 0.0:
        return None
    atoms = []
    for (xa, va), r in t.jumps.atoms:
        if va != 0.0:
            return None
        atoms.append((xa, r))
    return LevyTriplet1D(beta=t.beta_p, alpha=a[0, 0], jumps=JumpMeasure(atoms=tuple(atoms)), h=t.h)


# --------------------------------------------------------------------------
# Galilean generators: the closed form's rate integral by quadrature
# --------------------------------------------------------------------------

_SIMPSON_TOL = 1e-10


def _adaptive_simpson(fn, a: float, b: float) -> complex:
    """Adaptive Simpson quadrature for a smooth complex integrand, at most 24 levels deep."""
    fa, fm, fb = fn(a), fn(0.5 * (a + b)), fn(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = fn(lm), fn(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth <= 0:
            raise NumericalFailure(f"adaptive Simpson recursion exhausted on [{a!r}, {b!r}]")
        if not np.isfinite(left + right):  # abs() of a complex NaN may raise OverflowError (a stale errno)
            raise NumericalFailure(f"adaptive Simpson integrand not finite on [{a!r}, {b!r}]")
        if abs(left + right - whole) <= 15.0 * _SIMPSON_TOL * max(1.0, abs(whole)):
            return left + right + (left + right - whole) / 15.0
        return (
            recurse(a, m, fa, flm, fm, left, depth - 1)
            + recurse(m, b, fm, frm, fb, right, depth - 1)
        )

    if a == b:
        return 0.0 + 0.0j
    return recurse(a, b, fa, fm, fb, whole, 24)


def quadrature_rate_integral(gen: GalileanGenerator, x0: float, v0: float, t: float) -> complex:
    """The dissipative rate integrated along the transported label over ``[0, t]`` by adaptive Simpson.

    The independent check of the exact integral behind
    ``galilean.evolve_weyl_closed_form`` (``levy.char_exponent_2d_integral``).
    """
    return _adaptive_simpson(lambda s: weyl_symbol_rate(gen, *transported(gen, x0, v0, s)), 0.0, t)


# --------------------------------------------------------------------------
# Feller's test by shell quadrature, for any drift callable
# --------------------------------------------------------------------------

#: Dyadic shells used on each side of the reference point.
N_SHELLS = 12
#: Nodes per shell for the log-space quadrature.
SHELL_NODES = 161
#: Dyadic points entering the log-log fit (the asymptotic tail).
FIT_POINTS = 7
#: Right end of the range on which drifts are evaluated (no extrapolation).
X_MAX = 1e6

DIVERGENT_SLOPE = 0.2
CONVERGENT_SLOPE = 0.05
FIT_R2 = 0.99
#: Log growth over the last four shells that counts as runaway divergence
#: (super-polynomial blow-up curves in log-log and defeats the linear fit).
RUNAWAY_LOG_GROWTH = float(np.log(10.0))


def _log_abs_scale(drift: Callable[[np.ndarray], np.ndarray], nodes: np.ndarray) -> np.ndarray:
    """``log |F|`` on a node ladder ordered from ``x0`` outward.

    The cumulative drift integral ``B(y) = integral_{x0}^{y} 2 b`` comes from
    the trapezoid rule on the ladder (the sign of the steps encodes the
    direction), and ``log |F(x)| = -B(x) + log integral_{x0}^{x} exp(B(y)) dy``
    from log-sum-exp accumulation.  Each step's integral of ``exp(B)`` is
    exact for ``B`` linear on the step, ``|h| e^{max B} (1 - e^{-|dB|}) / |dB|``:
    the trapezoid rule on ``exp(B)`` reads ``|F| ~ |h| / 2`` once ``B``
    changes by more than about 1 per node, which hides explosion at infinity.
    """
    b_vals = 2.0 * np.asarray(drift(nodes), dtype=float)
    if not np.all(np.isfinite(b_vals)):
        raise NumericalFailure("drift not finite on the node ladder")
    steps = np.diff(nodes)
    B = np.concatenate([[0.0], np.cumsum(0.5 * (b_vals[1:] + b_vals[:-1]) * steps)])
    dB = np.abs(np.diff(B))
    with np.errstate(divide="ignore", invalid="ignore"):  # dB = 0 takes the limit 1 of the mean factor
        log_mean = np.where(dB > 0, np.log(-np.expm1(-dB) / dB), 0.0)
    seg = np.maximum(B[1:], B[:-1]) + np.log(np.abs(steps)) + log_mean
    return -B + np.concatenate([[-np.inf], np.logaddexp.accumulate(seg)])


def _shell_ladder(d0: float, d1: float) -> tuple[np.ndarray, np.ndarray]:
    """``N_SHELLS`` dyadic shell edges from distance ``d0`` to ``d1`` with dense geometric nodes.

    Edge ``k`` sits at node index ``k * (SHELL_NODES - 1)``.
    """
    edges = np.geomspace(d0, d1, N_SHELLS + 1)
    nodes = [np.array([edges[0]])]
    for lo, hi in zip(edges[:-1], edges[1:]):
        nodes.append(np.geomspace(lo, hi, SHELL_NODES)[1:])
    return edges, np.concatenate(nodes)


def _log_shell_integrals(log_f: np.ndarray, nodes_x: np.ndarray) -> np.ndarray:
    """Log of cumulative integrals of |F| from the reference point out to each edge."""
    seg = np.logaddexp(log_f[1:], log_f[:-1]) + np.log(np.abs(np.diff(nodes_x)) / 2.0)
    cum = np.logaddexp.accumulate(seg)
    stride = SHELL_NODES - 1
    return np.array([cum[k * stride - 1] for k in range(1, N_SHELLS + 1)])


def _fit_loglog(log_scale: np.ndarray, log_integral: np.ndarray) -> tuple[float, float]:
    finite = np.isfinite(log_integral)
    xs, ys = log_scale[finite][-FIT_POINTS:], log_integral[finite][-FIT_POINTS:]
    if xs.size < 4:
        return float("nan"), 0.0
    A = np.vstack([xs, np.ones_like(xs)]).T
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    fit = A @ coef
    with np.errstate(over="ignore"):  # log-integrals near the float range square to inf, and r2 to NaN
        ss_res = float(np.sum((ys - fit) ** 2))
        ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), r2


def _classify(slope: float, r2: float, log_j: np.ndarray) -> str:
    finite = log_j[np.isfinite(log_j)]
    if finite.size >= 5 and finite[-1] - finite[-4] > RUNAWAY_LOG_GROWTH:
        return "non-absorbing"  # super-polynomial growth; a line cannot fit it
    if not np.isfinite(slope):
        return "inconclusive"
    if abs(slope) > DIVERGENT_SLOPE and r2 > FIT_R2:
        return "non-absorbing"
    if abs(slope) < CONVERGENT_SLOPE:
        return "absorbing"
    return "inconclusive"


def _endpoint_scan(drift: Callable[[np.ndarray], np.ndarray], l: float, x0: float, left: bool) -> dict:
    span = x0 - l
    if left:
        edges, dist = _shell_ladder(span, span * 0.5**N_SHELLS)
    else:
        d_hi = min(X_MAX - l, span * 2.0**N_SHELLS)
        edges, dist = _shell_ladder(span, d_hi)
    nodes_x = l + dist
    log_j = _log_shell_integrals(_log_abs_scale(drift, nodes_x), nodes_x)
    slope, r2 = _fit_loglog(np.log(edges[1:]), log_j)
    verdict = _classify(slope, r2, log_j)
    return {
        "scale": edges[1:].tolist(),
        "log_integral": log_j.tolist(),
        "slope": slope,
        "r2": r2,
        "verdict": verdict,
    }


def shell_feller_test(drift: Callable[[np.ndarray], np.ndarray], l: float, x0: float) -> BoundaryReport:
    """Classify both endpoints of ``(l, infinity)`` for ``dX = drift(X) dt + dW`` by shell quadrature.

    The independent check of ``feller.feller_test``'s closed forms, and the
    only test for a drift no family of ``feller.DRIFTS`` names.  The
    integrals of ``|F|`` over ``N_SHELLS`` dyadically shrinking (growing)
    neighbourhoods of each endpoint are fitted on a log-log scale: |slope| >
    0.2 with R^2 > 0.99, or runaway growth, reads non-absorbing, |slope| <
    0.05 absorbing, anything else inconclusive.  ``drift`` must be defined
    on ``(l, X_MAX)``; it is never evaluated outside it.

    The fit fails on steep but finite growth: for a constant drift ``c >=
    10`` the left endpoint, which absorbs at every ``c``, reads inconclusive
    (``c`` = 10 to 100) or non-absorbing (``c = 1000``).
    """
    if not x0 > l:
        raise ValueError(f"x0 = {x0} must lie strictly right of l = {l}")
    if not X_MAX > x0:
        raise ValueError(f"x0 must be below X_MAX = {X_MAX:g}")
    left = _endpoint_scan(drift, l, x0, left=True)
    right = _endpoint_scan(drift, l, x0, left=False)
    return BoundaryReport(left=left["verdict"], right=right["verdict"], diagnostics={"left": left, "right": right})


# --------------------------------------------------------------------------
# Killed diffusions: the trace-decay (non-uniqueness) witness
# --------------------------------------------------------------------------

@dataclass
class TraceDecayReport:
    """The minimal (absorbing) survival curve against the conservative trace 1, and the witness verdict.

    The minimal evolution loses normalization exactly as fast as paths are
    absorbed, so its survival curve ``S(t)`` is the trace curve of the
    evolved state concentrated at ``x_start``.  A conservative extension
    keeps trace exactly 1, so the separation is ``1 - S(t)`` and its stderr
    is that of ``S``.  ``witness=True`` when the separation exceeds
    ``max(5 stderr, 0.02)`` somewhere; the floor keeps discretization bias
    near a non-absorbing boundary from faking a witness.
    """

    minimal: np.ndarray
    minimal_stderr: np.ndarray
    max_separation: float
    max_separation_sigmas: float
    witness: bool


def trace_decay_link(
    spec: DriftSpec,
    x_start: float,
    t_grid: np.ndarray,
    mc: MCConfig,
    dt: float = 1e-3,
) -> TraceDecayReport:
    t_grid = np.asarray(t_grid, dtype=float)
    t_max = float(t_grid.max())
    minimal = simulate_killed_diffusion(spec, x_start, t_max, dt, mc)
    # the rows of the curve's own time grid at the steps of t_grid
    steps, wanted = np.round(minimal.times / dt).astype(int), np.unique(np.round(t_grid / dt).astype(int))
    rows = np.minimum(np.searchsorted(steps, wanted), steps.size - 1)
    if not np.array_equal(steps[rows], wanted):
        raise ValueError(f"t_grid has times off the survival curve's grid at dt = {dt}")
    sep = 1.0 - minimal.survival[rows]
    se = minimal.stderr[rows]
    with np.errstate(divide="ignore", invalid="ignore"):
        sigmas = np.where(se > 0, sep / se, np.inf * np.sign(sep))
    floor = 0.02
    k = int(np.argmax(sep))
    witness = bool(sep[k] > max(5.0 * se[k], floor))
    return TraceDecayReport(
        minimal=minimal.survival[rows],
        minimal_stderr=minimal.stderr[rows],
        max_separation=float(sep[k]),
        max_separation_sigmas=float(sigmas[k]) if np.isfinite(sigmas[k]) else float("inf"),
        witness=witness,
    )
