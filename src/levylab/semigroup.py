"""Monte Carlo realization of the noise-averaged dynamical semigroup.

The dynamics conjugates observables by the random shift ``exp(-i xi_t P)``
and averages over the increment law: the Heisenberg expectation at time
``t`` needs only the law of ``xi_t``, so every path is a single exact
increment draw followed by one exact spectral shift -- no time stepping,
hence no discretization error in this module.

One path's value ``<S_xi psi, X S_xi psi>`` is a trigonometric polynomial
in ``xi`` whose coefficients depend only on the state and the observable.
The expectation estimators build those coefficients once (one correlation
FFT), cut the polynomial to the degree its coefficients carry
(:data:`LAG_TAIL`), and evaluate every path from the factorized phase
tables of :func:`levylab.grid.phase_tables`; no shifted state is ever
formed.

On observables ``f(Q)`` the evolution reduces to classical smoothing of
``f`` by the increment law, which is the oracle all quantum estimates here
are checked against.  Observables ``g(P)`` commute with the coupling and
are returned exactly, with no Monte Carlo error attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import (
    BOUNDARY_WINDOW,
    OVERFLOW_TOL,
    STATE_BATCH,
    GridSpec,
    Observable,
    PTable,
    QTable,
    WaveFunction,
    WeylLabel,
    expectation,
    overflow_fraction,
    phase_buffers,
    phase_tables,
)
from .levy import LevyTriplet1D, sample_ensemble
from .montecarlo import Gate, MCConfig, MCResult, gate, mc_stats

#: Step of the central differences in :func:`classical_generator_apply`.
FD_STEP = 1e-3

#: The shift estimator sums the lags below ``n'``, the smallest power of two
#: (at least 2) that covers every lag ``d`` whose tail mass ``sum_{d' >= d}
#: (|P_d'| + |R_d'|)`` exceeds ``LAG_TAIL`` of the total.  Since ``|z| = 1``
#: the lags left out move a path's value by at most ``2**-53 sum |dx C_d|``;
#: the all-lag sum carries at least that much round-off, from the correlation
#: FFT that makes the coefficients and from the doubled phase tables.  It
#: picks which lags are summed, so it sets result bits.
LAG_TAIL = 2**-53


def _support_bounds(dens: np.ndarray, tol: float) -> tuple[int, int]:
    """First and last index of the smallest range with less than ``tol / 2`` of ``dens`` on either side.

    Each tail is summed from its own end, so a ``tol`` far below the
    round-off of the total mass is still honoured.
    """
    lo = int(np.searchsorted(np.cumsum(dens), tol / 2))
    hi = dens.size - 1 - int(np.searchsorted(np.cumsum(dens[::-1]), tol / 2))
    return min(lo, dens.size - 1), max(hi, 0)


def _check_overflow(psi: WaveFunction, xi: np.ndarray) -> float:
    """Fraction of the shifts ``xi`` that push the support of ``psi`` into the boundary window.

    Interval arithmetic on the support, so full wrap-arounds are caught,
    not just mass straddling the edge.  Aborts through
    :func:`levylab.grid.overflow_fraction` when the fraction exceeds
    ``OVERFLOW_FRACTION``.
    """
    dx, x = psi.grid.dx, psi.grid.x
    lo, hi = _support_bounds(np.abs(psi.amplitudes) ** 2 * dx, OVERFLOW_TOL)
    margin = BOUNDARY_WINDOW * dx
    allowed_lo = (x[0] + margin) - x[lo]
    allowed_hi = (x[-1] - margin) - x[hi]
    overflowed = int(np.count_nonzero((xi < allowed_lo) | (xi > allowed_hi)))
    return overflow_fraction(overflowed, xi.size, "shifts would push support into the boundary window")


def _circulant_diagonal(observable: Observable, grid: GridSpec) -> tuple[np.ndarray, np.ndarray | None]:
    """``(c, w)`` with ``X = Circ(c) diag(w)`` in the orthonormal momentum basis.

    ``Circ(c)[k, k'] = c[(k' - k) mod N]`` and ``w`` is in FFT order;
    ``None`` stands for ``w = 1``.  A ``g(P)`` observable has no case: its
    expectation is exact (:func:`mc_heisenberg_expectation`).
    """
    if isinstance(observable, QTable):
        return np.fft.ifft(observable.array), None
    if isinstance(observable, WeylLabel):
        central = np.exp(-0.5j * observable.x * observable.v)
        c = np.fft.ifft(np.exp(1j * observable.v * grid.x))
        return c, central * np.exp(-1j * observable.x * grid.p)
    raise TypeError(f"unsupported observable {type(observable)!r}")


def _lag_coefficients(psi: WaveFunction, observable: Observable) -> np.ndarray:
    """Coefficients of the path value as a polynomial in ``z = exp(-i xi dp)``.

    One path's value is ``sum_{|d| < N} dx C_d z^d`` with
    ``C_d = c[d mod N] sum_m conj(a_{m-d}) (w a)_m`` over centred momentum
    indices (``a`` is ``psi`` in the momentum basis, ``(c, w)`` from
    :func:`_circulant_diagonal`).  The sum over ``m`` is one zero-padded
    correlation FFT on ``2N`` points.  Since ``conj(z^d) = z^-d``, the value
    is ``P(z) + conj(R(z))`` with two polynomials of degree below ``N``:
    row ``d`` holds ``dx C_d`` in column 0 (``P``) and ``conj(dx C_-d)`` in
    column 1 (``R``, zero at ``d = 0``).
    """
    grid = psi.grid
    n = grid.n_points
    hat = np.fft.fft(psi.amplitudes, norm="ortho")
    pad = np.zeros(2 * n, dtype=complex)
    pad[:n] = np.fft.fftshift(hat)
    spec_a = np.fft.fft(pad)
    coef = np.zeros((n, 2), dtype=complex)
    c, w = _circulant_diagonal(observable, grid)
    if w is None:
        cross = spec_a * spec_a.conj()
    else:
        pad[:n] = np.fft.fftshift(w * hat)
        cross = np.fft.fft(pad) * spec_a.conj()
    corr = grid.dx * np.fft.ifft(cross)  # lag d at index d mod 2N
    coef[:, 0] = c * corr[:n]
    coef[1:, 1] = np.conj(c[:0:-1] * corr[:n:-1])
    return coef


def _lag_degree(coef: np.ndarray) -> int:
    """Number of leading rows of ``coef`` (from :func:`_lag_coefficients`) the shift estimator sums.

    The smallest power of two, at least 2, that covers every lag whose tail
    mass exceeds :data:`LAG_TAIL` of the total; 2 for a zero ``coef``.
    """
    tail = np.cumsum(np.abs(coef[::-1]).sum(axis=1))[::-1]  # |P| + |R| from lag d up
    keep = int(np.count_nonzero(tail > LAG_TAIL * tail[0]))
    return max(2, 1 << (keep - 1).bit_length())


def _shift_values(psi: WaveFunction, observable: Observable, xi: np.ndarray) -> np.ndarray:
    """Values ``<S_xi psi, X S_xi psi>``, one per path, from the lags :func:`_lag_degree` keeps."""
    coef = _lag_coefficients(psi, observable)
    return _lag_values(coef[:_lag_degree(coef)], isinstance(observable, WeylLabel), psi.grid.dp, xi)


def _lag_values(coef: np.ndarray, weyl: bool, dp: float, xi: np.ndarray) -> np.ndarray:
    """The polynomials of :func:`_lag_coefficients` on their first ``n = len(coef)`` lags, one value per path.

    Evaluates with the phase tables of :func:`levylab.grid.phase_tables` on
    ``n`` lags: per block of paths one matrix product ``T2 @ C`` followed by
    a row-wise contraction with ``T1``.  The tables, their exponent scratch
    and the product live in one workspace per call, sized for a full block
    and reused by every block.  A Hermitian observable has ``C_-d =
    conj(C_d)``, so ``R = P`` above lag 0 and its real value is ``2 Re P(z)
    - P_0``: only a Weyl label (``weyl``) needs the column of ``R``.
    """
    n = coef.shape[0]
    if not weyl:
        coef = coef[:, :1]
    values = np.empty(xi.size, dtype=complex if weyl else float)
    rows = min(xi.size, STATE_BATCH)
    bufs = phase_buffers(n, rows)
    b = bufs[3].shape[0]
    cmat = coef.reshape(n // b, b, -1).transpose(1, 0, 2).reshape(b, -1)  # coef[B j + r, col] -> cmat[r, (j, col)]
    prod = np.empty((rows, cmat.shape[1]), dtype=complex)
    for start in range(0, xi.size, STATE_BATCH):
        block = xi[start:start + STATE_BATCH]
        t1, t2 = phase_tables(-block, n, dp, out=bufs)
        part = np.matmul(t2, cmat, out=prod[:block.size]).reshape(block.size, n // b, -1)
        both = np.einsum("mjc,mj->mc", part, t1)
        if weyl:
            values[start:start + block.size] = both[:, 0] + both[:, 1].conj()
        else:
            values[start:start + block.size] = 2.0 * both[:, 0].real - coef[0, 0].real
    return values


def _shift_estimate(psi: WaveFunction, observable: Observable, xi: np.ndarray, mc: MCConfig,
                    antithetic: bool) -> MCResult:
    """The estimate from the paths shifted by ``xi``, after the overflow check."""
    overflow = _check_overflow(psi, xi)
    return MCResult(*mc_stats(_shift_values(psi, observable, xi), antithetic=antithetic), mc.n_paths, mc.seed,
                    overflow_fraction=overflow)


def mc_heisenberg_expectation(
    triplet: LevyTriplet1D,
    psi: WaveFunction,
    observable: Observable,
    t: float,
    mc: MCConfig,
) -> MCResult:
    """Monte Carlo estimate of the evolved Heisenberg expectation at time ``t``.

    ``g(P)`` observables commute with the coupling and are returned exactly
    (zero stderr, no paths).  Antithetic pairing is applied when the
    increment law is symmetric (or as forced by the config).
    """
    antithetic = mc.resolve_antithetic(triplet.is_symmetric)
    if isinstance(observable, PTable):
        return MCResult(expectation(psi, observable), 0.0, 0, mc.seed)
    xi = sample_ensemble(triplet, t, mc.n_paths, mc.seed, antithetic=antithetic, threads=mc.threads)
    return _shift_estimate(psi, observable, xi, mc, antithetic)


# --------------------------------------------------------------------------
# Classical reduction: generator and its finite-time check
# --------------------------------------------------------------------------

def classical_generator_apply(
    triplet: LevyTriplet1D,
    f: Callable[[np.ndarray], np.ndarray],
    x: float,
) -> float:
    """Generator of the increment process applied to ``f`` at ``x``:

    ``beta f'(x) + (alpha/2) f''(x)
      + sum_atoms rate [f(x+y) - f(x) - y f'(x) (|y| <= h)]``

    Derivatives use central finite differences with step ``FD_STEP``
    (second order; exact on quadratics).
    """
    x = float(x)
    fp = (float(f(x + FD_STEP)) - float(f(x - FD_STEP))) / (2.0 * FD_STEP)
    fpp = (float(f(x + FD_STEP)) - 2.0 * float(f(x)) + float(f(x - FD_STEP))) / FD_STEP**2
    out = triplet.beta * fp + 0.5 * triplet.alpha * fpp
    locs, rates = triplet.jumps.atom_arrays(triplet.dim)
    fx = float(f(x))
    for y, r in zip(locs, rates):
        comp = fp * y if abs(y) <= triplet.h else 0.0
        out += r * (float(f(x + y)) - fx - comp)
    return float(out)


def classical_smoothing(f: Callable[[np.ndarray], np.ndarray], triplet: LevyTriplet1D, t: float, mc: MCConfig,
                        x: np.ndarray, tag: str) -> tuple[np.ndarray, np.ndarray]:
    """``E f(x_k + xi_t)`` at each point ``x_k``, with its standard error.

    One draw of ``xi_t`` from the streams of ``tag`` serves every point;
    each point's mean and stderr are :func:`mc_stats` of its ``n_paths``
    values.  ``t = 0`` returns ``f(x)`` exactly with zero error bars.
    """
    x = np.asarray(x, dtype=float)
    if t == 0.0:
        vals = np.asarray(f(x), dtype=float)
        return vals, np.zeros_like(vals)
    xi = sample_ensemble(triplet, t, mc.n_paths, mc.seed, threads=mc.threads, tag=tag)
    stats = [mc_stats(np.asarray(f(xk + xi), dtype=float)) for xk in x]
    return np.array([mean.real for mean, _ in stats]), np.array([se for _, se in stats])


@dataclass
class GeneratorCheckReport:
    """Finite-time quotient of the semigroup against the generator, gated per point.

    ``quotient`` is ``(E f(x + xi_t) - f(x)) / t`` at each of the caller's
    points ``x``, estimated by Monte Carlo; ``gate`` judges its deviation
    from the generator against the band ``4 stderr + 1.5 |O(t) coefficient|
    t`` with the linear-in-t coefficient estimated by Richardson comparison
    of the quotients at ``t`` and ``t/2`` (the 1.5 factor absorbs the
    quadratic residue the two-point estimate cannot see).  ``inconclusive``
    is set when the Monte Carlo noise dominates the generator signal; an
    inconclusive run never counts as a pass.
    """

    quotient: np.ndarray
    generator: np.ndarray
    deviation: np.ndarray
    gate: Gate
    inconclusive: bool


def generator_consistency_check(
    triplet: LevyTriplet1D,
    f: Callable[[np.ndarray], np.ndarray],
    t_small: float,
    mc: MCConfig,
    x_points: np.ndarray,
) -> GeneratorCheckReport:
    if t_small <= 0:
        raise ValueError("t_small must be positive")
    x = np.asarray(x_points, dtype=float)
    fx = np.asarray(f(x), dtype=float)
    mean_t, se_t = classical_smoothing(f, triplet, t_small, mc, x, tag="increments")
    mean_h, se_h = classical_smoothing(f, triplet, 0.5 * t_small, mc, x, tag="generator-check.half-step")
    q_t = (mean_t - fx) / t_small
    q_h = (mean_h - fx) / (0.5 * t_small)
    se_t = se_t / t_small
    se_h = se_h / (0.5 * t_small)
    lf = np.array([classical_generator_apply(triplet, f, xi) for xi in x])
    slope = 2.0 * (q_t - q_h) / t_small  # first-order-in-t coefficient estimate
    deviation = np.abs(q_t - lf)
    return GeneratorCheckReport(
        quotient=q_t,
        generator=lf,
        deviation=deviation,
        gate=gate(deviation, se_t + se_h, 4.0, 1.5 * np.abs(slope) * t_small, 1e-12),
        inconclusive=bool(np.median(4.0 * se_t) > 0.5 * max(np.max(np.abs(lf)), 1e-12)),
    )
