"""Processes with stationary independent increments.

Laws are parametrized by a drift rate, a diffusion rate (matrix in 2-D), a
jump measure and a truncation radius ``h``: jumps inside the closed ball
``|y| <= h`` enter the characteristic exponent compensated by their mean,
larger jumps enter uncompensated.  ``h`` is arbitrary but fixed; changing it
must be accompanied by the drift adjustment that leaves the exponent
invariant (the tests' ``oracles.with_truncation`` performs it).

Jump measures are finite lists of atoms, the only laws the config grammar
can express.

Increment sampling is exact per time step (no Euler sub-stepping): Gaussian
part from the normal law, each atom from its Poisson count.

Conventions:
  * 1-D exponent: ``E exp(i lam xi_t) = exp(t * char_exponent_1d(lam))``.
  * 2-D exponent over increments ``(xi, eta)``:
    ``E exp(i (mu xi - lam eta)) = exp(t * char_exponent_2d(mu, lam))``;
    the minus sign on the second slot is part of the convention, so the
    plain dot-product argument of ``exp(i <arg, (xi, eta)>)`` is
    ``(mu, -lam)``.

This module holds laws, exponents and the sampler and estimates nothing: a
mean of samples and its standard error is :func:`levylab.montecarlo.mc_stats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import rng
from .errors import NumericalFailure
from .montecarlo import run_chunks

_PSD_TOL = 1e-12


@dataclass(frozen=True)
class JumpMeasure:
    """Finite atomic jump measure.

    Atoms are ``(location, rate)`` pairs; locations are nonzero floats in
    1-D or nonzero ``(x, v)`` pairs in 2-D, rates are per unit time.
    """

    atoms: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple((self._norm_loc(loc), float(r)) for loc, r in self.atoms))

    @staticmethod
    def _norm_loc(loc):
        if isinstance(loc, (tuple, list, np.ndarray)):
            return tuple(float(c) for c in loc)
        return float(loc)

    def validate(self, dim: int) -> list[str]:
        problems = []
        for loc, rate in self.atoms:
            loc_dim = 2 if isinstance(loc, tuple) else 1
            if loc_dim != dim:
                problems.append(f"jump atom {loc!r}: expected dimension {dim}")
                continue
            mag = np.hypot(*loc) if dim == 2 else abs(loc)
            if mag == 0.0:
                problems.append("jump atom at the origin is not allowed")
            if not rate > 0:
                problems.append(f"jump atom {loc!r}: rate must be strictly positive, got {rate}")
        return problems

    def atom_arrays(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """Locations (shape (m,) for ``dim`` 1, (m, 2) for ``dim`` 2) and rates (shape (m,))."""
        locs = np.array([loc for loc, _ in self.atoms], dtype=float).reshape((-1, 2) if dim == 2 else -1)
        rates = np.array([r for _, r in self.atoms], dtype=float)
        return locs, rates


NO_JUMPS = JumpMeasure()


@dataclass(frozen=True)
class LevyTriplet1D:
    """Drift rate, diffusion rate, jump measure and truncation radius for a 1-D law."""

    dim: ClassVar[int] = 1
    beta: float = 0.0
    alpha: float = 0.0
    jumps: JumpMeasure = NO_JUMPS
    h: float = 1.0

    def __post_init__(self):
        problems = []
        if self.alpha < 0:
            problems.append(f"alpha must be nonnegative, got {self.alpha}")
        if not self.h > 0:
            problems.append(f"h must be positive, got {self.h}")
        problems += self.jumps.validate(self.dim)
        if problems:
            raise ValueError("; ".join(problems))

    @property
    def is_symmetric(self) -> bool:
        """True when the law of the increment is symmetric under negation.

        Requires zero drift and an atom list closed under ``y -> -y`` with
        equal rates.
        """
        if self.beta != 0.0:
            return False
        bag = {}
        for y, r in self.jumps.atoms:
            bag[y] = bag.get(y, 0.0) + r
        return all(abs(bag.get(-y, 0.0) - r) <= 1e-15 * max(1.0, r) for y, r in bag.items())


@dataclass(frozen=True)
class LevyTriplet2D:
    """Two-component law for increments ``(xi, eta)``.

    ``beta_p`` is the drift of the first component (the one that shifts
    position in the quantum coupling), ``beta_q`` of the second;
    ``alpha`` is the symmetric 2x2 diffusion matrix as
    ``((a_pp, a_pq), (a_pq, a_qq))``; atom locations are ``(x, v)`` with
    ``x`` feeding the first component and ``v`` the second.
    """

    dim: ClassVar[int] = 2
    beta_p: float = 0.0
    beta_q: float = 0.0
    alpha: tuple = ((0.0, 0.0), (0.0, 0.0))
    jumps: JumpMeasure = NO_JUMPS
    h: float = 1.0

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float)
        problems = []
        if a.shape != (2, 2):
            problems.append(f"alpha must be a 2x2 matrix, got shape {a.shape}")
        else:
            if abs(a[0, 1] - a[1, 0]) > _PSD_TOL * max(1.0, np.abs(a).max()):
                problems.append("alpha must be symmetric")
            eigs = np.linalg.eigvalsh(0.5 * a + 0.5 * a.T)  # halved first: entries near the float range stay finite
            if eigs.min() < -_PSD_TOL * max(1.0, np.abs(a).max()):
                problems.append(f"alpha must be positive semidefinite, min eigenvalue {eigs.min():.3e}")
        if not self.h > 0:
            problems.append(f"h must be positive, got {self.h}")
        problems += self.jumps.validate(self.dim)
        if problems:
            raise ValueError("; ".join(problems))
        object.__setattr__(self, "alpha", tuple(tuple(float(v) for v in row) for row in a))

    @property
    def alpha_matrix(self) -> np.ndarray:
        return np.asarray(self.alpha, dtype=float)


# --------------------------------------------------------------------------
# Characteristic exponents
# --------------------------------------------------------------------------

def char_exponent_1d(triplet: LevyTriplet1D, lam: float) -> complex:
    """Characteristic exponent: ``E exp(i lam xi_t) = exp(t * eta(lam))``."""
    lam = float(lam)
    eta = 1j * triplet.beta * lam - 0.5 * triplet.alpha * lam * lam
    locs, rates = triplet.jumps.atom_arrays(triplet.dim)
    if locs.size:
        comp = (np.abs(locs) <= triplet.h).astype(float)
        eta += complex(np.sum(rates * (np.exp(1j * locs * lam) - 1.0 - 1j * locs * lam * comp)))
    return complex(eta)


def char_exponent_2d(triplet: LevyTriplet2D, mu: float, lam: float) -> complex:
    """Two-component exponent: ``E exp(i (mu xi_t - lam eta_t)) = exp(t * eta2(mu, lam))``."""
    mu, lam = float(mu), float(lam)
    (a_pp, a_pq), (_, a_qq) = triplet.alpha  # Python floats: an overflow is inf without a warning
    eta = 1j * (mu * triplet.beta_p - lam * triplet.beta_q)
    eta -= 0.5 * (a_pp * mu * mu + 2.0 * a_pq * mu * lam + a_qq * lam * lam)
    locs, rates = triplet.jumps.atom_arrays(triplet.dim)
    phase = mu * locs[:, 0] - lam * locs[:, 1]
    comp = (np.hypot(locs[:, 0], locs[:, 1]) <= triplet.h).astype(float)
    eta += complex(np.sum(rates * (np.exp(1j * phase) - 1.0 - 1j * phase * comp)))
    return complex(eta)


def char_exponent_2d_integral(triplet: LevyTriplet2D, mu: float, lam0: float, lam1: float, t: float) -> complex:
    """Exact ``integral_0^t eta2(mu, lam(s)) ds`` along ``lam`` moving linearly from ``lam0`` to ``lam1``.

    ``integral lam = t (lam0 + lam1) / 2``, ``integral lam^2 = t (lam0^2 + lam0 lam1 + lam1^2) / 3``, and an
    atom whose phase runs from ``p0`` to ``p1`` gives ``t exp(i (p0 + p1) / 2) sinc((p1 - p0) / 2)``.
    """
    mu, lam0, lam1, t = float(mu), float(lam0), float(lam1), float(t)
    (a_pp, a_pq), (_, a_qq) = triplet.alpha  # Python floats: an overflow is inf without a warning
    int_lam, int_lam2 = 0.5 * t * (lam0 + lam1), t * (lam0 * lam0 + lam0 * lam1 + lam1 * lam1) / 3.0
    eta = 1j * (t * mu * triplet.beta_p - int_lam * triplet.beta_q)
    eta -= 0.5 * (t * a_pp * mu * mu + 2.0 * int_lam * a_pq * mu + a_qq * int_lam2)
    locs, rates = triplet.jumps.atom_arrays(triplet.dim)
    p0, p1 = mu * locs[:, 0] - lam0 * locs[:, 1], mu * locs[:, 0] - lam1 * locs[:, 1]
    mid = 0.5 * (p0 + p1)
    comp = (np.hypot(locs[:, 0], locs[:, 1]) <= triplet.h).astype(float)
    eta += complex(np.sum(rates * t * (np.exp(1j * mid) * np.sinc((p1 - p0) / (2.0 * np.pi)) - 1.0 - 1j * mid * comp)))
    return complex(eta)


# --------------------------------------------------------------------------
# Sampling
# --------------------------------------------------------------------------

def _sample_increments(triplet: LevyTriplet1D | LevyTriplet2D, dt: np.ndarray, n_paths: int,
                       gen: np.random.Generator) -> np.ndarray:
    """Exact increments of ``n_paths`` paths over steps of lengths ``dt``.

    Returns the increments, shape ``(n_paths, n_steps)`` in 1-D or
    ``(n_paths, n_steps, 2)`` in 2-D.  The whole block is drawn in a fixed
    order: the Gaussian part, then each atom's Poisson counts.
    """
    shape = (n_paths, dt.size)
    two_d = isinstance(triplet, LevyTriplet2D)
    locs, rates = triplet.jumps.atom_arrays(triplet.dim)
    if two_d:
        out = np.full(shape + (2,), np.array([triplet.beta_p, triplet.beta_q]) * dt[:, None])
        chol = _chol_psd(noise_covariance_2d(triplet))
        out += (gen.standard_normal((n_paths * dt.size, 2)) @ chol.T).reshape(out.shape) * np.sqrt(dt)[:, None]
        small = np.hypot(*locs.T) <= triplet.h
    else:
        out = np.full(shape, triplet.beta * dt)
        if triplet.alpha > 0:
            out += np.sqrt(triplet.alpha * dt) * gen.standard_normal(shape)
        small = np.abs(locs) <= triplet.h
    for j in range(len(rates)):
        counts = gen.poisson(rates[j] * dt, size=shape)
        out += (counts[..., None] if two_d else counts) * locs[j]
        if small[j]:
            out -= rates[j] * locs[j] * (dt[:, None] if two_d else dt)
    return out


def _chol_psd(a: np.ndarray) -> np.ndarray:
    """Factor a PSD matrix, tolerating tiny negative eigenvalues."""
    w, v = np.linalg.eigh(0.5 * a + 0.5 * a.T)  # halved first: entries near the float range stay finite
    factor = v * np.sqrt(np.clip(w, 0.0, None))
    if not np.all(np.isfinite(factor)):
        raise NumericalFailure("noise covariance factor not finite")
    return factor


def noise_covariance_2d(triplet: LevyTriplet2D) -> np.ndarray:
    """Covariance matrix of the Gaussian part of ``(xi, eta)``.

    The exponent's quadratic form ``-(1/2)(a_pp mu^2 + 2 a_pq mu lam
    + a_qq lam^2)`` pairs ``mu`` with ``xi`` and ``lam`` with ``-eta``, so
    the plain covariance of ``(xi, eta)`` carries the off-diagonal entry
    with a flipped sign.
    """
    a = triplet.alpha_matrix
    return np.array([[a[0, 0], -a[0, 1]], [-a[0, 1], a[1, 1]]])


def sample_ensemble(
    triplet: LevyTriplet1D | LevyTriplet2D,
    t: float,
    n_paths: int,
    seed: int,
    antithetic: bool = False,
    threads: int = 1,
    tag: str = "increments",
    first_index: int = 0,
) -> np.ndarray:
    """One-shot increments at time ``t`` for ``n_paths`` paths.

    Chunked over derived streams so the result is independent of execution
    order; each chunk is one step of :func:`_sample_increments`, drawn from
    stream ``first_index + chunk`` of ``tag``.  With ``antithetic`` the
    second half mirrors the first (``n_paths`` must be even and the law
    symmetric, which the caller asserts via ``MCConfig``).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    two_d = isinstance(triplet, LevyTriplet2D)
    n_draw = n_paths // 2 if antithetic else n_paths
    shape = (n_paths, 2) if two_d else (n_paths,)
    if t == 0.0 or n_draw == 0:
        return np.zeros(shape)
    out = np.empty((n_draw, 2) if two_d else n_draw)
    dt = np.array([t], dtype=float)

    def worker(idx, start, stop):
        inc = _sample_increments(triplet, dt, stop - start, rng.stream(seed, tag, first_index + idx))
        return start, stop, inc[:, 0]

    for start, stop, vals in run_chunks(worker, n_draw, threads=threads):
        out[start:stop] = vals
    if antithetic:
        out = np.concatenate([out, -out])
    return out
