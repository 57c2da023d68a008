"""Boundary classification and killed diffusions on a half line.

For the diffusion ``dX = b(X) dt + dW`` on ``(l, infinity)`` the scale-like
function

    F(x) = integral_{x0}^{x} exp( integral_{x}^{y} 2 b(z) dz ) dy

decides whether an endpoint can absorb probability: the endpoint is
non-absorbing exactly when ``|F|`` fails to be integrable in its
neighbourhood (W. Feller, "The parabolic differential equations and the
associated semi-groups of transformations", Ann. Math. 55, 1952).  The
``[feller] drift`` grammar names four drift families, and Feller's test has
a closed form for each: ``DRIFTS`` holds every family's drift and, at each
end, whether ``|F|`` is integrable there and the asymptotic form of ``|F|``
that decides it.  ``feller_test`` reads that table.  The numeric check for
any drift callable, by quadrature on dyadic shells, is a test oracle
(``shell_feller_test`` in ``tests/oracles.py``).

The Monte Carlo side simulates the killed diffusion by Euler-Maruyama with
a Brownian-bridge crossing correction (absorb with probability
``exp(-2 (X_k - l)(X_{k+1} - l) / dt)`` when both endpoints are above
``l``), which removes the O(sqrt(dt)) crossing bias.  Its survival curve
``S(t)`` is the trace of the minimal evolution.  A conservative extension
keeps trace exactly 1 by definition, so nothing needs simulating for it:
``1 - S(t)`` is the witness that distinct extensions exist when the boundary
absorbs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import rng
from .montecarlo import MCConfig, run_chunks

#: The bridge kill test ``U < exp(arg)`` is made, and its uniform drawn, only
#: for live paths whose exponent ``arg = -2 (x_k - l)(x_{k+1} - l) / dt`` is
#: above ``-BRIDGE_CUT``; crossed paths (``x_{k+1} <= l``, ``arg >= 0``) are
#: among them.  Everywhere else the kill probability is below
#: ``exp(-37) < 2**-53``, so a path loses less than ``n_steps * exp(-37)`` of
#: kill probability over a run.  Far from the boundary the exponent is
#: hundreds below zero, where ``exp`` underflows to subnormals or zero at
#: tens to hundreds of times the cost of a normal-range value.
BRIDGE_CUT = 37.0


class End(NamedTuple):
    """Feller's test at one endpoint: is ``|F|`` integrable near it, and the form of ``|F|`` that says so."""

    integrable: bool
    form: str


class Drift(NamedTuple):
    """A named drift family: ``b(x; l, c)``, the closed-form test at each end, and whether an Euler step is exact."""

    b: Callable[[np.ndarray, float, float], np.ndarray]
    left: End
    right: End
    exact_step: bool  # an Euler step with the bridge test is exact in law at any dt (constant drift)


#: Every drift ``[feller] drift`` can name, with ``F`` in closed form (``c`` is
#: the ``coefficient``).  A drift bounded near ``l`` leaves ``|F|`` bounded
#: there, so ``l`` absorbs; at infinity each family's ``|F|`` stays away from 0.
DRIFTS = {
    "zero": Drift(lambda x, l, c: np.zeros_like(x),  # F = x - x0
                  End(True, "|F| -> x0 - l"),
                  End(False, "|F| ~ x"), exact_step=True),
    "bessel3": Drift(lambda x, l, c: 1.0 / (x - l),  # F = ((x - l)^3 - (x0 - l)^3) / (3 (x - l)^2)
                     End(False, "|F| ~ (x0 - l)^3 / (3 (x - l)^2)"),
                     End(False, "|F| ~ (x - l) / 3"), exact_step=False),
    "ou": Drift(lambda x, l, c: -x,  # F = exp(x^2) integral_{x0}^{x} exp(-y^2) dy
                End(True, "|F| -> exp(l^2) |integral_l^x0 exp(-y^2) dy|"),
                End(False, "|F| ~ exp(x^2) integral_x0^inf exp(-y^2) dy"), exact_step=False),
    "linear": Drift(lambda x, l, c: c * np.ones_like(x),  # F = (1 - exp(-2c (x - x0))) / (2c)
                    End(True, "|F| -> |exp(2c (x0 - l)) - 1| / (2|c|), or x0 - l at c = 0"),
                    End(False, "|F| -> 1/(2c) for c > 0, ~ x at c = 0, ~ exp(2|c| (x - x0)) / (2|c|) for c < 0"),
                    exact_step=True),
}


@dataclass(frozen=True)
class DriftSpec:
    """Half-line diffusion: the drift family of ``DRIFTS`` by name, left endpoint, reference point, coefficient."""

    name: str
    l: float
    x0: float
    coefficient: float

    def __post_init__(self):
        if self.name not in DRIFTS:
            raise ValueError(f"unknown drift {self.name!r} ({', '.join(DRIFTS)})")
        if not self.x0 > self.l:
            raise ValueError(f"x0 = {self.x0} must lie strictly right of l = {self.l}")

    def drift(self, x) -> np.ndarray:
        return DRIFTS[self.name].b(np.asarray(x, dtype=float), self.l, self.coefficient)


@dataclass
class BoundaryReport:
    """Endpoint classifications with the diagnostics behind them."""

    left: str
    right: str
    diagnostics: dict


def feller_test(spec: DriftSpec) -> BoundaryReport:
    """Classify both endpoints of ``(l, infinity)`` from the closed form of the drift family.

    An endpoint near which ``|F|`` is integrable absorbs; one where it is not
    cannot.  Each side's diagnostics are ``integrable`` and the asymptotic
    ``form`` of ``|F|``.
    """
    ends = {"left": DRIFTS[spec.name].left, "right": DRIFTS[spec.name].right}
    verdicts = {side: "absorbing" if end.integrable else "non-absorbing" for side, end in ends.items()}
    return BoundaryReport(**verdicts, diagnostics={side: end._asdict() for side, end in ends.items()})


# --------------------------------------------------------------------------
# Killed diffusion Monte Carlo
# --------------------------------------------------------------------------

@dataclass
class SurvivalCurve:
    """Survival probability along a time grid with binomial standard errors."""

    times: np.ndarray
    survival: np.ndarray
    stderr: np.ndarray

    @property
    def final(self) -> float:
        return float(self.survival[-1])

    @property
    def final_stderr(self) -> float:
        return float(self.stderr[-1])


def _bridge_candidates(xa: np.ndarray, xb: np.ndarray, l: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the live paths whose kill the bridge test decides, and their exponents.

    ``arg = -2 (xa - l)(xb - l) / dt`` is Gobet's exponent while ``xb > l``
    and non-negative (a certain kill) once ``xb <= l``.
    """
    with np.errstate(over="ignore"):
        arg = -2.0 * (xa - l) * (xb - l) / dt
    near = np.flatnonzero(arg > -BRIDGE_CUT)
    return near, arg[near]


def simulate_killed_diffusion(
    spec: DriftSpec,
    x_start: float,
    t: float,
    dt: float,
    mc: MCConfig,
) -> SurvivalCurve:
    """Euler-Maruyama paths killed at ``l``, with Brownian-bridge correction.

    Returns the survival curve on a time grid of at most 201 points (the
    absorbed fraction is its complement).  A ``dt`` coarse for the drift at
    ``x_start`` warns, unless the family's step is exact (``Drift.exact_step``).
    """
    if not x_start > spec.l:
        raise ValueError("x_start must lie right of the boundary")
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = int(round(t / dt))
    if abs(n_steps * dt - t) > 1e-9 * max(t, 1.0):
        raise ValueError("t must be an integer multiple of dt")
    rec_steps = np.round(np.linspace(0.0, t, min(n_steps, 200) + 1) / dt).astype(int)
    rec_steps = rec_steps[np.diff(rec_steps, prepend=-1) > 0]  # sorted: drop repeats (np.unique loads numpy.ma)
    drift0 = float(np.abs(spec.drift(x_start)))
    if not DRIFTS[spec.name].exact_step and drift0 * dt > 0.1 * max(1.0, abs(x_start - spec.l)):
        warnings.warn(f"dt = {dt} is coarse for drift scale {drift0:.3g} at the start point", UserWarning, stacklevel=2)

    sqdt = np.sqrt(dt)
    l = spec.l

    def worker(idx, start, stop):
        normals = rng.stream(mc.seed, "feller.kill.normals", idx)
        uniforms = rng.stream(mc.seed, "feller.kill.bridge", idx)
        xa = np.full(stop - start, float(x_start))  # live positions, in path order
        alive_counts = np.zeros(rec_steps.size, dtype=np.int64)
        rec_pos = 0
        for step in range(n_steps + 1):
            if rec_pos < rec_steps.size and step == rec_steps[rec_pos]:
                alive_counts[rec_pos] = xa.size
                rec_pos += 1
            if step == n_steps or xa.size == 0:
                break  # once every path is dead the chunk draws nothing more
            dw = normals.standard_normal(xa.size)  # one normal per live path
            xb = xa + np.asarray(spec.drift(xa), dtype=float) * dt + sqdt * dw
            near, arg = _bridge_candidates(xa, xb, l, dt)
            with np.errstate(over="ignore"):
                kill = near[uniforms.random(near.size) < np.exp(arg)]
            xa = np.delete(xb, kill) if kill.size else xb
        return alive_counts

    counts = np.zeros(rec_steps.size, dtype=np.int64)
    for c in run_chunks(worker, mc.n_paths, threads=mc.threads):
        counts += c
    surv = counts / mc.n_paths
    se = np.sqrt(np.maximum(surv * (1.0 - surv), 0.0) / mc.n_paths)
    return SurvivalCurve(times=rec_steps * dt, survival=surv, stderr=se)
