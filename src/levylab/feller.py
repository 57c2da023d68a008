"""Boundary classification and killed diffusions on a half line.

For the diffusion ``dX = b(X) dt + dW`` on ``(l, infinity)`` the scale-like
function

    F(x) = integral_{x0}^{x} exp( integral_{x}^{y} 2 b(z) dz ) dy

decides whether an endpoint can absorb probability: the endpoint is
non-absorbing exactly when ``|F|`` fails to be integrable in its
neighbourhood.  The classifier integrates ``|F|`` over dyadically shrinking
(growing) neighbourhoods and fits the growth on a log-log scale; the
declared decision rule is |slope| > 0.2 with R^2 > 0.99 for divergent,
|slope| < 0.05 for convergent, anything else inconclusive.  All shell
integrals run in log space, since ``F`` can exceed the floating-point range
long before the verdict is in.

The Monte Carlo side simulates the killed diffusion by Euler-Maruyama with
a Brownian-bridge crossing correction (absorb with probability
``exp(-2 (X_k - l)(X_{k+1} - l) / dt)`` when both endpoints are above
``l``), which removes the O(sqrt(dt)) crossing bias.  A per-step reflected
variant serves purely as a witness that distinct extensions of the same
dynamics exist when the boundary absorbs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng
from .errors import NumericalFailure
from .montecarlo import MCConfig, run_chunks

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
#: The bridge kill test ``U < exp(arg)`` is made, and its uniform drawn, only
#: for live paths whose exponent ``arg = -2 (x_k - l)(x_{k+1} - l) / dt`` is
#: above ``-BRIDGE_CUT``; crossed paths (``x_{k+1} <= l``, ``arg >= 0``) are
#: among them.  Everywhere else the kill probability is below
#: ``exp(-37) < 2**-53``, so a path loses less than ``n_steps * exp(-37)`` of
#: kill probability over a run.  Far from the boundary the exponent is
#: hundreds below zero, where ``exp`` underflows to subnormals or zero at
#: tens to hundreds of times the cost of a normal-range value.
BRIDGE_CUT = 37.0


@dataclass(frozen=True)
class DriftSpec:
    """Half-line diffusion: left endpoint, drift callable, reference point.

    ``drift`` must be defined on ``(l, X_MAX)``; the classifier never
    evaluates it outside that range (no extrapolation is attempted).
    """

    l: float
    drift: Callable[[np.ndarray], np.ndarray]
    x0: float

    def __post_init__(self):
        if not self.x0 > self.l:
            raise ValueError(f"x0 = {self.x0} must lie strictly right of l = {self.l}")
        if not X_MAX > self.x0:
            raise ValueError(f"x0 must be below X_MAX = {X_MAX:g}")


@dataclass
class BoundaryReport:
    """Endpoint classifications with the divergence diagnostics behind them."""

    left: str
    right: str
    diagnostics: dict

    VERDICTS = ("non-absorbing", "absorbing", "inconclusive")

    def __post_init__(self):
        for v in (self.left, self.right):
            if v not in self.VERDICTS:
                raise ValueError(f"unknown verdict {v!r}")
        for side in ("left", "right"):
            if getattr(self, side) != "inconclusive" and side not in self.diagnostics:
                raise ValueError(f"verdict for {side} endpoint lacks diagnostics")


# --------------------------------------------------------------------------
# Scale-like function
# --------------------------------------------------------------------------

def _log_abs_scale(spec: DriftSpec, nodes: np.ndarray) -> np.ndarray:
    """``log |F|`` on a node ladder ordered from ``x0`` outward.

    The cumulative drift integral ``B(y) = integral_{x0}^{y} 2 b`` comes from
    the trapezoid rule on the ladder (the sign of the steps encodes the
    direction), and ``log |F(x)| = -B(x) + log integral_{x0}^{x} exp(B(y)) dy``
    from log-sum-exp accumulation.
    """
    b_vals = 2.0 * np.asarray(spec.drift(nodes), dtype=float)
    if not np.all(np.isfinite(b_vals)):
        raise NumericalFailure("drift not finite on the node ladder")
    steps = np.diff(nodes)
    B = np.concatenate([[0.0], np.cumsum(0.5 * (b_vals[1:] + b_vals[:-1]) * steps)])
    seg = np.logaddexp(B[1:], B[:-1]) + np.log(np.abs(steps) / 2.0)
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


def _endpoint_scan(spec: DriftSpec, left: bool) -> dict:
    span = spec.x0 - spec.l
    if left:
        edges, dist = _shell_ladder(span, span * 0.5**N_SHELLS)
    else:
        d_hi = min(X_MAX - spec.l, span * 2.0**N_SHELLS)
        edges, dist = _shell_ladder(span, d_hi)
    nodes_x = spec.l + dist
    log_j = _log_shell_integrals(_log_abs_scale(spec, nodes_x), nodes_x)
    slope, r2 = _fit_loglog(np.log(edges[1:]), log_j)
    verdict = _classify(slope, r2, log_j)
    return {
        "scale": edges[1:].tolist(),
        "log_integral": log_j.tolist(),
        "slope": slope,
        "r2": r2,
        "verdict": verdict,
    }


def feller_test(spec: DriftSpec) -> BoundaryReport:
    """Classify both endpoints of ``(l, infinity)`` for the diffusion.

    Divergence of the neighbourhood integrals of ``|F|`` means the endpoint
    cannot absorb; convergence means it does; a trend inside the declared
    noise band stays inconclusive.
    """
    left = _endpoint_scan(spec, left=True)
    right = _endpoint_scan(spec, left=False)
    return BoundaryReport(
        left=left["verdict"],
        right=right["verdict"],
        diagnostics={"left": left, "right": right},
    )


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


def _simulate(
    spec: DriftSpec,
    x_start: float,
    t: float,
    dt: float,
    mc: MCConfig,
    mode: str,
) -> SurvivalCurve:
    if not x_start > spec.l:
        raise ValueError("x_start must lie right of the boundary")
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = int(round(t / dt))
    if abs(n_steps * dt - t) > 1e-9 * max(t, 1.0):
        raise ValueError("t must be an integer multiple of dt")
    rec_steps = np.unique(np.round(np.linspace(0.0, t, min(n_steps, 200) + 1) / dt).astype(int))
    drift0 = float(np.max(np.abs(np.atleast_1d(spec.drift(np.array([x_start]))))))
    if drift0 * dt > 0.1 * max(1.0, abs(x_start - spec.l)):
        warnings.warn(
            f"dt = {dt} is coarse for drift scale {drift0:.3g} at the start point",
            UserWarning,
            stacklevel=2,
        )

    sqdt = np.sqrt(dt)
    l = spec.l
    reflect = mode == "reflect"
    normals_tag = "feller.reflect.normals" if reflect else "feller.kill.normals"

    def worker(idx, start, stop):
        normals = rng.stream(mc.seed, normals_tag, idx)
        uniforms = None if reflect else rng.stream(mc.seed, "feller.kill.bridge", idx)
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
            if reflect:
                xa = l + np.abs(xb - l)
                continue
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


def simulate_killed_diffusion(
    spec: DriftSpec,
    x_start: float,
    t: float,
    dt: float,
    mc: MCConfig,
) -> SurvivalCurve:
    """Euler-Maruyama paths killed at ``l``, with Brownian-bridge correction.

    Returns the survival curve on a time grid of at most 201 points (the
    absorbed fraction is its complement).
    """
    return _simulate(spec, x_start, t, dt, mc, mode="kill")


def simulate_reflecting_diffusion(
    spec: DriftSpec,
    x_start: float,
    t: float,
    dt: float,
    mc: MCConfig,
) -> SurvivalCurve:
    """Same scheme with per-step reflection ``x -> l + |x - l|``; nothing is killed.

    Used only as a non-uniqueness witness against the absorbing variant.
    Its normals come from streams of their own, so under one seed it is
    independent of the killed run.
    """
    return _simulate(spec, x_start, t, dt, mc, mode="reflect")


# --------------------------------------------------------------------------
# Canonical drifts
# --------------------------------------------------------------------------

def zero_drift_spec(l: float = 0.0, x0: float = 1.0) -> DriftSpec:
    return DriftSpec(l=l, drift=lambda x: np.zeros_like(np.asarray(x, dtype=float)), x0=x0)


def bessel3_drift_spec(l: float = 0.0, x0: float = 1.0) -> DriftSpec:
    """Repulsive ``b(x) = 1/x``: the boundary at 0 is never reached."""
    return DriftSpec(l=l, drift=lambda x: 1.0 / (np.asarray(x, dtype=float) - l), x0=x0)


def ou_drift_spec(l: float = 0.0, x0: float = 1.0) -> DriftSpec:
    """Mean-reverting ``b(x) = -x``: infinity is inaccessible."""
    return DriftSpec(l=l, drift=lambda x: -np.asarray(x, dtype=float), x0=x0)


CANONICAL_DRIFTS = {
    "zero": zero_drift_spec,
    "bessel3": bessel3_drift_spec,
    "ou": ou_drift_spec,
}
