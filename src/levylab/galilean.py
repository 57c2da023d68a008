"""Galilean-covariant open dynamics: closed-form symbol calculus and its
Langevin dilation.

The generator combines the free kinetic term with a translation-boost
covariant dissipative part parametrized by a 2-D increment law over
``(xi, eta)``: ``xi`` drives position shifts, ``eta`` momentum kicks, via
the stochastic Heisenberg equations ``dQ = P dt + dxi`` and ``dP = deta``
(unit mass).  Each noise increment acts as the unitary kick
``exp(i (deta Q - dxi P))``, i.e. a Weyl displacement with label
``(x, v) = (dxi, deta)``.

Displacement operators are eigenvectors of the dissipative part: conjugating
``W(x0, v0)`` by a kick with increments ``(dxi, deta)`` multiplies it by
``exp(i (v0 dxi - x0 deta))``, so averaging over the increment law gives

    dissipative rate on W(x0, v0)  =  eta2(mu = v0, lam = x0),

with ``eta2`` the 2-D characteristic exponent.  This pairing is pinned by
the dilation itself (drift-only generators must match the Monte Carlo
exactly) and is the single place all sign conventions are resolved; see
``docs/conventions.md``.

Under the free flow the label is transported, ``x(s) = x0 - v0 s``
(:func:`transported`; the label stays put when the free term is off), and the
closed-form evolution multiplies ``W`` by ``exp(integral of the rate along
the transported label)``.  The Monte Carlo side realizes the time-ordered
dilation by Strang-split steps: half free flow, exact Weyl kick from the
step's increments, half free flow; all discretization error comes from the
non-commutativity of the free flow with the kicks and is second order in
the step size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import NumericalFailure
from .grid import (OVERFLOW_TOL, WaveFunction, WeylLabel, apply_weyl, boundary_masses, displace, expectation,
                   expectations, overflow_fraction, tile_rows)
from .levy import LevyTriplet2D, _sample_increments, char_exponent_2d, char_exponent_2d_integral
from .montecarlo import Gate, MCConfig, MCResult, gate, mc_stats, run_chunks

# Paths per derived "dilation" stream.  Fixed constant: the chunk partition is
# part of the reproducibility contract.
DILATION_CHUNK = 4096


@dataclass(frozen=True)
class GalileanGenerator:
    """Covariant generator: 2-D increment law plus the free kinetic term flag."""

    triplet2: LevyTriplet2D
    include_free_hamiltonian: bool = True


@dataclass
class WeylSymbolState:
    """Closed-form image of a displacement operator: scalar times a transported label."""

    multiplier: complex
    point: tuple[float, float]

    def __post_init__(self):
        if abs(self.multiplier) > 1.0 + 1e-12:
            raise ValueError(f"|multiplier| = {abs(self.multiplier)} exceeds 1")


def weyl_symbol_rate(gen: GalileanGenerator, x0: float, v0: float) -> complex:
    """Dissipative eigenvalue on the displacement ``W(x0, v0)``.

    Conjugating ``W(x0, v0)`` by a kick with increments ``(dxi, deta)``
    multiplies it by ``exp(i (v0 dxi - x0 deta))``, so the rate is the 2-D
    characteristic exponent at the pinned pairing ``eta2(mu = v0, lam = x0)``.
    Always has nonpositive real part.
    """
    return char_exponent_2d(gen.triplet2, v0, x0)


def transported(gen: GalileanGenerator, x0: float, v0: float, s: float) -> tuple[float, float]:
    """The label ``(x0, v0)`` after time ``s`` of free flow: ``(x0 - v0 s, v0)``, fixed when the free term is off."""
    return (x0 - v0 * s, v0) if gen.include_free_hamiltonian else (x0, v0)


def evolve_weyl_closed_form(gen: GalileanGenerator, x0: float, v0: float, t: float) -> WeylSymbolState:
    """Closed-form image of ``W(x0, v0)`` after time ``t``.

    The label rides the free flow to :func:`transported` at ``t``; the multiplier
    exponentiates the rate's exact integral along it (nonpositive real part).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    point = transported(gen, x0, v0, t)
    integral = char_exponent_2d_integral(gen.triplet2, v0, x0, point[0], t)
    if not (integral.real < np.inf and np.isfinite(integral.imag)):  # a real part of -inf is a multiplier of 0
        raise NumericalFailure(f"closed-form rate integral not finite at (x0, v0, t) = ({x0!r}, {v0!r}, {t!r})")
    return WeylSymbolState(multiplier=complex(np.exp(integral)), point=point)


# --------------------------------------------------------------------------
# Langevin dilation
# --------------------------------------------------------------------------

def _evolve_block(
    gen: GalileanGenerator,
    psi: WaveFunction,
    increments: np.ndarray,
    dt: float,
) -> np.ndarray:
    """Evolve a block of paths through Strang-split steps.

    One step is half free flow, the Weyl kick ``exp(i (deta Q - dxi P))``
    from the step's increments, half free flow; with the free term disabled
    it is the bare kick.  ``increments`` has shape (paths, steps, 2).
    Adjacent free half-steps are merged into the kick's momentum pass, so
    every step costs one FFT round trip, in the one returned buffer.
    """
    grid = psi.grid
    paths, n_steps = increments.shape[:2]
    include = gen.include_free_hamiltonian
    free_half = np.exp(-0.25j * dt * grid.p**2) if include else None
    free_full = free_half * free_half if include else None
    states = np.empty((paths, grid.n_points), dtype=complex)
    hat = np.fft.fft(psi.amplitudes, norm="ortho")[None, :]
    for step in range(n_steps):
        free = free_half if step == 0 else free_full
        displace(hat, grid, increments[:, step, 0], increments[:, step, 1], momentum_factor=free, out=states)
        if step < n_steps - 1 or include:
            hat = np.fft.fft(states, axis=1, norm="ortho", out=states)
    if include:
        states *= free_half
        np.fft.ifft(states, axis=1, norm="ortho", out=states)
    return states


def _dilation_paths(gen: GalileanGenerator, t: float, n_steps: int, aggregate: int, mc: MCConfig, n_points: int,
                    measure) -> list[list]:
    """Each chunk's results of ``measure(first_path, increments)`` on its tiles, in order.

    The dilation's noise: chunk ``idx`` of ``DILATION_CHUNK`` paths draws
    from ``rng.stream(mc.seed, "dilation", idx)`` on ``aggregate * n_steps``
    equal steps of ``t``, summed in groups of ``aggregate``, and is measured
    in :func:`levylab.grid.tile_rows` tiles of ``(rows, n_steps, 2)``
    increments.
    """
    fine = n_steps * aggregate
    dt_fine = np.full(fine, t / fine)
    tile = tile_rows(n_points)

    def worker(idx, start, stop):
        inc = _sample_increments(gen.triplet2, dt_fine, stop - start, rng.stream(mc.seed, "dilation", idx))
        if aggregate > 1:
            inc = inc.reshape(stop - start, n_steps, aggregate, 2).sum(axis=2)
        return [measure(start + first, inc[first:first + tile]) for first in range(0, stop - start, tile)]

    return run_chunks(worker, mc.n_paths, threads=mc.threads, chunk=DILATION_CHUNK)


def mc_weyl_expectation(
    gen: GalileanGenerator,
    psi: WaveFunction,
    label: WeylLabel,
    t: float,
    n_steps: int,
    mc: MCConfig,
    aggregate: int = 1,
) -> MCResult:
    """Monte Carlo Heisenberg expectation of a displacement via the dilation.

    Increments are sampled on a grid of ``aggregate * n_steps`` fine steps
    and summed in groups of ``aggregate`` before evolving, so runs at
    different step counts can share the same underlying noise (set
    ``aggregate=2`` to coarse-grain the ``2 n_steps`` ensemble).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    grid = psi.grid
    values = np.empty(mc.n_paths, dtype=complex)

    def measure(first, inc):
        states = _evolve_block(gen, psi, inc, t / n_steps)
        values[first:first + len(inc)] = expectations(states, grid, label)
        return int(np.count_nonzero(boundary_masses(states, grid) > OVERFLOW_TOL))

    chunks = _dilation_paths(gen, t, n_steps, aggregate, mc, grid.n_points, measure)
    overflow = overflow_fraction(sum(map(sum, chunks)), mc.n_paths,
                                 f"dilation paths exceeded boundary mass {OVERFLOW_TOL:.0e}")
    est, se = mc_stats(values)
    return MCResult(est, se, mc.n_paths, mc.seed, overflow_fraction=overflow)


def scheme_expected_weyl(
    gen: GalileanGenerator,
    psi: WaveFunction,
    x0: float,
    v0: float,
    t: float,
    n_steps: int,
) -> complex:
    """Exact expectation of the n-step split scheme (no sampling).

    Increment independence factorizes the path average into a product of
    one-step multipliers, so the scheme's law is the closed form with the
    rate integral replaced by its midpoint-rule sum.  The Monte Carlo
    estimator fluctuates around this value; its distance to the closed form
    is the deterministic part of the splitting error and shrinks as
    ``1/n_steps^2``.
    """
    dt = t / n_steps
    mids = (np.arange(n_steps) + 0.5) * dt
    rate_sum = sum(weyl_symbol_rate(gen, *transported(gen, x0, v0, s)) for s in mids)  # Python sum: no warning
    if not np.isfinite(rate_sum):
        raise NumericalFailure(f"scheme law's rate sum not finite at n_steps = {n_steps}")
    return complex(np.exp(dt * rate_sum) * expectation(psi, WeylLabel(*transported(gen, x0, v0, t))))


@dataclass
class DilationCompareReport:
    """Closed-form symbol versus Langevin Monte Carlo, with discretization bands.

    The two Monte Carlo runs (``n_steps`` and ``2 n_steps``) share the same
    fine-grained noise, so their difference isolates the Strang splitting
    error; each run's ``gate`` judges its deviation from the closed form
    against ``4 stderr + discretization allowance``, the allowance derived
    from that difference assuming second-order scaling.  ``inconclusive`` is
    set when the statistical band swamps the effect size.
    """

    closed_value: complex
    closed_symbol: WeylSymbolState
    mc_coarse: MCResult
    mc_fine: MCResult
    split_defect: float
    deviation_coarse: float
    deviation_fine: float
    gate_coarse: Gate
    gate_fine: Gate
    order_estimate: float
    inconclusive: bool


def mc_vs_closed_form(
    gen: GalileanGenerator,
    x0: float,
    v0: float,
    psi: WaveFunction,
    t: float,
    n_steps: int,
    mc: MCConfig,
) -> DilationCompareReport:
    """Compare the dilation Monte Carlo against the closed-form symbol.

    The closed-form side is ``multiplier * <psi| W(transported) |psi>``.
    The Monte Carlo side runs at ``n_steps`` and ``2 n_steps`` with shared
    fine noise; second-order splitting puts the continuum limit at about
    ``(4 E_fine - E_coarse) / 3``, so the coarse/fine allowances are
    ``(4/3) |E_coarse - E_fine|`` and ``(1/3) |E_coarse - E_fine|``.

    ``order_estimate`` is the observed order of the scheme's deterministic
    bias (log2 ratio of the exact scheme laws' distances to the closed
    form); NaN when the noise commutes with the free flow and the bias
    vanishes.
    """
    label = WeylLabel(x0, v0)
    sym = evolve_weyl_closed_form(gen, x0, v0, t)
    closed = sym.multiplier * expectation(psi, WeylLabel(sym.point[0], sym.point[1]))
    bias_coarse = abs(scheme_expected_weyl(gen, psi, x0, v0, t, n_steps) - closed)
    bias_fine = abs(scheme_expected_weyl(gen, psi, x0, v0, t, 2 * n_steps) - closed)
    fine = mc_weyl_expectation(gen, psi, label, t, 2 * n_steps, mc, aggregate=1)
    coarse = mc_weyl_expectation(gen, psi, label, t, n_steps, mc, aggregate=2)
    order = float(np.log2(bias_coarse / bias_fine)) if bias_fine > 1e-13 else float("nan")
    split = float(abs(coarse.estimate - fine.estimate))
    dev_coarse = float(abs(coarse.estimate - closed))
    dev_fine = float(abs(fine.estimate - closed))
    return DilationCompareReport(
        closed_value=complex(closed),
        closed_symbol=sym,
        mc_coarse=coarse,
        mc_fine=fine,
        split_defect=split,
        deviation_coarse=dev_coarse,
        deviation_fine=dev_fine,
        gate_coarse=gate(dev_coarse, coarse.stderr, 4.0, (4.0 / 3.0) * split, 1e-8),
        gate_fine=gate(dev_fine, fine.stderr, 4.0, (1.0 / 3.0) * split, 4.0 * coarse.stderr, 1e-8),
        order_estimate=order,
        inconclusive=bool(4.0 * fine.stderr > max(abs(closed), 0.05)),
    )


def galilean_covariance_check(
    gen: GalileanGenerator,
    x: float,
    v: float,
    t: float,
    psi: WaveFunction,
    mc: MCConfig,
    n_steps: int,
) -> float:
    """Shared-seed defect of the space-boost covariance identity.

    Conjugating the observable by ``W(x, v)`` before evolving must equal
    boosting the state by ``W`` at the :func:`transported` label; with
    identical noise on both sides the defect is round-off (commuting the
    displacement through free flow transports its label, through kicks it
    only collects a central phase that cancels in the sandwich).  Each
    chunk's per-path values are summed once.
    """
    battery = (WeylLabel(0.4, 0.0), WeylLabel(0.0, 0.6), WeylLabel(-0.5, 0.8))
    boosted = apply_weyl(psi, WeylLabel(*transported(gen, x, v, t)))
    dt = t / n_steps

    def measure(first, inc):
        # side A measures W(x,v)^dag X W(x,v) on evolved psi; side B
        # measures X on the evolution of the boosted state, same increments.
        evolved = _evolve_block(gen, psi, inc, dt)
        np.fft.fft(evolved, axis=1, norm="ortho", out=evolved)
        conj_states = displace(evolved, psi.grid, [x], [v], out=evolved)
        states_b = _evolve_block(gen, boosted, inc, dt)
        return np.array([[expectations(states, psi.grid, ob) for ob in battery] for states in (conj_states, states_b)])

    sums = np.zeros((2, len(battery)), dtype=complex)
    for tiles in _dilation_paths(gen, t, n_steps, 1, mc, psi.grid.n_points, measure):
        sums += np.concatenate(tiles, axis=-1).sum(axis=-1)
    return float(np.abs((sums[0] - sums[1]) / mc.n_paths).max())
