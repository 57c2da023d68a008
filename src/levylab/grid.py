"""Discretized one-dimensional quantum system on a periodic grid.

Position acts by multiplication with the lattice ``x_k = x_min + k dx``;
momentum is realized spectrally on the FFT lattice ``p_j``, which makes the
shift group and free evolution exact on band-limited states.  Boundary
risks are surfaced through explicit support checks (warnings), never
hidden.

Operator conventions, fixed by testable identities rather than typography:

  * ``position_phase(y)``  = exp(i y Q): multiply by ``exp(i y x_k)``.
  * ``shift(x)``           = exp(-i x P): spectral phase ``exp(-i x p_j)``;
    moves a state right by ``x`` (expectation of Q gains ``+x``).
  * exchange relation: ``shift(x) position_phase(y)
    = exp(-i x y) position_phase(y) shift(x)`` -- exact on the lattice for
    grid-commensurate pairs, including wrap-around.
  * ``weyl(x, v)`` = exp(i (v Q - x P)) = exp(-i v x / 2) position_phase(v)
    shift(x); the central phase sign follows from [Q, P] = i with the
    conventions above.  Displacements: Q -> Q + x, P -> P + v.

Every shift, kick and Weyl displacement in the package goes through one
batched kernel, :func:`displace`; the single-state :func:`apply_weyl` is
its batch of one.  Its lattice phases ``exp(i c q_k)`` are never formed as a full
``paths x N`` exponential (see :func:`_apply_lattice_phase`), and with
``out`` it writes every pass into the caller's buffer, the input included.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .errors import SupportOverflowError

#: Lattice points on each edge counted as "boundary" by support checks.
BOUNDARY_WINDOW = 16
#: Boundary mass above which a shifted or evolved path counts as overflowed.
OVERFLOW_TOL = 1e-10
#: Monte Carlo runs abort when more than this fraction of paths overflow.
OVERFLOW_FRACTION = 0.01
#: Paths per block of the random-shift estimator ``semigroup._shift_values``.
#: Its ``T2 @ C`` product is a BLAS call whose bits may depend on the block's
#: row count, so this is not a free memory knob: keep it fixed.
STATE_BATCH = 1024
#: Bytes of complex states held per tile when paths are evolved or a Weyl
#: expectation is reduced (memory control; no effect on results).
STATE_TILE_BYTES = 1 << 20
#: A Weyl expectation is reduced through a buffer of ``tile_rows(N) // REDUCTION_SPLIT``
#: rows, at least one (memory control; no effect on results).
REDUCTION_SPLIT = 8
#: Probability mass allowed in the boundary window / top momentum band.
SUPPORT_TOL = 1e-12
#: A state's norm ``sqrt(dx sum |psi_k|^2)`` differs from 1 by at most this.
NORM_TOL = 1e-12


class BoundarySupportWarning(UserWarning):
    """State carries non-negligible mass near the periodic boundary."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic lattice: ``n_points`` (a power of two), origin, spacing; ``1 / dx`` and its end are finite."""

    n_points: int
    x_min: float
    dx: float

    def __post_init__(self):
        problems = []
        if self.n_points < 2 or (self.n_points & (self.n_points - 1)) != 0:
            problems.append(f"n_points must be a power of two >= 2, got {self.n_points}")
        if not self.dx > 0:
            problems.append(f"dx must be positive, got {self.dx}")
        elif not np.isfinite(1.0 / float(self.dx)):  # a Python float division: no numpy warning
            problems.append(f"dx must have a finite reciprocal 1 / dx, got {self.dx}")
        elif not np.isfinite(last := self.x_min + self.dx * (self.n_points - 1)):
            problems.append(f"last lattice point x_min + dx (n - 1) must be finite, got {last}")
        if problems:
            raise ValueError("; ".join(problems))

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

    @property
    def p(self) -> np.ndarray:
        """Momentum lattice in FFT ordering, spacing ``2 pi / (n dx)``."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)

    @property
    def dp(self) -> float:
        return 2.0 * np.pi / (self.n_points * self.dx)


@dataclass
class WaveFunction:
    """Unit vector on a grid: finite amplitudes whose norm ``sqrt(dx sum |psi_k|^2)`` is 1 to within ``NORM_TOL``."""

    grid: GridSpec
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.grid.n_points,):
            raise ValueError(f"amplitudes shape {amps.shape} does not match grid ({self.grid.n_points},)")
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        self.amplitudes = amps
        if not abs((norm := self.norm()) - 1.0) <= NORM_TOL:
            raise ValueError(f"state norm {norm:.17g} differs from 1 by more than {NORM_TOL:.0e}")

    def norm(self) -> float:
        return float(np.sqrt(self.grid.dx * np.sum(np.abs(self.amplitudes) ** 2)))


def tile_rows(n_points: int) -> int:
    """Rows of ``n_points`` complex amplitudes that fit in ``STATE_TILE_BYTES``, at least one."""
    return max(1, STATE_TILE_BYTES // (16 * n_points))


def boundary_masses(states: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Mass in the ``BOUNDARY_WINDOW`` points at each edge, per row of ``states``, squaring only those columns."""
    left, right = np.abs(states[:, :BOUNDARY_WINDOW]) ** 2, np.abs(states[:, -BOUNDARY_WINDOW:]) ** 2
    return grid.dx * (left.sum(1) + right.sum(1))


def overflow_fraction(overflowed: int, total: int, what: str) -> float:
    """Share ``overflowed / total`` of overflowed paths, at most ``OVERFLOW_FRACTION``.

    Above it the run aborts with :class:`SupportOverflowError`, whose
    message reads ``"<overflowed>/<total> <what>"``.
    """
    if overflowed > OVERFLOW_FRACTION * total:
        raise SupportOverflowError(f"{overflowed}/{total} {what}")
    return overflowed / total


def gaussian_state(grid: GridSpec, center: float = 0.0, width: float = 1.0, momentum: float = 0.0) -> WaveFunction:
    """Gaussian packet ``exp(-(x-c)^2/(2 w^2) + i p0 x)`` over its norm: the one constructor that normalizes.

    Past the float range it warns nothing: a packet that is not finite or is zero on the lattice raises ``ValueError``.
    """
    x = grid.x
    with np.errstate(all="ignore"):
        amps = np.exp(-((x - center) ** 2) / (2.0 * np.float64(width) ** 2) + 1j * momentum * x)
        norm = float(np.sqrt(grid.dx * np.sum(np.abs(amps) ** 2)))
        if norm == 0.0:
            raise ValueError("cannot normalize the zero state")
        return WaveFunction(grid, amps / norm)


# --------------------------------------------------------------------------
# Observables
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class QTable:
    """Multiplication operator f(Q) given by its finite values on the position lattice."""

    values: tuple
    label: str = "f(Q)"

    def __post_init__(self):
        if not np.all(np.isfinite(self.array)):
            raise ValueError(f"{self.label}: table values must be finite")

    @classmethod
    def from_function(cls, grid: GridSpec, f: Callable[[np.ndarray], np.ndarray], label: str = "f(Q)") -> "QTable":
        with np.errstate(all="ignore"):  # non-finite values are refused, not warned about
            return cls(values=tuple(np.asarray(f(grid.x), dtype=float)), label=label)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class PTable:
    """Multiplication operator g(P) by its finite values on the momentum lattice (FFT ordering)."""

    values: tuple
    label: str = "g(P)"

    def __post_init__(self):
        if not np.all(np.isfinite(self.array)):
            raise ValueError(f"{self.label}: table values must be finite")

    @classmethod
    def from_function(cls, grid: GridSpec, g: Callable[[np.ndarray], np.ndarray], label: str = "g(P)") -> "PTable":
        with np.errstate(all="ignore"):  # non-finite values are refused, not warned about
            return cls(values=tuple(np.asarray(g(grid.p), dtype=float)), label=label)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class WeylLabel:
    """Phase-space displacement label for ``W = exp(i (v Q - x P))``.

    Factorized as ``W = exp(-i v x / 2) position_phase(v) shift(x)``: the
    central phase sign ``-1`` is what [Q, P] = i forces for this operator
    ordering.
    """

    x: float
    v: float
    label: ClassVar[str] = "W(x,v)"

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.v)):
            raise ValueError("Weyl label entries must be finite")


Observable = QTable | PTable | WeylLabel


# --------------------------------------------------------------------------
# Unitaries
# --------------------------------------------------------------------------

def _check_support(psi: WaveFunction) -> None:
    mass = float(boundary_masses(psi.amplitudes[None, :], psi.grid)[0])
    if mass > SUPPORT_TOL:
        warnings.warn(
            f"state has boundary mass {mass:.3e} > {SUPPORT_TOL:.0e}; shifts wrap around",
            BoundarySupportWarning,
            stacklevel=3,
        )


def phase_tables(
    coef: np.ndarray,
    n: int,
    unit: float,
    origin: float = 0.0,
    wrap: bool = False,
    scale: np.ndarray | None = None,
    out: tuple[np.ndarray, ...] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Factorized phases ``exp(i coef[m] (origin + unit k))`` for ``k < n``.

    ``n`` is a power of two.  The index is split as ``k = B j + r`` with ``B``
    the power of two nearest ``sqrt(n)``, and the phase is returned as two
    small tables ``T1[m, j]`` (``M x n/B``, carrying ``origin``, ``scale[m]``
    and, with ``wrap``, the fftfreq wrap ``k -> k - n`` for ``k >= n/2``) and
    ``T2[m, r]`` (``M x B``): the phase at ``k`` is ``T1[m, k // B] *
    T2[m, k % B]``.  No ``M x n`` exponential is formed.

    Each table is built column-major, one column per row ``m``, by doubling:
    one ``np.exp`` call gives every row its entries 0 and 1 of both tables
    and one factor per doubling width ``w``, about ``log2 n`` exponentials a
    row, and entries ``w .. 2w-1`` are entries ``0 .. w-1`` times the factor
    of ``w``, one multiply over all rows per width.  Entries 0 and 1 come
    from their own exponentials, never from a width-1 multiply; an entry
    ``exp(0)`` (entry 0 of ``T2``, and of ``T1`` at ``origin = 0``) is
    written as the 1 that ``np.exp`` gives.  Each factor is its own
    exponential, not a square of the last one, which would break the error
    bound in ``docs/conventions.md``.  Every pass is elementwise, so a row
    is bit for bit the row computed alone.

    The tables are written into ``out`` (from :func:`phase_buffers`, for at
    least ``M`` rows) or into new buffers, and returned as their
    ``(M, width)`` transposed views.  A single ``coef`` with ``M`` scales
    gives ``M`` rows of ``T1`` and one of ``T2``.
    """
    args, b, i, j, z = _phase_args(n, unit, origin, wrap)
    m = coef.size
    rows = m if scale is None else max(m, scale.size)  # a single coef may serve every scale
    arg, phases, t1, t2 = phase_buffers(n, rows) if out is None else out
    arg, phases, t1, t2 = arg[z:, :m], phases[:, :m], t1[:, :rows], t2[:, :m]
    phases[:z] = 1.0
    np.exp(np.multiply(1j, np.multiply.outer(args[z:], coef, out=arg), out=phases[z:]), out=phases[z:])
    if scale is None:
        t1[:2] = phases[:2]
    else:
        np.multiply(phases[:2], scale, out=t1[:2])
    t2[0] = 1.0
    t2[1:1 + j - i] = phases[i:j]
    for table, factors in ((t1, phases[2:i]), (t2, phases[j:])):
        for k, factor in enumerate(factors):
            w = 2 << k
            np.multiply(table[:w], factor, out=table[w:2 * w])
    return t1.T, t2.T


def phase_buffers(n: int, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Column-major buffers for :func:`phase_tables` at ``n`` points on up to ``rows`` rows.

    The lattice arguments times ``coef`` and their exponentials
    (``log2 n + 1`` each), then ``T1`` (``n/B``) and ``T2`` (``B``).
    """
    b, count = _block(n), n.bit_length()
    return (np.empty((count, rows)), np.empty((count, rows), dtype=complex),
            np.empty((n // b, rows), dtype=complex), np.empty((b, rows), dtype=complex))


def _block(n: int) -> int:
    """``B``, the power of two nearest ``sqrt(n)`` that splits the lattice index of :func:`phase_tables`."""
    return 1 << ((n.bit_length() - 1) // 2)


@functools.lru_cache(maxsize=None)
def _phase_args(n: int, unit: float, origin: float, wrap: bool) -> tuple[np.ndarray, int, int, int, int]:
    """The lattice arguments of :func:`phase_tables`, built once per key, read-only.

    Returns the vector ``args`` (the heads of ``T1``, its doubling steps,
    the head ``1`` of ``T2`` when ``B > 1``, its doubling widths, each times
    ``unit``; ``T2``'s head 0 is always ``exp(0)`` and has no entry), ``B``,
    where the ``T2`` head and widths start in ``args``, and the count of
    leading arguments that are 0: 1 when ``T1``'s head 0 is (``origin = 0``).
    """
    b = _block(n)
    first = b * np.arange(2)
    steps = b << np.arange(1, (n // b).bit_length() - 1)  # B w for the widths w of T1
    if wrap:
        first[first >= n // 2] -= n
        steps[-1:] *= -1  # the upper half of j is k - n: j -> j - n/B
    cols = np.arange(1, min(b, 2))
    widths = 1 << np.arange(1, b.bit_length() - 1)
    args = np.concatenate([origin + unit * first, unit * steps, unit * cols, unit * widths])
    args.setflags(write=False)
    return args, b, 2 + steps.size, 2 + steps.size + cols.size, int(args[0] == 0.0)


def _apply_lattice_phase(
    block: np.ndarray,
    grid: GridSpec,
    coef: np.ndarray,
    momentum: bool,
    scale: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``block[m, k] * scale[m] * exp(i coef[m] q_k)``, written into ``out``.

    ``q`` is the momentum lattice in FFT order (``momentum=True``) or the
    position lattice.  ``block`` and ``coef`` broadcast against each other
    along the first axis.  The phase comes from :func:`phase_tables` and is
    applied table by table into ``out``: a ``(rows, N)`` complex array,
    ``block`` itself for an in-place pass, or a new array when None.
    """
    n = grid.n_points
    if momentum:
        t1, t2 = phase_tables(coef, n, grid.dp, wrap=True, scale=scale)
    else:
        t1, t2 = phase_tables(coef, n, grid.dx, origin=grid.x_min, scale=scale)
    b = t2.shape[1]
    rows = max(block.shape[0], t1.shape[0])
    out = np.empty((rows, n), dtype=complex) if out is None else out
    cells = np.multiply(block.reshape(block.shape[0], n // b, b), t1[:, :, None], out=out.reshape(rows, n // b, b))
    cells *= t2[:, None, :]
    return out


def displace(
    hat: np.ndarray,
    grid: GridSpec,
    xi: np.ndarray,
    eta: np.ndarray | None = None,
    momentum_factor: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Batched Weyl displacement ``exp(i (eta_m Q - xi_m P))``, one FFT round trip.

    ``hat`` holds states in the momentum representation (orthonormal FFT),
    one per row; a single row is shared by every label, and a single label
    by every row.  Returns the displaced states in the position
    representation, with the central phase ``exp(-i xi eta / 2)`` of
    :class:`WeylLabel`.  Without ``eta`` this is the pure shift
    ``exp(-i xi P)``.  ``momentum_factor`` (length ``N``, FFT order) is a
    momentum-diagonal unitary, such as a free-flow step, applied in the same
    pass before the shift.  Every pass writes into ``out``, which may be
    ``hat`` itself (see :func:`_apply_lattice_phase`).
    """
    xi = np.asarray(xi, dtype=float)
    states = _apply_lattice_phase(hat, grid, -xi, momentum=True, out=out)
    if momentum_factor is not None:
        states *= momentum_factor
    states = np.fft.ifft(states, axis=1, norm="ortho", out=states)
    if eta is None:
        return states
    eta = np.asarray(eta, dtype=float)
    central = np.exp(-0.5j * xi * eta)
    return _apply_lattice_phase(states, grid, eta, momentum=False, scale=central, out=states)


def apply_weyl(psi: WaveFunction, label: WeylLabel) -> WaveFunction:
    """``exp(i (v Q - x P))`` with the documented central phase; warns when it shifts a state with boundary mass."""
    if label.x != 0.0:
        _check_support(psi)
    hat = np.fft.fft(psi.amplitudes, norm="ortho")
    out = displace(hat[None, :], psi.grid, [label.x], [label.v])
    return WaveFunction(psi.grid, out[0])


def expectations(states: np.ndarray, grid: GridSpec, observable: Observable) -> np.ndarray:
    """``<psi_m| X |psi_m>`` for each row ``psi_m`` of ``states`` (position representation).

    The states are taken as given: no normalization and no support check.
    """
    if isinstance(observable, QTable):
        return grid.dx * np.abs(states) ** 2 @ observable.array
    if isinstance(observable, WeylLabel):
        values = np.empty(len(states), dtype=complex)
        block = max(1, tile_rows(grid.n_points) // REDUCTION_SPLIT)
        buf = np.empty((min(block, len(states)), grid.n_points), dtype=complex)  # one FFT block, reused
        for lo in range(0, len(states), block):
            rows = states[lo:lo + block]
            hat = np.fft.fft(rows, axis=1, norm="ortho", out=buf[:len(rows)])
            moved = np.conjugate(displace(hat, grid, [observable.x], [observable.v], out=hat), out=hat)
            np.einsum("ij,ij->i", rows, moved, out=values[lo:lo + block])
        return grid.dx * np.conjugate(values, out=values)
    if isinstance(observable, PTable):
        hat = np.fft.fft(states, axis=1, norm="ortho")
        return grid.dx * (np.abs(hat) ** 2) @ observable.array
    raise TypeError(f"unsupported observable type {type(observable)!r}")


def expectation(psi: WaveFunction, observable: Observable) -> complex:
    """``<psi| X |psi>``: the batch of one of :func:`expectations`.

    A Weyl label that shifts (``x != 0``) warns when the state has boundary mass.
    """
    if isinstance(observable, WeylLabel) and observable.x != 0.0:
        _check_support(psi)
    return complex(expectations(psi.amplitudes[None, :], psi.grid, observable)[0])
