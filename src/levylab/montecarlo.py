"""Monte Carlo configuration, estimator statistics, the acceptance gate, and chunked execution."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import rng


@dataclass(frozen=True)
class MCConfig:
    """Ensemble size, master seed, and execution knobs for a Monte Carlo run.

    ``antithetic="auto"`` turns the (+sample, -sample) pairing on only when
    the driving law is symmetric; ``True`` forces it (caller must know the
    law is symmetric), ``False`` disables it.
    """

    n_paths: int
    seed: int
    antithetic: bool | str = "auto"
    threads: int = 1

    def __post_init__(self):
        if self.n_paths <= 0:
            raise ValueError("mc config: n_paths must be positive")
        if self.antithetic not in (True, False, "auto"):
            raise ValueError("mc config: antithetic must be True, False or 'auto'")
        if self.threads < 1:
            raise ValueError("mc config: threads must be >= 1")

    def resolve_antithetic(self, symmetric: bool) -> bool:
        if self.antithetic == "auto":
            return symmetric and self.n_paths % 2 == 0
        if self.antithetic and not symmetric:
            raise ValueError("antithetic pairing requested for an asymmetric law")
        return bool(self.antithetic) and self.n_paths % 2 == 0


@dataclass
class MCResult:
    """Estimate with standard error and the provenance needed to reproduce it.

    A value computed without sampling (a conserved observable) has
    ``n_paths = 0`` and stderr identically zero.  ``overflow_fraction`` is
    the share of paths whose support reached the lattice boundary window,
    reported even when it is below the abort threshold.
    """

    estimate: complex
    stderr: float
    n_paths: int
    seed: int
    overflow_fraction: float = 0.0


def mc_stats(values: np.ndarray, antithetic: bool = False) -> tuple[complex, float]:
    """Mean and standard error of a (possibly complex) sample array.

    With ``antithetic`` the first and second halves are treated as mirrored
    pairs: statistics are computed over the pair means.
    """
    values = np.asarray(values)
    if values.size == 0:
        raise ValueError("empty sample")
    if antithetic:
        if values.shape[0] % 2 != 0:
            raise ValueError("antithetic statistics need an even sample count")
        half = values.shape[0] // 2
        values = 0.5 * (values[:half] + values[half:])
    # Real and imaginary means separately, so a real-valued sample averages
    # bit for bit as it would as a real array.
    mean = complex(np.mean(values.real), np.mean(values.imag))
    n = values.shape[0]
    if n == 1:
        return mean, 0.0
    var = np.var(values.real, ddof=1) + np.var(values.imag, ddof=1)
    return mean, float(np.sqrt(var / n))


#: What :func:`gate` returns: the acceptance band, whether the deviation lies within it, and ``deviation / stderr``.
Gate = namedtuple("Gate", "band passed z")


def gate(deviation, stderr, k: float, *allowances) -> Gate:
    """The band ``k * stderr + a1 + a2 + ...``, summed left to right, against ``deviation``, elementwise.

    At a zero ``stderr`` the allowances alone judge, and ``z`` is NaN (zero deviation) or infinite.
    """
    band = k * stderr
    for allowance in allowances:
        band = band + allowance
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.divide(deviation, stderr)
    return Gate(band, deviation <= band, z)


def run_chunks(worker, n_items: int, threads: int = 1, chunk: int = rng.CHUNK) -> list:
    """Apply ``worker(stream_index, start, stop)`` over fixed chunks of ``range(n_items)``.

    Results come back ordered by chunk index regardless of thread count, so
    any deterministic reduction over them is reproducible.
    """
    bounds = list(rng.chunk_bounds(n_items, chunk))
    if threads <= 1 or len(bounds) <= 1:
        return [worker(*b) for b in bounds]
    from concurrent.futures import ThreadPoolExecutor  # loads logging: only threaded runs pay for it

    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(worker, *b) for b in bounds]
        return [f.result() for f in futures]
