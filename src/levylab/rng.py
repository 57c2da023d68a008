"""Deterministic random-stream derivation.

All randomness flows through counter-based Philox streams keyed by
``(master seed, purpose tag, index)``, the keying of Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3" (SC'11).  The 128-bit Philox
key holds the seed in its first word and, in its second, a stable 32-bit
hash of the tag above the 32-bit index, so distinct triples never share a
key as long as the tags in use hash apart (a test checks every tag in the
package).  Ensembles are generated in fixed-size chunks, one index per
chunk, so results do not depend on execution order or thread count and
single paths can be regenerated without touching the rest of the ensemble.
This module is the only place that builds a generator.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

SEED_BITS = 64
INDEX_BITS = 32

# Paths per derived stream in vectorized ensembles.  Fixed constant: the
# chunk partition is part of the reproducibility contract.
CHUNK = 8192


@functools.lru_cache(maxsize=None)
def tag_hash(tag: str) -> int:
    """Stable 32-bit hash of a purpose tag (blake2b; ``hash()`` is salted per process)."""
    return int.from_bytes(hashlib.blake2b(tag.encode(), digest_size=4).digest(), "little")


def key(seed: int, tag: str, index: int = 0) -> tuple[int, int]:
    """The two 64-bit Philox key words of stream ``index`` of ``tag`` under ``seed``."""
    if not 0 <= seed < 1 << SEED_BITS:
        raise ValueError(f"seed must lie in [0, 2**{SEED_BITS}), got {seed}")
    if not 0 <= index < 1 << INDEX_BITS:
        raise ValueError(f"stream index must lie in [0, 2**{INDEX_BITS}), got {index}")
    return seed, tag_hash(tag) << INDEX_BITS | index


def stream(seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Return the Philox generator for stream ``index`` of purpose ``tag`` under master ``seed``."""
    return np.random.Generator(np.random.Philox(key=np.array(key(seed, tag, index), dtype=np.uint64)))


def chunk_bounds(n: int, chunk: int = CHUNK):
    """Yield ``(stream_index, start, stop)`` splitting ``range(n)`` into fixed chunks."""
    for idx, start in enumerate(range(0, n, chunk)):
        yield idx, start, min(start + chunk, n)
