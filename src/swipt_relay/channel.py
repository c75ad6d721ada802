"""Rayleigh-fading channel power gains with reproducible PRNG substreams.

Both hops experience Rayleigh fading, so the power gains |h|^2 and |g|^2 are
exponential with means lambda_h and lambda_g. Gains are drawn by inverse CDF,
x = -lambda * ln(U) with U uniform on (0, 1], so the sample stream is an exact
deterministic function of the underlying uniform stream.

The generator is pinned to numpy's PCG64 seeded through SeedSequence. This is
part of the reproducibility contract, not an implementation detail: the same
(seed, substream indices) must give bit-identical draws on any platform, and
parallel workers get independence only through substream partitioning, never
by sharing a stream.
"""
from __future__ import annotations

import numpy as np

from .params import FadingParams

__all__ = [
    "substream",
    "sample_gains",
    "sample_channels",
]


def substream(parent_seed: int, *indices: int) -> np.random.Generator:
    """Independent stream for a (parent_seed, index path) pair.

    SeedSequence mixes the spawn key into the pool, so distinct index paths
    give statistically independent streams while staying deterministic.
    """
    ss = np.random.SeedSequence(parent_seed, spawn_key=tuple(int(i) for i in indices))
    return np.random.Generator(np.random.PCG64(ss))


def sample_gains(rng: np.random.Generator, lam: float, n: int, out=None) -> np.ndarray:
    """Draw n exponential power gains with mean lam by inverse CDF, into out
    (a float64 array of n elements) if given. Returns the gains."""
    u = rng.random(n, out=out)  # in [0, 1); 1-u is in (0, 1], so log never sees 0
    # -lam * log1p(-u), computed in u's own buffer: the same operations, so the
    # same bits, with no temporary arrays.
    np.negative(u, out=u)
    np.log1p(u, out=u)
    u *= -lam
    return u


def sample_channels(rng, fading: FadingParams, n: int, out=(None, None)):
    """Draw n i.i.d. (|h|^2, |g|^2) pairs, into the pair of arrays out if
    given. The h block is always drawn first."""
    h_out, g_out = out
    return (sample_gains(rng, fading.lambda_h, n, h_out),
            sample_gains(rng, fading.lambda_g, n, g_out))
