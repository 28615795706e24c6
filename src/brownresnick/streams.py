"""Counter-based uniform random streams for reproducible Monte Carlo.

Every stream is keyed by a ``(seed, stream_id)`` pair and backed by the
Philox counter-based generator, so streams with distinct keys are
statistically independent and a stream's output depends only on its key
and on how many values have been drawn from it.  The simulator keys one
stream per sample as ``(seed, replication)`` and draws everything for
that sample from it in a fixed order; the Monte Carlo oracles key theirs
as ``(seed, 0)`` and ``(seed, 1)``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_MASK64 = (1 << 64) - 1
_TINY = np.finfo(np.float64).tiny


def mask64(value: int) -> int:
    """Reduce an integer to its low 64 bits (Python ints may be signed/huge)."""
    return int(value) & _MASK64


class RandomStream:
    """Independent uniform stream keyed by ``(seed, stream_id)``.

    Normals are produced by inverse-CDF transform of the uniform output
    rather than by rejection methods, so the uniform-to-normal mapping is
    deterministic and platform independent at full double accuracy.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = mask64(seed)
        self.stream_id = mask64(stream_id)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniforms(self, size=None):
        """Uniform draws on [0, 1)."""
        return self._gen.random(size)

    def normals(self, size=None):
        """Standard normal draws via the inverse normal CDF."""
        u = self._gen.random(size)
        # u == 0 occurs with probability 2^-53 per draw; ndtri(0) is -inf.
        return ndtri(np.maximum(u, _TINY))

    def exponential(self) -> float:
        """One Exp(1) draw, guaranteed strictly positive."""
        e = -np.log1p(-self._gen.random())
        return float(e) if e > 0.0 else float(_TINY)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"
