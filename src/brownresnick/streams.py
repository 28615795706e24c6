"""Counter-based uniform random streams for reproducible Monte Carlo.

Every stream is keyed by a ``(seed, stream_id)`` pair and backed by the
Philox counter-based generator, so streams with distinct keys are
statistically independent and a stream's output depends only on its key
and on how many values have been drawn from it.  A stream checks its seed
by the one seed rule, ``seed_int``, when it is built; ``rekey`` checks
nothing, so the per-sample path does no check.  Every consumer reads its
stream as rows of uniforms, one row per draw.  A Gaussian draw maps the
row's last m uniforms through ``to_normals`` and one product with the
factor (``gaussian.FactorizedGaussian.from_normals``), m being the number
of factorized sites; on large grids the product reads only the factor's
nonzero prefix in each block of rows, which changes its rounding, never
the uniforms a draw reads.  The simulator reads one stream per sample, keyed
``(seed, replication)``; a run builds one generator and re-keys it for each
sample (``RandomStream.rekey``), which gives the same draws as a new stream
without numpy seeding a fresh Philox from OS entropy first.  A row is m + 2
uniforms per cluster (its Poisson point, its anchor, then m normals) and
m + 1 per ``simulate_naive`` point (no anchor).  The Monte Carlo oracles key
theirs as ``(seed, 0)`` and ``(seed, 1)``; a row is m normals' uniforms,
with no leading columns.  Consumers draw rows in blocks of their own
choosing (``simulator``, ``statseval.mc_mean``), one ``uniforms`` call per
block.  A block of rows holds the same values as that many one-row calls,
so draw k reads the same uniforms whatever the block size.
``RandomStream.seek`` restarts a stream at any uniform, with the same draws
from there on as a stream read up to it.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
from scipy.special import ndtri

_MASK64 = (1 << 64) - 1
_TINY = np.finfo(np.float64).tiny


def mask64(value: int) -> int:
    """Reduce an integer to its low 64 bits (Python ints may be signed/huge)."""
    return int(value) & _MASK64


def _whole(value) -> bool:
    """An integer, or a finite number with no fractional part."""
    try:
        return isinstance(value, numbers.Integral) or (
            math.isfinite(value) and value == int(value))
    except TypeError:
        return False


def positive_int(name: str, value) -> int:
    """``int(value)`` for a count: a finite whole number of at least 1."""
    if not (_whole(value) and value >= 1):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def seed_int(seed) -> int:
    """The key word of a seed: a Python or numpy integer, or a finite float
    with no fractional part (7.0 is seed 7), reduced by ``mask64``."""
    if not _whole(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    return mask64(seed)


def to_normals(u: np.ndarray) -> np.ndarray:
    """Standard normals from uniforms on [0, 1) by the inverse CDF, in place."""
    # u == 0 occurs with probability 2^-53 per draw; ndtri(0) is -inf.
    np.maximum(u, _TINY, out=u)
    return ndtri(u, out=u)


class RandomStream:
    """Independent uniform stream keyed by ``(seed, stream_id)``.

    Its consumers turn uniforms into normals by ``to_normals``, the inverse
    CDF, rather than by rejection methods, so the uniform-to-normal mapping
    is deterministic and platform independent at full double accuracy.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = seed_int(seed)
        self.stream_id = mask64(stream_id)
        self._gen = np.random.Generator(np.random.Philox(key=self._key()))

    def _key(self) -> np.ndarray:
        return np.array([self.seed, self.stream_id], dtype=np.uint64)

    def rekey(self, stream_id: int) -> None:
        """Restart as stream ``(seed, stream_id)``, whatever has been drawn.

        The draws that follow are the same bytes as those of a new
        ``RandomStream(seed, stream_id)``.
        """
        self.stream_id = mask64(stream_id)
        self.seek(0)

    def seek(self, draws: int) -> None:
        """Restart the same key at uniform number ``draws``, whatever has been drawn.

        Philox makes its uniforms four per counter step, so the state
        becomes the key with the counter at ``draws // 4`` and an empty
        buffer, and ``draws % 4`` uniforms are then discarded: the draws that
        follow are those of a new stream from uniform ``draws`` on.
        """
        if draws < 0:
            raise ValueError(f"draws must be non-negative, got {draws}")
        steps, skip = divmod(int(draws), 4)
        self._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.array([steps, 0, 0, 0], dtype=np.uint64),
                      "key": self._key()},
            "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0,
        }
        if skip:
            self._gen.random(skip)

    def uniforms(self, size=None):
        """Uniform draws on [0, 1)."""
        return self._gen.random(size)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"
