"""Poisson points in decreasing order and anchor-site sampling.

The points ``V_1 > V_2 > ...`` of a Poisson process with intensity
``exp(-x) dx`` on the line are generated through the standard duality
``V_k = -log(Gamma_k)``, where ``Gamma_k`` is the running sum of i.i.d.
standard exponentials (a unit-rate Poisson process on the positive axis).
Anchor sites are drawn independently from a discrete probability measure
on the evaluation sites.
"""

from __future__ import annotations

import numpy as np

from .streams import RandomStream


class SamplingMeasure:
    """Discrete probability weights ``w_1 .. w_n`` on the evaluation sites.

    Weights must be finite and strictly positive; they are normalized on
    construction and the logs are cached.
    """

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64).reshape(-1)
        if w.size == 0:
            raise ValueError("measure needs at least one weight")
        if not np.all(np.isfinite(w) & (w > 0.0)):
            raise ValueError("all measure weights must be finite and strictly positive")
        w = w / w.sum()
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights failed to normalize to 1")
        self.weights = w
        self.log_weights = np.log(w)
        self._cumulative = np.cumsum(w)

    @classmethod
    def uniform(cls, n: int) -> "SamplingMeasure":
        return cls(np.full(int(n), 1.0 / int(n)))

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def __repr__(self) -> str:  # pragma: no cover
        return f"SamplingMeasure(n={self.n})"


class VStream:
    """Emitter of the Poisson points ``V_1 > V_2 > ...`` in strict order."""

    def __init__(self, stream: RandomStream):
        self.stream = stream
        self.gamma_sum = 0.0

    def next_v(self) -> float:
        """Next point ``V_k = -log(Gamma_k)``; strictly below all previous."""
        self.gamma_sum += self.stream.exponential()
        return -np.log(self.gamma_sum)


def sample_anchor(measure: SamplingMeasure, stream: RandomStream) -> int:
    """Draw a site index with probability ``measure.weights``."""
    u = stream.uniforms()
    idx = int(np.searchsorted(measure._cumulative, u, side="right"))
    return min(idx, measure.n - 1)
