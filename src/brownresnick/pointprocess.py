"""Poisson points in decreasing order and anchor-site sampling.

The points ``V_1 > V_2 > ...`` of a Poisson process with intensity
``exp(-x) dx`` on the line are generated through the standard duality
``V_k = -log(Gamma_k)``, where ``Gamma_k`` is the running sum of i.i.d.
standard exponentials (a unit-rate Poisson process on the positive axis).
Anchor sites are drawn independently from a discrete probability measure
on the evaluation sites.  Both take one uniform each, so a cluster's row of
m + 2 uniforms starts with its Poisson point's and then its anchor's.  The
simulator's one row reader, ``simulator._rows``, draws these rows in blocks,
maps a block's anchor column through ``SamplingMeasure.anchors`` at once and
hands each cluster its Poisson uniform for ``poisson_point``.
"""

from __future__ import annotations

import numpy as np

from .streams import _TINY


def poisson_point(gamma_sum: float, u: float) -> tuple[float, float]:
    """Next ``(Gamma_k, V_k)`` from ``Gamma_{k-1}`` and one uniform ``u``.

    The increment is the Exp(1) draw ``-log(1 - u)``, raised to the
    smallest positive double when ``u == 0``, so the points are strictly
    decreasing.
    """
    e = -np.log1p(-u)
    gamma_sum += e if e > 0.0 else _TINY
    return gamma_sum, -np.log(gamma_sum)


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
        n = int(n)
        return cls(np.full(n, 1.0 / max(n, 1)))

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def anchors(self, u):
        """Site indices with probabilities ``weights``, one per uniform in ``u``."""
        # The last cumulative weight can round below 1; clamp onto the last site.
        return np.minimum(np.searchsorted(self._cumulative, u, side="right"),
                          self.n - 1)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SamplingMeasure(n={self.n})"
