"""Poisson points in decreasing order and anchor-site sampling.

The points ``V_1 > V_2 > ...`` of a Poisson process with intensity
``exp(-x) dx`` on the line are generated through the standard duality
``V_k = -log(Gamma_k)``, where ``Gamma_k`` is the running sum of i.i.d.
standard exponentials (a unit-rate Poisson process on the positive axis).
Anchor sites are drawn independently from a discrete probability measure
on the evaluation sites.  Both take one uniform each.
``poisson_points`` carries the Gamma sum from one block of rows to the
next, and ``SamplingMeasure.anchors`` looks up a block's anchors at once;
how the rows are read is ``simulator._blocks``'s.
"""

from __future__ import annotations

import numpy as np

from .streams import positive_int

_TINY = np.finfo(np.float64).tiny


def poisson_points(gamma_sum: float, u) -> tuple[float, np.ndarray]:
    """The next points ``V_k, V_{k+1}, ...`` from ``Gamma_{k-1}``, one uniform each.

    Returns the last Gamma sum, to carry into the next call, and the points.
    Each increment is the Exp(1) draw ``-log(1 - u)``, raised to the smallest
    positive double when ``u == 0``, so the points are strictly decreasing.
    ``np.cumsum`` adds in sequence, so a block of uniforms gives the same
    sums, and points, as one call per uniform.
    """
    e = -np.log1p(-np.asarray(u, dtype=np.float64))
    gamma = np.where(e > 0.0, e, _TINY)
    gamma[0] += gamma_sum
    np.cumsum(gamma, out=gamma)
    return float(gamma[-1]), -np.log(gamma)


class SamplingMeasure:
    """Discrete probability weights ``w_1 .. w_n`` on the evaluation sites.

    Weights must be finite and strictly positive; they are normalized on
    construction, first divided by the largest when their sum overflows,
    and the logs are cached.  A weight so small against the others that it
    normalizes to 0 is rejected: its log would be -inf, and the stopping
    bound with it, so no sample could stop.
    """

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64).reshape(-1)
        if w.size == 0:
            raise ValueError("measure needs at least one weight")
        if not (np.isfinite(w) & (w > 0.0)).all():
            raise ValueError("all measure weights must be finite and strictly positive")
        with np.errstate(over="ignore"):
            total = w.sum()
        if total == np.inf:
            w = w / w.max()
            total = w.sum()
        w = w / total
        if not (w > 0.0).all():
            raise ValueError(f"measure weight {int(np.argmin(w))} normalizes to 0: "
                             f"it is too small against the sum of the weights")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights failed to normalize to 1")
        self.weights = w
        self.log_weights = np.log(w)
        self._cumulative = np.cumsum(w)

    @classmethod
    def uniform(cls, n: int) -> "SamplingMeasure":
        n = positive_int("n", n)
        return cls(np.full(n, 1.0 / n))

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
