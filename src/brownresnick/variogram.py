"""Fractional variogram models and the Gaussian kernels they induce.

The variogram ``gamma(t) = scale * |t|**alpha / 2`` fully parameterizes the
max-stable field simulated by this package.  Two Gaussian fields derive
from it:

* ``W``: centered, stationary increments, variance ``2*gamma`` (the
  convention ``Var W(t) / 2 = gamma(t)`` is used throughout), so
  ``Cov(W(s), W(t)) = gamma(s) + gamma(t) - gamma(s - t)``.
* ``Z``: same covariance kernel, mean ``-gamma``, pinned to zero at the
  origin.  ``Z`` drives the distributional oracles and the Pickands /
  extremal-index estimators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .streams import positive_int


@dataclass(frozen=True)
class VariogramModel:
    """Fractional variogram ``gamma(t) = scale * |t|**alpha / 2``.

    Parameters
    ----------
    alpha : float
        Roughness exponent, in (0, 2].  Smaller values give rougher paths;
        ``alpha == 2`` yields a degenerate rank-``dim`` field of random
        paraboloids.
    scale : float
        Positive, finite multiplier.
    dim : int
        Dimension of the index space, >= 1.
    """

    alpha: float
    scale: float = 1.0
    dim: int = 1

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")
        if not 0.0 < self.scale < np.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        object.__setattr__(self, "dim", positive_int("dim", self.dim))


def as_points(model: VariogramModel, t) -> np.ndarray:
    """Coerce ``t`` to a (k, dim) float array, validating the dimension.

    Accepts a scalar (dim 1 only), a single point of shape (dim,), a list
    of scalar sites when dim is 1, or a batch of shape (k, dim).
    """
    arr = np.asarray(t, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1) if model.dim == 1 else arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != model.dim:
        raise ValueError(
            f"point has dimension {arr.shape[-1]}, model has dim {model.dim}"
        )
    return arr


def _gamma_points(model: VariogramModel, pts: np.ndarray) -> np.ndarray:
    sq = (pts * pts).sum(axis=1)
    return model.scale * sq ** (model.alpha / 2.0) / 2.0


def gamma(model: VariogramModel, t):
    """Variogram value ``scale * ||t||**alpha / 2`` (vectorized over points)."""
    out = _gamma_points(model, as_points(model, t))
    return out[0] if out.shape[0] == 1 else out


def cov_w(model: VariogramModel, s, t):
    """Covariance of W: ``gamma(s) + gamma(t) - gamma(s - t)``."""
    ps, pt = np.broadcast_arrays(as_points(model, s), as_points(model, t))
    out = _gamma_points(model, ps) + _gamma_points(model, pt) - _gamma_points(model, ps - pt)
    return out[0] if out.shape[0] == 1 else out


def pairwise_gamma(model: VariogramModel, points) -> np.ndarray:
    """(n, n) matrix of ``gamma(t_j - t_k)`` over ``points``, assembled as
    ``_covariance`` assembles it: the work space is at most two (n, n)
    arrays in any dimension, and the diagonal is exactly zero."""
    return _covariance(model, as_points(model, points), None)


def covariance_matrix(model: VariogramModel, points) -> np.ndarray:
    """Assemble the (n, n) covariance matrix of W over ``points``."""
    pts = as_points(model, points)
    return _covariance(model, pts, _gamma_points(model, pts))


def _covariance(model: VariogramModel, pts: np.ndarray, g) -> np.ndarray:
    """The covariance of W over the (k, dim) points ``pts``, given their
    gamma values ``g``: ``g_j + g_l - gamma(t_j - t_l)``; with ``g`` None,
    the matrix of ``gamma(t_j - t_l)`` alone.

    Every pass reads contiguous memory, and none leaves its data unchanged.
    Each axis's differences come from a contiguous copy of its coordinate
    column, and their squares are summed into one (k, k) array, from the
    second axis on through one (k, k) work array.  The power is skipped at
    alpha 1 (``x ** 1.0 == x``) and the product at scale 1; the halving is
    its own pass, a product with 0.5, which rounds as a division by 2 does.
    ``g_j + g_l`` is formed in the work array and subtracted into the first
    in place, so at most two (k, k) arrays are live.
    """
    col = np.ascontiguousarray(pts[:, 0])
    out = np.subtract.outer(col, col)
    out *= out
    work = None
    for axis in range(1, pts.shape[1]):
        col = np.ascontiguousarray(pts[:, axis])
        work = np.subtract.outer(col, col, out=work)
        work *= work
        out += work
    np.sqrt(out, out=out)
    if model.alpha != 1.0:
        out **= model.alpha
    if model.scale != 1.0:
        out *= model.scale
    out *= 0.5
    if g is not None:
        np.subtract(np.add.outer(g, g, out=work), out, out=out)
    return out
