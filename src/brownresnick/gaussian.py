"""One-time factorized Gaussian sampling of W over a fixed site set.

The covariance of ``(W(t_1), ..., W(t_n))`` is assembled and Cholesky
factorized once per site set; every subsequent draw is a matrix-vector
product.  Exactly coinciding sites are deduplicated (the field takes a
single value there almost surely) and sites at the origin are pinned to
zero rather than factorized, because ``Cov(W(0), W(t)) = 0`` makes their
covariance row identically zero.
"""

from __future__ import annotations

import csv

import numpy as np
from scipy.spatial.distance import cdist

from .streams import RandomStream
from .variogram import VariogramModel, as_points, covariance_matrix


class FactorizationError(RuntimeError):
    """Covariance factorization failed even after maximum jitter escalation."""


class SiteSet:
    """Evaluation sites ``t_1 .. t_n`` with duplicate bookkeeping.

    Attributes
    ----------
    points : (n, d) ndarray
        Raw sites in input order.
    rep_points : (m, d) ndarray
        Pairwise-distinct representative sites, m <= n.
    rep_index : (n,) ndarray of int
        Maps each raw site to its representative's row in ``rep_points``.
    """

    def __init__(self, points):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 0:
            pts = pts.reshape(1, 1)
        elif pts.ndim == 1:
            # A flat vector is read as scalar sites on the line (d = 1).
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.size == 0:
            raise ValueError("site set must be a nonempty (n, d) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("site coordinates must be finite")
        self.points = pts
        self.rep_points, self.rep_index = np.unique(pts, axis=0, return_inverse=True)
        self.rep_index = self.rep_index.reshape(-1)

    @classmethod
    def from_points(cls, points) -> "SiteSet":
        if isinstance(points, SiteSet):
            return points
        return cls(points)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def num_representatives(self) -> int:
        return self.rep_points.shape[0]

    def shifted(self, offset) -> "SiteSet":
        """New SiteSet translated by ``offset``."""
        return SiteSet(self.points + np.asarray(offset, dtype=np.float64))

    def __repr__(self) -> str:  # pragma: no cover
        return f"SiteSet(n={self.n}, dim={self.dim}, reps={self.num_representatives})"


def box_grid(low, high, mesh) -> np.ndarray:
    """Regular grid over the box [low, high] with the given mesh per axis.

    ``low``, ``high`` and ``mesh`` broadcast to the box dimension.  Both
    endpoints are included, so the mesh must divide ``high - low`` on every
    axis; a zero-length axis contributes the single coordinate ``low``.
    Points are returned in row-major order, first axis slowest.
    """
    low = np.atleast_1d(np.asarray(low, dtype=np.float64))
    high = np.atleast_1d(np.asarray(high, dtype=np.float64))
    mesh = np.broadcast_to(np.asarray(mesh, dtype=np.float64), low.shape).copy()
    if low.ndim != 1 or low.shape != high.shape:
        raise ValueError("low and high must be vectors of equal length")
    if np.any(high < low):
        raise ValueError("box must satisfy high >= low on every axis")
    if np.any(mesh <= 0.0):
        raise ValueError("mesh must be positive")
    axes = []
    for lo, hi, m in zip(low, high, mesh):
        span = hi - lo
        k = int(round(span / m))
        if abs(k * m - span) > 1e-9 * max(1.0, abs(span)):
            raise ValueError(f"mesh {m} does not divide the span [{lo}, {hi}]")
        axes.append(np.linspace(lo, hi, k + 1))
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def load_sites_csv(path, header: bool = False) -> SiteSet:
    """Read sites from a CSV file with d numeric columns, one site per row."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for i, row in enumerate(reader):
            if i == 0 and header:
                continue
            if not row:
                continue
            rows.append([float(x) for x in row])
    if not rows:
        raise ValueError(f"no sites found in {path}")
    return SiteSet(np.asarray(rows, dtype=np.float64))


class FactorizedGaussian:
    """Factorized covariance of W over a site set, ready for repeated draws.

    Holds the lower-triangular factor L with ``L @ L.T ~= cov + jitter*I``
    over the non-origin representative sites (the origin and its duplicates
    are pinned to zero and need no factor), together with the full drift
    table ``gamma(t_j - t_k)`` over raw site pairs.  Immutable after
    construction and safe to share across threads; every draw consumes a
    caller-supplied :class:`RandomStream`.
    """

    def __init__(self, sites: SiteSet, model: VariogramModel, factor_active,
                 active, jitter_used: float, drift_table):
        self.sites = sites
        self.model = model
        self.jitter_used = float(jitter_used)
        self.drift_table = drift_table    # (n, n) gamma(t_j - t_k), raw sites
        self._active = active             # representative indices factorized
        self._factor_active = factor_active  # L over the active sites

    @property
    def n(self) -> int:
        return self.sites.n

    def correlated_normals(self, stream: RandomStream, size: int) -> np.ndarray:
        """(n, size) zero-mean draws with the covariance of W at the raw sites."""
        m_act = len(self._active)
        w_rep = np.zeros((self.sites.num_representatives, size))
        if m_act:
            z = stream.normals((m_act, size))
            w_rep[self._active] = self._factor_active @ z
        return w_rep[self.sites.rep_index]

    def sample_w(self, stream: RandomStream) -> np.ndarray:
        """One draw of ``(W(t_1), ..., W(t_n))``."""
        return self.correlated_normals(stream, 1)[:, 0]

    def sample_drifted(self, anchor_index: int, stream: RandomStream) -> np.ndarray:
        """One draw of ``X_j = W(t_j) - gamma(t_j - t_anchor)``."""
        if not 0 <= anchor_index < self.n:
            raise IndexError(f"anchor index {anchor_index} out of range [0, {self.n})")
        return self.sample_w(stream) - self.drift_table[:, anchor_index]

    def __repr__(self) -> str:  # pragma: no cover
        return (f"FactorizedGaussian(n={self.n}, alpha={self.model.alpha}, "
                f"jitter={self.jitter_used:g})")


def build_sampler(sites, model: VariogramModel, *, max_jitter_factor: float = 1e-6
                  ) -> FactorizedGaussian:
    """Assemble and factorize the covariance of W over ``sites``.

    Factorization starts jitter-free and escalates a diagonal jitter by
    factors of 10 from ``1e-12 * mean_diag`` up to
    ``min(max_jitter_factor, 1) * mean_diag``.  Jitter is needed whenever
    the covariance is rank-deficient beyond the origin/duplicate structure,
    e.g. for ``alpha == 2`` where the field is a rank-``dim`` paraboloid.
    A covariance that overflows to inf or NaN raises at once.
    """
    sites = SiteSet.from_points(sites)
    as_points(model, sites.points)  # dimension check

    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        cov = covariance_matrix(model, sites.rep_points)
    is_origin = np.all(sites.rep_points == 0.0, axis=1)
    active = np.flatnonzero(~is_origin)

    def failure(reason):
        diam = float(np.max(np.hypot.reduce(
            sites.rep_points[:, None, :] - sites.rep_points[None, :, :], axis=-1)))
        return FactorizationError(
            f"{reason} for alpha={model.alpha}, scale={model.scale:g} "
            f"over sites of diameter {diam:.6g}")

    if not np.all(np.isfinite(cov)):
        raise failure("covariance overflowed to a non-finite value")
    sub_factor = np.zeros((0, 0))
    jitter_used = 0.0
    if len(active):
        sub = cov[np.ix_(active, active)]
        mean_diag = float(np.mean(np.diag(sub)))
        jitters = [0.0] + [mean_diag * 10.0 ** k for k in range(-12, 1)
                           if 10.0 ** k <= max_jitter_factor * (1 + 1e-9)]
        for j in jitters:
            try:
                sub_factor = np.linalg.cholesky(sub + j * np.eye(len(active)))
                jitter_used = j
                break
            except np.linalg.LinAlgError:
                continue
        else:  # no jitter level gave a factor
            raise failure(f"covariance factorization failed even with jitter "
                          f"{max_jitter_factor:g} * mean_diag")

    drift = model.scale * cdist(sites.points, sites.points) ** model.alpha / 2.0
    np.fill_diagonal(drift, 0.0)

    return FactorizedGaussian(sites, model, sub_factor, active, jitter_used, drift)
