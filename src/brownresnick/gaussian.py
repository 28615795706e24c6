"""One-time factorized Gaussian sampling of W over a fixed site set.

The covariance of ``(W(t_1), ..., W(t_n))`` is assembled and Cholesky
factorized once per site set; every subsequent draw is one product of the
factor with a block of standard normals.  Exactly coinciding sites are
deduplicated (the field takes a single value there almost surely) and
sites at the origin are pinned to zero rather than factorized, because
``Cov(W(0), W(t)) = 0`` makes their covariance row identically zero.  The
m remaining distinct sites are factorized, and the stored factor has one
row per raw site: the Cholesky row of its representative, or zeros at the
origin.  A draw reads m standard normals from its stream (``streams``)
and maps them through one product with the factor; ``from_normals`` also
applies a cluster's tilt by its anchor site T, the Cameron-Martin
shift of the normals by row T of the factor, and ``from_tilted_normals``
takes normals already shifted, at every site or at a subset of the rows.
How the simulator groups its draws into blocks, and screens them on a
subset of the rows, is told in ``simulator``.

Row j of the factor is zero past column ``rep(j)``, its representative's
rank, so the product need not read the rest.  The sampler records, per
block of ``_ROWS`` raw rows, the width of the block's nonzero column
prefix, and the product multiplies each block by its prefix alone.  On
``box_grid`` sets of a few hundred sites or more, where raw order is
representative order and the factor is lower-triangular, the early blocks
skip most columns; a set of at most ``_ROWS`` sites is one block, one
product with the whole factor.
"""

from __future__ import annotations

import math

import numpy as np

from .variogram import VariogramModel, as_points, covariance_matrix, gamma

# Largest diagonal jitter tried, as a fraction of the mean covariance diagonal.
_MAX_JITTER_FACTOR = 1e-6

# Raw rows of the factor per block of the prefix product.
_ROWS = 128


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
    endpoints are included, so the mesh, positive and finite, must divide
    ``high - low`` on every axis; a zero-length axis contributes the single
    coordinate ``low``.
    Points are returned in row-major order, first axis slowest.
    """
    axes = [np.linspace(lo, hi, k + 1) for lo, hi, k in _grid_axes(low, high, mesh)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _grid_axes(low, high, mesh) -> list:
    """``(low, high, intervals)`` of each axis of ``box_grid``'s box, checked
    as ``box_grid`` documents; the grid has ``prod(intervals + 1)`` points."""
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
    for lo, hi, m in zip(low.tolist(), high.tolist(), mesh.tolist()):
        span = hi - lo
        if not (math.isfinite(span / m) and math.isfinite(m)):  # inf bound or mesh, overflow
            raise ValueError(f"mesh {m} over the span [{lo}, {hi}] gives no finite grid")
        k = int(round(span / m))
        if abs(k * m - span) > 1e-9 * max(1.0, abs(span)):
            raise ValueError(f"mesh {m} does not divide the span [{lo}, {hi}]")
        axes.append((lo, hi, k))
    return axes


def read_csv(path, header: bool = False) -> np.ndarray:
    """The numbers of a comma-separated file, one array row per line: the one
    reader of site and weight files.  ``#`` starts a comment; blank lines, and
    line 1 with ``header``, are skipped.  Errors name the first bad line."""
    rows = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            text = line.split("#", 1)[0]
            if (header and number == 1) or not text.strip():
                continue
            try:
                row = [float(x) for x in text.split(",")]
            except ValueError:
                raise ValueError(f"line {number}: {line.strip()!r} is not a "
                                 "comma-separated row of numbers") from None
            if rows and len(row) != len(rows[0]):
                raise ValueError(f"line {number} has {len(row)} values where "
                                 f"the first row has {len(rows[0])}")
            rows.append(row)
    return np.array(rows, dtype=np.float64)


def load_sites_csv(path, header: bool = False) -> SiteSet:
    """Sites from a CSV file (``read_csv``), one site of d values per row."""
    return SiteSet(read_csv(path, header))


class FactorizedGaussian:
    """Factorized covariance of W over a site set, ready for repeated draws.

    ``factor`` is the (n, m) matrix F with ``F @ F.T ~= cov + jitter*I`` at
    the raw sites, m the number of distinct sites off the origin.  Row j is
    the lower-triangular Cholesky row of site j's representative, so
    duplicates share a row and sites at the origin get a zero row; with
    duplicates F is larger than the m x m Cholesky factor.  ``gamma`` holds
    ``gamma(t_j)`` at the raw sites.  ``widths`` lists, per block of
    ``_ROWS`` raw rows, the width of the block's nonzero column prefix.
    Immutable after construction and safe to share across threads; every
    draw is one product of the factor with normals the caller draws.
    """

    def __init__(self, sites: SiteSet, model: VariogramModel, factor,
                 jitter_used: float, gamma, widths):
        self.sites = sites
        self.model = model
        self.jitter_used = float(jitter_used)
        self.factor = factor    # (n, m), one row per raw site
        self.gamma = gamma      # (n,) gamma(t_j), raw sites
        self._widths = widths   # nonzero prefix width per _ROWS raw rows

    @property
    def n(self) -> int:
        return self.sites.n

    @property
    def m(self) -> int:
        """Standard normals per draw: the distinct sites off the origin."""
        return self.factor.shape[1]

    def from_normals(self, z: np.ndarray, anchors=None) -> np.ndarray:
        """Draws of ``(W(t_1), ..., W(t_n))`` from standard normals ``z``, or
        with anchor sites T, of W tilted by ``e^{W(T) - gamma(T)}``, less
        ``gamma``.

        ``z`` holds m normals, or is an (m, k) array with one draw's normals
        per column, and the result is the (n,) or (n, k) array
        ``factor @ z``, one product per block of ``_ROWS`` rows over the
        block's nonzero column prefix.  With one block that is the dense
        product; with more it differs from it only by rounding.
        ``anchors`` is one site index, or k of them, one per column.  For a
        Gaussian the tilt is the Cameron-Martin shift of the mean by
        ``Cov(., T)``, here that of the jittered covariance the factor draws,
        so the result is ``factor @ (z + factor[T]) - gamma``.  It equals
        ``W - gamma(. - T)`` plus the constant ``gamma(T)`` plus
        ``jitter_used`` at T's own sites.  The tilted result is the
        transpose of a C-ordered (k, n) array, so each draw's values lie in
        one contiguous row of ``x.T``; the untilted one is C-ordered (n, k),
        one draw per column.
        """
        if anchors is None:
            return self._product(z, np.empty((self.n,) + z.shape[1:]))
        anchors = np.asarray(anchors)
        if anchors.min() < 0 or anchors.max() >= self.n:
            raise IndexError(f"anchor index {anchors} out of range [0, {self.n})")
        return self.from_tilted_normals(z + self.factor[anchors].T)

    def from_tilted_normals(self, z: np.ndarray, rows=None) -> np.ndarray:
        """``from_normals(z - factor[T].T, T)``: draws less ``gamma`` from
        normals ``z`` that already carry their anchors' tilt, at every raw
        site or at the increasing raw site indices ``rows`` alone.

        The result ``factor[rows] @ z - gamma[rows]`` has ``from_normals``'
        tilted layout, the transpose of a C-ordered (k, len(rows)) array.
        With ``rows``, the factor's rows are gathered at most ``_ROWS`` at a
        time, each group over the nonzero prefix of the row blocks it spans,
        so a gathered copy holds at most ``_ROWS`` rows.
        """
        x = np.empty(z.shape[1:] + (self.n if rows is None else len(rows),)).T
        self._product(z, x, rows)
        np.subtract(x.T, self.gamma if rows is None else self.gamma[rows], out=x.T)
        return x

    def _product(self, z: np.ndarray, out: np.ndarray, rows=None) -> np.ndarray:
        """``factor[rows] @ z`` (every row by default) written into ``out``,
        one block of at most ``_ROWS`` rows at a time over its nonzero column
        prefix."""
        if rows is None:
            for b, width in enumerate(self._widths):
                block = slice(b * _ROWS, (b + 1) * _ROWS)
                np.matmul(self.factor[block, :width], z[:width], out=out[block])
            return out
        for start in range(0, len(rows), _ROWS):
            group = rows[start:start + _ROWS]
            width = max(self._widths[group[0] // _ROWS:group[-1] // _ROWS + 1])
            np.matmul(self.factor[group, :width], z[:width],
                      out=out[start:start + _ROWS])
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return (f"FactorizedGaussian(n={self.n}, alpha={self.model.alpha}, "
                f"jitter={self.jitter_used:g})")


def build_sampler(sites, model: VariogramModel) -> FactorizedGaussian:
    """Assemble and factorize the covariance of W over ``sites``.

    Factorization starts jitter-free and escalates a diagonal jitter by
    factors of 10 from ``1e-12 * mean_diag`` up to ``1e-6 * mean_diag``.
    Jitter is needed whenever the covariance is rank-deficient beyond the
    origin/duplicate structure, e.g. for ``alpha == 2`` where the field is
    a rank-``dim`` paraboloid.  A covariance that overflows to inf or NaN
    raises at once.
    """
    sites = SiteSet.from_points(sites)
    as_points(model, sites.points)  # dimension check

    # The factorized sites: the representatives off the origin, in
    # representative order.
    is_origin = np.all(sites.rep_points == 0.0, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        g = np.atleast_1d(gamma(model, sites.points))
        cov = covariance_matrix(model, sites.rep_points[~is_origin])

    def failure(reason):
        # The largest distance one row at a time: no (m, m, d) difference array.
        pts = sites.rep_points
        diam = float(max(np.hypot.reduce(pts - p, axis=-1).max() for p in pts))
        return FactorizationError(
            f"{reason} for alpha={model.alpha}, scale={model.scale:g} "
            f"over sites of diameter {diam:.6g}")

    # gamma(t_j) is half of cov's diagonal entry at t_j off the origin and 0
    # at it: a finite cov means a finite gamma.
    if not np.all(np.isfinite(cov)):
        raise failure("covariance overflowed to a non-finite value")
    sub_factor = np.zeros((1, 0))  # every site at the origin: rows of width 0
    jitter_used = 0.0
    if len(cov):
        mean_diag = float(np.mean(np.diag(cov)))
        jitters = [0.0] + [mean_diag * 10.0 ** k for k in range(-12, 1)
                           if 10.0 ** k <= _MAX_JITTER_FACTOR * (1 + 1e-9)]
        for j in jitters:
            try:
                sub_factor = np.linalg.cholesky(
                    cov + j * np.eye(len(cov)) if j else cov)
                jitter_used = j
                break
            except np.linalg.LinAlgError:
                continue
        else:  # no jitter level gave a factor
            raise failure(f"covariance factorization failed even with jitter "
                          f"{_MAX_JITTER_FACTOR:g} * mean_diag")

    # Raw site j takes the Cholesky row of its representative, and sites at
    # the origin a zeroed row, in one (n, m) allocation.
    row = np.cumsum(~is_origin)[sites.rep_index] - 1
    at_origin = is_origin[sites.rep_index]
    factor = sub_factor[np.maximum(row, 0)]
    factor[at_origin] = 0.0

    # Cholesky row i is zero past column i, so raw row j's nonzero prefix is
    # row[j] + 1 wide, and 0 at the origin.
    widths = np.maximum.reduceat(np.where(at_origin, 0, row + 1),
                                 np.arange(0, sites.n, _ROWS)).tolist()

    return FactorizedGaussian(sites, model, factor, jitter_used, g, widths)
