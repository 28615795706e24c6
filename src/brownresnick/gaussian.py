"""One-time factorized Gaussian sampling of W over a fixed site set.

The covariance of ``(W(t_1), ..., W(t_n))`` is assembled and Cholesky
factorized once per site set; every subsequent draw is one product of the
factor with a block of standard normals.  Exactly coinciding sites are
deduplicated (the field takes a single value there almost surely) and
sites at the origin are pinned to zero rather than factorized, because
``Cov(W(0), W(t)) = 0`` makes their covariance row identically zero.  The
m remaining distinct sites are factorized, and the stored factor has one
row per raw site: the Cholesky row of its representative, or zeros at the
origin.  A draw maps m standard normals through one product with the
factor, less ``gamma``: ``from_normals`` is the one draw, at every site
or at a subset of the rows.  A cluster's tilt by its anchor is
``simulator._simulate``'s.

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

from .variogram import VariogramModel, _covariance, _gamma_points, as_points

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
        Pairwise-distinct representative sites, m <= n, in lexicographic
        order with the first coordinate primary.
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
        if not np.isfinite(pts).all():
            raise ValueError("site coordinates must be finite")
        self.points = pts
        # np.unique(pts, axis=0, return_inverse=True) from one stable sort:
        # a representative is the first of its equal rows in sorted order,
        # and -0.0 equals 0.0.
        order = np.lexsort(pts.T[::-1])
        ranked = pts[order]
        first = np.empty(len(pts), dtype=bool)
        first[0] = True
        (ranked[1:] != ranked[:-1]).any(axis=1, out=first[1:])
        self.rep_points = ranked[first]
        self.rep_index = np.empty(len(pts), dtype=np.intp)
        self.rep_index[order] = np.cumsum(first) - 1

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
    ``gamma(t_j)`` at the raw sites.  ``_widths`` lists, per block of
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

    def from_normals(self, z: np.ndarray, rows=None) -> np.ndarray:
        """Draws of ``W - gamma`` from standard normals ``z``, at every raw
        site or at the increasing raw site indices ``rows`` alone.

        ``z`` holds m normals, or is an (m, k) array with one draw's normals
        per column; the result is the C-ordered (len(rows),) or
        (len(rows), k) array ``factor[rows] @ z - gamma[rows]``.  Each group
        of ``_ROWS`` rows, a view if consecutive and a copy otherwise, is
        multiplied over the nonzero column prefix of the row blocks it
        spans: with one block the dense product, with more the same up to
        rounding.
        """
        rows = np.arange(self.n) if rows is None else rows
        x = np.empty((len(rows),) + z.shape[1:])
        for start in range(0, len(rows), _ROWS):
            group = rows[start:start + _ROWS]
            lo, hi = group[0], group[-1] + 1
            if hi - lo == len(group):  # consecutive rows: a view, not a copy
                group = slice(lo, hi)
            width = max(self._widths[lo // _ROWS:(hi - 1) // _ROWS + 1])
            np.matmul(self.factor[group, :width], z[:width], out=x[start:start + _ROWS])
        np.subtract(x.T, self.gamma[rows], out=x.T)
        return x

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

    # The factorized sites: the representatives off the origin, in
    # representative order.  Each takes gamma from a raw site it stands for,
    # whose coordinates are equal to its own (-0.0 for 0.0 at most).
    is_origin = ~sites.rep_points.any(axis=1)
    raw = np.empty(sites.num_representatives, dtype=np.intp)
    raw[sites.rep_index] = np.arange(sites.n)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        g = _gamma_points(model, as_points(model, sites.points))
        cov = _covariance(model, sites.rep_points[~is_origin], g[raw[~is_origin]])

    def failure(reason):
        # The largest distance one row at a time: no (m, m, d) difference array.
        pts = sites.rep_points
        diam = float(max(np.hypot.reduce(pts - p, axis=-1).max() for p in pts))
        return FactorizationError(
            f"{reason} for alpha={model.alpha}, scale={model.scale:g} "
            f"over sites of diameter {diam:.6g}")

    # gamma(t_j) is half of cov's diagonal entry at t_j off the origin and 0
    # at it: a finite cov means a finite gamma.
    if not np.isfinite(cov).all():
        raise failure("covariance overflowed to a non-finite value")
    sub_factor = np.zeros((1, 0))  # every site at the origin: rows of width 0
    jitter_used = 0.0
    if len(cov):
        sub_factor, jitter_used = _cholesky(cov, failure)

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


def _cholesky(cov, failure):
    """The Cholesky factor of ``cov + j * I`` and j, for the first jitter j
    of ``build_sampler``'s ladder that gives one: 0, then the jitter list,
    built only once the jitter-free attempt has failed.  Each jitter is
    added to the diagonal of one working copy of ``cov``, whose other
    entries are those of ``cov + j * I`` (``cov`` holds no -0.0)."""
    try:
        return np.linalg.cholesky(cov), 0.0
    except np.linalg.LinAlgError:
        pass
    mean_diag = float(cov.diagonal().mean())
    jitters = [mean_diag * 10.0 ** k for k in range(-12, 1)
               if 10.0 ** k <= _MAX_JITTER_FACTOR * (1 + 1e-9)]
    work = cov.copy()
    diagonal = work.reshape(-1)[::len(cov) + 1]  # a writable view
    for j in jitters:
        np.add(cov.diagonal(), j, out=diagonal)
        try:
            return np.linalg.cholesky(work), j
        except np.linalg.LinAlgError:
            continue
    raise failure(f"covariance factorization failed even with jitter "
                  f"{_MAX_JITTER_FACTOR:g} * mean_diag")
