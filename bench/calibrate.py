"""Fixed reference kernels that measure how fast the machine is running.

On a shared virtual machine the speed of one core changes by up to half,
in spells from a fraction of a second to minutes, so the same code gives
throughputs that differ by that much between runs.  A run therefore times
one of these kernels right before and after each build of its inputs and
after every ``run.CAL_EVERY_S`` seconds of operations.  That splits the
builds and operations into blocks, each bracketed by two kernel times.
Every timing in a block is multiplied by ``REFERENCE_S[kernel]`` over the
mean of those two kernel times: it becomes the time the work would have
taken on a machine on which the kernel takes its reference time.

The kernels use numpy and scipy only, never the library, so no change to
the library can move them.  Each does the kind of work its workloads spend
their time on:

* ``cluster-<n>``: 64 iterations of the per-cluster path of a simulator
  workload on n sites: a fresh Philox generator, n inverse-CDF normals, an
  n x n triangular factor times an n x 1 column, a drift column gathered
  from an n x n table, a log-sum-exp and a merge into the running maximum,
  all through small numpy calls from the interpreter.
* ``vector``: the bulk array work of the oracle workload: inverse-CDF
  normals over 2^15 uniforms and a 65 x 65 by 65 x 2^12 product.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import ndtri

# Typical median kernel times within a run, in seconds, on the machine of
# README.md's reference figures.  They only fix the scale of the figures.
REFERENCE_S = {"cluster-5": 3.2e-3, "cluster-65": 3.4e-3, "cluster-289": 5.5e-3,
               "vector": 3.0e-3}

_TINY = np.finfo(np.float64).tiny
_rng = np.random.default_rng(20140620)
_WIDE_FACTOR = _rng.standard_normal((65, 65)) / 8.0
_WIDE = _rng.standard_normal((65, 1 << 12))
_UNIFORMS = 1 << 15


def _cluster_kernel(n: int):
    factor = np.tril(_rng.standard_normal((n, n))) / np.sqrt(n)
    drift = np.abs(_rng.standard_normal((n, n)))
    log_w = np.full(n, -np.log(n))

    def kernel() -> float:
        sup = np.full(n, -np.inf)
        hits = 0
        for i in range(64):
            gen = np.random.Generator(np.random.Philox(
                key=np.array([i, 7], dtype=np.uint64)))
            v = -np.log1p(-gen.random())
            j = int(gen.random() * n)
            z = ndtri(np.maximum(gen.random((n, 1)), _TINY))
            x = (factor @ z)[:, 0] - drift[:, j]
            a = log_w + x
            m = a.max()
            hits += bool(v <= np.min(sup + log_w))
            np.maximum(sup, v + (x - (m + np.log(np.exp(a - m).sum()))), out=sup)
        return float(sup.sum()) + hits
    return kernel


def _vector() -> float:
    gen = np.random.Generator(np.random.Philox(key=np.array([1, 7], dtype=np.uint64)))
    z = ndtri(np.maximum(gen.random(_UNIFORMS), _TINY))
    y = _WIDE_FACTOR @ _WIDE
    return float(y.max() + z.sum())


KERNELS = {f"cluster-{n}": _cluster_kernel(n) for n in (5, 65, 289)}
KERNELS["vector"] = _vector


class Calibration:
    """Times one kernel between blocks of operations; scales their timings."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self._fn = KERNELS[kernel]
        self.times: list[float] = []
        self._fn()   # warm-up, not timed

    def sample(self) -> None:
        start = time.perf_counter()
        self._fn()
        self.times.append(time.perf_counter() - start)

    @property
    def block(self) -> int:
        """The number of the block running now; the first is 1."""
        return len(self.times)

    def factors(self) -> list[float]:
        """The scale of block b at index b - 1: the reference time over the
        mean of the two kernel times that bracket the block."""
        ref = REFERENCE_S[self.kernel]
        return [2.0 * ref / (a + b) for a, b in zip(self.times, self.times[1:])]
