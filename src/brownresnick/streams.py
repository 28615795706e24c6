"""Counter-based random streams for reproducible Monte Carlo.

Every stream is keyed by a ``(seed, stream_id)`` pair and backed by the
Philox counter-based generator, so streams with distinct keys are
statistically independent.  A stream checks its seed by the one seed rule,
``seed_int``, when it is built; ``rekey`` checks nothing, so the per-sample
path does no check.

A stream has two counter spaces under its one key.  Its uniforms
(``uniforms``) run from Philox counter words (0, 0, 0, 0) upward; its
standard normals (``normals``) are numpy's ziggurat over a second Philox with
the same key whose counter starts at words (0, 0, p, 1), part p being 0
unless ``restart_normals(p)`` chose another.  A space would have to draw
2^128 Philox blocks to reach the next, so the two never meet and the
ziggurat's variable use of bits moves no uniform.  Each space is read in
sequence: a block of draws holds the same values as that many one-draw
calls, whatever the block size.  ``rekey`` restarts both spaces, the uniforms
at 0 and the normals at part 0.  The ziggurat is numpy's, so, like the
uniforms, the normals replay bit for bit on the same library stack; an
inverse CDF of one uniform per normal would cost more and need scipy.

The simulator reads one stream per sample, keyed ``(seed, replication)``; a
run builds one stream and re-keys it for each sample, which gives the same
draws as a new stream without numpy seeding a fresh Philox from OS entropy
first.  Cluster k reads uniform row k (its Poisson point, then its anchor;
``simulate_naive`` points have no anchor) and normals [k m, (k + 1) m), m
being the number of factorized sites; shifted by the anchor's row of the
factor (the tilt, ``simulator``), they go through one product with the
factor (``gaussian.FactorizedGaussian.from_normals``), which returns W less
gamma.  The Monte
Carlo oracles key theirs as ``(seed, 0)`` and ``(seed, 1)`` and read normals
only: chunk c of ``statseval.mc_mean``, k draws wide, reads ceil(k / 2) x m
normals from part c, so chunks can be drawn in any order, on any thread.
Row i of part c gives the chunk's draws 2i and 2i + 1, an antithetic pair
(y and -y - 2 gamma), so a shorter run's draws are the first of a longer
run's.  Only the oracles pair their draws; the simulator reads m fresh
normals per cluster, so its clusters stay independent.  Consumers draw in
blocks of their own choosing (``simulator``, ``statseval.mc_mean``).  On large sets the
simulator draws each block's normals one block ahead, on a helper thread,
while the calling thread goes on with the uniforms: the two counter spaces
are separate generators, each read in sequence by one thread at a time, so
neither space's draws change.

This module also keeps the package's one pool of helper threads
(``_executor``), built on first use and again in a forked child, and the
thread count a call may use (``_worker_count``: the CPUs in the process's
affinity, at most ``_MAX_WORKERS``), for ``statseval.mc_mean`` and
``simulator._blocks`` alike.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_MASK64 = (1 << 64) - 1
# Threads per call, the caller's included, when that many CPUs are free to
# the process; beyond this the gain is not measured.
_MAX_WORKERS = 4
_pool = None
_pool_lock = threading.Lock()


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


def _worker_count() -> int:
    """Threads for one call: the CPUs this process may run on, at most
    ``_MAX_WORKERS``."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return min(_MAX_WORKERS, cpus)


def _executor() -> ThreadPoolExecutor:
    """The process's pool of helper threads, built on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=_MAX_WORKERS - 1,
                                       thread_name_prefix="brownresnick")
        return _pool


def _forget_pool() -> None:
    # A forked child has none of its parent's threads, so it builds its own
    # pool, and a fresh lock, on first use.
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _restart(gen: np.random.Generator, key: np.ndarray, counter) -> None:
    """Restart ``gen``'s Philox at ``key`` and counter words ``counter``, with
    an empty buffer, whatever it has drawn."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.array(counter, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0,
    }


class RandomStream:
    """Uniforms and standard normals keyed by ``(seed, stream_id)``, each
    from its own Philox counter space under the one key (module docstring).
    """

    __slots__ = ("seed", "stream_id", "_gen", "_normal_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = seed_int(seed)
        self.stream_id = mask64(stream_id)
        key = self._key()
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self._normal_gen = np.random.Generator(np.random.Philox(key=key))
        self.restart_normals(0)

    def _key(self) -> np.ndarray:
        return np.array([self.seed, self.stream_id], dtype=np.uint64)

    def rekey(self, stream_id: int) -> None:
        """Restart as stream ``(seed, stream_id)``, whatever has been drawn.

        The draws that follow, uniforms and normals alike, are the same bytes
        as those of a new ``RandomStream(seed, stream_id)``.
        """
        self.stream_id = mask64(stream_id)
        _restart(self._gen, self._key(), [0, 0, 0, 0])
        self.restart_normals(0)

    def restart_normals(self, part: int) -> None:
        """Restart the normals at part ``part`` of their counter space, counter
        words (0, 0, part, 1), whatever has been drawn; the uniforms go on."""
        _restart(self._normal_gen, self._key(), [0, 0, part, 1])

    def uniforms(self, size=None):
        """Uniform draws on [0, 1)."""
        return self._gen.random(size)

    def normals(self, size):
        """Standard normal draws (numpy's ziggurat) from the normal space."""
        return self._normal_gen.standard_normal(size)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"
