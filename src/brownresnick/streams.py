"""Keyed random streams for reproducible Monte Carlo.

Every stream is keyed by a ``(seed, stream_id)`` pair, and every draw it
makes follows from that key through the Philox counter-based generator
(Salmon et al., SC 2011), so streams with distinct keys are statistically
independent.  A stream checks its seed by the one seed rule, ``seed_int``,
when it is built; ``rekey`` checks nothing, so the per-sample path does no
check.

A stream has two spaces under its one key.  Its uniforms (``uniforms``) run
from Philox counter words (0, 0, 0, 0) upward.  Its standard normals
(``normals``) are numpy's ziggurat over one SFC64 generator, with which a
normal costs about 30% less than with Philox (10-14 against 15-19 ns on
one x86-64 machine, numpy 2.4).  Part p of the normals (p = 0 unless
``restart_normals(p)`` chose another) seeds that SFC64 by numpy's own
``sfc64_set_seed`` recipe: the state (w0, w1, w2, 1), then 12 outputs
discarded, where w0, w1, w2 are the first three words a Philox under the
stream's key draws from counter words (0, 0, p, 1).  The uniforms
would have to draw 2^192 Philox blocks to reach that block, and the two
spaces are separate generators, so drawing in one moves nothing in the
other, and the ziggurat's variable use of bits moves no uniform.

Separation of the normal spaces is a bound, not a certainty.  Two
(key, part) pairs get equal seed words only if three Philox words collide,
with probability about 2^-192 per pair, on the assumption that Philox's
words for distinct counters and keys behave as independent uniform words.
Distinct seed words give normal streams that share no SFC64 state within
their first 2^64 draws: the fourth state word counts draws from 1, so a
state both reach that early is reached at the same draw by both, and
SFC64's step is invertible, so their seed states would be equal.  The same
counter is why numpy documents 2^64 as SFC64's shortest cycle.

Each space is read in sequence: a block of draws holds the same values as
that many one-draw calls, whatever the block size.  ``rekey`` restarts
both spaces, the uniforms at 0 and the normals at part 0.  The ziggurat is
numpy's, so, like the uniforms, the normals replay bit for bit on the
same library stack; an inverse CDF of one uniform per normal would cost
more and need scipy.

A run of the simulator builds one stream and re-keys it for each sample,
which gives the same draws as a new stream without numpy seeding a fresh
Philox from OS entropy first.  The two spaces may be drawn on two threads,
each space by one thread at a time, and neither space's draws change.
How the simulator reads a stream is ``simulator._blocks``'s to state, and
how the Monte Carlo oracles read theirs is ``statseval.mc_mean``'s.

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


# Four zero words: an empty Philox buffer, and the uniforms' first counter.
_ZEROS = np.zeros(4, dtype=np.uint64)


def _restart(bit_generator: np.random.Philox, key: np.ndarray, counter) -> None:
    """Restart a Philox at ``key`` and counter words ``counter``, with an
    empty buffer, whatever it has drawn."""
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.asarray(counter, dtype=np.uint64), "key": key},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }


class RandomStream:
    """Uniforms and standard normals keyed by ``(seed, stream_id)``: the
    uniforms from a Philox under the key, the normals from an SFC64 seeded
    per part by that Philox key (module docstring).
    """

    __slots__ = ("seed", "stream_id", "_key", "_gen", "_seeder", "_normal_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = seed_int(seed)
        self.stream_id = mask64(stream_id)
        self._key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=self._key))
        self._seeder = np.random.Philox(key=self._key)
        # Seeded by a fixed word, so as not to read OS entropy: every part
        # sets its whole state.
        self._normal_gen = np.random.Generator(np.random.SFC64(0))
        self.restart_normals(0)

    def rekey(self, stream_id: int) -> None:
        """Restart as stream ``(seed, stream_id)``, whatever has been drawn.

        The draws that follow, uniforms and normals alike, are the same bytes
        as those of a new ``RandomStream(seed, stream_id)``.
        """
        self.stream_id = mask64(stream_id)
        self._key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        _restart(self._gen.bit_generator, self._key, _ZEROS)
        self.restart_normals(0)

    def restart_normals(self, part: int) -> None:
        """Restart the normals at part ``part``, whatever has been drawn; the
        uniforms go on.

        The SFC64 state becomes (w0, w1, w2, 1), w0, w1, w2 the first three
        words a Philox under the key draws from counter words
        (0, 0, part, 1), and 12 outputs are discarded: numpy's
        ``sfc64_set_seed`` on those words.
        """
        _restart(self._seeder, self._key, (0, 0, part, 1))
        words = self._seeder.random_raw(4)  # one Philox block
        words[3] = 1  # SFC64's counter word, in place of the block's fourth
        sfc64 = self._normal_gen.bit_generator
        sfc64.state = {"bit_generator": "SFC64", "state": {"state": words},
                       "has_uint32": 0, "uinteger": 0}
        sfc64.random_raw(12)

    def uniforms(self, size=None):
        """Uniform draws on [0, 1)."""
        return self._gen.random(size)

    def normals(self, size):
        """Standard normal draws (numpy's ziggurat) from the normal space."""
        return self._normal_gen.standard_normal(size)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"
