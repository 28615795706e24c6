"""Span tracing of the ``brownresnick`` package from outside it.

``Tracer.install`` replaces every public function and public method of each
``brownresnick`` module with a wrapper that records a span (name, start,
end, parent span, operation number) and adds the call to per-name totals of
calls, wall time and self time.  Self time is a span's duration minus the
time covered by its traced children.  ``uninstall`` puts the originals
back; the wrappers are made once and reused by later installs.  The package itself is not edited: the wrappers are set on the module
namespaces and classes at run time, so a call made through any module's
global name (for example ``simulate`` calling ``generate_cluster``) is seen.

A few counts are taken at the same boundaries, from the call's arguments or
its result: normals drawn, clusters per sample, clusters that raised some
coordinate, Cholesky attempts, sampler array bytes, Monte Carlo draws.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import itertools
import json
import math
import pkgutil
import time

import numpy as np

# Called twice per RandomStream construction; a span there would mostly
# measure the wrapper.
SKIP = {"streams.mask64"}


def _size_count(size) -> int:
    if size is None:
        return 1
    try:
        return math.prod(size)
    except TypeError:
        return int(size)


class Tracer:
    """Collects spans and per-name totals while installed."""

    def __init__(self, span_cap: int = 30_000):
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.span_cap = span_cap
        self.spans_dropped = 0
        self.op = 0
        self._stack: list[list] = []       # [span_id, child_seconds]
        self._ids = itertools.count()
        self._patches: list[tuple] = []
        self._sup = None

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    # -- hooks: counts taken where the work happens -------------------------

    def _before_simulate(self, args, kwargs):
        self._sup = None

    def _after_simulate(self, args, kwargs, result):
        self.count("clusters", result.num_clusters)

    def _after_generate_cluster(self, args, kwargs, result):
        values = result.values
        if self._sup is None:
            self._sup = np.array(values, dtype=np.float64)
            self.count("useful_clusters", 1)
            return
        if np.any(values > self._sup):
            self.count("useful_clusters", 1)
            np.maximum(self._sup, values, out=self._sup)

    def _after_normals(self, args, kwargs, result):
        size = args[1] if len(args) > 1 else kwargs.get("size")
        self.count("normals", _size_count(size))

    def _after_correlated_normals(self, args, kwargs, result):
        fg = args[0]
        size = args[2] if len(args) > 2 else kwargs["size"]
        active = getattr(fg, "_factor_active", None)
        m = active.shape[0] if active is not None else result.shape[0]
        self.count("factor_bytes", 8.0 * m * m)
        self.count("gemm_flops", 2.0 * m * m * int(size))

    def _after_build_sampler(self, args, kwargs, result):
        self.count("sampler_bytes", sum(
            v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray)))
        # build_sampler tries jitter 0, then 1e-12 * mean_diag growing by
        # factors of 10; the attempt count follows from the jitter it kept.
        # The diagonal of Cov(W) is scale * |t|^alpha at the sites off the origin.
        jitter = result.jitter_used
        attempts = 1
        if jitter > 0.0:
            model = result.model
            norms = np.linalg.norm(result.sites.rep_points, axis=1)
            mean_diag = float(np.mean(model.scale * norms[norms > 0.0] ** model.alpha))
            attempts = 2 + round(math.log10(jitter / (1e-12 * mean_diag)))
        self.count("jitter_attempts", attempts)

    def _after_fdd(self, args, kwargs, result):
        self.count("fdd_draws", result.reps)

    def _after_pickands(self, args, kwargs, result):
        estimates = result[0] if isinstance(result, tuple) else result
        self.count("statseval_draws", estimates[0].reps)

    def _after_theta(self, args, kwargs, result):
        self.count("statseval_draws", result.reps)

    def _hooks(self):
        return {
            "simulator.simulate": (self._before_simulate, self._after_simulate),
            "simulator.generate_cluster": (None, self._after_generate_cluster),
            "streams.RandomStream.normals": (None, self._after_normals),
            "gaussian.FactorizedGaussian.correlated_normals":
                (None, self._after_correlated_normals),
            "gaussian.build_sampler": (None, self._after_build_sampler),
            "distributions.fdd_cdf_oracle": (None, self._after_fdd),
            "statseval.pickands_coupled": (None, self._after_pickands),
            "statseval.extremal_index_estimate": (None, self._after_theta),
        }

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, before, after):
        totals = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = next(ids)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            duration = end - start
            totals[0] += 1
            totals[1] += duration
            totals[2] += duration - frame[1]
            if len(spans) < tracer.span_cap:
                spans.append((sid, parent, tracer.op, name, start, end))
            else:
                tracer.spans_dropped += 1
            if after is not None:
                after(args, kwargs, result)
            if stack:
                # The hook's own time is charged to neither span.
                stack[-1][1] += clock() - start
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Put the wrappers in place; they are made on the first call only."""
        if not self._patches:
            self._make_patches(package)
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _make_patches(self, package) -> None:
        hooks = self._hooks()
        modules = [importlib.import_module(f"{package.__name__}.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)]
        wrapped: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if inspect.isclass(obj):
                    self._wrap_class(name, obj, hooks)
                elif (inspect.isfunction(obj) and name not in SKIP
                      and not inspect.isgeneratorfunction(obj)):
                    wrapped[id(obj)] = self._wrap(name, obj, *hooks.get(name, (None, None)))
        # Replace each wrapped function under every module-level name that
        # refers to it, including re-exports and cross-module imports.
        for mod in modules + [package]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patches.append((mod, attr, obj, wrapped[id(obj)]))

    def _wrap_class(self, name, cls, hooks) -> None:
        if issubclass(cls, BaseException):
            return
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if attr == "__init__" and dataclasses.is_dataclass(cls):
                continue
            full = f"{name}.{attr}"
            before, after = hooks.get(full, (None, None))
            if isinstance(member, classmethod):
                new = classmethod(self._wrap(full, member.__func__, before, after))
            elif isinstance(member, staticmethod):
                new = staticmethod(self._wrap(full, member.__func__, before, after))
            elif inspect.isfunction(member):
                new = self._wrap(full, member, before, after)
            else:
                continue
            self._patches.append((cls, attr, member, new))

    # -- results ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def mean(self, name: str, self_time: bool = False) -> float:
        calls, total, own = self.stats.get(name, [0, 0.0, 0.0])
        if not calls:
            return 0.0
        return (own if self_time else total) / calls

    def total(self, name: str, self_time: bool = False) -> float:
        calls, total, own = self.stats.get(name, [0, 0.0, 0.0])
        return own if self_time else total

    def write(self, path, meta: dict) -> None:
        """Write the kept spans as JSON lines, after one line of metadata."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(meta, spans_kept=len(self.spans),
                                     spans_dropped=self.spans_dropped)) + "\n")
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "op": op, "name": name,
                    "start_us": round((start - t0) * 1e6, 3),
                    "dur_us": round((end - start) * 1e6, 3)}) + "\n")
