"""Per-layer tracing for the benchmark, installed from outside the library.

The traced run replaces the public functions of each ``cubecat`` module, at
every place they are bound, with wrappers that keep a count and a self time
(wrapped duration minus the time spent in wrapped callees).  Four
boundaries also record spans (name, start, end, parent span, job id): the
job, ``core.run_law``, ``suites.run_suite`` and the first ``cubes(n)`` of
each nerve model.  The millions of elementary operations per pass are only
aggregated, never stored one by one.

Untraced runs never install the wrappers: they call the library
unmodified.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
import weakref

from workloads import BULK, LAW_IDS, SUITE_IDS

ELEMENTARY = ("face", "degeneracy", "connection", "compose")
SAMPLE_HOOKS = ("sample_element", "sample_pair", "sample_triple", "sample_grid")

# (module, class or None, attribute, metric, kind); kind is one of
#   "count"   count plus self time
#   "yield"   count, self time and non-None results
#   "outer"   like "yield", but a call made directly inside another call of
#             the same metric is part of that call, not a new attempt
#   "gen"     generator function: self time is summed over its resumptions
#   "pool"    the first cubes(n) of each model is a span, later calls are
#             plain dictionary lookups and are not wrapped
#   "law"/"suite"  a span named after the law or suite the call runs
TARGETS = (
    [("core", None, "run_law", "core.law", "law")]
    + [("core", "CubeSystem", h, "core.sample", "outer") for h in SAMPLE_HOOKS]
    + [("shells", "ShellExtension", h, "core.sample", "outer") for h in SAMPLE_HOOKS]
    + [("models", "NerveSystem", op, f"models.{op}", "count") for op in ELEMENTARY]
    + [
        ("models", "NerveSystem", "cubes", "models.pool", "pool"),
        ("models", "NerveSystem", "parse", "models.parse", "count"),
        ("models", "NerveSystem", "describe", "models.describe", "count"),
    ]
    + [("shells", "ShellExtension", op, f"shells.{op}", "count") for op in ELEMENTARY]
    + [
        ("shells", None, "enumerate_shells", "shells.enumerate_shells", "gen"),
        ("shells", None, "is_commutative", "shells.is_commutative", "count"),
        ("shells", "ShellExtension", "random_top_shell", "shells.random_top_shell", "yield"),
    ]
    + [("folding", None, f, f"folding.{f}", "count") for f in ("psi", "big_psi", "is_thin")]
    + [
        ("fillers", None, f, f"fillers.{f}", "count")
        for f in (
            "unfold_step", "filler_from_fold", "thin_filler", "thin_decompose",
            "evaluate", "theta_from_connections",
        )
    ]
    + [
        ("arrays", None, f, f"arrays.{f}", "count")
        for f in ("resolve_symbols", "compose_partition", "render_ascii")
    ]
    + [
        ("suites", None, "run_suite", "suites", "suite"),
        ("cli", None, "build_system", "cli.build_system", "count"),
    ]
)

# The jobs of the bulk workloads; a split job's calls share its metric.
JOB_NAMES = tuple(job.name for jobs in BULK.values() for job in jobs)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = [(f"core.law.{law}.s", "s") for law in LAW_IDS]
    out += [("core.sample.calls", "count"), ("core.sample.s", "s"),
            ("core.sample.yield_ratio", "ratio")]
    for op in ELEMENTARY:
        out += [(f"models.{op}.calls", "count"), (f"models.{op}.s", "s")]
    out += [("models.pool.d3.s", "s"), ("models.pool.d4.s", "s"),
            ("models.parse.calls", "count"), ("models.parse.s", "s"),
            ("models.describe.s", "s")]
    for op in ELEMENTARY + ("enumerate_shells", "is_commutative"):
        out += [(f"shells.{op}.calls", "count"), (f"shells.{op}.s", "s")]
    out += [("shells.random_top_shell.calls", "count"),
            ("shells.random_top_shell.yield_ratio", "ratio")]
    for f in ("psi", "big_psi", "is_thin"):
        out += [(f"folding.{f}.calls", "count"), (f"folding.{f}.s", "s")]
    for f in ("unfold_step", "filler_from_fold", "thin_filler", "thin_decompose",
              "evaluate", "theta_from_connections"):
        out += [(f"fillers.{f}.calls", "count"), (f"fillers.{f}.s", "s")]
    for f in ("resolve_symbols", "compose_partition", "render_ascii"):
        out += [(f"arrays.{f}.calls", "count"), (f"arrays.{f}.s", "s")]
    out += [(f"suites.{sid}.s", "s") for sid in SUITE_IDS]
    out += [("cli.build_system.s", "s"), ("cli.self.s", "s")]
    out += [(f"cli.job.{job}.s", "s") for job in JOB_NAMES]
    out += [("process.rss_growth_mb_per_pass", "MB"), ("trace.overhead_ratio", "ratio")]
    return out


class Tracer:
    """Counters, self times and spans of one traced pass, kept in memory.

    ``stats[name]`` is ``[calls, self seconds, non-None results,
    inclusive seconds]``.  A frame on ``stack`` is ``[start, time in wrapped
    callees, metric name, span index or -1]``.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.stack: list[list] = []
        self.spans: list[list] = []
        self.enabled = False
        self.job = None
        self._patches: list[tuple] = []
        self._originals: list = []

    def stat(self, name: str) -> list:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0, 0.0]
        return entry

    # -- frames --------------------------------------------------------

    def _enter(self, name: str, span: bool) -> list:
        index = -1
        if span:
            parent = -1
            for frame in reversed(self.stack):
                if frame[3] >= 0:
                    parent = frame[3]
                    break
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.job])
        frame = [time.perf_counter(), 0.0, name, index]
        if index >= 0:
            self.spans[index][1] = frame[0]
        self.stack.append(frame)
        return frame

    def _leave(self, frame: list, result=None, yielded: bool = False,
               call: bool = True) -> None:
        end = time.perf_counter()
        self.stack.pop()
        total = end - frame[0]
        entry = self.stat(frame[2])
        entry[0] += call
        entry[1] += total - frame[1]
        entry[3] += total
        if yielded and result is not None:
            entry[2] += 1
        if self.stack:
            self.stack[-1][1] += total
        if frame[3] >= 0:
            self.spans[frame[3]][2] = end

    @contextlib.contextmanager
    def span(self, name: str, job=None):
        """A span opened by the benchmark itself, such as one job."""
        if not self.enabled:
            yield
            return
        self.job = job
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._leave(frame)

    @contextlib.contextmanager
    def paused(self):
        """Calls made by the benchmark's own output checks are not traced."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    # -- wrappers ------------------------------------------------------

    def _wrap(self, func, metric: str, kind: str):
        tracer = self
        enter, leave = self._enter, self._leave
        clock = time.perf_counter

        if kind == "count":
            # _enter and _leave inlined: these wrap millions of calls per pass
            stack = self.stack
            entry = self.stat(metric)

            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return func(*args, **kwargs)
                start = clock()
                frame = [start, 0.0, metric, -1]
                stack.append(frame)
                try:
                    return func(*args, **kwargs)
                finally:
                    total = clock() - start
                    stack.pop()
                    entry[0] += 1
                    entry[1] += total - frame[1]
                    entry[3] += total
                    if stack:
                        stack[-1][1] += total

        elif kind in ("yield", "outer"):

            def wrapper(*args, **kwargs):
                if not tracer.enabled or (
                    kind == "outer" and tracer.stack and tracer.stack[-1][2] == metric
                ):
                    return func(*args, **kwargs)
                frame = enter(metric, False)
                result = None
                try:
                    result = func(*args, **kwargs)
                    return result
                finally:
                    leave(frame, result, True)

        elif kind == "gen":

            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    yield from func(*args, **kwargs)
                    return
                gen = func(*args, **kwargs)
                tracer.stat(metric)[0] += 1
                while True:
                    frame = enter(metric, False)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        leave(frame, call=False)
                    yield item

        elif kind == "pool":
            seen: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

            def wrapper(system, n, *args, **kwargs):
                built = seen.setdefault(system, set())
                if not tracer.enabled or n in built:
                    return func(system, n, *args, **kwargs)
                built.add(n)
                frame = enter(f"{metric}.d{n}", True)
                try:
                    return func(system, n, *args, **kwargs)
                finally:
                    leave(frame)

        elif kind in ("law", "suite"):

            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return func(*args, **kwargs)
                bound = signature.bind(*args, **kwargs)
                if kind == "law":
                    name = f"{metric}.{bound.arguments['law'].law_id}"
                else:
                    name = f"{metric}.{bound.arguments['suite_id']}"
                frame = enter(name, True)
                try:
                    return func(*args, **kwargs)
                finally:
                    leave(frame)

            signature = inspect.signature(func)
        else:  # pragma: no cover
            raise ValueError(kind)

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", metric)
        wrapper.__qualname__ = getattr(func, "__qualname__", metric)
        return wrapper

    def install(self) -> None:
        """Wrap every target at every binding site in the loaded package."""
        modules = _package_modules()
        for mod_name, cls_name, attr, metric, kind in TARGETS:
            module = sys.modules[f"cubecat.{mod_name}"]
            if cls_name is None:
                original = getattr(module, attr)
                wrapper = self._wrap(original, metric, kind)
                self._originals.append(original)
                for other in modules:
                    for name, value in list(vars(other).items()):
                        if value is original:
                            self._patches.append((other, name, original))
                            setattr(other, name, wrapper)
            else:
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                wrapper = self._wrap(original, metric, kind)
                self._originals.append(original)
                self._patches.append((cls, attr, original))
                setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        self._originals.clear()

    def unpatched_sites(self) -> list[str]:
        """Places in the package that still bind an unwrapped target."""
        originals = {id(f) for f in self._originals}
        missed = []
        for module in _package_modules():
            for name, value in vars(module).items():
                if id(value) in originals:
                    missed.append(f"{module.__name__}.{name}")
                if inspect.isclass(value) and value.__module__ == module.__name__:
                    for attr, member in vars(value).items():
                        if id(member) in originals:
                            missed.append(f"{module.__name__}.{name}.{attr}")
        return missed

    # -- report --------------------------------------------------------

    def layer_metrics(self, per: float, rss_growth_mb: float,
                      overhead_ratio: float) -> dict:
        """Every per-layer metric of the traced pass, scaled by ``per``."""
        empty = [0, 0.0, 0, 0.0]
        jobs = [s for s in self.spans if s[0].startswith("cli.job.")
                or s[0] == "cli.query"]
        out = {}
        for name, unit in per_layer_metrics():
            if name.endswith(".yield_ratio"):
                entry = self.stats.get(name[: -len(".yield_ratio")], empty)
                value = entry[2] / entry[0] if entry[0] else 0.0
            elif name == "cli.self.s":
                value = sum(self.stats[n][1] for n in {s[0] for s in jobs}) * per
            elif name.startswith("cli.job."):
                value = self.stats.get(name[:-2], empty)[3] * per
            elif name == "process.rss_growth_mb_per_pass":
                value = rss_growth_mb
            elif name == "trace.overhead_ratio":
                value = overhead_ratio
            elif name.endswith(".calls"):
                value = self.stats.get(name[: -len(".calls")], empty)[0] * per
            else:
                value = self.stats.get(name[: -len(".s")], empty)[1] * per
            out[name] = {"value": value, "unit": unit}
        return out


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cubecat" or name.startswith("cubecat."))]
