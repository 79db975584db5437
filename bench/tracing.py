"""Spans recorded from outside the library, at the points where callers look
layer functions up.

A wrapper replaces a module attribute (``conecross.solver.lr_planar``) or a
class attribute (``CrossingCertificate.build``) for the duration of a traced
batch; every call made through that lookup opens a span.  Spans live in
flat arrays (name id, start, end, parent, task id) and are written out once,
at the end of the run.  Wrappers only record while a task is running, so the
benchmark's own answer checks never show up in the trace.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# (span name, defining module, attribute, modules that look the name up).
# Every lookup point is patched, so calls from inside the library and from
# the benchmark both land in the same span name.
SPANS = [
    ("planarity.lr_planar", "planarity", "lr_planar",
     ("planarity", "solver", "certificates")),
    ("solver.cr_exact", "solver", "cr_exact", ("solver", "apex")),
    ("solver.cr_certificates", "solver", "cr_certificates", ("solver", "apex")),
    ("apex.cone_cr", "apex", "cone_cr", ("apex",)),
    ("apex.insert_apex", "apex", "insert_apex", ("apex",)),
    ("apex.lift_to_cone", "apex", "lift_to_cone", ("apex",)),
    ("graphs.cone", "graphs", "cone", ("graphs", "apex")),
    ("solver.cr_lower", "solver", "cr_lower", ("solver", "apex")),
    ("pages.outerplanar_cr", "pages", "outerplanar_cr", ("pages", "apex")),
    ("pages.outerplanar_search", "pages", "outerplanar_search", ("pages",)),
    ("pages.two_page_search", "pages", "two_page_search", ("pages",)),
    ("pages.split_report", "pages", "split_report", ("pages",)),
    ("maxcut.maxcut_exact", "maxcut", "maxcut_exact", ("maxcut", "pages")),
    ("maxcut.maxcut_edwards", "maxcut", "maxcut_edwards", ("maxcut", "pages")),
    ("certificates.verify_certificate", "certificates", "verify_certificate",
     ("certificates", "solver", "apex", "pages")),
    ("certificates.certificate_from_book", "certificates", "certificate_from_book",
     ("certificates", "solver", "pages")),
    ("books.circle_graph", "books", "circle_graph", ("books", "pages")),
    ("books.count_crossings", "books", "count_crossings", ("books", "pages")),
]
# Spans on class attributes: (span name, module, class, attribute).
CLASS_SPANS = [
    ("certificates.CrossingCertificate.build", "certificates", "CrossingCertificate", "build"),
]
# Call counts only (no span): these run in tight loops.
CLASS_COUNTS = [
    ("graphs.Multigraph.instances", "graphs", "Multigraph", "instances"),
    ("graphs.Multigraph.instance_id", "graphs", "Multigraph", "instance_id"),
]
# networkx's planarity test, as apex.py looks it up through its ``nx`` name.
NX_SPAN = "apex.check_planarity"

TASK = "task"
SPAN_NAMES = [s[0] for s in SPANS] + [s[0] for s in CLASS_SPANS] + [NX_SPAN]


def _module(short: str):
    return importlib.import_module(f"conecross.{short}")


class Tracer:
    """In-memory span store plus the counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.task = array("l")
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.active = False
        self.task_id = -1

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, after=None):
        """A span-recording stand-in for ``fn``.

        ``after(tracer, span index, args, kwargs, result)`` reads counters
        off a successful call."""
        nid = self._id(name)
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.task.append(tracer.task_id)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end[idx] = clock()
                stack.pop()
                tracer.errors[name] += 1
                raise
            tracer.end[idx] = clock()
            stack.pop()
            if after is not None:
                after(tracer, idx, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def run_task(self, task_id: int, call):
        """Run ``call()`` as the root span of one task."""
        self.task_id = task_id
        wrapped = self.wrap(TASK, call)
        self.active = True
        try:
            return wrapped()
        finally:
            self.active = False

    def parent_name(self, idx: int) -> str | None:
        p = self.parent[idx]
        return None if p < 0 else self.names[self.name_id[p]]

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover (seconds).

        Calls are single-threaded, so children of one span never overlap
        and the covered time is the sum of their durations.
        """
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - covered[i] for i in range(n)]

    def by_name(self) -> dict[str, dict]:
        selfs = self.self_times()
        out: dict[str, dict] = {}
        for i, s in enumerate(selfs):
            name = self.names[self.name_id[i]]
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += self.end[i] - self.start[i]
            row["self_s"] += s
        return out

    def coverage(self, layer_root: str) -> dict[int, tuple[float, float]]:
        """Per task: (wall seconds, seconds inside spans below the outermost
        ``layer_root`` span), i.e. time not in ``layer_root``'s own code
        (recursive ``layer_root`` calls count as its own code too)."""
        selfs = self.self_times()
        task_wall: dict[int, float] = {}
        unattributed: dict[int, float] = {}
        root_id = self._name_ids.get(layer_root)
        task_name = self._name_ids.get(TASK)
        for i, s in enumerate(selfs):
            t = self.task[i]
            nid = self.name_id[i]
            if nid == task_name:
                task_wall[t] = self.end[i] - self.start[i]
                unattributed[t] = unattributed.get(t, 0.0) + s
            elif nid == root_id:
                unattributed[t] = unattributed.get(t, 0.0) + s
        return {t: (wall, wall - unattributed.get(t, 0.0)) for t, wall in task_wall.items()}

    def write(self, path) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_ms\tend_ms\tparent\ttask\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t"
                    f"{(self.start[i] - t0) * 1e3:.4f}\t{(self.end[i] - t0) * 1e3:.4f}\t"
                    f"{self.parent[i]}\t{self.task[i]}\n"
                )


# -- result hooks: counters read where the work happens ---------------------


def _after_lr(tracer: Tracer, idx, args, kwargs, result) -> None:
    if not result:
        tracer.counts["planarity.lr_planar.nonplanar"] += 1


def _after_cr_exact(tracer: Tracer, idx, args, kwargs, result) -> None:
    tracer.counts["solver.nodes"] += result.stats.nodes
    tracer.counts["solver.planarity_calls"] += result.stats.planarity_calls
    # cone_cr's closing solve on the cone is the one that passes upper_seed.
    seed = kwargs.get("upper_seed")
    if seed is not None and tracer.parent_name(idx) == "apex.cone_cr":
        tracer.counts["apex.seed_excess"] += seed[0] - result.lower


def _after_cr_certificates(tracer: Tracer, idx, args, kwargs, result) -> None:
    tracer.counts["solver.cr_certificates.found"] += len(result)


def _after_outerplanar_search(tracer: Tracer, idx, args, kwargs, result) -> None:
    tracer.counts["pages.prefix_nodes"] += result[0].stats.nodes


def _after_two_page_search(tracer: Tracer, idx, args, kwargs, result) -> None:
    tracer.counts["pages.two_page_orders"] += result[0].stats.nodes


AFTER = {
    "planarity.lr_planar": _after_lr,
    "solver.cr_exact": _after_cr_exact,
    "solver.cr_certificates": _after_cr_certificates,
    "pages.outerplanar_search": _after_outerplanar_search,
    "pages.two_page_search": _after_two_page_search,
}


class _NxProxy:
    """networkx as apex.py sees it, with ``check_planarity`` traced."""

    def __init__(self, real, check_planarity) -> None:
        self._real = real
        self.check_planarity = check_planarity

    def __getattr__(self, attr):
        return getattr(self._real, attr)


@contextmanager
def installed(tracer: Tracer):
    """Patch every lookup point for the duration of the block, then restore."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    try:
        for name, home, attr, lookups in SPANS:
            fn = getattr(_module(home), attr)
            wrapped = tracer.wrap(name, fn, AFTER.get(name))
            for short in lookups:
                mod = _module(short)
                if getattr(mod, attr) is not fn:
                    raise RuntimeError(f"conecross.{short}.{attr} is not {name}")
                patch(mod, attr, wrapped)
        for name, home, cls_name, attr in CLASS_SPANS:
            cls = getattr(_module(home), cls_name)
            fn = getattr(cls, attr)
            patch(cls, attr, staticmethod(tracer.wrap(name, fn)))
        for name, home, cls_name, attr in CLASS_COUNTS:
            cls = getattr(_module(home), cls_name)
            patch(cls, attr, tracer.count(name, cls.__dict__[attr]))
        apex = _module("apex")
        patch(apex, "nx", _NxProxy(apex.nx, tracer.wrap(NX_SPAN, apex.nx.check_planarity)))
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
