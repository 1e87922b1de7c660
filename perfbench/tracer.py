"""Span tracer for the traced benchmark run.

:meth:`Tracer.install` replaces every public function of the ``wavevel``
modules, in every module namespace that binds it (``tracking.fd_jet_field``
as well as ``findiff.fd_jet_field``), and the catalog methods of the
analytic fields with wrappers that record one span per call: name, start,
end, parent span and task id.  Calls from one layer into another therefore
nest as child spans.  Spans stay in memory until :meth:`Tracer.write`.

With ``memory=True`` (and ``tracemalloc`` running), each span also records
the peak of traced memory above its start.  Nested spans share the one
global peak counter, so the tracer resets it at every span start and
carries each child's peak up to its parent.  Memory tracing slows
allocation-heavy Python code several times over, so timings come from a
tracer without it.

A span's self time is its duration minus the durations of its children.
Summed over one task, self times add up to the task's root span.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import os
import sys
import time
import tracemalloc
from array import array
from collections import Counter, defaultdict

import numpy as np

#: The modules of ``src/wavevel`` that get layer metrics.
LAYERS = ("fields", "findiff", "velocities", "covariance", "tracking", "fieldio", "cli")
CATALOG_METHODS = ("value", "jet_arrays", "jet2")
POINTWISE_VELOCITIES = (
    "zero_order_velocity",
    "first_order_velocity_2d",
    "first_order_velocity_3d",
    "first_order_velocity_nd",
    "contraction_scalar",
)
#: Per-layer metrics taken from the memory-traced cycle.
MEMORY_METRICS = (
    "fields.peak_alloc_mb",
    "findiff.fd_jet_field.peak_over_frame",
    "velocities.first_order_velocity_field.peak_over_frame",
    "fieldio.read_field.peak_over_payload",
)
MB = 1024.0 * 1024.0


def _arrays_nbytes(obj, names) -> int:
    return sum(getattr(obj, name).nbytes for name in names)


def _first(args, kwargs, name, pos):
    return kwargs[name] if name in kwargs else args[pos]


# Exact counts recorded per call, keyed by span name.  Each gets the call's
# arguments and result and returns integers; bytes are computed from array
# shapes or file sizes, never measured traffic.
COUNTERS = {
    "fields.sample": lambda a, k, out: {"bytes_computed": out.values.nbytes},
    "findiff.fd_jet_field": lambda a, k, out: {
        "points": out.grid.npoints,
        "bytes_computed": _arrays_nbytes(
            out, ("psi", "dpsi_dt", "grad", "hessian", "time_mixed", "valid")
        ),
        "frame_bytes": out.grid.npoints * 8,
    },
    "velocities.first_order_velocity_field": lambda a, k, out: {
        "points": out.valid.size,
        "valid": int(np.count_nonzero(out.valid)),
        "frame_bytes": out.valid.size * 8,
    },
    "fieldio.write_field": lambda a, k, out: {
        "bytes": os.path.getsize(_first(a, k, "path", 1))
    },
    "fieldio.read_field": lambda a, k, out: {
        "bytes": os.path.getsize(_first(a, k, "path", 0)),
        "payload_bytes": out.values.nbytes,
    },
    "fieldio.export_csv": lambda a, k, out: {
        "rows": _first(a, k, "grid", 1).npoints,
        "bytes": os.path.getsize(_first(a, k, "path", 0)),
    },
}


def _covariance_counts(args, kwargs, out):
    return {"checked": out.checked, "skipped": out.skipped}


for _check in ("check_zero_order_covariance", "check_first_order_covariance",
               "check_contraction_invariance"):
    COUNTERS[f"covariance.{_check}"] = _covariance_counts


def _cli_span_name(args, kwargs) -> str:
    argv = _first(args, kwargs, "argv", 0) if (args or kwargs) else None
    return f"cli.{argv[0]}" if argv else "cli.cli"


class Tracer:
    """Records spans around the public calls of the ``wavevel`` package."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.names = []
        self._name_ids = {}
        self.name_id = array("q")
        self.task = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.peak = array("q")
        self.error = array("b")
        self.counts = {}  # span index -> exact counts of that call
        self._stack = []  # open span indices
        self._peaks = []  # running peak of traced memory per open span
        self._bases = []  # traced memory at each open span's start
        self._task = -1
        self._restore = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        cur = 0
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if self._peaks:
                self._peaks[-1] = max(self._peaks[-1], peak)
            tracemalloc.reset_peak()
        idx = len(self.start)
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(nid)
        self.task.append(self._task)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.peak.append(0)
        self.error.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self._peaks.append(cur)
        self._bases.append(cur)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, error: bool) -> None:
        self.end[idx] = time.perf_counter()
        peak = tracemalloc.get_traced_memory()[1] if self.memory else 0
        self._stack.pop()
        top = max(self._peaks.pop(), peak)
        self.peak[idx] = top - self._bases.pop()
        self.error[idx] = error
        if self._peaks:
            self._peaks[-1] = max(self._peaks[-1], top)

    def run_task(self, task_id: int, label: str, fn):
        """Run ``fn()`` as the root span of one task."""
        self._task = task_id
        idx = self._open(f"task.{label}")
        failed = True
        try:
            out = fn()
            failed = False
            return out
        finally:
            self._close(idx, failed)
            self._task = -1

    def _wrap(self, fn, name=None, namer=None):
        tracer = self
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._task < 0:
                return fn(*args, **kwargs)
            idx = tracer._open(namer(args, kwargs) if namer else name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, True)
                raise
            tracer._close(idx, False)
            if count is not None:
                tracer.counts[idx] = count(args, kwargs, out)
            return out

        return traced

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions and catalog methods of ``package``."""
        modules = [package] + [sys.modules[f"{package.__name__}.{m}"] for m in LAYERS]
        wrapped = {}
        classes = set()
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isclass(obj) and issubclass(obj, package.AnalyticField):
                    classes.add(obj)
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(package.__name__ + "."):
                    continue
                if obj not in wrapped:
                    home = obj.__module__.rsplit(".", 1)[-1]
                    if (home, obj.__name__) == ("cli", "cli"):
                        wrapped[obj] = self._wrap(obj, namer=_cli_span_name)
                    else:
                        wrapped[obj] = self._wrap(obj, f"{home}.{obj.__name__}")
                setattr(mod, attr, wrapped[obj])
                self._restore.append((mod, attr, obj))
        for cls in classes:
            home = cls.__module__.rsplit(".", 1)[-1]
            for meth in CATALOG_METHODS:
                if meth in vars(cls):
                    original = vars(cls)[meth]
                    setattr(cls, meth, self._wrap(original, f"{home}.{cls.__name__}.{meth}"))
                    self._restore.append((cls, meth, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict:
        """Span columns as numpy arrays, with durations and self times."""
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start)
        dur = np.frombuffer(self.end) - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        names = np.array(self.names, dtype=object)
        name_id = np.frombuffer(self.name_id, dtype=np.int64)
        return {
            "name": names[name_id] if name_id.size else np.array([], dtype=object),
            "task": np.frombuffer(self.task, dtype=np.int64),
            "parent": parent,
            "start": start,
            "dur": dur,
            "self": dur - children,
            "peak": np.frombuffer(self.peak, dtype=np.int64),
            "error": np.frombuffer(self.error, dtype=np.int8).astype(bool),
        }

    def write(self, path) -> None:
        """Write every span as gzipped CSV."""
        s = self.arrays()
        columns = (
            range(s["dur"].size), s["name"].tolist(), s["task"].tolist(), s["parent"].tolist(),
            s["start"].tolist(), (s["start"] + s["dur"]).tolist(), s["self"].tolist(),
            s["peak"].tolist(), s["error"].astype(int).tolist(),
        )
        with gzip.open(path, "wt", encoding="ascii", newline="\n") as fh:
            fh.write("index,name,task,parent,start_s,end_s,self_s,peak_bytes,error\n")
            for row in zip(*columns):
                fh.write(",".join(map(str, row)) + "\n")

    def self_sum_error(self) -> float:
        """Largest relative gap between a task's summed self times and its root span."""
        s = self.arrays()
        if not s["dur"].size:
            return 0.0
        roots = np.nonzero(s["parent"] < 0)[0]
        total = np.bincount(s["task"], weights=s["self"])
        gap = np.abs(total[s["task"][roots]] - s["dur"][roots]) / s["dur"][roots]
        return float(np.max(gap))

    def layer_table(self) -> dict:
        """Calls, busy time, self time and peak memory per span name."""
        s = self.arrays()
        table = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                     "peak_bytes": 0, "errors": 0})
        for name, dur, own, peak, err in zip(s["name"], s["dur"], s["self"], s["peak"], s["error"]):
            row = table[name]
            row["calls"] += 1
            row["busy_s"] += float(dur)
            row["self_s"] += float(own)
            row["peak_bytes"] = max(row["peak_bytes"], int(peak))
            row["errors"] += int(err)
        return dict(sorted(table.items()))

    def layer_metrics(self, cycles: int, src_lines: dict) -> dict:
        """The per-layer metrics, per cycle of the workload's task mix."""
        s = self.arrays()
        name = s["name"]
        module = np.array([n.split(".", 1)[0] for n in name], dtype=object)
        dur, own, peak = s["dur"], s["self"], s["peak"]
        per = 1.0 / max(cycles, 1)
        sums = defaultdict(Counter)  # span name -> summed exact counts
        for idx, counts in self.counts.items():
            sums[name[idx]].update(counts)

        def sel(span):
            return name == span

        def busy(mask):
            return float(dur[mask].sum())

        def peak_ratio(span, denom_key):
            mask = sel(span)
            ratios = [peak[i] / self.counts[i][denom_key] for i in np.nonzero(mask)[0]
                      if self.counts.get(i, {}).get(denom_key)]
            return float(max(ratios, default=0.0))

        def rate(total, seconds):
            return total / seconds if seconds > 0 else 0.0

        m = {}
        sample = sel("fields.sample")
        m["fields.sample.calls"] = sample.sum() * per
        m["fields.sample.busy_s"] = busy(sample) * per
        m["fields.sample.bytes_computed"] = sums["fields.sample"]["bytes_computed"] * per
        jet2 = np.array([n.startswith("fields.") and n.endswith(".jet2") for n in name], dtype=bool)
        m["fields.jet2.calls"] = jet2.sum() * per
        m["fields.jet2.busy_s"] = busy(jet2) * per
        m["fields.peak_alloc_mb"] = float(peak[module == "fields"].max(initial=0)) / MB

        fd = sel("findiff.fd_jet_field")
        m["findiff.fd_jet_field.calls"] = fd.sum() * per
        m["findiff.fd_jet_field.busy_s"] = busy(fd) * per
        m["findiff.fd_jet_field.points"] = sums["findiff.fd_jet_field"]["points"] * per
        m["findiff.fd_jet_field.bytes_computed"] = (
            sums["findiff.fd_jet_field"]["bytes_computed"] * per)
        m["findiff.fd_jet_field.peak_over_frame"] = peak_ratio("findiff.fd_jet_field", "frame_bytes")
        at = sel("findiff.fd_jet2_at")
        m["findiff.fd_jet2_at.calls"] = at.sum() * per
        m["findiff.fd_jet2_at.busy_s"] = busy(at) * per

        m["velocities.zero_order_velocity_field.busy_s"] = (
            busy(sel("velocities.zero_order_velocity_field")) * per)
        v1 = sel("velocities.first_order_velocity_field")
        v1_counts = sums["velocities.first_order_velocity_field"]
        m["velocities.first_order_velocity_field.busy_s"] = busy(v1) * per
        m["velocities.first_order_velocity_field.points_per_s"] = rate(v1_counts["points"], busy(v1))
        m["velocities.first_order_velocity_field.valid_frac"] = (
            v1_counts["valid"] / v1_counts["points"] if v1_counts["points"] else 0.0)
        m["velocities.first_order_velocity_field.peak_over_frame"] = peak_ratio(
            "velocities.first_order_velocity_field", "frame_bytes")
        m["velocities.contraction_scalar_field.busy_s"] = (
            busy(sel("velocities.contraction_scalar_field")) * per)
        pointwise = np.isin(name, [f"velocities.{f}" for f in POINTWISE_VELOCITIES])
        m["velocities.pointwise.calls"] = pointwise.sum() * per
        m["velocities.pointwise.busy_s"] = busy(pointwise) * per

        cov = Counter()
        for span, counts in sums.items():
            if span.startswith("covariance.check_"):
                cov.update(counts)
        m["covariance.self_s"] = float(own[module == "covariance"].sum()) * per
        m["covariance.checked"] = cov["checked"] * per
        seen = cov["checked"] + cov["skipped"]
        m["covariance.skipped_ratio"] = cov["skipped"] / seen if seen else 0.0

        tr = sel("tracking.track_attribute")
        tracks = int(tr.sum())
        parent_module = np.where(s["parent"] >= 0, module[np.maximum(s["parent"], 0)], "")
        fd_in_track = fd & (parent_module == "tracking")
        fd_points = sum(self.counts[i]["points"] for i in np.nonzero(fd_in_track)[0])
        track_busy = busy(tr)
        m["tracking.track_attribute.calls"] = tr.sum() * per
        m["tracking.track_attribute.busy_s"] = track_busy * per
        m["tracking.self_s"] = float(own[module == "tracking"].sum()) * per
        m["tracking.fd_jet_field_calls_per_track"] = fd_in_track.sum() / tracks if tracks else 0.0
        m["tracking.jet_points_per_track"] = fd_points / tracks if tracks else 0.0
        findiff_in_track = (module == "findiff") & (parent_module == "tracking")
        m["tracking.findiff_share"] = busy(findiff_in_track) / track_busy if track_busy else 0.0

        for fn in ("write_field", "read_field", "export_csv"):
            m[f"fieldio.{fn}.busy_s"] = busy(sel(f"fieldio.{fn}")) * per
        m["fieldio.write_field.bytes"] = sums["fieldio.write_field"]["bytes"] * per
        m["fieldio.read_field.bytes"] = sums["fieldio.read_field"]["bytes"] * per
        m["fieldio.read_field.peak_over_payload"] = peak_ratio("fieldio.read_field", "payload_bytes")
        m["fieldio.export_csv.rows_per_s"] = rate(
            sums["fieldio.export_csv"]["rows"], busy(sel("fieldio.export_csv")))
        m["fieldio.export_csv.bytes"] = sums["fieldio.export_csv"]["bytes"] * per

        for command in CLI_COMMANDS:
            mask = sel(f"cli.{command}")
            m[f"cli.{command}.busy_s"] = busy(mask) * per
            m[f"cli.{command}.self_s"] = float(own[mask].sum()) * per

        # an exception left a layer when its span's parent is another layer
        left = s["error"] & (parent_module != module)
        for layer in LAYERS:
            m[f"{layer}.errors"] = float((left & (module == layer)).sum()) * per
        for layer in LAYERS:
            m[f"{layer}.src_lines"] = src_lines[layer]
        m["src.lines"] = src_lines["total"]
        return {k: float(v) for k, v in m.items()}


#: The subcommands of the cli chain, in chain order.
CLI_COMMANDS = ("generate", "info", "velocity", "scalar", "track", "covcheck")


def src_line_counts(package_dir) -> dict:
    """Static line counts of the package's modules, as ``wc -l`` gives them."""
    counts = {}
    total = 0
    for path in sorted(package_dir.glob("*.py")):
        lines = path.read_bytes().count(b"\n")
        counts[path.stem] = lines
        total += lines
    counts["total"] = total
    return counts
