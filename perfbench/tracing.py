"""Span tracing of the ``wco`` layers from outside the program.

:class:`Tracer` wraps every public function and method defined in each layer
module, then rebinds each wrapped name wherever a ``wco`` module imported it,
so calls between layers become spans too.  A span is
``(layer, name, start, end, parent, op_id)``; spans stay in memory until
:meth:`Tracer.write_spans`.  Counters that need arguments or results (matrix
sizes, grid points, bytes rendered) are recorded by hooks at the same
boundaries.  A hooked name that a later version of the program no longer has
is listed in :attr:`Tracer.absent` and its metrics come out as None.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "wco"
LAYERS = ("series", "catalog", "spaces", "operator", "criteria", "spectral",
          "reportio", "cli")
ROOT_LAYER = "bench"  # the harness around each op: stdout capture, timers


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _hook_dft(tr, sid, args, kwargs, result):
    rows, coeffs = result.shape
    m = np.shape(_arg(args, kwargs, 0, "samples"))[-1]
    c = tr.counters
    c["series.dft_rows"] += rows
    c["series.dft_samples"] += rows * m
    # complex128 samples read plus coefficients written
    c["series.dft_bytes_computed"] += 16 * rows * (m + coeffs)


def _hook_assemble(tr, sid, args, kwargs, result):
    psi, phi, p, n = (_arg(args, kwargs, i, k) for i, k in
                      enumerate(("psi", "phi", "p", "n")))
    key = (tr.op_id, psi.label, phi.label, p.alpha, n, repr(_arg(args, kwargs, 4, "cfg")))
    c = tr.counters
    c["operator.repeat_assemblies"] += key in tr.assembled
    tr.assembled.add(key)
    c["operator.warned_cols"] += len(result.warnings)
    c["operator.cols"] += result.size


def _hook_eig(tr, sid, args, kwargs, result):
    # one eigenvalue per row of the matrix
    tr.counters["spectral.eig_n3_computed"] += len(result) ** 3


def _hook_flagged(tr, sid, args, kwargs, result):
    tr.counters["criteria.flagged_samples"] += result.flagged_samples


def _points_hook(counter):
    def hook(tr, sid, args, kwargs, result):
        tr.counters[counter] += result.size
    return hook


def _hook_bytes(tr, sid, args, kwargs, result):
    # only the outermost rendering call counts; render_json recurses
    if not tr.stack or tr.spans[tr.stack[-1]][0] != "reportio":
        tr.counters["reportio.bytes_out"] += len(result)


# Every hooked name with its counter hook (or None) and the metrics that
# depend on it.  A name missing from the program reports these metrics as None.
HOOKS = {
    "series.dft_coefficient_rows": (_hook_dft, (
        "series.dft_rows", "series.dft_samples", "series.dft_bytes_computed",
        "operator.dft_per_assemble")),
    "operator.assemble_matrix": (_hook_assemble, (
        "operator.assemble_calls", "operator.dft_per_assemble",
        "operator.repeat_assemble_frac", "operator.warned_col_frac")),
    "spectral.truncated_eigenvalues": (_hook_eig, (
        "spectral.eig_calls", "spectral.eig_s", "spectral.eig_n3_computed")),
    "spectral.eigenpairs_as_series": (_hook_eig, (
        "spectral.eig_calls", "spectral.eig_s", "spectral.eig_n3_computed")),
    "criteria.evaluate_quantities": (_hook_flagged, ("criteria.flagged_samples",)),
    "criteria.AnnularGrid.points": (_points_hook("criteria.grid_points"),
                                    ("criteria.grid_points",)),
    "catalog.find_fixed_point": (None, ("catalog.fixed_point_s",)),
    "spaces.QuadratureGrid.points": (_points_hook("spaces.quad_points"),
                                     ("spaces.quad_points",)),
    "reportio.render_json": (_hook_bytes, ("reportio.bytes_out",)),
    "reportio.csv_line": (_hook_bytes, ("reportio.bytes_out",)),
}
EIG_NAMES = tuple(n for n, (_, metrics) in HOOKS.items() if "spectral.eig_calls" in metrics)


class Tracer:
    """Install with :meth:`install`, undo with :meth:`uninstall`; wrappers
    record only between :meth:`begin_op` and :meth:`end_op`."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counters: Counter = Counter()
        self.assembled: set = set()
        self.absent: list[str] = []
        self._names: set[str] = set()
        self._restore: list = []

    # --- installation ----------------------------------------------------

    def _wrap(self, fn, layer, name):
        hook = HOOKS.get(name, (None,))[0]
        tracer = self
        self._names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op_id < 0:
                return fn(*args, **kwargs)
            stack = tracer.stack
            spans = tracer.spans
            sid = len(spans)
            spans.append((layer, name, 0.0, 0.0, -1, tracer.op_id))
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (layer, name, start, end, parent, tracer.op_id)
            if hook is not None:
                hook(tracer, sid, args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules.get("%s.%s" % (PACKAGE, layer))
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    w = self._wrap(obj, layer, "%s.%s" % (layer, attr))
                    wrapped[id(obj)] = (obj, w)
                    self._set(mod, attr, w)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer, "%s.%s" % (layer, attr))
        # rebind names that other wco modules imported
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        self.absent = sorted(n for n in HOOKS if n not in self._names)

    def _wrap_class(self, cls, layer, qual):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = "%s.%s" % (qual, attr)
            if inspect.isfunction(member):
                new = self._wrap(member, layer, name)
            elif isinstance(member, (classmethod, staticmethod)):
                new = type(member)(self._wrap(member.__func__, layer, name))
            elif isinstance(member, property) and member.fget is not None:
                new = property(self._wrap(member.fget, layer, name),
                               member.fset, member.fdel, member.__doc__)
            else:
                continue
            self._set(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # --- recording ---------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        sid = len(self.spans)
        self.spans.append((ROOT_LAYER, ROOT_LAYER + ".op", perf_counter(), 0.0, -1, op_id))
        self.stack.append(sid)

    def end_op(self) -> None:
        sid = self.stack.pop()
        layer, name, start, _, parent, op_id = self.spans[sid]
        self.spans[sid] = (layer, name, start, perf_counter(), parent, op_id)
        self.op_id = -1

    # --- results -----------------------------------------------------------

    def self_times(self) -> dict:
        """Seconds per layer: each span's duration minus its children's."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                own[s[4]] -= s[3] - s[2]
        out = defaultdict(float)
        for s, t in zip(self.spans, own):
            out[s[0]] += t
        return dict(out)

    def wall(self) -> float:
        """Total duration of the root op spans."""
        return sum(s[3] - s[2] for s in self.spans if s[0] == ROOT_LAYER)

    def layer_metrics(self, ops: int) -> dict:
        """Per-op layer metrics: name -> (value or None when absent, unit)."""
        spans = self.spans
        selft = self.self_times()
        by_name = defaultdict(list)
        for sid, s in enumerate(spans):
            by_name[s[1]].append(sid)

        def dur(name):
            return sum(spans[i][3] - spans[i][2] for i in by_name[name])

        def under_assembly(sid):
            p = spans[sid][4]
            while p >= 0:
                if spans[p][1] == "operator.assemble_matrix":
                    return True
                p = spans[p][4]
            return False

        c = self.counters
        assembles = len(by_name["operator.assemble_matrix"])
        dft_in_assembly = sum(under_assembly(i) for i in by_name["series.dft_coefficient_rows"])
        per = 1.0 / ops
        m = {}
        for layer in LAYERS:
            m[layer + ".self_s"] = (selft.get(layer, 0.0) * per, "s/op")
        m[ROOT_LAYER + ".self_s"] = (selft.get(ROOT_LAYER, 0.0) * per, "s/op")
        m["series.calls"] = (sum(s[0] == "series" for s in spans) * per, "1/op")
        for k in ("dft_rows", "dft_samples"):
            m["series." + k] = (c["series." + k] * per, "1/op")
        m["series.dft_bytes_computed"] = (c["series.dft_bytes_computed"] * per, "B/op")
        m["operator.assemble_calls"] = (assembles * per, "1/op")
        m["operator.dft_per_assemble"] = (dft_in_assembly / assembles if assembles else 0.0, "1")
        m["operator.repeat_assemble_frac"] = (
            c["operator.repeat_assemblies"] / assembles if assembles else 0.0, "1")
        m["operator.warned_col_frac"] = (
            c["operator.warned_cols"] / c["operator.cols"] if c["operator.cols"] else 0.0, "1")
        m["spectral.eig_calls"] = (sum(len(by_name[n]) for n in EIG_NAMES) * per, "1/op")
        m["spectral.eig_s"] = (sum(dur(n) for n in EIG_NAMES) * per, "s/op")
        m["spectral.eig_n3_computed"] = (c["spectral.eig_n3_computed"] * per, "1/op")
        m["criteria.grid_points"] = (c["criteria.grid_points"] * per, "1/op")
        m["criteria.flagged_samples"] = (c["criteria.flagged_samples"] * per, "1/op")
        m["catalog.fixed_point_s"] = (dur("catalog.find_fixed_point") * per, "s/op")
        m["spaces.quad_points"] = (c["spaces.quad_points"] * per, "1/op")
        m["reportio.bytes_out"] = (c["reportio.bytes_out"] * per, "B/op")
        m["trace.spans"] = (len(spans) * per, "1/op")
        m["trace.absent_names"] = (len(self.absent), "count")
        for name in self.absent:
            for metric in HOOKS[name][1]:
                m[metric] = (None, m[metric][1])
        return m

    def write_spans(self, path) -> None:
        """One JSON list per line: layer, name, start_s, end_s, parent, op."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for layer, name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps([layer, name, round(start - t0, 9),
                                     round(end - t0, 9), parent, op_id]) + "\n")

