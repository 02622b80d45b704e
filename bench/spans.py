"""Per-layer tracing from outside the library.

Each traced function is replaced by a wrapper at every place that holds
a reference to it: the defining module, every `chebzeros` module that
imported it by name (for example `curves.verify_chebyshev`), the package
namespace, and the benchmark's own workload module.  The wrapper keeps a
stack of open spans, so a span's self time is its duration minus the
time covered by its traced children.  Counters are taken at the same
boundaries.  Nothing is written while tracing; `metrics()` reads the
totals afterwards.

A layer is a module name; `numpy.linalg` appears as `linalg`.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import chebzeros

_COUNTERS = ("count_sign_changes", "count_extrema")


class _Frame:
    __slots__ = ("key", "child", "samples")

    def __init__(self, key):
        self.key = key
        self.child = 0.0
        self.samples = 0


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# -- observers: (stats, parent frame, args, kwargs, result) -> None --------


def _obs_sample(st, parent, args, kwargs, out):
    n = int(np.size(out))
    st["funcspace.sample.points"] += n
    if parent is not None and parent.key in _COUNTERS:
        # the first direct sample call of a count is its grid pass; every
        # later one evaluates bisection midpoints
        parent.samples += 1
        if parent.samples > 1:
            st["funcspace.count.refine_calls"] += 1
            st["funcspace.count.refine_points"] += n


def _obs_count_sign(st, parent, args, kwargs, out):
    if not out.degenerate:
        st["funcspace.count_sign_changes.roots"] += out.count


def _obs_count_ext(st, parent, args, kwargs, out):
    # interior extrema are the refined ones; interval endpoints are not
    if out.degenerate:
        return
    dom = _arg(args, kwargs, 1, "dom")
    st["funcspace.count_extrema.roots"] += out.count - (0 if dom.is_circle else 2)


def _obs_quad(st, parent, args, kwargs, out):
    st["funcspace.quad.points"] += int(np.size(out[0]))


def _obs_verify(st, parent, args, kwargs, out):
    st["chebsys.verify_chebyshev.trials"] += out.trials_run
    st["chebsys.verify_chebyshev.counterexamples"] += out.status == "Counterexample"


def _obs_synth_orth(st, parent, args, kwargs, out):
    pts = np.sort(np.asarray(_arg(args, kwargs, 1, "points"), dtype=float))
    locs = np.sort(out.sign_report.locations)
    if locs.size == pts.size:
        err = float(np.max(np.abs(locs - pts)))
        st["orthosynth.loc_err_max"] = max(st["orthosynth.loc_err_max"], err)
    _obs_residual(st, parent, args, kwargs, out)


def _obs_residual(st, parent, args, kwargs, out):
    res = float(np.max(np.abs(out.residuals)))
    st["orthosynth.residual_max"] = max(st["orthosynth.residual_max"], res)


def _obs_curve_points(st, parent, args, kwargs, out):
    st["curves.curve_points.points"] += out.shape[0]


def _obs_convexity(st, parent, args, kwargs, out):
    st["curves.convexity_check.trials"] += out.trials_run


def _obs_hyperplane(st, parent, args, kwargs, out):
    # convexity_check recounts a slice in full only after its grid screen
    # flagged it; a confirmed recount is a violation
    if parent is not None and parent.key == "convexity_check":
        st["curves.recounts"] += 1
        curve = _arg(args, kwargs, 0, "curve")
        if out.degenerate or out.count_with_multiplicity > curve.d:
            st["curves.confirmed"] += 1


def _obs_polyline(st, parent, args, kwargs, out):
    st["discrete.polyline_convexity_check.trials"] += out.trials_run


# (module, function, observer); the module is the defining one
TARGETS = (
    ("funcspace", "sample", _obs_sample),
    ("funcspace", "count_sign_changes", _obs_count_sign),
    ("funcspace", "count_extrema", _obs_count_ext),
    ("funcspace", "integrate_with_breaks", None),
    ("funcspace", "segment_rule", _obs_quad),
    ("funcspace", "quad_nodes", _obs_quad),
    ("chebsys", "verify_chebyshev", _obs_verify),
    ("chebsys", "dimension_estimate", None),
    ("annihilator", "default_annihilator", None),
    ("annihilator", "general_annihilator", None),
    ("orthosynth", "moments_on_edges", None),
    ("orthosynth", "null_direction", None),
    ("orthosynth", "synth_orthogonal", _obs_synth_orth),
    ("orthosynth", "synth_weight", _obs_residual),
    ("orthosynth", "theorem1_check", None),
    ("curves", "curve_points", _obs_curve_points),
    ("curves", "theorem4_check", None),
    ("curves", "convexity_check", _obs_convexity),
    ("curves", "hyperplane_intersections", _obs_hyperplane),
    ("curves", "construct_orthogonal_on_curve", None),
    ("curves", "theorem5_verify", None),
    ("discrete", "polyline_convexity_check", _obs_polyline),
    ("discrete", "construct_masses", None),
    ("discrete", "theorem6_check", None),
    ("discrete", "proposition2_check", None),
    ("discrete", "aleksandrov_check", None),
    ("fourvertex", "four_vertex_check", None),
    ("fourvertex", "blaschke_ratio_check", None),
    ("fourvertex", "random_oval", None),
    ("linalg", "svd", None),
    ("linalg", "slogdet", None),
)


# every per-layer metric the traced run reports, in report order
PER_LAYER = [(m["name"], m["unit"]) for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]]


class Tracer:
    """Installs span wrappers while used as a context manager."""

    def __init__(self, extra_modules=()):
        self.stats = defaultdict(float)
        self._stack = []
        self._extra = tuple(extra_modules)
        self._patches = []

    def _wrap(self, layer, name, fn, observe):
        st, stack = self.stats, self._stack
        calls, self_s, errors = (f"{layer}.{name}.calls", f"{layer}.{name}.self_s",
                                 f"{layer}.{name}.errors")
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = _Frame(name)
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                st[errors] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                st[calls] += 1
                st[self_s] += dt - frame.child
                if parent is not None:
                    parent.child += dt
            if observe is not None:
                observe(st, parent, args, kwargs, out)
            return out

        return traced

    def __enter__(self):
        pkg = chebzeros.__name__
        holders = [m for k, m in sys.modules.items() if k == pkg or k.startswith(pkg + ".")]
        holders += list(self._extra)
        for layer, name, observe in TARGETS:
            home = np.linalg if layer == "linalg" else sys.modules[f"{pkg}.{layer}"]
            orig = getattr(home, name)
            wrapped = self._wrap(layer, name, orig, observe)
            for mod in [home] + holders:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
                        self._patches.append((mod, attr, orig))
        return self

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()
        return False

    def metrics(self) -> dict:
        st = self.stats
        roots = st["funcspace.count_sign_changes.roots"] + st["funcspace.count_extrema.roots"]
        derived = {
            "funcspace.count.refine_points_per_root":
                st["funcspace.count.refine_points"] / roots if roots else 0.0,
            "curves.confirm_hit_ratio":
                st["curves.confirmed"] / st["curves.recounts"] if st["curves.recounts"] else 0.0,
        }
        out = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                continue
            val = derived[name] if name in derived else st[name]
            out[name] = {"value": int(val) if unit == "count" else float(val),
                         "unit": unit}
        return out
