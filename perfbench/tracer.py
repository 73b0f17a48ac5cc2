"""Spans and counts around the public calls of each satadjust module.

The tracer wraps functions from outside the package: every module
attribute (in any ``satadjust`` module) that refers to a wrapped
function is replaced by a timing wrapper, and ``uninstall`` puts the
originals back.  Each call adds to its function's aggregate (calls,
inclusive and self time, failures and work counters).  A call whose
caller belongs to another layer, or that has no traced caller, is also
kept as a span (name, start, end, parent span) in memory; ``spans`` are
written out when the run ends.

The tracer is single-threaded: the benchmark runs the program with
``--threads 1``.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field

# The file readers and writers of every module form layer "io"; every
# other wrapped function belongs to the layer named after its module.
READERS = {
    ("raster", "read_pgm"), ("rpc", "load_rpc_file"),
    ("rectify", "load_product"), ("tracks", "load_tracks"),
    ("tracks", "load_gcps"), ("match", "load_correspondences"),
    ("adjust", "load_biases"),
}
WRITERS = {
    ("raster", "write_pgm"), ("rpc", "save_rpc_file"),
    ("rectify", "save_product"), ("tracks", "save_tracks"),
    ("tracks", "save_gcps"), ("match", "save_correspondences"),
    ("adjust", "save_biases"), ("synth", "save_scene"),
}
COMPUTE = {
    "rpc": ("project_arrays", "project", "residual", "jacobian",
            "inverse_project", "triangulate"),
    "raster": ("bilinear_sample",),
    "rectify": ("common_plane_height", "common_gsd", "fit_rpc",
                "rectify_image"),
    "match": ("select_pairs", "detect_corners", "mbcensus_descriptor",
              "match_score", "epipolar_curve", "match_pair"),
    "tracks": ("build_tracks", "track_stats", "apply_gcps"),
    "adjust": ("assemble", "accumulate_reduced", "solve_bias",
               "ground_corrections", "update_points", "report",
               "adjust_loop"),
    "synth": ("gen_scene",),
}
WRITER_NAMES = {f"{module}.{name}" for module, name in WRITERS}
LAYERS = ("rpc", "raster", "rectify", "match", "tracks", "adjust", "synth",
          "io")


def _targets():
    for module, names in COMPUTE.items():
        for name in names:
            yield module, name, module
    for module, name in sorted(READERS | WRITERS):
        yield module, name, "io"


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


def _work(name: str, args, kwargs, result) -> dict[str, float]:
    """Work counters of one finished call, read from its arguments and
    result (never from the program's internals).  Writers report the
    bytes of the files they wrote."""
    if name == "rpc.project_arrays":
        import numpy as np

        return {"points": float(np.size(args[2]))}
    if name == "rectify.rectify_image":
        return {"mpx": result.raster.pixels.size / 1e6}
    if name == "match.detect_corners":
        return {"mpx": args[0].pixels.size / 1e6, "features": len(result)}
    if name == "match.match_pair":
        left = kwargs.get("left_features")
        return {"left_features": len(left) if left is not None else 0,
                "correspondences": len(result)}
    if name == "tracks.build_tracks":
        return {"tracks": len(result),
                "observations": sum(len(t.observations) for t in result)}
    if name == "adjust.assemble":
        return {"tracks_in": len(args[1]), "tracks_out": len(result.tracks)}
    if name == "adjust.update_points":
        return {"tracks": sum(not t.is_gcp for t in args[0].tracks),
                "failed_tracks": len(result)}
    if name == "adjust.accumulate_reduced":
        return {"tracks": len(args[0].tracks),
                "excluded_tracks": len(result.excluded_tracks)}
    if name == "adjust.adjust_loop":
        return {"iterations": result.iterations}
    if name == "rectify.save_product":
        return {"bytes": _file_bytes(str(args[1]) + ".pgm",
                                     str(args[1]) + ".meta")}
    if name == "synth.save_scene":
        directory = args[1]
        return {"bytes": _file_bytes(*(os.path.join(directory, n)
                                       for n in os.listdir(directory)))}
    if name in WRITER_NAMES:
        return {"bytes": _file_bytes(args[1])}
    return {}


@dataclass
class Stat:
    calls: int = 0
    failed: int = 0
    incl_ns: int = 0
    self_ns: int = 0
    work: dict[str, float] = field(default_factory=dict)


@dataclass
class _Frame:
    layer: str
    span: int
    child_ns: int = 0


class Tracer:
    """Wraps the public satadjust functions while installed."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.layer_of: dict[str, str] = {}
        self.spans: list[tuple[str, int, int, int]] = []
        # Inclusive time of each layer's outermost calls, so a layer's
        # share counts the work it caused in other layers too.
        self.layer_incl_ns = {layer: 0 for layer in LAYERS}
        self._active = {layer: 0 for layer in LAYERS}
        self._stack: list[_Frame] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for module in (*COMPUTE, "cli"):
            importlib.import_module(f"satadjust.{module}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "satadjust"
                                         or n.startswith("satadjust."))]
        for module, name, layer in _targets():
            original = getattr(sys.modules[f"satadjust.{module}"], name)
            qualified = f"{module}.{name}"
            self.layer_of[qualified] = layer
            wrapper = self._wrap(qualified, layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording --------------------------------------------------------

    def _wrap(self, qualified: str, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(qualified, layer, fn, args, kwargs)

        return wrapper

    def _call(self, name, layer, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        boundary = parent is None or parent.layer != layer
        span = len(self.spans) if boundary else parent.span
        if boundary:
            self.spans.append((name, 0, 0, -1 if parent is None
                               else parent.span))
        frame = _Frame(layer, span)
        self._stack.append(frame)
        self._active[layer] += 1
        stat = self.stats.setdefault(name, Stat())
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            stat.failed += 1
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._active[layer] -= 1
            elapsed = end - start
            if not self._active[layer]:
                self.layer_incl_ns[layer] += elapsed
            stat.calls += 1
            stat.incl_ns += elapsed
            stat.self_ns += elapsed - frame.child_ns
            if parent is not None:
                parent.child_ns += elapsed
            if boundary:
                self.spans[span] = (name, start, end, self.spans[span][3])
        if boundary or layer != "io":  # nested writes count once
            for key, value in _work(name, args, kwargs, result).items():
                stat.work[key] = stat.work.get(key, 0.0) + value
        return result

    # -- output -----------------------------------------------------------

    def summary(self) -> dict:
        """JSON-ready aggregates: per function and per layer."""
        layers = {layer: 0 for layer in LAYERS}
        for name, stat in self.stats.items():
            layers[self.layer_of[name]] += stat.self_ns
        return {
            "functions": {
                name: {"calls": s.calls, "failed": s.failed,
                       "incl_s": s.incl_ns / 1e9, "self_s": s.self_ns / 1e9,
                       "work": s.work}
                for name, s in sorted(self.stats.items())
            },
            "layer_self_s": {k: v / 1e9 for k, v in layers.items()},
            "layer_incl_s": {k: v / 1e9
                             for k, v in self.layer_incl_ns.items()},
            "span_count": len(self.spans),
        }

    def span_records(self) -> list[dict]:
        return [{"name": n, "start_ns": s, "end_ns": e, "parent": p}
                for n, s, e, p in self.spans]
