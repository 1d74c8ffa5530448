"""Spans around calls into crnkit's public functions, and the per-layer
metrics computed from them.

``Tracer.installed()`` rebinds each traced function, in every crnkit module
that holds it (the package namespace included), to a wrapper that records a
span: name, start, end, parent span and a few counts taken from the
arguments and the return value.  Spans stay in memory; ``run.py`` writes
them out once, when the run ends.  A span's self time is its duration minus
its children's, which never overlap because the loop has one caller.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time

import numpy as np

# layer -> traced public functions of that module
TRACED = {
    "network": ("parse_network", "linkage_classes", "stoichiometric_subspace"),
    "geometry": ("enumerate_faces", "lp_strict_feasible", "lp_feasible_nonneg"),
    "classify": ("classify", "fast_paths", "sample_classify", "is_w_endotactic"),
    "birch": ("birch_point",),
    "dynamics": ("simulate", "g_along", "mass_action_rhs", "find_steady_state"),
    "jets": ("cutoff_scan", "domination_monitor"),
    "cli": ("main",),
}

NAME, START, END, PARENT, INFO = range(5)


def _out_path(argv) -> str | None:
    argv = list(argv or ())
    return argv[argv.index("--out") + 1] if "--out" in argv[:-1] else None


def _laws(net) -> int:
    F = np.array([[float(t) - float(s) for s, t in zip(r.source.coeffs, r.target.coeffs)]
                  for r in net.reactions])
    return net.n_species - int(np.linalg.matrix_rank(F))


def _info(name: str, args, result):
    """Counts read from a call's arguments and return value."""
    if name == "geometry.enumerate_faces":
        return {"faces": len(result)}
    if name == "birch.birch_point":
        return {"iterations": result.iterations}
    if name == "dynamics.simulate":
        return {"steps": len(result.times) - 1}
    if name == "dynamics.g_along":
        return {"samples": len(result)}
    if name == "jets.cutoff_scan":
        return {"directions": result["n_directions"], "laws": _laws(args[0])}
    if name == "cli.main":
        path = _out_path(args[0] if args else None)
        return {"bytes": os.path.getsize(path) if path and os.path.exists(path) else 0}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][END] = clock()
                stack.pop()
            spans[idx][INFO] = _info(name, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str, info=None):
        """A span opened by the benchmark itself (a task or a setup)."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, info])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][END] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function in every loaded crnkit module."""
        originals = {}
        for layer, names in TRACED.items():
            mod = sys.modules[f"crnkit.{layer}"]
            for fname in names:
                originals[getattr(mod, fname)] = self._wrap(f"{layer}.{fname}",
                                                            getattr(mod, fname))
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "crnkit" or mod_name.startswith("crnkit.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(value) if callable(value) else None
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans) -> list[float]:
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def layer_metrics(spans, overhead_ratio: float) -> dict:
    """Per-layer metrics (value, unit) from the spans of traced passes plus
    the traced set-up.  A layer the workload never calls reads 0."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def calls(name):
        return by_name.get(name, [])

    def mean_dur(name, scale):
        return _mean(dur(i) * scale for i in calls(name))

    def mean_self(name, scale):
        return _mean(selfs[i] * scale for i in calls(name))

    def info_sum(name, key):
        return sum(spans[i][INFO][key] for i in calls(name))

    def per_unit(name, key, scale):
        units = info_sum(name, key)
        return sum(dur(i) for i in calls(name)) * scale / units if units else 0.0

    tasks = calls("task")
    n_tasks = len(tasks)
    task_time = sum(dur(i) for i in tasks)

    def under_task(name):
        return sum(_inside_task(spans, i) for i in calls(name))

    scans = calls("jets.cutoff_scan")
    # Birch calls that returned; one that raised (no convergence) has no counts
    solves = [i for i in calls("birch.birch_point") if spans[i][INFO] is not None]

    def scan_ms(laws):
        return _mean(dur(i) * 1e3 for i in scans if spans[i][INFO]["laws"] == laws)

    scan_faces = [dur(i) for i in calls("geometry.enumerate_faces")
                  if spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == "jets.cutoff_scan"]
    lp = calls("geometry.lp_strict_feasible") + calls("geometry.lp_feasible_nonneg")
    layer_self = sum(selfs[i] for i, s in enumerate(spans)
                     if s[NAME] not in ("task", "setup") and _inside_task(spans, i))
    m = {
        "network.parse_network_us": (mean_dur("network.parse_network", 1e6), "us"),
        "network.linkage_classes_us": (mean_dur("network.linkage_classes", 1e6), "us"),
        "network.stoichiometric_subspace_us":
            (mean_dur("network.stoichiometric_subspace", 1e6), "us"),
        "geometry.enumerate_faces_ms": (mean_dur("geometry.enumerate_faces", 1e3), "ms"),
        "geometry.us_per_face": (per_unit("geometry.enumerate_faces", "faces", 1e6), "us"),
        "geometry.faces_per_call":
            (_mean(spans[i][INFO]["faces"] for i in calls("geometry.enumerate_faces")),
             "count"),
        "geometry.enumerate_faces_calls_per_task":
            (under_task("geometry.enumerate_faces") / n_tasks if n_tasks else 0.0, "count"),
        "geometry.lp_calls_per_task":
            ((under_task("geometry.lp_strict_feasible")
              + under_task("geometry.lp_feasible_nonneg")) / n_tasks if n_tasks else 0.0,
             "count"),
        "geometry.lp_us": (_mean(dur(i) * 1e6 for i in lp), "us"),
        "classify.classify_self_ms": (mean_self("classify.classify", 1e3), "ms"),
        "classify.fast_paths_ms": (mean_self("classify.fast_paths", 1e3), "ms"),
        "classify.sample_classify_ms": (mean_dur("classify.sample_classify", 1e3), "ms"),
        "birch.birch_point_us": (_mean(dur(i) * 1e6 for i in solves), "us"),
        "birch.iterations_per_solve": (_mean(spans[i][INFO]["iterations"] for i in solves),
                                       "count"),
        "dynamics.simulate_ms": (mean_dur("dynamics.simulate", 1e3), "ms"),
        "dynamics.us_per_accepted_step": (per_unit("dynamics.simulate", "steps", 1e6), "us"),
        "dynamics.accepted_steps_per_trajectory":
            (_mean(spans[i][INFO]["steps"] for i in calls("dynamics.simulate")), "count"),
        "dynamics.g_along_ms": (mean_dur("dynamics.g_along", 1e3), "ms"),
        "dynamics.g_along_us_per_sample": (per_unit("dynamics.g_along", "samples", 1e6), "us"),
        "dynamics.mass_action_rhs_us": (mean_dur("dynamics.mass_action_rhs", 1e6), "us"),
        "dynamics.find_steady_state_us": (mean_dur("dynamics.find_steady_state", 1e6), "us"),
        "jets.scan_no_law_ms": (scan_ms(0), "ms"),
        "jets.scan_one_law_ms": (scan_ms(1), "ms"),
        "jets.scan_two_laws_ms": (scan_ms(2), "ms"),
        "jets.scan_us_per_direction": (per_unit("jets.cutoff_scan", "directions", 1e6), "us"),
        "jets.scan_faces_ms": (sum(scan_faces) * 1e3 / len(scans) if scans else 0.0, "ms"),
        "jets.domination_monitor_ms": (mean_dur("jets.domination_monitor", 1e3), "ms"),
        "cli.self_ms": (mean_self("cli.main", 1e3), "ms"),
        "cli.output_kb": (_mean(spans[i][INFO]["bytes"] / 1024 for i in calls("cli.main")),
                          "kB"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
        "trace.layer_self_share": (layer_self / task_time if task_time else 0.0, "ratio"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def _inside_task(spans, i) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == "task":
            return True
        p = spans[p][PARENT]
    return False
