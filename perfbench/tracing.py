"""Spans around the calls into each layer of ``dnls_nnn``, and their summary.

The program is not edited: ``Tracer.install`` replaces, in every module of
the package, each attribute that refers to a traced function with a wrapper
that records one span per call.  Callers resolve those names at call time
(``from .manifold import evaluate_series`` binds a module attribute), so
calls between modules and inside a module are both seen.

A span is a dict with ``id``, ``parent``, ``name`` (``<layer>.<function>``),
``layer``, ``pid``, ``start``, ``end`` and ``attrs``.  Start and end come from
``time.perf_counter``, which reads the system-wide monotonic clock on Linux,
so spans of different processes share one time axis.

Pool workers of ``scan_parameters`` are forked from the traced process and
inherit the wrappers.  A worker drops the spans it inherited, parents its own
root spans to the span that was open when it was forked, and appends its
spans to ``<spool>/spans-<pid>.jsonl`` whenever a root span closes, so the
traced process can collect them after the pool has shut down.  Workers made
by ``spawn`` or ``forkserver`` import the package afresh and are not traced;
``trace.worker_spans`` then reads 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("spectral", "manifold", "homoclinic", "soliton", "maps", "cli")

# traced beyond each module's __all__: the CLI entry point, and the scan
# cell, whose spans give the per-cell times and the pool's idle time
EXTRA = {"cli": ("main",), "homoclinic": ("_scan_cell",)}

# MatchFailure reasons raised by newton_match; anything else counts as other
CERTIFY_REASONS = ("singular-jacobian", "left-box", "no-convergence",
                   "trivial-solution", "above-threshold", "other")

LARGE_BATCH = 10_000  # points at which an evaluator call counts as large


def _points(args):
    return int(np.broadcast(np.asarray(args["u"]), np.asarray(args["v"])).size)


def _pair_attrs(args, out):
    p = args["p"]
    return {"epsilon": p.epsilon, "A": p.A, "order": int(args["order"]),
            "auto_gauge": args["scale"] is None,
            "scale": [float(g) for g in out[0].scale]}


# per-function span attributes, from the bound arguments and the result
ANNOTATE = {
    "manifold.evaluate_series": lambda a, out: {"points": _points(a)},
    "manifold.series_jacobian": lambda a, out: {"points": _points(a)},
    "manifold.compute_manifold_pair": _pair_attrs,
    "homoclinic.symmetric_search": lambda a, out: {"found": len(out)},
    "homoclinic.multistart_search": lambda a, out: {"found": len(out)},
    "homoclinic.scan_parameters": lambda a, out: {"workers": a["workers"]},
    "soliton.build_profile": lambda a, out: {"sites": len(out.indices)},
    "soliton.portrait_2d": lambda a, out: {
        "seed_steps": sum(len(o.points) - 1 for o in out)},
}


class Tracer:
    """Records spans in memory; ``install`` and ``uninstall`` are paired."""

    def __init__(self, spool_dir):
        self.spool = Path(spool_dir)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.origin_pid = self.pid = os.getpid()
        self.spans = []
        self._stack = []
        self._remote_parent = None
        self._count = 0
        self._patched = []

    def install(self):
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"dnls_nnn.{layer}")
            names = tuple(getattr(mod, "__all__", ())) + EXTRA.get(layer, ())
            for name in names:
                fn = getattr(mod, name)
                if inspect.isfunction(fn):
                    targets[id(fn)] = self._wrap(layer, name, fn)
        modules = [importlib.import_module("dnls_nnn")] + [
            importlib.import_module(f"dnls_nnn.{layer}") for layer in LAYERS]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                wrapper = targets.get(id(val))
                if wrapper is not None:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def _wrap(self, layer, name, fn):
        qual = f"{layer}.{name}"
        sig = inspect.signature(fn)
        annotate = ANNOTATE.get(qual)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                self._forked()
            sid = f"{self.pid}:{self._count}"
            self._count += 1
            parent = self._stack[-1] if self._stack else self._remote_parent
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                t1 = time.perf_counter()
                self._close(sid, parent, qual, layer, t0, t1, {
                    "error": getattr(exc, "reason", type(exc).__name__)})
                raise
            t1 = time.perf_counter()
            attrs = {}
            if annotate is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = annotate(bound.arguments, out)
            self._close(sid, parent, qual, layer, t0, t1, attrs)
            return out

        return traced

    def _close(self, sid, parent, qual, layer, t0, t1, attrs):
        self._stack.pop()
        self.spans.append({"id": sid, "parent": parent, "name": qual,
                           "layer": layer, "pid": self.pid, "start": t0,
                           "end": t1, "attrs": attrs})
        if self.pid != self.origin_pid and not self._stack:
            with open(self.spool / f"spans-{self.pid}.jsonl", "a") as fh:
                for span in self.spans:
                    fh.write(json.dumps(span) + "\n")
            self.spans.clear()

    def _forked(self):
        self._remote_parent = self._stack[-1] if self._stack else None
        self.pid = os.getpid()
        self.spans = []
        self._stack = []
        self._count = 0

    def collect(self):
        """This process's spans followed by every spooled worker span."""
        spans = list(self.spans)
        for path in sorted(self.spool.glob("spans-*.jsonl")):
            with open(path) as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
        return spans


def self_times(spans):
    """Per layer: the sum over its spans of duration minus the part of the
    span's interval that its child spans cover (children of other processes
    may overlap one another, so the cover is a union of intervals)."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        ivs = sorted((max(c["start"], s["start"]), min(c["end"], s["end"]))
                     for c in children[s["id"]])
        covered, reach = 0.0, s["start"]
        for lo, hi in ivs:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["layer"]] += (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans):
    """Per-layer metric values from one traced workload run.

    Spans of ``compute_manifold_pair`` with an automatic gauge must carry
    ``attrs["probe_s"]``, the time of the same call with the chosen gauge
    passed in: that call is the recursion alone, and the rest of the
    original call is the gauge selection.  A span whose call raised has no
    result attributes: a failed pair counts as gauge time, and a failed
    call adds no points, solutions, sites or steps.
    """
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(name):
        return sum(dur(s) for s in by[name])

    m = {f"{layer}.self_s": t for layer, t in self_times(spans).items()}

    m["manifold.pair_s"] = total("manifold.compute_manifold_pair")
    m["manifold.recursion_s"] = sum(
        s["attrs"]["probe_s"] if s["attrs"]["auto_gauge"] else dur(s)
        for s in by["manifold.compute_manifold_pair"] if "scale" in s["attrs"])
    m["manifold.gauge_s"] = m["manifold.pair_s"] - m["manifold.recursion_s"]
    for key, name in (("eval", "manifold.evaluate_series"),
                      ("jac", "manifold.series_jacobian")):
        calls = by[name]
        m[f"manifold.{key}_calls"] = len(calls)
        points = [s["attrs"].get("points", 0) for s in calls]
        m[f"manifold.{key}_points"] = sum(points)
        m[f"manifold.{key}_large_s"] = sum(
            dur(s) for s, n in zip(calls, points) if n >= LARGE_BATCH)
        m[f"manifold.{key}_small_s"] = sum(
            dur(s) for s, n in zip(calls, points) if n < LARGE_BATCH)

    sym = by["homoclinic.symmetric_search"]
    m["homoclinic.symmetric_s"] = total("homoclinic.symmetric_search")
    m["homoclinic.symmetric_found"] = sum(
        s["attrs"].get("found", 0) > 0 for s in sym)

    cert = by["homoclinic.newton_match"]
    fails = [s["attrs"]["error"] for s in cert if "error" in s["attrs"]]
    m["homoclinic.certify_calls"] = len(cert)
    m["homoclinic.certify_s"] = total("homoclinic.newton_match")
    for reason in CERTIFY_REASONS:
        m[f"homoclinic.certify_fail.{reason}"] = sum(
            (r if r in CERTIFY_REASONS else "other") == reason for r in fails)
    m["homoclinic.certify_yield"] = (
        (len(cert) - len(fails)) / len(cert) if cert else 0.0)

    fb = by["homoclinic.multistart_search"]
    m["homoclinic.fallback_calls"] = len(fb)
    m["homoclinic.fallback_s"] = total("homoclinic.multistart_search")
    m["homoclinic.fallback_yield"] = (
        sum(s["attrs"].get("found", 0) for s in fb) / len(fb) if fb else 0.0)
    m["homoclinic.transversality_s"] = total("homoclinic.transversality_det")

    cells = by["homoclinic._scan_cell"]
    m["homoclinic.cell_s_max"] = max((dur(s) for s in cells), default=0.0)
    m["homoclinic.pool_idle_s"] = sum(
        (s["attrs"].get("workers") or 1) * dur(s)
        for s in by["homoclinic.scan_parameters"]) - sum(map(dur, cells))

    m["soliton.profile_s"] = total("soliton.build_profile")
    m["soliton.profile_sites"] = sum(
        s["attrs"].get("sites", 0) for s in by["soliton.build_profile"])
    m["soliton.portrait_s"] = total("soliton.portrait_2d")
    m["soliton.portrait_seed_steps"] = sum(
        s["attrs"].get("seed_steps", 0) for s in by["soliton.portrait_2d"])

    m["maps.calls"] = sum(s["layer"] == "maps" for s in spans)
    m["trace.spans"] = len(spans)
    main_pids = {s["pid"] for s in by["cli.main"]}
    m["trace.worker_spans"] = sum(s["pid"] not in main_pids for s in spans)
    return m
