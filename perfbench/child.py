"""One benchmark task in a fresh interpreter; started by run.py.

Usage: python3 perfbench/child.py SPEC.json RESULT.json

SPEC ``{"mode": "workload", ...}`` runs a list of CLI invocations in-process
through ``dnls_nnn.cli.main`` and times them; with ``"trace": true`` it
records spans first (see tracing.py) and then times, for every automatic
gauge pair, the same pair built at the chosen gauge.  SPEC
``{"mode": "kernel", "seed": n}`` times the series kernels on the series of
the illustrative cell at seeded scattered points.  The result is written as
JSON to RESULT.json.
"""

import json
import resource
import sys
import time
from pathlib import Path

ILLUSTRATIVE = (0.0004, -0.125)
KERNEL_POINTS = {"1e3": 1_000, "1e4": 10_000, "1e5": 100_000}
KERNEL_GRID = 321


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _usage():
    return (resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN))


def _cpu(ru):
    return ru.ru_utime + ru.ru_stime


def run_workload(spec):
    from dnls_nnn import cli

    out = Path(spec["out"])
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer
        tracer = Tracer(spec["spool"])
        tracer.install()
    codes, errors = [], []
    self0, kids0 = _usage()
    t0 = time.perf_counter()
    for argv in spec["argv"]:
        try:
            codes.append(cli.main(list(argv) + ["--out", str(out)]))
        except Exception as exc:  # a crash is a failed operation, not a hang
            codes.append(None)
            errors.append(f"{argv[0]}: {type(exc).__name__}: {exc}")
    t1 = time.perf_counter()
    self1, kids1 = _usage()
    result = {
        "codes": codes,
        "errors": errors,
        "wall_s": t1 - t0,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        # ru_maxrss is in KiB on Linux; the children's value is the largest
        # reaped descendant, pool workers included
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
        "bytes_written": sum(f.stat().st_size for f in out.iterdir()
                             if f.is_file()),
        "blas_threads": _blas_threads(),
    }
    if tracer is not None:
        tracer.uninstall()
        spans = tracer.collect()
        _probe_recursion(spans)
        result["spans"] = spans
    return result


def _probe_recursion(spans):
    from dnls_nnn.manifold import compute_manifold_pair
    from dnls_nnn.maps import ModelParams

    for s in spans:
        a = s["attrs"]
        if s["name"] == "manifold.compute_manifold_pair" and a.get("auto_gauge"):
            p = ModelParams(a["epsilon"], a["A"])
            t0 = time.perf_counter()
            compute_manifold_pair(p, order=a["order"], scale=tuple(a["scale"]))
            a["probe_s"] = time.perf_counter() - t0


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def run_kernels(spec, points=KERNEL_POINTS, grid=KERNEL_GRID):
    """Kernel probes; bytes are the power tables plus the monomial blocks
    the evaluators form for a table of order N, computed from array sizes."""
    import numpy as np
    from dnls_nnn.manifold import (compute_manifold_pair, evaluate_series,
                                   series_jacobian)
    from dnls_nnn.maps import ModelParams

    Ps, _ = compute_manifold_pair(ModelParams(*ILLUSTRATIVE), order=80)
    N = Ps.coeffs.shape[1] - 1
    rng = np.random.default_rng(spec["seed"])
    out = {}

    def record(key, fn, npts, blocks, reps):
        out[f"manifold.kernel.{key}_s"] = _median_time(fn, reps)
        out[f"manifold.kernel.{key}_bytes_computed"] = 8 * npts * (
            2 * (N + 1) + blocks)

    eval_blocks = (N + 1) * (N + 2) // 2  # k + 1 monomials at degree k <= N
    jac_blocks = N * (N + 1)              # 2 k monomials at degree 1 <= k <= N
    for label, npts in points.items():
        u, v = rng.uniform(-1.0, 1.0, size=(2, npts))
        reps = 3 if npts < 100_000 else 1
        record(f"eval_{label}", lambda: evaluate_series(Ps, u, v), npts,
               eval_blocks, reps)
        record(f"jac_{label}", lambda: series_jacobian(Ps, u, v), npts,
               jac_blocks, reps)
    g = np.linspace(-1.0, 1.0, grid)
    uu, vv = np.meshgrid(g, g, indexing="ij")
    record(f"eval_grid{KERNEL_GRID}", lambda: evaluate_series(Ps, uu, vv),
           grid * grid, eval_blocks, 1)
    return {"kernel": out}


def main():
    spec = json.loads(Path(sys.argv[1]).read_text())
    if spec["mode"] == "kernel":
        result = run_kernels(spec)
    else:
        result = run_workload(spec)
    Path(sys.argv[2]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
