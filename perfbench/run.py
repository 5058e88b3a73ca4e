"""Benchmark of the dnls-nnn pipeline, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cell|scan|portrait|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Each repetition of a workload runs its CLI invocations in-process through
``dnls_nnn.cli.main`` in a fresh child interpreter (child.py), so imports,
caches and pool workers start cold every time.  Repetitions continue while
the next one is expected to end within ``--seconds``; at least one runs.
Outputs are checked against the acceptance tolerances after each
repetition, outside the timed region (checks.py).

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json as
medians over the repetitions.  ``--trace 1`` alternates untraced and traced
repetitions, reports the per-layer metrics of the first traced one
(tracing.py), the kernel probes of child.py, and ``trace.overhead_s``, the
median traced minus the median untraced ``wall_s``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
(operations: CLI calls, or scan cells) and ``metrics``.  Earlier lines give
the machine record and each metric by name and unit.

The seed drives only the probe points of the checks and of the kernel
probes; the program receives the same CLI inputs for every seed.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT = 170.0
SETUP_REPS = 11


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple        # CLI invocations, run in order in one fresh process
    processes: int     # processes computing at the same time
    blas_threads: int  # pinned per process; processes * threads <= nproc
    check: object      # (out_dir, exit_codes, seed) -> [(operation, problem)]


CELL = ("--epsilon", "0.0004", "--A", "-0.125")
SCAN_EPS, SCAN_A = (0.0004, 1.0, -0.5), (-0.145, -0.13)

# why each workload is here is recorded in BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload("cell", (("eigen",) + CELL,
                      ("manifold",) + CELL + ("--order", "80"),
                      ("homoclinic",) + CELL,
                      ("soliton",) + CELL), 1, 1, checks.check_cell),
    Workload("scan", (("scan", "--epsilon", ",".join(map(str, SCAN_EPS)),
                       "--A", ",".join(map(str, SCAN_A)), "--workers", "2"),),
             2, 1, partial(checks.check_scan, epsilon=SCAN_EPS, A=SCAN_A)),
    Workload("portrait", (("portrait", "--epsilon", "-0.1,0.1"),), 1, 1,
             checks.check_portrait),
)}


def load_spec():
    """Metric names and units, as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            spec["run_seconds"])


def child_env(wl):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for key in BLAS_ENV:
        env[key] = str(wl.blas_threads)
    return env


def run_child(spec, workdir, env):
    """Run child.py on spec in its own session; its result dict, or None."""
    workdir.mkdir(parents=True, exist_ok=True)
    spec_path, result_path = workdir / "spec.json", workdir / "result.json"
    spec_path.write_text(json.dumps(spec))
    with open(workdir / "stderr.txt", "w+") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path),
             str(result_path)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err,
            start_new_session=True)
        try:
            proc.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            pass
        finally:
            # pool workers share the child's session; none may outlive it
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if proc.returncode != 0 or not result_path.is_file():
            err.seek(0)
            tail = err.read()[-2000:]
            print(f"child failed (exit {proc.returncode}):\n{tail}",
                  file=sys.stderr)
            return None
    return json.loads(result_path.read_text())


def measure_setup(env):
    """Median time from a fresh interpreter to dnls_nnn.cli imported, after
    one untimed import that fills the bytecode cache."""
    cmd = [sys.executable, "-c", "import dnls_nnn.cli"]
    times = []
    for i in range(SETUP_REPS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True,
                       timeout=CHILD_TIMEOUT)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times), len(times)


class Session:
    """Repetitions of one workload and the checks of their outputs."""

    def __init__(self, wl, seed, scratch):
        self.wl, self.seed, self.scratch = wl, seed, scratch
        self.env = child_env(wl)
        self.ops = []
        self.count = 0

    def rep(self, trace=False):
        workdir = self.scratch / f"rep-{self.count}"
        self.count += 1
        out = workdir / "out"
        out.mkdir(parents=True)
        spec = {"mode": "workload", "argv": self.wl.argv, "out": str(out),
                "trace": trace, "spool": str(workdir / "spool")}
        res = run_child(spec, workdir, self.env)
        codes = res["codes"] if res else [None] * len(self.wl.argv)
        self.ops.extend(self.wl.check(out, codes, self.seed))
        shutil.rmtree(workdir, ignore_errors=True)
        return res

    def kernels(self):
        res = run_child({"mode": "kernel", "seed": self.seed},
                        self.scratch / "kernel", self.env)
        if res is None:
            raise RuntimeError("kernel probes failed")
        return res["kernel"]


def repeat(fn, seconds):
    """Call fn while the next call is expected to end within seconds."""
    out = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out.append(fn())
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds:
            return out


def end_to_end(session, seconds):
    setup, setup_n = measure_setup(session.env)
    reps = [r for r in repeat(session.rep, seconds) if r]
    if not reps:
        raise RuntimeError("no repetition completed")
    values = {k: (statistics.median(r[k] for r in reps), len(reps))
              for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    values["setup_s"] = (setup, setup_n)
    return values, reps[0]


def per_layer(session, seconds):
    pairs = repeat(lambda: (session.rep(), session.rep(trace=True)), seconds)
    plain = [p for p, _ in pairs if p]
    traced = [t for _, t in pairs if t]
    if not plain or not traced:
        raise RuntimeError("no repetition completed")
    first = traced[0]
    m = tracing.layer_metrics(first["spans"])
    m.update(session.kernels())
    m["cli.bytes_written"] = first["bytes_written"]
    m["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                             - statistics.median(p["wall_s"] for p in plain))
    return {k: (v, 1) for k, v in m.items()}, first


def machine_record(wl, sample):
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads_pinned": wl.blas_threads,
            "blas_threads_seen": sample.get("blas_threads"),
            "processes": wl.processes}


def run_workload(wl, args, units):
    scratch = SCRATCH / f"{wl.name}-{os.getpid()}"
    session = Session(wl, args.seed, scratch)
    try:
        measure = per_layer if args.trace else end_to_end
        values, sample = measure(session, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if set(values) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    print(f"[{wl.name}] machine: "
          + json.dumps(machine_record(wl, sample), sort_keys=True))
    failed = [(op, p) for op, p in session.ops if p is not None]
    for op, problem in failed:
        print(f"[{wl.name}] FAILED {op}: {problem}")
    for name in units:
        value, n = values[name]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"[{wl.name}] {name} = {shown} {units[name]}"
              + (f" (median of {n})" if n > 1 else ""))
    print(f"[{wl.name}] fail_frac = {len(failed)}/{len(session.ops)}")
    metrics = {name: {"value": values[name][0], "unit": units[name]}
               for name in units}
    return len(session.ops), len(failed), metrics


def parse_args(argv, run_seconds):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=run_seconds)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def main(argv=None):
    if not (ROOT / "src" / "dnls_nnn" / "cli.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    e2e_units, layer_units, run_seconds = load_spec()
    args = parse_args(argv, run_seconds)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    nproc = len(os.sched_getaffinity(0))
    for name in names:
        wl = WORKLOADS[name]
        if wl.processes * wl.blas_threads > nproc:
            print(f"error: {name} needs {wl.processes} processes x "
                  f"{wl.blas_threads} BLAS threads, but only {nproc} CPUs "
                  "are available", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))  # the checks load written series
    units = layer_units if args.trace else e2e_units
    attempted, failed, metrics = 0, 0, {}
    for name in names:
        n, f, m = run_workload(WORKLOADS[name], args, units)
        attempted, failed = attempted + n, failed + f
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
