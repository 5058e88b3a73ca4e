"""Fast self-test of the benchmark harness.

Run from the root of a checkout: python3 -m pytest -q perfbench
"""

import json
import sys

import numpy as np
import pytest

import checks
import child
import run
import tracing

sys.path.insert(0, str(run.ROOT / "src"))

from dnls_nnn.manifold import compute_manifold_pair, series_to_dict  # noqa: E402
from dnls_nnn.maps import ModelParams  # noqa: E402


def _result(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


def test_end_to_end_metrics_are_emitted(capsys):
    assert run.main(["--workload", "portrait", "--seconds", "1"]) == 0
    res = _result(capsys)
    e2e, _, _ = run.load_spec()
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == set(e2e)
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_per_layer_metrics_are_emitted(capsys, monkeypatch):
    # the full-size kernel probes take seconds; the same code at tiny sizes
    small = {"1e3": 40, "1e4": 40, "1e5": 40}
    monkeypatch.setattr(run.Session, "kernels", lambda self: child.run_kernels(
        {"seed": self.seed}, points=small, grid=5)["kernel"])
    assert run.main(["--workload", "portrait", "--seconds", "1",
                     "--trace", "1"]) == 0
    res = _result(capsys)
    _, layers, _ = run.load_spec()
    assert res["correct"]
    assert set(res["metrics"]) == set(layers)
    assert res["metrics"]["soliton.portrait_seed_steps"]["value"] > 0


def test_pool_worker_spans_are_collected(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    spec = {"mode": "workload", "out": str(out), "trace": True,
            "spool": str(tmp_path / "spool"),
            "argv": [["scan", "--epsilon", "0.0004", "--A", "-0.13,-0.145",
                      "--order", "30", "--workers", "2"]]}
    res = run.run_child(spec, tmp_path, run.child_env(run.WORKLOADS["scan"]))
    spans = res["spans"]
    (scan,) = [s for s in spans if s["name"] == "homoclinic.scan_parameters"]
    cells = [s for s in spans if s["name"] == "homoclinic._scan_cell"]
    assert len(cells) == 2
    assert all(c["parent"] == scan["id"] and c["pid"] != scan["pid"]
               for c in cells)
    m = tracing.layer_metrics(spans)
    assert m["trace.worker_spans"] > 0
    assert m["homoclinic.cell_s_max"] > 0
    assert m["manifold.gauge_s"] > 0 and m["manifold.recursion_s"] > 0


@pytest.fixture(scope="module")
def cell_output(tmp_path_factory):
    """Outputs of the cell workload that pass every check, written from
    a fresh series pair plus the reference intersection point."""
    out = tmp_path_factory.mktemp("cell")
    Ps, Pu = compute_manifold_pair(ModelParams(0.0004, -0.125), order=80)
    (out / "eigen.json").write_text(json.dumps(
        {"origin": {"classification": "all-real", "hyperbolic": True}}))
    for ms in (Ps, Pu):
        (out / f"manifold_{ms.branch}.json").write_text(json.dumps(
            {"series": series_to_dict(ms), "conjugacy_residual": 1e-11}))
    (out / "homoclinic.json").write_text(json.dumps({"solutions": [
        {"point": list(-checks.POINT_ILL), "residual": 1e-16}]}))
    (out / "soliton.json").write_text(json.dumps(
        {"residual_max": 1e-18, "mirror_defect": 0.0}))
    return out


def _failed(results):
    return [op for op, problem in results if problem is not None]


def test_clean_cell_output_passes(cell_output):
    assert _failed(checks.check_cell(cell_output, [0] * 4, seed=3)) == []
    assert _failed(checks.check_cell(cell_output, [0, 3, 0, 0], seed=3)) == [
        "manifold"]


def test_perturbed_point_fails(cell_output, tmp_path):
    for name in ("eigen", "manifold_stable", "manifold_unstable", "soliton"):
        (tmp_path / f"{name}.json").write_text(
            (cell_output / f"{name}.json").read_text())
    point = -checks.POINT_ILL + np.array([0.0, 1e-7, 0.0, 0.0])
    (tmp_path / "homoclinic.json").write_text(json.dumps({"solutions": [
        {"point": list(point), "residual": 1e-16}]}))
    assert _failed(checks.check_cell(tmp_path, [0] * 4, seed=3)) == [
        "homoclinic"]


def test_broken_odd_symmetry_fails(cell_output, tmp_path):
    for name in ("eigen", "manifold_unstable", "homoclinic", "soliton"):
        (tmp_path / f"{name}.json").write_text(
            (cell_output / f"{name}.json").read_text())
    body = json.loads((cell_output / "manifold_stable.json").read_text())
    body["series"]["coeffs"]["1,1,1"] = 1e-12  # an even-degree term
    (tmp_path / "manifold_stable.json").write_text(json.dumps(body))
    assert _failed(checks.check_cell(tmp_path, [0] * 4, seed=3)) == [
        "manifold"]


def test_scan_cells_are_checked_one_by_one(tmp_path):
    eps, A = (0.0004, -0.5), (-0.13,)

    def cell(e, found, residual, error=None):
        return {"epsilon": e, "A": -0.13, "found": found,
                "best_residual": residual, "error": error}

    def failed(cells, codes=(0,)):
        (tmp_path / "scan.json").write_text(json.dumps({"cells": cells}))
        return _failed(checks.check_scan(tmp_path, list(codes), 0,
                                         epsilon=eps, A=A))

    good = [cell(0.0004, True, 1e-15), cell(-0.5, False, None)]
    assert failed(good) == []
    assert len(failed([cell(0.0004, True, 1e-9), good[1]])) == 1
    assert len(failed([good[0], cell(-0.5, False, None, "GaugeError")])) == 1
    assert len(failed(good, codes=(2,))) == 2


def test_corrupted_portrait_output_fails(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    wl = run.WORKLOADS["portrait"]
    spec = {"mode": "workload", "argv": wl.argv, "out": str(out),
            "trace": False, "spool": str(tmp_path / "spool")}
    res = run.run_child(spec, tmp_path, run.child_env(wl))
    assert _failed(wl.check(out, res["codes"], 0)) == []
    manifest = json.loads((out / "portrait.json").read_text())
    manifest["summary"][1]["escaped"] += 1
    (out / "portrait.json").write_text(json.dumps(manifest))
    assert _failed(wl.check(out, res["codes"], 0)) == ["portrait"]


def test_layer_metrics_from_synthetic_spans():
    def span(sid, parent, name, start, end, pid=1, **attrs):
        return {"id": sid, "parent": parent, "name": name,
                "layer": name.split(".")[0], "pid": pid, "start": start,
                "end": end, "attrs": attrs}

    spans = [
        span("m", None, "cli.main", 0.0, 20.0),
        span("p1", "m", "manifold.compute_manifold_pair", 1.0, 3.0,
             auto_gauge=True, scale=[1.0, 1.0], probe_s=0.5),
        span("p2", "m", "manifold.compute_manifold_pair", 3.0, 4.0,
             error="GaugeError"),
        span("n1", "m", "homoclinic.newton_match", 4.0, 5.0),
        span("n2", "m", "homoclinic.newton_match", 5.0, 6.0, error="left-box"),
        span("n3", "m", "homoclinic.newton_match", 6.0, 7.0, error="novel"),
        span("s", "m", "homoclinic.scan_parameters", 10.0, 20.0, workers=2),
        span("c1", "s", "homoclinic._scan_cell", 11.0, 16.0, pid=2),
        span("c2", "s", "homoclinic._scan_cell", 12.0, 18.0, pid=3),
    ]
    m = tracing.layer_metrics(spans)
    assert m["manifold.pair_s"] == 3.0
    assert m["manifold.recursion_s"] == 0.5 and m["manifold.gauge_s"] == 2.5
    assert m["homoclinic.certify_calls"] == 3
    assert m["homoclinic.certify_fail.left-box"] == 1
    assert m["homoclinic.certify_fail.other"] == 1
    assert m["homoclinic.certify_yield"] == pytest.approx(1 / 3)
    assert m["homoclinic.cell_s_max"] == 6.0
    assert m["homoclinic.pool_idle_s"] == 2 * 10.0 - 11.0
    assert m["trace.worker_spans"] == 2
    # cli.main covers [0, 20] minus its children [1, 7] and [10, 20]
    assert m["cli.self_s"] == pytest.approx(4.0)
    # the overlapping cells of two workers cover [11, 18] of the scan
    assert m["homoclinic.self_s"] == pytest.approx(3.0 + 3.0 + 11.0)
