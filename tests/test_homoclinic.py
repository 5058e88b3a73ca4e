import multiprocessing
import os
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from dnls_nnn import homoclinic
from dnls_nnn.homoclinic import (
    _CONVERGED,
    _SINGULAR,
    _census_axis,
    _damped_newton_batch,
    _scan_cell,
    det_curve_fit,
    scan_parameters,
    symmetric_search,
    transversality_det,
)
from dnls_nnn.manifold import (compute_manifold_pair, evaluate_series,
                               rescale_series)
from dnls_nnn.maps import ModelParams, apply_symmetry

from conftest import POINT_ILL
from reference import multistart_search


def _matches_reference(point, tol=1e-8):
    # solutions come in +/- pairs; compare modulo the sign symmetry
    return min(np.max(np.abs(point - POINT_ILL)),
               np.max(np.abs(point + POINT_ILL))) <= tol


def test_symmetric_search_finds_the_mirror_pair(sols_ill):
    assert len(sols_ill) == 2
    for sol in sols_ill:
        assert sol.residual <= 1e-10
        assert _matches_reference(sol.point)
    # the mirror is the sign image of the certified root, so exactly odd
    assert np.array_equal(sols_ill[1].point, -sols_ill[0].point)
    for sol in sols_ill:
        assert sol.u1 == sol.u2 and sol.v1 == sol.v2


def test_symmetric_search_runs_one_newton_stage(monkeypatch, pair_ill):
    Ps, Pu = pair_ill
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return _damped_newton_batch(*args, **kwargs)

    monkeypatch.setattr(homoclinic, "_damped_newton_batch", spy)
    assert len(symmetric_search(Ps, Pu)) == 2
    assert len(calls) == 1


def test_symmetric_search_certifies_each_root_once(monkeypatch, pair_ill):
    Ps, Pu = pair_ill
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return transversality_det(*args, **kwargs)

    monkeypatch.setattr(homoclinic, "transversality_det", spy)
    assert len(symmetric_search(Ps, Pu)) == 2
    assert len(calls) == 1  # the mirror partner is the sign image
    # there, seeds from four components land on one root
    calls.clear()
    Ps, Pu = compute_manifold_pair(ModelParams(2e-4, -0.13))
    assert len(symmetric_search(Ps, Pu)) == 2
    assert len(calls) == 1
    # the census mirrors its half box, which needs an exactly odd axis
    g = _census_axis()
    assert g.size == homoclinic.CENSUS
    assert np.array_equal(g, -g[::-1])


def test_symmetric_search_honours_an_unreachable_threshold(monkeypatch,
                                                           pair_ill):
    Ps, Pu = pair_ill
    assert symmetric_search(Ps, Pu, threshold=1e-30) == []
    # the matching residual alone must reject the roots, not only the
    # series-trust gate, which compares against the same threshold
    monkeypatch.setattr(homoclinic, "pointwise_conjugacy_residual",
                        lambda ms, u, v: np.zeros(np.shape(u)))
    assert symmetric_search(Ps, Pu, threshold=1e-30) == []


def test_solutions_lie_on_both_series(pair_ill, sols_ill):
    Ps, Pu = pair_ill
    for sol in sols_ill:
        qu = evaluate_series(Pu, sol.u1, sol.v1)
        qs = evaluate_series(Ps, sol.u2, sol.v2)
        assert np.linalg.norm(qu - qs) <= sol.residual + 1e-15
        assert np.max(np.abs(0.5 * (qu + qs) - sol.point)) <= 1e-15


def test_symmetric_point_is_a_palindrome(sols_ill):
    # the matched image lies on the fixed set of the coordinate reversal
    for sol in sols_ill:
        assert np.max(np.abs(apply_symmetry("sigma5", sol.point) - sol.point)) \
            <= 1e-10


def test_damped_newton_labels_a_singular_jacobian():
    # G = (x^2 - 1, y - 2) has J = diag(2x, 1), exactly singular at x = 0:
    # that row is labelled and its regular neighbour still converges
    def fun(X):
        return np.stack([X[:, 0] ** 2 - 1.0, X[:, 1] - 2.0], axis=-1)

    def fun_jac(X):
        J = np.zeros((len(X), 2, 2))
        J[:, 0, 0] = 2.0 * X[:, 0]
        J[:, 1, 1] = 1.0
        return fun(X), J

    X0 = np.array([[0.0, 0.0], [3.0, 0.0]])
    X, gn, status = _damped_newton_batch(fun, fun_jac, X0)
    assert list(status) == [_SINGULAR, _CONVERGED]
    assert np.allclose(X[1], [1.0, 2.0], rtol=0, atol=1e-14)
    assert gn[1] <= 1e-14


def test_multistart_recovers_the_symmetric_pair(pair_ill, sols_ill):
    Ps, Pu = pair_ill
    sols = multistart_search(Pu, Ps)
    assert len(sols) >= 2
    for ref in sols_ill:
        dists = [np.max(np.abs(s.point - ref.point)) for s in sols]
        assert min(dists) <= 1e-8
    # image-space dedupe leaves distinct points only
    for i, a in enumerate(sols):
        for b in sols[i + 1:]:
            assert np.linalg.norm(a.point - b.point) > 1e-8


def test_transversality_det_is_bounded_away_from_zero(pair_ill, sols_ill):
    Ps, Pu = pair_ill
    dets = [transversality_det(Pu, Ps, sol) for sol in sols_ill]
    assert [sol.det for sol in sols_ill] == dets  # filled at certification
    for d in dets:
        assert abs(d) > 1e-6
    # the tangent Jacobians are even in the parameters, so mirror images
    # carry the same determinant
    assert dets[0] == dets[1]


def test_transversality_det_gauge_sign_invariance(pair_ill, sols_ill):
    Ps, Pu = pair_ill
    sol = sols_ill[0]
    d0 = transversality_det(Pu, Ps, sol)
    Ps2 = rescale_series(Ps, (-Ps.scale[0], -Ps.scale[1]))
    Pu2 = rescale_series(Pu, (-Pu.scale[0], -Pu.scale[1]))
    sol2 = replace(sol, u1=-sol.u1, v1=-sol.v1, u2=-sol.u2, v2=-sol.v2)
    assert np.max(np.abs(evaluate_series(Pu2, sol2.u1, sol2.v1)
                         - evaluate_series(Pu, sol.u1, sol.v1))) < 1e-14
    assert transversality_det(Pu2, Ps2, sol2) == pytest.approx(d0, rel=1e-9)


def test_transversality_det_vanishes_for_repeated_columns(pair_ill, sols_ill):
    Ps, _ = pair_ill
    sol = sols_ill[0]
    fake = replace(sol, u1=sol.u2, v1=sol.v2)
    assert abs(transversality_det(Ps, Ps, fake)) < 1e-12


def test_det_curve_fit_recovers_synthetic_roots():
    coeffs = np.array([80.64, 33.74, 5.272, 0.3682, 0.009737])
    A = np.linspace(-0.145, -0.115, 13)
    fit = det_curve_fit(A, np.polyval(coeffs, A))
    assert not fit.ill_conditioned
    true_roots = np.roots(coeffs)
    true_real = np.sort(true_roots[np.abs(true_roots.imag) < 1e-10].real)
    for r in true_real:
        assert np.min(np.abs(fit.roots - r)) < 1e-5, r


def test_det_curve_fit_flags_underdetermined_data():
    A = np.array([-0.14, -0.13, -0.12])
    fit = det_curve_fit(A, np.zeros(3) + 3.7, degree=4)
    assert fit.ill_conditioned


def test_scan_records_errors_and_continues():
    cells = scan_parameters([0.0004], [0.0, -0.125])
    assert len(cells) == 2
    bad, good = cells
    assert bad.A == 0.0 and not bad.found and bad.error is not None
    assert "ValueError" in bad.error
    assert good.found and good.best_residual <= 1e-10
    assert good.solution.det is not None and abs(good.solution.det) > 1e-6
    assert _matches_reference(good.solution.point)


def test_scan_empty_when_no_intersection_exists():
    cells = scan_parameters([-0.1], [-0.125])
    assert len(cells) == 1
    assert not cells[0].found and cells[0].error is None
    # the reversor-free cross-check finds nothing there either
    Ps, Pu = compute_manifold_pair(ModelParams(-0.1, -0.125))
    assert multistart_search(Pu, Ps) == []


def test_scan_pool_is_capped_at_the_cell_count(monkeypatch):
    # a fork pool starts every worker at the first submit; record the size
    # asked for and map serially, so no process is started
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, task):
            future = Future()
            future.set_result(fn(task))
            return future

    monkeypatch.setattr(homoclinic, "ProcessPoolExecutor", SerialPool)
    cells = scan_parameters([4e-4], [0.0, 0.0], workers=64)
    assert sizes == [2]
    assert all("ValueError" in c.error for c in cells)


def test_scan_worker_pool_matches_serial():
    eps, As = [0.0004], [-0.125, -0.13]
    serial = scan_parameters(eps, As)
    pooled = scan_parameters(eps, As, workers=2)
    assert len(serial) == len(pooled) == 2
    for a, b in zip(serial, pooled):
        assert (a.epsilon, a.A, a.found) == (b.epsilon, b.A, b.found)
        assert a.best_residual == pytest.approx(b.best_residual, rel=1e-12)
        assert np.allclose(a.solution.point, b.solution.point, rtol=1e-12)
        assert a.solution.det == pytest.approx(b.solution.det, rel=1e-9)


def _dying_scan_cell(task):
    # the worker dies outright, as under a segfault or the OOM killer
    if task[1] == 0.0:
        os._exit(1)
    return _scan_cell(task)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_scan_survives_a_dead_worker(monkeypatch):
    # fork, so the workers inherit the patched cell function
    monkeypatch.setattr(homoclinic, "ProcessPoolExecutor",
                        partial(ProcessPoolExecutor,
                                mp_context=multiprocessing.get_context("fork")))
    monkeypatch.setattr(homoclinic, "_scan_cell", _dying_scan_cell)
    dead, good = scan_parameters([0.0004], [0.0, -0.125], workers=2)
    assert dead.A == 0.0 and not dead.found
    assert "BrokenProcessPool" in dead.error
    assert good.error is None and good.found
    assert _matches_reference(good.solution.point)
