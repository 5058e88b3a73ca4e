import ctypes
import functools
import multiprocessing
import os
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from dnls_nnn import homoclinic
from dnls_nnn.homoclinic import (
    _CONVERGED,
    _LEFT_BOX,
    _NO_CONV,
    _SINGULAR,
    MAX_ITER,
    CENSUS,
    STEP_CAP,
    _census_axis,
    _census_seeds,
    _damped_newton_batch,
    _scan_cell,
    det_curve_fit,
    scan_parameters,
    symmetric_search,
)
from dnls_nnn.manifold import (_contract_grid, compute_manifold_pair,
                               evaluate_series, rescale_series,
                               series_jacobian)
from dnls_nnn.maps import ModelParams, nonwandering_bound

from conftest import A_ILL, EPS_ILL, POINT_ILL
from reference import (EXTENDED, apply_symmetry, census_cells_full,
                       census_seeds_of_grid, evaluate_grid, multistart_search,
                       transversality_det)
from reference_cells import (all_cell_count, census_equals_full_grid, main,
                             seed_independence)


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
    Ps, _ = pair_ill
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return _damped_newton_batch(*args, **kwargs)

    monkeypatch.setattr(homoclinic, "_damped_newton_batch", spy)
    assert len(symmetric_search(Ps)) == 2
    assert len(calls) == 1
    # an empty census runs none
    monkeypatch.setattr(homoclinic, "_census_seeds",
                        lambda Ps, bound: np.empty((0, 2)))
    assert symmetric_search(Ps) == [] and len(calls) == 1


def test_symmetric_search_newton_evaluates_through_fun_jac_only(monkeypatch,
                                                               pair_ill):
    # inside Newton, each fun_jac call evaluates the series and its
    # Jacobian in one contraction, and nothing else evaluates it
    Ps, _ = pair_ill
    log, inside = [], []

    def logged(name, f):
        def wrapped(*args, **kwargs):
            if inside:
                log.append(name)
            return f(*args, **kwargs)
        return wrapped

    def spy(fun_jac, X0, **kwargs):
        inside.append(True)
        try:
            return _damped_newton_batch(logged("fun_jac", fun_jac), X0,
                                        **kwargs)
        finally:
            inside.clear()

    for name in ("_contract", "evaluate_series", "series_jacobian"):
        monkeypatch.setattr(homoclinic, name,
                            logged(name, getattr(homoclinic, name)))
    monkeypatch.setattr(homoclinic, "_damped_newton_batch", spy)
    assert len(symmetric_search(Ps)) == 2
    calls = log.count("fun_jac")
    assert 1 <= calls <= MAX_ITER + 1
    assert log == ["fun_jac", "_contract"] * calls


def test_symmetric_search_certifies_each_root_once(monkeypatch, pair_ill):
    # a root is certified by one one-point Jacobian, for its det
    Ps, _ = pair_ill
    calls = []

    def spy(ms, u, v):
        if np.ndim(u) == 0:
            calls.append((u, v))
        return series_jacobian(ms, u, v)

    monkeypatch.setattr(homoclinic, "series_jacobian", spy)
    sols = symmetric_search(Ps)
    assert len(sols) == 2
    assert calls == [(sols[0].u2, sols[0].v2)]  # the mirror is its sign image
    # there, seeds from four components land on one root
    calls.clear()
    Ps, _ = compute_manifold_pair(ModelParams(2e-4, -0.13))
    assert len(symmetric_search(Ps)) == 2
    assert len(calls) == 1
    # the census mirrors its half box, which needs an exactly odd axis
    g = _census_axis()
    assert g.size == homoclinic.CENSUS
    assert np.array_equal(g, -g[::-1])


# a negative cell that finds nothing, (1.0, -0.1459), where a screen on
# |P_1| alone passed the most cells, and the strip cells next to CRITICAL_A
CENSUS_CELLS = [(4e-4, -0.125), (1.0, -0.145), (0.01, -0.145), (-0.5, -0.13),
                (2e-4, -0.1462), (0.01, -0.146), (1.0, -0.1459)]


@functools.lru_cache(maxsize=None)
def _census_input(eps, A):
    Ps, _ = compute_manifold_pair(ModelParams(eps, A))
    return Ps, 2.0 * nonwandering_bound(Ps.params, dim=4)


@pytest.mark.parametrize("eps, A", CENSUS_CELLS)
def test_screened_census_matches_the_full_grid(eps, A):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        census_equals_full_grid(*_census_input(eps, A))


@pytest.mark.parametrize("eps, A", CENSUS_CELLS)
def test_census_grid_matches_the_horner_grid(eps, A):
    # the census's tensor contraction against the Horner grid evaluator it
    # replaced, on the rows u >= -step it is evaluated on
    Ps, _ = _census_input(eps, A)
    g = _census_axis()
    gu = g[CENSUS // 2 - 1:]
    want = np.moveaxis(evaluate_grid(Ps, gu, g), -1, 0)
    got = _contract_grid(Ps.coeffs, gu, g)
    assert got.shape == want.shape == (4, CENSUS // 2 + 2, CENSUS)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def _smooth_grid(rng, gu, gv):
    # the zero curves of G1 and G2 = G1 + 0.05 h run close and along u, so
    # components are many and long, and the bound cuts a fifth of the
    # points, through any of the four components
    uu, vv = np.meshgrid(gu, gv, indexing="ij")

    def field():
        out = np.zeros(uu.shape)
        for _ in range(6):
            a, b = rng.normal(0.0, [1.5, 6.0])
            out += rng.normal() * np.cos(a * uu + b * vv
                                         + rng.uniform(0.0, 2.0 * np.pi))
        return out

    P1, P2, h, G1 = field(), field(), field(), field()
    P = np.stack([P1, P2, P2 - G1 - 0.05 * h, P1 - G1])
    return P, np.quantile(np.max(np.abs(P), axis=0), 0.8)


def _sign_grid(rng, gu, gv):
    # G1 = G2 = F, of magnitude 1 to 1.5, negative at 60 points of the five
    # grid rows next to u = 0: every cell touching such a point is flagged,
    # and about 20 components reach across u = 0 into the mirrored half.
    # Two more sit at the ends of one row, v = -1 and v = 1, which only a
    # neighbour that wrapped around the row would join
    F = 1.0 + rng.uniform(0.0, 0.5, (gu.size, gv.size))
    F[rng.integers(0, 5, 60), rng.integers(0, gv.size, 60)] *= -1.0
    F[3, [0, -1]] = -np.abs(F[3, [0, -1]])
    return np.stack([F, F, 0.0 * F, 0.0 * F]), 2.0


@pytest.mark.parametrize("grid", [_smooth_grid, _sign_grid])
@pytest.mark.parametrize("seed", range(4))
def test_census_of_a_random_grid_matches_the_dense_census(monkeypatch, grid,
                                                          seed):
    # random grids in place of the series' values check the screen, the
    # mirror, the labels and the tie order against the dense census
    g = _census_axis()
    P, bound = grid(np.random.default_rng(seed), g[CENSUS // 2 - 1:], g)
    monkeypatch.setattr(homoclinic, "_contract_grid", lambda C, gu, gv: P)
    seeds = _census_seeds(_census_input(4e-4, -0.125)[0], bound)
    want = census_seeds_of_grid(np.moveaxis(P, 0, -1), bound)
    assert len(want) >= 9
    assert np.array_equal(seeds.view(np.int64), want.view(np.int64))


# strip cells with 104-194 flagged cells in 7-25 seeded components, one of
# them with no solution
ALL_CELL_CELLS = [(2e-4, -0.1462), (0.01, -0.1459), (1.0, -0.1455),
                  (1.0, -0.1464)]


@pytest.mark.parametrize("eps, A", ALL_CELL_CELLS)
def test_census_misses_no_root_that_every_flagged_cell_finds(eps, A):
    Ps, bound = _census_input(eps, A)
    assert len(census_cells_full(Ps, bound)) > len(_census_seeds(Ps, bound))
    all_cell_count(Ps, symmetric_search(Ps))


def test_near_critical_pair_is_found():
    # seeding every flagged cell finds this pair; in unit-gauge coordinates
    # (g1 u, g2 v), which no gauge moves, it sits at (+-1.28364, -+1.13492)
    # ((-+0.70911, +-0.86113) at the gauge (1.8102, 1.3179) once chosen)
    Ps, _ = _census_input(2e-4, -0.1462)
    g1, g2 = Ps.scale
    uv = sorted((g1 * s.u2, g2 * s.v2) for s in symmetric_search(Ps))
    assert len(uv) == 2
    assert np.allclose(uv, [(-1.28364, 1.13492), (1.28364, -1.13492)],
                       rtol=0.0, atol=1e-5)


@pytest.mark.parametrize("eps, A", [(4e-4, -0.146), (0.1, -0.146),
                                    (2e-4, -0.1462)])
def test_solutions_do_not_depend_on_the_other_seeds(eps, A):
    # a seed that leaves the box, or the seeds in reverse order, change the
    # batch's rounding; rows that stall at a root must be kept either way
    Ps, _ = _census_input(eps, A)
    seed_independence(Ps, symmetric_search(Ps))


@pytest.mark.skipif(not EXTENDED, reason="long double is no wider than float64")
def test_the_reference_cell_checks_pass_on_the_illustrative_cell(capsys):
    # the only Tier-1 check that orders 56 and 80 give the same solutions
    assert main([(EPS_ILL, A_ILL)]) == 0, capsys.readouterr().err
    assert "2 solutions on 1 cells" in capsys.readouterr().out


def test_symmetric_search_honours_an_unreachable_threshold(monkeypatch,
                                                           pair_ill):
    # the gates read MATCH_THRESHOLD when the search runs
    Ps, _ = pair_ill
    monkeypatch.setattr(homoclinic, "MATCH_THRESHOLD", 1e-30)
    assert symmetric_search(Ps) == []
    # the matching residual alone must reject the roots, not only the
    # series-trust gate, which compares against the same threshold
    monkeypatch.setattr(homoclinic, "pointwise_conjugacy_residual",
                        lambda ms, u, v: np.zeros(np.shape(u)))
    assert symmetric_search(Ps) == []


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
    X, gn, status = _damped_newton_batch(fun_jac, X0)
    assert list(status) == [_SINGULAR, _CONVERGED]
    assert np.allclose(X[1], [1.0, 2.0], rtol=0, atol=1e-14)
    assert gn[1] <= 1e-14


def test_damped_newton_takes_capped_steps_on_running_rows():
    # G = (x^2 - 2, y - 2): from (3, 0) the Newton steps are far longer
    # than the cap, the float nearest the root converges in one tiny step,
    # and (0, 0) is singular; no float squares to 2, so ||G|| at a
    # converged row is rounding, not 0
    def fun(X):
        return np.stack([X[:, 0] ** 2 - 2.0, X[:, 1] - 2.0], axis=-1)

    calls = []

    def fun_jac(X):
        calls.append(X.copy())
        J = np.zeros((len(X), 2, 2))
        J[:, 0, 0] = 2.0 * X[:, 0]
        J[:, 1, 1] = 1.0
        return fun(X), J

    X0 = np.array([[3.0, 0.0], [np.sqrt(2.0), 2.0], [0.0, 0.0]])
    X, gn, status = _damped_newton_batch(fun_jac, X0)
    assert list(status) == [_CONVERGED, _CONVERGED, _SINGULAR]
    assert np.array_equal(calls[0], X0)
    # after the first call only the rows that stepped are evaluated, once
    # per iteration: the second row takes one step and drops out, the
    # singular row takes none, and each iterate of the first row is the
    # capped Newton step from the last
    assert [len(c) for c in calls[1:]] == [2] + [1] * (len(calls) - 2)
    assert np.array_equal(X[1], calls[1][1])
    path = [calls[0][0]] + [c[0] for c in calls[1:]]
    assert len(path) > 10
    for x, y in zip(path, path[1:]):
        dx = np.array([(x[0] ** 2 - 2.0) / (2.0 * x[0]), x[1] - 2.0])
        cap = STEP_CAP / max(STEP_CAP, np.max(np.abs(dx)))
        assert np.array_equal(y, x - cap * dx)
        assert np.max(np.abs(y - x)) <= STEP_CAP * (1.0 + 1e-12)
    assert np.array_equal(X[0], path[-1])
    assert np.allclose(X[:2], [np.sqrt(2.0), 2.0], rtol=0, atol=1e-14)
    assert np.all(gn[:2] > 0.0)
    assert np.array_equal(gn, np.linalg.norm(fun(X), axis=-1))


def test_damped_newton_labels_left_box_and_no_convergence():
    # G = x - 10: capped steps of 0.1 leave a box of 1.5 after 16 steps,
    # and need 100 steps, twice the budget, to reach the root
    calls = []

    def fun_jac(X):
        calls.append(len(X))
        return X - 10.0, np.ones((len(X), 1, 1))

    X0 = np.zeros((1, 1))
    X, gn, status = _damped_newton_batch(fun_jac, X0, box_limit=1.5)
    assert list(status) == [_LEFT_BOX]
    assert 1.5 < X[0, 0] <= 1.5 + STEP_CAP
    calls.clear()
    X, gn, status = _damped_newton_batch(fun_jac, X0)
    assert list(status) == [_NO_CONV]
    assert len(calls) == MAX_ITER + 1
    assert np.isclose(X[0, 0], MAX_ITER * STEP_CAP, rtol=1e-12)
    assert gn[0] == abs(X[0, 0] - 10.0)


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
    # the det filled at certification, -det(DG) det(DH) from the stable
    # Jacobian, is the 4x4 det of the four tangent columns
    Ps, Pu = pair_ill
    dets = [transversality_det(Pu, Ps, sol) for sol in sols_ill]
    for sol, d in zip(sols_ill, dets):
        assert sol.det == pytest.approx(d, rel=1e-10, abs=0.0)
        assert abs(d) > 1e-6
    # the tangent Jacobians are even in the parameters, so mirror images
    # carry the same determinant
    assert dets[0] == dets[1]
    assert sols_ill[0].det == sols_ill[1].det


def test_transversality_det_gauge_sign_invariance(pair_ill, sols_ill):
    # flipping both gauge signs maps root (u, v) to (-u, -v) and negates
    # both tangent columns of each series: the image and the det stay put
    Ps, _ = pair_ill
    Ps2 = rescale_series(Ps, (-Ps.scale[0], -Ps.scale[1]))
    sols2 = symmetric_search(Ps2)
    assert len(sols2) == 2
    for sol in sols_ill:
        (twin,) = [s for s in sols2
                   if np.max(np.abs(s.point - sol.point)) < 1e-14]
        assert twin.u2 == pytest.approx(-sol.u2, abs=1e-12)
        assert twin.v2 == pytest.approx(-sol.v2, abs=1e-12)
        assert twin.det == pytest.approx(sol.det, rel=1e-9)


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
    fit = det_curve_fit(A, np.zeros(3) + 3.7)
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


@pytest.mark.parametrize("workers", [None, 2])
def test_scan_refuses_a_spectrum_outside_double_range(workers):
    # 1/A squared overflows: the cell names the range, not a spectrum type,
    # and the cell beside it is found, serially and in a fork pool, whose
    # workers inherit the warning filter
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        found, cell = scan_parameters([1.0], [-0.145, -1e-200],
                                      workers=workers)
    assert found.found and found.error is None
    assert not cell.found
    assert "double range" in cell.error and "complex" not in cell.error


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
        def __init__(self, max_workers, initializer=None):
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


def _openblas_threads():
    """The thread-count (getter, setter) of numpy's OpenBLAS, or None."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for suffix in ("64_", ""):
        for prefix in ("scipy_openblas", "openblas"):
            get, put = (f"{prefix}_{verb}_num_threads{suffix}"
                        for verb in ("get", "set"))
            if hasattr(lib, get) and hasattr(lib, put):
                return getattr(lib, get), getattr(lib, put)
    return None


def _blas_thread_count(task):
    # in place of a scan cell: the worker's BLAS thread count
    return _openblas_threads()[0]()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_pool_workers_run_blas_on_one_thread(monkeypatch):
    # two workers on two BLAS threads each would share two cores among
    # four threads; the parent keeps its own count
    if _openblas_threads() is None:
        pytest.skip("no OpenBLAS thread-count getter found")
    get, put = _openblas_threads()
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(key, raising=False)
    monkeypatch.setattr(homoclinic, "ProcessPoolExecutor",
                        partial(ProcessPoolExecutor,
                                mp_context=multiprocessing.get_context("fork")))
    monkeypatch.setattr(homoclinic, "_scan_cell", _blas_thread_count)
    before = get()
    put(2)
    try:
        assert homoclinic._pooled([0, 1], 2) == [1, 1]
        assert get() == 2
        # a count set in the environment is the user's: left alone
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        assert homoclinic._pooled([0, 1], 2) == [2, 2]
    finally:
        put(before)
