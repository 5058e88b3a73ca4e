"""Homoclinic intersections of the stable and unstable manifold series.

A homoclinic point is a simultaneous image q = P_u(u1, v1) = P_s(u2, v2)
with both parameter pairs inside the trusted unit boxes and q != 0.  The
orbit of q then converges to the origin in both time directions.

symmetric_search finds them through the reversor: with the series pair
gauged so that P_u = sigma5 o P_s, any parameter point where P_s lands on
the reversor's fixed plane {(x, y, y, x)} is a homoclinic point with
(u1, v1) = (u2, v2).  That reduces the problem to a 2-d root find for
G = (P_1 - P_4, P_2 - P_3).  The two zero curves are nearly parallel along
the manifold's fold, so roots are seeded from a fine census of sign-change
cells (both components changing sign in the same cell) rather than from a
coarse multistart.  G is odd and the census axis exactly symmetric, so the
census is evaluated on the half box u >= 0, as two matrix products per
component, and mirrored.  A flagged cell has every |P_i| within the
amplitude bound at its corners, so G is tested only at cells that pass
that screen.  Flagged cells are grouped into 8-connected components, each
seeded once, on the half box.  Roots are deduplicated in (u, v)
modulo sign and each is certified once, where the 2-d Newton leaves it;
its mirror image is the sign flip.  Everything is read from P_s alone: as
P_u = sigma5 o P_s holds bit for bit, the matching defect at a root is
sigma5 q - q for q = P_s(u, v), and the unstable tangent columns are the
stable ones with their rows reversed.

The polish is batched Newton whose steps are capped at STEP_CAP in
sup-norm, one Jacobian evaluation per iteration, with a strict failure
taxonomy (singular-jacobian / left-box / no-convergence).  Transversality
of a certified intersection is the determinant of the four tangent columns
[dP_u/du, dP_u/dv, dP_s/du, dP_s/dv]; the sigma5 splitting factors it as
-det(DG) det(DH), H = (P_1 + P_4, P_2 + P_3).  Its magnitude is gauge
dependent, but its vanishing (a tangency) is not.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .manifold import (
    DEFAULT_ORDER,
    ManifoldSeries,
    _contract,
    _contract_grid,
    compute_manifold_pair,
    evaluate_series,
    pointwise_conjugacy_residual,
    series_jacobian,
)
from .maps import ModelParams, nonwandering_bound

__all__ = [
    "HomoclinicSolution",
    "ScanCell",
    "FitResult",
    "MatchFailure",
    "symmetric_search",
    "scan_parameters",
    "det_curve_fit",
]

MATCH_THRESHOLD = 1e-10  # Newton ||G||, series trust and matching residual
FIT_DEGREE = 4  # det_curve_fit's polynomial degree
CENSUS = 321  # census grid points per axis of the unit box
TRIVIAL_NORM = 1e-6
DEDUPE_TOL = 1e-8  # roots this close in (u, v), modulo sign, are one root

# Newton: sup-norm cap on a step (a tenth of the unit box), convergence
# tolerance on the step, iteration budget, and the status codes
STEP_CAP = 0.1
TOL_STEP = 1e-13
MAX_ITER = 50
_RUNNING, _CONVERGED, _SINGULAR, _LEFT_BOX, _NO_CONV = -1, 0, 1, 2, 3


class MatchFailure(RuntimeError):
    """A homoclinic computation could not be completed (the CLI raises it
    when a transversality sweep misses cells)."""


@dataclass(frozen=True)
class HomoclinicSolution:
    """One matched intersection.

    (u1, v1) are unstable-series parameters, (u2, v2) stable ones; point is
    the common image (midpoint of the two evaluations) and residual their
    Euclidean mismatch.  symmetric_search sets (u1, v1) = (u2, v2) and,
    with q = P_s(u2, v2), point = (q + sigma5 q)/2 and residual
    ||sigma5 q - q||.  det is the transversality determinant, filled by
    symmetric_search when it certifies the solution.
    """

    u1: float
    v1: float
    u2: float
    v2: float
    point: np.ndarray
    residual: float
    params: ModelParams
    series_order: int
    det: Optional[float] = None


@dataclass(frozen=True)
class ScanCell:
    """Outcome of one (epsilon, A) cell of a parameter scan."""

    epsilon: float
    A: float
    found: bool
    best_residual: Optional[float]
    solution: Optional[HomoclinicSolution]
    error: Optional[str] = None


@dataclass(frozen=True)
class FitResult:
    """Polynomial fit of a determinant curve: coeffs in descending powers."""

    coeffs: np.ndarray
    roots: np.ndarray
    ill_conditioned: bool


def _damped_newton_batch(fun_jac, X0, *, box_limit=np.inf):
    """Newton on a batch of square systems, each step capped at STEP_CAP.

    fun_jac(X) -> (G, J) is evaluated on (P, d) batches: once on X0, then
    once per iteration on the rows that took a step.  Each running row
    takes the full Newton step, scaled down to sup-norm STEP_CAP if it is
    longer; the cap is the damping.  Per-point termination: step below
    TOL_STEP * (1 + ||x||) -> _CONVERGED (the caller judges the residual),
    |det J| collapse -> _SINGULAR, sup-norm beyond box_limit -> _LEFT_BOX,
    non-finite G or MAX_ITER steps without converging -> _NO_CONV.

    Returns (X, resnorm, status) full-size arrays; resnorm is ||G|| at X.
    """
    X = np.array(X0, dtype=float)
    status = np.full(X.shape[0], _RUNNING)
    act = np.arange(X.shape[0])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        G, J = fun_jac(X)
        gn = np.linalg.norm(G, axis=-1)
        for it in range(MAX_ITER + 1):
            status[act[~np.isfinite(gn[act])]] = _NO_CONV
            out = np.max(np.abs(X[act]), axis=-1) > box_limit
            status[act[out]] = _LEFT_BOX
            act = act[status[act] == _RUNNING]
            if it == MAX_ITER:
                break
            det = np.linalg.det(J[act])
            ok = np.isfinite(det) & (np.abs(det) > 1e-280)
            status[act[~ok]] = _SINGULAR
            act = act[ok]
            if act.size == 0:
                break
            # the det test above leaves only systems with nonzero pivots,
            # so the batched solve cannot raise
            dx = np.linalg.solve(J[act], G[act][..., None])[..., 0]
            size = np.max(np.abs(dx), axis=-1, keepdims=True)
            dx *= STEP_CAP / np.maximum(STEP_CAP, size)
            X[act] -= dx
            scale = 1.0 + np.max(np.abs(X[act]), axis=-1)
            done = np.linalg.norm(dx, axis=-1) <= TOL_STEP * scale
            status[act[done]] = _CONVERGED
            # a row that converged on this step is evaluated once more, so
            # that resnorm belongs to its X; the next pass drops it
            G[act], J[act] = fun_jac(X[act])
            gn[act] = np.linalg.norm(G[act], axis=-1)
        status[status == _RUNNING] = _NO_CONV
    return X, gn, status


def _mirror(sol: HomoclinicSolution):
    # the series are odd, so (-u, -v) parametrizes the sign-flipped image
    return replace(sol, u1=-sol.u1, v1=-sol.v1, u2=-sol.u2, v2=-sol.v2,
                   point=-sol.point)


def _census_axis():
    """CENSUS points of [-1, 1], exactly odd: g == -g[::-1]."""
    half = np.linspace(0.0, 1.0, CENSUS // 2 + 1)
    return np.concatenate([-half[:0:-1], half])


def _components(cells):
    """Labels of the 8-connected components of a set of cells, given as
    sorted flat indices r * (CENSUS - 1) + c of the cell grid, numbered in
    row-major order of each component's first cell.  Union by smaller
    index over the forward neighbour pairs, so each root is its
    component's first cell."""
    n = CENSUS - 1
    c = cells % n
    a, b = [], []
    for dr, dc in ((0, 1), (1, -1), (1, 0), (1, 1)):
        nb = cells + dr * n + dc
        k = np.minimum(np.searchsorted(cells, nb), cells.size - 1)
        hit = (cells[k] == nb) & (c + dc >= 0) & (c + dc < n)
        a.append(np.flatnonzero(hit))
        b.append(k[hit])
    a, b = np.concatenate(a), np.concatenate(b)
    root = np.arange(cells.size)
    while True:
        ra, rb = root[a], root[b]
        if np.array_equal(ra, rb):
            return np.unique(root, return_inverse=True)[1]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(root, root[root]):
            root = root[root]


def _census_seeds(Ps: ManifoldSeries, bound):
    """Newton seeds from the census, one cell center per component.

    P is evaluated on the grid rows u >= -step only, by the contraction in
    tensor form: G is odd and the axis exactly symmetric, so the flags of
    the u < 0 half are the point mirror of the computed ones.  A cell
    passes the screen where max_i |P_i| is within bound at its four
    corners (a NaN corner fails), and only those cells take the sign tests
    of G and the corner sum of |G1| + |G2| that scores them.  Components
    are labelled on the whole box; each is seeded at its cell in the half
    box u > 0 with the smallest score.  A component with no cell there
    mirrors one that has.
    """
    g = _census_axis()
    mid = CENSUS // 2  # g[mid] == 0
    P = _contract_grid(Ps.coeffs, g[mid - 1:], g)  # (4, mid + 2, CENSUS)
    amp = np.abs(P[0])
    for Pi in P[1:]:
        np.maximum(amp, np.abs(Pi), out=amp)
    ok = amp <= bound  # False at NaN
    cells = np.argwhere(ok[:-1, :-1] & ok[1:, :-1] & ok[:-1, 1:] & ok[1:, 1:])
    # corners c00, c10, c01, c11 of each screened cell, as flat grid indices
    flat = cells @ [CENSUS, 1] + np.array([[0], [CENSUS], [1], [CENSUS + 1]])
    Q = P.reshape(4, -1)[:, flat]  # Q[:, k, c]: corner k of cell c
    G1, G2 = Q[0] - Q[3], Q[1] - Q[2]
    flag = ((G1.min(0) <= 0.0) & (G1.max(0) >= 0.0)
            & (G2.min(0) <= 0.0) & (G2.max(0) >= 0.0))
    s = np.abs(G1) + np.abs(G2)
    score = ((s[0] + s[1]) + s[2]) + s[3]
    cells, score = cells[flag], score[flag]
    n = CENSUS - 1  # cells per axis; cell (i, j) mirrors (n-1-i, n-1-j)
    # flagged cells of the whole box as sorted flat indices: the mirrors of
    # those in cell rows mid+1 and up, then the half grid's (rows mid-1 up)
    half = (cells[:, 0] + mid - 1) * n + cells[:, 1]
    mirror = n * n - 1 - half[cells[:, 0] > 1][::-1]
    labels = _components(np.concatenate([mirror, half]))[mirror.size:]
    keep = cells[:, 0] > 0  # in the half box u > 0
    cells, score, lab = cells[keep], score[keep], labels[keep]
    order = np.lexsort((score, lab))
    first = np.diff(lab[order], prepend=-1) != 0  # labels count from 0
    cells = cells[order[first]]
    step = g[1] - g[0]
    return np.stack([g[cells[:, 0] + mid - 1] + 0.5 * step,
                     g[cells[:, 1]] + 0.5 * step], axis=-1)


def symmetric_search(Ps: ManifoldSeries):
    """Find the reversor-symmetric homoclinic points of the stable series
    and its sigma5 image.

    Census stage (_census_seeds): P_s on a CENSUS x CENSUS grid of the unit
    box, evaluated on the half box u >= 0 and mirrored; a cell is flagged
    where its corners stay within twice the non-wandering bound (the
    relevant intersections cannot sit farther out) and both components of
    G = (P_1 - P_4, P_2 - P_3) change sign, and each 8-connected component
    of flagged cells gives one seed in the half box u > 0.  The bound
    screens the grid first: G is tested only at cells where max_i |P_i|
    passes at all four corners.  Polish stage:
    batched Newton on G with steps capped at STEP_CAP, wander guard at 1.5x
    the box.  A row that converged or stalled with ||G|| below
    MATCH_THRESHOLD is accepted only if it is nontrivial, inside the box,
    within the amplitude filter, and sits where the series itself is
    trusted (pointwise conjugacy residual below MATCH_THRESHOLD).  Accepted
    roots are deduplicated in (u, v) modulo sign, keeping the smallest
    ||G||, and each survivor (u, v) is certified once, where it lands: with
    q = P_s(u, v), u1 = u2 = u and v1 = v2 = v, its residual is
    ||sigma5 q - q|| and its point (q + sigma5 q)/2; roots with residual
    above MATCH_THRESHOLD are dropped.  Each certified root carries its
    det, -det(DG) det(DH) from one Jacobian of P_s, and is returned
    followed by its mirror image, pairs sorted by residual.
    """
    p = Ps.params
    bound = 2.0 * nonwandering_bound(p, dim=4)
    X0 = _census_seeds(Ps, bound)
    if X0.size == 0:
        return []

    def fun_jac(X):  # one contraction for both: (P, dP) -> (G, DG)
        Q, Jq = _contract(Ps.coeffs, X[:, 0], X[:, 1], jac=True)
        G = np.stack([Q[0] - Q[3], Q[1] - Q[2]], axis=-1)
        J = np.stack([Jq[0] - Jq[3], Jq[1] - Jq[2]]).transpose(2, 0, 1)
        return G, J

    X, gn, status = _damped_newton_batch(fun_jac, X0, box_limit=1.5)
    # a row stalled at an ill-conditioned root ends in _NO_CONV: ||G|| decides
    X = X[((status == _CONVERGED) | (status == _NO_CONV))
          & (gn <= MATCH_THRESHOLD) & (np.max(np.abs(X), axis=-1) <= 1.0)]
    # rows at the origin leave in one batch: no rounding of one point lifts
    # a norm of TRIVIAL_NORM / 2 to the gate below
    q = evaluate_series(Ps, X[:, 0], X[:, 1])
    X = X[np.linalg.norm(q, axis=-1) > 0.5 * TRIVIAL_NORM]
    # one point per call: the scattered evaluator's rounding depends on the
    # batch size, and a certified point must read back bit for bit from
    # evaluate_series(P, sol.u1, sol.v1)
    qs = np.array([evaluate_series(Ps, u, v) for u, v in X.tolist()])
    qs = qs.reshape(-1, 4)
    ok = ((np.linalg.norm(qs, axis=-1) > TRIVIAL_NORM)
          & (np.max(np.abs(qs), axis=-1) <= bound))
    X, qs = X[ok], qs[ok]
    ok = pointwise_conjugacy_residual(Ps, X[:, 0], X[:, 1]) <= MATCH_THRESHOLD
    X, qs = X[ok], qs[ok]
    # seeds from several components may land on one root; keep the copy
    # with the smallest ||G|| at the point it will be certified with
    gs = np.hypot(qs[:, 0] - qs[:, 3], qs[:, 1] - qs[:, 2])
    roots = []
    for k in np.argsort(gs, kind="stable").tolist():
        if all(min(np.linalg.norm(X[k] - X[j]), np.linalg.norm(X[k] + X[j]))
               > DEDUPE_TOL for j in roots):
            roots.append(k)
    sols = []
    for k in roots:
        u, v = X[k].tolist()
        q = qs[k]
        res = float(np.linalg.norm(q[::-1] - q))
        if res > MATCH_THRESHOLD:
            continue
        J = series_jacobian(Ps, u, v)
        det = -(np.linalg.det(J[[0, 1]] - J[[3, 2]])
                * np.linalg.det(J[[0, 1]] + J[[3, 2]]))
        sols.append(HomoclinicSolution(
            u1=u, v1=v, u2=u, v2=v, point=0.5 * (q[::-1] + q), residual=res,
            params=p, series_order=Ps.order, det=float(det)))
    sols.sort(key=lambda s: s.residual)
    return [s for sol in sols for s in (sol, _mirror(sol))]


def _scan_cell(task):
    eps, A, order = task
    try:
        p = ModelParams(eps, A)
        Ps, _ = compute_manifold_pair(p, order=order)
        sols = symmetric_search(Ps)
        if not sols:
            return ScanCell(eps, A, False, None, None)
        return ScanCell(eps, A, True, sols[0].residual, sols[0])
    except Exception as exc:  # a failed cell must not sink the scan
        return ScanCell(eps, A, False, None, None,
                        error=f"{type(exc).__name__}: {exc}")


def _one_blas_thread():
    """Pool initializer: numpy's OpenBLAS on one thread, so that the
    workers' BLAS threads do not outnumber the cores.  A count set in the
    environment, and any other BLAS, are left alone.  Symbols are looked up
    on numpy's linalg module, whose handle also searches the BLAS it links."""
    if any(key in os.environ for key in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")):
        return
    with suppress(OSError):  # a module that cannot be reopened
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if setter is not None:
                    setter(1)


def _pooled(tasks, workers):
    """_scan_cell over tasks in a process pool: per cell its ScanCell, or
    the exception its future failed with (a worker that dies breaks the
    pool and fails every cell still pending in it)."""
    with ProcessPoolExecutor(max_workers=workers,
                             initializer=_one_blas_thread) as pool:
        futures = [pool.submit(_scan_cell, t) for t in tasks]
        return [f.exception() or f.result() for f in futures]


def scan_parameters(eps_values, A_values, order=DEFAULT_ORDER, workers=None):
    """Search every (epsilon, A) cell of the grid; row-major cell order.

    Cells run independently (optionally across processes, at most one per
    cell); a cell that raises is recorded with its error string instead of
    aborting the scan.  A worker that dies breaks the pool; the cells it
    took down are rerun one at a time, each in a fresh one-process pool, so
    only a cell that kills its own worker is recorded as failed.
    """
    tasks = [(float(e), float(A), int(order))
             for e in np.atleast_1d(eps_values)
             for A in np.atleast_1d(A_values)]
    # a fork pool starts all its workers at once: never more than cells
    workers = min(int(workers or 1), len(tasks))
    if workers <= 1:
        return [_scan_cell(t) for t in tasks]
    cells = _pooled(tasks, workers)
    for k, task in enumerate(tasks):
        if not isinstance(cells[k], ScanCell):
            cell = _pooled([task], 1)[0]
            cells[k] = cell if isinstance(cell, ScanCell) else ScanCell(
                task[0], task[1], False, None, None,
                error=f"{type(cell).__name__}: {cell}")
    return cells


def det_curve_fit(A_samples, det_values):
    """Degree-FIT_DEGREE least-squares fit of det(A) and its real roots.

    Roots with relative imaginary part above 1e-8 are discarded.  A
    least-squares rank below FIT_DEGREE + 1 (too few distinct samples, or
    near-constant data) flags the fit as ill-conditioned.
    """
    A_samples = np.asarray(A_samples, dtype=float)
    det_values = np.asarray(det_values, dtype=float)
    coeffs, _, rank, _, _ = np.polyfit(A_samples, det_values, FIT_DEGREE,
                                       full=True)
    ill = bool(rank < FIT_DEGREE + 1)
    rts = np.roots(coeffs)  # none for a constant, or zero, polynomial
    real = np.abs(rts.imag) <= 1e-8 * np.maximum(1.0, np.abs(rts))
    roots = np.sort(rts[real].real)
    return FitResult(coeffs=coeffs, roots=roots, ill_conditioned=ill)
