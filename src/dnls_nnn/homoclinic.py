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
census is evaluated on the half box u >= 0 and mirrored; its flagged cells
are grouped into 8-connected components, and each component is seeded
once, on the half box.  Since P_u = sigma5 o P_s holds bit for bit, the 4-d
matching defect at a root is (-G1, -G2, G2, G1), so each root is certified
where the 2-d Newton leaves it, on both series at once.  Roots are
deduplicated in (u, v) modulo sign first, so each is certified once, and
its mirror image is the sign flip.

The polish runs a batched damped-Newton engine with a strict failure
taxonomy (singular-jacobian / left-box / no-convergence).  Transversality
of a certified intersection is measured by the determinant of the four
tangent columns [dP_u/du1, dP_u/dv1, dP_s/du2, dP_s/dv2], stored as its
det; its magnitude is gauge dependent, but its vanishing (a tangency) is
not.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import reduce
from typing import Optional

import numpy as np

from .manifold import (
    DEFAULT_ORDER,
    ManifoldSeries,
    compute_manifold_pair,
    evaluate_grid,
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
    "transversality_det",
    "scan_parameters",
    "det_curve_fit",
]

MATCH_THRESHOLD = 1e-10
CENSUS = 321  # census grid points per axis of the unit box
TRIVIAL_NORM = 1e-6
DEDUPE_TOL = 1e-8  # roots this close in (u, v), modulo sign, are one root

# damped-Newton status codes
_RUNNING, _CONVERGED, _SINGULAR, _LEFT_BOX, _NO_CONV = -1, 0, 1, 2, 3


class MatchFailure(RuntimeError):
    """A homoclinic computation could not be completed; .reason carries a
    short label (the CLI raises it when a transversality sweep misses
    cells)."""

    def __init__(self, reason, detail=""):
        self.reason = reason
        super().__init__(reason if not detail else f"{reason}: {detail}")


@dataclass(frozen=True)
class HomoclinicSolution:
    """One matched intersection.

    (u1, v1) are unstable-series parameters, (u2, v2) stable ones; point is
    the common image (midpoint of the two evaluations) and residual their
    Euclidean mismatch.  det is the transversality determinant, filled
    by symmetric_search when it certifies the solution.
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


def _damped_newton_batch(fun, fun_jac, X0, *, box_limit=None, tol_step=1e-13,
                         max_iter=50, max_halvings=20):
    """Damped Newton on a batch of square systems.

    fun(X) -> G and fun_jac(X) -> (G, J) are evaluated on (P, d) batches;
    after the first call, fun_jac sees only the rows that just moved.
    A step is accepted only if it strictly decreases ||G||; the step is
    halved up to max_halvings times otherwise.  Per-point termination:
    accepted step below tol_step * (1 + ||x||)  -> _CONVERGED (caller judges
    the residual), |det J| collapse -> _SINGULAR, sup-norm beyond box_limit
    -> _LEFT_BOX, iteration budget or a dead-end line search -> _NO_CONV.

    Returns (X, resnorm, status) full-size arrays.
    """
    X = np.array(X0, dtype=float)
    status = np.full(X.shape[0], _RUNNING)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        G, J = fun_jac(X)
        gn = np.linalg.norm(G, axis=-1)
        status[~np.isfinite(gn)] = _NO_CONV
        for _ in range(max_iter):
            act = status == _RUNNING
            if box_limit is not None:
                out = act & (np.max(np.abs(X), axis=-1) > box_limit)
                status[out] = _LEFT_BOX
                act &= ~out
            if not act.any():
                break
            det = np.linalg.det(J[act])
            ok = np.isfinite(det) & (np.abs(det) > 1e-280)
            act_idx = np.where(act)[0]
            status[act_idx[~ok]] = _SINGULAR
            act_idx = act_idx[ok]
            if act_idx.size == 0:
                continue
            # the det test above leaves only systems with nonzero pivots,
            # so the batched solve cannot raise
            dx = np.linalg.solve(J[act_idx], G[act_idx][..., None])[..., 0]
            # a proposed step below tolerance means the seed already sits on
            # the root; the strict-decrease search cannot certify that at the
            # machine floor, so accept it directly
            scale0 = 1.0 + np.max(np.abs(X[act_idx]), axis=-1)
            tiny = np.linalg.norm(dx, axis=-1) <= tol_step * scale0
            status[act_idx[tiny]] = _CONVERGED
            act_idx, dx = act_idx[~tiny], dx[~tiny]
            if act_idx.size == 0:
                continue
            t = np.ones(act_idx.size)
            pending = np.ones(act_idx.size, dtype=bool)
            for _h in range(max_halvings + 1):
                if not pending.any():
                    break
                rows = np.where(pending)[0]
                cand = X[act_idx[rows]] - t[rows, None] * dx[rows]
                gc = np.linalg.norm(fun(cand), axis=-1)
                better = np.isfinite(gc) & (gc < gn[act_idx[rows]])
                acc = rows[better]
                X[act_idx[acc]] = cand[better]
                pending[acc] = False
                t[rows[~better]] *= 0.5
            dead = np.where(pending)[0]
            if dead.size:
                # exhausted line search: if even the fully damped increment is
                # below tolerance the iterate has stalled on the root (the
                # residual check is the caller's), otherwise it truly failed
                stepn = t[dead] * np.linalg.norm(dx[dead], axis=-1)
                scale_d = 1.0 + np.max(np.abs(X[act_idx[dead]]), axis=-1)
                ok_d = stepn <= tol_step * scale_d
                status[act_idx[dead[ok_d]]] = _CONVERGED
                status[act_idx[dead[~ok_d]]] = _NO_CONV
            moved = act_idx[~pending]
            if moved.size:
                stepn = np.linalg.norm(t[~pending, None] * dx[~pending], axis=-1)
                scale = 1.0 + np.max(np.abs(X[moved]), axis=-1)
                done = stepn <= tol_step * scale
                status[moved[done]] = _CONVERGED
                # only moved rows are re-evaluated; every other row's G and J
                # still belong to its X
                G[moved], J[moved] = fun_jac(X[moved])
                gn[moved] = np.linalg.norm(G[moved], axis=-1)
        status[status == _RUNNING] = _NO_CONV
        if box_limit is not None:
            out = (status == _CONVERGED) & (np.max(np.abs(X), axis=-1) > box_limit)
            status[out] = _LEFT_BOX
    return X, gn, status


def _mirror(sol: HomoclinicSolution):
    # the series are odd, so (-u, -v) parametrizes the sign-flipped image
    return replace(sol, u1=-sol.u1, v1=-sol.v1, u2=-sol.u2, v2=-sol.v2,
                   point=-sol.point)


def _census_axis():
    """CENSUS points of [-1, 1], exactly odd: g == -g[::-1]."""
    half = np.linspace(0.0, 1.0, CENSUS // 2 + 1)
    return np.concatenate([-half[:0:-1], half])


def _components(mask):
    """Labels of the 8-connected components of a boolean mask (-1 off it),
    numbered in row-major order of each component's first cell."""
    lab = np.pad(np.where(mask, -2, -1), 1, constant_values=-1)  # -2: unseen
    count = 0
    for start in map(tuple, np.argwhere(lab == -2).tolist()):
        if lab[start] != -2:
            continue
        lab[start] = count
        stack = [start]
        while stack:
            i, j = stack.pop()
            for a in (i - 1, i, i + 1):
                for b in (j - 1, j, j + 1):
                    if lab[a, b] == -2:
                        lab[a, b] = count
                        stack.append((a, b))
        count += 1
    return lab[1:-1, 1:-1]


def _census_seeds(Ps: ManifoldSeries, bound):
    """Newton seeds from the census, one cell center per component.

    P is evaluated on the grid rows u >= -step only: G is odd and the axis
    exactly symmetric, so the flags of the u < 0 half are the point mirror
    of the computed ones.  Components are labelled on the whole box; each
    is seeded at its cell in the half box u > 0 with the smallest corner
    sum of |G1| + |G2|.  A component with no cell there mirrors one that
    has.
    """
    g = _census_axis()
    mid = CENSUS // 2  # g[mid] == 0
    P = evaluate_grid(Ps, g[mid - 1:], g)
    amp = np.max(np.abs(P), axis=-1)
    G1 = P[..., 0] - P[..., 3]
    G2 = P[..., 1] - P[..., 2]
    del P

    def corners(F):
        return F[:-1, :-1], F[1:, :-1], F[:-1, 1:], F[1:, 1:]

    def lo(F):
        return reduce(np.minimum, corners(F))

    def hi(F):
        return reduce(np.maximum, corners(F))

    half = ((hi(amp) <= bound) & (lo(G1) <= 0.0) & (hi(G1) >= 0.0)
            & (lo(G2) <= 0.0) & (hi(G2) >= 0.0))
    n = CENSUS - 1  # cells per axis; cell (i, j) mirrors (n-1-i, n-1-j)
    mask = np.zeros((n, n), dtype=bool)
    mask[mid - 1:] = half
    mask[:mid - 1] = mask[::-1, ::-1][:mid - 1]
    labels = _components(mask)
    cells = np.argwhere(half[1:])  # rows of half[1:] are cell rows mid..n-1
    if cells.size == 0:
        return np.zeros((0, 2))
    lab = labels[cells[:, 0] + mid, cells[:, 1]]
    score = sum(corners(np.abs(G1) + np.abs(G2)))[cells[:, 0] + 1, cells[:, 1]]
    order = np.lexsort((score, lab))
    first = np.r_[True, lab[order][1:] != lab[order][:-1]]
    cells = cells[order[first]]
    step = g[1] - g[0]
    return np.stack([g[cells[:, 0] + mid] + 0.5 * step,
                     g[cells[:, 1]] + 0.5 * step], axis=-1)


def symmetric_search(Ps: ManifoldSeries, Pu: ManifoldSeries,
                     threshold=MATCH_THRESHOLD):
    """Find the reversor-symmetric homoclinic points of a series pair.

    Census stage (_census_seeds): P_s on a CENSUS x CENSUS grid of the unit
    box, evaluated on the half box u >= 0 and mirrored; a cell is flagged
    where its corners stay within twice the non-wandering bound (the
    relevant intersections cannot sit farther out) and both components of
    G = (P_1 - P_4, P_2 - P_3) change sign, and each 8-connected component
    of flagged cells gives one seed in the half box u > 0.  Polish stage:
    batched damped Newton on G, wander guard at 1.5x the box.  A root is
    accepted only if it is nontrivial, inside the box, within the amplitude
    filter, has ||G|| below threshold, and sits where the series itself is
    trusted (pointwise conjugacy residual below threshold).  Accepted roots
    are deduplicated in (u, v) modulo sign, keeping the smallest ||G||, and
    each survivor (u, v) is certified once, where it lands: with
    u1 = u2 = u and v1 = v2 = v, its residual is ||P_u - P_s|| and its
    point the midpoint of the two images; roots with residual above
    threshold are dropped.  Each certified root carries its det and is
    returned followed by its mirror image, pairs sorted by residual.
    """
    p = Ps.params
    bound = 2.0 * nonwandering_bound(p, dim=4)
    X0 = _census_seeds(Ps, bound)
    if X0.size == 0:
        return []

    def fun(X):
        Q = evaluate_series(Ps, X[:, 0], X[:, 1])
        return np.stack([Q[:, 0] - Q[:, 3], Q[:, 1] - Q[:, 2]], axis=-1)

    def fun_jac(X):
        Q = evaluate_series(Ps, X[:, 0], X[:, 1])
        Jq = series_jacobian(Ps, X[:, 0], X[:, 1])
        G = np.stack([Q[:, 0] - Q[:, 3], Q[:, 1] - Q[:, 2]], axis=-1)
        J = np.stack([Jq[:, 0] - Jq[:, 3], Jq[:, 1] - Jq[:, 2]], axis=-2)
        return G, J

    X, gn, status = _damped_newton_batch(fun, fun_jac, X0, box_limit=1.5)
    X = X[(status == _CONVERGED) & (gn <= threshold)
          & (np.max(np.abs(X), axis=-1) <= 1.0)]
    # one point per call: the scattered evaluator's rounding depends on the
    # batch size, and a certified point must read back bit for bit from
    # evaluate_series(P, sol.u1, sol.v1)
    qs = np.array([evaluate_series(Ps, u, v) for u, v in X.tolist()])
    qs = qs.reshape(-1, 4)
    ok = ((np.linalg.norm(qs, axis=-1) > TRIVIAL_NORM)
          & (np.max(np.abs(qs), axis=-1) <= bound))
    X, qs = X[ok], qs[ok]
    ok = pointwise_conjugacy_residual(Ps, X[:, 0], X[:, 1]) <= threshold
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
        qu = evaluate_series(Pu, u, v)
        res = float(np.linalg.norm(qu - qs[k]))
        if res > threshold:
            continue
        sol = HomoclinicSolution(u1=u, v1=v, u2=u, v2=v,
                                 point=0.5 * (qu + qs[k]), residual=res,
                                 params=p, series_order=Ps.order)
        sols.append(replace(sol, det=transversality_det(Pu, Ps, sol)))
    sols.sort(key=lambda s: s.residual)
    return [s for sol in sols for s in (sol, _mirror(sol))]


def transversality_det(Pu: ManifoldSeries, Ps: ManifoldSeries,
                       sol: HomoclinicSolution):
    """Determinant of the four tangent columns at a matched intersection."""
    Ju = series_jacobian(Pu, sol.u1, sol.v1)
    Js = series_jacobian(Ps, sol.u2, sol.v2)
    return float(np.linalg.det(np.concatenate([Ju, Js], axis=-1)))


def _scan_cell(task):
    eps, A, order, threshold = task
    try:
        p = ModelParams(eps, A)
        Ps, Pu = compute_manifold_pair(p, order=order)
        sols = symmetric_search(Ps, Pu, threshold=threshold)
        if not sols:
            return ScanCell(eps, A, False, None, None)
        return ScanCell(eps, A, True, sols[0].residual, sols[0])
    except Exception as exc:  # a failed cell must not sink the scan
        return ScanCell(eps, A, False, None, None,
                        error=f"{type(exc).__name__}: {exc}")


def _pooled(tasks, workers):
    """_scan_cell over tasks in a process pool: per cell its ScanCell, or
    the exception its future failed with (a worker that dies breaks the
    pool and fails every cell still pending in it)."""
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_scan_cell, t) for t in tasks]
        return [f.exception() or f.result() for f in futures]


def scan_parameters(eps_values, A_values, order=DEFAULT_ORDER,
                    threshold=MATCH_THRESHOLD, workers=None):
    """Search every (epsilon, A) cell of the grid; row-major cell order.

    Cells run independently (optionally across processes, at most one per
    cell); a cell that raises is recorded with its error string instead of
    aborting the scan.  A worker that dies breaks the pool; the cells it
    took down are rerun one at a time, each in a fresh one-process pool, so
    only a cell that kills its own worker is recorded as failed.
    """
    tasks = [(float(e), float(A), int(order), float(threshold))
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


_RANK_WARNING = getattr(getattr(np, "exceptions", np), "RankWarning",
                        getattr(np, "RankWarning", Warning))


def det_curve_fit(A_samples, det_values, degree=4):
    """Least-squares polynomial fit of det(A) and its real roots.

    Roots with relative imaginary part above 1e-8 are discarded.  A rank
    warning from the normal equations flags the fit as ill-conditioned
    (constant or near-constant data) rather than raising.
    """
    A_samples = np.asarray(A_samples, dtype=float)
    det_values = np.asarray(det_values, dtype=float)
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        coeffs = np.polyfit(A_samples, det_values, int(degree))
    ill = any(issubclass(w.category, _RANK_WARNING) for w in log)
    rts = np.roots(coeffs) if np.any(coeffs != 0.0) else np.array([])
    if rts.size:
        real = np.abs(rts.imag) <= 1e-8 * np.maximum(1.0, np.abs(rts))
        roots = np.sort(rts[real].real)
    else:
        roots = np.array([])
    return FitResult(coeffs=coeffs, roots=roots, ill_conditioned=ill)
