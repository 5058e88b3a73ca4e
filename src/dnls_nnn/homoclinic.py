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
coarse multistart.  Since P_u = sigma5 o P_s holds bit for bit, the 4-d
matching defect at such a point is (-G1, -G2, G2, G1), so each root is
certified where the 2-d Newton leaves it, on both series at once.

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
DEDUPE_TOL = 1e-8

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

    fun(X) -> G and fun_jac(X) -> (G, J) are evaluated on (P, d) batches.
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
            G, J = fun_jac(X)
            gn = np.linalg.norm(G, axis=-1)
        status[status == _RUNNING] = _NO_CONV
        if box_limit is not None:
            out = (status == _CONVERGED) & (np.max(np.abs(X), axis=-1) > box_limit)
            status[out] = _LEFT_BOX
    return X, gn, status


def _dedupe(solutions, tol=DEDUPE_TOL):
    kept = []
    for sol in sorted(solutions, key=lambda s: s.residual):
        if all(np.linalg.norm(sol.point - k.point) > tol for k in kept):
            kept.append(sol)
    return kept


def _mirror(sol: HomoclinicSolution):
    # the series are odd, so (-u, -v) parametrizes the sign-flipped image
    return replace(sol, u1=-sol.u1, v1=-sol.v1, u2=-sol.u2, v2=-sol.v2,
                   point=-sol.point)


def symmetric_search(Ps: ManifoldSeries, Pu: ManifoldSeries,
                     threshold=MATCH_THRESHOLD):
    """Find the reversor-symmetric homoclinic points of a series pair.

    Census stage: evaluate P_s on a CENSUS x CENSUS grid of the unit box,
    keep cells whose corners all stay within twice the non-wandering bound
    (the relevant intersections cannot sit farther out) and where both
    components of G = (P_1 - P_4, P_2 - P_3) change sign.  Polish stage:
    batched damped Newton on G from the cell centers, wander guard at 1.5x
    the box.  A root is accepted only if it is nontrivial, inside the box,
    within the amplitude filter, has ||G|| below threshold, and sits where
    the series itself is trusted (pointwise conjugacy residual below
    threshold).  Each accepted root (u, v) is certified where it lands:
    with u1 = u2 = u and v1 = v2 = v, its residual is ||P_u - P_s|| and
    its point the midpoint of the two images, and roots with residual
    above threshold are dropped.  The survivors carry their det, are
    mirrored through the sign symmetry and deduplicated.
    """
    p = Ps.params
    bound = 2.0 * nonwandering_bound(p, dim=4)
    g = np.linspace(-1.0, 1.0, CENSUS)
    P = evaluate_grid(Ps, g, g)
    amp = np.max(np.abs(P), axis=-1)
    G1 = P[..., 0] - P[..., 3]
    G2 = P[..., 1] - P[..., 2]

    def corners(F):
        return F[:-1, :-1], F[1:, :-1], F[:-1, 1:], F[1:, 1:]

    a00, a10, a01, a11 = corners(amp)
    small = (a00 <= bound) & (a10 <= bound) & (a01 <= bound) & (a11 <= bound)
    c00, c10, c01, c11 = corners(G1)
    flip1 = (np.minimum(np.minimum(c00, c10), np.minimum(c01, c11)) <= 0.0) & \
            (np.maximum(np.maximum(c00, c10), np.maximum(c01, c11)) >= 0.0)
    c00, c10, c01, c11 = corners(G2)
    flip2 = (np.minimum(np.minimum(c00, c10), np.minimum(c01, c11)) <= 0.0) & \
            (np.maximum(np.maximum(c00, c10), np.maximum(c01, c11)) >= 0.0)
    cells = np.argwhere(small & flip1 & flip2)
    if cells.size == 0:
        return []
    step = g[1] - g[0]
    X0 = np.stack([g[cells[:, 0]] + 0.5 * step, g[cells[:, 1]] + 0.5 * step],
                  axis=-1)

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
    qs = evaluate_series(Ps, X[:, 0], X[:, 1])
    ok = ((np.linalg.norm(qs, axis=-1) > TRIVIAL_NORM)
          & (np.max(np.abs(qs), axis=-1) <= bound))
    X = X[ok]
    X = X[pointwise_conjugacy_residual(Ps, X[:, 0], X[:, 1]) <= threshold]
    sols = []
    for u, v in X.tolist():
        # one point per call: the scattered evaluator's rounding depends on
        # the batch size, and a certified point must read back bit for bit
        # from evaluate_series(P, sol.u1, sol.v1)
        qu, qs = evaluate_series(Pu, u, v), evaluate_series(Ps, u, v)
        res = float(np.linalg.norm(qu - qs))
        if res > threshold:
            continue
        sol = HomoclinicSolution(u1=u, v1=v, u2=u, v2=v, point=0.5 * (qu + qs),
                                 residual=res, params=p,
                                 series_order=Ps.order)
        sol = replace(sol, det=transversality_det(Pu, Ps, sol))
        sols += [sol, _mirror(sol)]
    return _dedupe(sols)


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


def scan_parameters(eps_values, A_values, order=DEFAULT_ORDER,
                    threshold=MATCH_THRESHOLD, workers=None):
    """Search every (epsilon, A) cell of the grid; row-major cell order.

    Cells run independently (optionally across processes, at most one per
    cell); a cell that raises is recorded with its error string instead of
    aborting the scan.
    """
    tasks = [(float(e), float(A), int(order), float(threshold))
             for e in np.atleast_1d(eps_values)
             for A in np.atleast_1d(A_values)]
    # a fork pool starts all its workers at once: never more than cells
    workers = min(int(workers or 1), len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_scan_cell, tasks))
    return [_scan_cell(t) for t in tasks]


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
