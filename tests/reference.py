"""Reference paths that check the package's fast code: block-at-a-time
coefficient recursion, a long-double grid evaluator, and a multistart
homoclinic search that polishes the full 4-d matching system without the
reversor that symmetric_search reduces the problem with."""

import numpy as np

from dnls_nnn.homoclinic import (
    _CONVERGED,
    MATCH_THRESHOLD,
    TRIVIAL_NORM,
    HomoclinicSolution,
    _damped_newton_batch,
    _dedupe,
    _mirror,
)
from dnls_nnn.manifold import (
    RESONANCE_TOL,
    ManifoldSeries,
    ResonanceError,
    evaluate_series,
    series_jacobian,
)


def _k0_at(A, x):
    a, b = 1.0 / A, -2.0 / A
    return ((x + a) * x + b) * x * x + a * x + 1.0


def cubic_convolution(coeffs3, n, m):
    """Coefficient of u^n v^m in (sum a3^{nm} u^n v^m)^3.

    Direct double convolution; the series builder computes the same numbers
    diagonal-at-a-time.
    """
    a3 = np.asarray(coeffs3, dtype=float)
    n, m = int(n), int(m)
    sq = np.zeros((n + 1, m + 1))
    for i in range(n + 1):
        for j in range(m + 1):
            block = a3[: i + 1, : j + 1]
            sq[i, j] = np.sum(block * block[::-1, ::-1])
    out = 0.0
    for i in range(n + 1):
        for j in range(m + 1):
            out += sq[i, j] * a3[n - i, m - j]
    return float(out)


def solve_order_block(ms: ManifoldSeries, n, m):
    """One coefficient quadruple a^{nm} from the already-filled lower orders.

    compute_manifold_pair fills whole anti-diagonals of the stable table at
    once with the same arithmetic; for an unstable series this block is the
    independent recursion at rates (1/l1, 1/l2) that its sigma5 transport
    replaces.
    """
    n, m = int(n), int(m)
    k = n + m
    if k == 0:
        return np.zeros(4)
    L1, L2 = ms.rates
    g1, g2 = ms.scale
    if k == 1:
        L = L1 if n == 1 else L2
        g = g1 if n == 1 else g2
        return g * np.array([1.0, L, L * L, L**3])
    p = ms.params
    R = cubic_convolution(ms.coeffs[2], n, m) / (p.epsilon * p.A)
    Lam = L1**n * L2**m
    if R == 0.0:
        return np.zeros(4)
    D = -_k0_at(p.A, Lam)
    if abs(D) <= RESONANCE_TOL * max(1.0, abs(Lam) ** 4):
        raise ResonanceError((n, m), abs(D))
    a1 = R / D
    return a1 * np.array([1.0, Lam, Lam * Lam, Lam**3])


def horner_longdouble(C, gu, gv):
    """P on the grid gu x gv, Horner in v then in u, in long double.

    Shape (len(gu), len(gv), 4).  On x86-64 long double carries 64 mantissa
    bits, so this is about 2000x more precise than any float64 order.
    """
    C = np.asarray(C, dtype=np.longdouble)
    gu = np.asarray(gu, dtype=np.longdouble)
    gv = np.asarray(gv, dtype=np.longdouble)
    N = C.shape[1] - 1
    W = np.zeros((4, N + 1, gv.size), dtype=np.longdouble)
    for m in range(N, -1, -1):
        W = W * gv + C[:, :, m, None]
    out = np.zeros((4, gu.size, gv.size), dtype=np.longdouble)
    for n in range(N, -1, -1):
        out = out * gu[:, None] + W[:, n, None, :]
    return np.moveaxis(out, 0, -1)


def _match_funs(Pu: ManifoldSeries, Ps: ManifoldSeries):
    def fun(X):
        return (evaluate_series(Pu, X[:, 0], X[:, 1])
                - evaluate_series(Ps, X[:, 2], X[:, 3]))

    def fun_jac(X):
        G = fun(X)
        Ju = series_jacobian(Pu, X[:, 0], X[:, 1])
        Js = series_jacobian(Ps, X[:, 2], X[:, 3])
        return G, np.concatenate([Ju, -Js], axis=-1)

    return fun, fun_jac


def _make_solution(Pu, Ps, row, residual):
    u1, v1, u2, v2 = (float(c) for c in row)
    qu = evaluate_series(Pu, u1, v1)
    qs = evaluate_series(Ps, u2, v2)
    return HomoclinicSolution(
        u1=u1, v1=v1, u2=u2, v2=v2,
        point=0.5 * (qu + qs),
        residual=float(residual),
        params=Ps.params,
        series_order=Ps.order,
    )


def multistart_search(Pu: ManifoldSeries, Ps: ManifoldSeries, grid=21,
                      threshold=MATCH_THRESHOLD):
    """Batch-polish a grid of symmetric guesses (u, v, u, v) over the box.

    Damped Newton runs on the full 4-d matching system, so this search does
    not use the reversor that symmetric_search reduces the problem with;
    it cross-checks that no intersection is missed.  The seed grid is
    halved by the sign symmetry (solutions come in +/- pairs); accepted
    roots are mirrored back in.  Returns solutions sorted by residual,
    deduplicated in image space -- distinct parameter tuples for the same
    image collapse, distinct orbit points do not.
    """
    g = np.linspace(-1.0, 1.0, int(grid))
    uu, vv = [x.ravel() for x in np.meshgrid(g, g, indexing="ij")]
    keep = (uu > 0.0) | ((uu == 0.0) & (vv >= 0.0))
    uu, vv = uu[keep], vv[keep]
    X0 = np.stack([uu, vv, uu, vv], axis=-1)
    fun, fun_jac = _match_funs(Pu, Ps)
    X, gn, status = _damped_newton_batch(fun, fun_jac, X0, box_limit=1.0)
    sols = []
    for row, res, st in zip(X, gn, status):
        if st != _CONVERGED or res > threshold:
            continue
        sol = _make_solution(Pu, Ps, row, res)
        if np.linalg.norm(sol.point) <= TRIVIAL_NORM:
            continue
        sols.append(sol)
        sols.append(_mirror(sol))
    return _dedupe(sols)
