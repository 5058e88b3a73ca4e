"""Reference paths that check the package's fast code: block-at-a-time
coefficient recursion, the anti-diagonal recursion with every convolution,
the Horner grid evaluator and its v-stage on every column, a long-double
grid evaluator, the gauge's two bounds summed plainly, its boundary by
bisection and the automatic gauge by plain bisection, the census by Horner
on the full half grid with a flood-fill labeller, the search seeded at
every flagged census cell, a multistart homoclinic search that polishes
the full 4-d matching system without the reversor that symmetric_search
reduces the problem with, the 4x4 transversality determinant and the
two-series profile tails that symmetric_search and build_profile read off
the stable series alone, the phase portrait stepped one masked map2_apply
call at a time, and the series files rendered whole by json.dumps.

It also holds the structure of the maps and of their spectra that the
pipeline does not call but the tests check it against: the 2-d map, the
two inverses, the Jacobians, the symmetry registry, orbit iteration, the
shear conjugacy of the 2-d map, the fixed points, and the four-real-roots
lemma for the characteristic quartic.  reference_cells.py holds the
package to these oracles on REFERENCE_CELLS, one function per check."""

import json
from dataclasses import dataclass
from functools import reduce

import numpy as np

from dnls_nnn import __version__, homoclinic
from dnls_nnn.homoclinic import (
    _CONVERGED,
    CENSUS,
    DEDUPE_TOL,
    MATCH_THRESHOLD,
    TRIVIAL_NORM,
    HomoclinicSolution,
    _census_axis,
    _damped_newton_batch,
    _mirror,
)
from dnls_nnn.manifold import (
    OVERFLOW_LIMIT,
    RESONANCE_TOL,
    ManifoldSeries,
    ResonanceError,
    SeriesOverflowError,
    _tail,
    evaluate_series,
    series_jacobian,
    series_to_dict,
)
from dnls_nnn.maps import (
    ModelParams,
    as_state,
    map4_apply,
    nonwandering_bound,
)
from dnls_nnn.soliton import (
    Orbit2D,
    ProfileError,
    SolitonProfile,
    _residual_of_values,
    _tail_ratio,
)
from dnls_nnn.spectral import ReciprocalQuartic, characteristic_poly

# the 82 cells of reference_cells.py: the 18-cell acceptance grid, the
# window at eps=2e-4, the near-critical strip, the illustrative cell last
REFERENCE_CELLS = (
    [(e, A) for e in (4e-4, 0.01, 0.1, 1.0, -0.1, -0.5)
     for A in (-0.145, -0.13, -0.115)]
    + [(2e-4, A) for A in np.linspace(-0.145, -0.115, 13).tolist()]
    + [(e, A) for e in (2e-4, 4e-4, 0.01, 0.1, 1.0)
       for A in np.linspace(-0.1464, -0.1455, 10).tolist()]
    + [(4e-4, -0.125)]
)

# whether np.longdouble is wider than float64 (80-bit x87 on x86-64), so
# that the long-double oracles can resolve float64 rounding
EXTENDED = np.finfo(np.longdouble).eps < 1e-18


def map2_apply(s, p: ModelParams):
    s = as_state(s, 2)
    x, y = s[..., 0], s[..., 1]
    return np.stack([y, -x + 2.0 * y - y * y * y / p.epsilon], axis=-1)


def map2_inverse(s, p: ModelParams):
    s = as_state(s, 2)
    x, y = s[..., 0], s[..., 1]
    return np.stack([2.0 * x - x * x * x / p.epsilon - y, x], axis=-1)


def map4_inverse(s, p: ModelParams):
    p.require_A()
    s = as_state(s, 4)
    x, y, z, w = s[..., 0], s[..., 1], s[..., 2], s[..., 3]
    A, eps = p.A, p.epsilon
    x0 = -w - x / A + 2.0 * y / A - y * y * y / (eps * A) - z / A
    return np.stack([x0, x, y, z], axis=-1)


def map2_jacobian(s, p: ModelParams):
    s = as_state(s, 2)
    y = s[..., 1]
    J = np.zeros(s.shape[:-1] + (2, 2))
    J[..., 0, 1] = 1.0
    J[..., 1, 0] = -1.0
    J[..., 1, 1] = 2.0 - 3.0 * y**2 / p.epsilon
    return J


def map4_jacobian(s, p: ModelParams):
    """Analytic Jacobian of map4_apply; companion form, det = 1 identically."""
    p.require_A()
    s = as_state(s, 4)
    z = s[..., 2]
    A, eps = p.A, p.epsilon
    J = np.zeros(s.shape[:-1] + (4, 4))
    J[..., 0, 1] = 1.0
    J[..., 1, 2] = 1.0
    J[..., 2, 3] = 1.0
    J[..., 3, 0] = -1.0
    J[..., 3, 1] = -1.0 / A
    J[..., 3, 2] = 2.0 / A - 3.0 * z**2 / (eps * A)
    J[..., 3, 3] = -1.0 / A
    return J


@dataclass(frozen=True)
class SymmetryId:
    """One of the six involutions: tag, phase-space dimension, and whether it
    commutes with the map (symmetry) or conjugates it to the inverse (reversor)."""

    tag: str
    dim: int
    kind: str  # "symmetry" | "reversor"


SYMMETRIES = {
    sym.tag: sym
    for sym in (
        SymmetryId("sigma1", 2, "symmetry"),   # -id
        SymmetryId("sigma2", 2, "reversor"),   # (x,y) -> (y,x)
        SymmetryId("sigma3", 2, "reversor"),   # (x,y) -> (-y,-x)
        SymmetryId("sigma4", 4, "symmetry"),   # -id
        SymmetryId("sigma5", 4, "reversor"),   # (x,y,z,w) -> (w,z,y,x)
        SymmetryId("sigma6", 4, "reversor"),   # (x,y,z,w) -> (-w,-z,-y,-x)
    )
}

_NEGATES = {"sigma1": True, "sigma2": False, "sigma3": True,
            "sigma4": True, "sigma5": False, "sigma6": True}
_REVERSES = {"sigma1": False, "sigma2": True, "sigma3": True,
             "sigma4": False, "sigma5": True, "sigma6": True}


def apply_symmetry(sym, s):
    """Apply one of sigma1..sigma6.  sym may be a SymmetryId or its tag."""
    if isinstance(sym, str):
        sym = SYMMETRIES[sym]
    s = as_state(s, sym.dim)
    out = s[..., ::-1] if _REVERSES[sym.tag] else s
    return -out if _NEGATES[sym.tag] else np.array(out, copy=True)


def fixed_points(p: ModelParams):
    """Fixed points of the 4-d map: the origin, plus the pair of constant
    quadruples (+-c, .., +-c) with c = sqrt(-2 eps A) whenever eps*A < 0."""
    p.require_A()
    pts = [np.zeros(4)]
    if p.epsilon * p.A < 0.0:
        c = np.sqrt(-2.0 * p.epsilon * p.A)
        pts.append(np.full(4, c))
        pts.append(np.full(4, -c))
    return pts


def iterate_orbit(s, p: ModelParams, n, direction="forward"):
    """Iterate the map matching the state dimension for up to n steps.

    Returns (states, escaped): states has shape (k+1, dim) including the
    start; iteration stops early with escaped=True once the sup-norm exceeds
    10 x the non-wandering bound (an orbit that leaves that box cannot
    return and recur).
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    arr = np.asarray(s, dtype=float)
    dim = arr.shape[-1]
    if dim == 2:
        step = map2_apply if direction == "forward" else map2_inverse
    elif dim == 4:
        step = map4_apply if direction == "forward" else map4_inverse
    else:
        raise ValueError("state must have 2 or 4 components")
    thr = 10.0 * nonwandering_bound(p, dim)
    out = [as_state(arr, dim)]
    escaped = bool(np.max(np.abs(out[0])) > thr)
    cur = out[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(int(n)):
            if escaped:
                break
            nxt = step(cur, p)
            if not np.all(np.isfinite(nxt)):
                escaped = True
                break
            out.append(nxt)
            cur = nxt
            if np.max(np.abs(cur)) > thr:
                escaped = True
                break
    return np.array(out), escaped


def reference_portrait(p: ModelParams, seeds, steps=10000):
    """portrait_2d one masked map2_apply step at a time: the live seeds
    are stepped through the public map and tested after every step."""
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    limit = 10.0 * nonwandering_bound(p, dim=2)
    nseed = seeds.shape[0]
    alive = np.ones(nseed, dtype=bool)
    esc = np.zeros(nseed, dtype=bool)
    cut = np.full(nseed, steps)  # index of each seed's last stored point
    trail = np.empty((steps + 1, nseed, 2))
    trail[0] = seeds
    x = seeds.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            x[alive] = map2_apply(x[alive], p)
            trail[k] = x  # rows of dead seeds are stale but never read
            sup = np.max(np.abs(x), axis=-1)
            bad = alive & (~np.isfinite(sup) | (sup > limit))
            cut[bad] = k
            esc |= bad
            alive &= ~bad
            if not alive.any():
                break
    out = []
    for i in range(nseed):
        pts = trail[: cut[i] + 1, i].copy()
        if esc[i] and not np.all(np.isfinite(pts[-1])):
            pts = pts[:-1]
        out.append(Orbit2D(seed=seeds[i].copy(), points=pts,
                           steps=np.arange(len(pts)), escaped=bool(esc[i])))
    return out


def conjugacy_check_2d(s, p: ModelParams):
    """Residual of the change of variables that removes the linear shear.

    With psi(x,y) = (x+y, 2x+y) and
    T(x,y) = (x - (2x+y)^3/eps, x + y + (2x+y)^3/eps),
    the identity f0(psi(s)) = psi(T(s)) holds exactly; the returned
    Euclidean residual is pure rounding error.
    """
    s = as_state(s, 2)
    x, y = s[..., 0], s[..., 1]
    s3 = 2.0 * x + y
    cube = s3 * s3 * s3 / p.epsilon
    psi_s = np.stack([x + y, 2.0 * x + y], axis=-1)
    T_s = np.stack([x - cube, x + y + cube], axis=-1)
    lhs = map2_apply(psi_s, p)
    rhs = np.stack([T_s[..., 0] + T_s[..., 1],
                    2.0 * T_s[..., 0] + T_s[..., 1]], axis=-1)
    return np.linalg.norm(lhs - rhs, axis=-1)


def quartic_coefficients(q: ReciprocalQuartic):
    """Monic coefficient vector of q, highest degree first (np.roots order)."""
    return np.array([1.0, q.a, q.b, q.a, 1.0])


def _four_real_conditions(a, b, strict):
    lt = (lambda u, v: u < v) if strict else (lambda u, v: u <= v)
    conds = []
    if b < -2.0 or (not strict and b <= -2.0):
        h = 0.5 * np.sqrt(4.0 + 4.0 * b + b * b)
        conds.append(lt(-h, a) and lt(a, h))
    if b > 6.0 or (not strict and b >= 6.0):
        h = 0.5 * np.sqrt(4.0 + 4.0 * b + b * b)
        r = np.sqrt(4.0 * b - 8.0)
        conds.append(lt(-h, a) and lt(a, -r))
        conds.append(lt(r, a) and lt(a, h))
    return any(conds)


def sturm_real_root_test(q: ReciprocalQuartic):
    """True iff the quartic has four real roots; None on a boundary equality.

    A Sturm-chain criterion in the (a, b) plane: four real roots iff one of
      1. b < -2   and  -sqrt(4+4b+b^2)/2 < a < sqrt(4+4b+b^2)/2
      2. b > 6    and  -sqrt(4+4b+b^2)/2 < a < -sqrt(4b-8)
      3. b > 6    and   sqrt(4b-8)       < a < sqrt(4+4b+b^2)/2
    The three conditions use strict inequalities; a point where the
    strict and non-strict evaluations disagree sits exactly on a boundary
    curve, where the root count is ambiguous (multiple roots), and is
    reported as indeterminate.
    """
    strict = _four_real_conditions(q.a, q.b, strict=True)
    loose = _four_real_conditions(q.a, q.b, strict=False)
    if strict != loose:
        return None
    return strict


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
    D = -characteristic_poly(p, "origin")(Lam)
    if abs(D) <= RESONANCE_TOL * max(1.0, abs(Lam) ** 4):
        raise ResonanceError((n, m), abs(D))
    a1 = R / D
    return a1 * np.array([1.0, Lam, Lam * Lam, Lam**3])


def convolve_all_coeffs(p: ModelParams, L1, L2, N, dtype=float):
    """The unit-gauge table of _build_coeffs, convolving every pair of
    anti-diagonals of every total degree, the even ones and the mirrored
    ones included, one pair per np.convolve call, in the arithmetic of
    dtype (np.longdouble: an oracle for the float64 recursion's rounding,
    from the same float64 rates, eps and A)."""
    k0 = characteristic_poly(p, "origin")
    dtype = np.dtype(dtype).type
    L1, L2 = dtype(L1), dtype(L2)
    C = np.zeros((4, N + 1, N + 1), dtype=dtype)
    if N >= 1:
        C[:, 1, 0] = [1.0, L1, L1**2, L1**3]
        C[:, 0, 1] = [1.0, L2, L2**2, L2**3]
    pw1 = L1 ** np.arange(N + 1)
    pw2 = L2 ** np.arange(N + 1)
    d3 = [np.zeros(k + 1, dtype=dtype) for k in range(N + 1)]
    if N >= 1:
        d3[1] = np.array([C[2, 0, 1], C[2, 1, 0]])
    sq = [None] * (N + 1)
    for k in range(2, N + 1):
        j = k - 1
        if j >= 2:
            s = np.zeros(j + 1, dtype=dtype)
            for j1 in range(1, j):
                s += np.convolve(d3[j1], d3[j - j1])
            sq[j] = s
        cube = np.zeros(k + 1, dtype=dtype)
        for j2 in range(2, k):
            if sq[j2] is not None:
                cube += np.convolve(sq[j2], d3[k - j2])
        idx = np.arange(k + 1)
        Lam = pw1[idx] * pw2[k - idx]
        R = cube / (dtype(p.epsilon) * dtype(p.A))
        D = -k0(Lam)
        bad = (R != 0.0) & (np.abs(D) <= RESONANCE_TOL
                            * np.maximum(1.0, np.abs(Lam) ** 4))
        if np.any(bad):
            nn = int(idx[bad][0])
            raise ResonanceError((nn, k - nn), float(np.abs(D[bad][0])))
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            a1 = np.where(R == 0.0, 0.0, R / D)
            a4 = Lam**3 * a1
        if (not np.all(np.isfinite(a1)) or not np.all(np.isfinite(a4))
                or max(np.max(np.abs(a1)), np.max(np.abs(a4)))
                > OVERFLOW_LIMIT):
            raise SeriesOverflowError(k)
        C[0, idx, k - idx] = a1
        C[1, idx, k - idx] = Lam * a1
        C[2, idx, k - idx] = Lam * Lam * a1
        C[3, idx, k - idx] = a4
        d3[k] = C[2, idx, k - idx]
    return C


def _horner_v(C, gv):
    """Grid stage 1: W[n, i, j] = sum_m C[i, n, m] gv_j^m, Horner in v over
    all rows at once (row n stops at degree N - n).

    Each distinct |v| runs once.  Row n holds only degrees m of parity
    n + 1, and negation is exact, so Horner at -v is (-1)^(n+1) times
    Horner at |v| bit for bit, up to the sign of zeros."""
    N = C.shape[2] - 1
    av, col = np.unique(np.abs(gv), return_inverse=True)
    Ct = np.ascontiguousarray(C.transpose(2, 1, 0))  # Ct[m, n, i]
    W = np.zeros((C.shape[1], C.shape[0], av.size))
    for m in range(N, -1, -1):
        W[: N + 1 - m] *= av
        W[: N + 1 - m] += Ct[m, : N + 1 - m, :, None]
    W = W[:, :, col]
    W[::2] *= np.where(gv < 0, -1.0, 1.0)
    return W


def _horner_u(W, gu):
    """Grid stage 2: P[a, i, j] = sum_n W[n, i, j] gu_a^n, Horner in u.
    A gu of shape (U,) + W.shape[2:] gives each column j its own u-values."""
    g = gu.reshape(gu.shape[:1] + (1,) * (W.ndim - gu.ndim) + gu.shape[1:])
    out = np.zeros(gu.shape[:1] + W.shape[1:])
    for n in range(W.shape[0] - 1, -1, -1):
        out *= g
        out += W[n]
    return out


def evaluate_grid(ms: ManifoldSeries, gu, gv):
    """P on the tensor grid gu x gv (ij indexing), shape (len(gu), len(gv), 4),
    by Horner in v over all rows, once per distinct |v| (_horner_v), then
    Horner in u (_horner_u): the grid evaluator the package used before
    the census took the contraction's tensor form.

    Equals evaluate_series on the meshgrid up to rounding (about 1e-15
    relative); oddness P(-gu, -gv) == -P(gu, gv) holds exactly.
    """
    gu = np.asarray(gu, dtype=float).ravel()
    gv = np.asarray(gv, dtype=float).ravel()
    return np.moveaxis(_horner_u(_horner_v(ms.coeffs, gv), gu), 1, -1)


def horner_v_full(C, gv):
    """The v-stage of _horner_v run on every column of gv, v < 0 included."""
    N = C.shape[2] - 1
    Ct = np.ascontiguousarray(C.transpose(2, 1, 0))  # Ct[m, n, i]
    W = np.zeros((C.shape[1], 4, gv.size))
    for m in range(N, -1, -1):
        W[: N + 1 - m] *= gv
        W[: N + 1 - m] += Ct[m, : N + 1 - m, :, None]
    return W


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


def gauge_bounds(unit: ManifoldSeries, g1, g2):
    """The two bounds of the automatic gauge at extents (g1, g2) of the
    unit-gauge table, summed by np.sum and one anti-diagonal at a time:
    the rounding majorant u (2 M_1 + 2 (M_2 + 2 M_3 + M_4)/|A|
    + 3 M_3^3/|eps A|), M_i = sum |C_i[n, m]| g1^n g2^m, and the truncation
    tail sum_{k>N} (s*s*s)_k / |eps A|, s_k the l1 norm of anti-diagonal k
    of the weighted |C_3|."""
    p, N = unit.params, unit.order
    k = np.arange(N + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: fails
        w = np.where(unit.coeffs == 0.0, 0.0,
                     np.abs(unit.coeffs) * g2**k * (g1**k)[:, None])
        M = np.sum(w, axis=(1, 2))
        rounding = 2.0**-53 * (2.0 * M[0] + 2.0 * (M[1] + 2.0 * M[2] + M[3])
                               / abs(p.A)
                               + 3.0 * M[2]**3 / abs(p.epsilon * p.A))
        s = np.array([np.sum(w[2, ::-1].diagonal(d - N))
                      for d in range(N + 1)])
        cube = np.convolve(np.convolve(s, s), s)
        return rounding, float(np.sum(cube[N + 1:]) / abs(p.epsilon * p.A))


def boundary_extent(unit: ManifoldSeries, g2, tau, cap):
    """Largest g1 <= cap where both gauge bounds hold at (g1, g2), by
    bisection in log g1 to float resolution (0 if none)."""
    def ok(g1):
        rounding, tail = gauge_bounds(unit, g1, g2)
        return rounding <= tau and tail <= 1e-3 * tau

    if ok(cap):
        return cap
    lo, hi = np.log(cap) - 1.0, np.log(cap)
    while not ok(np.exp(lo)):
        lo, hi = 2.0 * lo - hi, lo
        if lo < -700.0:
            return 0.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ok(np.exp(mid)) else (lo, mid)
    return float(np.exp(lo))


def bisection_gauge(unit: ManifoldSeries, tau):
    """The automatic gauge by plain bisection, as _default_gauge defines
    it: the corner step, the doubling bracket down from the cap and the
    bisection of log g2 to 2^-30, every midpoint's boundary point x(y) by
    Newton from the right from the x of the current lower end, each run
    repeated from the 2^-24 grid.  Rows of |C| g2^m sum over every m in
    ascending order, in the [m, i, n] layout."""
    p = unit.params
    k = np.arange(unit.order + 1.0)
    Ct = np.ascontiguousarray(np.abs(unit.coeffs).transpose(2, 0, 1))
    Ck = np.stack([Ct, Ct * k[:, None, None]], axis=1)  # |C|, m |C|
    lin = np.array([2.0, 2.0, 4.0, 2.0]) / [1.0, abs(p.A), abs(p.A), abs(p.A)]
    cube = 3.0 / abs(p.epsilon * p.A)
    gcap = 256.0 * float(np.sqrt(abs(p.epsilon)))
    cap, rows = np.log(gcap), {}

    def log_bound(B, Bu, Bv, limit):  # log(B / limit) and its gradient
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return ((np.log(B / limit), Bu / B, Bv / B) if np.isfinite(
                B + Bu + Bv) else (np.inf, 0.0, 0.0))

    def rounding(x, y):
        with np.errstate(over="ignore", invalid="ignore"):
            if y not in rows:
                t = np.fmax(Ck * (np.exp(y) ** k)[:, None, None, None], 0.0)
                W = t.sum(axis=0)
                rows[y] = np.concatenate([W, W[:1] * k])
            t = np.fmax(rows[y] * np.exp(x) ** k, 0.0)
            M, Mv, Mu = np.cumsum(t, axis=-1)[..., -1]
            c = 3.0 * cube * M[2]**2
            return log_bound(lin @ M + cube * M[2]**3, lin @ Mu + c * Mu[2],
                             lin @ Mv + c * Mv[2], 2.0**53 * tau)

    def edge(F, y, x=cap):
        if not F(-np.inf, y)[0] < 0.0:
            return -np.inf, -np.inf
        for _ in range(2):
            x = min(np.ceil(x * 2.0**24) / 2.0**24, cap)
            f = F(x, y)
            while not f[0] <= 0.0:
                nxt = x - f[0] / f[1] if f[0] < np.inf else x - 1.0
                if not nxt < x:
                    break
                x, f = nxt, F(nxt, y)
        return x, 1.0 if x == cap and f[0] < 0.0 else 1.0 - f[2] / f[1]

    def solve(F):
        y, slope = edge(lambda y, x: np.array(F(x, y))[[0, 2, 1]], cap)
        if slope >= 0.0:
            return cap, y
        lo, hi, step = cap, cap, 1.0
        x, slope = edge(F, cap)
        while slope <= 0.0 and lo > y:
            hi, lo, step = lo, max(lo - step, y), 2.0 * step
            x, slope = edge(F, lo)
        while hi - lo > 2.0**-30:
            mid = 0.5 * (lo + hi)
            xm, slope = edge(F, mid, x)
            lo, hi, x = (mid, hi, xm) if slope > 0.0 else (lo, mid, x)
        return x, lo

    x, y = solve(rounding)
    if _tail(unit.coeffs[2], p, np.exp(x), np.exp(y))[0] > 1e-3 * tau:
        x, y = solve(lambda x, y: max(rounding(x, y), log_bound(
            *_tail(unit.coeffs[2], p, np.exp(x), np.exp(y)), 1e-3 * tau)))
    return tuple(min(float(np.exp(t)), gcap) if t < cap else gcap
                 for t in (x, y))


def components_dense(mask):
    """Labels of the 8-connected components of a boolean mask (-1 off it),
    numbered in row-major order of each component's first cell, by flood
    fill over the whole padded mask."""
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


def census_half_grid(Ps: ManifoldSeries):
    """P by evaluate_grid on the census rows u >= -step, shape
    (CENSUS // 2 + 2, CENSUS, 4)."""
    g = _census_axis()
    return evaluate_grid(Ps, g[CENSUS // 2 - 1:], g)


def _census_full(P, bound):
    """The census with all four components on the whole half grid P (as
    census_half_grid gives it): the flags of the half-grid cells (rows
    mid-1 and up), their corner scores, and the components labelled by
    components_dense on the mirrored whole box."""
    mid = CENSUS // 2  # g[mid] == 0
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
    score = sum(corners(np.abs(G1) + np.abs(G2)))
    return half, score, components_dense(mask)[mid - 1:]


def _cell_centers(cells):
    """Parameter points at the centers of half-grid cells (rows mid-1 up)."""
    g = _census_axis()
    step = g[1] - g[0]
    return np.stack([g[cells[:, 0] + CENSUS // 2 - 1] + 0.5 * step,
                     g[cells[:, 1]] + 0.5 * step], axis=-1).reshape(-1, 2)


def census_seeds_full(Ps: ManifoldSeries, bound):
    """_census_seeds by census_seeds_of_grid on census_half_grid(Ps)."""
    return census_seeds_of_grid(census_half_grid(Ps), bound)


def census_seeds_of_grid(P, bound):
    """The census seeds of the half grid P (census_half_grid's shape): the
    seed of each component is its flagged cell in the half box u > 0 of
    smallest score, in _census_seeds' component and tie order."""
    half, score, labels = _census_full(P, bound)
    cells = np.argwhere(half[1:]) + [1, 0]  # the half box u > 0
    lab = labels[tuple(cells.T)]
    order = np.lexsort((score[tuple(cells.T)], lab))
    first = np.diff(lab[order], prepend=-1) != 0  # labels count from 0
    return _cell_centers(cells[order[first]])


def census_cells_full(Ps: ManifoldSeries, bound):
    """Every flagged cell of the half box u > 0, in row-major order, as
    Newton seeds: the census without its one seed per component."""
    half = _census_full(census_half_grid(Ps), bound)[0]
    return _cell_centers(np.argwhere(half[1:]) + [1, 0])


def all_cell_search(Ps: ManifoldSeries, seeds=census_cells_full):
    """symmetric_search seeded at every flagged cell (census_cells_full),
    or at seeds(Ps, bound) where given.

    The package's own Newton, gates, dedupe and certification run on the
    seeds; only homoclinic._census_seeds is replaced, for this call.
    """
    real = homoclinic._census_seeds
    homoclinic._census_seeds = seeds
    try:
        return homoclinic.symmetric_search(Ps)
    finally:
        homoclinic._census_seeds = real


def _dedupe(solutions, tol=DEDUPE_TOL):
    kept = []
    for sol in sorted(solutions, key=lambda s: s.residual):
        if all(np.linalg.norm(sol.point - k.point) > tol for k in kept):
            kept.append(sol)
    return kept


def _match_fun_jac(Pu: ManifoldSeries, Ps: ManifoldSeries):
    def fun_jac(X):
        G = (evaluate_series(Pu, X[:, 0], X[:, 1])
             - evaluate_series(Ps, X[:, 2], X[:, 3]))
        Ju = series_jacobian(Pu, X[:, 0], X[:, 1])
        Js = series_jacobian(Ps, X[:, 2], X[:, 3])
        return G, np.concatenate([Ju, -Js], axis=-1)

    return fun_jac


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
    X, gn, status = _damped_newton_batch(_match_fun_jac(Pu, Ps), X0,
                                         box_limit=1.0)
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


def transversality_det(Pu: ManifoldSeries, Ps: ManifoldSeries,
                       sol: HomoclinicSolution):
    """Determinant of the four tangent columns at a matched intersection."""
    Ju = series_jacobian(Pu, sol.u1, sol.v1)
    Js = series_jacobian(Ps, sol.u2, sol.v2)
    return float(np.linalg.det(np.concatenate([Ju, Js], axis=-1)))


def two_tail_profile(sol: HomoclinicSolution, Pu: ManifoldSeries,
                     Ps: ManifoldSeries, floor=1e-14, max_steps=500):
    """The lattice profile with each tail read from its own series: the
    right tail from Ps at parameters shrunk by its rates, the left from Pu
    at parameters shrunk by the reciprocals of its rates."""
    l1s, l2s = Ps.rates
    l1u, l2u = 1.0 / Pu.rates[0], 1.0 / Pu.rates[1]
    ks = np.arange(1, int(max_steps) + 1)
    fw_states = evaluate_series(Ps, sol.u2 * l1s**ks, sol.v2 * l2s**ks)
    bw_states = evaluate_series(Pu, sol.u1 * l1u**ks, sol.v1 * l2u**ks)
    fw_stop = np.nonzero(np.max(np.abs(fw_states), axis=-1) < floor)[0]
    bw_stop = np.nonzero(np.max(np.abs(bw_states), axis=-1) < floor)[0]
    if fw_stop.size == 0 or bw_stop.size == 0:
        raise ProfileError(f"tail above floor {floor:g}")
    kf, kb = int(fw_stop[0]), int(bw_stop[0])
    right = fw_states[:kf, 3]            # u_3 .. u_{kf+2}
    left = bw_states[:kb, 0][::-1]       # u_{-kb-1} .. u_{-2}
    values = np.concatenate([left, np.asarray(sol.point, dtype=float),
                             right])
    indices = np.arange(-kb - 1, kf + 3)
    peak = float(np.max(np.abs(values)))
    decay = (_tail_ratio(-indices[:kb], values[:kb], floor, peak),
             _tail_ratio(indices[kb + 4:], values[kb + 4:], floor, peak))
    return SolitonProfile(params=sol.params, indices=indices, values=values,
                          residual_max=_residual_of_values(values, sol.params),
                          tail_decay=decay)


def manifold_file_text(ms: ManifoldSeries, config, residual, tail):
    """The text of manifold_<branch>.json for ms under the settings record
    config, rendered by the indent encoder from the whole series_to_dict
    table."""
    body = {"version": __version__, "config": config,
            "series": series_to_dict(ms), "conjugacy_residual": residual,
            "tail_bound": tail}
    return json.dumps(body, sort_keys=True, indent=1) + "\n"
