"""Power-series parametrization of the origin's stable/unstable manifolds.

Each 2-d manifold of the 4-d map f is computed as the image of a polynomial
P(u, v) = sum_{1 <= n+m <= N} a^{nm} u^n v^m (one coefficient quadruple
a^{nm} = (a_1, .., a_4) per block) satisfying the conjugacy

    f(P(u, v)) = P(L1 u, L2 v),

where (L1, L2) are the eigenvalue pair of the linearization: the stable pair
(|L| < 1) for the stable branch, their reciprocals for the unstable one.  The
pair, and the refusal of a cell outside the construction's domain, come from
spectral.origin_stable_pair.
Only the stable branch is computed.  Because f is a shift in its first
three components, rows 1-3 of the order-(n, m) coefficient system are pure
chain relations

    a_2 = Lam a_1,   a_3 = Lam a_2,   a_4 = Lam a_3,      Lam = L1^n L2^m,

and the last row closes the block against the cubic convolution of the
third-component series:

    a_1 = R / D(Lam),  R = [a_3^3]_{nm} / (eps A),  D(Lam) = -k0(Lam),

with k0 the characteristic polynomial at the origin.  The recursion is
triangular in total degree n+m; order 1 is seeded with the Vandermonde
eigenvectors (1, L_i, L_i^2, L_i^3).  The map is odd, so every block of
even total degree vanishes identically, and the recursion runs on the odd
degrees only, two np.convolve calls per degree on packed anti-diagonals
(_build_coeffs): about six times the arithmetic of one call per pair of
anti-diagonals, which costs less up to order about 200 and more beyond.

The scales (g1, g2) are a pure gauge: (u, v) -> (g1 u, g2 v) rescales block
(n, m) by g1^n g2^m without moving the manifold.  The recursion runs once, at
unit gauge, and every gauge -- explicit or automatic -- is reached by that
rescaling.  The automatic gauge (_default_gauge) is the box of largest area
g1 g2 that keeps two bounds read off |C|, on the rounding of f(P) - P o Lambda
and on the truncation tail: a unique choice, continuous in (eps, A).

The unstable series is transported, not recomputed.  The reversor
sigma5(x, y, z, w) = (w, z, y, x) conjugates f to its inverse, and reversing
a Vandermonde vector for L gives L^3 times the one for 1/L, so
P_u = sigma5 o P_s solves the unstable conjugacy at rates (1/l1, 1/l2) and
scale (g1 l1^3, g2 l2^3).  The parametrization is unique once its linear
part is fixed, so this is the unstable series, and its coefficient table is
the stable one with the four components in reverse order, bit for bit.
Its conjugacy defect and truncation tail are read off that stable image.

One evaluator, the two-stage contraction with power tables U, V:
B_i = C_i V, then P_i = sum_n U_n B_i[n].  Scattered points
(evaluate_series, series_jacobian; all on the stable series: Newton, which
takes both from one contraction, certification and its det, residual
checks, the profile's right tail) take it at flat parameter arrays; the
Jacobian contracts B_i and C_i against k U^{k-1} and k V^{k-1}.  The homoclinic
census takes it in tensor form on its grid (_contract_grid),
P_i = U^T (C_i V), two matrix products per component.  The scattered form
is exactly odd (the Jacobian exactly even); the tensor form is not, as
gemm rounds a column by its place in the product, so the census evaluates
the half grid it reads.  Both are deterministic for one input shape, BLAS
build and machine, and a value depends on the batch it is evaluated in
(gemv for one point, gemm for several).
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass, replace

import numpy as np

from .maps import ModelParams, map4_apply
from .spectral import characteristic_poly, origin_stable_pair

__all__ = [
    "ManifoldSeries",
    "ResonanceError",
    "SeriesOverflowError",
    "MAX_ORDER",
    "compute_manifold_pair",
    "rescale_series",
    "evaluate_series",
    "series_jacobian",
    "conjugacy_residual",
    "pointwise_conjugacy_residual",
    "tail_bound",
    "series_to_dict",
    "series_from_dict",
]

# tail_bound <= 4e-17 here on the 82 reference cells; 57-80 move no bit
DEFAULT_ORDER = 56
GAUGE_RESIDUAL = 1e-10
RESONANCE_TOL = 1e-8
OVERFLOW_LIMIT = 1e280
# Largest order compute_manifold_pair builds: above it the zero-padded packed
# recursion is slower than one convolution per pair (order 160 builds in
# 0.031 s against 0.032 s, 200 in 0.057 s against 0.046 s, 400 in 0.59 s
# against 0.24 s).
MAX_ORDER = 160


class ResonanceError(RuntimeError):
    """A denominator k0(L1^n L2^m) fell under the resonance tolerance."""

    def __init__(self, order, value):
        self.order = order
        self.value = value
        super().__init__(f"resonant order {order}: |k0(Lam)| = {value:.3e}")


class SeriesOverflowError(RuntimeError):
    """The series left double-precision range (building or evaluating it)."""

    def __init__(self, order, message=None):
        self.order = order
        super().__init__(message or
                         f"coefficient overflow at total degree {order}")


@dataclass
class ManifoldSeries:
    """Truncated parametrization of one manifold branch.

    coeffs[i, n, m] is the i-th component of block a^{nm} (zero for
    n + m > order).  rates are the conjugacy rates (L1, L2): the stable
    eigenvalues for branch 'stable', their reciprocals for 'unstable'.
    scale is the gauge (g1, g2) already baked into the coefficients.
    """

    branch: str
    order: int
    rates: tuple
    scale: tuple
    coeffs: np.ndarray
    params: ModelParams


def _build_coeffs(p: ModelParams, L1, L2, N):
    """Dense (4, N+1, N+1) unit-gauge table by the recursion in total degree
    k, on odd k only, two valid convolutions per degree.  Row r of X holds
    P_3's anti-diagonal 2r - 1 (entry n: block (n, 2r - 1 - n)), row r of S
    its square's 2r, row 0 zeros.  Taken at stride W = k + 1, the product
    of rows i and j lies whole in the W entries of slot i + j, so slot r of
    X * X is the square's anti-diagonal k - 1 and slot r of S * X the
    cube's k.  W depends on k alone, so no bit depends on N.  An error
    names the lowest failing degree, resonance first, and its first block.
    """
    k0 = characteristic_poly(p, "origin")
    n = np.arange(N + 1)
    Lam = np.outer(L1**n, L2**n)
    R = np.zeros_like(Lam)  # [a_3^3]_{nm} / (eps A)
    X, S = np.zeros((2, (N + 3) // 2, N + 1))
    X[1, :2] = L2**2, L1**2

    def diag(T, k):  # anti-diagonal k of T as a view, (0, k) first
        return T.reshape(-1)[k:k * N + k + 1:N]

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        D = -k0(Lam)
        for k in range(3, N + 1, 2):
            r, W = (k + 1) // 2, k + 1
            x = X[:r, :W].ravel()[1:]  # k zeros, then rows 1 .. r - 1
            S[r - 1, :W] = np.convolve(x, x[k:], "valid")
            Rk, Lk = diag(R, k), diag(Lam, k)
            Rk[:] = np.convolve(S[:r, :W].ravel()[1:], x[k:], "valid") / (
                p.epsilon * p.A)
            X[r, :W] = Lk * Lk * np.where(Rk == 0.0, 0.0, Rk / diag(D, k))
        a1 = np.where(R == 0.0, 0.0, R / D)
        C = np.stack([a1, Lam * a1, Lam * Lam * a1, Lam**3 * a1])
        bad = (R != 0.0) & (np.abs(D) <= RESONANCE_TOL
                            * np.maximum(1.0, np.abs(Lam)**4))
        over = ~np.all(np.abs(C[[0, 3]]) <= OVERFLOW_LIMIT, axis=0)
    deg = np.add.outer(n, n)
    kr, ko = (int(np.min(deg[m], initial=N + 1)) for m in (bad, over))
    if kr <= min(ko, N):
        nn = int(np.argmax(diag(bad, kr)))
        raise ResonanceError((nn, kr - nn), float(np.abs(D[nn, kr - nn])))
    if ko <= N:
        raise SeriesOverflowError(ko)
    C[:, 1, 0] = [1.0, L1, L1**2, L1**3]
    C[:, 0, 1] = [1.0, L2, L2**2, L2**3]
    return C


def _power_table(x, N):
    # cumulative products, not x**k: the vectorized pow ufunc rounds positive
    # and negative bases through different kernels, which would break the
    # exact odd symmetry P(-u, -v) == -P(u, v)
    T = np.ones((N + 1, x.size))
    np.multiply.accumulate(np.broadcast_to(x, (N, x.size)), axis=0, out=T[1:])
    return T


def _contract(C, u, v, jac=False):
    """Two-stage contraction at flat parameter arrays: B_i = C_i V, then
    P_i = sum_n U_n B_i[n] -> (4, P).  jac=True also contracts the tables
    against the derivative power tables k U^{k-1}, k V^{k-1}, dP_i/du from
    the same B_i -> ((4, P), (4, 2, P)).
    """
    N = C.shape[1] - 1
    U, V = _power_table(u, N), _power_table(v, N)
    P = np.empty((len(C), u.size))
    if jac:
        k = np.arange(1.0, N + 1.0)[:, None]
        dU, dV, J = k * U[:-1], k * V[:-1], np.empty((len(C), 2, u.size))
    for i, Ci in enumerate(C):
        B = Ci @ V
        P[i] = np.sum(U * B, axis=0)
        if jac:
            J[i] = (np.sum(dU * B[1:], axis=0),
                    np.sum(U * (Ci[:, 1:] @ dV), axis=0))
    return (P, J) if jac else P


def _contract_grid(C, gu, gv):
    """The contraction in tensor form on the grid gu x gv (ij indexing):
    P_i = U^T (C_i V) -> (4, len(gu), len(gv)), written into one array."""
    N = C.shape[1] - 1
    P = np.empty((C.shape[0], gu.size, gv.size))
    return np.matmul(_power_table(gu, N).T, C @ _power_table(gv, N), out=P)


def _broadcast_uv(u, v):
    return np.broadcast_arrays(np.asarray(u, dtype=float),
                               np.asarray(v, dtype=float))


def evaluate_series(ms: ManifoldSeries, u, v):
    """P(u, v); u, v broadcast together, components land on the last axis."""
    u, v = _broadcast_uv(u, v)
    flat = _contract(ms.coeffs, u.ravel(), v.ravel())
    return np.moveaxis(flat.reshape((4,) + u.shape), 0, -1)


def series_jacobian(ms: ManifoldSeries, u, v):
    """Term-wise derivative: dP/d(u, v), shape (..., 4, 2)."""
    u, v = _broadcast_uv(u, v)
    flat = _contract(ms.coeffs, u.ravel(), v.ravel(), jac=True)[1]
    return np.moveaxis(flat.reshape((4, 2) + u.shape), (0, 1), (-2, -1))


def _stable_image(ms: ManifoldSeries):
    """The stable series an unstable one is the sigma5 image of: components
    reversed, rates 1/L (a stable series is returned as it is).  Since
    f^-1 o sigma5 = sigma5 o f, P_u's conjugacy defect is this series'."""
    if ms.branch == "stable":
        return ms
    return replace(ms, branch="stable", coeffs=ms.coeffs[::-1],
                   rates=tuple(1.0 / L for L in ms.rates),
                   scale=tuple(g * L**3 for g, L in zip(ms.scale, ms.rates)))


def pointwise_conjugacy_residual(ms: ManifoldSeries, u, v):
    """Euclidean defect || f(P(u, v)) - P(L1 u, L2 v) || of the conjugacy at
    each (u, v), in contraction form: written in the direction in which the
    parameter arguments shrink, the only form a truncated series can be held
    to on its own domain.  An unstable series is held to it through its
    stable image (_stable_image).
    """
    ms = _stable_image(ms)
    u, v = _broadcast_uv(u, v)
    L1, L2 = ms.rates
    F = map4_apply(evaluate_series(ms, u, v), ms.params)
    return np.linalg.norm(F - evaluate_series(ms, L1 * u, L2 * v), axis=-1)


def conjugacy_residual(ms: ManifoldSeries):
    """Max pointwise conjugacy residual on a 41 x 41 grid of the unit box."""
    g = np.linspace(-1.0, 1.0, 41)
    uu, vv = np.meshgrid(g, g, indexing="ij")
    return float(np.max(pointwise_conjugacy_residual(ms, uu, vv)))


def _tail(C, p, g1=1.0, g2=1.0):
    """sum_{k>N} (s*s*s)_k / |eps A|, s_k the l1 norm of anti-diagonal k of
    |C[n, m]| g1^n g2^m, and its log g1 and log g2 derivatives (inf: huge)"""
    N = C.shape[0] - 1
    k = np.arange(N + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.fmax(np.abs(C) * (g1**k)[:, None] * g2**k, 0.0)  # 0 * inf: 0
        s, su, sv = (np.bincount(np.add.outer(k, k).ravel(), a.ravel())[:N + 1]
                     for a in (w, k[:, None] * w, k * w))
        ss = np.convolve(s, s)
        out = [c * np.sum(np.convolve(ss, t)[N + 1:]) / abs(p.epsilon * p.A)
               for t, c in ((s, 1.0), (su, 3.0), (sv, 3.0))]
    return [t if np.isfinite(t) else np.inf for t in out]


def tail_bound(ms: ManifoldSeries):
    """Bound on the conjugacy defect the truncation leaves on the unit box.
    Beyond order N it is -[P_3^3]_{nm} / (eps A) in the last component (the
    others are chain relations), so at most sum_{k>N} (s*s*s)_k / |eps A|,
    s_k the l1 norm of anti-diagonal k of P_3 (the l1 tail of Mireles James
    and Mischaikow, 2013).  An unstable series reads its stable image's
    (_stable_image).  inf where the cube leaves double range."""
    return float(_tail(_stable_image(ms).coeffs[2], ms.params)[0])


def _default_gauge(unit: ManifoldSeries, tau):
    """Scales (g1, g2) <= 256 sqrt|eps| of largest g1 g2 that keep the
    rounding model u (2 M_1 + 2 (M_2 + 2 M_3 + M_4) / |A| + 3 M_3^3 / |eps A|)
    of map4_apply(P) - P o Lambda, u = 2^-53, M_i = sum |C_i[n, m]| g1^n g2^m,
    within tau and the tail (_tail) within 1e-3 tau: convex in (x, y) =
    (log g1, log g2), so the maximizer of x + y is unique, the corner where
    the boundary x(y) leaves the cap or the slope 1 + x'(y) changes sign.
    x(y) is by Newton from the right, repeated from a 2^-24 grid, and M
    sums rows in ascending m, then n: degrees of negligible weight come last
    and vanish, so orders 56 and 80 choose the same bits.

    The bisection of y to 2^-30 inside doubling steps down from the cap
    defines the answer (bisection_gauge, tests/reference.py).  A bracket
    search on the slope takes the bisection's own midpoints; a replay signs
    each midpoint outside the bracket by the slope's monotonicity and takes
    x(y) only inside it."""
    p, N = unit.params, unit.order
    k = np.arange(N + 1.0)
    # [r, j, i, n] (j: |C| or m |C|), r outermost: a sum over r adds whole
    # rows in order (numpy sums pairwise along the fast axis only).  Row r
    # holds m = 2r at odd n and 2r + 1 at even n (the zero m = N past N):
    # the even degrees, zeros of the recursion, would add exact zeros
    m = np.minimum(2 * np.arange(N // 2 + 1)[:, None] + (k % 2 == 0), N)
    Cm = np.abs(unit.coeffs)[:, np.arange(N + 1), m].transpose(1, 0, 2)
    Ck = np.ascontiguousarray(np.stack([Cm, Cm * m[:, None]], axis=1))
    lin = np.array([2.0, 2.0, 4.0, 2.0]) / [1.0, abs(p.A), abs(p.A), abs(p.A)]
    cube = 3.0 / abs(p.epsilon * p.A)
    gcap = 256.0 * float(np.sqrt(abs(p.epsilon)))
    cap, rows = np.log(gcap), {}

    def log_bound(B, Bu, Bv, limit):  # log(B / limit) and its gradient
        # B = 0 holds, and B / limit may pass double range: inf, as past it
        return ((np.log(B / limit), Bu / B, Bv / B) if np.isfinite(
            B + Bu + Bv) else (np.inf, 0.0, 0.0))  # past double range

    def rounding(x, y):
        if y not in rows:  # row sums of |C| g2^m and m |C| g2^m
            t = np.fmax(Ck * (np.exp(y) ** k)[m][:, None, None], 0.0)
            W = t.sum(axis=0)
            rows[y] = np.concatenate([W, W[:1] * k])
        t = np.fmax(rows[y] * np.exp(x) ** k, 0.0)  # 0 * inf is 0
        M, Mv, Mu = np.cumsum(t, axis=-1)[..., -1]
        c = 3.0 * cube * M[2]**2
        return log_bound(lin @ M + cube * M[2]**3, lin @ Mu + c * Mu[2],
                         lin @ Mv + c * Mv[2], 2.0**53 * tau)

    def edge(F, y, x=cap, feasible=False):  # x(y) from x, slope 1 + x'(y)
        # feasible: a larger y was, and the bound at x = -inf grows with y
        if not (feasible or F(-np.inf, y)[0] < 0.0):
            return -np.inf, -np.inf
        start = None
        for _ in range(2):  # the second run starts on the grid; skipped
            # where the first started there too, as it would repeat it
            g = min(np.ceil(x * 2.0**24) / 2.0**24, cap)
            if g == start:
                break
            x = start = g
            f = F(x, y)
            while not f[0] <= 0.0:  # Newton from the right of the root
                # never passes it; past double range, back off by 1
                nxt = x - f[0] / f[1] if f[0] < np.inf else x - 1.0
                if not nxt < x:
                    break
                x, f = nxt, F(nxt, y)
        return x, 1.0 if x == cap and f[0] < 0.0 else 1.0 - f[2] / f[1]

    def solve(F):  # the corner (x and y exchanged) wins if 1 - fu / fv >= 0
        y, slope = edge(lambda y, x: np.array(F(x, y))[[0, 2, 1]], cap)
        if slope >= 0.0:
            return cap, y
        lo, hi, step = cap, cap, 1.0
        seen = {cap: edge(F, cap)}  # y: (x(y), slope)
        while seen[lo][1] <= 0.0 and lo > y:  # cap - 1, cap - 3, ..., corner
            hi, lo, step = lo, max(lo - step, y), 2.0 * step
            seen[lo] = edge(F, lo, cap, seen[hi][1] > -np.inf)
        # the slope is > 0 up to a and <= 0 from b (b = a = lo if lo's is)
        a, b = lo, hi if seen[lo][1] > 0.0 else lo
        wa, wb, kept = 1.0, 1.0, 0  # Illinois weights, the end moved last
        while True:
            (xa, sa), (xb, sb) = seen[a], seen[b]
            if b - a > 2.0**-20:  # the cubic through x + y and its slopes
                d1 = 3.0 * (xb + b - xa - a) / (b - a) - sa - sb
                d2 = np.sqrt(d1 * d1 - sa * sb)
                t = b - (b - a) * (d2 - d1 - sb) / (sa - sb + 2.0 * d2)
            else:  # where x + y differs by rounding: Illinois on the slope
                t = a + (b - a) * wa * sa / (wa * sa - wb * sb)
            # nan or a if b is infeasible (slope -inf): the midpoint
            t = t if a < t < b else 0.5 * (a + b)
            # the bisection, signed by t where unknown; u: the deepest such
            # midpoint, next to t
            l, h, u = lo, hi, None
            while h - l > 2.0**-30:
                mid = 0.5 * (l + h)
                u = mid if a < mid < b else u
                l, h = (mid, h) if mid <= t else (l, mid)
            if u is None:  # every sign known: l is the bisection's lo
                break
            seen[u] = edge(F, u, xa, sb > -np.inf)
            if seen[u][1] > 0.0:  # Illinois halves an end kept twice
                a, wa, wb, kept = u, 1.0, wb * (0.5 if kept > 0 else 1.0), 1
            else:
                b, wb, wa, kept = u, 1.0, wa * (0.5 if kept < 0 else 1.0), -1
        if l not in seen:  # a step's point off the final path: from lo
            seen[l] = edge(F, l, seen[lo][0], True)
        return seen[l][0], l

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x, y = solve(rounding)
        if _tail(unit.coeffs[2], p, np.exp(x), np.exp(y))[0] > 1e-3 * tau:
            x, y = solve(lambda x, y: max(rounding(x, y), log_bound(
                *_tail(unit.coeffs[2], p, np.exp(x), np.exp(y)), 1e-3 * tau)))
    return tuple(min(float(np.exp(t)), gcap) if t < cap else gcap
                 for t in (x, y))


def _rescale_table(C, f1, f2):
    """C with block (n, m) multiplied by f1^n f2^m.  Zero blocks stay zero
    (the weights above the truncation order may overflow); a nonzero block
    that leaves the recursion's range raises at its total degree."""
    N = C.shape[1] - 1
    k = np.arange(N + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        w = (f1**k)[:, None] * (f2**k)[None, :]
        out = np.where(C == 0.0, C, C * w)
    bad = ~np.all(np.abs(out) <= OVERFLOW_LIMIT, axis=0)
    if np.any(bad):
        raise SeriesOverflowError(int(np.min(np.add.outer(k, k)[bad])))
    return out


def rescale_series(ms: ManifoldSeries, scale):
    """Re-gauge to new scales; the manifold (as a set) is unchanged."""
    g1, g2 = float(scale[0]), float(scale[1])
    f1, f2 = g1 / ms.scale[0], g2 / ms.scale[1]
    return replace(ms, scale=(g1, g2),
                   coeffs=_rescale_table(ms.coeffs, f1, f2))


def compute_manifold_pair(p: ModelParams, order=DEFAULT_ORDER, scale=None):
    """Stable and unstable series up to total degree `order`, one recursion.

    The stable series is built at unit gauge and rescaled to `scale`, an
    explicit (g1, g2) or, for None, the automatic gauge policy.  The
    unstable series is its sigma5 image: P_u = sigma5 o P_s at rates
    (1/l1, 1/l2) and scale (g1 l1^3, g2 l2^3), whose coefficient table is
    the stable one with its four components in reverse order.  An order
    above MAX_ORDER raises ValueError before any table is allocated.
    """
    order = int(order)
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds the limit MAX_ORDER = "
                         f"{MAX_ORDER}")
    l1, l2 = origin_stable_pair(p)
    unit = ManifoldSeries("stable", order, (l1, l2), (1.0, 1.0),
                          _build_coeffs(p, l1, l2, order), p)
    if scale is None:
        scale = _default_gauge(unit, GAUGE_RESIDUAL)
    Ps = rescale_series(unit, scale)
    g1, g2 = Ps.scale
    Pu = ManifoldSeries("unstable", order, (1.0 / l1, 1.0 / l2),
                        (g1 * l1**3, g2 * l2**3), Ps.coeffs[::-1].copy(), p)
    return Ps, Pu


def _odd_mask(N):
    """Mask of the entries a component can hold, n + m odd and <= N; a
    component's entries in its row-major (n, m) order fill it."""
    deg = np.add.outer(np.arange(N + 1), np.arange(N + 1))
    return (deg % 2 == 1) & (deg <= N)


def series_to_dict(ms: ManifoldSeries):
    """ms as JSON values.  coeffs maps each component "1".."4" to the base64
    of its odd-degree entries as little-endian float64, in row-major (n, m)
    order: every bit, signed zeros included.  The other entries read back
    as +0.0, so any other value there is a ValueError."""
    odd = _odd_mask(ms.order)
    even = ms.coeffs[:, ~odd]
    if np.any(even) or np.any(np.signbit(even)):
        raise ValueError("coefficient table holds an entry other than +0.0 "
                         "off its odd-degree entries")
    return {
        "branch": ms.branch,
        "order": ms.order,
        "rates": list(ms.rates),
        "scale": list(ms.scale),
        "params": {"epsilon": ms.params.epsilon, "A": ms.params.A},
        "coeffs": {str(i): binascii.b2a_base64(
            C[odd].astype("<f8").tobytes(), newline=False).decode("ascii")
            for i, C in enumerate(ms.coeffs, 1)},
    }


def series_from_dict(d):
    """Inverse of series_to_dict; perfbench's output checks read series
    files through it.  ValueError, before the table is allocated, for a
    branch other than stable or unstable, an order outside [1, MAX_ORDER],
    or coeffs other than the components "1".."4", each the canonical base64
    of the order's odd-degree entries, all finite."""
    if d["branch"] not in ("stable", "unstable"):
        raise ValueError(f"branch {d['branch']!r} is not stable or unstable")
    N = int(d["order"])
    if not 1 <= N <= MAX_ORDER:
        raise ValueError(f"order {N} is outside [1, MAX_ORDER = {MAX_ORDER}]")
    if sorted(d["coeffs"]) != ["1", "2", "3", "4"]:
        raise ValueError(f"coeffs keys {sorted(d['coeffs'])} are not the "
                         "components 1..4")
    odd = _odd_mask(N)
    size = np.count_nonzero(odd)
    vals = []
    for key, text in sorted(d["coeffs"].items()):
        try:  # canonical base64 only, as series_to_dict writes it
            raw = binascii.a2b_base64(text)
            ok = (len(raw) == 8 * size
                  and binascii.b2a_base64(raw, newline=False) == text.encode())
        except (ValueError, TypeError, AttributeError):
            ok = False
        if not (ok and np.all(np.isfinite(v := np.frombuffer(raw, "<f8")))):
            raise ValueError(f"coeffs component {key!r} is not the base64 "
                             f"of {size} finite float64s, the odd-degree "
                             f"entries of an order-{N} series")
        vals.append(v)
    C = np.zeros((4, N + 1, N + 1))
    C[:, odd] = vals
    p = ModelParams(d["params"]["epsilon"], d["params"]["A"])
    return ManifoldSeries(d["branch"], N, tuple(map(float, d["rates"])),
                          tuple(map(float, d["scale"])), C, p)
