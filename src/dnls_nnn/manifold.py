"""Power-series parametrization of the origin's stable/unstable manifolds.

Each 2-d manifold of the 4-d map f is computed as the image of a polynomial
P(u, v) = sum_{1 <= n+m <= N} a^{nm} u^n v^m (one coefficient quadruple
a^{nm} = (a_1, .., a_4) per block) satisfying the conjugacy

    f(P(u, v)) = P(L1 u, L2 v),

where (L1, L2) are the eigenvalue pair of the linearization: the stable pair
(|L| < 1) for the stable branch, their reciprocals for the unstable one.
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
even total degree vanishes identically.

The scales (g1, g2) are a pure gauge: (u, v) -> (g1 u, g2 v) rescales block
(n, m) by g1^n g2^m without moving the manifold.  The recursion runs once, at
unit gauge, and every gauge -- explicit or automatic -- is reached by that
rescaling.  The default gauge is chosen so that the truncation is
trustworthy on the whole unit box [-1, 1]^2 -- largest box with conjugacy
residual below a target -- subject to maximizing the covered parameter
area; see _default_gauge.

The unstable series is transported, not recomputed.  The reversor
sigma5(x, y, z, w) = (w, z, y, x) conjugates f to its inverse, and reversing
a Vandermonde vector for L gives L^3 times the one for 1/L, so
P_u = sigma5 o P_s solves the unstable conjugacy at rates (1/l1, 1/l2) and
scale (g1 l1^3, g2 l2^3).  The parametrization is unique once its linear
part is fixed, so this is the unstable series, and its coefficient table is
the stable one with the four components in reverse order, bit for bit.

One evaluator, two entry points.  Scattered points (evaluate_series,
series_jacobian; Newton, residual checks, profile tails) take a two-stage
contraction with power tables U, V: B_i = C_i V, then P_i = sum_n U_n B_i[n];
the Jacobian contracts the same coefficients against the tables k U^{k-1}
and k V^{k-1}.  Tensor grids (evaluate_grid; the homoclinic census and every
gauge probe) run Horner in v over all rows, then Horner in u.  Both are
exactly odd (the Jacobian exactly even), agree to about 1e-15 relative, and
are deterministic for one input shape, BLAS build and machine.  At
large-amplitude cells the gauge target sits at the float64 rounding floor,
so the chosen gauge moves when the summation order changes; Horner is the
most accurate grid order measured there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .maps import ModelParams, map4_apply, map4_inverse
from .spectral import (
    ALL_REAL,
    NonHyperbolicError,
    characteristic_poly,
    solve_reciprocal_quartic,
)

__all__ = [
    "ManifoldSeries",
    "ResonanceError",
    "SeriesOverflowError",
    "GaugeError",
    "compute_manifold_pair",
    "rescale_series",
    "evaluate_series",
    "evaluate_grid",
    "series_jacobian",
    "conjugacy_residual",
    "pointwise_conjugacy_residual",
    "series_to_dict",
    "series_from_dict",
    "save_series",
    "load_series",
]

DEFAULT_ORDER = 80
GAUGE_RESIDUAL = 1e-10
RESONANCE_TOL = 1e-8
OVERFLOW_LIMIT = 1e280


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


class GaugeError(RuntimeError):
    """The automatic scaling policy found no usable evaluation box."""


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
    """Dense (4, N+1, N+1) unit-gauge table by anti-diagonal recursion."""
    A, eps = p.A, p.epsilon
    a, b = 1.0 / A, -2.0 / A
    C = np.zeros((4, N + 1, N + 1))
    if N >= 1:
        C[:, 1, 0] = [1.0, L1, L1**2, L1**3]
        C[:, 0, 1] = [1.0, L2, L2**2, L2**3]
    pw1 = L1 ** np.arange(N + 1)
    pw2 = L2 ** np.arange(N + 1)
    # anti-diagonal views of the third component: d3[k][j] = C[2, j, k-j]
    d3 = [np.zeros(k + 1) for k in range(N + 1)]
    if N >= 1:
        d3[1] = np.array([C[2, 0, 1], C[2, 1, 0]])
    sq = [None] * (N + 1)  # sq[j] = anti-diagonals of the squared series
    for k in range(2, N + 1):
        j = k - 1
        if j >= 2:
            s = np.zeros(j + 1)
            for j1 in range(1, j):
                s += np.convolve(d3[j1], d3[j - j1])
            sq[j] = s
        cube = np.zeros(k + 1)
        for j2 in range(2, k):
            if sq[j2] is not None:
                cube += np.convolve(sq[j2], d3[k - j2])
        idx = np.arange(k + 1)
        Lam = pw1[idx] * pw2[k - idx]
        R = cube / (eps * A)
        D = -(((Lam + a) * Lam + b) * Lam * Lam + a * Lam + 1.0)
        bad = (R != 0.0) & (np.abs(D) <= RESONANCE_TOL * np.maximum(1.0, np.abs(Lam) ** 4))
        if np.any(bad):
            nn = int(idx[bad][0])
            raise ResonanceError((nn, k - nn), float(np.abs(D[bad][0])))
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            a1 = np.where(R == 0.0, 0.0, R / D)
            a4 = Lam**3 * a1
        if (not np.all(np.isfinite(a1)) or not np.all(np.isfinite(a4))
                or max(np.max(np.abs(a1)), np.max(np.abs(a4))) > OVERFLOW_LIMIT):
            raise SeriesOverflowError(k)
        C[0, idx, k - idx] = a1
        C[1, idx, k - idx] = Lam * a1
        C[2, idx, k - idx] = Lam * Lam * a1
        C[3, idx, k - idx] = a4
        d3[k] = C[2, idx, k - idx]
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
    P_i = sum_n U_n B_i[n] -> (4, P).  jac=True contracts the same tables
    against the derivative power tables k U^{k-1}, k V^{k-1} -> (4, 2, P).
    """
    N = C.shape[1] - 1
    U, V = _power_table(u, N), _power_table(v, N)
    if not jac:
        return np.stack([np.sum(U * (Ci @ V), axis=0) for Ci in C])
    k = np.arange(1.0, N + 1.0)[:, None]
    dU, dV = k * U[:-1], k * V[:-1]
    return np.stack([[np.sum(dU * (Ci[1:] @ V), axis=0),
                      np.sum(U * (Ci[:, 1:] @ dV), axis=0)] for Ci in C])


def _horner_v(C, gv):
    """Grid stage 1: W[n, i, j] = sum_m C[i, n, m] gv_j^m, Horner in v over
    all rows at once (row n stops at degree N - n)."""
    N = C.shape[2] - 1
    Ct = np.ascontiguousarray(C.transpose(2, 1, 0))  # Ct[m, n, i]
    W = np.zeros((C.shape[1], 4, gv.size))
    for m in range(N, -1, -1):
        W[: N + 1 - m] *= gv
        W[: N + 1 - m] += Ct[m, : N + 1 - m, :, None]
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


def _broadcast_uv(u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u, v = np.broadcast_arrays(u, v)
    return u, v


def evaluate_series(ms: ManifoldSeries, u, v):
    """P(u, v); u, v broadcast together, components land on the last axis."""
    u, v = _broadcast_uv(u, v)
    flat = _contract(ms.coeffs, u.ravel(), v.ravel())
    return np.moveaxis(flat.reshape((4,) + u.shape), 0, -1)


def evaluate_grid(ms: ManifoldSeries, gu, gv):
    """P on the tensor grid gu x gv (ij indexing), shape (len(gu), len(gv), 4).

    Equals evaluate_series on the meshgrid up to rounding (about 1e-15
    relative); oddness P(-gu, -gv) == -P(gu, gv) holds exactly.
    """
    gu = np.asarray(gu, dtype=float).ravel()
    gv = np.asarray(gv, dtype=float).ravel()
    return np.moveaxis(_horner_u(_horner_v(ms.coeffs, gv), gu), 1, -1)


def series_jacobian(ms: ManifoldSeries, u, v):
    """Term-wise derivative: dP/d(u, v), shape (..., 4, 2)."""
    u, v = _broadcast_uv(u, v)
    flat = _contract(ms.coeffs, u.ravel(), v.ravel(), jac=True)
    return np.moveaxis(flat.reshape((4, 2) + u.shape), (0, 1), (-2, -1))


def pointwise_conjugacy_residual(ms: ManifoldSeries, u, v):
    """Euclidean defect of the conjugacy at each (u, v), in contraction form.

    Stable branch:   || f(P(u, v))      - P(L1 u, L2 v)   ||
    Unstable branch: || f^{-1}(P(u, v)) - P(u / L1, v / L2) ||

    Both express the same functional equation; each is written in the
    direction in which the parameter arguments shrink, the only form a
    truncated series can be held to on its own domain.
    """
    u, v = _broadcast_uv(u, v)
    P = evaluate_series(ms, u, v)
    L1, L2 = ms.rates
    if ms.branch == "stable":
        F = map4_apply(P, ms.params)
        Q = evaluate_series(ms, L1 * u, L2 * v)
    else:
        F = map4_inverse(P, ms.params)
        Q = evaluate_series(ms, u / L1, v / L2)
    return np.linalg.norm(F - Q, axis=-1)


def conjugacy_residual(ms: ManifoldSeries, grid=(41, 41)):
    """Max pointwise conjugacy residual over a grid of the unit box."""
    gu = np.linspace(-1.0, 1.0, int(grid[0]))
    gv = np.linspace(-1.0, 1.0, int(grid[1]))
    uu, vv = np.meshgrid(gu, gv, indexing="ij")
    return float(np.max(pointwise_conjugacy_residual(ms, uu, vv)))


def _probe_residuals(W, gu, l1, params):
    """Max conjugacy residual of R stacked probes, in one u-stage.

    W (N+1, 4, R, 2V) holds each probe's v-stages: of P on its v-grid in
    the first V columns, of Q = P(l1 u, l2 v) on the l2-scaled grid in the
    last V.  gu (U, R) is each probe's u-grid.  Every column runs the same
    Horner recurrence as evaluate_grid, so stacking changes no bit.
    A probe whose P leaves double range reads inf.
    """
    V = W.shape[-1] // 2
    gq = np.empty(gu.shape + (2 * V,))
    gq[..., :V] = gu[..., None]
    gq[..., V:] = (l1 * gu)[..., None]
    PQ = np.moveaxis(_horner_u(W, gq), 1, -1)  # (U, R, 2V, 4)
    P, Q = PQ[:, :, :V], PQ[:, :, V:]
    finite = np.all(np.isfinite(P), axis=(0, 2, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        F = map4_apply(P, params)
        r = np.max(np.linalg.norm(F - Q, axis=-1), axis=(0, 2))
    return np.where(finite, r, np.inf)


def _stable_eigensystem(p: ModelParams):
    es = solve_reciprocal_quartic(characteristic_poly(p, "origin"))
    if not es.hyperbolic or es.classification != ALL_REAL:
        raise NonHyperbolicError(
            "manifold construction needs four real hyperbolic eigenvalues; "
            f"at A={p.A} the origin's spectrum is {es.classification}"
            + ("" if es.hyperbolic else " (non-hyperbolic)")
        )
    return es


def _log_bisect(cap, refine=25):
    """Largest t <= cap whose probe passes, by bisection in log t; None if
    none.  A generator: it yields each probe t and is sent back whether the
    residual at t meets the target."""
    t = cap
    if (yield t):
        return t
    lo, hi = None, t
    while t > 1e-14 * cap:
        t /= 4.0
        if (yield t):
            lo = t
            break
        hi = t
    if lo is None:
        return None
    for _ in range(refine):
        mid = np.sqrt(lo * hi)
        if (yield mid):
            lo = mid
        else:
            hi = mid
    return lo


def _lockstep(count, cap, resid, tau):
    """Run `count` log-bisections side by side.  Each round hands the
    pending probes of all unfinished searches to resid(keys, ts) at once;
    it returns their residuals.  Returns each search's limit."""
    searches = [_log_bisect(cap) for _ in range(count)]
    probes = {k: next(s) for k, s in enumerate(searches)}
    found = [None] * count
    while probes:
        keys = list(probes)
        passed = resid(keys, np.array([probes[k] for k in keys])) <= tau
        for k, ok in zip(keys, passed.tolist()):
            try:
                probes[k] = searches[k].send(ok)
            except StopIteration as stop:
                found[k] = stop.value
                del probes[k]
    return found


def _default_gauge(unit: ManifoldSeries, tau):
    """Scales (g1, g2) so the unit box carries residual <= tau.

    Two-stage log-bisection: the v-extent is first pushed to its residual
    cliff along the v-edge, then for a descending ladder of v-extents the
    u-extent is bisected against the full-box residual; the pair maximizing
    covered area wins (largest v among near-ties).  Residual level sets in
    the two parameters are strongly anisotropic and the trade-off between
    them is not monotone, so neither single-edge criterion alone is safe.
    Every probe is a grid residual of the unit-gauge stable series.  A rung
    of the ladder fixes the v-grid, so the v-stages of all twelve rungs are
    computed once, in one call; the rungs are then bisected in lockstep,
    each round evaluating every unfinished rung's probe, P rows and Q rows
    together, in one stacked u-stage.  The edge bisection runs through the
    same driver with one probe per round (its v-grid moves, its u-grid is
    u = 0, which reads row n = 0 only).  Each rung sees the probes and the
    bits it would see alone.
    """
    p = unit.params
    l1, l2 = unit.rates
    cap = 256.0 * np.sqrt(abs(p.epsilon))
    e41 = np.linspace(-1.0, 1.0, 41)
    row0 = unit.coeffs[:, :1]

    def edge(keys, ts):
        gv = e41 * ts[0]
        W = _horner_v(row0, np.concatenate([gv, l2 * gv]))
        return _probe_residuals(W[:, :, None], np.zeros((1, 1)), l1, p)

    (g2max,) = _lockstep(1, cap, edge, tau)
    if g2max is None:
        raise GaugeError("no v-extent meets the residual target")
    eu = np.linspace(-1.0, 1.0, 17)
    ev = np.linspace(-1.0, 1.0, 33)
    ladder = np.geomspace(g2max / 30.0, g2max, 12)[::-1]
    gv = ev[None, :] * ladder[:, None]
    W = _horner_v(unit.coeffs, np.concatenate([gv, l2 * gv], axis=-1).ravel())
    W = W.reshape(W.shape[:2] + (ladder.size, -1))

    live = list(range(ladder.size))

    def rungs(keys, ts):
        # finished rungs drop out: the v-stages of the live ones move to the
        # front in place (keys is an ordered subsequence of live), so no
        # round copies W
        for j, k in enumerate(keys):
            if live[j] != k:
                W[:, :, j] = W[:, :, live.index(k)]
        live[:] = keys
        return _probe_residuals(W[:, :, :len(keys)], eu[:, None] * ts, l1, p)

    table = [(g1 * g2, g1, g2)
             for g1, g2 in zip(_lockstep(ladder.size, cap, rungs, tau), ladder)
             if g1 is not None]
    if not table:
        raise GaugeError("no u-extent meets the residual target")
    amax = max(row[0] for row in table)
    for area, g1, g2 in table:  # ladder is v-descending: first near-tie = largest v
        if area >= 0.9 * amax:
            return float(g1), float(g2)
    raise GaugeError("gauge selection failed")  # pragma: no cover


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
    return ManifoldSeries(
        branch=ms.branch,
        order=ms.order,
        rates=ms.rates,
        scale=(g1, g2),
        coeffs=_rescale_table(ms.coeffs, f1, f2),
        params=ms.params,
    )


def compute_manifold_pair(p: ModelParams, order=DEFAULT_ORDER, scale=None):
    """Stable and unstable series up to total degree `order`, one recursion.

    The stable series is built at unit gauge and rescaled to `scale`, an
    explicit (g1, g2) or, for None, the automatic gauge policy.  The
    unstable series is its sigma5 image: P_u = sigma5 o P_s at rates
    (1/l1, 1/l2) and scale (g1 l1^3, g2 l2^3), whose coefficient table is
    the stable one with its four components in reverse order.
    """
    order = int(order)
    if order < 1:
        raise ValueError("order must be >= 1")
    l1, l2 = _stable_eigensystem(p).stable_pair()
    unit = ManifoldSeries("stable", order, (l1, l2), (1.0, 1.0),
                          _build_coeffs(p, l1, l2, order), p)
    if scale is None:
        scale = _default_gauge(unit, GAUGE_RESIDUAL)
    Ps = rescale_series(unit, scale)
    g1, g2 = Ps.scale
    Pu = ManifoldSeries("unstable", order, (1.0 / l1, 1.0 / l2),
                        (g1 * l1**3, g2 * l2**3), Ps.coeffs[::-1].copy(), p)
    return Ps, Pu


def series_to_dict(ms: ManifoldSeries):
    N = ms.order
    table = {}
    for i in range(4):
        for n in range(N + 1):
            for m in range(N + 1 - n):
                c = ms.coeffs[i, n, m]
                if c != 0.0:
                    table[f"{i + 1},{n},{m}"] = c
    return {
        "branch": ms.branch,
        "order": ms.order,
        "rates": list(ms.rates),
        "scale": list(ms.scale),
        "params": {"epsilon": ms.params.epsilon, "A": ms.params.A},
        "coeffs": table,
    }


def series_from_dict(d):
    N = int(d["order"])
    C = np.zeros((4, N + 1, N + 1))
    for key, val in d["coeffs"].items():
        i, n, m = (int(t) for t in key.split(","))
        C[i - 1, n, m] = val
    return ManifoldSeries(
        branch=d["branch"],
        order=N,
        rates=tuple(float(r) for r in d["rates"]),
        scale=tuple(float(g) for g in d["scale"]),
        coeffs=C,
        params=ModelParams(d["params"]["epsilon"], d["params"]["A"]),
    )


def save_series(ms: ManifoldSeries, path):
    with open(path, "w") as fh:
        json.dump(series_to_dict(ms), fh, sort_keys=True)
        fh.write("\n")


def load_series(path):
    with open(path) as fh:
        return series_from_dict(json.load(fh))
