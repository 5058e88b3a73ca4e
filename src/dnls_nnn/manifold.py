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
even total degree vanishes identically, and the recursion runs on the odd
degrees only.  np.convolve puts the longer factor first, so the square's
mirrored convolutions (a, b) and (b, a) are one computation.

The scales (g1, g2) are a pure gauge: (u, v) -> (g1 u, g2 v) rescales block
(n, m) by g1^n g2^m without moving the manifold.  The recursion runs once, at
unit gauge, and every gauge -- explicit or automatic -- is reached by that
rescaling.  The default gauge is chosen so that the truncation is
trustworthy on the whole unit box [-1, 1]^2 -- largest box with conjugacy
residual below a target -- subject to maximizing the covered parameter
area; see _default_gauge.  Its probes read half the box (the residual is
even), its edge bisection stacks five levels a round, and its rungs join
only while their a-priori bound can win and stop once they cannot.

The unstable series is transported, not recomputed.  The reversor
sigma5(x, y, z, w) = (w, z, y, x) conjugates f to its inverse, and reversing
a Vandermonde vector for L gives L^3 times the one for 1/L, so
P_u = sigma5 o P_s solves the unstable conjugacy at rates (1/l1, 1/l2) and
scale (g1 l1^3, g2 l2^3).  The parametrization is unique once its linear
part is fixed, so this is the unstable series, and its coefficient table is
the stable one with the four components in reverse order, bit for bit.

Two evaluators, with different rounding.  Scattered points (evaluate_series,
series_jacobian; all on the stable series: Newton, certification and its
det, residual checks, the profile's right tail) take a two-stage
contraction with power tables U, V: B_i = C_i V, then P_i = sum_n U_n B_i[n];
the Jacobian contracts the same coefficients against the tables k U^{k-1}
and k V^{k-1}.  Tensor grids (evaluate_grid, the public entry point; every
gauge probe, and the homoclinic census, which runs the two stages itself to
screen on P_1) run Horner in v over all rows, once per distinct |v| (row n
has parity n + 1 in v), then Horner in u.  Both are exactly odd (the
Jacobian exactly even), agree to about 1e-15 relative, and are
deterministic for one input shape, BLAS build and machine.  At
large-amplitude cells the gauge target sits at the float64 rounding floor,
so the chosen gauge moves when the summation order changes (summing the
recursion's convolutions pairwise moves 6 of 32 reference gauges), and no
sum here is reordered; Horner is the most accurate grid order measured.
"""

from __future__ import annotations

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
    "MAX_ORDER",
    "compute_manifold_pair",
    "rescale_series",
    "evaluate_series",
    "evaluate_grid",
    "series_jacobian",
    "conjugacy_residual",
    "pointwise_conjugacy_residual",
    "tail_bound",
    "series_to_dict",
    "series_from_dict",
]

# on the reference cells tail_bound is at most 4e-20 at this order, and
# orders 57-80 move no bit of their results
DEFAULT_ORDER = 56
GAUGE_RESIDUAL = 1e-10
RESONANCE_TOL = 1e-8
OVERFLOW_LIMIT = 1e280
# Largest order compute_manifold_pair builds: overflow sets no limit (cells
# build to order 600 in about 1.2 s), and the (4, N+1, N+1) table is 32 MB
# at 1000.
MAX_ORDER = 1000


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
    """Dense (4, N+1, N+1) unit-gauge table by anti-diagonal recursion, bit
    for bit the full one of tests/reference.py.  The third component's
    anti-diagonals d3[k] vanish at even k and its square's at odd k: the
    terms skipped add exact zeros to sums that are never -0.0, in order,
    and with positive rates each even block is the +0.0 of np.zeros."""
    k0 = characteristic_poly(p, "origin")
    C = np.zeros((4, N + 1, N + 1))
    # anti-diagonal views of the third component: d3[k][j] = C[2, j, k-j]
    d3 = [np.zeros(k + 1) for k in range(N + 1)]
    if N >= 1:
        C[:, 1, 0] = [1.0, L1, L1**2, L1**3]
        C[:, 0, 1] = [1.0, L2, L2**2, L2**3]
        d3[1] = np.array([C[2, 0, 1], C[2, 1, 0]])
    pw1 = L1 ** np.arange(N + 1)
    pw2 = L2 ** np.arange(N + 1)
    sq = [None] * (N + 1)  # sq[j] = anti-diagonals of the squared series
    for k in range(3, N + 1, 2):
        j = k - 1
        # convolve puts the longer factor first, so (a, b) and (b, a) agree
        # bit for bit: each mirrored pair is convolved once
        half = [np.convolve(d3[a], d3[j - a])
                for a in range(1, j // 2 + 1, 2)]
        sq[j] = np.zeros(j + 1)
        for j1 in range(1, j, 2):
            sq[j] += half[min(j1, j - j1) // 2]
        cube = np.zeros(k + 1)
        for j2 in range(2, k, 2):
            cube += np.convolve(sq[j2], d3[k - j2])
        idx = np.arange(k + 1)
        Lam = pw1[: k + 1] * pw2[k::-1]
        R = cube / (p.epsilon * p.A)
        D = -k0(Lam)
        bad = (R != 0.0) & (np.abs(D) <= RESONANCE_TOL * np.maximum(1.0, np.abs(Lam) ** 4))
        if np.any(bad):
            nn = int(idx[bad][0])
            raise ResonanceError((nn, k - nn), float(np.abs(D[bad][0])))
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            a1 = np.where(R == 0.0, 0.0, R / D)
            a4 = Lam**3 * a1
        if not np.all(np.abs(np.concatenate([a1, a4])) <= OVERFLOW_LIMIT):
            raise SeriesOverflowError(k)
        d3[k] = Lam * Lam * a1
        C[:, idx, k - idx] = [a1, Lam * a1, d3[k], a4]
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


def _broadcast_uv(u, v):
    return np.broadcast_arrays(np.asarray(u, dtype=float),
                               np.asarray(v, dtype=float))


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


def tail_bound(ms: ManifoldSeries):
    """Bound on the conjugacy defect the truncation leaves on the unit box.
    Beyond order N it is -[P_3^3]_{nm} / (eps A) in the last component (the
    others are chain relations), so at most sum_{k>N} (s*s*s)_k / |eps A|,
    s_k the l1 norm of anti-diagonal k of P_3 (the l1 tail of Mireles James
    and Mischaikow, 2013).  P_u's second component carries f^-1's cube: both
    branches read the same value.  inf where the cube leaves double range."""
    N, p = ms.order, ms.params
    k = np.arange(N + 1)
    C = np.abs(ms.coeffs[2 if ms.branch == "stable" else 1])
    s = np.bincount(np.add.outer(k, k).ravel(), C.ravel())[:N + 1]
    with np.errstate(over="ignore"):
        cube = np.convolve(np.convolve(s, s), s)
        return float(np.sum(cube[N + 1:]) / abs(p.epsilon * p.A))


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
    with np.errstate(over="ignore", invalid="ignore"):
        PQ = np.moveaxis(_horner_u(W, gq), 1, -1)  # (U, R, 2V, 4)
        P, Q = PQ[:, :, :V], PQ[:, :, V:]
        finite = np.all(np.isfinite(P), axis=(0, 2, 3))
        P[:, ~finite] = 0.0  # map4_apply admits finite states only
        F = map4_apply(P, params)
        r = np.max(np.linalg.norm(F - Q, axis=-1), axis=(0, 2))
    return np.where(finite, r, np.inf)


def _stable_eigensystem(p: ModelParams):
    with np.errstate(over="ignore", invalid="ignore"):
        es = solve_reciprocal_quartic(characteristic_poly(p, "origin"))
    if not np.all(np.isfinite([es.lambda1, es.lambda2, es.lambda3, es.lambda4])):
        # 1/A squared overflows for |A| below about 1e-154
        raise ValueError(f"A={p.A!r} puts the origin spectrum outside "
                         "double range")
    if not es.hyperbolic or es.classification != ALL_REAL:
        raise NonHyperbolicError(
            "manifold construction needs four real hyperbolic eigenvalues; "
            f"at A={p.A} the origin's spectrum is {es.classification}"
            + ("" if es.hyperbolic else " (non-hyperbolic)")
        )
    return es


def _log_bisect(cap, depth):
    """Largest t <= cap whose probe passes, by bisection in log t; None if
    none.  A generator: each round yields (ts, lo, hi), its probes and a
    bracket that holds the answer if there is one (lo = 0 before a probe
    passes, hi = cap before one fails), and is sent back which probes
    passed.  A round probes the next 2**depth - 1 points of the descent
    cap / 4**j or the next `depth` levels of the 25-level refinement tree,
    all midpoints formed as np.sqrt(lo * hi).  Results off the path taken
    are never read, so every depth answers as depth 1, one probe a round."""
    chain = [cap]
    while chain[-1] > 1e-14 * cap:
        chain.append(chain[-1] / 4.0)
    lo, hi, width = 0.0, cap, 2**depth - 1
    for a in range(0, len(chain), width):
        ok = yield chain[a:a + width], lo, hi
        if any(ok):
            j = a + ok.index(True)
            if j == 0:
                return cap
            lo, hi = chain[j], chain[j - 1]
            break
        hi = chain[a + len(ok) - 1]
    else:
        return None
    for left in range(25, 0, -depth):
        d = min(depth, left)
        b = np.empty(2**d + 1)
        b[0], b[-1] = lo, hi
        for s in 2 ** np.arange(d - 1, -1, -1):
            b[s::2 * s] = np.sqrt(b[:-1:2 * s] * b[2 * s::2 * s])
        ok = yield b[1:-1], lo, hi
        a, z = 0, 2**d
        while z - a > 1:
            m = (a + z) // 2
            a, z = (m, z) if ok[m - 1] else (a, m)
        lo, hi = b[a], b[z]
    return lo


def _lockstep(cap, extents, resid, tau, depth=1):
    """Pick the gauge rule's winner among log-bisections run side by side.

    Search k bisects its limit t_k for the fixed extent g_k; the rule picks
    the first k (in the given order) whose area t_k * g_k is >= 0.9 times
    the largest area.  Returns (k, t_k), or None if every search ends
    without a passing probe.  Each round hands the pending probes of its
    searches to resid(keys, ts) at once (keys[i] is the search of probe
    ts[i]); it returns their residuals.  A search's bracket [lo, hi] bounds
    its area in the rule's own float products, lo * g <= t * g <= hi * g,
    whatever the residual's shape.  After each round a search drops out
    once hi * g < 0.9 * max(lo * g): it cannot win.  Once the first search
    standing has lo * g >= 0.9 * max(hi * g), it is the winner and
    finishes alone.  Round 1 runs the first two searches only; the others
    join in round 2 unless their a-priori bound hi = cap has dropped them,
    which is as sound as a probed bound.
    """
    searches = [_log_bisect(cap, depth) for _ in extents]
    pending, lo, hi = map(list, zip(*(next(s) for s in searches)))
    live = list(range(len(extents)))
    keys = live[:2]
    while keys:
        ts = [pending[k] for k in keys]
        passed = iter((resid([k for k, t in zip(keys, ts) for _ in t],
                             np.concatenate(ts)) <= tau).tolist())
        for k, t in zip(keys, ts):
            try:
                pending[k], lo[k], hi[k] = searches[k].send(
                    [next(passed) for _ in t])
            except StopIteration as stop:
                pending[k] = None
                if stop.value is None:
                    live.remove(k)
                else:
                    lo[k] = hi[k] = stop.value
        floor = 0.9 * max((lo[k] * extents[k] for k in live), default=0.0)
        live = [k for k in live if hi[k] * extents[k] >= floor]
        if live and lo[live[0]] * extents[live[0]] >= 0.9 * max(
                hi[k] * extents[k] for k in live):
            live = live[:1]
        keys = [k for k in live if pending[k] is not None]
    return (live[0], lo[live[0]]) if live else None


def _default_gauge(unit: ManifoldSeries, tau):
    """Scales (g1, g2) so the unit box carries residual <= tau.

    Two-stage log-bisection: the v-extent is first pushed to its residual
    cliff along the v-edge, then for a descending ladder of v-extents the
    u-extent is bisected against the full-box residual; the pair maximizing
    covered area wins (largest v among near-ties: the first rung whose area
    is >= 0.9 of the largest).  Residual level sets in the two parameters
    are strongly anisotropic and the trade-off between them is not
    monotone, so neither single-edge criterion alone is safe.

    Every probe is a grid residual of the unit-gauge stable series, on
    17 x 33 points of the box.  P and map4_apply are exactly odd and both
    grids are exactly symmetric (steps 1/8 and 1/16 times one factor), so
    the residual at (-u, -v) is the one at (u, v) bit for bit: a rung probe
    evaluates the rows u >= 0 only (9 of 17), with the full grid's max and
    finiteness.  Both stages run through _lockstep.  The edge (v-grid
    moving, u = 0, which reads row n = 0 only) stacks its rounds: the whole
    descent in one call, then five refinement levels (31 probes) a call,
    6 calls where one probe a call took 27-28.  The rungs take one probe a
    round, every rung in contention in one stacked u-stage (P rows and Q
    rows together), and stop once the bounds on their areas show they
    cannot be the rule's pick; that pruning is the 0.9 rule restated, so
    the two change together.  A rung fixes its v-grid, so its v-stage is
    built once, when it joins.  Rungs 0 and 1 start alone: the ladder falls
    by 0.734 < 0.9 a rung, so a pass at the cap by either drops every
    later rung unbuilt.  Each probe sees the bits it would see alone, so
    the gauge is that of bisecting every rung to the end, one probe at a
    time, on the full grid.
    """
    p = unit.params
    l1, l2 = unit.rates
    cap = 256.0 * np.sqrt(abs(p.epsilon))

    def v_stages(C, gv):  # [:, :, r]: the v-stages of P and Q on grid gv[r]
        W = _horner_v(C, np.concatenate([gv, l2 * gv], axis=-1).ravel())
        return W.reshape(W.shape[:2] + (len(gv), -1))

    e41 = np.linspace(-1.0, 1.0, 41)
    found = _lockstep(cap, [1.0], lambda keys, ts: _probe_residuals(
        v_stages(unit.coeffs[:, :1], e41 * ts[:, None]),
        np.zeros((1, ts.size)), l1, p), tau, depth=5)
    if found is None:
        raise GaugeError("no v-extent meets the residual target")
    g2max = found[1]
    eu = np.linspace(0.0, 1.0, 9)  # rows u >= 0 of linspace(-1, 1, 17)
    ev = np.linspace(-1.0, 1.0, 33)
    ladder = np.geomspace(g2max / 30.0, g2max, 12)[::-1]
    W, slots = None, []  # slots[j]: the rung whose v-stages W[:, :, j] holds

    def rungs(keys, ts):
        # keys is an ordered subsequence of the rungs.  A round where rungs
        # join builds W anew in key order, in one v-stage call where each
        # rung built before sits at v = 0 (one |v| more) and is then copied
        # in; otherwise the rungs still in contention move up in place.
        nonlocal W
        built = np.isin(keys, slots)
        if built.all():
            for j, k in enumerate(keys):
                if slots[j] != k:
                    W[:, :, j] = W[:, :, slots.index(k)]
        else:
            V = v_stages(unit.coeffs,
                         ev * np.where(built, 0.0, ladder[keys])[:, None])
            for j in np.flatnonzero(built):
                V[:, :, j] = W[:, :, slots.index(keys[j])]
            W = V
        slots[:] = keys
        return _probe_residuals(W[:, :, :len(keys)], eu[:, None] * ts, l1, p)

    found = _lockstep(cap, ladder, rungs, tau)
    if found is None:
        raise GaugeError("no u-extent meets the residual target")
    k, g1 = found
    return float(g1), float(ladder[k])


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
    idx = np.nonzero(ms.coeffs)
    table = {f"{i + 1},{n},{m}": c for i, n, m, c in
             zip(*(a.tolist() for a in idx), ms.coeffs[idx].tolist())}
    return {
        "branch": ms.branch,
        "order": ms.order,
        "rates": list(ms.rates),
        "scale": list(ms.scale),
        "params": {"epsilon": ms.params.epsilon, "A": ms.params.A},
        "coeffs": table,
    }


def series_from_dict(d):
    """Inverse of series_to_dict.  The pipeline only writes series; the
    output checks of perfbench read them back through this.  An entry of
    even or negative total degree, of degree above the order, or of a
    component outside 1..4 raises ValueError: the evaluators' exact
    oddness rests on the table holding odd degrees only."""
    N = int(d["order"])
    C = np.zeros((4, N + 1, N + 1))
    for key, val in d["coeffs"].items():
        i, n, m = (int(t) for t in key.split(","))
        if not (1 <= i <= 4 and n >= 0 and m >= 0 and n + m <= N
                and (n + m) % 2):
            raise ValueError(f"coefficient {key!r} is not an odd-degree "
                             f"entry of a 4-component order-{N} series")
        C[i - 1, n, m] = val
    p = ModelParams(d["params"]["epsilon"], d["params"]["A"])
    return ManifoldSeries(d["branch"], N, tuple(map(float, d["rates"])),
                          tuple(map(float, d["scale"])), C, p)
