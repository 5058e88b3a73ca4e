"""Soliton profiles from homoclinic orbits, and 2-d phase portraits.

A homoclinic point q = (u_{-1}, u_0, u_1, u_2) of the 4-d map encodes a
bi-infinite lattice profile {u_n} through the sliding window
f^n(q) = (u_{n-1}, u_n, u_{n+1}, u_{n+2}).  The profile solves the
stationary lattice equation

    u_n^3 + eps (u_{n+1} - 2 u_n + u_{n-1} + A (u_{n+2} + u_{n-2})) = 0

and decays to zero in both directions.  Tails are NOT generated by
iterating the map itself: backward iteration of a stable-manifold point
(or forward of an unstable one) amplifies floating-point error by the
reciprocal eigenvalues each step, which destroys the profile near the
floor.  Instead the conjugacy is used in its contracting direction: the
tail sample n steps out is the series evaluated at geometrically shrunk
parameters, which is uniformly accurate all the way down to underflow.

For reversor-symmetric homoclinic points the profile obeys the mirror
symmetry u_n = u_{1-n} (centered between sites 0 and 1), and both tails
decay at the rate of the largest stable eigenvalue.  Since
P_u = sigma5 o P_s holds bit for bit, the unstable series' left tail is the
stable right tail reversed; only the right tail is evaluated, and the left
one is its mirror image.

Phase portraits of the A = 0 reduction, the 2-d map f0, run every
(eps, seed) orbit as one column of a single shift-register recurrence
streamed through a small rolling buffer; only the points a caller keeps
(every stride-th step and each orbit's last) are stored.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .homoclinic import HomoclinicSolution
from .manifold import ManifoldSeries, evaluate_series
from .maps import ModelParams, as_state, nonwandering_bound

__all__ = [
    "SolitonProfile",
    "ProfileError",
    "Orbit2D",
    "build_profile",
    "mirror_defect",
    "portrait_2d",
]

FLOOR = 1e-14
TAIL_STEPS = 500  # build_profile's budget of tail samples per side
BLOCK = 64  # portrait steps between escape tests


class ProfileError(RuntimeError):
    """The tail failed to decay to the floor within the step budget."""


@dataclass(frozen=True)
class SolitonProfile:
    """Finite window of a decaying lattice profile.

    indices are contiguous site numbers n, values the amplitudes u_n.
    residual_max is the sup of the stationary-equation defect over the
    window (zero-padded outside); tail_decay holds the fitted per-site
    decay ratios of the (left, right) tails.
    """

    params: ModelParams
    indices: np.ndarray
    values: np.ndarray
    residual_max: float
    tail_decay: tuple


def _tail_ratio(n, vals, floor, peak):
    """Per-site decay ratio of one tail by a log-linear fit.

    The fit window excludes the near-floor samples (dominated by the
    truncation) and the near-peak samples (not yet asymptotic).
    """
    mag = np.abs(vals)
    keep = (mag > 1e3 * floor) & (mag < 1e-2 * peak)
    if np.count_nonzero(keep) < 2:
        return float("nan")
    slope = np.polyfit(n[keep], np.log(mag[keep]), 1)[0]
    return float(np.exp(slope))


def build_profile(sol: HomoclinicSolution, Ps: ManifoldSeries):
    """Materialize the lattice profile of a reversor-symmetric homoclinic
    orbit.

    Core sites come from the matched point itself; the right tail is the
    stable series at parameters shrunk k times, and the left tail its
    mirror image u_{-n} = u_{n+1} (what the unstable series, whose
    conjugacy contracts under the inverse map, reads there).  The tail
    extends until the whole window state drops below FLOOR in sup-norm; a
    tail that cannot reach it within TAIL_STEPS steps raises ProfileError.
    """
    l1, l2 = Ps.rates
    ks = np.arange(1, TAIL_STEPS + 1)
    states = evaluate_series(Ps, sol.u2 * l1**ks, sol.v2 * l2**ks)
    stop = np.nonzero(np.max(np.abs(states), axis=-1) < FLOOR)[0]
    if stop.size == 0:
        raise ProfileError(
            f"tail above floor {FLOOR:g} after {TAIL_STEPS} steps "
            "(the budget TAIL_STEPS); the matched point does not decay"
        )
    k = int(stop[0])  # number of samples kept in each tail
    # window at step j: f^j(q) = (u_{j-1}, u_j, u_{j+1}, u_{j+2})
    right = states[:k, 3]                # u_3 .. u_{k+2}
    left = right[::-1]                   # u_{-k-1} .. u_{-2}
    core = np.asarray(sol.point, dtype=float)  # u_{-1} .. u_2
    values = np.concatenate([left, core, right])
    indices = np.arange(-k - 1, k + 3)
    peak = float(np.max(np.abs(values)))
    # decay ratios vs distance from the center on each side
    decay = (_tail_ratio(-indices[:k], values[:k], FLOOR, peak),
             _tail_ratio(indices[k + 4:], values[k + 4:], FLOOR, peak))
    return SolitonProfile(
        params=sol.params,
        indices=indices,
        values=values,
        residual_max=_residual_of_values(values, sol.params),
        tail_decay=decay,
    )


def _residual_of_values(values, p: ModelParams):
    """Sup-norm defect of the stationary lattice equation over the window.

    The profile is zero outside its window, so the defect is evaluated on
    the window extended by two sites each way; beyond that every term is
    identically zero.
    """
    u = np.concatenate([np.zeros(4), np.asarray(values, dtype=float),
                        np.zeros(4)])
    c = u[2:-2]
    r = (c * c * c + p.epsilon * (u[3:-1] - 2.0 * c + u[1:-3]
                             + p.A * (u[4:] + u[:-4])))
    return float(np.max(np.abs(r)))


def mirror_defect(profile: SolitonProfile):
    """Sup of |u_n - u_{1-n}| over the mirror pairs in the window [a, b]:
    sites max(a, 1 - b) .. min(b, 1 - a) against their reverse, or 0.0."""
    a, b = int(profile.indices[0]), int(profile.indices[-1])
    lo, hi = max(a, 1 - b), min(b, 1 - a)
    if hi < lo:
        return 0.0
    w = profile.values[lo - a:hi - a + 1]
    return float(np.max(np.abs(w - w[::-1])))


@dataclass(frozen=True)
class Orbit2D:
    """The stored points of one seed's forward orbit under the 2-d map.

    points[i] is the iterate at step steps[i]: the seed (step 0), every
    stride-th step, and the orbit's last point.  With stride 1 these are
    all the iterates.  points is a view of the storage shared by the orbits
    of one portrait_2d call.
    """

    seed: np.ndarray
    points: np.ndarray  # (n, 2), starting with the seed
    steps: np.ndarray   # (n,) step index of each stored point
    escaped: bool


def _physical_memory():
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def portrait_2d(params, seeds, steps=10000, stride=1):
    """Iterate the 2-d map from many seeds at once, for every ModelParams
    in params.

    The map f0(x, y) = (y, -x + 2 y - y^3/eps) is a shift register, so each
    (params, seed) column runs the scalar recurrence

        s_{k+1} = -s_{k-1} + 2 s_k - s_k^3/eps,    (s_0, s_1) = seed,

    with its own eps, and point k of an orbit is (s_k, s_{k+1}).  All
    columns advance together through a rolling buffer of BLOCK + 2 rows,
    updated in place by operations IEEE-identical to f0's formula (the
    oracle map2_apply in tests/reference.py), so every point is bit for
    bit the k-th iterate of f0.  The seeds are validated once (as_state:
    real, finite, two components); steps must be non-negative and stride
    positive.

    A seed escapes at the first step k >= 1 whose point has sup-norm above
    ten times the non-wandering bound, or is non-finite (such orbits blow
    up in a handful of further steps); its orbit stops there, and a
    non-finite escape point is dropped.  Escaped columns are iterated on
    unmasked (they overflow to inf/nan and are never read).  Escapes are
    found over blocks of BLOCK steps, and iteration stops after the block
    in which the last column escapes.

    Only steps 0, stride, 2 stride, ... and each orbit's last point are
    stored, so memory grows with steps/stride, not steps.  A store larger
    than the host's physical memory, or one that cannot be allocated,
    raises MemoryError naming its size before any iteration.  Returns one
    Orbit2D per column: params-major, seed order within each params.
    """
    seeds = as_state(np.atleast_2d(seeds), 2)
    steps, stride = int(steps), int(stride)
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if stride < 1:
        raise ValueError("stride must be positive")
    params = list(params)
    nseed = seeds.shape[0]
    ncol = len(params) * nseed
    # column c keeps its point k at store[c, ceil(k / stride)]; allocated
    # first, so that a grid too large for memory fails before iterating.
    # Sized first too: with overcommit, np.empty grants more than the host
    # holds, and the orbits would fill it
    npts = -(-steps // stride) + 1
    size = (f"{ncol} orbits of up to {npts} stored points need "
            f"{16 * ncol * npts / 2**30:.3g} GiB")
    if 16 * ncol * npts > _physical_memory():
        raise MemoryError(size)
    try:
        store = np.empty((ncol, npts, 2))
    except MemoryError:
        raise MemoryError(size) from None
    eps = np.repeat([p.epsilon for p in params], nseed)
    limit = np.repeat([10.0 * nonwandering_bound(p, dim=2) for p in params],
                      nseed)
    buf = np.empty((BLOCK + 2, ncol))  # row j holds s_{lo+j} in block lo
    buf[:2] = np.tile(seeds.T, len(params))
    store[:, 0] = buf[:2].T
    rows = list(buf)
    t = np.empty(ncol)
    escaped = np.zeros(ncol, dtype=bool)
    last = np.full(ncol, steps)  # step of each column's last stored point
    tail = np.empty((ncol, 2))   # that point
    n = 0
    mul, sub, div = np.multiply, np.subtract, np.divide
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, steps, BLOCK):
            buf[:2] = buf[n:n + 2]  # s_lo, s_{lo+1}
            n = min(BLOCK, steps - lo)
            for j in range(n):
                x, y, r = rows[j], rows[j + 1], rows[j + 2]
                mul(2.0, y, r)
                sub(r, x, r)
                mul(y, y, t)
                mul(t, y, t)
                div(t, eps, t)
                sub(r, t, r)
            # points lo < k <= lo + n are rows k - lo and k - lo + 1
            for k in range(lo - lo % stride + stride, lo + n + 1, stride):
                store[:, k // stride] = buf[k - lo:k - lo + 2].T
            # rows 1 .. n+1; row 1 was already tested unless lo = 0.  The
            # first bad s_j puts the escape at point max(1, j - 1)
            bad = ~(np.abs(buf[1:n + 2]) <= limit)
            hit = np.flatnonzero(~escaped & bad.any(axis=0))
            if hit.size:
                e = np.maximum(lo + bad[:, hit].argmax(axis=0), 1)
                finite = (np.isfinite(buf[e - lo, hit])
                          & np.isfinite(buf[e - lo + 1, hit]))
                e[~finite] -= 1
                last[hit] = e
                tail[hit, 0] = buf[e - lo, hit]
                tail[hit, 1] = buf[e - lo + 1, hit]
                escaped[hit] = True
                if escaped.all():
                    break
    live = ~escaped
    tail[live] = buf[n:n + 2, live].T  # point `steps`
    pos = -(-last // stride)
    store[np.arange(ncol), pos] = tail  # over any later row's stale write
    ks = np.arange(npts) * stride
    ks.flags.writeable = False  # shared by the orbits
    out = []
    for c in range(ncol):
        m = pos[c] + 1
        at = ks[:m] if last[c] % stride == 0 else np.append(ks[:m - 1],
                                                            last[c])
        out.append(Orbit2D(seed=seeds[c % nseed].copy(), points=store[c, :m],
                           steps=at, escaped=bool(escaped[c])))
    return out
