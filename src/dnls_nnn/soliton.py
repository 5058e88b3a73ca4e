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
"""

from __future__ import annotations

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


def build_profile(sol: HomoclinicSolution, Ps: ManifoldSeries,
                  floor=FLOOR, max_steps=500):
    """Materialize the lattice profile of a reversor-symmetric homoclinic
    orbit.

    Core sites come from the matched point itself; the right tail is the
    stable series at parameters shrunk k times, and the left tail its
    mirror image u_{-n} = u_{n+1} (what the unstable series, whose
    conjugacy contracts under the inverse map, reads there).  The tail
    extends until the whole window state drops below the floor in
    sup-norm; a tail that cannot reach the floor within max_steps raises
    ProfileError.
    """
    l1, l2 = Ps.rates
    ks = np.arange(1, int(max_steps) + 1)
    states = evaluate_series(Ps, sol.u2 * l1**ks, sol.v2 * l2**ks)
    stop = np.nonzero(np.max(np.abs(states), axis=-1) < floor)[0]
    if stop.size == 0:
        raise ProfileError(
            f"tail above floor {floor:g} after {max_steps} steps; "
            "the matched point does not decay (or max_steps is too small)"
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
    decay = (_tail_ratio(-indices[:k], values[:k], floor, peak),
             _tail_ratio(indices[k + 4:], values[k + 4:], floor, peak))
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
    """Sup of |u_n - u_{1-n}| over all mirror pairs inside the window."""
    idx = {int(n): i for i, n in enumerate(profile.indices)}
    worst = 0.0
    for n, i in idx.items():
        j = idx.get(1 - n)
        if j is not None:
            worst = max(worst, abs(profile.values[i] - profile.values[j]))
    return float(worst)


@dataclass(frozen=True)
class Orbit2D:
    """One seed's forward orbit under the 2-d map."""

    seed: np.ndarray
    points: np.ndarray  # (k+1, 2) including the seed
    escaped: bool


def portrait_2d(p: ModelParams, seeds, steps=10000):
    """Iterate the 2-d map from many seeds at once.

    The map f0(x, y) = (y, -x + 2 y - y^3/eps) is a shift register, so all
    orbits are run as the scalar recurrence

        s_{k+1} = -s_{k-1} + 2 s_k - s_k^3/eps,    (s_0, s_1) = seed,

    on one (steps + 2, nseed) array, with the operations in map2_apply's
    order: point k of an orbit is (s_k, s_{k+1}), bit for bit the k-th
    iterate of map2_apply.  The seeds are validated once (as_state: real,
    finite, two components); steps must be non-negative.

    A seed escapes at the first step k >= 1 whose point has sup-norm above
    ten times the non-wandering bound, or is non-finite (such orbits blow
    up in a handful of further steps); its stored orbit stops there, and
    a non-finite escape point is dropped.  Escaped columns are iterated on
    unmasked (they overflow to inf/nan and are never read).  Escapes are
    found over blocks of BLOCK steps, and iteration stops after the block
    in which the last seed escapes.  Returns one Orbit2D per seed, in seed
    order.
    """
    seeds = as_state(np.atleast_2d(seeds), 2)
    steps = int(steps)
    if steps < 0:
        raise ValueError("steps must be non-negative")
    limit = 10.0 * nonwandering_bound(p, dim=2)
    eps = p.epsilon
    nseed = seeds.shape[0]
    s = np.empty((steps + 2, nseed))
    s[:2] = seeds.T
    # first j >= 1 with |s_j| above the limit or non-finite; point k holds
    # s_k and s_{k+1}, so the escape step is max(1, j - 1)
    never = steps + 2
    first_bad = np.full(nseed, never)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, steps, BLOCK):
            hi = min(lo + BLOCK, steps)
            for k in range(lo, hi):
                x, y = s[k], s[k + 1]
                s[k + 2] = -x + 2.0 * y - y * y * y / eps
            # rows lo+1 .. hi+1; row lo+1 was already tested unless lo = 0
            bad = ~(np.abs(s[lo + 1:hi + 2]) <= limit)
            hit = bad.any(axis=0) & (first_bad == never)
            first_bad[hit] = lo + 1 + bad[:, hit].argmax(axis=0)
            if np.all(first_bad < never):
                break
    escaped = first_bad < never
    cut = np.where(escaped, np.maximum(first_bad - 1, 1), steps)
    out = []
    for i in range(nseed):
        n = cut[i] + 1
        pts = np.stack((s[:n, i], s[1:n + 1, i]), axis=-1)
        if escaped[i] and not np.all(np.isfinite(pts[-1])):
            pts = pts[:-1]  # keep only finite states in the stored orbit
        out.append(Orbit2D(seed=seeds[i].copy(), points=pts,
                           escaped=bool(escaped[i])))
    return out
