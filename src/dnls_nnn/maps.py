"""Stationary-state lattice maps and their structure.

Real stationary profiles u_n of the cubic DNLS chain with next-nearest-neighbor
coupling satisfy the recurrence

    u_n^3 + eps * (u_{n+1} - 2 u_n + u_{n-1} + A * (u_{n+2} + u_{n-2})) = 0,

which, read as a shift register, is the 4-d polynomial diffeomorphism

    f(x, y, z, w) = (y, z, w, -x - y/A + 2 z/A - z^3/(eps*A) - w/A).

Dropping the A-term (A = 0) reduces the recurrence to the 2-d generalized
Henon map

    f0(x, y) = (y, -x + 2 y - y^3/eps).

Both maps are volume preserving with polynomial inverses, are odd
(commute with -id), and are reversible: reversing the coordinate order
conjugates each map to its inverse.  The pipeline needs the 4-d forward
map only (soliton.portrait_2d runs f0 as a scalar recurrence); f0 itself,
the inverses, the Jacobians and the symmetry registry that test these
properties live with the test oracles in tests/reference.py.  States
are plain float arrays with the components on the last axis; every
operation broadcasts over leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "as_state",
    "map4_apply",
    "nonwandering_bound",
]


@dataclass(frozen=True)
class ModelParams:
    """Lattice parameters: coupling strength eps and the n+-2 weight A."""

    epsilon: float
    A: float = 0.0

    def __post_init__(self):
        eps = float(self.epsilon)
        A = float(self.A)
        if not np.isfinite(eps) or not np.isfinite(A):
            raise ValueError("parameters must be finite")
        if eps == 0.0:
            raise ValueError("epsilon must be nonzero (the maps divide by it)")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "A", A)

    def require_A(self):
        if self.A == 0.0:
            raise ValueError("A must be nonzero for the 4-d map")


def as_state(s, dim):
    """Validate a state: real, finite, last axis of length dim."""
    arr = np.asarray(s)
    if np.iscomplexobj(arr):
        raise ValueError("complex states are not admitted; the maps are real")
    arr = arr.astype(float, copy=False)
    if arr.shape[-1:] != (dim,):
        raise ValueError(f"expected last axis of length {dim}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("state components must be finite")
    return arr


def map4_apply(s, p: ModelParams):
    p.require_A()
    s = as_state(s, 4)
    x, y, z, w = s[..., 0], s[..., 1], s[..., 2], s[..., 3]
    A, eps = p.A, p.epsilon
    x4 = -x - y / A + 2.0 * z / A - z * z * z / (eps * A) - w / A
    return np.stack([y, z, w, x4], axis=-1)


def nonwandering_bound(p: ModelParams, dim):
    """Half-width of the coordinate box that contains the non-wandering set:
    2 sqrt|eps| in 2-d, sqrt(|eps A| (2 + 4/|A|)) in 4-d."""
    if dim == 2:
        return 2.0 * np.sqrt(abs(p.epsilon))
    if dim == 4:
        p.require_A()
        return np.sqrt(abs(p.epsilon * p.A) * (2.0 + 4.0 / abs(p.A)))
    raise ValueError("dim must be 2 or 4")
