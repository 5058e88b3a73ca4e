"""Spectra of the 4-d map's fixed points.

The linearization at either kind of fixed point has a reciprocal (palindromic)
characteristic polynomial

    p(x) = x^4 + a x^3 + b x^2 + a x + 1,

with (a, b) = (1/A, -2/A) at the origin and (1/A, -(6 + 2/A)) at the two
constant quadruples.  The palindromic structure forces the eigenvalues into
reciprocal pairs (lambda, 1/lambda); the substitution s = x + 1/x reduces the
quartic to

    s^2 + a s + (b - 2) = 0,

after which each s yields a pair from x^2 - s x + 1 = 0.  Solving this way
keeps the pairing exact in floating point: the large root of each quadratic
is taken with the numerically stable sign, its partner from the product of
the roots (for x, its literal reciprocal).

spectrum is the one solve, refused outside double range.  origin_stable_pair
is the manifold construction's domain gate: the closed-form window
[CRITICAL_A, 0) of four real eigenvalues, then spectrum, then
EigenSystem.stable_pair, the one refusal of a spectrum not all-real and
hyperbolic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import ModelParams

__all__ = [
    "CRITICAL_A",
    "ReciprocalQuartic",
    "EigenSystem",
    "NonHyperbolicError",
    "characteristic_poly",
    "discriminant",
    "classify_eigenvalues",
    "solve_reciprocal_quartic",
    "spectrum",
    "origin_stable_pair",
]

# lower edge of the all-real window of the origin's spectrum
CRITICAL_A = float((-2.0 + np.sqrt(2.0)) / 4.0)

ALL_REAL = "all-real"
TWO_PAIRS_COMPLEX = "two-pairs-complex"
MIXED = "mixed"


class NonHyperbolicError(ValueError):
    """Raised when an operation needs hyperbolic (or all-real) eigenvalues."""


@dataclass(frozen=True)
class ReciprocalQuartic:
    """x^4 + a x^3 + b x^2 + a x + 1."""

    a: float
    b: float

    def __call__(self, x):
        x = np.asarray(x)
        return ((x + self.a) * x + self.b) * x * x + self.a * x + 1.0


@dataclass(frozen=True)
class EigenSystem:
    """Reciprocal-paired eigenvalues: lambda3 = 1/lambda1, lambda4 = 1/lambda2.

    When hyperbolic, (lambda1, lambda2) are the stable pair ordered by
    modulus.
    """

    lambda1: complex
    lambda2: complex
    lambda3: complex
    lambda4: complex
    classification: str
    hyperbolic: bool
    quartic: ReciprocalQuartic  # the polynomial they solve

    def stable_pair(self, A=None):
        """The two real stable eigenvalues as floats, |l1| <= |l2|;
        NonHyperbolicError unless all four are real and off the unit circle
        (its message names the cell's A, if given)."""
        if not (self.hyperbolic and self.classification == ALL_REAL):
            cell = "" if A is None else f"at A={A} "
            raise NonHyperbolicError(
                "manifold construction needs four real hyperbolic "
                f"eigenvalues; {cell}the origin's spectrum is "
                f"{self.classification}"
                + ("" if self.hyperbolic else " (non-hyperbolic)"))
        return float(self.lambda1.real), float(self.lambda2.real)


def characteristic_poly(p: ModelParams, at="origin"):
    p.require_A()
    if at == "origin":
        return ReciprocalQuartic(1.0 / p.A, -2.0 / p.A)
    if at == "nontrivial":
        if p.epsilon * p.A >= 0.0:
            raise ValueError("nontrivial fixed points exist only for eps*A < 0")
        return ReciprocalQuartic(1.0 / p.A, -(6.0 + 2.0 / p.A))
    raise ValueError("at must be 'origin' or 'nontrivial'")


def discriminant(p: ModelParams, at="origin"):
    """Closed-form discriminant of the characteristic quartic; inf or nan
    where A**5 leaves double range."""
    p.require_A()
    A = np.float64(p.A)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if at == "origin":
            return float(4.0 * (-2.0 - 31.0 * A - 144.0 * A**2 - 176.0 * A**3
                                + 64.0 * A**5) / A**5)
        if at == "nontrivial":
            return float(16.0 * (1.0 + 17.0 * A + 144.0 * A**2 + 640.0 * A**3
                                 + 1536.0 * A**4 + 1024.0 * A**5) / A**5)
    raise ValueError("at must be 'origin' or 'nontrivial'")


def classify_eigenvalues(A, at="origin"):
    """Reality type of the four eigenvalues as a function of A alone."""
    A = float(A)
    if A == 0.0:
        raise ValueError("A must be nonzero")
    if at == "origin":
        if A < CRITICAL_A or A > 2.0:
            return TWO_PAIRS_COMPLEX
        if A < 0.0:
            return ALL_REAL
        return MIXED  # 0 < A <= 2
    if at == "nontrivial":
        if -1.0 < A < 0.0:
            return MIXED
        return ALL_REAL
    raise ValueError("at must be 'origin' or 'nontrivial'")


def _quadratic_pair(s, disc):
    """Roots of x^2 - s x + 1, given disc = s^2 - 4: the large root by the
    stable formula, partner its exact reciprocal."""
    sq = np.sqrt(complex(disc))
    xp = (s + sq) / 2.0
    xm = (s - sq) / 2.0
    big = xp if abs(xp) >= abs(xm) else xm
    return big, 1.0 / big


def _realify(z, tol=1e-12):
    if abs(z.imag) <= tol * max(1.0, abs(z)):
        return complex(z.real, 0.0)
    return z


def solve_reciprocal_quartic(q: ReciprocalQuartic):
    """Eigenvalues via the palindromic reduction; pairing exact by construction."""
    a, b = q.a, q.b
    sq = np.sqrt(complex(a * a - 4.0 * (b - 2.0)))
    s = [(-a - sq) / 2.0, (-a + sq) / 2.0]
    # the large s-root i keeps its form, which does not cancel; the small
    # one j comes from s_i s_j = b - 2, and its disc s_j^2 - 4 from
    # (s_i - 2)(s_j - 2) = q(1) = 2a + b + 2.  As A -> 0- the small pair
    # closes on x = 1, where s_j - 2 is all that separates it.
    i, j = (0, 1) if abs(s[0]) >= abs(s[1]) else (1, 0)
    s[j] = (b - 2.0) / s[i]
    disc = [s[i] * s[i] - 4.0] * 2
    disc[j] = (2.0 * a + b + 2.0) / (s[i] - 2.0) * (s[j] + 2.0)
    pairs = [_quadratic_pair(sk, dk) for sk, dk in zip(s, disc)]
    roots = [_realify(r) for pair in pairs for r in pair]

    n_real = sum(1 for r in roots if r.imag == 0.0)
    if n_real == 4:
        classification = ALL_REAL
    elif n_real == 0:
        classification = TWO_PAIRS_COMPLEX
    else:
        classification = MIXED

    hyperbolic = all(abs(abs(r) - 1.0) > 1e-12 for r in roots)
    if hyperbolic:
        stable = sorted((r for r in roots if abs(r) < 1.0), key=abs)
        l1, l2 = stable
    else:
        l1, l2 = pairs[0][0], pairs[1][0]
    return EigenSystem(
        lambda1=complex(l1),
        lambda2=complex(l2),
        lambda3=1.0 / complex(l1),
        lambda4=1.0 / complex(l2),
        classification=classification,
        hyperbolic=hyperbolic,
        quartic=q,
    )


def spectrum(p: ModelParams, at="origin"):
    """The eigen system at the origin or the nontrivial fixed points;
    ValueError where A puts it outside double range (1/A squared overflows
    for |A| below about 1e-154)."""
    with np.errstate(over="ignore", invalid="ignore"):
        es = solve_reciprocal_quartic(characteristic_poly(p, at))
    lams = [es.lambda1, es.lambda2, es.lambda3, es.lambda4]
    if not np.all(np.isfinite(lams)):
        raise ValueError(f"A={p.A!r} puts the {at} spectrum outside "
                         "double range")
    return es


def origin_stable_pair(p: ModelParams):
    """The origin's stable pair (l1, l2), refused outside the closed-form
    window (classify_eigenvalues), then where the solver, which rounds near
    the window's edges, finds the spectrum outside double range or not
    all-real and hyperbolic."""
    p.require_A()
    kind = classify_eigenvalues(p.A, at="origin")
    if kind != ALL_REAL:
        raise NonHyperbolicError(
            f"A={p.A!r} is outside [{CRITICAL_A!r}, 0): the origin's spectrum "
            f"is '{kind}' there, and the manifold construction needs four "
            "real hyperbolic eigenvalues")
    return spectrum(p, "origin").stable_pair(p.A)
