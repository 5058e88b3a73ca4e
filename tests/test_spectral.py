import warnings

import numpy as np
import pytest

from dnls_nnn.maps import ModelParams
from dnls_nnn.spectral import (
    ALL_REAL,
    CRITICAL_A,
    MIXED,
    TWO_PAIRS_COMPLEX,
    NonHyperbolicError,
    ReciprocalQuartic,
    characteristic_poly,
    classify_eigenvalues,
    discriminant,
    solve_reciprocal_quartic,
)

from reference import (
    fixed_points,
    map4_jacobian,
    quartic_coefficients,
    sturm_real_root_test,
)

P = ModelParams(0.0004, -0.125)

# printed four-digit-ish eigenvalues for A = -1/8; the library values are
# exact to machine precision, the printed ones only to a few 1e-5
PRINTED_EIGS = (0.191471, 0.473395, 2.112397, 5.222742)


def brute_real_count(q, rtol=1e-7):
    roots = np.roots(quartic_coefficients(q))
    scale = np.maximum(1.0, np.abs(roots))
    return int(np.sum(np.abs(roots.imag) <= rtol * scale)), roots


def test_quartic_evaluation_matches_polyval():
    rng = np.random.default_rng(21)
    for _ in range(50):
        a, b = rng.uniform(-10, 10, size=2)
        q = ReciprocalQuartic(a, b)
        x = rng.uniform(-3, 3, size=7)
        assert np.allclose(q(x), np.polyval(quartic_coefficients(q), x),
                           rtol=1e-13, atol=1e-12)


def test_characteristic_poly_matches_jacobian():
    # dual route: the palindromic quartic must equal the characteristic
    # polynomial of the actual linearization at each fixed point
    for p in (P, ModelParams(0.01, -0.145), ModelParams(-0.3, 0.25)):
        J = map4_jacobian(np.zeros(4), p)
        q = characteristic_poly(p, "origin")
        assert np.allclose(np.poly(J), quartic_coefficients(q),
                           rtol=1e-12, atol=1e-12)
    for p in (P, ModelParams(0.01, -0.145), ModelParams(-0.02, 0.3)):
        if p.epsilon * p.A < 0.0:
            q_nt = characteristic_poly(p, "nontrivial")
            nt = fixed_points(p)[1]
            Jn = map4_jacobian(nt, p)
            assert np.allclose(np.poly(Jn), quartic_coefficients(q_nt),
                               rtol=1e-10, atol=1e-12)
        else:
            with pytest.raises(ValueError):
                characteristic_poly(p, "nontrivial")


def test_characteristic_poly_rejects_A_zero():
    with pytest.raises(ValueError):
        characteristic_poly(ModelParams(0.1, 0.0), "origin")


def test_real_root_test_against_brute_force():
    # full-plane comparison on a 100x100 grid; grid points whose root
    # pattern is numerically ambiguous (a root with tiny-but-nonzero
    # imaginary part) sit on region boundaries and are excluded
    grid = np.linspace(-12.0, 12.0, 100)
    checked = skipped = 0
    for a in grid:
        for b in grid:
            q = ReciprocalQuartic(a, b)
            verdict = sturm_real_root_test(q)
            roots = np.roots(quartic_coefficients(q))
            rel = np.abs(roots.imag) / np.maximum(1.0, np.abs(roots))
            if verdict is None or np.any((rel > 1e-9) & (rel < 1e-4)):
                skipped += 1
                continue
            brute_all_real = bool(np.all(rel <= 1e-9))
            assert verdict == brute_all_real, (a, b)
            checked += 1
    assert checked > 9000
    assert skipped < 500


def test_real_root_test_boundary_is_indeterminate():
    # (x^2 - 1)^2: double roots at +-1, exactly on the region boundary
    assert sturm_real_root_test(ReciprocalQuartic(0.0, -2.0)) is None
    # interior points on both sides stay decisive
    assert sturm_real_root_test(ReciprocalQuartic(0.0, -2.5)) is True
    assert sturm_real_root_test(ReciprocalQuartic(0.0, 0.0)) is False


def test_classification_windows_in_A():
    assert classify_eigenvalues(-0.125) == ALL_REAL
    assert classify_eigenvalues(CRITICAL_A) == ALL_REAL  # closed lower edge
    assert classify_eigenvalues(CRITICAL_A - 1e-9) == TWO_PAIRS_COMPLEX
    assert classify_eigenvalues(-5.0) == TWO_PAIRS_COMPLEX
    assert classify_eigenvalues(1.0) == MIXED
    assert classify_eigenvalues(2.0) == MIXED  # closed upper edge
    assert classify_eigenvalues(2.0 + 1e-9) == TWO_PAIRS_COMPLEX
    assert classify_eigenvalues(-0.5, at="nontrivial") == MIXED
    assert classify_eigenvalues(-1.0, at="nontrivial") == ALL_REAL
    assert classify_eigenvalues(0.7, at="nontrivial") == ALL_REAL
    with pytest.raises(ValueError):
        classify_eigenvalues(0.0)


def test_classification_against_brute_roots():
    rng = np.random.default_rng(22)
    margin = 1e-6
    edges = np.array([CRITICAL_A, 0.0, 2.0, -1.0])
    for A in rng.uniform(-3.0, 3.0, size=120):
        if np.min(np.abs(A - edges)) < margin:
            continue
        for at in ("origin", "nontrivial"):
            p = ModelParams(0.1 if A < 0 else -0.1, A)  # make eps*A < 0
            q = characteristic_poly(p, at)
            n_real, _ = brute_real_count(q)
            got = classify_eigenvalues(A, at=at)
            want = {4: ALL_REAL, 2: MIXED, 0: TWO_PAIRS_COMPLEX}[n_real]
            assert got == want, (A, at, n_real)


def test_discriminant_closed_form_against_root_product():
    # generic quartic discriminant from the root differences:
    # disc = prod_{i<j} (r_i - r_j)^2 for a monic polynomial
    rng = np.random.default_rng(23)
    samples = np.concatenate([
        rng.uniform(-1.0, -0.01, size=50),
        rng.uniform(0.01, 3.0, size=50),
    ])
    for A in samples:
        for at in ("origin", "nontrivial"):
            p = ModelParams(-0.1 if A > 0 else 0.1, A)
            q = characteristic_poly(p, at)
            roots = np.roots(quartic_coefficients(q))
            prod = 1.0 + 0.0j
            for i in range(4):
                for j in range(i + 1, 4):
                    prod *= (roots[i] - roots[j]) ** 2
            closed = discriminant(p, at)
            assert abs(prod.imag) <= 1e-6 * abs(prod)
            assert np.isclose(closed, prod.real, rtol=1e-9), (A, at)


def test_discriminant_frozen_value_and_critical_zero():
    assert discriminant(P, "origin") == 4352.0
    # the window edge is precisely a discriminant zero of the origin quartic
    pc = ModelParams(0.0004, CRITICAL_A)
    assert abs(discriminant(pc, "origin")) < 1e-9
    with pytest.raises(ValueError):
        discriminant(ModelParams(0.1, 0.0), "origin")


def test_discriminant_reads_nonfinite_past_double_range():
    # the closed form in Python floats, where A**5 raises past double range
    def closed(A, at):
        if at == "origin":
            return 4.0 * (-2.0 - 31.0 * A - 144.0 * A**2 - 176.0 * A**3
                          + 64.0 * A**5) / A**5
        return 16.0 * (1.0 + 17.0 * A + 144.0 * A**2 + 640.0 * A**3
                       + 1536.0 * A**4 + 1024.0 * A**5) / A**5

    rng = np.random.default_rng(5)
    As = np.concatenate([rng.uniform(-1.0, 1.0, 500),
                         rng.choice([-1.0, 1.0], 500)
                         * 10.0 ** rng.uniform(-64.0, 64.0, 500)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for A in As.tolist():
            for at in ("origin", "nontrivial"):
                try:
                    want = closed(A, at)
                except (ZeroDivisionError, OverflowError):
                    want = np.inf
                got = discriminant(ModelParams(0.1, A), at)
                assert type(got) is float
                if np.isfinite(want):
                    assert got.hex() == want.hex(), (A, at)
                else:
                    assert not np.isfinite(got), (A, at)
        for A in (-1e-62, -1e-70, 1e80, -1e80):
            assert not np.isfinite(discriminant(ModelParams(0.1, A)))


def test_solver_root_quality_and_pairing():
    q = characteristic_poly(P, "origin")
    es = solve_reciprocal_quartic(q)
    assert es.classification == ALL_REAL and es.hyperbolic
    lams = np.array([es.lambda1, es.lambda2, es.lambda3, es.lambda4])
    # roots annihilate the quartic
    scale = np.maximum(1.0, np.abs(lams)) ** 4
    assert np.max(np.abs(q(lams.real)) / scale) < 1e-11
    # reciprocal pairing
    assert abs(es.lambda1 * es.lambda3 - 1.0) < 1e-12
    assert abs(es.lambda2 * es.lambda4 - 1.0) < 1e-12
    # agreement with the printed four-decimal values (those carry ~2e-5 error)
    got = sorted(abs(l) for l in lams)
    for g, w in zip(got, sorted(PRINTED_EIGS)):
        assert abs(g - w) < 2e-5
    # cross-check against the generic eigenvalue solver
    brute = np.sort(np.linalg.eigvals(map4_jacobian(np.zeros(4), P)).real)
    assert np.allclose(np.sort(lams.real), brute, rtol=1e-10)


def test_solver_is_accurate_as_A_approaches_zero():
    # the small pair closes on x = 1: its s-root and its eigenvalue must
    # follow the closed forms, and the spectrum must stay the hyperbolic
    # all-real one that classify_eigenvalues reports
    for A in -np.logspace(-2, -20, 19):
        es = solve_reciprocal_quartic(characteristic_poly(ModelParams(0.1, A)))
        assert es.classification == classify_eigenvalues(A) == ALL_REAL, A
        assert es.hyperbolic, A
        r = np.sqrt(1.0 + 8.0 * A * (1.0 + A))
        s = 4.0 * (1.0 + A) / (1.0 + r)
        d = (4.0 * A - 16.0 * A * (1.0 + A) / (1.0 + r)) / (1.0 + r)  # s - 2
        l2 = es.lambda2.real
        assert l2 + 1.0 / l2 == pytest.approx(s, rel=1e-15), A
        lam2 = 1.0 + d / 2.0 - np.sqrt(d * (4.0 + d)) / 2.0
        assert l2 == pytest.approx(lam2, rel=1e-15), A


def test_stable_pair_is_inside_unit_circle():
    es = solve_reciprocal_quartic(characteristic_poly(P, "origin"))
    l1, l2 = es.stable_pair()
    assert 0 < l1 < l2 < 1.0
    assert es.lambda1 == l1 and es.lambda2 == l2


def test_solver_handles_complex_classes():
    es = solve_reciprocal_quartic(characteristic_poly(ModelParams(0.1, 1.0),
                                                      "origin"))
    assert es.classification == MIXED
    with pytest.raises(NonHyperbolicError):
        es.stable_pair()
    es2 = solve_reciprocal_quartic(
        characteristic_poly(ModelParams(0.1, -0.5), "origin"))
    assert es2.classification == TWO_PAIRS_COMPLEX
    # complex eigenvalues of a reciprocal quartic: still reciprocal-paired
    assert abs(es2.lambda1 * es2.lambda3 - 1.0) < 1e-10
