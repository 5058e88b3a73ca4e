import base64
import json
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from dnls_nnn import manifold
from dnls_nnn.homoclinic import _census_axis
from dnls_nnn.manifold import (
    DEFAULT_ORDER,
    GAUGE_RESIDUAL,
    MAX_ORDER,
    OVERFLOW_LIMIT,
    ResonanceError,
    SeriesOverflowError,
    _build_coeffs,
    _default_gauge,
    compute_manifold_pair,
    conjugacy_residual,
    evaluate_series,
    pointwise_conjugacy_residual,
    rescale_series,
    series_from_dict,
    series_jacobian,
    series_to_dict,
    tail_bound,
)
from dnls_nnn.maps import ModelParams, map4_apply
from dnls_nnn.spectral import (
    NonHyperbolicError,
    characteristic_poly,
    solve_reciprocal_quartic,
)

from reference import (
    EXTENDED,
    _horner_v,
    apply_symmetry,
    boundary_extent,
    convolve_all_coeffs,
    cubic_convolution,
    gauge_bounds,
    horner_v_full,
    map4_inverse,
    map4_jacobian,
    solve_order_block,
)
from reference_cells import (conjugacy_on_the_box, gauge_equals_bisection,
                             gauge_is_order_independent, recursion_errors,
                             tail_licenses_the_order)

P = ModelParams(0.0004, -0.125)

# in-window weight where the stable pair satisfies l2^2 = l1 exactly, so an
# even-degree denominator vanishes; the recursion survives because the odd
# map forces that block's numerator to be identically zero
A_RESONANT = -0.12975526068431226


def eig(p):
    return solve_reciprocal_quartic(characteristic_poly(p, "origin"))


def test_order_one_blocks_are_scaled_eigenvectors(pair_ill):
    Ps, Pu = pair_ill
    l1, l2 = Ps.rates
    g1, g2 = Ps.scale
    assert np.allclose(Ps.coeffs[:, 1, 0], g1 * np.array([1, l1, l1**2, l1**3]),
                       rtol=1e-14)
    assert np.allclose(Ps.coeffs[:, 0, 1], g2 * np.array([1, l2, l2**2, l2**3]),
                       rtol=1e-14)
    L1, L2 = Pu.rates
    h1, h2 = Pu.scale
    assert np.allclose(Pu.coeffs[:, 1, 0], h1 * np.array([1, L1, L1**2, L1**3]),
                       rtol=1e-14)
    # each order-1 block is an eigenvector of the Jacobian at the origin
    J = map4_jacobian(np.zeros(4), Ps.params)
    for w, lam in ((Ps.coeffs[:, 1, 0], l1), (Ps.coeffs[:, 0, 1], l2),
                   (Pu.coeffs[:, 1, 0], L1), (Pu.coeffs[:, 0, 1], L2)):
        assert np.max(np.abs(J @ w - lam * w)) \
            < 1e-10 * max(1.0, abs(lam)) * np.max(np.abs(w))


def test_even_total_degree_blocks_vanish(pair_ill):
    Ps, _ = pair_ill
    N = Ps.order
    for k in range(0, N + 1, 2):
        j = np.arange(k + 1)
        assert np.all(Ps.coeffs[:, j, k - j] == 0.0), k


def test_chain_relations_between_components(pair_ill):
    Ps, _ = pair_ill
    l1, l2 = Ps.rates
    rng = np.random.default_rng(31)
    ks = rng.integers(3, Ps.order, size=20)
    for k in ks:
        k = int(k) | 1  # odd degrees carry the content
        n = int(rng.integers(0, k + 1))
        m = k - n
        a = Ps.coeffs[:, n, m]
        if a[0] == 0.0:
            continue
        lam = l1**n * l2**m
        assert np.isclose(a[1], lam * a[0], rtol=1e-12)
        assert np.isclose(a[2], lam * a[1], rtol=1e-12)
        assert np.isclose(a[3], lam * a[2], rtol=1e-12)


def test_reference_block_matches_fast_builder(pair_ill):
    Ps, Pu = pair_ill
    for ms in (Ps, Pu):
        for (n, m) in [(1, 0), (0, 1), (3, 0), (2, 1), (1, 2), (0, 3),
                       (3, 2), (5, 4), (0, 7)]:
            blk = solve_order_block(ms, n, m)
            ref = ms.coeffs[:, n, m]
            assert np.allclose(blk, ref, rtol=1e-11, atol=1e-300), (n, m)


def test_back_substitution_closes_each_block(pair_ill):
    # -k0(Lam) a1^{nm} must equal the cubic convolution / (eps A)
    Ps, _ = pair_ill
    p = Ps.params
    l1, l2 = Ps.rates
    a, b = 1.0 / p.A, -2.0 / p.A
    for (n, m) in [(3, 0), (1, 2), (2, 3), (4, 1), (7, 2)]:
        lam = l1**n * l2**m
        k0 = ((lam + a) * lam + b) * lam * lam + a * lam + 1.0
        R = cubic_convolution(Ps.coeffs[2], n, m) / (p.epsilon * p.A)
        lhs = -k0 * Ps.coeffs[0, n, m]
        assert np.isclose(lhs, R, rtol=1e-11, atol=1e-13 * (1 + abs(R)))


def test_cubic_convolution_small_cases():
    # hand-checkable: (c10*u + c01*v + c11*u*v)^3
    c = np.zeros((7, 7))
    c[1, 0], c[0, 1], c[1, 1] = 2.0, 3.0, 5.0
    assert cubic_convolution(c, 3, 0) == pytest.approx(8.0)          # (2u)^3
    assert cubic_convolution(c, 0, 3) == pytest.approx(27.0)         # (3v)^3
    assert cubic_convolution(c, 2, 1) == pytest.approx(36.0)         # 3*4*3
    assert cubic_convolution(c, 2, 2) == pytest.approx(180.0)        # 6*2*3*5
    assert cubic_convolution(c, 3, 3) == pytest.approx(125.0)        # 5**3


def test_series_evaluation_shapes(pair_ill):
    Ps, _ = pair_ill
    assert evaluate_series(Ps, 0.3, -0.2).shape == (4,)
    assert evaluate_series(Ps, np.zeros(5), np.linspace(-1, 1, 5)).shape == (5, 4)
    uu, vv = np.meshgrid(np.linspace(-1, 1, 3), np.linspace(-1, 1, 7))
    assert evaluate_series(Ps, uu, vv).shape == (7, 3, 4)
    assert series_jacobian(Ps, 0.3, -0.2).shape == (4, 2)
    assert series_jacobian(Ps, uu, vv).shape == (7, 3, 4, 2)
    assert np.array_equal(evaluate_series(Ps, 0.0, 0.0), np.zeros(4))


def test_series_jacobian_matches_finite_differences(pair_ill):
    Ps, _ = pair_ill
    rng = np.random.default_rng(32)
    for _ in range(5):
        u, v = rng.uniform(-0.8, 0.8, size=2)
        J = series_jacobian(Ps, u, v)
        h = 1e-6
        du = (evaluate_series(Ps, u + h, v) - evaluate_series(Ps, u - h, v)) / (2 * h)
        dv = (evaluate_series(Ps, u, v + h) - evaluate_series(Ps, u, v - h)) / (2 * h)
        scale = 1.0 + np.abs(J).max()
        assert np.max(np.abs(J[:, 0] - du)) < 1e-6 * scale
        assert np.max(np.abs(J[:, 1] - dv)) < 1e-6 * scale


def test_tangency_at_origin(pair_ill):
    Ps, _ = pair_ill
    l1, l2 = Ps.rates
    g1, g2 = Ps.scale
    J0 = series_jacobian(Ps, 0.0, 0.0)
    assert np.allclose(J0[:, 0], g1 * np.array([1, l1, l1**2, l1**3]), rtol=1e-14)
    assert np.allclose(J0[:, 1], g2 * np.array([1, l2, l2**2, l2**3]), rtol=1e-14)


def test_conjugacy_residual_on_unit_box(pair_ill):
    Ps, Pu = pair_ill
    conjugacy_on_the_box(Ps, Pu)
    # consistency between the grid max and the pointwise evaluation
    uu, vv = np.meshgrid(np.linspace(-1, 1, 41), np.linspace(-1, 1, 41),
                         indexing="ij")
    ptwise = pointwise_conjugacy_residual(Ps, uu, vv)
    assert conjugacy_residual(Ps) == pytest.approx(float(np.max(ptwise)),
                                                   rel=1e-12)


def test_functional_equation_along_orbits(pair_ill):
    # iterate the conjugacy twice: f^2(P(u,v)) ~ P(l1^2 u, l2^2 v)
    Ps, Pu = pair_ill
    l1, l2 = Ps.rates
    rng = np.random.default_rng(33)
    u, v = rng.uniform(-0.7, 0.7, size=(2, 40))
    lhs = map4_apply(map4_apply(evaluate_series(Ps, u, v), P), P)
    rhs = evaluate_series(Ps, l1**2 * u, l2**2 * v)
    assert np.max(np.abs(lhs - rhs)) < 1e-9
    L1, L2 = Pu.rates
    lhs_u = map4_inverse(evaluate_series(Pu, u, v), P)
    rhs_u = evaluate_series(Pu, u / L1, v / L2)
    assert np.max(np.abs(lhs_u - rhs_u)) < 1e-9


def test_unstable_is_reversed_stable(pair_ill):
    Ps, Pu = pair_ill
    # coefficient-level transport, exact
    assert np.array_equal(Pu.coeffs, Ps.coeffs[::-1])
    assert not np.shares_memory(Pu.coeffs, Ps.coeffs)
    # pointwise: sigma5 o P_s == P_u, exact
    rng = np.random.default_rng(34)
    u, v = rng.uniform(-1, 1, size=(2, 25))
    qs = evaluate_series(Ps, u, v)
    qu = evaluate_series(Pu, u, v)
    assert np.array_equal(apply_symmetry("sigma5", qs), qu)
    # the Jacobian rows reverse with the image, batched and at one point:
    # symmetric_search and build_profile read P_u off P_s through these
    assert np.array_equal(series_jacobian(Pu, u, v),
                          series_jacobian(Ps, u, v)[..., ::-1, :])
    for a, b in zip(u.tolist(), v.tolist()):
        assert np.array_equal(evaluate_series(Pu, a, b),
                              evaluate_series(Ps, a, b)[::-1])
        assert np.array_equal(series_jacobian(Pu, a, b),
                              series_jacobian(Ps, a, b)[..., ::-1, :])


def test_series_is_odd(pair_ill):
    Ps, _ = pair_ill
    rng = np.random.default_rng(35)
    u, v = rng.uniform(-1, 1, size=(2, 30))
    assert np.array_equal(evaluate_series(Ps, -u, -v),
                          -evaluate_series(Ps, u, v))


def test_rescale_moves_gauge_not_manifold(pair_ill):
    Ps, _ = pair_ill
    g1, g2 = Ps.scale
    ms2 = rescale_series(Ps, (0.5 * g1, 2.0 * g2))
    rng = np.random.default_rng(36)
    u, v = rng.uniform(-0.5, 0.5, size=(2, 20))
    a = evaluate_series(Ps, u, v)
    b = evaluate_series(ms2, 2.0 * u, 0.5 * v)
    assert np.max(np.abs(a - b)) < 1e-12 * (1.0 + np.max(np.abs(a)))
    assert ms2.scale == (0.5 * g1, 2.0 * g2)


def test_truncation_error_shrinks_with_order():
    # residual at the production gauge must fall as more orders are kept
    base, _ = compute_manifold_pair(P, order=80)
    res = {}
    for N in (10, 20, 40, 80):
        C = _build_coeffs(P, *base.rates, N)
        ms = type(base)(branch="stable", order=N, rates=base.rates,
                        scale=(1.0, 1.0), coeffs=C, params=P)
        res[N] = conjugacy_residual(rescale_series(ms, base.scale))
    # strict gains until rounding error floors the sup (N=40 already sits on
    # the floor at this gauge, so the last step only has to not regress)
    assert res[20] < res[10] and res[40] < res[20] and res[80] <= res[40]
    assert res[80] < 1e-9 < res[10]


def test_tail_bound_holds_the_truncation_defect():
    # at the production gauge: where truncation sets the sampled 41^2
    # residual, the bound covers it up to the float64 floor that residual
    # reads at DEFAULT_ORDER and overshoots it by less than a factor of 2
    # (2.50e4, 26.9, 6.31e-5 at orders 10, 20, 30); it falls with every order
    base, _ = compute_manifold_pair(P)
    floor = conjugacy_residual(base)
    bounds = []
    for N in (10, 20, 30, 40, 48, DEFAULT_ORDER, 80):
        C = _build_coeffs(P, *base.rates, N)
        ms = rescale_series(type(base)(
            branch="stable", order=N, rates=base.rates, scale=(1.0, 1.0),
            coeffs=C, params=P), base.scale)
        bounds.append(tail_bound(ms))
        if N <= 30:
            res = conjugacy_residual(ms)
            assert res - floor <= bounds[-1] <= 2.0 * res, (N, res)
    assert all(a > b for a, b in zip(bounds, bounds[1:])), bounds


def test_tail_bound_licenses_the_default_order():
    # the 18 acceptance cells and the corners of the near-critical strip
    cells = [(e, A) for e in (0.0004, 0.01, 0.1, 1.0, -0.5, -0.1)
             for A in (-0.145, -0.13, -0.115)]
    cells += [(e, A) for e in (2e-4, 1.0) for A in (-0.1464, -0.1455)]
    for e, A in cells:
        Ps, Pu = compute_manifold_pair(ModelParams(e, A))
        assert Ps.order == DEFAULT_ORDER
        # Pu's second component carries f^-1's cube: Ps's third, bit for bit
        assert tail_licenses_the_order(Ps) == tail_bound(Pu), (e, A)


def test_explicit_scale_is_honored():
    ms, _ = compute_manifold_pair(P, order=40, scale=(0.01, 0.02))
    assert ms.scale == (0.01, 0.02)
    l1 = ms.rates[0]
    assert np.allclose(ms.coeffs[:, 1, 0],
                       0.01 * np.array([1, l1, l1**2, l1**3]), rtol=1e-14)


def test_order_one_series_is_linear():
    ms, _ = compute_manifold_pair(P, order=1, scale=(1.0, 1.0))
    l1, l2 = ms.rates
    rng = np.random.default_rng(37)
    u, v = rng.uniform(-1, 1, size=(2, 10))
    w1 = np.array([1, l1, l1**2, l1**3])
    w2 = np.array([1, l2, l2**2, l2**3])
    expect = u[:, None] * w1 + v[:, None] * w2
    assert np.allclose(evaluate_series(ms, u, v), expect, rtol=1e-14)


def test_compute_manifold_argument_validation():
    with pytest.raises(ValueError):
        compute_manifold_pair(P, order=0)
    with pytest.raises(NonHyperbolicError) as err:
        compute_manifold_pair(ModelParams(0.0004, -0.2))
    assert "two-pairs-complex" in str(err.value)
    with pytest.raises(NonHyperbolicError) as err2:
        compute_manifold_pair(ModelParams(0.0004, 0.5))
    assert "mixed" in str(err2.value)


@pytest.mark.parametrize("A, words", [
    # one ulp below CRITICAL_A the solver rounds the spectrum to four real
    # eigenvalues; the closed-form window decides
    (-0.14644660940672624, "'two-pairs-complex'"),
    # as A -> 0- the solver puts the small pair on the unit circle
    (-1e-30, "all-real (non-hyperbolic)"),
])
def test_manifold_domain_edges_raise_non_hyperbolic(A, words):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonHyperbolicError, match=re.escape(words)):
            compute_manifold_pair(ModelParams(0.0004, A))


def test_resonance_guard_raises_on_true_resonance():
    # inject rates whose product hits an eigenvalue at an odd block with a
    # nonzero numerator: L1^2 L2 = L1 when L2 = 1/L1; the full recursion
    # reports the same block and denominator
    es = eig(P)
    l1, _ = es.stable_pair()
    seen = []
    for build in (_build_coeffs, convolve_all_coeffs):
        with pytest.raises(ResonanceError) as err:
            build(P, l1, 1.0 / l1, 10)
        seen.append((err.value.order, err.value.value))
    assert seen[0][0] is not None and seen[0] == seen[1]


def test_resonance_is_reported_before_an_overflow_at_its_degree():
    # at eps = 1e-270 the resonant block of the injected rates above also
    # overflows: resonance is the error at that degree, as in the per-pair
    # recursion, which checks it first
    p = ModelParams(1e-270, P.A)
    l1, _ = eig(p).stable_pair()
    seen = []
    for build in (_build_coeffs, convolve_all_coeffs):
        with pytest.raises(ResonanceError) as err:
            build(p, l1, 1.0 / l1, 10)
        seen.append((err.value.order, err.value.value))
    assert seen[0] == seen[1]


RECURSION_CELLS = [(0.0004, -0.125), (1.0, -0.145), (-0.5, -0.13),
                   (0.0002, -0.1462)]


def recursion_args(eps, A):
    p = ModelParams(eps, A)
    return (p, *eig(p).stable_pair())


@pytest.mark.parametrize("eps, A", RECURSION_CELLS)
def test_packed_recursion_keeps_the_per_pair_zeros(eps, A):
    args = recursion_args(eps, A)
    for N in (1, 2, 10, 80):
        fast = _build_coeffs(*args, N)
        full = convolve_all_coeffs(*args, N)
        # int64 views tell -0.0 from 0.0
        if N <= 2:  # the seeded blocks only: bit for bit
            assert np.array_equal(fast.view(np.int64), full.view(np.int64))
        zero = fast == 0.0  # the packed sums round otherwise, but vanish alike
        assert np.array_equal(zero, full == 0.0), N
        assert np.array_equal(fast[zero].view(np.int64),
                              full[zero].view(np.int64)), N


@pytest.mark.skipif(not EXTENDED, reason="long double is no wider than float64")
@pytest.mark.parametrize("eps, A", RECURSION_CELLS)
def test_packed_recursion_within_n_ulps_of_long_double(eps, A):
    # about 1.2e-14 at order 80 on these cells, for both recursions
    for N in (10, 80):
        recursion_errors(compute_manifold_pair(ModelParams(eps, A), order=N,
                                               scale=(1.0, 1.0))[0])


@pytest.mark.parametrize("eps, A", RECURSION_CELLS)
def test_packed_recursion_does_not_depend_on_the_order(eps, A):
    # a degree's packing width is set by the degree alone, so orders 56
    # and 80 agree bit for bit on degrees <= 56 (the default-order check)
    args = recursion_args(eps, A)
    low = _build_coeffs(*args, 56)
    high = _build_coeffs(*args, 80)[:, :57, :57]
    high[:, np.add.outer(np.arange(57), np.arange(57)) > 56] = 0.0
    assert np.array_equal(low.view(np.int64), high.view(np.int64))


def test_packed_recursion_convolves_twice_per_degree(monkeypatch):
    calls = []
    convolve = np.convolve
    monkeypatch.setattr(np, "convolve",
                        lambda *args: calls.append(1) or convolve(*args))
    l1, l2 = eig(P).stable_pair()
    _build_coeffs(P, l1, l2, 80)
    # odd k = 3..79: the square's anti-diagonal k - 1, the cube's k
    assert len(calls) == 2 * len(range(3, 81, 2)) == 78


def test_zero_numerator_rides_through_exact_resonance():
    # at A_RESONANT the (0, 2) denominator k0(l2^2) is ~1e-16, far inside
    # the guard band; only the identically-zero even-block numerator keeps
    # the recursion well-defined, and the full build must succeed
    p = ModelParams(0.0004, A_RESONANT)
    es = eig(p)
    l1, l2 = es.stable_pair()
    assert abs(l2 * l2 - l1) < 1e-16 * 10
    a, b = 1.0 / p.A, -2.0 / p.A
    lam = l2 * l2
    k0 = ((lam + a) * lam + b) * lam * lam + a * lam + 1.0
    assert abs(k0) < 1e-8  # the guard would fire if the numerator were != 0
    ms, _ = compute_manifold_pair(p, order=80)
    assert conjugacy_residual(ms) < 1e-9


def test_overflow_guard():
    with pytest.raises(SeriesOverflowError) as err:
        compute_manifold_pair(P, order=80, scale=(1e6, 1e6))
    assert err.value.order > 1


@pytest.mark.parametrize("eps, A, degree", [(1e-12, -0.13, 73),
                                             (1e-20, -0.125, 35)])
def test_recursion_overflow_names_the_per_pair_degree(eps, A, degree):
    # tiny |eps A| grows the unit-gauge table past OVERFLOW_LIMIT inside the
    # recursion itself, before any gauge is chosen: the packed build stops
    # at the degree the per-pair one does, without a warning
    p = ModelParams(eps, A)
    with pytest.raises(SeriesOverflowError) as ref:
        convolve_all_coeffs(p, *eig(p).stable_pair(), 120)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SeriesOverflowError) as err:
            compute_manifold_pair(p, order=120)
    assert err.value.order == ref.value.order == degree


def test_rescale_checks_only_the_kept_blocks():
    # order 30 at gauge 1e6: every kept coefficient stays far inside double
    # range, while the weights of the zero blocks above order 30 overflow
    unit, _ = compute_manifold_pair(P, order=30, scale=(1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = rescale_series(unit, (1e6, 1e6))
    assert np.all(np.isfinite(big.coeffs))
    assert 1e100 < np.max(np.abs(big.coeffs)) < 1e200
    assert np.array_equal(big.coeffs == 0.0, unit.coeffs == 0.0)
    # a kept block past the recursion's limit reports the lowest such degree
    # (only odd degrees carry coefficients)
    deg = np.add.outer(np.arange(31), np.arange(31))
    lowest = min(k for k in range(1, 31, 2)
                 if np.log10(np.max(np.abs(unit.coeffs[:, deg == k])))
                 + 12 * k > np.log10(OVERFLOW_LIMIT))
    with pytest.raises(SeriesOverflowError) as err:
        rescale_series(unit, (1e12, 1e12))
    assert err.value.order == lowest <= 30


def _assert_boundary_maximum(unit, gauge, tau):
    """gauge holds both bounds and the cap, the rounding bound or the tail
    is active unless g1 sits at the cap, and moving along the boundary
    (the oracle's largest g1 at a nearby g2) does not raise g1 * g2."""
    g1, g2 = gauge
    cap = 256.0 * np.sqrt(abs(unit.params.epsilon))
    rounding, tail = gauge_bounds(unit, g1, g2)
    assert 0.0 < g1 <= cap and 0.0 < g2 <= cap
    assert rounding <= tau * (1.0 + 1e-12)
    assert tail <= 1e-3 * tau * (1.0 + 1e-12)
    active = max(rounding / tau, tail / (1e-3 * tau))
    assert g1 == cap or active >= 1.0 - 1e-12
    for d in (-1e-2, -1e-3, 1e-3, 1e-2):
        h2 = g2 * np.exp(d)
        if h2 <= cap:
            assert boundary_extent(unit, h2, tau, cap) * h2 <= g1 * g2 * (
                1.0 + 1e-12), d


@pytest.mark.parametrize("eps, A", [(4e-4, -0.125), (1.0, -0.145),
                                    (-0.5, -0.145), (1.0, -0.13),
                                    (0.1, -0.145), (-0.5, -0.13),
                                    (2e-4, -0.1462), (0.01, -0.146),
                                    (1.0, -0.1459)])
def test_gauge_is_the_boundary_maximum(eps, A):
    # at (4e-4, -0.125) g1 sits at the cap; the last three cells lie in the
    # near-critical strip
    unit, _ = compute_manifold_pair(ModelParams(eps, A), scale=(1.0, 1.0))
    gauge = _default_gauge(unit, GAUGE_RESIDUAL)
    _assert_boundary_maximum(unit, gauge, GAUGE_RESIDUAL)
    assert compute_manifold_pair(ModelParams(eps, A))[0].scale == gauge


@pytest.mark.parametrize("eps, A, order", [(4e-4, -0.125, 5),
                                           (0.5, -0.001, DEFAULT_ORDER)])
def test_gauge_held_by_the_tail(eps, A, order):
    # at order 5, and at the default order as A -> 0-, the truncation tail,
    # not rounding, closes the box; the tail's probes underflow to 0
    unit, _ = compute_manifold_pair(ModelParams(eps, A), order=order,
                                    scale=(1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gauge = _default_gauge(unit, GAUGE_RESIDUAL)
    rounding, tail = gauge_bounds(unit, *gauge)
    assert rounding < GAUGE_RESIDUAL and tail == pytest.approx(
        1e-3 * GAUGE_RESIDUAL, rel=1e-9)
    _assert_boundary_maximum(unit, gauge, GAUGE_RESIDUAL)


def test_gauge_meets_any_residual_target(monkeypatch):
    # both bounds vanish at the origin, so no target leaves the rule
    # without a gauge
    monkeypatch.setattr(manifold, "GAUGE_RESIDUAL", 1e-30)
    Ps, _ = compute_manifold_pair(P, order=20)
    unit, _ = compute_manifold_pair(P, order=20, scale=(1.0, 1.0))
    _assert_boundary_maximum(unit, Ps.scale, 1e-30)


def test_gauge_survives_overflowing_probes(monkeypatch):
    # at order 300 the weights 256^n of the cap leave double range, where
    # the coefficients have underflowed to 0: their terms weigh 0, not nan,
    # and no warning escapes; degrees above 56 weigh nothing at the gauge.
    # The gauge takes a series of any order: MAX_ORDER bounds only what
    # compute_manifold_pair builds, so it is lifted to reach those degrees
    monkeypatch.setattr(manifold, "MAX_ORDER", 300)
    p = ModelParams(1.0, -0.145)
    unit, _ = compute_manifold_pair(p, order=300, scale=(1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gauge = _default_gauge(unit, GAUGE_RESIDUAL)
    assert gauge == compute_manifold_pair(p)[0].scale
    _assert_boundary_maximum(unit, gauge, GAUGE_RESIDUAL)


@pytest.mark.parametrize("order", [DEFAULT_ORDER, 80])
@pytest.mark.parametrize("eps, A", [
    (4e-4, -0.145), (1.0, -0.145), (-0.5, -0.145),  # the slope's sign change
    (2e-4, -0.1464),  # the near-critical strip
    (4e-4, -0.125),  # g1 at the cap
    (0.059942257783364664, -0.04214889597568067),  # the tail joins the search
])
def test_gauge_equals_the_bisection_oracle(eps, A, order):
    # the bracket search and the replay choose which boundary points are
    # taken, not the bisection they reproduce: the same bits as taking every
    # midpoint's, each from the x of the bisection's lower end
    unit, _ = compute_manifold_pair(ModelParams(eps, A), order=order,
                                    scale=(1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gauge = _default_gauge(unit, GAUGE_RESIDUAL)
    gauge_equals_bisection(unit, gauge)


@pytest.mark.parametrize("eps, A", [(2e-4, -0.14), (1.0, -0.13),
                                    (0.01, -0.146)])
def test_gauge_is_continuous_in_A(eps, A):
    a = compute_manifold_pair(ModelParams(eps, A))[0].scale
    b = compute_manifold_pair(ModelParams(eps, A + 1e-9))[0].scale
    assert np.allclose(a, b, rtol=1e-6, atol=0.0), (a, b)


def test_gauge_is_order_independent():
    # the degrees above 56 weigh nothing at the chosen gauge and are summed
    # last, so they move no bit; at (2e-4, -0.1225) one Newton run from the
    # cap, not repeated from the grid, would end one bit apart
    for eps, A in [(4e-4, -0.125), (1.0, -0.145), (2e-4, -0.1462),
                   (2e-4, -0.1225)]:
        p = ModelParams(eps, A)
        gauge_is_order_independent(compute_manifold_pair(p)[0],
                                   compute_manifold_pair(p, order=80)[0])


def test_gauge_varies_monotonically_across_the_window():
    # eps = 2e-4: g2 falls strictly with A, and g1 never falls
    g = np.array([compute_manifold_pair(ModelParams(2e-4, A))[0].scale
                  for A in np.linspace(-0.145, -0.115, 13)])
    assert np.all(np.diff(g[:, 1]) < 0.0) and np.all(np.diff(g[:, 0]) >= 0.0)


@pytest.mark.parametrize("eps, A", [(0.0004, -0.125), (1.0, -0.145)])
def test_v_stage_mirror_is_the_full_v_stage(eps, A):
    """_horner_v runs each |v| once and negates the rows odd in v.

    np.array_equal reads -0.0 == 0.0, so the sign of a zero may differ from
    the full v-stage; no such zero reaches a result.  The census compares G
    and its cell corners with 0.0 (where -0.0 and 0.0 agree) and scores by
    |G|, and no artifact holds a grid value: the series files hold the
    coefficient table, and the residuals and solutions are read through
    evaluate_series.
    """
    C = compute_manifold_pair(ModelParams(eps, A), scale=(1.0, 1.0))[0].coeffs
    for gv in (_census_axis(), np.linspace(-1.0, 1.0, 41),
               np.array([0.5, -0.0, -0.25, 0.0, -0.5, 1e-3])):
        assert np.array_equal(_horner_v(C, gv), horner_v_full(C, gv))


def odd_entries(C, N):
    """The entries of table C that a series file stores, in its order."""
    return np.array([C[n, m] for n in range(N + 1) for m in range(N + 1 - n)
                     if (n + m) % 2], "<f8")


def b64(values):
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()


def test_serialization_round_trip(pair_ill):
    Ps, _ = pair_ill
    d = series_to_dict(Ps)
    # component i is the base64 of its odd-degree entries, n + m odd and
    # <= N in row-major (n, m) order, as little-endian float64
    assert list(d["coeffs"]) == ["1", "2", "3", "4"]
    for C, text in zip(Ps.coeffs, d["coeffs"].values()):
        assert text == b64(odd_entries(C, Ps.order))
    back = series_from_dict(d)
    assert back.coeffs.tobytes() == Ps.coeffs.tobytes()
    assert back.rates == Ps.rates and back.scale == Ps.scale
    assert back.params == Ps.params and back.branch == Ps.branch
    # the payload is valid JSON and reads back bit for bit
    raw = json.loads(json.dumps(d))
    assert raw["order"] == Ps.order
    assert series_from_dict(raw).coeffs.tobytes() == Ps.coeffs.tobytes()


@pytest.mark.parametrize("N", [1, 2, 3, DEFAULT_ORDER, MAX_ORDER])
def test_series_round_trip_keeps_every_bit(N):
    # odd-degree entries across the exponent range, then -0.0 (which a
    # writer of the nonzero entries reads back as +0.0), the least
    # subnormal, +-1e-300 and entries of the top odd degree
    rng = np.random.default_rng(N)
    deg = np.add.outer(np.arange(N + 1), np.arange(N + 1))
    odd = (deg % 2 == 1) & (deg <= N)
    shape = (4, np.count_nonzero(odd))
    C = np.zeros((4, N + 1, N + 1))
    C[:, odd] = (rng.standard_normal(shape)
                 * 10.0 ** rng.integers(-300, 300, shape))
    k = N - 1 + N % 2
    C[0, 1, 0], C[0, 0, 1], C[1, 1, 0] = -0.0, 5e-324, 1e-300
    C[1, 0, 1], C[2, k, 0], C[3, 0, k] = -1e-300, -1.5, 2.5
    ms = manifold.ManifoldSeries("stable", N, (0.5, 0.25), (2.0, 3.0), C, P)
    back = series_from_dict(json.loads(json.dumps(series_to_dict(ms))))
    assert back.coeffs.tobytes() == C.tobytes()
    assert np.signbit(back.coeffs[0, 1, 0])
    assert (back.branch, back.order, back.rates, back.scale, back.params) == \
        (ms.branch, ms.order, ms.rates, ms.scale, ms.params)


def test_series_from_dict_names_the_bad_component(pair_ill):
    d = series_to_dict(pair_ill[0])
    good = d["coeffs"]
    size = len(odd_entries(pair_ill[0].coeffs[0], d["order"]))
    cases = [
        ("'5'", {**good, "5": good["1"]}),  # a key outside 1..4
        ("'0'", {**good, "0": good["1"]}),
        ("'1,1,1'", {**good, "1,1,1": 1e-12}),  # a key of the old format
        ("['1', '2', '3']", {k: good[k] for k in "123"}),
        ("'2' is not", {**good, "2": b64(np.ones(size - 1))}),
        ("'3' is not", {**good, "3": b64(np.ones(size + 1))}),
        ("'4' is not", {**good, "4": base64.b64encode(  # a byte short
            base64.b64decode(good["4"])[:-1]).decode()}),
        ("'1' is not", {**good, "1": "not base64!"}),
        ("'4' is not", {**good, "4": good["4"] + "\n"}),
        ("'2' is not", {**good, "2": 1e-12}),
        ("'3' is not", {**good, "3": b64([np.inf] * size)}),
        ("'1' is not", {**good, "1": b64([0.0] * (size - 1) + [np.nan])}),
    ]
    for words, coeffs in cases:
        with pytest.raises(ValueError, match=re.escape(words)):
            series_from_dict(dict(d, coeffs=coeffs))


def test_series_from_dict_refuses_entries_off_the_odd_table(pair_ill,
                                                           monkeypatch):
    Ps = pair_ill[0]
    d = series_to_dict(Ps)
    # the format has no place for an even-degree entry or one above the
    # order: the writer refuses a table that holds one, -0.0 included
    for n, m, value in ((1, 1, 1e-12), (2, 0, -0.0), (Ps.order, 1, 1.0)):
        C = Ps.coeffs.copy()
        C[2, n, m] = value
        with pytest.raises(ValueError, match="off its odd-degree entries"):
            series_to_dict(replace(Ps, coeffs=C))
    # a branch read case-sensitively, an order off [1, MAX_ORDER], a bad
    # component: refused before a table is allocated (order 10**6 would
    # ask for 29 TiB)
    real_zeros = np.zeros

    def zeros(shape, *args, **kwargs):
        if np.prod(shape) > 4 * (MAX_ORDER + 1) ** 2:
            raise AssertionError(f"a {shape} table was allocated")
        return real_zeros(shape, *args, **kwargs)

    def unallocated(*args, **kwargs):
        raise AssertionError("a table was allocated")

    monkeypatch.setattr(np, "zeros", zeros)
    for field, value in (("branch", "Stable"), ("branch", None),
                         ("order", 0), ("order", -1), ("order", MAX_ORDER + 1),
                         ("order", 10**6)):
        with pytest.raises(ValueError, match=field):
            series_from_dict(dict(d, **{field: value}))
    monkeypatch.setattr(np, "zeros", unallocated)
    for coeffs in ({**d["coeffs"], "1,1,1": 1.0}, {"1": d["coeffs"]["1"]},
                   {**d["coeffs"], "4": d["coeffs"]["4"][:-4]}):
        with pytest.raises(ValueError, match="coeffs"):
            series_from_dict(dict(d, coeffs=coeffs))
    # a table of one order under the header of another (orders 2j - 1 and
    # 2j have the same odd-degree entries)
    for order in (Ps.order - 2, Ps.order + 1):
        with pytest.raises(ValueError, match=f"order-{order} series"):
            series_from_dict(dict(d, order=order))


def test_pair_uses_shared_gauge(pair_ill):
    Ps, Pu = pair_ill
    l1, l2 = Ps.rates
    assert Pu.scale[0] == pytest.approx(Ps.scale[0] * l1**3, rel=1e-14)
    assert Pu.scale[1] == pytest.approx(Ps.scale[1] * l2**3, rel=1e-14)
    assert Pu.rates[0] == pytest.approx(1.0 / l1, rel=1e-14)
    assert Pu.rates[1] == pytest.approx(1.0 / l2, rel=1e-14)
