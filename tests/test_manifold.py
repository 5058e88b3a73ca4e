import json
import warnings

import numpy as np
import pytest

from dnls_nnn import manifold
from dnls_nnn.manifold import (
    GAUGE_RESIDUAL,
    OVERFLOW_LIMIT,
    GaugeError,
    ResonanceError,
    SeriesOverflowError,
    _build_coeffs,
    _default_gauge,
    compute_manifold_pair,
    conjugacy_residual,
    evaluate_series,
    load_series,
    pointwise_conjugacy_residual,
    rescale_series,
    save_series,
    series_from_dict,
    series_jacobian,
    series_to_dict,
)
from dnls_nnn.maps import ModelParams, apply_symmetry, map4_apply, map4_inverse
from dnls_nnn.spectral import (
    NonHyperbolicError,
    characteristic_poly,
    solve_reciprocal_quartic,
)

from reference import cubic_convolution, sequential_gauge, solve_order_block

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
    assert conjugacy_residual(Ps) < 1e-9
    assert conjugacy_residual(Pu) < 1e-9
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


def test_resonance_guard_raises_on_true_resonance():
    # inject rates whose product hits an eigenvalue at an odd block with a
    # nonzero numerator: L1^2 L2 = L1 when L2 = 1/L1
    es = eig(P)
    l1, _ = es.stable_pair()
    with pytest.raises(ResonanceError) as err:
        _build_coeffs(P, l1, 1.0 / l1, 10)
    assert err.value.order is not None


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


def test_gauge_policy_failure_is_reported(monkeypatch):
    monkeypatch.setattr(manifold, "GAUGE_RESIDUAL", 1e-30)
    with pytest.raises(GaugeError):
        compute_manifold_pair(P, order=20)


@pytest.mark.parametrize("eps, A", [(4e-4, -0.125), (1.0, -0.145),
                                    (-0.5, -0.145), (1.0, -0.13)])
def test_lockstep_gauge_matches_sequential_bisection(eps, A):
    # lockstep rungs change how probes are batched, never their bits; at
    # (1.0, -0.13) the chosen rung outlives others, so its v-stage has moved
    unit, _ = compute_manifold_pair(ModelParams(eps, A), scale=(1.0, 1.0))
    gauge = _default_gauge(unit, GAUGE_RESIDUAL)
    assert gauge == sequential_gauge(unit, GAUGE_RESIDUAL)
    assert compute_manifold_pair(ModelParams(eps, A))[0].scale == gauge


def test_serialization_round_trip(tmp_path, pair_ill):
    Ps, _ = pair_ill
    d = series_to_dict(Ps)
    # zeros are skipped: every stored key has odd total degree
    for key in d["coeffs"]:
        _, n, m = (int(t) for t in key.split(","))
        assert (n + m) % 2 == 1, key
    back = series_from_dict(d)
    assert np.array_equal(back.coeffs, Ps.coeffs)
    assert back.rates == Ps.rates and back.scale == Ps.scale
    assert back.params == Ps.params and back.branch == Ps.branch
    path = tmp_path / "series.json"
    save_series(Ps, path)
    loaded = load_series(path)
    assert np.array_equal(loaded.coeffs, Ps.coeffs)
    # the payload is valid JSON with float-exact reprs
    with open(path) as fh:
        raw = json.load(fh)
    assert raw["order"] == Ps.order


def test_pair_uses_shared_gauge(pair_ill):
    Ps, Pu = pair_ill
    l1, l2 = Ps.rates
    assert Pu.scale[0] == pytest.approx(Ps.scale[0] * l1**3, rel=1e-14)
    assert Pu.scale[1] == pytest.approx(Ps.scale[1] * l2**3, rel=1e-14)
    assert Pu.rates[0] == pytest.approx(1.0 / l1, rel=1e-14)
    assert Pu.rates[1] == pytest.approx(1.0 / l2, rel=1e-14)
