import numpy as np
import pytest

from dnls_nnn.maps import (
    ModelParams,
    as_state,
    map4_apply,
    nonwandering_bound,
)

from reference import (
    SYMMETRIES,
    apply_symmetry,
    conjugacy_check_2d,
    fixed_points,
    iterate_orbit,
    map2_apply,
    map2_inverse,
    map2_jacobian,
    map4_inverse,
    map4_jacobian,
)

P = ModelParams(0.0004, -0.125)
P2 = ModelParams(0.1, 0.0)


def random_states(n, dim, scale, seed):
    rng = np.random.default_rng(seed)
    return scale * rng.uniform(-1.0, 1.0, size=(n, dim))


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(0.0, -0.125)
    with pytest.raises(ValueError):
        ModelParams(np.nan, -0.125)
    with pytest.raises(ValueError):
        ModelParams(0.1, np.inf)
    with pytest.raises(ValueError):
        ModelParams(0.1, 0.0).require_A()


def test_as_state_rejects_bad_input():
    with pytest.raises(ValueError):
        as_state([1.0, 2.0, 3.0], 4)
    with pytest.raises(ValueError):
        as_state([1.0, np.nan], 2)
    with pytest.raises(ValueError):
        as_state(np.array([1 + 1j, 0.0]), 2)


def test_volume_preservation_both_maps():
    s4 = random_states(150, 4, 0.05, seed=1)
    dets = np.linalg.det(map4_jacobian(s4, P))
    assert np.max(np.abs(np.abs(dets) - 1.0)) < 1e-12
    s2 = random_states(150, 2, 0.3, seed=2)
    dets2 = np.linalg.det(map2_jacobian(s2, P2))
    assert np.max(np.abs(np.abs(dets2) - 1.0)) < 1e-12


def test_inverse_round_trips():
    s4 = random_states(150, 4, 0.05, seed=3)
    assert np.max(np.abs(map4_inverse(map4_apply(s4, P), P) - s4)) < 1e-13
    assert np.max(np.abs(map4_apply(map4_inverse(s4, P), P) - s4)) < 1e-13
    s2 = random_states(150, 2, 0.3, seed=4)
    assert np.max(np.abs(map2_inverse(map2_apply(s2, P2), P2) - s2)) < 1e-13
    assert np.max(np.abs(map2_apply(map2_inverse(s2, P2), P2) - s2)) < 1e-13


def test_jacobians_match_finite_differences():
    rng = np.random.default_rng(5)
    s4 = 0.03 * rng.uniform(-1, 1, size=4)
    J = map4_jacobian(s4, P)
    h = 1e-7
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        col = (map4_apply(s4 + e, P) - map4_apply(s4 - e, P)) / (2 * h)
        assert np.max(np.abs(col - J[:, j])) < 1e-6
    s2 = 0.2 * rng.uniform(-1, 1, size=2)
    J2 = map2_jacobian(s2, P2)
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        col = (map2_apply(s2 + e, P2) - map2_apply(s2 - e, P2)) / (2 * h)
        assert np.max(np.abs(col - J2[:, j])) < 1e-6


def test_symmetry_and_reversor_relations():
    tol = 1e-13
    s2 = random_states(120, 2, 0.3, seed=6)
    s4 = random_states(120, 4, 0.05, seed=7)
    for tag, sym in SYMMETRIES.items():
        if sym.dim == 2:
            s, fwd, inv, pp = s2, map2_apply, map2_inverse, P2
        else:
            s, fwd, inv, pp = s4, map4_apply, map4_inverse, P
        lhs = fwd(apply_symmetry(sym, s), pp)
        if sym.kind == "symmetry":
            rhs = apply_symmetry(sym, fwd(s, pp))
        else:
            rhs = apply_symmetry(sym, inv(s, pp))
        assert np.max(np.abs(lhs - rhs)) < tol, tag


def test_symmetries_are_involutions():
    s2 = random_states(10, 2, 0.5, seed=8)
    s4 = random_states(10, 4, 0.5, seed=9)
    for tag, sym in SYMMETRIES.items():
        s = s2 if sym.dim == 2 else s4
        assert np.array_equal(apply_symmetry(sym, apply_symmetry(sym, s)), s), tag


def test_apply_symmetry_by_tag_and_dim_check():
    s = np.arange(4.0)
    assert np.array_equal(apply_symmetry("sigma5", s), s[::-1])
    with pytest.raises(ValueError):
        apply_symmetry("sigma1", s)  # 2-d symmetry, 4-d state
    with pytest.raises(KeyError):
        apply_symmetry("sigma9", s)


def test_fixed_points_are_fixed():
    for p in (P, ModelParams(0.1, 0.125), ModelParams(-0.2, -0.125)):
        pts = fixed_points(p)
        expect = 3 if p.epsilon * p.A < 0.0 else 1
        assert len(pts) == expect
        for q in pts:
            assert np.max(np.abs(map4_apply(q, p) - q)) < 1e-12
    c = np.sqrt(-2.0 * P.epsilon * P.A)
    assert any(np.allclose(q, np.full(4, c)) for q in fixed_points(P))


def test_nonwandering_bound_values():
    assert nonwandering_bound(P2, dim=2) == 2.0 * np.sqrt(0.1)
    b4 = nonwandering_bound(P, dim=4)
    assert np.isclose(b4, np.sqrt(abs(P.epsilon * P.A) * (2.0 + 4.0 / abs(P.A))),
                      rtol=0, atol=0)
    with pytest.raises(ValueError):
        nonwandering_bound(P, dim=3)


def test_nonwandering_bound_contains_bounded_orbits():
    # orbits that stay bounded for a long time settle inside the ball
    p = ModelParams(0.1, 0.0)
    bound = nonwandering_bound(p, dim=2)
    rng = np.random.default_rng(10)
    seeds = 0.05 * rng.uniform(-1, 1, size=(20, 2))
    for s in seeds:
        states, escaped = iterate_orbit(s, p, 3000)
        if not escaped:
            tail = states[500:]
            assert np.max(np.abs(tail)) <= bound


def test_iterate_orbit_directions_and_escape():
    # generic points are swept out exponentially (multiplier ~5 per step),
    # so keep the round trip short
    s = np.array([5e-4, 6e-4, 6e-4, 5e-4])
    fw, esc = iterate_orbit(s, P, 3)
    assert fw.shape == (4, 4) and not esc
    back, esc_b = iterate_orbit(fw[-1], P, 3, direction="backward")
    assert not esc_b
    assert np.max(np.abs(back[-1] - s)) < 1e-10
    origin, esc_o = iterate_orbit(np.zeros(4), P, 50)
    assert origin.shape == (51, 4) and not esc_o
    assert np.array_equal(origin[-1], np.zeros(4))
    # far-out seed blows up and is cut short
    far = np.array([5.0, 5.0, 5.0, 5.0])
    states, escaped = iterate_orbit(far, P, 100)
    assert escaped and states.shape[0] < 101
    assert np.all(np.isfinite(states))
    with pytest.raises(ValueError):
        iterate_orbit(s, P, 5, direction="sideways")


def test_two_dim_reduction_conjugacy():
    # the shear-conjugated form reproduces the 2-d map exactly
    pts = random_states(200, 2, 0.4, seed=11)
    res = conjugacy_check_2d(pts, P2)
    assert np.max(res) < 1e-13


def test_batched_equals_loop():
    s4 = random_states(7, 4, 0.05, seed=12)
    batch = map4_apply(s4, P)
    rows = np.stack([map4_apply(s4[i], P) for i in range(7)])
    assert np.array_equal(batch, rows)
    J = map4_jacobian(s4, P)
    Jrows = np.stack([map4_jacobian(s4[i], P) for i in range(7)])
    assert np.array_equal(J, Jrows)
