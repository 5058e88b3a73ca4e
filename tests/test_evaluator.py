"""The series evaluator: the Horner grid oracle (tests/reference.py) against
a long-double oracle, agreement of the grid and scattered entries, and the
exact parity of both."""

import numpy as np
import pytest

from dnls_nnn.manifold import (
    _contract,
    compute_manifold_pair,
    evaluate_series,
    series_jacobian,
)
from dnls_nnn.maps import ModelParams

from reference import EXTENDED, evaluate_grid, horner_longdouble

# large-amplitude cell whose 1e-10 gauge target sits at the float64 rounding
# floor, and the extents (unit coordinates) of the gauge box chosen there by
# the total-degree-descending evaluator the package used before the grid path
FLOOR_CELL = ModelParams(1.0, -0.145)
FLOOR_EXTENTS = (92.34, 42.98)

# max abs error of that total-degree-descending evaluator on the 17x33 probe
# grid at FLOOR_EXTENTS, against horner_longdouble (x86-64, 80-bit
# long double): 6.38e-11, for max|P| = 3.5e5.  The grid path must not do
# worse: the gauge choice at this cell depends on it.
SEED_FLOOR_ERROR = 6.4e-11


@pytest.fixture(scope="module")
def floor_unit():
    return compute_manifold_pair(FLOOR_CELL, scale=(1.0, 1.0))[0]


def floor_probe_grid():
    return (np.linspace(-1.0, 1.0, 17) * FLOOR_EXTENTS[0],
            np.linspace(-1.0, 1.0, 33) * FLOOR_EXTENTS[1])


@pytest.mark.skipif(not EXTENDED, reason="long double is no wider than float64")
def test_grid_error_at_the_rounding_floor(floor_unit):
    gu, gv = floor_probe_grid()
    ref = horner_longdouble(floor_unit.coeffs, gu, gv)
    err = np.max(np.abs(evaluate_grid(floor_unit, gu, gv) - ref))
    assert float(err) <= SEED_FLOOR_ERROR


def test_grid_matches_scattered(pair_ill, floor_unit):
    cases = [(ms, np.linspace(-1.0, 1.0, 101), np.linspace(-1.0, 1.0, 57))
             for ms in pair_ill]
    cases.append((floor_unit,) + floor_probe_grid())
    for ms, gu, gv in cases:
        uu, vv = np.meshgrid(gu, gv, indexing="ij")
        grid = evaluate_grid(ms, gu, gv)
        assert grid.shape == (gu.size, gv.size, 4)
        scattered = evaluate_series(ms, uu, vv)
        assert np.max(np.abs(grid - scattered)) <= 1e-15 * np.max(np.abs(grid))


def test_grid_path_is_exactly_odd(pair_ill):
    Ps, _ = pair_ill
    rng = np.random.default_rng(41)
    gu, gv = rng.uniform(-1, 1, 23), rng.uniform(-1, 1, 31)
    assert np.array_equal(evaluate_grid(Ps, -gu, -gv),
                          -evaluate_grid(Ps, gu, gv))


def test_jacobian_is_exactly_even(pair_ill):
    rng = np.random.default_rng(42)
    u, v = rng.uniform(-1, 1, size=(2, 30))
    for ms in pair_ill:
        assert np.array_equal(series_jacobian(ms, -u, -v),
                              series_jacobian(ms, u, v))


def test_one_contraction_gives_the_value_and_the_jacobian(pair_ill):
    # Newton reads P and dP/d(u, v) from one call: bit for bit the values
    # the certification reads from evaluate_series and series_jacobian
    Ps, _ = pair_ill
    rng = np.random.default_rng(43)
    for n in (1, 2, 30):
        u, v = rng.uniform(-1, 1, size=(2, n))
        P, J = _contract(Ps.coeffs, u, v, jac=True)
        assert np.array_equal(P.T, evaluate_series(Ps, u, v))
        assert np.array_equal(np.moveaxis(J, -1, 0),
                              series_jacobian(Ps, u, v))
