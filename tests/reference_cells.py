"""The seven 82-cell checks, one function each, also called by Tier-1 tests.

    PYTHONPATH=src:tests python -W error::RuntimeWarning tests/reference_cells.py

builds each cell's unit tables, gauges and pairs once, runs every check,
prints each check's summary and seconds, and exits 1 naming every failure.
With the package installed, no PYTHONPATH is needed."""

import sys
import time
from collections import defaultdict
from traceback import format_exc

import numpy as np

from dnls_nnn.homoclinic import _census_seeds, symmetric_search
from dnls_nnn.manifold import (DEFAULT_ORDER, GAUGE_RESIDUAL, _default_gauge,
                               compute_manifold_pair, conjugacy_residual,
                               tail_bound)
from dnls_nnn.maps import ModelParams, nonwandering_bound

from reference import (EXTENDED, REFERENCE_CELLS, all_cell_search,
                       bisection_gauge, census_seeds_full, convolve_all_coeffs)

ORDERS = (DEFAULT_ORDER, 80)


def census_equals_full_grid(Ps, bound):  # int64 views tell -0.0 from 0.0
    seeds, full = _census_seeds(Ps, bound), census_seeds_full(Ps, bound)
    assert seeds.shape == full.shape, (seeds.shape, full.shape)
    assert np.array_equal(seeds.view(np.int64), full.view(np.int64))
    return len(seeds)


def all_cell_count(Ps, sols):  # sols = symmetric_search(Ps)
    want = len(all_cell_search(Ps))
    assert len(sols) == want, (len(sols), want)
    return want


def tail_licenses_the_order(Ps):
    tail = tail_bound(Ps)
    assert tail <= 1e-3 * GAUGE_RESIDUAL, tail
    return tail


def gauge_is_order_independent(Ps, ref):  # ref: the cell at order 80
    assert Ps.scale == ref.scale, (Ps.scale, ref.scale)


def default_order_agrees(Ps, sols, ref):
    # sols = symmetric_search(Ps), bit for bit as on ref (order 80)
    gauge_is_order_independent(Ps, ref)
    want = symmetric_search(ref)
    assert len(sols) == len(want), (len(sols), len(want))
    x = np.array([[s.u2, s.v2, *s.point, s.residual, s.det]
                  for s in sols + want]).view(np.int64)
    assert np.array_equal(x[:len(sols)], x[len(sols):])
    return tail_licenses_the_order(Ps)


def recursion_errors(unit):
    # packed and per-pair tables against the per-pair one in long double
    assert EXTENDED, "long double is no wider than float64"
    args = (unit.params, *unit.rates, unit.order)
    ref = convolve_all_coeffs(*args, dtype=np.longdouble)
    big = np.abs(ref) > 1e-250  # tables reach subnormals at high degree
    errs = np.array([np.max(np.abs(C[big] - ref[big]) / np.abs(ref[big]))
                     for C in (unit.coeffs, convolve_all_coeffs(*args))])
    assert max(errs) <= unit.order * 2.0**-52, errs
    return errs


def conjugacy_on_the_box(Ps, Pu):
    # P_u is held to the conjugacy through its stable image, P_s bit for bit
    res = conjugacy_residual(Ps)
    assert res < 1e-9, (Ps.scale, res)
    assert conjugacy_residual(Pu) == res, (conjugacy_residual(Pu), res)
    return res


def gauge_equals_bisection(unit, gauge):
    want = bisection_gauge(unit, GAUGE_RESIDUAL)
    assert gauge == want, (gauge, want)
    return gauge


def seed_independence(Ps, sols):
    # a seed added inside or outside the box, or the seeds reversed
    worst = 0.0
    for edit in (lambda X: np.vstack([X, [[0.9, 0.9]]]),
                 lambda X: np.vstack([X, [[1.2, -1.2]]]),
                 lambda X: X[::-1]):
        got = all_cell_search(Ps, seeds=lambda P, b: edit(_census_seeds(P, b)))
        assert len(got) == len(sols), (len(got), len(sols))
        for a, b in zip(got, sols):
            worst = max(worst, float(np.max(np.abs(a.point - b.point))))
            assert worst <= 1e-10, worst
    return worst


SUMMARY = {  # each check's line, from the n values it returned, as printed
    "census": "{n} screened censuses equal the full grid's",
    "all-cell": "{sum} solutions on {n} cells, as seeding all flagged cells",
    "default order": "tail at most {max:.3e}; gauges, solutions as at 80",
    "recursion": "worst relative error against long double: packed "
                 "{max[0]:.3e}, per-pair {max[1]:.3e}",
    "conjugacy": "worst 41^2 residual {max:.3e}",
    "gauge": "{n} gauges equal the bisection's",
    "seeds": "worst point shift {max:.2e}",
}


def main(cells=REFERENCE_CELLS):
    """Run every check on every cell; 1 if any failed, else 0."""
    seconds, found, failed = defaultdict(float), defaultdict(list), []

    def run(step, where, check, *args):
        t0 = time.perf_counter()
        try:
            found[step].append(check(*args))
        except Exception:  # a RuntimeWarning raised as one too
            failed.append(f"FAILED {step} at {where}: {format_exc(-1)}")
        seconds[step] += time.perf_counter() - t0

    for e, A in cells:
        p, t0 = ModelParams(float(e), float(A)), time.perf_counter()
        unit = {n: compute_manifold_pair(p, order=n, scale=(1.0, 1.0))[0]
                for n in ORDERS}
        gauge = {n: _default_gauge(unit[n], GAUGE_RESIDUAL) for n in ORDERS}
        pair = {n: compute_manifold_pair(p, order=n, scale=gauge[n])
                for n in ORDERS}
        (Ps, _), (ref, _) = pair.values()
        sols = symmetric_search(Ps)
        seconds["builds"] += time.perf_counter() - t0
        bound = 2.0 * nonwandering_bound(p, dim=4)
        for n in ORDERS:
            where = f"eps={e!r} A={A!r} order {n}"
            run("census", where, census_equals_full_grid, pair[n][0], bound)
            run("recursion", where, recursion_errors, unit[n])
            run("conjugacy", where, conjugacy_on_the_box, *pair[n])
            run("gauge", where, gauge_equals_bisection, unit[n], gauge[n])
        where = f"eps={e!r} A={A!r}"
        run("all-cell", where, all_cell_count, Ps, sols)
        run("default order", where, default_order_agrees, Ps, sols, ref)
        run("seeds", where, seed_independence, Ps, sols)

    print(f"{len(cells)} cells at orders {ORDERS}: shared builds "
          f"{seconds['builds']:.1f} s")
    for step, summary in SUMMARY.items():
        r = found[step]
        print(f"{step:>13} {seconds[step]:5.1f} s  " + (summary.format(
            n=len(r), sum=np.sum(r), max=np.max(r, axis=0)) if r else "-"))
    print(f"total {sum(seconds.values()):.1f} s")
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
