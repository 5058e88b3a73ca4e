"""Correctness gate, run on a workload's output directory after timing.

Each checker returns one ``(operation, problem)`` pair per operation, where
an operation is one CLI call or, for ``scan``, one grid cell, and
``problem`` is None when every check of that operation passed.  The
tolerances are those of the acceptance suite.
"""

import json

import numpy as np

# image of the symmetric intersection at the illustrative cell, frozen from a
# converged run; it must hold up to sign whatever gauge the series uses
POINT_ILL = np.array([9.23324715725e-3, 1.32738452775e-2,
                      1.32738452775e-2, 9.23324715725e-3])
POINT_TOL = 1e-8
MATCH_TOL = 1e-10
CONJUGACY_TOL = 1e-9
PROFILE_TOL = 1e-9
MIRROR_TOL = 1e-10
SYMMETRY_PROBES = 64

# escaped seeds out of 121 for portrait --epsilon -0.1,0.1, recorded at the
# commit that introduced this benchmark
PORTRAIT_ESCAPES = {-0.1: 120, 0.1: 2}


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _guard(fn):
    """Run one operation's checks; a missing or malformed file fails it."""
    try:
        return fn()
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _eigen(out):
    origin = _load(out / "eigen.json")["origin"]
    if origin["classification"] != "all-real" or not origin["hyperbolic"]:
        return f"origin spectrum {origin['classification']}"
    return None


def _manifold(out, seed):
    from dnls_nnn.manifold import evaluate_series, series_from_dict

    for branch in ("stable", "unstable"):
        res = _load(out / f"manifold_{branch}.json")["conjugacy_residual"]
        if not res <= CONJUGACY_TOL:
            return f"{branch} conjugacy residual {res:.3e}"
    # the written series must be exactly odd: P(-u, -v) == -P(u, v)
    Ps = series_from_dict(_load(out / "manifold_stable.json")["series"])
    u, v = np.random.default_rng(seed).uniform(-1.0, 1.0,
                                               size=(2, SYMMETRY_PROBES))
    if not np.array_equal(evaluate_series(Ps, -u, -v),
                          -evaluate_series(Ps, u, v)):
        return "stable series is not exactly odd"
    return None


def _homoclinic(out):
    best = _load(out / "homoclinic.json")["solutions"][0]
    point = np.asarray(best["point"], dtype=float)
    err = min(np.max(np.abs(point - POINT_ILL)),
              np.max(np.abs(point + POINT_ILL)))
    if not err <= POINT_TOL:
        return f"point off the reference by {err:.3e}"
    if not best["residual"] <= MATCH_TOL:
        return f"matching residual {best['residual']:.3e}"
    return None


def _soliton(out):
    prof = _load(out / "soliton.json")
    if not prof["residual_max"] <= PROFILE_TOL:
        return f"profile residual {prof['residual_max']:.3e}"
    if not prof["mirror_defect"] <= MIRROR_TOL:
        return f"mirror defect {prof['mirror_defect']:.3e}"
    return None


def check_cell(out, codes, seed):
    checkers = {
        "eigen": lambda: _eigen(out),
        "manifold": lambda: _manifold(out, seed),
        "homoclinic": lambda: _homoclinic(out),
        "soliton": lambda: _soliton(out),
    }
    results = []
    for (name, fn), code in zip(checkers.items(), codes):
        problem = f"exit code {code}" if code != 0 else _guard(fn)
        results.append((name, problem))
    return results


def check_scan(out, codes, seed, *, epsilon, A):
    def cell_problem(eps, a):
        cells = _load(out / "scan.json")["cells"]
        c = next((c for c in cells if (c["epsilon"], c["A"]) == (eps, a)),
                 None)
        if c is None:
            return "missing"
        if c["error"] is not None:
            return f"error {c['error']}"
        if eps > 0 and not (c["found"] and c["best_residual"] < MATCH_TOL):
            return f"found={c['found']} residual={c['best_residual']}"
        if eps < 0 and c["found"]:
            return "spurious intersection"
        return None

    return [(f"cell eps={eps} A={a}",
             f"scan exit code {codes}" if codes != [0]
             else _guard(lambda: cell_problem(eps, a)))
            for eps in epsilon for a in A]


def _portrait(out):
    got = {s["epsilon"]: s["escaped"]
           for s in _load(out / "portrait.json")["summary"]}
    if got != PORTRAIT_ESCAPES:
        return f"escape counts {got}, reference {PORTRAIT_ESCAPES}"
    return None


def check_portrait(out, codes, seed):
    problem = f"exit code {codes}" if codes != [0] else _guard(
        lambda: _portrait(out))
    return [("portrait", problem)]

