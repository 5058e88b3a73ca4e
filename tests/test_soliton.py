import tracemalloc

import numpy as np
import pytest
from dataclasses import replace

from dnls_nnn import soliton
from dnls_nnn.homoclinic import HomoclinicSolution, symmetric_search
from dnls_nnn.manifold import compute_manifold_pair
from dnls_nnn.maps import ModelParams
from dnls_nnn.soliton import (
    FLOOR,
    ProfileError,
    _residual_of_values,
    build_profile,
    mirror_defect,
    portrait_2d,
)

from reference import map2_apply, reference_portrait, two_tail_profile

PEAK_REF = 1.327385e-2  # largest site amplitude at eps=4e-4, A=-1/8
LAMBDA2 = 0.47339771836588446  # slow stable rate at A=-1/8


@pytest.fixture(scope="module")
def profile(pair_ill, sols_ill):
    Ps, _ = pair_ill
    return build_profile(sols_ill[0], Ps)


def test_profile_window_and_peak(profile):
    n = profile.indices
    assert np.array_equal(n, np.arange(n[0], n[-1] + 1))
    assert len(n) == len(profile.values) > 20
    assert np.max(np.abs(profile.values)) == pytest.approx(PEAK_REF, rel=1e-6)
    # ends decay to the floor, and are not padded past it
    assert 0 < abs(profile.values[0]) < 1e3 * FLOOR
    assert 0 < abs(profile.values[-1]) < 1e3 * FLOOR


def test_profile_solves_lattice_equation(profile):
    assert profile.residual_max <= 1e-9
    assert _residual_of_values(profile.values, profile.params) \
        == profile.residual_max


def test_profile_mirror_symmetry(profile):
    # true by construction (the left tail is the right one mirrored); the
    # two_tail_profile oracle below is the check that can fail
    assert mirror_defect(profile) <= 1e-10
    i0 = int(np.nonzero(profile.indices == 0)[0][0])
    i1 = int(np.nonzero(profile.indices == 1)[0][0])
    assert profile.values[i0] == pytest.approx(profile.values[i1], rel=1e-10)


def test_mirrored_tail_matches_the_unstable_series(pair_ill, sols_ill):
    # the left tail mirrors the right one instead of evaluating P_u, which
    # reads the same values bit for bit since P_u = sigma5 o P_s
    pair2 = compute_manifold_pair(ModelParams(0.01, -0.13), order=80)
    for (Ps, Pu), sols in ((pair_ill, sols_ill),
                           (pair2, symmetric_search(pair2[0]))):
        assert sols
        for sol in sols:
            prof = build_profile(sol, Ps)
            ref = two_tail_profile(sol, Pu, Ps)
            assert np.array_equal(prof.indices, ref.indices)
            assert np.array_equal(prof.values, ref.values)
            assert prof.tail_decay == ref.tail_decay
            assert mirror_defect(prof) == 0.0


def test_tails_decay_at_slow_stable_rate(profile):
    left, right = profile.tail_decay
    assert left == pytest.approx(LAMBDA2, rel=0.05)
    assert right == pytest.approx(LAMBDA2, rel=0.05)


def test_residual_detects_perturbation(profile):
    bumped = profile.values.copy()
    bumped[len(bumped) // 2] += 1e-6
    poked = replace(profile, values=bumped)
    r = _residual_of_values(poked.values, poked.params)
    assert r > 1e-12
    assert r > 1e3 * (profile.residual_max + 1e-30)


def test_step_budget_enforced(monkeypatch, pair_ill, sols_ill):
    Ps, _ = pair_ill
    monkeypatch.setattr(soliton, "TAIL_STEPS", 5)
    with pytest.raises(ProfileError, match="after 5 steps"):
        build_profile(sols_ill[0], Ps)


def test_mirror_solution_gives_negated_profile(pair_ill, sols_ill):
    Ps, _ = pair_ill
    a = build_profile(sols_ill[0], Ps)
    b = build_profile(sols_ill[1], Ps)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.values, -b.values)
    assert a.residual_max == b.residual_max


def test_trivial_point_gives_empty_profile(pair_ill, p_ill):
    Ps, _ = pair_ill
    zero = HomoclinicSolution(u1=0.0, v1=0.0, u2=0.0, v2=0.0,
                              point=np.zeros(4), residual=0.0,
                              params=p_ill, series_order=Ps.order)
    prof = build_profile(zero, Ps)
    assert np.array_equal(prof.indices, np.arange(-1, 3))
    assert np.all(prof.values == 0.0)
    assert prof.residual_max == 0.0
    assert all(np.isnan(d) for d in prof.tail_decay)


def test_portrait_defocusing_escape():
    p = ModelParams(-0.1, -0.125)
    seeds = [[0.05, 0.03], [0.0, 0.0], [-0.02, 0.07]]
    orbits = portrait_2d([p], seeds, steps=3000)
    assert not orbits[1].escaped
    assert orbits[1].points.shape == (3001, 2)
    assert np.all(orbits[1].points == 0.0)
    for orb in (orbits[0], orbits[2]):
        assert orb.escaped
        assert orb.points.shape[0] < 3001
        assert np.all(np.isfinite(orb.points))


def test_portrait_focusing_confinement():
    p = ModelParams(0.1, -0.125)
    seeds = [[0.05, 0.05], [0.07, -0.03], [-0.06, 0.0]]
    orbits = portrait_2d([p], seeds, steps=2000)
    for orb in orbits:
        assert not orb.escaped
        assert orb.points.shape == (2001, 2)
        assert np.max(np.abs(orb.points)) < 1.0


def test_portrait_orbit_follows_the_map():
    p = ModelParams(0.1, -0.125)
    orb = portrait_2d([p], [[0.05, 0.05]], steps=50)[0]
    assert np.array_equal(orb.points[1:], map2_apply(orb.points[:-1], p))
    assert np.array_equal(orb.seed, np.array([0.05, 0.05]))


def test_portrait_seed_validation():
    p = ModelParams(0.1, -0.125)
    orbits = portrait_2d([p], [0.01, 0.02], steps=10)  # single bare seed
    assert len(orbits) == 1 and orbits[0].points.shape == (11, 2)
    with pytest.raises(ValueError):
        portrait_2d([p], [[0.1, 0.2, 0.3]], steps=10)
    # the seeds are validated once, not at every map2_apply step
    for bad in ([[0.01, np.nan]], [[np.inf, 0.0]], [[0.01 + 1e-3j, 0.02]]):
        with pytest.raises(ValueError):
            portrait_2d([p], bad, steps=10)
    with pytest.raises(ValueError):
        portrait_2d([p], [[0.01, 0.02]], steps=-1)
    (orb,) = portrait_2d([p], [[0.01, 0.02]], steps=0)
    assert np.array_equal(orb.points, [[0.01, 0.02]]) and not orb.escaped


def _grid(half, n):
    g = np.linspace(-half, half, n)
    return np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)


@pytest.mark.parametrize("eps, seeds", [
    (-0.1, _grid(0.1, 11)),
    (0.1, _grid(0.1, 11)),
    # escapes at many different steps, some through a non-finite point
    (-0.3, _grid(0.4, 17)),
    (0.05, _grid(0.4, 17)),
    (1.7, _grid(0.4, 17)),
    # every seed escapes within the first block
    (-0.1, _grid(0.1, 4)),
    # escapes at step 1, through a finite point and through a dropped
    # non-finite one (y^3 overflows)
    (0.1, [[1e200, 0.0], [0.0, 1e100], [0.0, 1e103], [0.0, 1e200]]),
])
def test_portrait_matches_masked_reference(eps, seeds):
    p = ModelParams(eps, 0.0)
    fast = portrait_2d([p], seeds, steps=10000)
    ref = reference_portrait(p, seeds, steps=10000)
    assert len(fast) == len(ref) == len(seeds)
    for f, r in zip(fast, ref):
        assert f.escaped == r.escaped
        assert f.points.shape == r.points.shape
        assert np.array_equal(f.points, r.points)  # bit for bit
        assert np.array_equal(f.seed, r.seed)


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_portrait_escapes_across_block_edges(monkeypatch, block):
    # short blocks put block edges on the escape steps (2 to 21 here), and
    # short runs put escapes on the last step
    monkeypatch.setattr(soliton, "BLOCK", block)
    p = ModelParams(-0.3, 0.0)
    seeds = _grid(0.4, 17)
    for steps in (2, 3, 5, 40):
        for f, r in zip(portrait_2d([p], seeds, steps=steps),
                        reference_portrait(p, seeds, steps=steps)):
            assert f.escaped == r.escaped
            assert np.array_equal(f.points, r.points)


def _assert_strided(params, seeds, steps, strides=(1, 3, 10)):
    """portrait_2d against reference_portrait subsampled by the CLI's
    rule (every stride-th step and the last), bit for bit.  Returns the
    reference orbits."""
    ref = [o for p in params for o in reference_portrait(p, seeds, steps)]
    for stride in strides:
        fast = portrait_2d(params, seeds, steps=steps, stride=stride)
        assert len(fast) == len(ref) == len(params) * len(np.atleast_2d(seeds))
        for f, r in zip(fast, ref):
            last = len(r.points) - 1
            kept = sorted(set(range(0, last + 1, stride)) | {last})
            assert f.escaped == r.escaped
            assert f.steps.tolist() == kept
            assert f.points.shape == (len(kept), 2)
            assert f.points.tobytes() == r.points[kept].tobytes()
            assert np.array_equal(f.seed, r.seed)
    return ref


@pytest.mark.parametrize("eps, seeds", [
    ((-0.1, 0.1), _grid(0.1, 11)),
    # escapes at many different steps, some through a non-finite point
    ((-0.3, 0.05), _grid(0.4, 17)),
    # escapes at step 1, through a finite point and through a dropped
    # non-finite one (y^3 overflows)
    ((0.1, -0.1), [[1e200, 0.0], [0.0, 1e100], [0.0, 1e103], [0.0, 1e200]]),
])
def test_portrait_strided_matches_subsampled_reference(eps, seeds):
    _assert_strided([ModelParams(e, 0.0) for e in eps], seeds, 10000)


def test_portrait_strided_when_every_column_escapes_in_the_first_block():
    params = [ModelParams(-0.1, 0.0), ModelParams(-0.3, 0.0)]
    ref = _assert_strided(params, _grid(0.1, 4), 10000)
    assert all(r.escaped and len(r.points) <= soliton.BLOCK for r in ref)


def test_portrait_strided_with_no_steps():
    params = [ModelParams(-0.1, 0.0), ModelParams(0.1, 0.0)]
    ref = _assert_strided(params, _grid(0.1, 3), 0)
    assert all(len(r.points) == 1 and not r.escaped for r in ref)


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_portrait_strided_escapes_across_block_edges(monkeypatch, block):
    monkeypatch.setattr(soliton, "BLOCK", block)
    params = [ModelParams(-0.3, 0.0), ModelParams(0.05, 0.0)]
    on_last = 0
    for steps in (2, 3, 5, 40):
        ref = _assert_strided(params, _grid(0.4, 17), steps)
        on_last += sum(r.escaped and len(r.points) - 1 == steps for r in ref)
    assert on_last > 0  # some escapes fall on the last step


def test_portrait_stride_must_be_positive():
    with pytest.raises(ValueError, match="stride"):
        portrait_2d([ModelParams(0.1, 0.0)], [[0.01, 0.02]], stride=0)


def test_portrait_allocates_only_the_stored_points():
    # the benchmark's inputs; one full (steps + 2, seeds) table per eps
    # peaked at 27.9 MB
    params = [ModelParams(-0.1, 0.0), ModelParams(0.1, 0.0)]
    tracemalloc.start()
    try:
        orbits = portrait_2d(params, _grid(0.1, 11), steps=10000, stride=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(orbits) == 242
    assert peak < 8e6, peak
