import csv
import io
import json
import math
import warnings
from hashlib import sha256

import numpy as np
import pytest

from dnls_nnn import __version__, cli, manifold, soliton
from dnls_nnn.cli import _build_parser, _parse, _write_json, main
from dnls_nnn.homoclinic import MatchFailure
from dnls_nnn.manifold import (
    MAX_ORDER,
    ResonanceError,
    SeriesOverflowError,
    conjugacy_residual,
    tail_bound,
)
from dnls_nnn.maps import ModelParams
from dnls_nnn.soliton import ProfileError, portrait_2d
from dnls_nnn.spectral import (NonHyperbolicError, origin_stable_pair,
                                spectrum)

from conftest import POINT_ILL
from reference import manifold_file_text, reference_portrait


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


PORTRAIT_ROW = [("seed_index", "<i8"), ("step", "<i8"), ("x", "<f8"),
                ("y", "<f8")]


def read_portrait(path):
    table = np.load(path, allow_pickle=False)
    assert table.dtype == np.dtype(PORTRAIT_ROW) and table.ndim == 1
    return table


def portrait_csv_text(table):
    """The CSV text the portrait tables replace: excel dialect, floats as
    repr."""
    return "seed_index,step,x,y\r\n" + "".join(
        f"{i},{k},{x!r},{y!r}\r\n" for i, k, x, y in table.tolist())


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "dnls-nnn" in capsys.readouterr().out


def test_eigen_writes_classification(tmp_path, capsys):
    rc = main(["eigen", "--epsilon", "0.0004", "--A", "-0.125",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "origin: all-real (hyperbolic)" in out
    doc = read_json(tmp_path / "eigen.json")
    assert doc["version"]
    assert doc["config"]["command"] == "eigen"
    assert doc["config"]["epsilon"] == [0.0004]
    assert doc["origin"]["classification"] == "all-real"
    assert doc["origin"]["hyperbolic"] is True
    sp = doc["origin"]["stable_pair"]
    assert sp[0] == pytest.approx(0.19147025641867277, rel=1e-12)
    assert sp[1] == pytest.approx(0.47339771836588446, rel=1e-12)
    assert doc["critical_A"] == pytest.approx(-0.14644660940672624, rel=1e-15)
    assert "classification" in doc["nontrivial"]
    # the nontrivial fixed points exist only where eps*A < 0
    assert main(["eigen", "--epsilon", "-0.1", "--A", "-0.125",
                 "--out", str(tmp_path)]) == 0
    assert read_json(tmp_path / "eigen.json")["nontrivial"] is None
    # each eigenvalue as {"re", "im"}: at A = -0.5 the origin's are complex
    assert main(["eigen", "--epsilon", "0.0004", "--A", "-0.5",
                 "--out", str(tmp_path)]) == 0
    es = spectrum(ModelParams(0.0004, -0.5))
    lams = (es.lambda1, es.lambda2, es.lambda3, es.lambda4)
    assert all(l.imag != 0.0 for l in lams)
    assert read_json(tmp_path / "eigen.json")["origin"]["eigenvalues"] == [
        {"re": l.real, "im": l.imag} for l in lams]


def test_eigen_output_is_deterministic(tmp_path):
    args = ["eigen", "--epsilon", "0.0004", "--A", "-0.125",
            "--out", str(tmp_path)]
    assert main(args) == 0
    first = (tmp_path / "eigen.json").read_bytes()
    assert main(args) == 0
    assert (tmp_path / "eigen.json").read_bytes() == first


def test_manifold_writes_series_pair(tmp_path, capsys):
    rc = main(["manifold", "--epsilon", "0.0004", "--A", "-0.125",
               "--order", "40", "--out", str(tmp_path)])
    assert rc == 0
    assert "box residual" in capsys.readouterr().out
    bounds, residuals = [], []
    for branch in ("stable", "unstable"):
        doc = read_json(tmp_path / f"manifold_{branch}.json")
        assert doc["conjugacy_residual"] <= 1e-9
        bounds.append(doc["tail_bound"])
        residuals.append(doc["conjugacy_residual"])
        assert doc["series"]["branch"] == branch
        assert doc["series"]["order"] == 40
        assert len(doc["series"]["rates"]) == 2
    assert bounds[0] == bounds[1] <= 1e-9
    assert residuals[0] == residuals[1]


def run_manifold_against_the_oracle(tmp_path, monkeypatch, flags):
    """Run manifold at (4e-4, -0.125) with flags; both files must be the
    json.dumps rendering of the whole series, the unstable one carrying
    the stable residual, from one conjugacy_residual call.  Returns P_s."""
    calls = []
    real = cli.conjugacy_residual
    monkeypatch.setattr(cli, "conjugacy_residual",
                        lambda ms: calls.append(ms.branch) or real(ms))
    argv = ["manifold", "--epsilon", "0.0004", "--A", "-0.125", *flags,
            "--out", str(tmp_path)]
    assert main(argv) == 0
    assert calls == ["stable"]
    args = _build_parser().parse_args(argv)
    Ps, Pu = cli._series_pair(args)
    res = conjugacy_residual(Ps)
    config = {"command": "manifold", "epsilon": args.epsilon, "A": args.A,
              "order": args.order, "box": args.box, "out": str(tmp_path)}
    for ms in (Ps, Pu):
        want = manifold_file_text(ms, config, res, tail_bound(ms))
        got = (tmp_path / f"manifold_{ms.branch}.json").read_bytes()
        assert got == want.encode(), ms.branch
    return Ps


@pytest.mark.parametrize("flags", [("--order", "1"), ("--order", "40"),
                                   ("--order", "80"),
                                   ("--box", "1e-300,1e-300")])
def test_manifold_files_equal_the_json_dumps_rendering(tmp_path, monkeypatch,
                                                       flags):
    run_manifold_against_the_oracle(tmp_path, monkeypatch, flags)


def test_manifold_tables_keep_each_components_keys(tmp_path, monkeypatch):
    # at order 150 the components hold different numbers of nonzero
    # coefficients, so a writer that reused one component's keys for
    # another would write a different table
    Ps = run_manifold_against_the_oracle(tmp_path, monkeypatch,
                                         ("--order", "150"))
    assert np.count_nonzero(Ps.coeffs, axis=(1, 2)).tolist() == \
        [4477, 3975, 3419, 2847]


def test_manifold_where_the_tail_quotient_passes_double_range(tmp_path):
    # the tail-constrained gauge search meets a tail bound near 9.5e305,
    # whose quotient by its limit 1e-13 passes double range: it reads as
    # beyond the limit, without a warning, and picks the gauge that the
    # exact log(B) - log(limit) picks
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["manifold", "--epsilon", "0.059942257783364664",
                   "--A", "-0.04214889597568067", "--out", str(tmp_path)])
    assert rc == 0
    doc = read_json(tmp_path / "manifold_stable.json")
    assert doc["series"]["scale"] == pytest.approx(
        [62.67675650582588, 0.28275787281802583], rel=1e-12)
    assert doc["conjugacy_residual"] <= 1e-9


def test_usage_errors_exit_2(tmp_path, capsys):
    # cells outside the domain: main returns 2
    cases = [
        ["manifold", "--epsilon", "0.0004", "--A", "0"],
        ["manifold", "--epsilon", "0.0004", "--A", "-0.2"],
        ["manifold", "--epsilon", "0.0004", "--A", "0.5"],
        # a sweep A outside the real-spectrum window is refused before any
        # cell is computed, not reported as a missing cell
        ["transversality", "--A", "-0.2,-0.13", "--out", str(tmp_path)],
        # the single-cell series commands share one preamble
        *([cmd, "--epsilon", eps, "--A", A, "--out", str(tmp_path)]
          for cmd in ("homoclinic", "soliton")
          for eps, A in (("0.0004", "-0.2"), ("0.0004", "0"))),
        # the discriminant leaves double range (A**5 overflows to -inf,
        # then underflows to zero)
        *(["eigen", "--epsilon", "0.0004", "--A", A, "--out", str(tmp_path)]
          for A in ("-1e-62", "-1e-70")),
        # inside the real window by classification, but 1/A squared
        # overflows in the spectrum solve
        ["homoclinic", "--epsilon", "0.0004", "--A", "-1e-200",
         "--out", str(tmp_path)],
    ]
    # bad settings besides test_a_bad_value_exits_2_naming_its_flag's and
    # test_a_refused_setting_exits_through_its_flag's, refused through
    # argparse; among them non-finite numbers: a NaN gauge would write
    # invalid JSON
    refused = [
        ["manifold", "--epsilon", "0.1,0.2", "--A", "-0.125"],
        ["manifold", "--epsilon", "0.0004", "--A", "-0.125",
         "--config", str(tmp_path / "missing.json")],
        ["scan", "--epsilon", "0.0004"],
        *([cmd, "--epsilon", "0.0004,0.01", "--A", "-0.125",
           "--out", str(tmp_path)] for cmd in ("homoclinic", "soliton")),
        ["manifold", "--epsilon", "0.0004", "--A", "-0.125",
         "--box", "not,numbers"],
        ["manifold", "--epsilon", "0.0004", "--A", "-0.125",
         "--box", "nan,1", "--out", str(tmp_path)],
        # the 2-d map has no A: argparse refuses the flag
        ["portrait", "--epsilon", "0.1", "--A", "-0.125"],
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for argv in cases:
            assert main(argv) == 2, argv
        for argv in refused:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
    err = capsys.readouterr().err
    assert "error:" in err
    assert "A=-1e-62" in err and "A=-1e-70" in err
    assert "A=-1e-200 puts the origin spectrum outside double range" in err
    assert not (tmp_path / "eigen.json").exists()
    assert not (tmp_path / "homoclinic.json").exists()


def test_seeds_is_resolved_for_portrait_only(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["eigen", "--epsilon", "0.0004", "--A", "-0.125",
              "--seeds", "1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []
    rc = main(["eigen", "--epsilon", "0.0004", "--A", "-0.125",
               "--out", str(tmp_path)])
    assert rc == 0
    assert "seeds" not in read_json(tmp_path / "eigen.json")["config"]
    assert main(["portrait", "--epsilon", "0.1", "--seeds", "2",
                 "--out", str(tmp_path)]) == 0
    assert read_json(tmp_path / "portrait.json")["config"]["seeds"] == 2


def test_domain_refusal_names_the_classification(tmp_path, capsys):
    refusals = (("0.0004", "-0.2", "two-pairs-complex"),
                ("0.0004", "0.5", "mixed"),
                ("0.0004", "0", "A must be nonzero"))
    for cmd in ("manifold", "homoclinic", "soliton"):
        for eps, A, words in refusals:
            assert main([cmd, "--epsilon", eps, "--A", A]) == 2, (cmd, eps, A)
            assert words in capsys.readouterr().err, (cmd, eps, A)
        # a grid is a usage error, refused by the flag before any cell runs
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--epsilon", "0.0004,0.01", "--A", "-0.125"])
        assert exc.value.code == 2
        assert ("argument --epsilon: takes a single value; use the scan "
                "command for grids") in capsys.readouterr().err, cmd
    assert main(["transversality", "--A", "-0.2,-0.13",
                 "--out", str(tmp_path)]) == 2
    assert "two-pairs-complex" in capsys.readouterr().err


def test_series_overflow_exits_3(tmp_path, capsys):
    rc = main(["manifold", "--epsilon", "0.0004", "--A", "-0.125",
               "--order", "30", "--box", "1e6,1e6", "--out", str(tmp_path)])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_order_one_warns(tmp_path, capsys):
    rc = main(["manifold", "--epsilon", "0.0004", "--A", "-0.125",
               "--order", "1", "--out", str(tmp_path)])
    assert rc == 0
    assert "order 1" in capsys.readouterr().err


def test_homoclinic_reports_the_pair(tmp_path, capsys):
    rc = main(["homoclinic", "--epsilon", "0.0004", "--A", "-0.125",
               "--out", str(tmp_path)])
    assert rc == 0
    assert "intersection(s)" in capsys.readouterr().out
    doc = read_json(tmp_path / "homoclinic.json")
    assert doc["found"] is True
    assert len(doc["solutions"]) == 2
    assert all(math.isfinite(s["det"]) and s["det"] != 0.0
               for s in doc["solutions"])
    best = doc["solutions"][0]
    assert best["residual"] <= 1e-10
    assert abs(best["det"]) > 1e-6
    pt = np.array(best["point"])
    assert min(np.max(np.abs(pt - POINT_ILL)),
               np.max(np.abs(pt + POINT_ILL))) <= 1e-8


def test_scan_records_good_and_bad_cells(tmp_path):
    rc = main(["scan", "--epsilon", "0.0004", "--A", "-0.125,0",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "scan.csv")
    assert rows[0] == ["epsilon", "A", "found", "best_residual", "det"]
    assert len(rows) == 3
    good = rows[1]
    assert good[:3] == ["0.0004", "-0.125", "True"]
    assert float(good[3]) <= 1e-10 and float(good[4]) != 0.0
    bad = rows[2]
    assert bad[:3] == ["0.0004", "0.0", "False"]
    assert bad[3] == "" and bad[4] == ""
    doc = read_json(tmp_path / "scan.json")
    assert doc["cells"][1]["error"].startswith("ValueError")
    assert doc["cells"][0]["solution"]["residual"] <= 1e-10


def test_transversality_sweep_and_fit(tmp_path, capsys):
    A_list = "-0.145,-0.1375,-0.13,-0.1225,-0.115"
    rc = main(["transversality", "--A", A_list, "--workers", "2",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "det range" in out
    rows = read_csv(tmp_path / "transversality.csv")
    assert rows[0] == ["A", "det"]
    assert len(rows) == 6
    dets = [float(r[1]) for r in rows[1:]]
    assert all(d != 0.0 for d in dets)
    assert len({d > 0 for d in dets}) == 1  # no sign change in the window
    doc = read_json(tmp_path / "transversality_fit.json")
    assert doc["config"]["epsilon"] == [2e-4]
    assert len(doc["det"]) == 5
    assert len(doc["fit_coefficients"]) == 5
    assert isinstance(doc["ill_conditioned"], bool)
    assert ("ill-conditioned" in out) == doc["ill_conditioned"]


def test_scans_refuse_box_and_ignore_its_config_entry(tmp_path, capsys):
    # every scan cell takes the automatic gauge: the scans have no --box,
    # so argparse refuses it before any cell runs
    for cmd in (["scan", "--epsilon", "0.0004", "--A", "-0.125"],
                ["transversality", "--A", "-0.13,-0.12"]):
        with pytest.raises(SystemExit) as exc:
            main(cmd + ["--box", "0.001,0.001",
                        "--out", str(tmp_path / "refused")])
        assert exc.value.code == 2, cmd
        assert "unrecognized arguments: --box 0.001,0.001" in \
            capsys.readouterr().err, cmd
    assert not (tmp_path / "refused").exists()
    # a shared file's box entry is ignored; at this box homoclinic finds
    # nothing, so the pair found shows the automatic gauge ran
    shared = tmp_path / "shared.json"
    shared.write_text(json.dumps({"box": "0.001,0.001"}))
    assert main(["scan", "--epsilon", "0.0004", "--A", "-0.125", "--config",
                 str(shared), "--out", str(tmp_path / "s")]) == 0
    doc = read_json(tmp_path / "s" / "scan.json")
    assert "box" not in doc["config"] and doc["cells"][0]["found"]
    assert main(["transversality", "--A", "-0.13,-0.12", "--config",
                 str(shared), "--out", str(tmp_path / "t")]) == 0
    doc = read_json(tmp_path / "t" / "transversality_fit.json")
    assert "box" not in doc["config"]
    assert main(["homoclinic", "--epsilon", "0.0004", "--A", "-0.125",
                 "--config", str(shared), "--out", str(tmp_path / "h")]) == 0
    assert not read_json(tmp_path / "h" / "homoclinic.json")["found"]


# the flags each subcommand takes besides --epsilon, --out and --config
FLAGS = {
    "eigen": ("A",),
    "manifold": ("A", "order", "box"),
    "homoclinic": ("A", "order", "box"),
    "scan": ("A", "order", "workers"),
    "transversality": ("A", "order", "workers"),
    "soliton": ("A", "order", "box"),
    "portrait": ("box", "seeds"),
}
# a valid value of each of the other flags, as text and as resolved, and
# of the retired --threshold, which no subcommand reads
VALUES = {"A": ("-0.13", (-0.13,)), "order": ("40", 40),
          "threshold": ("1e-9", 1e-9), "box": ("0.5", "0.5"),
          "seeds": ("5", 5), "workers": ("2", 2)}
REFUSED = [(cmd, flag) for cmd, flags in FLAGS.items() for flag in VALUES
           if flag not in flags]


@pytest.mark.parametrize("cmd, flag", REFUSED)
def test_a_flag_the_subcommand_does_not_read_exits_2(tmp_path, monkeypatch,
                                                     capsys, cmd, flag):
    monkeypatch.chdir(tmp_path)
    argv = [cmd, "--epsilon", "0.0004", f"--{flag}", VALUES[flag][0],
            "--out", "out"]
    if "A" in FLAGS[cmd]:
        argv += ["--A", "-0.125"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_one_config_file_serves_every_subcommand(tmp_path, capsys):
    # all nine keys: each subcommand takes the values of its own flags,
    # exactly as from its command line, and ignores the others.  --box is a
    # gauge pair for the series commands and a half-width for portrait, so
    # a file's box serves the subcommands of its meaning; the others refuse
    # it, naming the flag and the file
    assert len(REFUSED) == 24
    cfg_path = tmp_path / "all.json"
    out = str(tmp_path / "o")
    for box, readers in (("0.5", {"portrait"}),
                         ("0.5,0.25", {"manifold", "homoclinic", "soliton"})):
        values = {k: text for k, (text, _) in VALUES.items()} | {"box": box}
        cfg_path.write_text(json.dumps({
            "epsilon": "0.0004", **values,
            "out": out, "config": str(tmp_path / "other.json")}))
        for cmd, flags in FLAGS.items():
            if "box" in flags and cmd not in readers:
                with pytest.raises(SystemExit) as exc:
                    _parse(_build_parser(), [cmd, "--config", str(cfg_path)])
                assert exc.value.code == 2
                err = capsys.readouterr().err
                assert "argument --box: must be " in err, (cmd, box)
                assert f"(from config file {cfg_path})" in err, (cmd, box)
                continue
            argv = [cmd, "--epsilon", "0.0004", "--out", out]
            for flag in flags:
                argv += [f"--{flag}", values[flag]]
            want = vars(_parse(_build_parser(), argv))
            got = vars(_parse(_build_parser(),
                              [cmd, "--config", str(cfg_path)]))
            assert (got.pop("config"), want.pop("config")) == \
                (str(cfg_path), None)
            assert got == want, cmd
            for flag, (_, value) in VALUES.items():
                value = box if flag == "box" else value
                assert (got.get(flag) == value) == (flag in flags), \
                    (cmd, flag)
    assert list(tmp_path.iterdir()) == [cfg_path]


@pytest.mark.parametrize("A, text", [
    # 1/A squared overflows
    ("-1e-200", "A=-1e-200 puts the origin spectrum outside double range"),
    # an ulp below CRITICAL_A: the closed-form window decides
    ("-0.14644660940672624",
     "A=-0.14644660940672624 is outside [-0.1464466094067262, 0): the "
     "origin's spectrum is 'two-pairs-complex' there, and the manifold "
     "construction needs four real hyperbolic eigenvalues"),
    # A -> 0-: the solver puts the small pair on the unit circle
    ("-1e-30", "manifold construction needs four real hyperbolic "
     "eigenvalues; at A=-1e-30 the origin's spectrum is all-real "
     "(non-hyperbolic)"),
])
def test_manifold_domain_edges_are_one_decision(tmp_path, capsys, A, text):
    # the CLI refuses exactly the cells compute_manifold_pair refuses, in
    # spectral.origin_stable_pair's words: homoclinic and transversality's
    # pre-check exit 2, and a scan records the refusal as the cell's error
    with pytest.raises(ValueError) as refusal:
        origin_stable_pair(ModelParams(0.0004, float(A)))
    assert str(refusal.value) == text
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for cmd in ("homoclinic", "transversality"):
            assert main([cmd, "--epsilon", "0.0004", "--A", A,
                         "--out", str(tmp_path / cmd)]) == 2
            assert capsys.readouterr().err == f"error: {refusal.value}\n"
            assert not (tmp_path / cmd).exists()
        assert main(["scan", "--epsilon", "0.0004", "--A", A,
                     "--out", str(tmp_path / "s")]) == 0
    (cell,) = read_json(tmp_path / "s" / "scan.json")["cells"]
    assert cell["error"] == f"{refusal.type.__name__}: {refusal.value}"


@pytest.mark.parametrize("A", ["-1e-70", "1e80"])
def test_eigen_refuses_a_discriminant_outside_double_range(tmp_path, capsys,
                                                           A):
    # the eigenvalues are finite there; A**5 alone leaves double range
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        es = spectrum(ModelParams(0.1, float(A)), "origin")
        assert main(["eigen", "--epsilon", "0.1", "--A", A,
                     "--out", str(tmp_path)]) == 2
    assert np.all(np.isfinite([es.lambda1, es.lambda2, es.lambda3,
                               es.lambda4]))
    assert capsys.readouterr().err == (
        f"error: A={float(A)!r} puts the origin quartic's discriminant "
        "outside double range\n")
    assert list(tmp_path.iterdir()) == []


def test_transversality_flags_an_ill_conditioned_fit(tmp_path, capsys):
    # a quartic through two samples: its roots (one at positive A) are
    # not the curve's, and the line that prints them must say so
    rc = main(["transversality", "--A", "-0.13,-0.12", "--out", str(tmp_path)])
    assert rc == 0
    (roots,) = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("fit roots:")]
    assert roots.endswith("(ill-conditioned: degree 4 fit to 2 samples)")
    doc = read_json(tmp_path / "transversality_fit.json")
    assert doc["ill_conditioned"] is True
    assert len(doc["det"]) == 2


def test_write_json_bytes_match_the_isinstance_conversion(tmp_path):
    # what payloads carry: plain values and np.float64, which json encodes
    # as the float it subclasses; anything else is refused, not written
    args = _parse(_build_parser(),
                  ["eigen", "--epsilon", "0.1", "--A", "-0.125"])
    payload = {
        "scalars": [np.float64(0.1), 1e-300, -0.0, 4, True, None, "text"],
        "pair": (np.float64(1.5), (2, 3)),
        "nested": {"t": (np.float64(np.pi),), "z": {"w": [0.0, 0.0]}},
    }
    for value in (np.zeros(2), np.int64(-3), np.float32(2.5), 1j):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            _write_json(tmp_path / "refused.json", {"v": value}, args)
    assert not (tmp_path / "refused.json").exists()
    _write_json(tmp_path / "a.json", payload, args)
    config = {"command": "eigen", "epsilon": (0.1,), "A": (-0.125,),
              "out": "."}
    body = {"version": __version__, "config": config, **payload}
    want = json.dumps(body, sort_keys=True, indent=1) + "\n"
    assert (tmp_path / "a.json").read_bytes() == want.encode()


def test_transversality_default_window_parses():
    # the default A list is written out as text and parsed back: it must
    # read as the 13 window values, whatever repr numpy gives its scalars
    args = _parse(_build_parser(), ["transversality"])
    assert args.epsilon == (2e-4,)
    assert args.A == tuple(np.linspace(-0.145, -0.115, 13).tolist())


def test_transversality_incomplete_curve_exits_3(tmp_path, capsys):
    rc = main(["transversality", "--epsilon", "-0.1", "--A", "-0.125",
               "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "A=-0.125" in err


def test_soliton_profile_outputs(tmp_path, capsys):
    rc = main(["soliton", "--epsilon", "0.0004", "--A", "-0.125",
               "--out", str(tmp_path)])
    assert rc == 0
    assert "stationary residual" in capsys.readouterr().out
    doc = read_json(tmp_path / "soliton.json")
    assert doc["peak"] == pytest.approx(1.327385e-2, rel=1e-5)
    assert doc["residual_max"] <= 1e-9
    assert doc["mirror_defect"] <= 1e-10
    for d in doc["tail_decay"]:
        assert d == pytest.approx(0.47339771836588446, rel=0.05)
    sites = doc["sites"]
    assert sites == list(range(sites[0], sites[-1] + 1))
    rows = read_csv(tmp_path / "soliton.csv")
    assert len(rows) == len(sites) + 1
    assert rows[0] == ["n", "u_n"]


def test_soliton_without_an_intersection_exits_3(tmp_path, capsys):
    out = tmp_path / "s"
    assert main(["soliton", "--epsilon", "-0.5", "--A", "-0.13",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("numerical failure: no homoclinic "
                                       "intersection to build from\n")
    assert not out.exists()


def test_portrait_grid_and_decimation(tmp_path):
    rc = main(["portrait", "--epsilon", "-0.1,0.1", "--seeds", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    doc = read_json(tmp_path / "portrait.json")
    assert doc["files"] == ["portrait_eps-0.1.npy", "portrait_eps0.1.npy"]
    assert doc["steps"] == 10000 and doc["stride"] == 10
    defocus, focus = doc["summary"]
    assert defocus["epsilon"] == -0.1 and defocus["seeds"] == 9
    assert defocus["escaped"] == 8  # everything except the origin
    assert focus["epsilon"] == 0.1
    assert focus["escaped"] <= 4  # only the corners sit outside the safe ball
    rows = read_portrait(tmp_path / "portrait_eps0.1.npy")
    # rows run seed by seed, each orbit in step order
    order = np.lexsort((rows["step"], rows["seed_index"]))
    assert np.array_equal(order, np.arange(len(rows)))
    # decimation keeps ~1000 rows per bounded seed instead of 10000
    count = np.bincount(rows["seed_index"])
    assert count.max() <= 1002
    last_step = {i: rows["step"][rows["seed_index"] == i].max()
                 for i in range(9)}
    # every seed inside the 0.1 ball survives the full run (grid order is
    # row-major over [-0.1, 0, 0.1]^2, so these are the edge mids + origin)
    for idx in (1, 3, 4, 5, 7):
        assert last_step[idx] == 10000, idx


def test_portrait_streams_the_bytes_of_np_save(tmp_path):
    # the header written ahead of the orbits is the one np.save writes for
    # the whole table, and the rows follow in its order
    assert main(["portrait", "--epsilon", "-0.1,0.1", "--seeds", "3",
                 "--out", str(tmp_path)]) == 0
    g = np.linspace(-0.1, 0.1, 3)
    seeds = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    for eps in (-0.1, 0.1):
        blocks = []
        for i, orb in enumerate(portrait_2d([ModelParams(eps, 0.0)], seeds,
                                            steps=10000, stride=10)):
            rows = np.zeros(len(orb.steps), PORTRAIT_ROW)
            rows["seed_index"] = i
            rows["step"] = orb.steps
            rows["x"], rows["y"] = orb.points.T
            blocks.append(rows)
        buf = io.BytesIO()
        np.save(buf, np.concatenate(blocks))
        assert (tmp_path / f"portrait_eps{eps:g}.npy").read_bytes() == \
            buf.getvalue(), eps


def test_config_file_provides_defaults_flags_win(tmp_path):
    cfg = {"epsilon": "0.0004", "A": "-0.125", "order": 20,
           "out": str(tmp_path / "fromcfg")}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["manifold", "--config", str(cfg_path), "--order", "30"])
    assert rc == 0
    doc = read_json(tmp_path / "fromcfg" / "manifold_stable.json")
    assert doc["config"]["order"] == 30          # flag beats file
    assert doc["config"]["epsilon"] == [0.0004]  # file beats default
    rc = main(["eigen", "--config", str(cfg_path), "--A", "-0.13"])
    assert rc == 0
    doc = read_json(tmp_path / "fromcfg" / "eigen.json")
    assert doc["config"]["A"] == [-0.13]


@pytest.mark.parametrize("cmd, entry, flag", [
    ("homoclinic", {"order": [1]}, "--order"),
    ("homoclinic", {"order": 1e400}, "--order"),   # json reads it as inf
    ("homoclinic", {"order": 1.9}, "--order"),     # int() would truncate it
    ("homoclinic", {"order": True}, "--order"),    # int() would read 1
    ("portrait", {"seeds": {}}, "--seeds"),
])
def test_config_values_are_parsed_like_their_flags(tmp_path, capsys, cmd,
                                                   entry, flag):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(entry))
    argv = [cmd, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    if cmd == "homoclinic":
        argv += ["--epsilon", "0.0004", "--A", "-0.125"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: invalid" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("entry, message", [
    ({"order": 1.9}, "argument --order: invalid int value: '1.9'"),
    ({"epsilon": "x,1"}, "argument --epsilon: cannot parse number list"),
])
def test_config_value_error_names_the_file(tmp_path, capsys, entry, message):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(entry))
    with pytest.raises(SystemExit) as exc:
        main(["manifold", "--epsilon", "0.0004", "--A", "-0.125",
              "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and f"(from config file {cfg_path})" in err
    # the same value given as a flag names no file
    with pytest.raises(SystemExit):
        main(["manifold", "--epsilon", "0.0004", "--A", "-0.125",
              "--order", "1.9", "--out", str(tmp_path / "out")])
    assert "config file" not in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _no_scan(*args, **kwargs):
    raise AssertionError("scan_parameters ran")


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("cmd, flag, text", [
    ("manifold", "order", "0"), ("manifold", "order", "1001"),
    ("portrait", "seeds", "1"), ("scan", "workers", "-1"),
    ("manifold", "epsilon", ""), ("manifold", "A", ""),
    ("manifold", "box", "1,2,3"), ("manifold", "box", "0,1"),
    ("portrait", "box", "0"),
    # an --out that is, or lies under, an existing file: refused before
    # eigen prints its spectrum and before scan runs a cell
    *((cmd, "out", text) for cmd in ("eigen", "scan")
      for text in ("file", "file/sub")),
])
def test_a_bad_value_exits_2_naming_its_flag(tmp_path, monkeypatch, capsys,
                                             cmd, flag, text, source):
    # one refusal path: the flag's type, through argparse, whether the
    # value comes from the command line or from a config file; nothing runs
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(cli, "scan_parameters", _no_scan)
    argv = [cmd, *(["--out", "out"] if flag != "out" else [])]
    for other, good in (("epsilon", "0.0004"), ("A", "-0.125")):
        if other != flag and other in ("epsilon", *FLAGS[cmd]):
            argv += [f"--{other}", good]
    path = tmp_path / "run.json"
    if source == "flag":
        argv.append(f"--{flag}={text}")
    else:
        path.write_text(json.dumps({flag: text}))
        argv += ["--config", str(path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    printed, err = capsys.readouterr()
    assert printed == ""
    assert f"error: argument --{flag}: " in err, err
    assert (str(path) in err) == (source == "config"), err
    assert not (tmp_path / "out").exists()


GRID = "takes a single value; use the scan command for grids"


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("cmd, flag, text, words", [
    # the single-cell commands take one --epsilon and one --A
    *((cmd, flag, "0.0004,0.01" if flag == "epsilon" else "-0.13,-0.12",
       f"argument --{flag}: {GRID}")
      for cmd in ("eigen", "manifold", "homoclinic", "soliton")
      for flag in ("epsilon", "A")),
    # transversality sweeps A at one --epsilon
    ("transversality", "epsilon", "2e-4,4e-4", f"argument --epsilon: {GRID}"),
    # portrait names its files by {eps:g}: these two would share one
    ("portrait", "epsilon", "0.1,0.1000001",
     "argument --epsilon: values (0.1, 0.1000001) share an output file"),
    # flags without a default, neither given nor in the file
    ("scan", "A", None, "the following arguments are required: --A"),
    ("homoclinic", "epsilon", None,
     "the following arguments are required: --epsilon"),
])
def test_a_refused_setting_exits_through_its_flag(tmp_path, monkeypatch,
                                                  capsys, cmd, flag, text,
                                                  words, source):
    # a refusal of a setting exits 2 through the subcommand's parser, with
    # its usage line, naming the flag, and the config file only when the
    # setting was read from one; nothing is written
    monkeypatch.chdir(tmp_path)
    argv = [cmd, "--out", "out"]
    for other, good in (("epsilon", "0.0004"), ("A", "-0.125")):
        if other != flag and other in ("epsilon", *FLAGS[cmd]):
            argv += [f"--{other}", good]
    path = tmp_path / "run.json"
    if source == "config":
        path.write_text(json.dumps({} if text is None else {flag: text}))
        argv += ["--config", str(path)]
    elif text is not None:
        argv.append(f"--{flag}={text}")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: dnls-nnn {cmd} "), err
    assert f"dnls-nnn {cmd}: error: {words}" in err, err
    assert (str(path) in err) == (source == "config"), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["homoclinic", "--epsilon", "0.0004", "--A", "-0.125"],
    # the benchmark's scan
    ["scan", "--epsilon", "0.0004,1.0,-0.5", "--A", "-0.145,-0.13",
     "--workers", "2"],
    ["transversality"],
    ["portrait", "--seeds", "3"],
])
def test_a_recorded_config_reruns_the_run(tmp_path, argv):
    # an artifact's config block, saved as a --config file, gives the same
    # artifacts, byte for byte but for config.out; so does homoclinic's
    # with the key of the retired --threshold, as artifacts written while
    # it was a flag record it
    first = tmp_path / "first"
    assert main(argv + ["--out", str(first)]) == 0
    names = sorted(path.name for path in first.iterdir())
    cfg = tmp_path / "cfg.json"
    config = read_json(next(first.glob("*.json")))["config"]
    retired = [{"threshold": 1e-10}] if argv[0] == "homoclinic" else []
    for k, extra in enumerate([{}, *retired]):
        again = tmp_path / f"again{k}"
        cfg.write_text(json.dumps(config | extra))
        assert main([argv[0], "--config", str(cfg), "--out", str(again)]) == 0
        assert sorted(path.name for path in again.iterdir()) == names
        for name in names:
            got = (again / name).read_bytes()
            if name.endswith(".json"):
                assert read_json(again / name)["config"]["out"] == str(again)
                got = got.replace(json.dumps(str(again)).encode(),
                                  json.dumps(str(first)).encode())
            assert got == (first / name).read_bytes(), (name, extra)
    if argv == ["transversality"]:  # the default 13-point window
        dets = read_json(first / "transversality_fit.json")["det"]
        assert len(dets) == 13 and len({d > 0 for d in dets}) == 1, dets
        assert all(math.isfinite(d) and abs(d) > 1e-6 for d in dets), dets


def test_an_artifact_records_the_subcommands_own_flags(tmp_path):
    # the run's settings are its parsed flags: the subcommand, --epsilon,
    # --out and the subcommand's own flags, 39 entries over the seven
    assert cli._FLAGS == FLAGS
    assert sum(3 + len(flags) for flags in FLAGS.values()) == 39
    cell = ["--epsilon", "0.0004", "--A", "-0.125"]
    runs = {"eigen": cell, "manifold": cell + ["--order", "10"],
            "homoclinic": cell, "soliton": cell,
            "scan": cell, "transversality": ["--A", "-0.13,-0.12"],
            "portrait": ["--epsilon", "0.1", "--seeds", "2"]}
    for cmd, flags in FLAGS.items():
        out = tmp_path / cmd
        assert main([cmd, *runs[cmd], "--out", str(out)]) == 0, cmd
        docs = list(out.glob("*.json"))
        assert docs, cmd
        for path in docs:
            assert set(read_json(path)["config"]) == \
                {"command", "epsilon", "out", *flags}, path


def test_config_keys_outside_the_flags_are_ignored(tmp_path):
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({"epsilon": 0.0004, "A": "-0.125"}))
    extra = tmp_path / "extra.json"
    # a "command" default would replace the subcommand given on the line
    extra.write_text(json.dumps({"epsilon": 0.0004, "A": "-0.125",
                                 "command": "scan", "config": "other.json",
                                 "version": "9.9", "colour": "blue"}))
    texts = []
    for path in (plain, extra):
        assert main(["eigen", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
        texts.append((tmp_path / "out" / "eigen.json").read_bytes())
    assert texts[0] == texts[1]
    assert read_json(tmp_path / "out" / "eigen.json")["config"]["command"] \
        == "eigen"
    # the 2-d map has no A: a shared file's A is ignored, a flag refused
    assert main(["portrait", "--config", str(extra), "--seeds", "2",
                 "--out", str(tmp_path / "p")]) == 0
    assert "A" not in read_json(tmp_path / "p" / "portrait.json")["config"]


def test_order_above_the_limit_exits_2(tmp_path, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("the coefficient table was allocated")

    monkeypatch.setattr(manifold, "_build_coeffs", unreachable)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["manifold", "--epsilon", "0.0004", "--A", "-0.125",
              "--order", "1000000", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert ("error: argument --order: order 1000000 exceeds the limit "
            f"MAX_ORDER = {MAX_ORDER}") in err
    assert "Traceback" not in err
    assert not out.exists()
    # the multi-cell commands refuse it before any cell runs
    for cmd in (["scan", "--epsilon", "0.0004", "--A", "-0.125,-0.13"],
                ["transversality", "--A", "-0.13,-0.12"]):
        with pytest.raises(SystemExit) as exc:
            main(cmd + ["--order", str(MAX_ORDER + 1), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert (f"error: argument --order: order {MAX_ORDER + 1} exceeds "
                f"the limit MAX_ORDER = {MAX_ORDER}\n") in err, err
        assert not out.exists()


def test_config_must_be_an_object(tmp_path, monkeypatch, capsys):
    # a file that cannot be read as a JSON object is --config's refusal,
    # through argparse, naming the file; nothing is written
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "bad.json"
    for content, words in ((b"[1, 2, 3]", "is not a JSON object"),
                           (b"{", "cannot read"),
                           (b"\xff\xfe{}", "cannot read"),  # not UTF-8
                           (None, "cannot read")):            # no such file
        cfg_path.unlink(missing_ok=True)
        if content is not None:
            cfg_path.write_bytes(content)
        with pytest.raises(SystemExit) as exc:
            main(["eigen", "--epsilon", "0.0004", "--A", "-0.125",
                  "--config", str(cfg_path), "--out", "out"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: dnls-nnn eigen "), err
        assert "error: argument --config: " in err and words in err, err
        assert str(cfg_path) in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("exc, code, prefix", [
    # a parameter cell outside the manifold domain is a usage error
    (NonHyperbolicError("spectrum left the hyperbolic window"), 2, "error"),
    (ResonanceError(7, 1e-20), 3, "numerical failure"),
    (SeriesOverflowError(9), 3, "numerical failure"),
    (MatchFailure("no-convergence: sweep incomplete"), 3,
     "numerical failure"),
    (ProfileError("tail did not decay"), 3, "numerical failure"),
])
def test_exit_code_follows_the_exception_type(monkeypatch, capsys, exc,
                                              code, prefix):
    def fail(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "eigen", fail)
    assert main(["eigen", "--epsilon", "0.0004", "--A", "-0.125"]) == code
    assert capsys.readouterr().err == f"{prefix}: {exc}\n"


# sha256 of each default table's .npy bytes (header and layout) and of the
# CSV text its rows format to
PORTRAIT_DIGESTS = {
    -0.1: ("1826151ecec8b1a534ce1399d236c7d1f1c8d10477e7fe376bb4df2bbbcc162a",
           "fd59257845d7dbc23388078422f97379ad47b1a7bd60b35fac484a29d0c1d86b"),
    0.1: ("7f4572646041103e1541cf70968ad306accf6ec756796ae8e8f2dc2a1307111d",
          "b4e8ae301f0d1f30208e5e2be5436afca27723e5826b243f45a6af7cb2ea13bd"),
}


def test_portrait_table_matches_the_reference_rows(tmp_path):
    # the default 11 x 11 grid, as the benchmark runs it
    rc = main(["portrait", "--epsilon", "-0.1,0.1", "--out", str(tmp_path)])
    assert rc == 0
    g = np.linspace(-0.1, 0.1, 11)
    seeds = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    for eps in (-0.1, 0.1):
        # one writerow per kept point, as the CSV writer did before it
        # wrote each orbit in bulk
        buf = io.StringIO(newline="")
        w = csv.writer(buf)
        w.writerow(["seed_index", "step", "x", "y"])
        index, steps, points = [], [], []
        orbits = reference_portrait(ModelParams(eps, 0.0), seeds, 10000)
        for i, orb in enumerate(orbits):
            last = len(orb.points) - 1
            kept = sorted(set(range(0, last + 1, 10)) | {last})
            for k in kept:
                x, y = orb.points[k]
                w.writerow([i, k, repr(float(x)), repr(float(y))])
            index += [i] * len(kept)
            steps += kept
            points.append(orb.points[kept])
        path = tmp_path / f"portrait_eps{eps:g}.npy"
        got, text = read_portrait(path), buf.getvalue()
        assert portrait_csv_text(got) == text
        assert (sha256(path.read_bytes()).hexdigest(),
                sha256(text.encode()).hexdigest()) == PORTRAIT_DIGESTS[eps]
        assert got["seed_index"].tolist() == index
        assert got["step"].tolist() == steps
        # x and y bit for bit, signed zeros included
        bits = np.concatenate(points).view(np.int64)
        assert np.array_equal(got["x"].view(np.int64), bits[:, 0])
        assert np.array_equal(got["y"].view(np.int64), bits[:, 1])


def test_portrait_out_of_memory_names_the_seeds(tmp_path, capsys,
                                                monkeypatch):
    # 2 x 300^2 orbits of 1001 stored points need 2.68 GiB; the patched
    # allocation refuses anything above 1 GiB, so nothing large is made
    real_empty = np.empty

    def empty(shape, *args, **kwargs):
        if np.prod(shape) * 8 > 2**30:
            raise MemoryError
        return real_empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", empty)
    out = tmp_path / "p"
    assert main(["portrait", "--seeds", "300", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: --seeds 300: 180000 orbits of up to 1001 stored "
                   "points need 2.68 GiB, more than could be allocated; "
                   "use fewer seeds\n")
    assert not out.exists()


def test_portrait_refuses_a_store_above_physical_memory(tmp_path, capsys,
                                                       monkeypatch):
    # 18 orbits of 1001 stored 16-byte points: refused before any allocation
    # on a host one byte smaller, run on one of that size
    need, out = 18 * 1001 * 16, tmp_path / "p"
    assert soliton._physical_memory() > need
    monkeypatch.setattr(soliton, "_physical_memory", lambda: need - 1)
    assert main(["portrait", "--seeds", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --seeds 3: 18 orbits of up to 1001 stored points need "
        "0.000268 GiB, more than could be allocated; use fewer seeds\n")
    assert not out.exists()
    monkeypatch.setattr(soliton, "_physical_memory", lambda: need)
    assert main(["portrait", "--seeds", "3", "--out", str(out)]) == 0


def test_portrait_checks_every_epsilon_before_writing(tmp_path, capsys):
    assert main(["portrait", "--epsilon", "0.1,0", "--seeds", "2",
                 "--out", str(tmp_path)]) == 2
    assert "epsilon must be nonzero" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_portrait_refuses_epsilons_that_share_a_file(tmp_path, capsys):
    # {eps:g} names both portrait_eps0.1.npy: the second would overwrite
    # the first, and portrait.json would list that file twice
    with pytest.raises(SystemExit) as exc:
        main(["portrait", "--epsilon", "0.1,0.1000001", "--seeds", "2",
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert ("argument --epsilon: values (0.1, 0.1000001) share an output "
            "file") in err
    assert list(tmp_path.iterdir()) == []
    # values that differ in their 6 significant digits name two files
    assert main(["portrait", "--epsilon", "0.1,0.100001", "--seeds", "2",
                 "--out", str(tmp_path)]) == 0
    assert read_json(tmp_path / "portrait.json")["files"] == \
        ["portrait_eps0.1.npy", "portrait_eps0.100001.npy"]
