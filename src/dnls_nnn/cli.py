"""Command-line front end.

Subcommands map one-to-one onto the library's workflows:

    eigen           linearization spectrum and classification at given (eps, A)
    manifold        build the series pair; its one table is in the stable file,
                    each component's odd-degree entries as base64 float64
    homoclinic      find homoclinic intersections for one parameter cell
    scan            grid search over epsilon and A lists
    transversality  tangency-determinant sweep over an A window + quartic fit
    soliton         build the lattice profile of the best homoclinic point
    portrait        forward orbits of the 2-d map from a seed grid

Every JSON artifact embeds the package version and the run's settings as
parsed (the subcommand, --epsilon, --out and the subcommand's own flags);
that config block, as a --config file, reruns it.  Exit codes: 0 success;
2 a usage error, through argparse with the usage line, naming the flag (and
the file a value came from), or a cell outside the domain the construction
is defined on (the library's ValueError, as "error: ..."); 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from argparse import ArgumentTypeError
from contextlib import suppress
from pathlib import Path

import numpy as np

from . import __version__
from .homoclinic import (MatchFailure, det_curve_fit, scan_parameters,
                         symmetric_search)
from .manifold import (
    DEFAULT_ORDER,
    MAX_ORDER,
    ResonanceError,
    SeriesOverflowError,
    compute_manifold_pair,
    conjugacy_residual,
    series_to_dict,
    tail_bound,
)
from .maps import ModelParams
from .soliton import ProfileError, build_profile, mirror_defect, portrait_2d
from .spectral import (
    CRITICAL_A,
    NonHyperbolicError,
    discriminant,
    origin_stable_pair,
    spectrum,
)

PORTRAIT_STEPS = 10000
# one record of a portrait table: a stored point of orbit seed_index
PORTRAIT_ROW = np.dtype([("seed_index", "<i8"), ("step", "<i8"),
                         ("x", "<f8"), ("y", "<f8")])

# accept "-0.125,0" and "-1e-4" as flag values, not option names
_NEG_VALUE = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?(,.*)?$")


def _float_list(text):
    try:
        vals = tuple(float(tok) for tok in text.split(",") if tok != "")
    except ValueError as exc:
        raise ArgumentTypeError(f"cannot parse number list {text!r}") from exc
    if not vals:
        raise ArgumentTypeError("number list is empty")
    if not np.all(np.isfinite(vals)):
        raise ArgumentTypeError(f"number list {text!r} must be finite")
    return vals


def _checked(base, *rules):
    """A flag type: base(text), refused with the message of the first (ok,
    message) rule its value fails.  Named as base, so that argparse words
    text base cannot read as for base itself ("invalid int value: '1.9'")."""
    def parse(text):
        value = base(text)
        for ok, message in rules:
            if not ok(value):
                raise ArgumentTypeError(message.format(value))
        return value
    parse.__name__ = base.__name__
    return parse


# a single cell's --epsilon and --A; portrait's --epsilon, whose values
# name its files by {eps:g}, 6 significant digits
_single = _checked(_float_list, (lambda vals: len(vals) == 1,
                                 "takes a single value; use the scan "
                                 "command for grids"))
_portrait_eps = _checked(_float_list, (
    lambda vals: len({f"{eps:g}" for eps in vals}) == len(vals),
    "values {} share an output file; they must differ within 6 digits"))


def _box(size, ok, message):
    """A --box type: empty (the default), or `size` numbers that ok accepts.
    Kept as text, as the run's record shows it."""
    def parse(text):
        if text and (len(vals := _float_list(text)) != size or not ok(vals)):
            raise ArgumentTypeError(message)
        return text
    return parse


def _out_dir(text):
    """An --out type: a path that neither is nor lies under an existing
    non-directory, so that the run can write there.  Kept as text."""
    for path in (Path(text), *Path(text).parents):
        if os.path.lexists(path) and not path.is_dir():
            raise ArgumentTypeError(f"{path} exists and is not a directory")
    return text


def _write_json(path, payload, args):
    """payload as indented JSON, under the run's settings: the subcommand's
    own flags as parsed."""
    config = {k: getattr(args, k)
              for k in ("command", "epsilon", *_FLAGS[args.command], "out")}
    body = {"version": __version__, "config": config, **payload}
    Path(path).write_text(json.dumps(body, sort_keys=True, indent=1) + "\n")


# each subcommand's flags besides --epsilon, --out and --config
_FLAGS = {
    "eigen": ("A",),
    "manifold": ("A", "order", "box"),
    "homoclinic": ("A", "order", "box"),
    "scan": ("A", "order", "workers"),
    "transversality": ("A", "order", "workers"),
    "soliton": ("A", "order", "box"),
    "portrait": ("box", "seeds"),
}

# each flag's type checks its value, from the command line or a config file
_OPTIONS = {
    "epsilon": dict(type=_single,
                    help="coupling value (comma list for scan, portrait)"),
    "A": dict(type=_single,
              help="second-neighbor weight (comma list for the scans)"),
    "order": dict(type=_checked(int, (lambda n: n >= 1, "must be at least 1"),
                                (lambda n: n <= MAX_ORDER,
                                 "order {} exceeds the limit MAX_ORDER = "
                                 f"{MAX_ORDER}")),
                  default=DEFAULT_ORDER,
                  help=f"series truncation order (default {DEFAULT_ORDER}, "
                       f"at most {MAX_ORDER})"),
    "box": dict(type=_box(2, lambda g: 0.0 not in g,
                          "must be a nonzero pair 'g1,g2'"),
                default="", help="gauge pair 'g1,g2' (default: automatic)"),
    "seeds": dict(type=_checked(int, (lambda n: n >= 2, "must be at least 2")),
                  default=11, help="seed-grid points per axis (default 11)"),
    "workers": dict(type=_checked(int, (lambda n: n >= 0,
                                        "must be non-negative")),
                    default=0, help="process count, at most one per cell "
                                    "(default 0: serial)"),
    "out": dict(type=_out_dir, default=".",
                help="output directory, made when written (default .)"),
    "config": dict(help="JSON file with defaults for the subcommand's flags"),
}


def _build_parser(command):
    """The parser (subparsers in `.commands`), with `command`'s flags only."""
    ap = argparse.ArgumentParser(
        prog="dnls-nnn",
        description="manifolds, homoclinic points, and solitons of a "
                    "4-d lattice map",
    )
    ap._negative_number_matcher = _NEG_VALUE
    ap.add_argument("--version", action="version",
                    version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    window = tuple(np.linspace(-0.145, -0.115, 13).tolist())
    # the lists of the scans and portrait, defaults where the other
    # subcommands need --epsilon and --A, and portrait's --box, a half-width
    own = {("scan", "epsilon"): dict(type=_float_list),
           ("scan", "A"): dict(type=_float_list),
           ("transversality", "epsilon"): dict(default=(2e-4,)),
           ("transversality", "A"): dict(type=_float_list, default=window),
           ("portrait", "epsilon"): dict(type=_portrait_eps,
                                         default=(-0.1, 0.1)),
           ("portrait", "box"): dict(type=_box(1, lambda h: h[0] > 0.0,
                                               "must be one positive "
                                               "half-width for portrait"),
                                     help="seed half-width (default 0.1)")}
    ap.commands = {name: sub.add_parser(name) for name in _FLAGS}
    if command in ap.commands:
        sp = ap.commands[command]
        sp._negative_number_matcher = _NEG_VALUE
        for flag in ("epsilon", *_FLAGS[command], "out", "config"):
            sp.add_argument(f"--{flag}",
                            **(_OPTIONS[flag] | own.get((command, flag), {})))
    return ap


def _parse(ap, argv):
    """Flags over config-file values over defaults.  The file's values for
    the subcommand's own flags (an array as the comma list a run records),
    checked by their flags, become its string defaults and the command line
    is reparsed; other keys are ignored, so one file serves every command.
    Every refusal exits 2 through the subcommand's parser."""
    args, extra = ap.parse_known_args(argv)
    sp = ap.commands[args.command]
    if extra:  # refused with the subcommand's usage, which lists its flags
        sp.error("unrecognized arguments: " + " ".join(extra))
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as exc:  # not JSON, or not UTF-8
            sp.error(f"argument --config: cannot read {args.config}: {exc}")
        if not isinstance(file_cfg, dict):
            sp.error(f"argument --config: {args.config} is not a JSON object")
        flags = {action.dest for action in sp._actions} - {"help", "config"}
        values = {k: ",".join(map(str, v))
                  if k in ("epsilon", "A") and isinstance(v, list) else str(v)
                  for k, v in file_cfg.items() if k in flags and v is not None}
        sp.exit_on_error = False  # a bad value raises, named with the file
        try:
            sp.parse_args([f"--{k}={v}" for k, v in values.items()])
        except argparse.ArgumentError as exc:
            sp.error(f"{exc} (from config file {args.config})")
        sp.set_defaults(**values)
        args = ap.parse_args(argv)
    missing = [f"--{flag}" for flag in ("epsilon", "A")
               if getattr(args, flag, ()) is None]
    if missing:
        where = f" (not in config file {args.config})" if args.config else ""
        sp.error(f"the following arguments are required: "
                 f"{', '.join(missing)}{where}")
    if getattr(args, "order", None) == 1:
        print("warning: order 1 keeps only the degenerate linear series",
              file=sys.stderr)
    return args


def _series_pair(args):
    """(Ps, Pu) of the single cell, at the --box gauge or the automatic one;
    outside the manifold domain, NonHyperbolicError."""
    scale = _float_list(args.box) if args.box else None
    return compute_manifold_pair(ModelParams(*args.epsilon, *args.A),
                                 order=args.order, scale=scale)


def _search(args):
    """(Ps, solutions) of the single cell."""
    Ps, _ = _series_pair(args)
    return Ps, symmetric_search(Ps)


def _scan(args):
    return scan_parameters(args.epsilon, args.A, order=args.order,
                           workers=args.workers or None)


def _outdir(args):
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _solution_dict(sol):
    return {
        "u1": sol.u1, "v1": sol.v1, "u2": sol.u2, "v2": sol.v2,
        "point": list(sol.point),
        "residual": sol.residual,
        "det": sol.det,
        "series_order": sol.series_order,
    }


def cmd_eigen(args):
    p = ModelParams(*args.epsilon, *args.A)  # one value each
    payload = {"critical_A": CRITICAL_A}
    for at in ("origin", "nontrivial"):
        if at == "nontrivial" and p.epsilon * p.A >= 0.0:
            payload[at] = None
            continue
        es = spectrum(p, at)
        lams = (es.lambda1, es.lambda2, es.lambda3, es.lambda4)
        disc = discriminant(p, at=at)
        if not np.isfinite(disc):  # A**5 left double range
            raise ValueError(f"A={p.A!r} puts the {at} quartic's "
                             "discriminant outside double range")
        entry = {
            "quartic": {"a": es.quartic.a, "b": es.quartic.b},
            "classification": es.classification,
            "hyperbolic": es.hyperbolic,
            "eigenvalues": [{"re": l.real, "im": l.imag} for l in lams],
            "discriminant": disc,
        }
        with suppress(NonHyperbolicError):
            entry["stable_pair"] = list(es.stable_pair())
        payload[at] = entry
        print(f"{at}: {es.classification}"
              + (" (hyperbolic)" if es.hyperbolic else ""))
        if all(l.imag == 0.0 for l in lams):
            print("  eigenvalues: "
                  + "  ".join(f"{l.real:.12g}" for l in lams))
    out = _outdir(args) / "eigen.json"
    _write_json(out, payload, args)
    print(f"wrote {out}")
    return 0


def cmd_manifold(args):
    Ps, Pu = _series_pair(args)
    outdir = _outdir(args)
    # P_u = sigma5 o P_s, f^-1 o sigma5 = sigma5 o f: P_s's bounds are P_u's
    with np.errstate(over="ignore", invalid="ignore"):
        res = conjugacy_residual(Ps)
    if not np.isfinite(res):
        raise SeriesOverflowError(Ps.order, "stable series evaluation "
                                  "overflows on the unit box at scale "
                                  f"({Ps.scale[0]:g}, {Ps.scale[1]:g}); "
                                  "use a smaller --box")
    bounds = {"conjugacy_residual": res, "tail_bound": tail_bound(Ps)}
    for ms in (Ps, Pu):
        path = outdir / f"manifold_{ms.branch}.json"
        series = series_to_dict(ms)
        if ms is Pu:  # P_u's table is P_s's with its components reversed
            del series["coeffs"]
            series["coeffs_reversed_from"] = "manifold_stable.json"
        _write_json(path, {"series": series, **bounds}, args)
        print(f"{ms.branch}: order {ms.order}, scale "
              f"({ms.scale[0]:.6g}, {ms.scale[1]:.6g}), "
              f"box residual {res:.3e} -> {path}")
    return 0


def cmd_homoclinic(args):
    _, sols = _search(args)
    payload = {"found": bool(sols),
               "solutions": [_solution_dict(s) for s in sols]}
    out = _outdir(args) / "homoclinic.json"
    _write_json(out, payload, args)
    if sols:
        best = sols[0]
        print(f"{len(sols)} intersection(s); best residual "
              f"{best.residual:.3e}, det {best.det:.6g}")
        print("  point: " + "  ".join(f"{c:.12e}" for c in best.point))
    else:
        print("no homoclinic intersection found")
    print(f"wrote {out}")
    return 0


def _cell_dict(cell):
    return {
        "epsilon": cell.epsilon,
        "A": cell.A,
        "found": cell.found,
        "best_residual": cell.best_residual,
        "solution": _solution_dict(cell.solution) if cell.solution else None,
        "error": cell.error,
    }


def cmd_scan(args):
    # bad cells (A = 0, non-real spectrum, ...) are recorded per cell by
    # scan_parameters rather than aborting the whole grid
    cells = _scan(args)
    outdir = _outdir(args)
    _write_json(outdir / "scan.json",
                {"cells": [_cell_dict(c) for c in cells]}, args)
    found = sum(c.found for c in cells)
    errs = sum(c.error is not None for c in cells)
    for c in cells:
        mark = "found" if c.found else ("error: " + c.error if c.error
                                        else "none")
        print(f"  eps={c.epsilon:g} A={c.A:g}: {mark}")
    print(f"{found}/{len(cells)} cells with intersections"
          + (f", {errs} errored" if errs else ""))
    print(f"wrote {outdir / 'scan.json'}")
    return 0


def cmd_transversality(args):
    for A in args.A:  # refused before any cell is computed
        origin_stable_pair(ModelParams(args.epsilon[0], A))
    cells = _scan(args)
    missing = [c for c in cells if not c.found]
    if missing:
        causes = ", ".join(f"A={c.A:g}: {c.error or 'none'}" for c in missing)
        raise MatchFailure(
            f"no-convergence: {len(missing)} of {len(cells)} sweep cells "
            f"found no intersection ({causes}); the determinant curve is "
            "incomplete")
    A_vals = np.array([c.A for c in cells])
    dets = np.array([c.solution.det for c in cells])
    outdir = _outdir(args)
    fit = det_curve_fit(A_vals, dets)
    _write_json(outdir / "transversality_fit.json", {
        "A": list(A_vals),
        "det": list(dets),
        "fit_coefficients": list(fit.coeffs),
        "fit_roots": list(fit.roots),
        "ill_conditioned": fit.ill_conditioned,
    }, args)
    print(f"det range [{dets.min():.6g}, {dets.max():.6g}] over "
          f"A in [{A_vals.min():g}, {A_vals.max():g}]")
    print("fit roots: " + (", ".join(f"{r:.6g}" for r in fit.roots)
                           if fit.roots.size else "(none)")
          + (f" (ill-conditioned: degree {len(fit.coeffs) - 1} fit to "
             f"{len(cells)} samples)" if fit.ill_conditioned else ""))
    print(f"wrote {outdir / 'transversality_fit.json'}")
    return 0


def cmd_soliton(args):
    Ps, sols = _search(args)
    if not sols:
        raise ProfileError("no homoclinic intersection to build from")
    prof = build_profile(sols[0], Ps)
    outdir = _outdir(args)
    _write_json(outdir / "soliton.json", {
        "sites": [int(n) for n in prof.indices],
        "values": list(prof.values),
        "residual_max": prof.residual_max,
        "mirror_defect": mirror_defect(prof),
        "tail_decay": list(prof.tail_decay),
        "peak": float(np.max(np.abs(prof.values))),
        "matched_point": list(sols[0].point),
    }, args)
    print(f"profile over sites [{prof.indices[0]}, {prof.indices[-1]}], "
          f"peak {np.max(np.abs(prof.values)):.6e}")
    print(f"stationary residual {prof.residual_max:.3e}, tail decay "
          f"({prof.tail_decay[0]:.6f}, {prof.tail_decay[1]:.6f})")
    print(f"wrote {outdir / 'soliton.json'}")
    return 0


def cmd_portrait(args):
    (half,) = _float_list(args.box or "0.1")
    g = np.linspace(-half, half, args.seeds)
    seeds = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    # at most 1001 rows of 32 bytes per orbit: at the defaults the tables
    # are 3.87 MB (eps=0.1) and 40 KB (eps=-0.1)
    stride = max(1, PORTRAIT_STEPS // 1000)
    params = [ModelParams(eps, 0.0) for eps in args.epsilon]
    try:
        orbits = portrait_2d(params, seeds, steps=PORTRAIT_STEPS,
                             stride=stride)
    except MemoryError as exc:
        raise ValueError(f"--seeds {args.seeds}: {exc}, more than could be "
                         "allocated; use fewer seeds") from None
    outdir = _outdir(args)
    manifest = {"steps": PORTRAIT_STEPS, "stride": stride,
                "files": [], "summary": []}
    for j, eps in enumerate(args.epsilon):
        fname = f"portrait_eps{eps:g}.npy"
        chunk = orbits[j * len(seeds):(j + 1) * len(seeds)]
        with open(outdir / fname, "wb") as fh:
            # np.save's bytes, streamed: the header for the whole table,
            # then one record block per orbit
            np.lib.format.write_array_header_1_0(fh, {
                "descr": np.lib.format.dtype_to_descr(PORTRAIT_ROW),
                "fortran_order": False,
                "shape": (sum(len(o.steps) for o in chunk),)})
            for i, orb in enumerate(chunk):
                rows = np.empty(len(orb.steps), PORTRAIT_ROW)
                rows["seed_index"] = i
                rows["step"] = orb.steps
                rows["x"], rows["y"] = orb.points.T
                fh.write(rows)
        escaped = sum(o.escaped for o in chunk)
        manifest["files"].append(fname)
        manifest["summary"].append({
            "epsilon": eps,
            "seeds": len(chunk),
            "escaped": escaped,
        })
        print(f"eps={eps:g}: {escaped}/{len(chunk)} seeds escaped "
              f"-> {outdir / fname}")
    _write_json(outdir / "portrait.json", manifest, args)
    print(f"wrote {outdir / 'portrait.json'}")
    return 0


_COMMANDS = {
    "eigen": cmd_eigen,
    "manifold": cmd_manifold,
    "homoclinic": cmd_homoclinic,
    "scan": cmd_scan,
    "transversality": cmd_transversality,
    "soliton": cmd_soliton,
    "portrait": cmd_portrait,
}

_NUMERICAL = (ResonanceError, SeriesOverflowError, MatchFailure, ProfileError)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    ap = _build_parser(next((a for a in argv if not a.startswith("-")), None))
    try:
        args = _parse(ap, argv)
        return _COMMANDS[args.command](args)
    except _NUMERICAL as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # a setting outside the domain
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
