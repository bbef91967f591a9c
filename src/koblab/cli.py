"""Command-line front end: every probe and case study as a subcommand.

Reads a JSON experiment config (``--config``), overlays any inline flags,
runs the computation, re-checks every emitted certified inequality, and
writes ``<command>-<label>.{json,csv,svg}`` under the output directory.
With ``--reproducible`` the JSON output is byte-stable for a fixed config
and seed: the default label freezes to "run" and the optional metadata
block (the only place timestamps live) is dropped.

Exit codes: 0 success; 2 usage or configuration problem (diagnostic on
stderr); 3 an emission-time recheck caught a violated certified
inequality — never expected, it means a soundness bug rather than bad
input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from .cases import run_bidisc_case, run_omega_psi_case
from .diagnostics import (REPORT_SCHEMA, _g17, balls_inequality_check,
                          goldilocks_probe, gromov_product, growth_fit,
                          k_point_probe, localization_check,
                          sameheight_scaling, visibility_scan)
from .geometry import (GeometryError, _json_number, domain_from_json,
                       from_pairs, to_pairs)
from .metric import distance_bracket
from .solver import SolverConfig, solve_geodesic
from .svg import render_report_svg

__all__ = ["main"]


class UsageError(ValueError):
    """Bad flags or config; reported on stderr with exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); raise instead
        raise UsageError(message)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def _merge_config(args, command: _Command) -> dict:
    """The config file's object overlaid with the command's declared flags."""
    cfg: dict = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise UsageError("the config file must hold a JSON object")
        cfg.update(data)
    flags = [(key, json.loads) for key in command.points]
    if command.grid is not None:
        flags.append((command.grid, _parse_grid_text))
    for key, parse in flags + list(command.scalars):
        val = getattr(args, key)
        if val is not None:
            cfg[key] = parse(val)
    return cfg


def _parse_grid_text(text: str) -> list:
    text = text.strip()
    if text.startswith("["):
        return json.loads(text)
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"a grid must be a comma-separated or JSON list "
                         f"of numbers, got {text!r}") from None


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise UsageError(f"config needs {key!r} (flag or config file)")
    return cfg[key]


def _number(cfg: dict, key: str, default=None, integer: bool = False):
    """A config scalar as a float, or an int with ``integer``; required
    when there is no default."""
    val = _require(cfg, key) if default is None else cfg.get(key, default)
    return _json_number(val, key, integer, error=UsageError)


def _text(cfg: dict, key: str):
    """A config string, or None when the field is absent."""
    val = cfg.get(key)
    if val is not None and not isinstance(val, str):
        raise UsageError(f"{key!r} must be a string, got {val!r}")
    return val


def _as_point(val, key: str) -> np.ndarray:
    if isinstance(val, (int, float, complex)):
        val = [val]
    if not isinstance(val, (list, tuple)) or len(val) == 0:
        raise UsageError(f"{key!r} must be a non-empty list of coordinates")
    if all(isinstance(c, (int, float)) for c in val):
        return np.array([complex(c) for c in val], dtype=complex)
    return from_pairs(val)


def _point(cfg: dict, key: str) -> np.ndarray:
    return _as_point(_require(cfg, key), key)


def _grid(cfg: dict, key: str, default: list) -> list:
    val = cfg.get(key, default)
    if not isinstance(val, (list, tuple)) or not val:
        raise UsageError(f"{key!r} must be a non-empty list")
    return [_json_number(v, key, error=UsageError) for v in val]


def _domain(cfg: dict):
    if "domain" not in cfg:
        raise UsageError("config needs a 'domain' record, e.g. "
                         '{"kind": "ball", "n": 2}')
    return domain_from_json(cfg["domain"])


def _solver(cfg: dict) -> SolverConfig | None:
    if "solver" not in cfg:
        return None
    return SolverConfig.from_json(cfg["solver"])


def _object(val, key: str) -> dict:
    if not isinstance(val, dict):
        raise UsageError(f"{key!r} must be a JSON object")
    return val


def _psi_domain(args, cfg: dict):
    """The case study's Omega_psi, from an ``omega_psi`` ``domain`` record,
    else a ``params`` record, else the flat keys psi, psi_form, c, alpha,
    chi1, chi2 and cap_radius.  The flags --psi-form, --c and --alpha then
    override the record's psi, as inline flags override the config file."""
    if "domain" in cfg:
        record = _object(cfg["domain"], "domain")
        if record.get("kind") != "omega_psi":
            raise UsageError(f"case-omega-psi needs an omega_psi domain, "
                             f"got kind {record.get('kind')!r}")
    elif "params" in cfg:
        record = _object(cfg["params"], "params")
    else:
        psi = dict(_object(cfg.get("psi", {}), "psi"))
        psi.setdefault("form", cfg.get("psi_form", "exp_neg_c_over_x"))
        for key in ("c", "alpha"):
            if key in cfg:
                psi.setdefault(key, cfg[key])
        record = {key: cfg[key] for key in ("chi1", "chi2", "cap_radius")
                  if key in cfg}
        record["psi"] = psi
    flags = {field: getattr(args, flag) for flag, field in
             (("psi_form", "form"), ("c", "c"), ("alpha", "alpha"))
             if getattr(args, flag) is not None}
    if flags:
        psi = _object(record.get("psi", {"form": "exp_neg_c_over_x"}), "psi")
        record = {**record, "psi": {**psi, **flags}}
    return domain_from_json({**record, "kind": "omega_psi"})


# ---------------------------------------------------------------------------
# subcommands: each builder returns {"payload": dict, "report": ProbeReport,
# "csv": str}, every key optional; its declaration names the flags it reads
# ---------------------------------------------------------------------------

_REPORT_COLUMNS = "CSV columns: grid,lower,upper,statistic,flags"
_REPORT_CSV = (_REPORT_COLUMNS + " (one row per grid sample; floats carry "
               "17 significant digits; emits an SVG chart of statistic vs "
               "log10(1/eps))")


class _Command(NamedTuple):
    """One subcommand: its builder and the surface its parser declares.

    ``points`` name JSON point flags, ``grid`` the grid flag, and
    ``scalars`` (flag, type) pairs; each flag's dest is its config key.
    ``svg`` says whether the command charts its report."""

    build: Callable
    summary: str
    csv_doc: str
    svg: bool = False
    points: tuple = ()
    grid: str | None = None
    scalars: tuple = ()


_COMMANDS: dict = {}


def _command(name: str, summary: str, csv_doc: str, **surface):
    """Register the decorated builder as subcommand ``name``; ``--help``
    lists subcommands in registration order."""
    def register(build):
        _COMMANDS[name] = _Command(build, summary, csv_doc, **surface)
        return build
    return register


def _bracket_csv(br) -> str:
    return "lower,upper\n%s,%s\n" % (_g17(br.lower), _g17(br.upper))


@_command("distance",
          "certified distance bracket between two interior points",
          "CSV columns: lower,upper", points=("x", "y"))
def _cmd_distance(args, cfg):
    dom = _domain(cfg)
    x, y = _point(cfg, "x"), _point(cfg, "y")
    br = distance_bracket(dom, x, y)
    payload = {"lower": br.lower, "upper": br.upper, "x": to_pairs(x),
               "y": to_pairs(y), "domain": dom.to_json()}
    return {"payload": payload, "csv": _bracket_csv(br)}


@_command("geodesic",
          "curve-length minimization between two interior points",
          "CSV columns: index,re0,im0,...,boundary_distance "
          "(one row per path point)", points=("x", "y"))
def _cmd_geodesic(args, cfg):
    dom = _domain(cfg)
    x, y = _point(cfg, "x"), _point(cfg, "y")
    scfg = _solver(cfg) or SolverConfig()
    res = solve_geodesic(dom, x, y, scfg)
    payload = dict(res.to_json())
    payload.update(x=to_pairs(x), y=to_pairs(y), domain=dom.to_json())
    head = ["index"]
    for j in range(dom.dim):
        head += [f"re{j}", f"im{j}"]
    head.append("boundary_distance")
    lines = [",".join(head)]
    for i, (pt, delta) in enumerate(zip(res.path.points,
                                        res.boundary_distances)):
        row = [str(i)]
        for c in pt:
            row += [_g17(c.real), _g17(c.imag)]
        row.append(_g17(delta))
        lines.append(",".join(row))
    return {"payload": payload, "csv": "\n".join(lines) + "\n"}


@_command("gromov", "certified bracket for the Gromov product (x|y)_o",
          "CSV columns: lower,upper", points=("x", "y", "o"))
def _cmd_gromov(args, cfg):
    dom = _domain(cfg)
    x, y, o = _point(cfg, "x"), _point(cfg, "y"), _point(cfg, "o")
    br = gromov_product(dom, x, y, o, config=_solver(cfg))
    payload = {"lower": br.lower, "upper": br.upper, "x": to_pairs(x),
               "y": to_pairs(y), "o": to_pairs(o), "domain": dom.to_json()}
    return {"payload": payload, "csv": _bracket_csv(br)}


@_command("visibility-scan", "how deep paths between approaching pairs travel",
          _REPORT_CSV, svg=True, points=("p", "q"), grid="eps")
def _cmd_visibility_scan(args, cfg):
    dom = _domain(cfg)
    rep = visibility_scan(dom, _point(cfg, "p"), _point(cfg, "q"),
                          _grid(cfg, "eps", [1e-1, 1e-2, 1e-3]),
                          config=_solver(cfg))
    return {"report": rep}


@_command("k-point", "boundedness probe for k(z, W^c) + 1/2 log d(z)",
          _REPORT_CSV, svg=True, points=("p",), grid="eps",
          scalars=(("w_radius", float),))
def _cmd_k_point(args, cfg):
    dom = _domain(cfg)
    rep = k_point_probe(dom, _point(cfg, "p"),
                        _number(cfg, "w_radius"),
                        _grid(cfg, "eps", [1e-1, 1e-2, 1e-3, 1e-4]),
                        sphere_samples=_number(cfg, "sphere_samples", 64,
                                               integer=True))
    return {"report": rep}


@_command("growth-fit",
          "fit distance growth against log(1/boundary distance)",
          _REPORT_CSV, svg=True, points=("o",), scalars=(("samples", int),))
def _cmd_growth_fit(args, cfg):
    dom = _domain(cfg)
    o = _as_point(cfg["o"], "o") if "o" in cfg else dom.base_point
    rep = growth_fit(dom, o, _number(cfg, "samples", 40, integer=True),
                     seed=args.seed, config=_solver(cfg))
    return {"report": rep}


@_command("goldilocks", "metric degeneration rate M(r) and its tail law",
          _REPORT_CSV, svg=True, grid="r")
def _cmd_goldilocks(args, cfg):
    dom = _domain(cfg)
    rep = goldilocks_probe(dom, _grid(cfg, "r", [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]),
                           seed=args.seed,
                           anchors=_number(cfg, "anchors", 12, integer=True),
                           extra_directions=_number(cfg, "extra_directions", 4,
                                                    integer=True))
    return {"report": rep}


@_command("localize",
          "window lower bounds vs global uppers (overhead constant)",
          _REPORT_COLUMNS, points=("center",),
          scalars=(("u_radius", float), ("v_radius", float), ("pairs", int)))
def _cmd_localize(args, cfg):
    dom = _domain(cfg)
    rep = localization_check(dom, _point(cfg, "center"),
                             _number(cfg, "u_radius"),
                             _number(cfg, "v_radius"),
                             _number(cfg, "pairs", 100, integer=True),
                             seed=args.seed)
    return {"report": rep}


@_command("case-bidisc", "the bidisc double geodesic experiment",
          _REPORT_CSV, svg=True, grid="eps")
def _cmd_case_bidisc(args, cfg):
    return {"report": run_bidisc_case(_grid(cfg, "eps", [1e-2, 1e-3, 1e-4]))}


@_command("case-omega-psi", "the psi-profile visibility dichotomy experiment",
          _REPORT_CSV, svg=True, grid="eps",
          scalars=(("psi_form", str), ("c", float), ("alpha", float)))
def _cmd_case_omega_psi(args, cfg):
    dom = _psi_domain(args, cfg)
    rep = run_omega_psi_case(dom, _grid(cfg, "eps", [1e-1, 1e-2, 1e-3]),
                             seed=args.seed, config=_solver(cfg))
    params = {k: v for k, v in dom.to_json().items() if k != "kind"}
    return {"report": rep, "payload": {"params": params}}


@_command("balls-check", "minimal-basis box bound for a certified metric ball",
          "CSV columns: holds,margin", points=("q", "z"),
          scalars=(("r", float),))
def _cmd_balls_check(args, cfg):
    dom = _domain(cfg)
    holds, margin = balls_inequality_check(dom, _point(cfg, "q"),
                                           _point(cfg, "z"),
                                           _number(cfg, "r"),
                                           config=_solver(cfg))
    payload = {"holds": bool(holds), "margin": float(margin),
               "domain": dom.to_json()}
    csv = "holds,margin\n%s,%s\n" % (str(bool(holds)).lower(), _g17(margin))
    return {"payload": payload, "csv": csv}


@_command("sameheight", "boundary-hugging spread at fixed height vs face type",
          _REPORT_CSV, svg=True, points=("center",), grid="delta",
          scalars=(("radius", float), ("m_type", int)))
def _cmd_sameheight(args, cfg):
    dom = _domain(cfg)
    rep = sameheight_scaling(dom, _point(cfg, "center"),
                             _number(cfg, "radius"),
                             _grid(cfg, "delta", [3e-2, 1e-2, 3e-3, 1e-3]),
                             _number(cfg, "m_type", integer=True),
                             config=_solver(cfg))
    return {"report": rep}


# ---------------------------------------------------------------------------
# emission-time soundness recheck
# ---------------------------------------------------------------------------


def _recheck(node, path: str = "$") -> list:
    """Walk the outgoing JSON; every {lower, upper} pair must be finite
    (no NaN, no +-inf) and satisfy lower <= upper.  Returns human-readable
    problems."""
    problems = []
    if isinstance(node, dict):
        lo, hi = node.get("lower"), node.get("upper")
        if isinstance(lo, (int, float)):
            if isinstance(lo, float) and not math.isfinite(lo):
                problems.append(
                    f"{path}: lower is {'NaN' if math.isnan(lo) else lo}")
            if isinstance(hi, (int, float)):
                if isinstance(hi, float) and not math.isfinite(hi):
                    problems.append(
                        f"{path}: upper is {'NaN' if math.isnan(hi) else hi}")
                elif not lo <= hi:
                    problems.append(
                        f"{path}: certified lower {lo!r} exceeds upper {hi!r}")
        for key, val in node.items():
            problems += _recheck(val, f"{path}.{key}")
    elif isinstance(node, (list, tuple)):
        for i, val in enumerate(node):
            problems += _recheck(val, f"{path}[{i}]")
    return problems


# ---------------------------------------------------------------------------
# argument surface
# ---------------------------------------------------------------------------


def _seed(text: str) -> int:
    """``--seed``: numpy's generators take only non-negative seeds."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"the seed must be a non-negative integer, got {text}")
    return seed


@functools.cache
def _build_parser() -> _Parser:
    """The ``koblab`` parser, built once per process.

    Parsing leaves the parser unchanged, so every ``main`` call can share
    it; ``main`` looks each command's handler up in ``_COMMANDS`` when it
    runs, not through the parser.
    """
    common = _Parser(add_help=False)
    common.add_argument("--config", help="path to a JSON experiment config")
    common.add_argument("--out", default=None,
                        help="output directory (default: config output-dir "
                             "or the working directory)")
    common.add_argument("--seed", type=_seed, default=0,
                        help="seed for all random sampling, >= 0 "
                             "(default 0)")
    common.add_argument("--reproducible", action="store_true",
                        help="freeze the default label and drop the "
                             "metadata block so JSON output is byte-stable")
    common.add_argument("--threads", type=int, default=1, choices=[1],
                        metavar="THREADS",
                        help="accepted only as 1; grids run in order")
    common.add_argument("--label", default=None,
                        help="output label (default: UTC timestamp, or "
                             "'run' under --reproducible)")
    common.add_argument("--format", default=None,
                        choices=["json", "csv", "both"],
                        help="which tabular outputs to write (default both)")

    parser = _Parser(prog="koblab",
                     description="certified Kobayashi-geometry experiments")
    subs = parser.add_subparsers(dest="command", metavar="command")
    for name, command in _COMMANDS.items():
        sub = subs.add_parser(name, parents=[common], help=command.summary,
                              description=command.summary + ". "
                              + command.csv_doc)
        for point in command.points:
            sub.add_argument(f"--{point}",
                             help=f"point {point} as JSON, e.g. "
                                  '"[[0.5,0]]" or "[0.5,0.1]"')
        if command.grid is not None:
            sub.add_argument(f"--{command.grid}",
                             help=f"{command.grid} grid: comma list like "
                                  "1e-2,1e-3 or a JSON array")
        for flag, kind in command.scalars:
            sub.add_argument("--" + flag.replace("_", "-"), dest=flag,
                             type=kind)
    return parser


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (see --help)")
        command = _COMMANDS[args.command]
        cfg = _merge_config(args, command)
        cfg_label, cfg_dir = _text(cfg, "label"), _text(cfg, "output-dir")
        out = command.build(args, cfg)
    except (UsageError, GeometryError, OSError, json.JSONDecodeError) as exc:
        print(f"koblab: {exc}", file=sys.stderr)
        return 2

    label = args.label or cfg_label or \
        ("run" if args.reproducible else
         time.strftime("%Y%m%dT%H%M%SZ", time.gmtime()))
    fmt = args.format or cfg.get("format", "both")
    if fmt not in ("json", "csv", "both"):
        print(f"koblab: unknown format {fmt!r}", file=sys.stderr)
        return 2
    out_dir = args.out or cfg_dir or "."

    report = out.get("report")
    doc = {
        "schema": REPORT_SCHEMA,
        "command": args.command,
        "label": label,
        "seed": args.seed,
    }
    doc.update(out.get("payload", {}))
    if report is not None:
        doc["report"] = report.to_json()
    if not args.reproducible:
        doc["metadata"] = {"created": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime())}

    problems = _recheck({k: v for k, v in doc.items() if k != "metadata"})
    if problems:
        for problem in problems:
            print(f"koblab: soundness recheck failed: {problem}",
                  file=sys.stderr)
        return 3

    stem = f"{args.command}-{label}"
    try:
        os.makedirs(out_dir, exist_ok=True)
        wrote = []
        if fmt in ("json", "both"):
            path = os.path.join(out_dir, stem + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True, indent=2)
                fh.write("\n")
            wrote.append(path)
        if fmt in ("csv", "both"):
            csv_text = report.to_csv() if report is not None \
                else out.get("csv")
            if csv_text:
                path = os.path.join(out_dir, stem + ".csv")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(csv_text)
                wrote.append(path)
        if report is not None and command.svg:
            path = os.path.join(out_dir, stem + ".svg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(render_report_svg(report, title=stem))
            wrote.append(path)
    except OSError as exc:
        print(f"koblab: cannot write outputs: {exc}", file=sys.stderr)
        return 2

    for path in wrote:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
