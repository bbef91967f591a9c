"""The benchmark's three workloads: inputs from a seed, operations, checks.

``build(name, seed, workdir)`` returns a :class:`Workload`: a list of
operations that the runner times round after round, and an ``evaluate``
that checks one round's outputs against values computed apart from koblab
(see ``refs.py``) and returns the quality metrics.  Building imports koblab
and makes every input; it is what the set-up time measures, so ``refs`` and
mpmath are imported only inside ``evaluate``.

Depths are drawn in equal log strata, the two endpoints of pair j taking
strata 2j and 2j + 1, and the angles between the endpoints' directions in
equal strata too, so every seed gets the same mix of shallow and deep,
near and far pairs; the seed moves each input within its strata and draws
the rest of its direction.  That keeps per-seed round times and quality
means close.  The fixed panels and pairs below do not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("model-solves", "ellipsoid-sweep", "segment-cli")


@dataclass
class Op:
    """One timed call.  ``run`` is timed; ``collect`` turns its return value
    into a plain record after the round, outside the timer."""

    kind: str
    run: Callable[[], object]
    collect: Callable[[object], object] = lambda ret: ret
    data: dict = field(default_factory=dict)


@dataclass
class Evaluation:
    failed: set            # indices of operations that failed
    problems: list         # check violations on operations that did not fail
    quality: dict          # metric name -> value


@dataclass
class Workload:
    """``evaluate`` takes one record per op, None where the op raised."""

    ops: list
    evaluate: Callable[[list], Evaluation]


def build(name: str, seed: int, workdir: str) -> Workload:
    if name == "model-solves":
        return _model_solves(seed)
    if name == "ellipsoid-sweep":
        return _ellipsoid_sweep(seed)
    if name == "segment-cli":
        return _segment_cli(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def _log_strata(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """n log-uniform values in [lo, hi], one per equal stratum, ascending."""
    u = (np.arange(n) + rng.random(n)) / n
    return np.exp(math.log(lo) + u * math.log(hi / lo))


def _strided(n: int, steps=(5, 7, 11, 13)) -> np.ndarray:
    """0..n-1 visited with the first stride in ``steps`` prime to n: an
    order that pairs low and high strata of one draw with low and high
    strata of another alike, the same for every seed."""
    step = next(k for k in steps if math.gcd(k, n) == 1)
    return (np.arange(n) * step) % n


def _turn_strata(rng, n: int) -> np.ndarray:
    """n angles in (0, pi), one per equal stratum, in an order that pairs
    deep and shallow depth strata with wide and narrow turns alike."""
    return math.pi * (_strided(n) + rng.random(n)) / n


def _unit_complex(rng, n: int) -> np.ndarray:
    u = rng.standard_normal(2 * n)
    u /= np.linalg.norm(u)
    return u[0::2] + 1j * u[1::2]


def _mean_logs(rows) -> float:
    return float(np.mean([float(math.log(a / b)) for a, b in rows]))


def _quality(rows) -> dict:
    """rows of (lower, upper, k_ref) with exact k_ref."""
    return {"upper_log_excess": _mean_logs((u, k) for _, u, k in rows),
            "lower_log_gap": _mean_logs((k, lo) for lo, _, k in rows),
            "bracket_log_width": _mean_logs((u, lo) for lo, u, _ in rows)}


def _mpf_str(k) -> str:
    import mpmath
    return mpmath.nstr(k, 20)


def _inside(lower: float, upper: float, k) -> bool:
    return lower <= k <= upper      # exact: mpf compares with double exactly


# ---------------------------------------------------------------------------
# model-solves: solve_geodesic on the model domains, exact k_ref
# ---------------------------------------------------------------------------

MODEL_DEPTHS = (1e-4, 0.5)
# (domain, seeded light solves per round)
MODEL_MIX = (("disc", 30), ("polydisc", 18), ("ball", 18))
# Default-config solves (65 control points), about a third of a round, run
# on a fixed panel drawn once from a constant generator: on Disc and
# Polydisc such a solve converges to within ~1e-14 of the exact distance,
# and on some inputs the double-rounded certified upper lands below it (see
# CHANGES.md), so seeded ones would fail on some seeds and not others.
# Their cost also swings by a quarter with a pair's orientation alone.
# (domain, panel solves)
DEFAULT_PANEL = (("disc", 20), ("polydisc", 4), ("ball", 4))
DEFAULT_PANEL_RNG = (0, 3)
# Default-config pairs whose certified upper lands below the exact
# distance.  They do not depend on the seed, so each round fails the same
# number.
DEFAULT_FAULTS = (
    ("disc", ((-0.7991380764896782 + 0.6009476534841287j),),
     ((0.15135444827702565 - 0.6841758347650428j),)),
    ("disc", ((0.9620252966857937 + 0.27216100101151824j),),
     ((-0.9983644225319301 - 0.044707268084244495j),)),
    ("polydisc", ((0.8251957778387488 + 0.1745492107499727j),
                  (0.004367665462578808 + 0.999584025781447j)),
     ((0.6339952469263512 + 0.4456091778925824j),
      (-0.9994604436991741 + 0.02962781076663186j))),
    ("polydisc", ((0.327504479230309 - 0.5693479892585039j),
                  (-0.999788752463713 + 0.013945492716075234j)),
     ((-0.28990183045602125 - 0.6079461360905764j),
      (0.4275383408857966 - 0.8506030588234355j))),
)


# Light solves between deep points on different faces of the bidisc stop
# at the sweep cap up to a quarter above the exact distance, and how far
# above swings over decades with the points' phases.  Seeded pairs therefore
# hug one face, and this fixed panel carries the stalled cases, so the
# mean upper excess is set by inputs every seed shares.
POLYDISC_PANEL = tuple(
    ((1.0 - d, r0 * 1j), (r1 * complex(math.cos(a), math.sin(a)),
                          (1.0 - 3e-4) * complex(math.cos(b), math.sin(b))))
    for r0, d, r1, a, b in ((0.4, 1e-4, 0.4, 0.5, -1.0),
                            (0.2, 1e-4, 0.6, 0.5, -1.0),
                            (0.2, 3e-4, 0.4, 0.5, -1.0),
                            (0.2, 1e-4, 0.6, 0.5, 2.5),
                            (0.6, 1e-4, 0.6, 0.5, 2.5),
                            (0.2, 3e-4, 0.4, 2.0, 2.5)))


def _model_pair(kind: str, dim: int, depths, turn: float, rng):
    """Two points at the given depths whose directions are ``turn``
    radians apart; on the polydisc both sit deep in the same coordinate."""
    if kind == "polydisc":
        face = int(rng.integers(dim))
        pair = []
        for depth in depths:
            radii = (1.0 - depth) * np.sqrt(rng.random(dim))
            radii[face] = 1.0 - depth
            pair.append(radii * np.exp(2j * math.pi * rng.random(dim)))
        phase = np.angle(pair[0][face]) + turn
        pair[1][face] = (1.0 - depths[1]) * np.exp(1j * phase)
        return pair
    u = _unit_complex(rng, dim)
    if dim == 1:
        return (1.0 - depths[0]) * u, (1.0 - depths[1]) * u * np.exp(1j * turn)
    v = _unit_complex(rng, dim)
    v = v - np.vdot(u, v) * u            # complex-orthogonal to u
    v /= np.linalg.norm(v)
    # |<w, u>| = |cos(turn)|; the random phase keeps the pair off the
    # totally real planes, where the straight chord is already a geodesic
    w = np.exp(2j * math.pi * rng.random()) * math.cos(turn) * u \
        + math.sin(turn) * v
    return (1.0 - depths[0]) * u, (1.0 - depths[1]) * w


def _model_pairs(kind: str, dim: int, count: int, rng):
    depths = _log_strata(rng, 2 * count, *MODEL_DEPTHS)
    turns = _turn_strata(rng, count)
    return [_model_pair(kind, dim, depths[2 * j:2 * j + 2], turns[j], rng)
            for j in range(count)]


def _model_solves(seed: int) -> Workload:
    from koblab import solver
    from koblab.geometry import Ball, Disc, Polydisc

    domains = {"disc": (Disc(), "polydisc_distance"),
               "polydisc": (Polydisc(2), "polydisc_distance"),
               "ball": (Ball(2), "ball_distance")}
    light, default = solver.SolverConfig.light(), solver.SolverConfig()
    ops = []
    rng = np.random.default_rng([seed, 0])
    for kind, count in MODEL_MIX:
        dom, ref = domains[kind]
        for x, y in _model_pairs(kind, dom.dim, count, rng):
            ops.append(_solve_op(f"{kind}/light", dom, x, y, light, ref))
    dom, ref = domains["polydisc"]
    for x, y in POLYDISC_PANEL:
        ops.append(_solve_op("polydisc/light/panel", dom, np.array(x),
                             np.array(y), light, ref))
    panel_rng = np.random.default_rng(DEFAULT_PANEL_RNG)
    for kind, count in DEFAULT_PANEL:
        dom, ref = domains[kind]
        for x, y in _model_pairs(kind, dom.dim, count, panel_rng):
            ops.append(_solve_op(f"{kind}/default/panel", dom, x, y,
                                 default, ref))
    for kind, x, y in DEFAULT_FAULTS:
        dom, ref = domains[kind]
        ops.append(_solve_op(f"{kind}/default/fault", dom, np.array(x),
                             np.array(y), default, ref, known_fault=True))

    def evaluate(records) -> Evaluation:
        import refs
        failed, problems, rows = set(), [], []
        for i, (op, rec) in enumerate(zip(ops, records)):
            if rec is None:
                continue
            lower, upper = rec[0], rec[1]
            k = getattr(refs, op.data["ref"])(op.data["x"], op.data["y"])
            if _inside(lower, upper, k):
                rows.append((lower, upper, k))
            elif op.data["known_fault"]:
                failed.add(i)
            else:
                problems.append(f"op {i} ({op.kind}): [{lower!r}, {upper!r}] "
                                f"excludes k_ref {_mpf_str(k)}")
        return Evaluation(failed, problems, _quality(rows))

    return Workload(ops, evaluate)


# Ops look koblab's functions up on their modules at call time, so the
# traced run's wrappers (installed on those modules) see every call.

def _solve_op(kind, dom, x, y, cfg, ref, known_fault=False):
    from koblab import solver
    return Op(kind, lambda: solver.solve_geodesic(dom, x, y, cfg),
              lambda r: (r.distance.lower, r.distance.upper, r.iterations,
                         r.converged),
              {"x": x, "y": y, "ref": ref, "known_fault": known_fault})


# ---------------------------------------------------------------------------
# ellipsoid-sweep: distance_bracket on ellipsoids, k_ref = rescaled ball
# ---------------------------------------------------------------------------

ELLIPSOIDS = ((1.0, 2.0), (1.0, 1.5, 3.0))
ELLIPSOID_DEPTHS = (1e-4, 0.3)
PAIRS_PER_ELLIPSOID = 80

# First endpoints on the z2-axis up to a rounding-size z1.  The projection
# onto the ellipsoid mishandles a minimal-axis coordinate below ~1e-16
# (see CHANGES.md), which makes these brackets exclude the exact distance.
# They do not depend on the seed, so each round fails the same number.
AXIS_PAIRS = (
    ((1e-17, 0.5), (0.3, -0.5)),
    ((1e-17, 0.5), (-0.2 + 0.1j, 0.9j)),
    ((2e-17, 0.8j), (0.1j, -1.0)),
    ((1e-17j, -0.7j), (0.5, 0.1)),
)


def _ellipsoid_point(axes: np.ndarray, depth: float,
                     direction: np.ndarray) -> np.ndarray:
    # the boundary point in the given direction moved inward along its
    # normal; depth stays below the smallest curvature radius
    # min(a)^2 / max(a) >= 1/3
    p = direction / math.sqrt(float(np.sum(np.abs(direction) ** 2
                                           / axes ** 2)))
    normal = p / axes ** 2
    return p - depth * normal / np.linalg.norm(normal)


def _ellipsoid_sweep(seed: int) -> Workload:
    from koblab.geometry import Ellipsoid

    rng = np.random.default_rng([seed, 1])
    ops = []
    for axes in ELLIPSOIDS:
        dom, a = Ellipsoid(axes), np.asarray(axes)
        depths = _log_strata(rng, 2 * PAIRS_PER_ELLIPSOID, *ELLIPSOID_DEPTHS)
        turns = _turn_strata(rng, PAIRS_PER_ELLIPSOID)
        for j in range(PAIRS_PER_ELLIPSOID):
            u, w = _model_pair("ball", len(axes), (0.0, 0.0), turns[j], rng)
            x = _ellipsoid_point(a, depths[2 * j], u)
            y = _ellipsoid_point(a, depths[2 * j + 1], w)
            ops.append(_bracket_op(f"ellipsoid{len(axes)}", dom, axes, x, y))
    dom = Ellipsoid(ELLIPSOIDS[0])
    for x, y in AXIS_PAIRS:
        ops.append(_bracket_op("axis-pair", dom, ELLIPSOIDS[0],
                               np.array(x, dtype=complex),
                               np.array(y, dtype=complex), known_fault=True))

    def evaluate(records) -> Evaluation:
        import refs
        failed, problems, rows = set(), [], []
        for i, (op, rec) in enumerate(zip(ops, records)):
            if rec is None:
                continue
            lower, upper = rec
            k = refs.ellipsoid_distance(op.data["x"], op.data["y"],
                                        op.data["axes"])
            if _inside(lower, upper, k):
                rows.append((lower, upper, k))
            elif op.data["known_fault"]:
                failed.add(i)
            else:
                problems.append(f"op {i} ({op.kind}): [{lower!r}, {upper!r}] "
                                f"excludes k_ref {_mpf_str(k)}")
        return Evaluation(failed, problems, _quality(rows))

    return Workload(ops, evaluate)


def _bracket_op(kind, dom, axes, x, y, known_fault=False):
    from koblab import metric
    return Op(kind, lambda: metric.distance_bracket(dom, x, y),
              lambda br: (br.lower, br.upper),
              {"x": x, "y": y, "axes": axes, "known_fault": known_fault})


# ---------------------------------------------------------------------------
# segment-cli: the Omega_psi case study through koblab.cli.main
# ---------------------------------------------------------------------------

CAP_RADIUS = 3.0
EXP_DOMAIN = {"kind": "omega_psi",
              "psi": {"form": "exp_neg_c_over_x", "c": math.pi},
              "chi1": 1.0, "chi2": 1.0, "cap_radius": CAP_RADIUS}
LOGPOW_DOMAIN = {"kind": "omega_psi",
                 "psi": {"form": "exp_neg_inv_log_pow", "alpha": 2.0},
                 "chi1": 1.0, "chi2": 1.0, "cap_radius": CAP_RADIUS}
LIGHT_SOLVER = {"control_points": 9, "max_iter": 400, "rel_tol": 1e-4}
CONFIGS = {
    "exp": {"domain": EXP_DOMAIN},
    "exp-light": {"domain": EXP_DOMAIN, "solver": LIGHT_SOLVER},
    "logpow": {"domain": LOGPOW_DOMAIN},
    "logpow-small": {"domain": LOGPOW_DOMAIN, "anchors": 2,
                     "extra_directions": 0},
}
# seeded pairs (i y, eps) near the flat segment, per profile and command
SEGMENT_MIX = (("exp", "distance", 75), ("exp", "gromov", 3),
               ("logpow", "distance", 16), ("logpow", "gromov", 1))
SEGMENT_Y = 1.8                 # |Im z1| of the pairs
SEGMENT_GAP = (0.05, 3.0)       # |y - y'|, in log strata
SEGMENT_EPS = (1e-3, 1e-1)
BASE = [[0.0, 0.0], [1.0, 0.0]]           # o = (0, 1)
# Half-widths of the product domains inside Omega_psi that give the
# independent distance upper (``refs.omega_psi_inner_upper``): each profile
# is increasing and uncontinued there, below its convexity cut (pi/2 for
# exp(-pi/x), 0.0177 for the log-power profile with alpha = 2).
HALF_WIDTHS = {"exp_neg_c_over_x": tuple(np.geomspace(0.05, 1.2, 24)),
               "exp_neg_inv_log_pow": tuple(np.geomspace(2e-4, 0.015, 24))}


def _pt(y: float, eps: float) -> str:
    return json.dumps([[0.0, y], [eps, 0.0]])


def _segment_cli(seed: int, workdir: str) -> Workload:
    from koblab import cli

    paths = {}
    for name, cfg in CONFIGS.items():
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)

    rng = np.random.default_rng([seed, 2])
    argvs = []
    for profile, command, count in SEGMENT_MIX:
        # gaps and midpoints in strata, crossed with the depth strata in a
        # fixed order, so an op's cost class does not depend on the seed
        gaps = _log_strata(rng, count, *SEGMENT_GAP)[_strided(count)]
        mids = (2 * _strided(count, (3, 5, 7)) + 2 * rng.random(count)) \
            / count - 1.0
        eps = _log_strata(rng, 2 * count, *SEGMENT_EPS)
        for j in range(count):
            mid = (SEGMENT_Y - gaps[j] / 2) * mids[j]
            y = mid + gaps[j] / 2 * rng.choice((-1.0, 1.0)) * np.array([1, -1])
            argv = [command, "--config", paths[profile],
                    "--x", _pt(y[0], eps[2 * j]),
                    "--y", _pt(y[1], eps[2 * j + 1])]
            if command == "gromov":
                argv += ["--o", json.dumps(BASE)]
            argvs.append(argv)
    argvs.append(list(argvs[0]))        # the reproducibility twin of op 0
    argvs += [
        ["geodesic", "--config", paths["exp-light"],
         "--x", _pt(0.2, 5e-2), "--y", _pt(-0.2, 5e-2)],
        ["visibility-scan", "--config", paths["exp-light"],
         "--p", json.dumps([[0.0, 1.0], [0.0, 0.0]]),
         "--q", json.dumps([[0.0, -1.0], [0.0, 0.0]]), "--eps", "1e-1"],
        ["case-omega-psi", "--psi-form", "exp_neg_c_over_x",
         "--c", repr(math.pi)],
        ["goldilocks", "--config", paths["logpow-small"],
         "--r", "1e-1,1e-2"],
    ]
    twin = sum(c for _, _, c in SEGMENT_MIX)

    domain_of = {paths[name]: cfg["domain"] for name, cfg in CONFIGS.items()}
    ops = []
    for i, argv in enumerate(argvs):
        out = os.path.join(workdir, f"op{i:03d}")
        full = argv + ["--out", out, "--reproducible", "--threads", "1",
                       "--seed", "0"]
        doc_path = os.path.join(out, f"{argv[0]}-run.json")
        domain = (domain_of[argv[argv.index("--config") + 1]]
                  if "--config" in argv else None)
        ops.append(Op(argv[0], lambda a=full: _quiet_main(cli.main, a),
                      lambda rc, p=doc_path: (rc, _read(p) if rc == 0
                                              else b""),
                      {"domain": domain}))

    def evaluate(records) -> Evaluation:
        import refs
        problems, rows = [], []
        for i, (op, rec) in enumerate(zip(ops, records)):
            if rec is None:
                continue
            rc, raw = rec
            if rc != 0:
                problems.append(f"op {i} ({op.kind}) exited with {rc}")
                continue
            doc = json.loads(raw)
            problems += [f"op {i} ({op.kind}): {p}" for p in _crossings(doc)]
            for lower, upper, x, y in _distance_brackets(op.kind, doc):
                k_cont = max(refs.omega_psi_containing_lowers(x, y,
                                                              CAP_RADIUS))
                k_sub = _inner_upper(refs, op.data["domain"], x, y)
                if not upper >= k_cont:
                    problems.append(
                        f"op {i} ({op.kind}): upper {upper!r} is below the "
                        f"containing-domain bound {_mpf_str(k_cont)}")
                if k_sub is not None and not lower <= k_sub:
                    problems.append(
                        f"op {i} ({op.kind}): lower {lower!r} is above the "
                        f"inner-domain bound {_mpf_str(k_sub)}")
                if lower > 0.0 and k_sub is not None:
                    rows.append((lower, upper, k_cont, k_sub))
            problems += [f"op {i} ({op.kind}): {p}"
                         for p in _case_checks(op.kind, doc)]
        if records[twin] != records[0]:
            problems.append("the same distance call wrote different JSON")
        # no exact distance is known on Omega_psi: the upper is measured
        # against the containing-domain lower and the lower against the
        # inner-domain upper, so both figures over-state koblab's own error
        quality = {
            "upper_log_excess": _mean_logs((u, kc) for _, u, kc, _ in rows),
            "lower_log_gap": _mean_logs((ks, lo) for lo, _, _, ks in rows),
            "bracket_log_width": _mean_logs((u, lo) for lo, u, _, _ in rows)}
        return Evaluation(set(), problems, quality)

    return Workload(ops, evaluate)


def _inner_upper(refs, domain, x, y):
    """The inner-domain distance upper on the op's Omega_psi, or None."""
    if domain is None:
        return None
    psi = domain["psi"]
    form = psi["form"]
    param = psi["c"] if form == "exp_neg_c_over_x" else psi["alpha"]
    return refs.omega_psi_inner_upper(x, y, form, param, domain["chi2"],
                                      domain["cap_radius"], HALF_WIDTHS[form])


def _quiet_main(main, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _point(pairs) -> tuple:
    return tuple(complex(re, im) for re, im in pairs)


def _crossings(node, where="$") -> list:
    """Every emitted {lower, upper} pair must satisfy lower <= upper."""
    out = []
    if isinstance(node, dict):
        lo, hi = node.get("lower"), node.get("upper")
        if isinstance(lo, (int, float)) and isinstance(hi, (int, float)) \
                and not lo <= hi:
            out.append(f"{where}: lower {lo!r} > upper {hi!r}")
        for key, val in node.items():
            out += _crossings(val, f"{where}.{key}")
    elif isinstance(node, list):
        for j, val in enumerate(node):
            out += _crossings(val, f"{where}[{j}]")
    return out


def _distance_brackets(kind: str, doc: dict):
    """(lower, upper, x, y) for every distance bracket a document emits."""
    if kind in ("distance", "geodesic"):
        br = doc if kind == "distance" else doc["distance"]
        yield br["lower"], br["upper"], _point(doc["x"]), _point(doc["y"])
    elif kind == "visibility-scan":
        for s in doc["report"]["samples"]:
            yield (s["lower"], s["upper"], _point(s["inputs"]["p_eps"]),
                   _point(s["inputs"]["q_eps"]))


def _case_checks(kind: str, doc: dict) -> list:
    import refs
    out = []
    if kind == "case-omega-psi":
        rep, c = doc["report"], doc["params"]["psi"]["c"]
        if (rep["verdict"], rep["detail"]) != ("consistent",
                                               "product-divergence-trend"):
            out.append(f"verdict {rep['verdict']!r}, {rep['detail']!r}")
        for s in rep["samples"]:
            eps = s["grid_value"]
            for got, want in (
                    (s["lower"], refs.divergence_product_lower(c, eps)),
                    (s["inputs"]["pair_upper"],
                     refs.divergence_pair_upper(c, eps))):
                if not abs(got - want) <= 1e-9:
                    out.append(f"eps={eps}: {got!r} != closed form "
                               f"{_mpf_str(want)}")
    elif kind == "goldilocks":
        if doc["report"]["detail"] != "integrable-tail":
            out.append(f"goldilocks detail {doc['report']['detail']!r}")
    return out
