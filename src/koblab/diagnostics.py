"""Boundary-behavior probes: products, residuals, visibility, k-points.

Every probe is a pure function from a domain and a parameter grid to a
:class:`ProbeReport`.  Two rules shape the module:

* samples carry certified two-sided brackets wherever a bracket exists;
  point estimates appear only as labelled statistics (sampled suprema,
  fitted exponents), never dressed up as certified values;
* the verdict ``"violated"`` is reserved for a certified lower bound
  strictly exceeding a certified upper bound of the same claimed
  inequality.  Trends (decay of a floor, divergence of a product) come back
  as ``"consistent"``/``"inconclusive"`` with the fitted law attached,
  because a finite grid cannot prove a limit statement and the reports
  should not pretend otherwise.

Windows and regions are euclidean balls throughout: they reproduce from a
center and a radius, which is all the experiments need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Domain,
    GeometryError,
    LocalizedDomain,
    OmegaPsi,
    Polydisc,
    _null_basis,
    _unit_directions,
    as_carray,
    complex_view,
    ray_exit,
    to_pairs,
)
from .metric import (
    MetricBracket,
    SignedBracket,
    distance_bracket,
    distance_lower_bound,
)
from .solver import SolverConfig, solve_geodesic

__all__ = [
    "REPORT_SCHEMA",
    "VERDICTS",
    "SignedBracket",
    "ProbeSample",
    "ProbeReport",
    "gromov_product",
    "log_estimate_residual",
    "visibility_scan",
    "k_point_probe",
    "growth_fit",
    "goldilocks_probe",
    "localization_check",
    "balls_inequality_check",
    "sameheight_scaling",
]

REPORT_SCHEMA = "koblab-report/1"

VERDICTS = ("consistent", "violated", "inconclusive")

_FLOOR_NOTE = ("the positive-floor statistic stands in for a fixed compact "
               "set, so verdicts are consistency evidence, not proofs")


def _g17(x: float) -> str:
    """Floats in CSV keep 17 significant digits (round-trip exact)."""
    return "%.17g" % float(x)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


@dataclass
class ProbeSample:
    """One grid record: the certified sides plus the probe's statistic.

    ``lower`` and ``upper`` are the certified sides the statistic was built
    from; which quantity they bound is fixed per probe and stated in the
    report notes.  ``upper`` may be None when no certified upper exists for
    a sample (serialized as null / nan).
    """

    grid_value: float
    lower: float
    upper: float | None
    statistic: float
    flags: tuple = ()
    inputs: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "grid_value": float(self.grid_value),
            "lower": float(self.lower),
            "upper": None if self.upper is None else float(self.upper),
            "statistic": float(self.statistic),
            "flags": list(self.flags),
            "inputs": self.inputs,
        }

    def csv_row(self) -> str:
        upper = math.nan if self.upper is None else self.upper
        return ",".join([
            _g17(self.grid_value),
            _g17(self.lower),
            _g17(upper),
            _g17(self.statistic),
            ";".join(self.flags),
        ])


@dataclass
class ProbeReport:
    """The uniform result record every probe returns.

    ``verdict`` is one of ``consistent``/``violated``/``inconclusive``;
    ``detail`` carries the probe-specific refinement (e.g.
    ``consistent-with-visibility``, ``integrable-tail``).
    """

    probe_kind: str
    grid: list
    samples: list
    fitted_parameters: dict
    verdict: str
    detail: str = ""
    notes: list = field(default_factory=list)

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise GeometryError(f"unknown verdict {self.verdict!r}")
        self.grid = [float(g) for g in self.grid]

    def to_json(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "probe_kind": self.probe_kind,
            "grid": self.grid,
            "samples": [s.to_json() for s in self.samples],
            "fitted_parameters": self.fitted_parameters,
            "verdict": self.verdict,
            "detail": self.detail,
            "notes": list(self.notes),
        }

    def to_csv(self) -> str:
        lines = ["grid,lower,upper,statistic,flags"]
        lines.extend(s.csv_row() for s in self.samples)
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# fitting helpers
# ---------------------------------------------------------------------------


def _finest_half(values: np.ndarray) -> np.ndarray:
    """Indices of the smallest half of a parameter grid (at least 2)."""
    order = np.argsort(np.asarray(values, dtype=float))
    return order[: max(2, len(order) // 2)]


def _linear_fit(xs, ys):
    """Least-squares line ys ~ a*xs + b -> (a, b, rms residual)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 2 or float(np.ptp(xs)) < 1e-12:
        raise GeometryError("degenerate regression: the abscissa does not vary")
    design = np.vstack([xs, np.ones_like(xs)]).T
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    resid = ys - design @ coef
    return float(coef[0]), float(coef[1]), float(np.sqrt(np.mean(resid ** 2)))


def _power_fit(xs, ys):
    """Least-squares power law ys ~ C * xs**e -> (e, C, rms of log residual)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise GeometryError("power-law fit needs positive data")
    slope, intercept, rms = _linear_fit(np.log(xs), np.log(ys))
    return slope, math.exp(intercept), rms


def _positive_grid(values, name: str) -> list:
    """The grid as floats: non-empty, every value positive (so no NaN)."""
    grid = [float(v) for v in values]
    if not grid or not all(v > 0.0 for v in grid):
        raise GeometryError(f"the {name} grid must be positive and non-empty")
    return grid


def _pair_bracket(domain: Domain, x, y, config: SolverConfig | None = None
                  ) -> MetricBracket:
    """Certified distance bracket: on models the closed form widened by
    its rounding bound (``distance_bracket``), engine bounds otherwise.

    With a solver config the upper side on a non-model domain comes from
    the geodesic search (tighter); without one it is the subdivided
    straight-chord bound (fast and still certified).
    """
    if config is None or domain.exact:
        return distance_bracket(domain, x, y)
    return solve_geodesic(domain, x, y, config).distance


# ---------------------------------------------------------------------------
# products and residuals
# ---------------------------------------------------------------------------


def gromov_product(domain: Domain, x, y, o, config: SolverConfig | None = None
                   ) -> MetricBracket:
    """Certified bracket for (x|y)_o = 1/2 [k(x,o) + k(o,y) - k(x,y)].

    Lower side: pair lower bounds against the cross-pair upper; upper side
    the other way around.  The product is nonnegative by the triangle
    inequality, so flooring the bracket at 0 keeps it certified.
    """
    x, y, o = (domain._interior(p) for p in (x, y, o))
    xo = _pair_bracket(domain, x, o, config)
    oy = _pair_bracket(domain, o, y, config)
    xy = _pair_bracket(domain, x, y, config)
    lower = 0.5 * (xo.lower + oy.lower - xy.upper)
    upper = 0.5 * (xo.upper + oy.upper - xy.lower)
    upper = max(0.0, upper)
    lower = min(max(0.0, lower), upper)
    return MetricBracket(lower, upper)


def log_estimate_residual(domain: Domain, x, y,
                          k_bracket: MetricBracket | None = None
                          ) -> SignedBracket:
    """Certified bracket for 1/2 log(1/d(x)) + 1/2 log(1/d(y)) - k(x, y),
    writing d for the boundary distance.

    The upper side pairs certified lower bounds of the boundary distances
    with the distance bracket's lower side, so by construction

        upper = 1/2 log(1/ir(x)) + 1/2 log(1/ir(y)) - k_lower

    with ``ir`` the certified inner radius (equal to the boundary distance
    on model domains).  ``k_bracket`` substitutes an externally certified
    distance bracket — an analytic upper bound, say — for the engine's.
    """
    x, y = as_carray(x), as_carray(y)
    if not (domain.contains(x) and domain.contains(y)):
        raise GeometryError("log_estimate_residual needs interior points")
    ir_x, ir_y = domain.inner_radius_fast(x), domain.inner_radius_fast(y)
    bd_x, bd_y = domain.boundary_distance(x), domain.boundary_distance(y)
    if min(ir_x, ir_y) <= 0.0:
        raise GeometryError("cannot certify the boundary distance of a point "
                            "this close to the boundary")
    sum_lower = 0.5 * (math.log(1.0 / bd_x) + math.log(1.0 / bd_y))
    sum_upper = 0.5 * (math.log(1.0 / ir_x) + math.log(1.0 / ir_y))
    k = k_bracket if k_bracket is not None else _pair_bracket(domain, x, y)
    return SignedBracket(sum_lower - k.upper, sum_upper - k.lower)


# ---------------------------------------------------------------------------
# visibility scans
# ---------------------------------------------------------------------------


def visibility_scan(domain: Domain, p, q, eps_grid, approach="normal",
                    path_supplier=None, config: SolverConfig | None = None
                    ) -> ProbeReport:
    """Track how deep paths between boundary-approaching pairs travel.

    For each eps the probe solves a geodesic between the offset points
    p_eps, q_eps (or accepts a path from ``path_supplier``) and records the
    path's maximum boundary distance.  A sequence staying above a positive
    floor is consistent with every such geodesic meeting a fixed compact
    set; a power-law decay to 0 is consistent with visibility failing.
    Neither direction is a proof, and the report says so.

    ``approach`` is ``"normal"`` (inward-normal offsets) or a callable
    ``eps -> (p_eps, q_eps)``.
    """
    p, q = domain._point(p), domain._point(q)
    if float(np.linalg.norm(p - q)) <= 1e-9:
        raise GeometryError("visibility_scan needs two distinct boundary points")
    eps_grid = _positive_grid(eps_grid, "eps")

    if callable(approach):
        pair_at, approach_name = approach, "custom"
    elif approach == "normal":
        dir_p = -domain.supporting_normal(p)
        dir_q = -domain.supporting_normal(q)
        for direction in (dir_p, dir_q):
            if not np.all(np.isfinite(direction)) or \
                    float(np.linalg.norm(direction)) < 1e-9:
                raise GeometryError("degenerate approach direction")

        def pair_at(eps):
            return p + eps * dir_p, q + eps * dir_q

        approach_name = "normal"
    else:
        raise GeometryError(f"unknown approach {approach!r}")

    cfg = config if config is not None else SolverConfig.light()

    def evaluate(eps: float) -> ProbeSample:
        if path_supplier is not None:
            path = path_supplier(eps)
            stat = float(np.max(path.boundary_distances()))
            return ProbeSample(eps, path.lower_length, path.upper_length, stat,
                               ("supplied-path",),
                               {"eps": eps, "points": int(len(path.points))})
        pe, qe = pair_at(eps)
        pe, qe = as_carray(pe), as_carray(qe)
        if not (domain.contains(pe) and domain.contains(qe)):
            raise GeometryError(f"the approach left the domain at eps={eps}")
        result = solve_geodesic(domain, pe, qe, cfg)
        return ProbeSample(eps, result.distance.lower, result.distance.upper,
                           result.max_boundary_distance, (),
                           {"eps": eps, "p_eps": to_pairs(pe),
                            "q_eps": to_pairs(qe),
                            "converged": bool(result.converged)})

    samples = [evaluate(eps) for eps in eps_grid]
    stats = np.array([s.statistic for s in samples])
    fitted: dict = {}
    notes = [_FLOOR_NOTE, f"approach={approach_name}",
             "sample lower/upper are the path-length bracket; the statistic "
             "is the path's maximum boundary distance"]
    if len(samples) < 2:
        verdict, detail = "inconclusive", "single-sample"
    else:
        smax, smin = float(np.max(stats)), float(np.min(stats))
        ratio = smin / smax if smax > 0.0 else 0.0
        fitted["floor"] = smin
        fitted["decay_ratio"] = ratio
        exponent = None
        if np.all(stats > 0.0):
            idx = _finest_half(eps_grid)
            try:
                exponent, prefactor, rms = _power_fit(
                    np.asarray(eps_grid)[idx], stats[idx])
                fitted.update(exponent=exponent, prefactor=prefactor,
                              fit_rms=rms)
            except GeometryError:
                pass
        if smin > 0.3 * smax and smin > 1e-6:
            verdict, detail = "consistent", "consistent-with-visibility"
        elif ratio <= 0.15 and exponent is not None and exponent >= 0.2:
            verdict, detail = "consistent", "consistent-with-failure"
        else:
            verdict, detail = "inconclusive", "no-clear-trend"
    return ProbeReport("visibility-scan", eps_grid, samples, fitted,
                       verdict, detail, notes)


# ---------------------------------------------------------------------------
# k-point probe
# ---------------------------------------------------------------------------


def k_point_probe(domain: Domain, p, w_radius: float, eps_grid,
                  sphere_samples: int = 64) -> ProbeReport:
    """Probe whether k_D(z, W^c) + 1/2 log d(z) stays bounded as z -> p.

    W is the euclidean ball of radius ``w_radius`` around the boundary
    point p, and z = p + eps * (inward normal).  Any path from z to the
    complement of W crosses the sphere inside the domain, so the escape
    cost is charged as the min over sphere samples of certified pair lower
    bounds; the sphere is sampled at ``sphere_samples`` deterministic
    points (plus the signed coordinate axes) pushed 1e-5 inward.  Each term
    is certified for its witness, but the min over finitely many witnesses
    stands in for the sphere infimum, and refining the sample can only
    lower it — re-check verdicts under doubling.
    """
    p = as_carray(p)
    w_radius = float(w_radius)
    if w_radius <= 0.0:
        raise GeometryError("the window radius must be positive")
    if sphere_samples < 0:
        raise GeometryError(
            f"'sphere_samples' must be >= 0, got {sphere_samples}")
    eps_grid = _positive_grid(eps_grid, "eps")
    if any(e >= w_radius for e in eps_grid):
        raise GeometryError("eps must stay inside the window (eps < w_radius)")

    inward = -domain.supporting_normal(p)
    base = domain.base_point

    # sphere witnesses: w_in certifies the crossing cost from inside, w_out
    # (just outside the window, when still in the domain) certifies an upper.
    # Signed axis directions come first: they hit flat boundary pieces
    # exactly in the tangent, where the cheap escapes live.
    axes = np.eye(2 * domain.dim)
    sphere = np.vstack([axes, -axes,
                        _unit_directions(2 * domain.dim, sphere_samples)])
    witnesses = []
    for u in sphere:
        direction = complex_view(u)
        w = p + w_radius * direction
        pull = base - w
        pull_norm = float(np.linalg.norm(pull))
        if pull_norm == 0.0:
            continue
        w_in = w + (1e-5 / pull_norm) * pull
        if domain.inner_radius_fast(w_in) <= 0.0:   # as it is outside D
            continue
        w_out = p + (w_radius + 1e-6) * direction
        witnesses.append((w_in, w_out if domain.contains(w_out) else None))
    if not witnesses:
        raise GeometryError("no interior samples on the window sphere; the "
                            "window may swallow the domain entirely")

    def evaluate(eps: float) -> ProbeSample:
        z = p + eps * inward
        if not domain.contains(z):
            raise GeometryError(f"the normal approach left the domain at eps={eps}")
        ir_z = domain.inner_radius_fast(z)
        bd_z = domain.boundary_distance(z)
        if ir_z <= 0.0:
            raise GeometryError("cannot certify the boundary distance at the "
                                "probe point")
        lows = [distance_lower_bound(domain, z, w_in)
                for w_in, _ in witnesses]
        stat = min(lows) + 0.5 * math.log(ir_z)
        upper = None
        for j in np.argsort(lows):
            w_out = witnesses[int(j)][1]
            if w_out is not None:
                upper = (distance_bracket(domain, z, w_out).upper
                         + 0.5 * math.log(bd_z))
                break
        return ProbeSample(eps, stat, upper, stat, (),
                           {"eps": eps, "z": to_pairs(z), "delta": bd_z,
                            "witnesses": len(witnesses)})

    samples = [evaluate(eps) for eps in eps_grid]
    stats = np.array([s.statistic for s in samples])
    fitted: dict = {}
    notes = ["min over sphere samples can only drop under refinement; "
             "re-check verdicts with sphere_samples doubled",
             "sample lower is the certified statistic; sample upper swaps in "
             "an exterior witness and the sampled boundary distance"]
    if len(samples) < 2:
        verdict, detail = "inconclusive", "single-sample"
    else:
        eps_arr = np.asarray(eps_grid)
        order = np.argsort(-eps_arr)          # coarse -> fine
        drop = float(stats[order[0]] - stats[order[-1]])
        slope, _, _ = _linear_fit(np.log(1.0 / eps_arr), stats)
        fitted.update(slope_vs_log_inv_eps=slope, drop=drop,
                      floor=float(np.min(stats)))
        fine = _finest_half(eps_arr)
        coarse = [i for i in range(len(eps_arr)) if i not in set(int(j) for j in fine)]
        if coarse and float(np.min(stats[fine])) >= float(np.min(stats[coarse])) - 0.25:
            verdict, detail = "consistent", "bounded-below"
        elif drop >= 1.0 and slope <= -0.2:
            verdict, detail = "consistent", "unbounded-below-trend"
        else:
            verdict, detail = "inconclusive", "no-clear-trend"
    return ProbeReport("k-point", eps_grid, samples, fitted, verdict, detail,
                       notes)


# ---------------------------------------------------------------------------
# growth fit
# ---------------------------------------------------------------------------


def growth_fit(domain: Domain, o, n_samples: int, seed: int = 0,
               points=None, config: SolverConfig | None = None) -> ProbeReport:
    """Fit certified uppers of k_D(o, z) against log(1/d(z)) near the boundary.

    Samples target boundary distances log-uniform in [1e-5, 1e-1] along
    chords from boundary anchors toward o; the least-squares slope over the
    finest half of the sample is the fitted growth exponent alpha
    (one half for the smooth model domains).  ``points`` overrides the
    sampling with caller-chosen interior points.
    """
    o = as_carray(o)
    if not domain.contains(o):
        raise GeometryError("growth_fit needs an interior base point")
    if points is None:
        if n_samples < 8:
            raise GeometryError("insufficient samples (< 8)")
        rng = np.random.default_rng(seed)
        anchors = domain.boundary_anchor_points(n_samples, rng)
        exponents = rng.uniform(-5.0, -1.0, size=n_samples)
        pts = []
        for b, e in zip(anchors, exponents):
            chord = o - b
            length = float(np.linalg.norm(chord))
            if length == 0.0:
                continue
            z = b + (min(10.0 ** e, 0.9 * length) / length) * chord
            if domain.contains(z):
                pts.append(z)
    else:
        pts = [as_carray(z) for z in points]
        for z in pts:
            if not domain.contains(z):
                raise GeometryError("growth_fit points must be interior")
    if len(pts) < 8:
        raise GeometryError("insufficient samples (< 8)")

    deltas = np.array([domain.boundary_distance(z) for z in pts])
    brackets = [_pair_bracket(domain, o, z, config) for z in pts]
    uppers = np.array([br.upper for br in brackets])

    order = np.argsort(-deltas)               # coarse -> fine in the report
    samples = [ProbeSample(float(deltas[i]), brackets[i].lower,
                           brackets[i].upper, float(uppers[i]), (),
                           {"z": to_pairs(pts[i])})
               for i in order]
    idx = _finest_half(deltas)
    alpha, intercept, rms = _linear_fit(np.log(1.0 / deltas[idx]), uppers[idx])
    fitted = {"alpha": alpha, "intercept": intercept, "fit_rms": rms,
              "n_fit": int(len(idx))}
    verdict = "consistent" if rms < 0.5 else "inconclusive"
    return ProbeReport("growth-fit", [float(deltas[i]) for i in order],
                       samples, fitted, verdict, f"alpha={alpha:.3f}",
                       ["alpha fitted on the finest half of the sample",
                        "sample lower/upper bracket k(o, z); the statistic "
                        "is the fitted upper side"])


# ---------------------------------------------------------------------------
# metric degeneration (integrability) probe
# ---------------------------------------------------------------------------


def goldilocks_probe(domain: Domain, r_grid, seed: int = 0,
                     anchors: int = 12, extra_directions: int = 4
                     ) -> ProbeReport:
    """Estimate the degeneration rate M(r) = sup {1/kappa : d(x) <= r}.

    1/kappa lies in [t, 2t] for t the directional boundary distance, so
    over the sampled points and directions the bracket [max t, 2 max t] is
    certified and the statistic M_hat = 2 max t over-estimates their
    supremum; the band supremum itself is only sampled (more anchors can
    only raise it).  The report integrates M_hat(r)/r over the grid and
    fits the tail law M ~ r^beta on the finest half: beta >= 0.1 is tagged
    ``integrable-tail``.  Flatter tails get a second look before being
    called divergent, because integrability is decided below every power:
    with L = log(1/r) the model M ~ 1/(L (log L)^gamma) is integrable
    exactly when gamma > 1, so the refit of log M + log L against
    log log L separates a genuinely divergent ~1/L tail (gamma near 0)
    from one that merely degenerates slower than any power.
    """
    r_grid = _positive_grid(r_grid, "r")
    if any(r_grid[i] <= r_grid[i + 1] for i in range(len(r_grid) - 1)):
        raise GeometryError("the r grid must decrease strictly")
    if extra_directions < 0:
        raise GeometryError(
            f"'extra_directions' must be >= 0, got {extra_directions}")
    if math.isfinite(domain.bounding_radius) and \
            r_grid[0] >= domain.bounding_radius:
        raise GeometryError("r must stay below the bounding radius")

    rng = np.random.default_rng(seed)
    base = domain.base_point
    shared = [np.eye(domain.dim, dtype=complex)[j]
              for j in range(domain.dim)]
    shared += [complex_view(u) for u in
               _unit_directions(2 * domain.dim, extra_directions)]
    # per-anchor complex-tangent directions: the widest discs at a smooth
    # boundary point live in the complex tangent of its supporting plane
    stations = []
    for b in domain.boundary_anchor_points(anchors, rng):
        dirs = list(shared)
        if domain.dim >= 2:
            normal = domain.supporting_normal(b)
            norm = float(np.linalg.norm(normal))
            if norm > 0.0 and np.all(np.isfinite(normal)):
                dirs += [np.ascontiguousarray(col)
                         for col in _null_basis(normal / norm).T]
        stations.append((b, dirs))

    def evaluate(r: float) -> ProbeSample:
        best_t = 0.0
        used = 0
        for b, dirs in stations:
            chord = base - b
            length = float(np.linalg.norm(chord))
            if length == 0.0:
                continue
            x = b + (min(0.5 * r, 0.5 * length) / length) * chord
            if not domain.contains(x):
                continue
            used += 1
            for v in dirs:
                # only the maximum is kept, so best_t is an exact stop
                t = domain.directional_distance(x, v, stop=best_t)
                if math.isfinite(t):
                    best_t = max(best_t, t)
        if used == 0 or best_t <= 0.0:
            raise GeometryError(f"no admissible sample points at r={r}")
        stat = 2.0 * best_t
        # tiny haircut on the lower side for the directional-scan tolerance
        return ProbeSample(r, best_t * (1.0 - 1e-8), stat, stat, (),
                           {"points": used,
                            "directions": max(len(d) for _, d in stations)})

    samples = [evaluate(r) for r in r_grid]
    rs = np.asarray(r_grid)
    big_m = np.array([s.statistic for s in samples])
    asc = np.argsort(rs)
    logs = np.log(rs[asc])
    vals = big_m[asc]
    integral = float(np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(logs))) \
        if len(vals) > 1 else 0.0
    fitted: dict = {"log_integral": integral}
    notes = ["the band supremum is sampled over anchors x directions and can "
             "only rise under refinement",
             "sample bracket [max t, 2 max t] certifies 1/kappa over the "
             "sampled points"]
    if len(samples) < 2:
        verdict, detail = "inconclusive", "single-sample"
    else:
        idx = _finest_half(rs)
        beta, prefactor, rms = _power_fit(rs[idx], big_m[idx])
        fitted.update(tail_exponent=beta, prefactor=prefactor, fit_rms=rms)
        verdict = "consistent"
        if beta >= 0.1:
            detail = "integrable-tail"
        else:
            detail = "divergent-tail"
            big_l = np.log(1.0 / rs[idx])
            if np.all(big_l > 1.0):
                gamma, _, _ = _linear_fit(np.log(np.log(big_l)),
                                          np.log(big_m[idx]) + np.log(big_l))
                gamma = -gamma
                fitted["log_power_gamma"] = gamma
                if gamma > 1.0:
                    detail = "integrable-tail"
    return ProbeReport("goldilocks", r_grid, samples, fitted, verdict,
                       detail, notes)


# ---------------------------------------------------------------------------
# localization comparison
# ---------------------------------------------------------------------------


def localization_check(d_big: Domain, u_center, u_radius: float,
                       v_radius: float, n_pairs: int, pairs=None,
                       seed: int = 0) -> ProbeReport:
    """Compare local lower bounds against global uppers on window pairs.

    U and V are concentric balls (V strictly smaller); the probe samples
    pairs in V cap D near the boundary and reports

        C_emp = sup over pairs of (lower k_{D cap U} - upper k_D),

    both sides certified.  The two sides bound different distances, so a
    positive difference is the overhead measured, not a crossing: each
    sample's ``lower`` is the difference rounded down, a certified lower
    bound on k_{D cap U} - k_D, its ``upper`` is None, and its inputs carry
    the two sides.  A genuine violation of the localization
    comparison would need C_emp to grow without bound along refinements,
    which a single run cannot certify, so the verdict stays "consistent"
    with the measured constant attached.
    """
    u_center = as_carray(u_center)
    u_radius, v_radius = float(u_radius), float(v_radius)
    if not 0.0 < v_radius < u_radius:
        raise GeometryError("need 0 < v_radius < u_radius")
    if n_pairs < 1 and pairs is None:
        raise GeometryError("need at least one pair")
    local = LocalizedDomain(d_big, u_center, u_radius)
    window = LocalizedDomain(d_big, u_center, v_radius)

    if pairs is not None:
        checked = []
        for z, w in pairs:
            z, w = as_carray(z), as_carray(w)
            if not (window.contains(z) and window.contains(w)):
                raise GeometryError("localization pairs must lie inside "
                                    "the inner window V")
            checked.append((z, w))
    else:
        anchor = None
        for t in (0.0, 0.05, 0.1, 0.2, 0.4, 0.8):
            cand = u_center + t * (d_big.base_point - u_center)
            if d_big.contains(cand) and \
                    float(np.linalg.norm(cand - u_center)) < 0.5 * v_radius:
                anchor = cand
                break
        if anchor is None:
            raise GeometryError("could not find an interior anchor inside V")
        rng = np.random.default_rng(seed)

        def draw() -> np.ndarray:
            u = rng.standard_normal(2 * d_big.dim)
            u = complex_view(u / np.linalg.norm(u))
            # the outer end of the exit: frac >= 1e-3 keeps the draw inside
            t_exit = ray_exit(window.ray(anchor, u), 2.0 * v_radius)
            frac = 10.0 ** rng.uniform(-3.0, math.log10(0.5))
            return anchor + (1.0 - frac) * t_exit * u

        # sequential draws keep the first n pairs of a 2n run identical,
        # which the doubling-stability check relies on
        checked = [(draw(), draw()) for _ in range(n_pairs)]

    samples = []
    c_emp = -math.inf
    for i, (z, w) in enumerate(checked):
        lower_local = distance_lower_bound(local, z, w)
        upper_global = distance_bracket(d_big, z, w).upper
        diff = lower_local - upper_global
        c_emp = max(c_emp, diff)
        samples.append(ProbeSample(
            float(i), math.nextafter(diff, -math.inf), None, diff, (),
            {"z": to_pairs(z), "w": to_pairs(w), "local_lower": lower_local,
             "global_upper": upper_global}))
    fitted = {"C_emp": c_emp, "n_pairs": len(checked)}
    return ProbeReport(
        "localization", [float(i) for i in range(len(checked))], samples,
        fitted, "consistent", "bounded-overhead",
        ["the statistic is the local lower minus the global upper; sample "
         "lower is it rounded down, a certified lower bound on "
         "k_{D cap U} - k_D, and upper is null; inputs hold local_lower and "
         "global_upper",
         "a violation verdict would need certified growth along refinements"])


# ---------------------------------------------------------------------------
# minimal-basis ball inequality
# ---------------------------------------------------------------------------


def balls_inequality_check(domain: Domain, q, z, r: float,
                           config: SolverConfig | None = None):
    """Check the minimal-basis box bound for a certified metric ball.

    Precondition: k_D(q, z) < r must be certified (distance bracket upper
    below r).  In minimal-basis coordinates w of z at q the bound reads
    max_j |w_j| / tau_j < e^{2r} - 1; returns (holds, margin) with margin
    the right side minus the left.
    """
    q, z = as_carray(q), as_carray(z)
    if not (domain.contains(q) and domain.contains(z)):
        raise GeometryError("balls_inequality_check needs interior points")
    r = float(r)
    if r <= 0.0:
        raise GeometryError("the radius r must be positive")
    k_upper = _pair_bracket(domain, q, z, config).upper
    if not k_upper < r:
        raise GeometryError(f"precondition k(q,z) < r is not certified: "
                            f"upper {k_upper:.6g} >= {r:.6g}")
    basis = domain.minimal_basis(q)
    coords = basis.coordinates(z, q)
    lhs = float(np.max(np.abs(coords) / basis.taus))
    rhs = math.expm1(2.0 * r)
    return lhs < rhs, rhs - lhs


# ---------------------------------------------------------------------------
# same-height separation scaling
# ---------------------------------------------------------------------------


def sameheight_scaling(domain: Domain, region_center, region_radius: float,
                       delta_grid, m_type: int,
                       config: SolverConfig | None = None) -> ProbeReport:
    """Fit how far boundary-hugging geodesics can spread at a given height.

    At each height delta the probe places endpoints at boundary distance
    about 0.75 delta on either side of the region center and binary-searches
    the largest separation whose solved geodesic never exceeds boundary
    distance delta.  On a boundary region of finite type M the separation
    scales like delta^(1/M) log(1/delta); the fitted pure-power exponent
    must land within 0.15 of 1/M for the consistency verdict (the slowly
    varying log factor is absorbed by that tolerance).
    """
    if isinstance(domain, Polydisc):
        raise GeometryError("a polydisc face has infinite type; the scaling "
                            "probe needs a finite-type region")
    center = domain._point(region_center)
    region_radius = float(region_radius)
    if region_radius <= 0.0:
        raise GeometryError("the region radius must be positive")
    if isinstance(domain, OmegaPsi):
        seg_dist = math.sqrt(center[0].real ** 2
                             + max(0.0, abs(center[0].imag) - 2.0) ** 2
                             + abs(center[1]) ** 2)
        if seg_dist <= region_radius + 0.05:
            raise GeometryError("the region touches the flat boundary "
                                "segment, which has infinite type")
    m_type = int(m_type)
    if m_type < 1:
        raise GeometryError("the type M must be a positive integer")
    delta_grid = _positive_grid(delta_grid, "delta")
    if math.isinf(domain.bounding_radius):
        raise GeometryError("the scaling probe needs a bounded domain")

    normal = domain.supporting_normal(center)
    if domain.dim == 1:
        tangent = np.array([1j * normal[0]])
    else:
        tangent = _null_basis(normal / np.linalg.norm(normal))[:, 0]
    base = domain.base_point
    cfg = config if config is not None else SolverConfig.light()

    def boundary_at(s: float) -> np.ndarray:
        ray = center + s * tangent - base
        length = float(np.linalg.norm(ray))
        if length == 0.0:
            raise GeometryError("degenerate tangent ray")
        return domain.exit_point(base, ray / length)

    def endpoint(bpt: np.ndarray, delta: float):
        """Point above bpt with boundary distance 0.75*delta (3% tolerance)."""
        u = base - bpt
        u = u / float(np.linalg.norm(u))
        target = 0.75 * delta
        hi = target                       # distance to the boundary <= offset
        limit = 0.45 * float(np.linalg.norm(base - bpt))
        while domain.boundary_distance(bpt + hi * u) < target:
            hi *= 1.5
            if hi > limit:
                return None
        lo = 0.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            d = domain.boundary_distance(bpt + mid * u)
            if abs(d - target) <= 0.03 * target:
                return bpt + mid * u
            if d < target:
                lo = mid
            else:
                hi = mid
        return bpt + hi * u

    def separation_at(s: float, delta: float):
        pa = endpoint(boundary_at(+s), delta)
        pb = endpoint(boundary_at(-s), delta)
        if pa is None or pb is None:
            return None
        result = solve_geodesic(domain, pa, pb, cfg)
        if result.max_boundary_distance > delta:
            return None
        return float(np.linalg.norm(pa - pb))

    samples = []
    kept_deltas, kept_seps = [], []
    notes = ["the statistic is the largest endpoint separation found whose "
             "geodesic stays below the height; it lower-bounds the true "
             "maximum separation"]
    for delta in delta_grid:
        flags: tuple = ()
        sep = separation_at(region_radius, delta)
        if sep is not None:
            flags = ("range-capped",)
        else:
            s_lo = region_radius / 64.0
            sep = separation_at(s_lo, delta)
            if sep is None:
                notes.append(f"no boundary-hugging geodesic at delta={delta:g}; "
                             "sample dropped")
                continue
            s_hi = region_radius
            for _ in range(7):
                mid = 0.5 * (s_lo + s_hi)
                sep_mid = separation_at(mid, delta)
                if sep_mid is None:
                    s_hi = mid
                else:
                    s_lo, sep = mid, sep_mid
        samples.append(ProbeSample(delta, sep, None, sep, flags,
                                   {"delta": delta}))
        kept_deltas.append(delta)
        kept_seps.append(sep)

    fitted: dict = {}
    if len(kept_seps) < 2:
        verdict, detail = "inconclusive", "single-sample"
    else:
        exponent, prefactor, rms = _power_fit(kept_deltas, kept_seps)
        scale = np.array([d ** (1.0 / m_type) * math.log(1.0 / d)
                          for d in kept_deltas])
        c2 = float(np.dot(kept_seps, scale) / np.dot(scale, scale))
        fitted.update(exponent=exponent, prefactor=prefactor, fit_rms=rms,
                      C2=c2)
        if abs(exponent - 1.0 / m_type) <= 0.15:
            verdict, detail = "consistent", "exponent-matches-type"
        else:
            verdict, detail = "inconclusive", "exponent-mismatch"
    return ProbeReport("sameheight", delta_grid, samples, fitted, verdict,
                       detail, notes)
