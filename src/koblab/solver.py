"""Approximate geodesics by certified discrete length minimization.

The optimizer never trusts quadrature: the objective is the sum of
per-segment *certified* upper bounds (exact pair distances on model domains,
touching-disc bounds elsewhere), so the reported ``distance.upper`` is a true
upper bound for k_D at every stage of the search.  Each domain supplies these
as closures through :meth:`~koblab.geometry.Domain.segment_kernels`; the
solver itself holds no per-domain code.  Lower bounds come from the
projection estimates in :mod:`koblab.metric`, never from the path itself.

The search is derivative-free coordinate descent with an adaptive step and
staged midpoint refinement; the metric data is only Lipschitz (directional
distances kink at face transitions), so anything gradient-based would be
fragile exactly where the interesting geometry happens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Domain, GeometryError, Polydisc, as_carray
from .metric import (
    MetricBracket,
    disc_distance,
    distance_lower_bound,
    metric_bracket,
)

__all__ = [
    "SolverConfig",
    "Path",
    "GeodesicResult",
    "solve_geodesic",
    "path_length",
    "refine_path",
    "straight_path",
    "bidisc_boundary_geodesic",
]


@dataclass
class SolverConfig:
    """Knobs for the geodesic search.

    ``control_points`` is a resolution cap: refinement stops doubling once
    the path reaches it, or earlier if a doubling no longer pays.
    """

    control_points: int = 65
    max_iter: int = 5000
    rel_tol: float = 1e-6

    def __post_init__(self):
        if self.control_points < 2:
            raise GeometryError("need at least the two endpoints")
        if self.max_iter < 1 or self.rel_tol <= 0:
            raise GeometryError("bad solver configuration")

    @classmethod
    def light(cls) -> "SolverConfig":
        """Cheap settings for large sweeps (certified bounds, coarser upper)."""
        return cls(control_points=9, max_iter=400, rel_tol=1e-4)

    @classmethod
    def from_json(cls, data: dict) -> "SolverConfig":
        return cls(
            control_points=int(data.get("control_points", 65)),
            max_iter=int(data.get("max_iter", 5000)),
            rel_tol=float(data.get("rel_tol", 1e-6)),
        )

    def to_json(self) -> dict:
        return {
            "control_points": self.control_points,
            "max_iter": self.max_iter,
            "rel_tol": self.rel_tol,
        }


@dataclass
class Path:
    """A discrete interior path with certified per-segment brackets."""

    points: np.ndarray            # (m, n) complex
    domain: Domain
    segment_brackets: list        # m-1 MetricBrackets
    endpoint_lower: float = 0.0   # certified lower for k_D(endpoints)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise GeometryError("a path needs at least one point")
        for p in pts:
            if not self.domain.contains(p):
                raise GeometryError("path point outside the domain")
        for j in range(pts.shape[0] - 1):
            if np.array_equal(pts[j], pts[j + 1]):
                raise GeometryError("consecutive path points must be distinct")
        if len(self.segment_brackets) != pts.shape[0] - 1:
            raise GeometryError("one bracket per segment required")
        self.points = pts

    @property
    def upper_length(self) -> float:
        return float(sum(b.upper for b in self.segment_brackets))

    @property
    def lower_length(self) -> float:
        return max(float(sum(b.lower for b in self.segment_brackets)),
                   self.endpoint_lower)

    def boundary_distances(self) -> np.ndarray:
        return np.array([self.domain.boundary_distance(p) for p in self.points])

    def to_json(self) -> list:
        return [[[c.real, c.imag] for c in p] for p in self.points]


@dataclass
class GeodesicResult:
    path: Path
    distance: MetricBracket
    iterations: int
    converged: bool
    min_boundary_distance: float
    max_boundary_distance: float

    def to_json(self) -> dict:
        return {
            "distance": {"lower": self.distance.lower, "upper": self.distance.upper},
            "iterations": self.iterations,
            "converged": self.converged,
            "min_boundary_distance": self.min_boundary_distance,
            "max_boundary_distance": self.max_boundary_distance,
            "points": self.path.to_json(),
        }


# ---------------------------------------------------------------------------
# per-segment certified uppers, specialized for speed in the inner loop
# ---------------------------------------------------------------------------


class _ChainObjective:
    """Certified per-segment uppers plus the bookkeeping the descent needs.

    The ``(radius, seg, drive)`` kernels come from
    :meth:`Domain.segment_kernels`, fetched once per solve so the inner
    loop calls plain closures.  ``radius`` is a cheap interior radius
    (negative outside); the descent caches one value per control point so
    a probe on a generic domain costs a single radius evaluation.  ``seg``
    is the certified upper bound the solver reports and ``drive`` the
    search objective.  When they differ (the polydisc), reported lengths
    still come from ``seg`` at the best configuration seen.
    """

    def __init__(self, domain: Domain):
        self.domain = domain
        self.model = domain.exact
        self.margin = 1e-9 * (domain.bounding_radius
                              if math.isfinite(domain.bounding_radius) else 1.0)
        self.radius, self.seg, self.drive = domain.segment_kernels()
        self.drive_is_certified = self.drive is self.seg

    def brackets(self, seg_uppers: list) -> list:
        if self.model:
            return [MetricBracket(s, s) for s in seg_uppers]
        return [MetricBracket(0.0, s) for s in seg_uppers]


def _segment_evaluator(domain: Domain):
    """seg(a, b) -> certified upper for k_D(a, b) (inf when not certifiable)."""
    obj = _ChainObjective(domain)

    def seg(a, b):
        if obj.model:
            return obj.seg(a, b, 0.0, 0.0)
        return obj.seg(a, b, obj.radius(a), obj.radius(b))
    return seg


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _straight_points(x: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    s = np.linspace(0.0, 1.0, m)[:, None]
    return (1.0 - s) * x[None, :] + s * y[None, :]


def _ensure_valid(pts: np.ndarray, seg, cap: int) -> np.ndarray:
    """Insert midpoints until every segment admits a certified upper."""
    pts = list(pts)
    guard = 0
    while True:
        vals = [seg(pts[j], pts[j + 1]) for j in range(len(pts) - 1)]
        bad = [j for j, v in enumerate(vals) if not math.isfinite(v)]
        if not bad:
            return np.array(pts)
        guard += 1
        if guard > 40 or len(pts) > max(4 * cap, 4096):
            raise GeometryError(
                "could not certify the initial path; endpoints too close to "
                "the boundary for this configuration")
        for j in reversed(bad):
            pts.insert(j + 1, 0.5 * (pts[j] + pts[j + 1]))


def _optimize_stage(obj: _ChainObjective, pts: np.ndarray, cfg: SolverConfig,
                    iter_budget: int):
    """Coordinate descent at fixed resolution.

    Returns (best points, their certified uppers, sweeps, settled), where
    ``settled`` says the step fell below ``h_min`` rather than the sweep
    budget running out.  Moves are accepted on a strict decrease of the
    drive objective; the certified sum is re-evaluated per sweep and the
    best configuration is kept, so the returned upper never regresses
    within a stage.
    """
    m, n = pts.shape
    radius, seg, drive = obj.radius, obj.seg, obj.drive
    R = [radius(pts[j]) for j in range(m)]
    D = [drive(pts[j], pts[j + 1], R[j], R[j + 1]) for j in range(m - 1)]

    def certified():
        if obj.drive_is_certified:
            return list(D)
        return [seg(pts[j], pts[j + 1], R[j], R[j + 1]) for j in range(m - 1)]

    best_S = certified()
    best_L = float(sum(best_S))
    best_pts = pts.copy()
    scale = max(float(np.max(np.abs(np.diff(pts, axis=0)))), 1e-12)
    h = 0.5 * scale
    h_min = cfg.rel_tol * scale
    sweeps = 0
    while h >= h_min and sweeps < iter_budget:
        sweeps += 1
        improved = False
        for i in range(1, m - 1):
            base = D[i - 1] + D[i]
            for c in range(2 * n):
                step = h if c % 2 == 0 else 1j * h
                slot = c // 2
                for sgn in (1.0, -1.0):
                    cand = pts[i].copy()
                    cand[slot] += sgn * step
                    rc = radius(cand)
                    if rc < obj.margin:
                        continue
                    d1 = drive(pts[i - 1], cand, R[i - 1], rc)
                    if not d1 <= base:
                        continue
                    d2 = drive(cand, pts[i + 1], rc, R[i + 1])
                    if d1 + d2 < base - 1e-15:
                        pts[i] = cand
                        R[i] = rc
                        D[i - 1], D[i] = d1, d2
                        base = d1 + d2
                        improved = True
                        break
        if improved:
            S = certified()
            L = float(sum(S))
            if L < best_L:
                best_L, best_S, best_pts = L, S, pts.copy()
        else:
            h *= 0.5
    return best_pts, best_S, sweeps, h < h_min


def _insert_midpoints(pts: np.ndarray) -> np.ndarray:
    m = pts.shape[0]
    out = np.empty((2 * m - 1, pts.shape[1]), dtype=complex)
    out[0::2] = pts
    out[1::2] = 0.5 * (pts[:-1] + pts[1:])
    return out


def solve_geodesic(domain: Domain, x, y, cfg: SolverConfig | None = None) -> GeodesicResult:
    """Minimize the certified upper length between two interior points.

    The initial path is the straight segment (interior by convexity); each
    stage runs coordinate descent, then doubles the control points until the
    configured cap or until a doubling improves the length by less than
    ``rel_tol`` relatively.  The best path ever seen is returned, so reported
    lengths are monotone across stages by construction.
    """
    cfg = cfg or SolverConfig()
    x, y = as_carray(x), as_carray(y)
    if not domain.contains(x) or not domain.contains(y):
        raise GeometryError("solve_geodesic needs interior endpoints")

    if np.array_equal(x, y):
        path = Path(points=x[None, :], domain=domain, segment_brackets=[])
        d = domain.boundary_distance(x)
        return GeodesicResult(path, MetricBracket(0.0, 0.0), 0, True, d, d)

    if not math.isfinite(domain.bounding_radius):
        raise GeometryError("geodesic search supports bounded domains only")
    if min(domain.boundary_distance(x), domain.boundary_distance(y)) < 1e-6:
        raise GeometryError(
            "geodesic endpoints must keep boundary distance >= 1e-6")

    lower = distance_lower_bound(domain, x, y)
    obj = _ChainObjective(domain)
    seg = _segment_evaluator(domain)

    m = min(9, cfg.control_points) if cfg.control_points >= 3 else cfg.control_points
    m = max(m, 2)
    starts = [_straight_points(x, y, m)]
    if not obj.model:
        # near a narrow corridor the straight chord may need thousands of
        # points before every segment certifies; an arch through the base
        # point usually certifies at coarse resolution, so offer it as an
        # alternative start and keep whichever certifies with fewer points
        c = domain.base_point
        if not np.array_equal(c, x) and not np.array_equal(c, y):
            starts.append(np.concatenate(
                [_straight_points(x, c, m), _straight_points(c, y, m)[1:]]))
    pts, first_err = None, None
    for cand in starts:
        try:
            valid = _ensure_valid(cand, seg, cfg.control_points)
        except GeometryError as exc:
            if first_err is None:
                first_err = exc
            continue
        if pts is None or valid.shape[0] < pts.shape[0]:
            pts = valid
    if pts is None:
        raise first_err

    iterations = 0
    best_pts, best_S = None, None
    best_L = math.inf
    converged = False
    prev_L = math.inf
    while iterations < cfg.max_iter:
        pts, S, sweeps, settled = _optimize_stage(obj, pts, cfg,
                                                  cfg.max_iter - iterations)
        iterations += sweeps
        L = float(sum(S))
        if L < best_L:
            best_L, best_pts, best_S = L, pts.copy(), list(S)
        # either stop counts as converged only if the last stage's step
        # settled below h_min instead of running out of sweeps
        improvement = (prev_L - L) / max(L, 1e-300)
        if math.isfinite(prev_L) and improvement < cfg.rel_tol:
            converged = settled
            break
        prev_L = L
        if pts.shape[0] >= cfg.control_points:
            converged = settled
            break
        pts = _insert_midpoints(pts)

    # the descent may park two control points on the same spot (a
    # zero-length segment costs nothing); drop the repeats and merge their
    # segment uppers so the reported chain stays strict.  Every merged
    # upper is a sum of certified uppers, hence certified by the triangle
    # inequality, and the trailing endpoint survives by value.
    keep = [0]
    for j in range(1, best_pts.shape[0]):
        if not np.array_equal(best_pts[j], best_pts[keep[-1]]):
            keep.append(j)
    if len(keep) < best_pts.shape[0]:
        best_S = [float(sum(best_S[keep[i]:keep[i + 1]]))
                  for i in range(len(keep) - 1)]
        best_pts = best_pts[keep]

    path = Path(points=best_pts, domain=domain,
                segment_brackets=obj.brackets(best_S),
                endpoint_lower=lower)
    deltas = path.boundary_distances()
    bracket = MetricBracket(min(lower, best_L), best_L)
    return GeodesicResult(path, bracket, iterations, converged,
                          float(np.min(deltas)), float(np.max(deltas)))


# ---------------------------------------------------------------------------
# quadrature (reporting only; not one-sided, see module docstring)
# ---------------------------------------------------------------------------


def path_length(domain: Domain, path: Path, side: str = "upper") -> float:
    """Midpoint-rule integral of the chosen metric-bracket side."""
    if side not in ("lower", "upper"):
        raise GeometryError("side must be 'lower' or 'upper'")
    pts = path.points
    total = 0.0
    for j in range(pts.shape[0] - 1):
        a, b = pts[j], pts[j + 1]
        mid = 0.5 * (a + b)
        if not domain.contains(mid):
            raise GeometryError("path midpoint outside the domain")
        br = metric_bracket(domain, mid, b - a)
        total += br.lower if side == "lower" else br.upper
    return total


def refine_path(path: Path) -> Path:
    """Same path with euclidean midpoints inserted (for quadrature checks)."""
    pts = _insert_midpoints(path.points)
    obj = _ChainObjective(path.domain)
    seg = _segment_evaluator(path.domain)
    uppers = [seg(pts[j], pts[j + 1]) for j in range(pts.shape[0] - 1)]
    if not all(math.isfinite(u) for u in uppers):
        raise GeometryError("refinement produced an uncertifiable segment")
    return Path(points=pts, domain=path.domain,
                segment_brackets=obj.brackets(uppers),
                endpoint_lower=path.endpoint_lower, meta=dict(path.meta))


def straight_path(domain: Domain, x, y, m: int = 65) -> Path:
    """The straight segment sampled at m points, with certified brackets."""
    x, y = as_carray(x), as_carray(y)
    if not domain.contains(x) or not domain.contains(y):
        raise GeometryError("straight_path needs interior endpoints")
    obj = _ChainObjective(domain)
    seg = _segment_evaluator(domain)
    pts = _straight_points(x, y, max(2, m))
    pts = _ensure_valid(pts, seg, max(2, m))
    uppers = [seg(pts[j], pts[j + 1]) for j in range(pts.shape[0] - 1)]
    return Path(points=pts, domain=domain, segment_brackets=obj.brackets(uppers))


# ---------------------------------------------------------------------------
# the bidisc double geodesic
# ---------------------------------------------------------------------------


def _hyperbolic_leg(a: float, b: float, m: int):
    """m points from a to b on (-1,1), equally spaced in artanh coordinates,
    plus the per-segment hyperbolic lengths taken as grid differences.

    Using the grid differences (rather than re-deriving each segment's
    distance from the Möbius ratio) makes the leg sums telescope to the
    closed form within a few float additions, which the machine-precision
    equal-length guarantee relies on.
    """
    g = np.linspace(math.atanh(a), math.atanh(b), m)
    return np.tanh(g), np.abs(np.diff(g))


def bidisc_boundary_geodesic(epsilon: float, points_per_leg: int = 22):
    """The two geodesics joining (-1+eps, 0) and (1-eps, 0) in the bidisc.

    Returns (diameter path, three-leg boundary-hugging path).  The second
    path runs through (-1+c*sqrt(eps), 1-sqrt(eps)) and its mirror, with
    c > 1 the smallest value in {1.1, 1.2, ...} making the first coordinate
    strictly dominate on the outer legs; both paths have the same length
    k_disc(-1+eps, 1-eps) exactly, segment sums telescoping.
    """
    if not 0.0 < epsilon <= 1e-2:
        raise GeometryError("bidisc construction needs 0 < epsilon <= 1e-2")
    dom = Polydisc(2)
    r = math.sqrt(epsilon)
    a, b = -1.0 + epsilon, 1.0 - epsilon

    c = None
    gate = disc_distance(0.0, 1.0 - r)
    for k in range(1, 200):
        cand = 1.0 + 0.1 * k
        if cand * r >= 0.9:
            break
        if gate < disc_distance(1.0 - epsilon, 1.0 - cand * r):
            c = cand
            break
    if c is None:
        raise GeometryError("no admissible c: epsilon too large for the "
                            "three-leg construction")

    mm = max(2, points_per_leg)

    # path 1: the real diameter, both coordinates (u(s), 0)
    u, du = _hyperbolic_leg(a, b, 3 * mm)
    pts1 = np.stack([u, np.zeros_like(u)], axis=1).astype(complex)
    path1 = Path(points=pts1, domain=dom,
                 segment_brackets=[MetricBracket(s, s) for s in du],
                 meta={"construction": "diameter"})

    # path 2: three legs through the mirrored waypoints near the corner
    x_mid_l, x_mid_r = -1.0 + c * r, 1.0 - c * r
    height = 1.0 - r
    # on the outer legs both coordinates move along hyperbolically-uniform
    # grids, so each sub-segment's max is the (dominating) first coordinate
    u11, d11 = _hyperbolic_leg(a, x_mid_l, mm)
    u12, d12 = _hyperbolic_leg(0.0, height, mm)
    u21, d21 = _hyperbolic_leg(x_mid_l, x_mid_r, mm)
    u31, d31 = _hyperbolic_leg(x_mid_r, b, mm)
    u32, d32 = _hyperbolic_leg(height, 0.0, mm)
    leg1 = np.stack([u11, u12], axis=1)
    leg2 = np.stack([u21, np.full(mm, height)], axis=1)
    leg3 = np.stack([u31, u32], axis=1)
    pts2 = np.concatenate([leg1, leg2[1:], leg3[1:]], axis=0).astype(complex)
    upp2 = np.concatenate([np.maximum(d11, d12), d21, np.maximum(d31, d32)])
    path2 = Path(points=pts2, domain=dom,
                 segment_brackets=[MetricBracket(s, s) for s in upp2],
                 meta={"construction": "three-leg", "c": c})
    return path1, path2
