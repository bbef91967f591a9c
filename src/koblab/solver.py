"""Approximate geodesics by certified discrete length minimization.

The optimizer never trusts quadrature: the objective is the sum of
per-segment *certified* upper bounds (closed forms on model domains, widened
by their rounding error; rounded-up touching-disc bounds elsewhere, on
Omega_psi at the line radius of the segment's complex line; summed
rounding up on both), so ``distance.upper`` is a true upper bound for k_D.
The lower is never read off the path: on the models it is the endpoints'
closed form widened by its rounding bound, the lower of
:func:`koblab.metric.distance_bracket`, and elsewhere the projection
estimates of :func:`koblab.metric.distance_lower_bound`.

The search is derivative-free coordinate descent with an adaptive step and
staged midpoint refinement; the metric data is only Lipschitz (directional
distances kink at face transitions), so anything gradient-based would be
fragile exactly where the interesting geometry happens.  Any probe that
lowers the drive objective is taken, but the step halves after each sweep
that lowers the drive sum by at most ``rel_tol``/100 of it, as after a
sweep that moves nothing: the sufficient-decrease test of generating-set
search (Kolda, Lewis & Torczon, "Optimization by direct search", SIAM
Review 45, 2003, section 3.7), which keeps the descent from crawling
through many sweeps at a fine step for gains far below ``rel_tol``.  A
stage has converged when its step falls below ``rel_tol`` times the
path's scale, whether sweeps without moves or sweeps with too little gain
halved it there.

Domains supply the segment bounds through their segment kernels, the
methods ``_node`` and ``_terms`` of :class:`~koblab.geometry.Domain`,
which the chord upper of :func:`koblab.metric.distance_bracket` reads
too; the solver holds no per-domain code.  A stage converts its control
points once into the kernels' point form, ``ndarray.tolist()``, lists of
Python complex numbers, and keeps, for each control point, the factor its
segment terms share (1 - |z_j|^2 per coordinate on the disc and polydisc,
1 - |z|^2 on the ball, the inner radius elsewhere, with on Omega_psi the
plain floats its line radius reads), computed once per point by ``_node``.
For each segment it keeps its list of kernel terms: one disc distance per
coordinate on the polydisc, a single term elsewhere.  The certified upper
of a segment is the max of its terms and the drive objective their
euclidean norm, which on the polydisc smooths the max's flat ridges.  A
probe that moves one coordinate of a control point computes the
candidate's node once, ``_node(cand, f, slot)``, and asks the two
segments next to it for their terms, ``_terms(a, b, fa, fb, T, slot)``,
handing each kernel the point's factor ``f`` or the segment's terms ``T``
from before the move and the moved coordinate ``slot``.  A kernel may then
recompute only what that coordinate enters, with the same floats as a
full call: on the polydisc the probe recomputes one factor and one disc
distance per segment (the radius still reads every modulus), and the
single-term kernels of the other domains recompute their one term.

A visit to a control point depends only on it, its two neighbours and the
step, so the descent skips the visits of settled points: a point is
settled when its last visit moved nothing and neither it nor a neighbour
has moved, nor the step halved, since.  The skipped visit would probe the
same candidates against the same terms and factors and again move
nothing, so the sweeps, the moves and every output are those of the full
descent, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (Domain, GeometryError, Polydisc, _json_number,
                       _sum_up)
from .metric import (MetricBracket, _model_bracket, disc_distance,
                     distance_bracket, distance_lower_bound)

__all__ = [
    "SolverConfig",
    "Path",
    "GeodesicResult",
    "solve_geodesic",
    "bidisc_boundary_geodesic",
]


@dataclass
class SolverConfig:
    """Knobs for the geodesic search.

    ``control_points`` is a resolution cap: refinement stops doubling once
    the path reaches it, or earlier if a doubling no longer pays.
    ``rel_tol`` is at most 0.5: the first step is half the path's scale
    and the descent stops below ``rel_tol`` times it, so a larger value
    would run no sweep at all.
    """

    control_points: int = 65
    max_iter: int = 5000
    rel_tol: float = 1e-6

    def __post_init__(self):
        for name in ("control_points", "max_iter", "rel_tol"):
            if not math.isfinite(getattr(self, name)):
                raise GeometryError(f"{name!r} must be finite")
        if self.control_points < 2:
            raise GeometryError("need at least the two endpoints")
        if self.max_iter < 1:
            raise GeometryError("'max_iter' must be at least 1")
        if not 0 < self.rel_tol <= 0.5:
            raise GeometryError("'rel_tol' must lie in (0, 0.5]")

    @classmethod
    def light(cls) -> "SolverConfig":
        """Cheap settings for large sweeps (certified bounds, coarser upper)."""
        return cls(control_points=9, max_iter=400, rel_tol=1e-4)

    @classmethod
    def from_json(cls, data: dict) -> "SolverConfig":
        if not isinstance(data, dict):
            raise GeometryError("a solver record must be a JSON object")
        return cls(
            control_points=_json_number(data.get("control_points", 65),
                                        "control_points", integer=True),
            max_iter=_json_number(data.get("max_iter", 5000), "max_iter",
                                  integer=True),
            rel_tol=_json_number(data.get("rel_tol", 1e-6), "rel_tol"),
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
    boundary_distances: np.ndarray   # one per path point

    @property
    def min_boundary_distance(self) -> float:
        return float(np.min(self.boundary_distances))

    @property
    def max_boundary_distance(self) -> float:
        return float(np.max(self.boundary_distances))

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
# solve
# ---------------------------------------------------------------------------


def _straight_points(x: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    s = np.linspace(0.0, 1.0, m)[:, None]
    return (1.0 - s) * x[None, :] + s * y[None, :]


def _ensure_valid(pts: np.ndarray, upper, cap: int) -> np.ndarray:
    """Insert midpoints until every segment admits a certified upper."""
    pts = list(pts)
    guard = 0
    while True:
        vals = [upper(pts[j], pts[j + 1]) for j in range(len(pts) - 1)]
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


# a sweep whose moves lower the drive sum by at most this fraction of
# ``rel_tol`` (relative to the sum) halves the step as a sweep with no move
# does; at rel_tol / 10 the default solves stop short of the 1e-9 accuracy
# the model tests pin
_MIN_GAIN = 1e-2


def _optimize_stage(domain: Domain, margin: float, pts: np.ndarray,
                    cfg: SolverConfig, iter_budget: int):
    """Coordinate descent at fixed resolution on the domain's segment
    kernels ``_node`` and ``_terms``; a candidate whose node radius is
    below ``margin`` is not probed.

    Returns (best points, their certified uppers, sweeps, fine), where
    ``fine`` says the step fell below ``h_min`` rather than the sweep
    budget running out.  A probe is accepted when it lowers its two
    segments' drive by more than 1e-15; the step h halves after a sweep
    that moves nothing and after one whose moves lower the drive sum by at
    most ``theta`` = ``_MIN_GAIN * rel_tol`` of it, so ``fine`` also
    covers a step halved to ``h_min`` by sweeps with too little gain.  The
    certified sum is re-evaluated per moving sweep and the best
    configuration is kept, so the returned upper never regresses within a
    stage.  Each control point keeps its node factor ``F[i]`` and
    each segment its list of kernel terms ``T[j]``; a probe moving
    coordinate ``slot`` of point i computes its candidate's node once as
    ``_node(cand, F[i], slot)`` and its two segments' terms as
    ``_terms(..., T[j], slot)``, so each kernel recomputes only what the
    move changes.  The moves of a sweep, two per real and imaginary step
    of each coordinate, are built once per sweep, and a visit reads its
    neighbours' points, factors and terms once.

    ``settled[i]`` says a visit to point i would move nothing.  A visit
    reads only P[i - 1], P[i], P[i + 1], the terms and factors they fix,
    and h, so the flag is set when the visit starts, cleared for i - 1, i
    and i + 1 whenever point i moves, and cleared everywhere when h
    halves; a visit whose flag is still set is skipped, exactly, as it
    would repeat the last one.
    """
    m, n = pts.shape
    node, terms = domain._node, domain._terms
    hypot = math.hypot
    scale = max(float(np.max(np.abs(np.diff(pts, axis=0)))), 1e-12)
    P = pts.tolist()
    F = [node(p)[1] for p in P]
    T = [terms(P[j], P[j + 1], F[j], F[j + 1]) for j in range(m - 1)]
    D = [hypot(*t) for t in T]
    best_S = [max(t) for t in T]
    best_L = float(sum(best_S))
    best_P = list(P)
    h = 0.5 * scale
    h_min = cfg.rel_tol * scale
    sweeps = 0
    settled = [False] * m
    theta = _MIN_GAIN * cfg.rel_tol
    while h >= h_min and sweeps < iter_budget:
        sweeps += 1
        improved = False
        drive = sum(D)
        # per coordinate slot, the real step h, then the imaginary one, each
        # as the pair of moves +step, -step; a taken move skips its partner
        steps = [(slot, [sgn * step for sgn in (1.0, -1.0)])
                 for slot in range(n) for step in (h, 1j * h)]
        for i in range(1, m - 1):
            if settled[i]:
                continue
            settled[i] = True
            p, f = P[i], F[i]
            pl, fl, tl = P[i - 1], F[i - 1], T[i - 1]
            pr, fr, tr = P[i + 1], F[i + 1], T[i]
            base = D[i - 1] + D[i]
            for slot, moves in steps:
                for move in moves:
                    cand = p.copy()
                    cand[slot] += move
                    rc, fc = node(cand, f, slot)
                    if rc < margin:
                        continue
                    t1 = terms(pl, cand, fl, fc, tl, slot)
                    d1 = hypot(*t1)
                    if not d1 <= base:
                        continue
                    t2 = terms(cand, pr, fc, fr, tr, slot)
                    d2 = hypot(*t2)
                    if d1 + d2 < base - 1e-15:
                        P[i] = p = cand
                        F[i] = f = fc
                        T[i - 1] = tl = t1
                        T[i] = tr = t2
                        D[i - 1], D[i] = d1, d2
                        base = d1 + d2
                        settled[i - 1] = settled[i] = settled[i + 1] = False
                        improved = True
                        break
        if improved:
            S = [max(t) for t in T]
            L = float(sum(S))
            if L < best_L:
                best_L, best_S, best_P = L, S, list(P)
        if not improved or drive - sum(D) <= theta * drive:
            h *= 0.5
            settled = [False] * m
    return np.array(best_P, dtype=complex), best_S, sweeps, h < h_min


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
    x, y = domain._interior(x), domain._interior(y)

    if np.array_equal(x, y):
        path = Path(points=x[None, :], domain=domain, segment_brackets=[])
        return GeodesicResult(path, MetricBracket(0.0, 0.0), 0, True,
                              path.boundary_distances())

    if not math.isfinite(domain.bounding_radius):
        raise GeometryError("geodesic search supports bounded domains only")
    if min(domain.boundary_distance(x), domain.boundary_distance(y)) < 1e-6:
        raise GeometryError(
            "geodesic endpoints must keep boundary distance >= 1e-6")

    lower = distance_bracket(domain, x, y).lower if domain.exact \
        else distance_lower_bound(domain, x, y)
    node, terms = domain._node, domain._terms
    margin = 1e-9 * domain.bounding_radius

    def seg_upper(a, b):
        a, b = a.tolist(), b.tolist()
        return max(terms(a, b, node(a)[1], node(b)[1]))

    m = min(9, cfg.control_points)
    starts = [_straight_points(x, y, m)]
    if not domain.exact:
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
            valid = _ensure_valid(cand, seg_upper, cfg.control_points)
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
        pts, S, sweeps, fine = _optimize_stage(domain, margin, pts, cfg,
                                               cfg.max_iter - iterations)
        iterations += sweeps
        L = float(sum(S))
        if L < best_L:
            best_L, best_pts, best_S = L, pts.copy(), list(S)
        # either stop counts as converged only if the last stage's step
        # fell below h_min instead of running out of sweeps
        improvement = (prev_L - L) / max(L, 1e-300)
        if math.isfinite(prev_L) and improvement < cfg.rel_tol:
            converged = fine
            break
        prev_L = L
        if pts.shape[0] >= cfg.control_points:
            converged = fine
            break
        pts = _insert_midpoints(pts)

    # the descent may park two control points on the same spot (a
    # zero-length segment costs nothing); drop the repeats so the chain
    # stays strict.  The segment into each kept point keeps the upper of
    # the last segment of its run, which has the same ends.
    keep = [0]
    for j in range(1, best_pts.shape[0]):
        if not np.array_equal(best_pts[j], best_pts[keep[-1]]):
            keep.append(j)
    best_S = [best_S[j - 1] for j in keep[1:]]
    best_pts = best_pts[keep]

    # on the models each closed form is widened at its smaller endpoint
    # radius; elsewhere each segment's upper is its kernel's certified
    # term.  Both add through the one rounded-up sum.
    R = [node(p)[0] for p in best_pts.tolist()]
    brackets = [_model_bracket(domain, s, min(R[j], R[j + 1]))
                if domain.exact else MetricBracket(0.0, s)
                for j, s in enumerate(best_S)]
    upper = _sum_up([b.upper for b in brackets])
    path = Path(points=best_pts, domain=domain, segment_brackets=brackets,
                endpoint_lower=lower)
    bracket = MetricBracket(min(lower, upper), upper)
    return GeodesicResult(path, bracket, iterations, converged,
                          path.boundary_distances())


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


# points on each leg of the three-leg path; the diameter has three times as
# many
_LEG_POINTS = 22


def bidisc_boundary_geodesic(epsilon: float):
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

    # path 1: the real diameter, both coordinates (u(s), 0)
    u, du = _hyperbolic_leg(a, b, 3 * _LEG_POINTS)
    pts1 = np.stack([u, np.zeros_like(u)], axis=1).astype(complex)
    path1 = Path(points=pts1, domain=dom,
                 segment_brackets=[MetricBracket(s, s) for s in du],
                 meta={"construction": "diameter"})

    # path 2: three legs through the mirrored waypoints near the corner
    x_mid_l, x_mid_r = -1.0 + c * r, 1.0 - c * r
    height = 1.0 - r
    # on the outer legs both coordinates move along hyperbolically-uniform
    # grids, so each sub-segment's max is the (dominating) first coordinate
    u11, d11 = _hyperbolic_leg(a, x_mid_l, _LEG_POINTS)
    u12, d12 = _hyperbolic_leg(0.0, height, _LEG_POINTS)
    u21, d21 = _hyperbolic_leg(x_mid_l, x_mid_r, _LEG_POINTS)
    u31, d31 = _hyperbolic_leg(x_mid_r, b, _LEG_POINTS)
    u32, d32 = _hyperbolic_leg(height, 0.0, _LEG_POINTS)
    leg1 = np.stack([u11, u12], axis=1)
    leg2 = np.stack([u21, np.full(_LEG_POINTS, height)], axis=1)
    leg3 = np.stack([u31, u32], axis=1)
    pts2 = np.concatenate([leg1, leg2[1:], leg3[1:]], axis=0).astype(complex)
    upp2 = np.concatenate([np.maximum(d11, d12), d21, np.maximum(d31, d32)])
    path2 = Path(points=pts2, domain=dom,
                 segment_brackets=[MetricBracket(s, s) for s in upp2],
                 meta={"construction": "three-leg", "c": c})
    return path1, path2
