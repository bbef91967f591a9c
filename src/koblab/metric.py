"""Kobayashi metric and distance: exact model formulas, certified bounds.

Model domains (disc, half-plane, polydisc, ball) have closed forms and get
degenerate [exact, exact] distance brackets.  The closed forms live in
:mod:`koblab.geometry` as ``Domain.exact_distance`` and
``Domain.exact_metric``; the pair distances ``disc_distance``,
``halfplane_distance``, ``polydisc_distance`` and ``ball_distance`` are
re-exported here.  Everything else is handled by two-sided interval
arithmetic:

* the infinitesimal metric is pinned between ``|X|/(2t)`` and ``|X|/t`` where
  ``t`` is the directional boundary distance (the largest flat disc through
  ``z`` in direction ``X``), which is the standard convex-domain squeeze;
* distance lower bounds come from holomorphic projections onto half-planes
  (contraction under holomorphic maps), assembled in
  :func:`distance_lower_bound`;
* distance upper bounds come from summing per-segment touching-disc
  estimates along explicit paths, see :func:`segment_upper`.

Every quantity that feeds a reported bracket is one-sided by construction:
lower bounds only use certified under-estimates of boundary distances, upper
bounds only use certified inner radii.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .geometry import (
    AmbiguousProjectionError,
    Domain,
    GeometryError,
    as_carray,
    ball_distance,
    disc_distance,
    halfplane_distance,
    polydisc_distance,
    real_view,
)

__all__ = [
    "SignedBracket",
    "MetricBracket",
    "metric_exact",
    "metric_bracket",
    "disc_distance",
    "halfplane_distance",
    "polydisc_distance",
    "ball_distance",
    "model_distance",
    "distance_lower_bound",
    "distance_lower_bound_detailed",
    "pair_tube_bound",
    "segment_upper",
    "distance_bracket",
    "halfplane_hole_distance",
    "strip_to_disc",
]


@dataclass(frozen=True)
class SignedBracket:
    """A certified interval [lower, upper] for a signed quantity.

    Differences of distances (log-estimate residuals, Gromov defects) are
    legitimately negative; distances and metrics use the subclass
    :class:`MetricBracket`, which also insists on lower >= 0.
    """

    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise GeometryError(
                f"bracket must satisfy lower <= upper, got "
                f"[{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper

    def as_tuple(self) -> tuple:
        return (self.lower, self.upper)


@dataclass(frozen=True)
class MetricBracket(SignedBracket):
    """A certified interval 0 <= lower <= upper for a metric or distance."""

    def __post_init__(self):
        if not 0.0 <= self.lower:
            raise GeometryError(
                f"bracket must satisfy 0 <= lower <= upper, got "
                f"[{self.lower}, {self.upper}]")
        super().__post_init__()


# ---------------------------------------------------------------------------
# exact model formulas (the closed forms live on the domains)
# ---------------------------------------------------------------------------


def metric_exact(domain: Domain, z, X) -> float:
    """Closed-form Kobayashi metric on the four model domains."""
    z, X = as_carray(z), as_carray(X)
    if not domain.contains(z):
        raise GeometryError("metric_exact needs an interior point")
    return domain.exact_metric(z, X)


def model_distance(domain: Domain, x, y):
    """Closed-form distance on a model domain, or None if there is none."""
    return domain.exact_distance(as_carray(x), as_carray(y))


def metric_bracket(domain: Domain, z, X) -> MetricBracket:
    """The convex squeeze [|X|/(2t), |X|/t] with t the directional distance."""
    z, X = as_carray(z), as_carray(X)
    nX = float(np.linalg.norm(X))
    if nX == 0.0:
        raise GeometryError("metric_bracket needs X != 0")
    t = domain.directional_distance(z, X)
    if not t > 0.0:
        raise GeometryError("directional distance evaluation failed")
    if math.isinf(t):
        return MetricBracket(0.0, 0.0)
    return MetricBracket(nX / (2.0 * t), nX / t)


# ---------------------------------------------------------------------------
# certified distance lower bounds
# ---------------------------------------------------------------------------


def _halfplane_projection_bound(domain: Domain, x: np.ndarray, y: np.ndarray,
                                source: np.ndarray):
    """Lower bound via z -> i<p - z, nu> for p the projection of `source`.

    Any boundary point p with supporting normal nu works: Re <p - z, nu> > 0
    on the domain, so the map lands in the upper half-plane and contracts.
    """
    try:
        p = domain.nearest_boundary_point(source)
    except AmbiguousProjectionError:
        return None
    nu = domain.supporting_normal(p)
    hx = 1j * complex(np.vdot(nu, p - x))
    hy = 1j * complex(np.vdot(nu, p - y))
    if hx.imag <= 0.0 or hy.imag <= 0.0:
        return None  # numerically degenerate projection, drop the branch
    return halfplane_distance(hx, hy)


def pair_tube_bound(domain: Domain, x, y):
    """Additive two-projection lower bound for deep boundary-hugging pairs.

    Writes f(z) = <p - z, nu_p> and g(z) = <q - z, nu_q> for the supporting
    data at the two projections; both map the domain into the right
    half-plane with |f(x)| and |g(y)| equal to the hyperplane gaps.  If the
    tubes {|f| < eta} and {|g| < eta} are disjoint inside the domain, any
    curve from x to y pays 1/2 log(eta/|f(x)|) to leave the first tube and
    1/2 log(eta/|g(y)|) to enter the second, and the two payments add.
    Disjointness is certified by minimizing |f| + |g| over the bounding ball
    (a convex program) and taking eta = 0.45 * mu, which leaves a 10% safety
    margin over the exact disjointness threshold mu / 2.

    Returns None when not applicable (unbounded domain, ambiguous
    projections, or either point outside its tube).
    """
    if math.isinf(domain.bounding_radius):
        return None
    x, y = as_carray(x), as_carray(y)
    try:
        p = domain.nearest_boundary_point(x)
        q = domain.nearest_boundary_point(y)
    except AmbiguousProjectionError:
        return None
    nu_p = domain.supporting_normal(p)
    nu_q = domain.supporting_normal(q)

    # real-view coefficients of the two complex-affine functionals
    def affine(c0: complex, nu: np.ndarray):
        def val(u: np.ndarray) -> complex:
            z = u[0::2] + 1j * u[1::2]
            return c0 - complex(np.vdot(nu, z))
        return val

    f = affine(complex(np.vdot(nu_p, p)), nu_p)
    g = affine(complex(np.vdot(nu_q, q)), nu_q)

    def objective(u: np.ndarray) -> float:
        return abs(f(u)) + abs(g(u))

    R = domain.bounding_radius
    starts = [real_view(x), real_view(y), real_view(0.5 * (x + y)),
              np.zeros(2 * domain.dim)]
    mu = math.inf
    cons = [{"type": "ineq", "fun": lambda u: R * R - float(np.dot(u, u)),
             "jac": lambda u: -2.0 * u}]
    for u0 in starts:
        res = optimize.minimize(objective, u0, method="SLSQP",
                                constraints=cons,
                                options={"maxiter": 300, "ftol": 1e-12})
        if res.fun < mu:
            mu = float(res.fun)
    if not (mu > 0.0 and math.isfinite(mu)):
        return None
    eta = 0.45 * mu
    fx = abs(f(real_view(x)))
    gy = abs(g(real_view(y)))
    if not (0.0 < fx < eta and 0.0 < gy < eta):
        return None
    return 0.5 * math.log(eta / fx) + 0.5 * math.log(eta / gy)


def distance_lower_bound_detailed(domain: Domain, x, y, tube: bool = True):
    """(best bound, per-branch values).  Branch keys:

    ``delta-ratio``           1/2 |log(delta(x)/delta(y))|
    ``halfplane-projection``  contraction onto the supporting half-plane
    ``directional``           1/2 log(1 + |x-y| / max(t_x, t_y))
    ``pair-tube``             additive two-projection bound (when it applies)

    The ``directional`` branch is the repaired reading of a misprinted
    display; reports flag values that rely on it.  ``tube=False`` skips the
    pair-tube branch, which runs a small constrained solve per call; sweeps
    over many pairs use this to stay fast.
    """
    x, y = as_carray(x), as_carray(y)
    if not domain.contains(x) or not domain.contains(y):
        raise GeometryError("distance_lower_bound needs interior points")
    if np.array_equal(x, y):
        return 0.0, {}
    # canonical order so the bound is exactly symmetric in its arguments
    kx = tuple(np.round(real_view(x), 12))
    ky = tuple(np.round(real_view(y), 12))
    if ky < kx:
        x, y = y, x

    branches = {}

    # (a) boundary-distance ratio: certified lower over certified upper
    lo_x, lo_y = domain.inner_radius_fast(x), domain.inner_radius_fast(y)
    up_x, up_y = domain.boundary_distance(x), domain.boundary_distance(y)
    ratio = 0.0
    if lo_x > 0.0 and up_y > 0.0:
        ratio = max(ratio, 0.5 * math.log(lo_x / up_y))
    if lo_y > 0.0 and up_x > 0.0:
        ratio = max(ratio, 0.5 * math.log(lo_y / up_x))
    branches["delta-ratio"] = ratio

    # (b) supporting half-plane projections at both ends
    proj = 0.0
    for source in (x, y):
        val = _halfplane_projection_bound(domain, x, y, source)
        if val is not None:
            proj = max(proj, val)
    branches["halfplane-projection"] = proj

    # (c) directional bound along the chord (repaired reading)
    u = float(np.linalg.norm(y - x))
    t = max(domain.directional_distance(x, y - x),
            domain.directional_distance(y, y - x))
    if math.isfinite(t) and t > 0.0:
        branches["directional"] = 0.5 * math.log1p(u / t)

    # (d) additive pair bound for deep pairs
    if tube:
        pt = pair_tube_bound(domain, x, y)
        if pt is not None:
            branches["pair-tube"] = pt

    best = max(branches.values()) if branches else 0.0
    return max(0.0, best), branches


def distance_lower_bound(domain: Domain, x, y, tube: bool = True) -> float:
    """Best available certified lower bound for the Kobayashi distance."""
    return distance_lower_bound_detailed(domain, x, y, tube=tube)[0]


# ---------------------------------------------------------------------------
# certified distance upper bounds
# ---------------------------------------------------------------------------


def segment_upper(domain: Domain, a, b) -> float:
    """Certified upper bound for k_D(a, b) along one short segment.

    Model domains use the exact pair distance.  Otherwise the full
    euclidean ball of (certified) radius t around the better endpoint
    contains the flat disc through both points, so
    k_D(a,b) <= artanh(|b-a|/t); this requires |b-a| < t, and callers
    subdivide until it holds.
    """
    a, b = as_carray(a), as_carray(b)
    exact = domain.exact_distance(a, b)
    if exact is not None:
        return exact
    u = float(np.linalg.norm(b - a))
    if u == 0.0:
        return 0.0
    t = max(domain.inner_radius_fast(a), domain.inner_radius_fast(b))
    if not u < t:
        raise GeometryError("segment too long for a certified touching-disc "
                            "bound; subdivide")
    return math.atanh(u / t)


def _certified_chain_upper(domain: Domain, a: np.ndarray, b: np.ndarray,
                           depth: int = 48) -> float:
    u = float(np.linalg.norm(b - a))
    if u == 0.0:
        return 0.0
    t = max(domain.inner_radius_fast(a), domain.inner_radius_fast(b))
    if u < 0.5 * t:
        return math.atanh(u / t)
    if depth == 0:
        raise GeometryError("certified upper bound did not converge; "
                            "endpoints too close to the boundary")
    mid = 0.5 * (a + b)
    return (_certified_chain_upper(domain, a, mid, depth - 1)
            + _certified_chain_upper(domain, mid, b, depth - 1))


def distance_bracket(domain: Domain, x, y) -> MetricBracket:
    """Certified two-sided distance bracket.

    Model domains collapse to the exact value.  General convex domains pair
    the best lower bound with a subdivided touching-disc upper bound along
    the straight segment (inside the domain by convexity).
    """
    x, y = as_carray(x), as_carray(y)
    exact = domain.exact_distance(x, y)
    if exact is not None:
        return MetricBracket(exact, exact)
    if not domain.contains(x) or not domain.contains(y):
        raise GeometryError("distance_bracket needs interior points")
    lower = distance_lower_bound(domain, x, y)
    upper = _certified_chain_upper(domain, x, y)
    if lower > upper * (1.0 + 1e-12):
        # both sides are certified, so a real crossing means a broken domain
        raise GeometryError(f"bound crossing: lower {lower} > upper {upper}")
    return MetricBracket(min(lower, upper), upper)


# ---------------------------------------------------------------------------
# explicit special-geometry values
# ---------------------------------------------------------------------------


def halfplane_hole_distance(delta: float, eta: float) -> float:
    """k_H(i*delta, {|w| >= eta}) in the upper half-plane, exactly.

    Written as a difference of logs so that the eta = 1 case cancels
    0.5 log delta bit-for-bit.
    """
    if not (0.0 < delta < eta):
        raise GeometryError("halfplane_hole_distance needs 0 < delta < eta")
    return 0.5 * math.log(eta) - 0.5 * math.log(delta)


def strip_to_disc(zeta: complex) -> complex:
    """Conformal map of the strip { |Im zeta| < 1 } onto the unit disc.

    (e^{pi zeta / 2} - 1) / (e^{pi zeta / 2} + 1), evaluated as
    tanh(pi zeta / 4) for stability at large |Re zeta|.
    """
    zeta = complex(zeta)
    if abs(zeta.imag) > 1.0:
        raise GeometryError("strip_to_disc needs |Im zeta| <= 1")
    return cmath.tanh(math.pi * zeta / 4.0)
