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
  :func:`distance_lower_bound`, which takes each endpoint's boundary
  distance and contact from one :meth:`~koblab.geometry.Domain._project`;
* distance upper bounds come from summing per-segment certified terms
  along explicit paths.  Both paths, the subdivided chord of
  :func:`distance_bracket` and the geodesic descent of :mod:`koblab.solver`,
  read one source of segment terms, the domain's
  :meth:`~koblab.geometry.Domain.segment_kernels`: rounded-up touching-disc
  bounds on non-model domains, whose touching disc for [a, b] takes the
  largest of both ends' inner radii and, on Omega_psi, their line radii:
  certified discs in the complex line of b - a, about c/log(1/eps) next to
  the flat segment, where the inner radius is about eps.

Every side rests on an inequality that holds exactly: lower bounds only use
certified under-estimates of boundary distances, upper bounds only use
certified inner and line radii.  In floating point these sides round
outward: the model closed forms (each within its derived ``exact_error``,
which the solver widens by), the pair-tube bound (rounded down), the
generic kernel's touching-disc term, Omega_psi's line radius (its wall
bound rounded up) and the chord's and the solver's segment sums
:func:`~koblab.geometry._sum_up`.  Still plain double: the model
``distance_bracket`` [d, d], the directional lower at ``ray_exit``'s
midpoint, the half-plane projection bound, the tube gaps |f(x)| and
|g(y)|, and the bidisc paths' artanh grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .geometry import (
    AmbiguousProjectionError,
    Domain,
    GeometryError,
    _UNIT_ROUNDOFF,
    _lex_key,
    _sum_up,
    as_carray,
    ball_distance,
    disc_distance,
    halfplane_distance,
    polydisc_distance,
)

__all__ = [
    "SignedBracket",
    "MetricBracket",
    "metric_bracket",
    "disc_distance",
    "halfplane_distance",
    "polydisc_distance",
    "ball_distance",
    "distance_lower_bound",
    "distance_lower_bound_detailed",
    "pair_tube_bound",
    "distance_bracket",
    "halfplane_hole_distance",
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
# metric brackets (the closed forms live on the domains)
# ---------------------------------------------------------------------------


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


def _boundary_contact(domain: Domain, z: np.ndarray):
    """(delta, contact) from one boundary projection of interior z:
    delta is its boundary distance, and contact is (p, nu), the nearest
    boundary point and its supporting normal, or None when the projection
    is ambiguous."""
    delta, p = domain._project(z)
    if isinstance(p, AmbiguousProjectionError):
        return delta, None
    return delta, (p, domain.supporting_normal(p))


def _halfplane_projection_bound(x: np.ndarray, y: np.ndarray, contact):
    """Lower bound via z -> i<p - z, nu> for a boundary contact (p, nu).

    Any boundary point p with supporting normal nu works: Re <p - z, nu> > 0
    on the domain, so the map lands in the upper half-plane and contracts.
    """
    p, nu = contact
    hx = 1j * complex(np.vdot(nu, p - x))
    hy = 1j * complex(np.vdot(nu, p - y))
    if hx.imag <= 0.0 or hy.imag <= 0.0:
        return None  # numerically degenerate projection, drop the branch
    return halfplane_distance(hx, hy)


def _into_disc(a: complex) -> complex:
    """a, pulled into the closed unit disc with room for rounding."""
    m = abs(a)
    limit = 1.0 - 16.0 * _UNIT_ROUNDOFF
    return a * (limit / m) if m > limit else a


def _dual_value(R: float, c_p: complex, c_q: complex, nu_p: np.ndarray,
                nu_q: np.ndarray, a: complex, b: complex) -> float:
    """D(a, b) = Re(conj(a) c_p + conj(b) c_q) - R |a nu_p + b nu_q|,
    rounded down.

    R |w| is rounded up first: its error bound covers the rounding of
    w = a nu_p + b nu_q and of the norm.  The linear part is an exactly
    summed ``fsum`` of four rounded products, and the difference is then
    padded down by a few ulps of the magnitudes involved.
    """
    u = _UNIT_ROUNDOFF
    w = a * nu_p + b * nu_q
    nw = float(np.linalg.norm(w))
    slack = abs(a) * float(np.linalg.norm(nu_p)) \
        + abs(b) * float(np.linalg.norm(nu_q)) + nw
    norm_up = R * (nw * (1.0 + (2 * len(w) + 8) * u) + 4.0 * u * slack)
    norm_up *= 1.0 + 4.0 * u
    terms = (a.real * c_p.real, a.imag * c_p.imag,
             b.real * c_q.real, b.imag * c_q.imag)
    lin = math.fsum(terms)
    pad = 4.0 * u * (sum(abs(t) for t in terms) + abs(lin) + norm_up)
    return (lin - norm_up) - pad


def _dual_disjointness(R: float, c_p: complex, c_q: complex,
                       nu_p: np.ndarray, nu_q: np.ndarray) -> float:
    """A certified lower bound on min over |u| <= R of |f(u)| + |g(u)|.

    Maximizes the concave dual D over the two unit discs in the Cartesian
    coordinates (Re a, Im a, Re b, Im b); D only sees a and b through the
    Gram matrix of nu_p and nu_q, so the search evaluates that 2 x 2 form.
    The optimizer's point is pulled into the discs and evaluated in full by
    :func:`_dual_value`; a failed search gives a smaller value or NaN, never
    an unsound one.
    """
    npp = float(np.vdot(nu_p, nu_p).real)
    nqq = float(np.vdot(nu_q, nu_q).real)
    gamma = complex(np.vdot(nu_p, nu_q))

    def negative_dual(v: np.ndarray):
        a, b = complex(v[0], v[1]), complex(v[2], v[3])
        ab = a.conjugate() * b * gamma
        nw = math.sqrt(max(0.0, (a.real * a.real + a.imag * a.imag) * npp
                           + (b.real * b.real + b.imag * b.imag) * nqq
                           + 2.0 * ab.real))
        val = (a.conjugate() * c_p + b.conjugate() * c_q).real - R * nw
        da, db = c_p, c_q
        if nw > 0.0:
            da = da - R * (a * npp + b * gamma) / nw
            db = db - R * (b * nqq + a * gamma.conjugate()) / nw
        return -val, -np.array([da.real, da.imag, db.real, db.imag])

    def discs(v: np.ndarray) -> np.ndarray:
        return np.array([1.0 - v[0] * v[0] - v[1] * v[1],
                         1.0 - v[2] * v[2] - v[3] * v[3]])

    def discs_jac(v: np.ndarray) -> np.ndarray:
        return np.array([[-2.0 * v[0], -2.0 * v[1], 0.0, 0.0],
                         [0.0, 0.0, -2.0 * v[2], -2.0 * v[3]]])

    a0 = c_p / abs(c_p) if c_p else 1.0 + 0.0j
    b0 = c_q / abs(c_q) if c_q else 1.0 + 0.0j
    res = optimize.minimize(
        negative_dual, np.array([a0.real, a0.imag, b0.real, b0.imag]),
        jac=True, method="SLSQP",
        constraints=[{"type": "ineq", "fun": discs, "jac": discs_jac}],
        options={"maxiter": 100, "ftol": 1e-10})
    a, b = complex(res.x[0], res.x[1]), complex(res.x[2], res.x[3])
    return _dual_value(R, c_p, c_q, nu_p, nu_q, _into_disc(a), _into_disc(b))


def pair_tube_bound(domain: Domain, x, y, *, contacts=None):
    """Additive two-projection lower bound for deep boundary-hugging pairs.

    Writes f(z) = c_p - <nu_p, z> and g(z) = c_q - <nu_q, z>, with
    c_p = <nu_p, p> and c_q = <nu_q, q>, for the supporting data at the
    projections p of x and q of y; both map the domain into the right
    half-plane with |f(x)| and |g(y)| equal to the hyperplane gaps.  If the
    tubes {|f| < eta} and {|g| < eta} are disjoint inside the domain, any
    curve from x to y pays 1/2 log(eta/|f(x)|) to leave the first tube and
    1/2 log(eta/|g(y)|) to enter the second, and the two payments add.

    The tubes are disjoint when 2 eta <= mu = min over the bounding ball
    |u| <= R of |f(u)| + |g(u)|.  mu is certified from below by the
    Lagrange dual D(a, b) = Re(conj(a) c_p + conj(b) c_q)
    - R |a nu_p + b nu_q|: for |a|, |b| <= 1 and |u| <= R, weak duality gives
    |f(u)| + |g(u)| >= Re(conj(a) f(u) + conj(b) g(u)) >= D(a, b), so any
    feasible (a, b) bounds mu from below.  D is concave in
    (Re a, Im a, Re b, Im b) and the two discs are convex, so one local
    solve finds its maximum; the optimizer's point is pulled into the discs
    and D is evaluated there rounded down (R |w| rounded up, the result
    padded down by a few ulps).  eta is the exact disjointness threshold
    mu / 2.

    Before the dual solve, a cheap upper bound on mu settles most
    rejections exactly.  x and y lie in the domain, hence in the bounding ball, so
    m = min(|f(x)| + |g(x)|, |f(y)| + |g(y)|) >= mu >= the solved
    D.  With m rounded up to m+, |f(x)| >= m+/2 or |g(y)| >= m+/2 means
    the solved eta = D/2 <= m+/2 would reject as well, and None is
    returned without the solve.  The rounding of m: the computed
    s = <nu, z> is within (2n + 2) u sum_i |nu_i| |z_i| <= (2n + 2) u |nu| |z|
    of the exact one (one complex product per term, then n - 1 additions
    in any order, n = dim, u the unit roundoff); c - s and its modulus add
    u |c - s| and 2 u |c - s|.  The error of each gap is therefore at most
    (2n + 6) u (|c| + |nu| |z|), which covers the cancellation in c - s
    when z is near the plane; the sum of the two gaps adds u of itself.
    m+ pads the computed sum by (4n + 16) u (|c_p| + |c_q|
    + (|nu_p| + |nu_q|) |z| + sum): doubling the first-order constant
    covers the second-order terms, the rounding of the norms and of the
    pad itself.  When the check passes, the dual runs as before, so the
    result is the same either way, bit for bit.

    ``contacts`` takes the boundary contacts (p, nu_p) of x and (q, nu_q)
    of y (None for an ambiguous one) when the caller already has them.
    Returns None when not applicable (unbounded domain, ambiguous
    projections, mu <= 0, or either point outside its tube).
    """
    if math.isinf(domain.bounding_radius):
        return None
    if contacts is None:
        x, y = domain._interior(x), domain._interior(y)
        contacts = (_boundary_contact(domain, x)[1],
                    _boundary_contact(domain, y)[1])
    else:
        x, y = as_carray(x), as_carray(y)
    if contacts[0] is None or contacts[1] is None:
        return None
    (p, nu_p), (q, nu_q) = contacts
    c_p = complex(np.vdot(nu_p, p))
    c_q = complex(np.vdot(nu_q, q))
    gaps = [(abs(c_p - complex(np.vdot(nu_p, z))),
             abs(c_q - complex(np.vdot(nu_q, z)))) for z in (x, y)]
    fx, gy = gaps[0][0], gaps[1][1]
    # m_up >= mu, so a gap at or above m_up/2 fails the solved eta too
    scale = abs(c_p) + abs(c_q)
    slope = float(np.linalg.norm(nu_p)) + float(np.linalg.norm(nu_q))
    pad = (4 * len(x) + 16) * _UNIT_ROUNDOFF
    m_up = min(f + g + pad * (scale + slope * float(np.linalg.norm(z)) + f + g)
               for z, (f, g) in zip((x, y), gaps))
    if fx >= 0.5 * m_up or gy >= 0.5 * m_up:
        return None
    mu = _dual_disjointness(domain.bounding_radius, c_p, c_q, nu_p, nu_q)
    if not (mu > 0.0 and math.isfinite(mu)):
        return None
    eta = 0.5 * mu
    if not (0.0 < fx < eta and 0.0 < gy < eta):
        return None
    return 0.5 * math.log(eta / fx) + 0.5 * math.log(eta / gy)


def distance_lower_bound_detailed(domain: Domain, x, y, tube: bool = True):
    """(best bound, per-branch values).  Branch keys:

    ``delta-ratio``           1/2 |log(delta(x)/delta(y))|
    ``halfplane-projection``  contraction onto the supporting half-plane
    ``directional``           1/2 log(1 + |x-y| / max(t_x, t_y))
    ``pair-tube``             additive two-projection bound (when it applies)

    The best bound is the largest branch value, floored at 0 (0 and an
    empty dict for x == y); the dict holds each branch that applies.  The
    ``directional`` branch is the repaired reading of a misprinted
    display, with t_x, t_y the directional distances of the chord at its
    ends.  No caller reports which branch won: they keep only the best
    bound.  The ratio and both projection branches share one boundary
    projection of each point, ``Domain._project``.  ``tube=False`` skips
    the pair-tube branch, whose dual solve costs a few milliseconds when
    it runs (:func:`pair_tube_bound` first settles most pairs that the
    solve would reject with an exact, cheap check); the probes that sweep
    a grid of pairs pass it, which keeps their reproducible outputs as
    they were.
    The two directional scans of (c) share one early exit: the end with
    the larger boundary distance is scanned first, and its t is the
    ``stop`` of the other scan, which is exact because only the larger t
    is kept.
    """
    x, y = as_carray(x), as_carray(y)
    if not domain.contains(x) or not domain.contains(y):
        raise GeometryError("distance_lower_bound needs interior points")
    if np.array_equal(x, y):
        return 0.0, {}
    # canonical order so the bound is exactly symmetric in its arguments
    if _lex_key(y) < _lex_key(x):
        x, y = y, x

    branches = {}

    # one boundary projection per point: its distance is the upper of (a),
    # its contact the source of (b) and (d)
    (up_x, up_y), contacts = zip(_boundary_contact(domain, x),
                                 _boundary_contact(domain, y))

    # (a) boundary-distance ratio: certified lower over certified upper
    lo_x, lo_y = domain.inner_radius_fast(x), domain.inner_radius_fast(y)
    ratio = 0.0
    if lo_x > 0.0 and up_y > 0.0:
        ratio = max(ratio, 0.5 * math.log(lo_x / up_y))
    if lo_y > 0.0 and up_x > 0.0:
        ratio = max(ratio, 0.5 * math.log(lo_y / up_x))
    branches["delta-ratio"] = ratio

    # (b) supporting half-plane projections at both ends; an ambiguous
    # projection drops only its own source
    proj = 0.0
    for contact in contacts:
        if contact is not None:
            val = _halfplane_projection_bound(x, y, contact)
            if val is not None:
                proj = max(proj, val)
    branches["halfplane-projection"] = proj

    # (c) directional bound along the chord (repaired reading); only the
    # larger end counts, so the end farther from the boundary is scanned
    # first and its t stops the other scan (exact, see directional_distance)
    u = float(np.linalg.norm(y - x))
    if up_x >= up_y:
        t_x = domain.directional_distance(x, y - x)
        t_y = domain.directional_distance(y, y - x, stop=t_x)
    else:
        t_y = domain.directional_distance(y, y - x)
        t_x = domain.directional_distance(x, y - x, stop=t_y)
    t = max(t_x, t_y)
    if math.isfinite(t) and t > 0.0:
        branches["directional"] = 0.5 * math.log1p(u / t)

    # (d) additive pair bound for deep pairs
    if tube:
        pt = pair_tube_bound(domain, x, y, contacts=contacts)
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


# artanh(1/2): a piece whose touching-disc term reaches it spans at least
# half its larger end radius, and is halved
_SPLIT_TERM = 0.5 * math.log(3.0)


def _certified_chain_upper(kernels, a: np.ndarray, b: np.ndarray,
                           fa, fb, depth: int = 48) -> float:
    """Certified upper for k(a, b) along the segment [a, b].

    ``kernels`` are the domain's ``(point, node, terms, moved)`` of
    :meth:`~koblab.geometry.Domain.segment_kernels`, and ``fa``, ``fb`` the
    node factors of a and b.  A piece costs the max of its segment terms
    when that is below artanh(1/2), i.e. on the generic kernel when the
    piece is shorter than half its larger end radius; a longer one is
    halved, each midpoint's factor is computed once and handed to both
    halves, and the halves add rounding up.  The points stay arrays: on
    the models ``point`` gives lists, which ``+`` would concatenate, but
    models never reach the chord.
    """
    point, node, terms, _ = kernels
    s = max(terms(point(a), point(b), fa, fb))
    if s < _SPLIT_TERM:
        return s
    if depth == 0:
        raise GeometryError("certified upper bound did not converge; "
                            "endpoints too close to the boundary")
    mid = 0.5 * (a + b)
    fm = node(point(mid))[1]
    return _sum_up([_certified_chain_upper(kernels, a, mid, fa, fm, depth - 1),
                    _certified_chain_upper(kernels, mid, b, fm, fb, depth - 1)])


def distance_bracket(domain: Domain, x, y) -> MetricBracket:
    """Certified two-sided distance bracket.

    Model domains collapse to the exact value.  General convex domains pair
    the best lower bound with a subdivided upper along the straight segment
    (inside the domain by convexity), whose pieces cost the domain's own
    segment terms, those of the geodesic descent.
    """
    x, y = domain._interior(x), domain._interior(y)
    exact = domain.exact_distance(x, y)
    if exact is not None:
        return MetricBracket(exact, exact)
    lower = distance_lower_bound(domain, x, y)
    kernels = domain.segment_kernels()
    point, node, _, _ = kernels
    upper = _certified_chain_upper(kernels, x, y, node(point(x))[1],
                                   node(point(y))[1])
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

