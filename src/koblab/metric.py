"""Kobayashi distance: exact model formulas, certified bounds.

Model domains (disc, half-plane, polydisc, ball) have closed forms, and
their distance brackets are the closed form widened by its derived
rounding bound, in one place, :func:`_model_bracket`.  The closed forms
live in :mod:`koblab.geometry` as ``Domain.exact_distance``; the pair
distances ``disc_distance``, ``halfplane_distance``, ``polydisc_distance``
and ``ball_distance`` are re-exported here.  Everything else is handled by
two-sided interval arithmetic:

* distance lower bounds come from holomorphic projections onto half-planes
  (contraction under holomorphic maps) and from the directional squeeze
  along the chord, assembled in :func:`distance_lower_bound`, which takes
  each endpoint's boundary distance and contact from one
  :meth:`~koblab.geometry.Domain._project`;
* distance upper bounds come from summing per-segment certified terms
  along explicit paths.  Both paths, the subdivided chord of
  :func:`distance_bracket` and the geodesic descent of :mod:`koblab.solver`,
  read one source of segment terms, the domain's ``_node`` and ``_terms``
  (:meth:`~koblab.geometry.Domain._terms`): rounded-up touching-disc
  bounds on non-model domains, whose touching disc for [a, b] takes the
  largest of both ends' inner radii and, on Omega_psi, their line radii:
  certified discs in the complex line of b - a, about c/log(1/eps) next to
  the flat segment, where the inner radius is about eps.

Every side rests on an inequality that holds exactly: lower bounds only use
supporting half-planes at boundary contacts and over-estimates of
directional distances, upper bounds only use certified inner and line
radii.  In floating point these sides round outward: the model closed
forms (each widened by its derived ``exact_error`` in
:func:`_model_bracket`, for ``distance_bracket`` and the solver alike),
the pair-tube bound (its dual, its gaps and its logs), the
directional branch (its log, and every model's and the window's
closed-form t, rounded up through :func:`~koblab.geometry._quadric_exit`;
the phase scan reads outer ray ends), the generic kernel's touching-disc
term, Omega_psi's line radius (its wall bound rounded up) and the chord's
and the solver's segment sums :func:`~koblab.geometry._sum_up`.  Still
plain double: the half-plane projection bound (its contact and normal
come from the plain-double ``_project``), the bidisc paths' artanh grids,
the models' node radii 1 - |z| (and 1 - max |z_j|) that
``inner_radius_fast`` returns, and the ellipsoid gauge sum
|z_j|^2/a_j^2 that its inner radius reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    AmbiguousProjectionError,
    Domain,
    GeometryError,
    _UNIT_ROUNDOFF,
    _difference_parts,
    _down,
    _golden_section,
    _lex_key,
    _sum_up,
    _up,
    as_carray,
    ball_distance,
    disc_distance,
    halfplane_distance,
    polydisc_distance,
)

__all__ = [
    "SignedBracket",
    "MetricBracket",
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


# the torus phase search: a coarse grid over the circle, then golden
# sections on the two cells next to its best point, down to a few ulps of 2 pi
_PHASE_GRID = 32
_PHASE_TOL = 2.0 ** -48


def _norm(v: list) -> float:
    """The Euclidean norm of a list of complex floats."""
    return math.hypot(*(abs(t) for t in v))


def _face_point(R: float, c_p: complex, c_q: complex, P: list, Q: list):
    """The maximizer of D on the face |a| = 1, |b| < 1, or None.

    With g = <nu_q, nu_p>/|nu_q|^2, nu_p⊥ = nu_p - g nu_q and
    beta = a g + b, the norm is |a nu_p⊥ + beta nu_q| and D is
    Re(conj(a) z) + Re(conj(beta) c_q) - R sqrt(|nu_p⊥|^2 + |beta|^2 |nu_q|^2)
    with z = c_p - conj(g) c_q.  Stationarity in beta gives
    beta = c_q |w| / (R |nu_q|^2), which exists only when
    |c_q| < R |nu_q|, and the beta part is then the constant
    -|nu_p⊥| sqrt(R^2 - |c_q|^2/|nu_q|^2), the same for every unit a.  So
    a = z/|z| and b = beta - a g; the point is kept when |b| <= 1, and it
    is then the maximum of D over all of |a| = 1, since it maximizes over
    every b.  Otherwise (|c_q| >= R |nu_q|, where D grows without bound in
    b, or |b| > 1) the maximum over |a| = 1 lies on |b| = 1, as D is
    concave in b.
    """
    nqq = sum(abs(t) ** 2 for t in Q)
    root2 = R * R - abs(c_q) ** 2 / nqq
    if not root2 > 0.0:
        return None
    g = sum(q.conjugate() * p for p, q in zip(P, Q)) / nqq
    perp = _norm([p - g * q for p, q in zip(P, Q)])
    z = c_p - g.conjugate() * c_q
    a = z / abs(z) if z else 1.0 + 0.0j
    b = c_q * perp / (nqq * math.sqrt(root2)) - a * g
    return (a, b) if abs(b) <= 1.0 else None


def _torus_point(R: float, c_p: complex, c_q: complex, P: list, Q: list):
    """The best point found on the torus |a| = |b| = 1.

    With b = a e^{i delta}, D is Re(conj(a) s) - R |nu_p + e^{i delta} nu_q|
    with s = c_p + e^{-i delta} c_q, largest at a = s/|s|, which leaves
    h(delta) = |s| - R |nu_p + e^{i delta} nu_q|.  h is searched on a grid
    of ``_PHASE_GRID`` phases and refined by golden sections on the two
    cells beside the best one.  The norm is taken of the vector itself: where
    nu_p and nu_q are parallel h has its kink at that norm's zero, and the
    Gram form |nu_p|^2 + |nu_q|^2 + 2 Re(e^{i delta} <nu_p, nu_q>) cancels
    there to an error of about 1e-8.
    """
    def h(delta):
        e = complex(math.cos(delta), math.sin(delta))
        return abs(c_p + e.conjugate() * c_q) \
            - R * _norm([p + e * q for p, q in zip(P, Q)])

    step = 2.0 * math.pi / _PHASE_GRID
    best = max((h(j * step), j * step) for j in range(_PHASE_GRID))
    c, hc, d, hd = _golden_section(h, best[1] - step, best[1] + step,
                                   _PHASE_TOL)
    delta = max(best, (hc, c), (hd, d))[1]
    e = complex(math.cos(delta), math.sin(delta))
    s = c_p + e.conjugate() * c_q
    a = s / abs(s) if s else 1.0 + 0.0j
    return a, a * e


def _dual_candidates(R: float, c_p: complex, c_q: complex,
                     nu_p: np.ndarray, nu_q: np.ndarray) -> dict:
    """The candidate maximizers of D over the bidisc, by kind: ``zero``,
    ``torus`` and, where they exist, ``face-a`` (|a| = 1, |b| < 1) and
    ``face-b`` (the mirror); see :func:`_dual_disjointness`."""
    P, Q = nu_p.tolist(), nu_q.tolist()
    out = {"zero": (0j, 0j), "torus": _torus_point(R, c_p, c_q, P, Q)}
    face = _face_point(R, c_p, c_q, P, Q)
    if face is not None:
        out["face-a"] = face
    face = _face_point(R, c_q, c_p, Q, P)
    if face is not None:
        out["face-b"] = face[::-1]
    return out


def _dual_disjointness(R: float, c_p: complex, c_q: complex,
                       nu_p: np.ndarray, nu_q: np.ndarray) -> float:
    """A certified lower bound on min over |u| <= R of |f(u)| + |g(u)|.

    D(a, b) = Re(conj(a) c_p + conj(b) c_q) - R |a nu_p + b nu_q| is concave
    and positively homogeneous of degree 1 on the bidisc |a|, |b| <= 1.  So
    its maximum is 0 at the origin, or it is positive and then lies where
    |a| = 1 or |b| = 1 (scaling a point up by t > 1 multiplies D by t).  On
    |a| = 1 the maximum over b is either interior, where stationarity in b
    fixes the face point of :func:`_face_point` in closed form, or on
    |b| = 1, the torus of :func:`_torus_point`; |b| = 1 is the mirror.  The
    four candidates (zero, torus, face a, face b) thus hold the maximum,
    up to the torus's one-dimensional phase search.

    Each candidate is pulled into the discs and evaluated in full by
    :func:`_dual_value`, and the largest value is returned: every value is
    D at a feasible point, rounded down, so the search bears only on
    tightness, never on soundness.
    """
    return max(_dual_value(R, c_p, c_q, nu_p, nu_q, _into_disc(a),
                           _into_disc(b))
               for a, b in _dual_candidates(R, c_p, c_q, nu_p, nu_q).values())


def _half_log_down(eta: float, gap: float) -> float:
    """1/2 log(eta/gap) rounded down.  The quotient is stepped one float
    down, so it is at most eta/gap.  Four steps down (see
    :func:`~koblab.geometry._up`) then bring the computed log under the
    exact log of that quotient, allowing libm an error of 2 ulps, the bound
    :func:`~koblab.geometry._touching_disc_upper` takes for atanh.  A
    result <= 0 is below the positive exact value anyway, and halving is
    exact otherwise."""
    return 0.5 * _down(math.log(_down(eta / gap, 1)), 4)


def _directional_bound(x: np.ndarray, y: np.ndarray, t: float) -> float:
    """1/2 log(1 + |y - x|/t) rounded down, for t at least the directional
    distance.  |y - x| is ``math.hypot`` of the parts of fl(y - x), each
    rounded once, stepped three floats down: one for the subtraction and
    two for hypot's ulp, the mirror of
    :func:`~koblab.geometry._touching_disc_upper`.  The quotient is stepped
    one float down and libm log1p is allowed 2 ulps, four steps down, as
    in :func:`_half_log_down`; halving is exact."""
    u = _down(math.hypot(*_difference_parts(x.tolist(), y.tolist())), 3)
    return 0.5 * _down(math.log1p(_down(u / t, 1)), 4)


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
    feasible (a, b) bounds mu from below.  D is concave and positively
    homogeneous of degree 1, so its maximum over the bidisc is one of four
    candidates: 0 at the origin, the best point of the torus |a| = |b| = 1
    (one phase search), and the closed-form stationary points of the faces
    |a| = 1 > |b| and |b| = 1 > |a| from the KKT conditions (derived in
    :func:`_dual_disjointness`).  Each candidate is pulled into the discs
    and D is evaluated there rounded down (R |w| rounded up, the result
    padded down by a few ulps); mu is the largest of these values, and eta
    is the exact disjointness threshold mu / 2.

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

    The tube's own sides round outward too.  Each gap is padded up by
    (2n + 7) u (|c| + |nu| |z|) and one float: the bound above, plus u of
    the same scale for its second-order terms and the rounding of the pad,
    and the float for the rounding of the sum.  A padded gap below eta puts
    the exact point inside its tube.  Each 1/2 log(eta/gap) is rounded down
    by :func:`_half_log_down`, and their sum one float down.  The padded
    gaps only grow, so the pre-check stays exact.

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
    n_p, n_q = float(np.linalg.norm(nu_p)), float(np.linalg.norm(nu_q))
    n_x, n_y = float(np.linalg.norm(x)), float(np.linalg.norm(y))
    scale = abs(c_p) + abs(c_q)
    pad = (4 * len(x) + 16) * _UNIT_ROUNDOFF
    m_up = min(f + g + pad * (scale + (n_p + n_q) * n_z + f + g)
               for n_z, (f, g) in zip((n_x, n_y), gaps))
    if fx >= 0.5 * m_up or gy >= 0.5 * m_up:
        return None
    mu = _dual_disjointness(domain.bounding_radius, c_p, c_q, nu_p, nu_q)
    if not (mu > 0.0 and math.isfinite(mu)):
        return None
    eta = 0.5 * mu
    pad = (2 * len(x) + 7) * _UNIT_ROUNDOFF
    fx = _up(fx + pad * (abs(c_p) + n_p * n_x), 1)
    gy = _up(gy + pad * (abs(c_q) + n_q * n_y), 1)
    if not (0.0 < fx < eta and 0.0 < gy < eta):
        return None
    return _down(_half_log_down(eta, fx) + _half_log_down(eta, gy), 1)


def distance_lower_bound_detailed(domain: Domain, x, y):
    """(best bound, per-branch values).  Branch keys:

    ``halfplane-projection``  contraction onto the supporting half-plane
    ``directional``           1/2 log(1 + |x-y| / max(t_x, t_y))
    ``pair-tube``             additive two-projection bound (when it applies)

    The best bound is the largest branch value, floored at 0 (0 and an
    empty dict for x == y); the dict holds each branch that applies.  The
    ``directional`` branch is the repaired reading of a misprinted
    display, with t_x, t_y the directional distances of the chord at its
    ends.  No caller reports which branch won: they keep only the best
    bound.  Both projection branches share one boundary projection of each
    point, ``Domain._project``.  The ratio 1/2 |log(delta(x)/delta(y))| has
    no branch of its own: at the shallower end's contact p, with unit
    normal nu, Im h = Re <nu, p - z> is that end's delta and, for the other
    end, its distance to the supporting hyperplane, at least its delta; so
    the half-plane branch at that contact is at least the ratio.
    :func:`pair_tube_bound` first settles most pairs that its dual solve
    would reject with an exact, cheap check.  The two directional scans of
    (b) share one early exit: the end with the larger boundary distance is
    scanned first, and its t is the ``stop`` of the other scan, which is
    exact because only the larger t is kept.
    """
    x, y = domain._interior(x), domain._interior(y)
    if np.array_equal(x, y):
        return 0.0, {}
    # canonical order so the bound is exactly symmetric in its arguments
    if _lex_key(y) < _lex_key(x):
        x, y = y, x

    branches = {}

    # one boundary projection per point: its distance orders the scans of
    # (b), its contact is the source of (a) and (c)
    (up_x, up_y), contacts = zip(_boundary_contact(domain, x),
                                 _boundary_contact(domain, y))

    # (a) supporting half-plane projections at both ends; an ambiguous
    # projection drops only its own source
    proj = 0.0
    for contact in contacts:
        if contact is not None:
            val = _halfplane_projection_bound(x, y, contact)
            if val is not None:
                proj = max(proj, val)
    branches["halfplane-projection"] = proj

    # (b) directional bound along the chord (repaired reading); only the
    # larger end counts, so the end farther from the boundary is scanned
    # first and its t stops the other scan (exact, see directional_distance).
    # A chord whose norm underflows to 0 gives no direction, and its branch
    # would be below 1e-300: it is left out
    v = y - x
    if np.linalg.norm(v) > 0.0:
        if up_x >= up_y:
            t_x = domain.directional_distance(x, v)
            t_y = domain.directional_distance(y, v, stop=t_x)
        else:
            t_y = domain.directional_distance(y, v)
            t_x = domain.directional_distance(x, v, stop=t_y)
        t = max(t_x, t_y)
        if math.isfinite(t) and t > 0.0:
            branches["directional"] = _directional_bound(x, y, t)

    # (c) additive pair bound for deep pairs
    pt = pair_tube_bound(domain, x, y, contacts=contacts)
    if pt is not None:
        branches["pair-tube"] = pt

    best = max(branches.values()) if branches else 0.0
    return max(0.0, best), branches


def distance_lower_bound(domain: Domain, x, y) -> float:
    """Best available certified lower bound for the Kobayashi distance."""
    return distance_lower_bound_detailed(domain, x, y)[0]


# ---------------------------------------------------------------------------
# certified distance upper bounds
# ---------------------------------------------------------------------------


# artanh(1/2): a piece whose touching-disc term reaches it spans at least
# half its larger end radius, and is halved
_SPLIT_TERM = 0.5 * math.log(3.0)


def _certified_chain_upper(domain: Domain, a: list, b: list,
                           fa, fb, depth: int = 48) -> float:
    """Certified upper for k(a, b) along the segment [a, b].

    ``a`` and ``b`` are points in the segment kernels' form
    (``ndarray.tolist()``: lists of Python complex numbers), and ``fa``,
    ``fb`` their factors from the domain's ``_node``.  A piece costs the
    max of its ``_terms`` when that is below artanh(1/2), i.e. on the
    generic kernel when the piece is shorter than half its larger end
    radius; a longer one is halved, each midpoint's factor is computed
    once and handed to both halves, and the halves add rounding up.  The
    midpoint is taken coordinate by coordinate, the same floats as
    ``0.5 * (a + b)`` on arrays.
    """
    s = max(domain._terms(a, b, fa, fb))
    if s < _SPLIT_TERM:
        return s
    if depth == 0:
        raise GeometryError("certified upper bound did not converge; "
                            "endpoints too close to the boundary")
    mid = [0.5 * (p + q) for p, q in zip(a, b)]
    fm = domain._node(mid)[1]
    return _sum_up([_certified_chain_upper(domain, a, mid, fa, fm, depth - 1),
                    _certified_chain_upper(domain, mid, b, fm, fb, depth - 1)])


def _model_bracket(domain: Domain, d: float, delta: float) -> MetricBracket:
    """The model closed form d, widened to a certified bracket.

    With e = ``domain.exact_error(d, delta)``, delta the pair's smaller
    ``_node`` radius, the lower is d - e stepped one float toward 0 and
    floored at 0, the upper d + e stepped one float up: the step covers
    the rounding of d +- e, and e's own rounding is of second order.
    This is the one reader of ``exact_error``: ``distance_bracket`` on
    the models and the solver's model segments and endpoint lower all
    come through here.  Below ``domain.exact_depth``, where the bound is
    not derived, it raises ``GeometryError`` instead of emitting a width
    nothing backs.
    """
    if not delta >= domain.exact_depth:
        raise GeometryError(f"depth {delta:.3g} is below exact_depth "
                            f"{domain.exact_depth:.3g}")
    e = domain.exact_error(d, delta)
    return MetricBracket(max(0.0, math.nextafter(d - e, 0.0)),
                         math.nextafter(d + e, math.inf))


def distance_bracket(domain: Domain, x, y) -> MetricBracket:
    """Certified two-sided distance bracket.

    On model domains it is the closed form widened by its rounding bound
    (:func:`_model_bracket`, at the pair's smaller node radius), and
    exactly [0, 0] for coincident points.  General convex domains pair
    the best lower bound with a subdivided upper along the straight segment
    (inside the domain by convexity), whose pieces cost the domain's own
    segment terms, those of the geodesic descent.
    """
    x, y = domain._interior(x), domain._interior(y)
    a, b = x.tolist(), y.tolist()
    if domain.exact:
        if a == b:
            return MetricBracket(0.0, 0.0)
        return _model_bracket(domain, domain.exact_distance(x, y),
                              min(domain._node(a)[0], domain._node(b)[0]))
    lower = distance_lower_bound(domain, x, y)
    upper = _certified_chain_upper(domain, a, b, domain._node(a)[1],
                                   domain._node(b)[1])
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

