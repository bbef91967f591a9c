"""Outward rounding of the model closed forms, of the touching-disc bound,
of the certified sum, of the solver's uppers, of the pair-tube bound and
of the directional branch, against 50-digit mpmath references computed
apart from koblab."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from koblab.geometry import (Ball, Disc, Ellipsoid, HalfPlane,
                             LocalizedDomain, OmegaPsi, Polydisc, PsiSpec,
                             _difference_parts, _sum_up,
                             _touching_disc_upper)
from koblab.metric import (_boundary_contact, _dual_disjointness,
                           distance_bracket, distance_lower_bound_detailed,
                           pair_tube_bound)
from koblab.solver import SolverConfig, solve_geodesic

DIGITS = 50


def _mpc(z):
    z = complex(z)
    return mpmath.mpc(z.real, z.imag)


def mp_disc(a, b):
    """artanh of the Moebius ratio, at 50 digits."""
    with mpmath.workdps(DIGITS):
        a, b = _mpc(a), _mpc(b)
        return mpmath.atanh(abs(a - b) / abs(1 - mpmath.conj(a) * b))


def mp_ball(z, w):
    """artanh sqrt(1 - (1-|z|^2)(1-|w|^2)/|1-<z,w>|^2), at 50 digits."""
    with mpmath.workdps(DIGITS):
        z, w = [_mpc(c) for c in z], [_mpc(c) for c in w]
        nz = sum(abs(c) ** 2 for c in z)
        nw = sum(abs(c) ** 2 for c in w)
        inner = sum(a * mpmath.conj(b) for a, b in zip(z, w))
        ratio = (1 - nz) * (1 - nw) / abs(1 - inner) ** 2
        return mpmath.atanh(mpmath.sqrt(max(mpmath.mpf(0), 1 - ratio)))


def mp_distance(domain, x, y):
    if isinstance(domain, Ball):
        return mp_ball(x, y)
    return max(mp_disc(a, b) for a, b in zip(x, y))


# ---------------------------------------------------------------------------
# the closed forms stay within their derived error bound
# ---------------------------------------------------------------------------

depths = st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e)
coords = st.floats(-1.0, 1.0)


@st.composite
def unit_vectors(draw, dim):
    v = np.array([complex(draw(coords), draw(coords)) for _ in range(dim)])
    norm = float(np.linalg.norm(v))
    assume(norm > 0.1)
    return v / norm


@st.composite
def model_pairs(draw, domain):
    """Pairs at depths 1e-12 to 1; a near pair sits within a fraction of
    the first point's depth, where 1 - |z|^2 cancels."""
    # the ball is one round body; the disc and polydisc go by coordinate
    blocks = [domain.dim] if isinstance(domain, Ball) else [1] * domain.dim
    x, y = [], []
    for k in blocks:
        dx = draw(depths)
        x0 = (1.0 - dx) * draw(unit_vectors(k))
        if draw(st.booleans()):
            y0 = x0 + draw(st.floats(0.0, 0.9)) * dx * draw(unit_vectors(k))
        else:
            y0 = (1.0 - draw(depths)) * draw(unit_vectors(k))
        x.extend(x0)
        y.extend(y0)
    return np.array(x), np.array(y)


MODELS = [Disc(), Polydisc(2), Ball(2), Ball(3)]


@pytest.mark.parametrize("domain", MODELS,
                         ids=[f"{type(d).__name__}{d.dim}" for d in MODELS])
@given(data=st.data())
def test_closed_form_within_derived_bound(domain, data):
    x, y = data.draw(model_pairs(domain))
    delta = min(domain._node(x.tolist())[0], domain._node(y.tolist())[0])
    assume(delta > 0.0)
    got = domain.exact_distance(x, y)
    with mpmath.workdps(DIGITS):
        err = abs(mpmath.mpf(got) - mp_distance(domain, x, y))
    assert err <= domain.exact_error(got, delta)


# ---------------------------------------------------------------------------
# default-config solver uppers stay above the distance
# ---------------------------------------------------------------------------

# pairs on which the default solver converges to within ~1e-14 of the
# distance, so an unrounded segment sum lands below it
DEFAULT_FAULTS = (
    (Disc(), ((-0.7991380764896782 + 0.6009476534841287j),),
     ((0.15135444827702565 - 0.6841758347650428j),)),
    (Disc(), ((0.9620252966857937 + 0.27216100101151824j),),
     ((-0.9983644225319301 - 0.044707268084244495j),)),
    (Polydisc(2), ((0.8251957778387488 + 0.1745492107499727j),
                   (0.004367665462578808 + 0.999584025781447j)),
     ((0.6339952469263512 + 0.4456091778925824j),
      (-0.9994604436991741 + 0.02962781076663186j))),
    (Polydisc(2), ((0.327504479230309 - 0.5693479892585039j),
                   (-0.999788752463713 + 0.013945492716075234j)),
     ((-0.28990183045602125 - 0.6079461360905764j),
      (0.4275383408857966 - 0.8506030588234355j))),
)


@pytest.mark.parametrize("domain, x, y", DEFAULT_FAULTS)
def test_default_solver_upper_at_or_above_distance(domain, x, y):
    res = solve_geodesic(domain, np.array(x), np.array(y), SolverConfig())
    k = mp_distance(domain, x, y)
    assert res.distance.upper >= k
    assert res.distance.lower <= k
    # the descent ends within 1e-9 relative of the distance at the default
    # rel_tol; this bounds its accuracy, not the rounding
    assert float(res.distance.upper - k) < 1e-9 * float(k)
    # the rounding: the upper lies at or above the exact length L of the
    # path it reports, and only by the certified sum's outward rounding
    pts = res.path.points
    with mpmath.workdps(DIGITS):
        L = mpmath.fsum(mp_distance(domain, a, b)
                        for a, b in zip(pts[:-1], pts[1:]))
        assert mpmath.mpf(res.distance.upper) >= L
        assert mpmath.mpf(res.distance.upper) - L < 1e-11 * L


# ---------------------------------------------------------------------------
# the touching-disc bound and the certified sum round up
# ---------------------------------------------------------------------------


def mp_norm(a, b):
    """|b - a| of two complex float vectors, at 50 digits."""
    with mpmath.workdps(DIGITS):
        return mpmath.sqrt(mpmath.fsum(abs(_mpc(q) - _mpc(p)) ** 2
                                       for p, q in zip(a, b)))


@st.composite
def touching_segments(draw):
    """(a, b, t) in dimensions 1 to 3: |b - a| from 1e-300 to 1, and t
    either a few times |b - a| or a float just above it, so the quotient
    sits just below 1."""
    dim = draw(st.integers(1, 3))
    a = np.array([complex(draw(coords), draw(coords)) for _ in range(dim)])
    length = 10.0 ** draw(st.floats(-300.0, 0.0))
    b = a + length * draw(unit_vectors(dim))
    assume(not np.array_equal(a, b))
    n = float(mp_norm(a, b))
    if draw(st.booleans()):
        t = n * draw(st.floats(1.0, 8.0))
    else:
        t = n
        for _ in range(draw(st.integers(1, 40))):
            t = math.nextafter(t, math.inf)
    return a, b, t


@given(touching_segments())
def test_touching_disc_upper_at_or_above_artanh(seg):
    a, b, t = seg
    got = _touching_disc_upper((b - a).view(float).tolist(), t)
    with mpmath.workdps(DIGITS):
        q = mp_norm(a, b) / mpmath.mpf(t)
        if q >= 1:
            assert got == math.inf
        else:
            assert mpmath.mpf(got) >= mpmath.atanh(q)


def test_touching_disc_upper_edges():
    a = [0.25 + 0.1j, -0.2j]
    assert _touching_disc_upper(_difference_parts(a, list(a)), 0.5) == 0.0
    d = _difference_parts(a, [a[0] + 0.5, a[1]])     # |b - a| = 0.5 exactly
    assert _touching_disc_upper(d, 0.5) == math.inf
    assert _touching_disc_upper(d, 0.0) == math.inf
    assert _touching_disc_upper(d, -1.0) == math.inf
    assert _touching_disc_upper(d, 1.0) >= math.atanh(0.5)


@given(st.lists(st.floats(0.0, 1e6) | st.floats(0.0, 1e-290), min_size=1,
                max_size=64))
def test_sum_up_at_or_above_exact_sum(values):
    got = _sum_up(values)
    with mpmath.workdps(DIGITS):
        assert mpmath.mpf(got) >= mpmath.fsum(mpmath.mpf(v) for v in values)


# ---------------------------------------------------------------------------
# ellipsoid uppers stay above the distance, with no slack
# ---------------------------------------------------------------------------

AXES = (1.0, 2.0)


def mp_ellipsoid(x, y):
    """k of Ellipsoid(AXES): the 50-digit ball distance of the points
    rescaled, in mpmath, by the axes, a linear biholomorphism."""
    with mpmath.workdps(DIGITS):
        return mp_ball([_mpc(c) / ax for c, ax in zip(x, AXES)],
                       [_mpc(c) / ax for c, ax in zip(y, AXES)])


@st.composite
def ellipsoid_pairs(draw):
    """Pairs at depths 1e-6 to 1 in the rescaled ball."""
    def point():
        depth = 10.0 ** draw(st.floats(-6.0, 0.0))
        return (1.0 - depth) * draw(unit_vectors(2)) * np.array(AXES)
    return point(), point()


@settings(max_examples=60)
@given(ellipsoid_pairs())
def test_ellipsoid_bracket_upper_at_or_above_distance(pair):
    x, y = pair
    dom = Ellipsoid(list(AXES))
    assume(dom.contains(x) and dom.contains(y))
    assert distance_bracket(dom, x, y).upper >= mp_ellipsoid(x, y)


# ---------------------------------------------------------------------------
# one radius per domain: membership, inner_radius_fast and the kernel node
# ---------------------------------------------------------------------------

GAUGE_ELLIPSOIDS = [Ellipsoid((1.0, 2.0)), Ellipsoid((1.0, 1.5, 3.0))]
RADIUS_DOMAINS = GAUGE_ELLIPSOIDS + [Disc(), Polydisc(2), Polydisc(3),
                                     Ball(2), Ball(3)]
RADIUS_IDS = [f"{type(d).__name__.lower()}-{d.dim}" for d in RADIUS_DOMAINS]


def _node_radius(dom, z):
    """The radius of the segment kernels' node at the array z."""
    return dom._node(z.tolist())[0]


@st.composite
def radial_points(draw, dom):
    """Points s u of a model or s u a of Ellipsoid(a), u a unit vector
    (on the polydisc scaled to the face max |u_j| = 1), inside at depth
    1 - s log-uniform from 1e-17 to 1, or outside with s - 1 log-uniform
    from 1e-17 to 1.  Below 1e-16, 1 - gap rounds to 1, so s u lies on the
    boundary but for the rounding of u.  The ellipsoids go down to 1e-12
    only: within about 1e-16 of the boundary their projection, which the
    slack check reads, can fail to bracket its root and raise."""
    low = -12.0 if isinstance(dom, Ellipsoid) else -17.0
    gap = 10.0 ** draw(st.floats(low, 0.0))
    s = 1.0 - gap if draw(st.booleans()) else 1.0 + gap
    u = draw(unit_vectors(dom.dim))
    if isinstance(dom, Polydisc):
        u = u / float(np.max(np.abs(u)))
    return s * u * getattr(dom, "axes", 1.0)


@pytest.mark.parametrize("dom", RADIUS_DOMAINS, ids=RADIUS_IDS)
@given(data=st.data())
def test_ellipsoid_gauge_radius_agrees_with_membership(dom, data):
    # membership and the kernels' node read one formula (the gauge on the
    # ellipsoid, the abs or the sum of squares of _node on the models): the
    # radius is > 0 exactly where the point is inside, and the public inner
    # radius is the node's, both with no slack
    z = data.draw(radial_points(dom))
    r = _node_radius(dom, z)
    assert dom.contains(z) is (r > 0.0)
    assert dom.inner_radius_fast(z) == r
    if r > 0.0:
        # the gauge is plain double, not rounded outward: on the minimal
        # axes the radial bound equals the distance in real arithmetic, and
        # its float overshoots the float projection by up to about 2 u
        # max(a), e.g. 0.10000000000000009 against 0.09999999999999996 at
        # (0.9(1 + i)/sqrt 2, 0) in Ellipsoid((1, 2)); the slack is the
        # gauge's (n + 4) u error bound, doubled for the projection's, with
        # a = 1 on the models, whose projection reads numpy's norm
        slack = 2 * (dom.dim + 4) * 2.0 ** -53 * float(
            np.max(getattr(dom, "axes", 1.0)))
        assert r <= dom.boundary_distance(z) + slack


PSI_PROFILES = [PsiSpec("exp_neg_c_over_x"),
                PsiSpec("exp_neg_inv_log_pow", alpha=2.0)]
WINDOW = LocalizedDomain(Ball(2), [0.7, 0.1j], 0.5)
SOUND_RADIUS_DOMAINS = [OmegaPsi(psi) for psi in PSI_PROFILES] + [
    HalfPlane(), WINDOW]
SOUND_RADIUS_IDS = [psi.form for psi in PSI_PROFILES] + ["halfplane",
                                                        "window"]


@st.composite
def boundary_hugging_points(draw, dom):
    """Points within 1e-17 to 1 of the boundary, on either side: above or
    below the Omega_psi wall, off the real axis of the half-plane, and off
    the window sphere or the base sphere of the window."""
    gap = 10.0 ** draw(st.floats(-17.0, 0.0))
    gap = gap if draw(st.booleans()) else -gap
    if isinstance(dom, OmegaPsi):
        x1 = draw(st.floats(-1.0, 1.0))
        y1, y2 = draw(st.floats(-2.6, 2.6)), draw(st.floats(-0.5, 0.5))
        return np.array([complex(x1, y1),
                         complex(dom._wall(x1, y1, y2) + gap, y2)])
    if isinstance(dom, HalfPlane):
        return np.array([complex(draw(coords), gap)])
    u = draw(unit_vectors(dom.dim))
    if draw(st.booleans()):
        return dom.center + (dom.radius + gap) * u
    return (1.0 + gap) * u


@pytest.mark.parametrize("dom", SOUND_RADIUS_DOMAINS, ids=SOUND_RADIUS_IDS)
@given(data=st.data())
def test_node_radius_is_inner_radius_fast(dom, data):
    # the public inner radius is the node's, with no slack, and a positive
    # radius certifies membership; the converse may fail on Omega_psi and
    # the window, as the radius is a bound that reads 0 near the wall or
    # the cap.  On the half-plane both read the one Python float Im z, so
    # membership is exactly a positive radius, and a Python bool
    z = data.draw(boundary_hugging_points(dom))
    r = _node_radius(dom, z)
    assert dom.inner_radius_fast(z) == r
    if isinstance(dom, HalfPlane):
        assert dom.contains(z) is (r > 0.0)
    elif r > 0.0:
        assert dom.contains(z)


ELLIPSOID_SOLVES = (
    ([0.1, 0.3j], [0.5 + 0.2j, -0.9]),
    ([0.9, 0.0], [0.0, 1.9j]),
    ([0.5, 0.5], [-0.5, -0.5]),
)


@pytest.mark.parametrize("x, y", ELLIPSOID_SOLVES)
def test_ellipsoid_light_solve_upper_at_or_above_distance(x, y):
    res = solve_geodesic(Ellipsoid(list(AXES)), np.array(x, dtype=complex),
                         np.array(y, dtype=complex), SolverConfig.light())
    assert res.distance.upper >= mp_ellipsoid(x, y)


# ---------------------------------------------------------------------------
# the pair-tube bound rounds down, with no slack
# ---------------------------------------------------------------------------


@st.composite
def tube_pairs(draw):
    """A ball or ellipsoid and two points at depths 1e-12 to 1e-1 below
    the boundary along the ray from the centre: deep enough that the gaps
    |f(x)| and |g(y)| lose most of their digits to cancellation."""
    dom = draw(st.sampled_from([Ball(2), Ellipsoid(list(AXES))]))
    scale = getattr(dom, "axes", np.ones(2))

    def point():
        depth = 10.0 ** draw(st.floats(-12.0, -1.0))
        return (1.0 - depth) * draw(unit_vectors(2)) * scale
    return dom, point(), point()


def mp_gap(c, nu, z):
    """|c - <nu, z>| of complex floats, at 50 digits."""
    with mpmath.workdps(DIGITS):
        return abs(_mpc(c) - mpmath.fsum(mpmath.conj(_mpc(n)) * _mpc(t)
                                         for n, t in zip(nu, z)))


@given(tube_pairs())
def test_pair_tube_bound_at_or_below_its_exact_value(case):
    # the tube value from the same contacts and the same certified mu, at
    # 50 digits: 1/2 log(eta/|f(x)|) + 1/2 log(eta/|g(y)|), eta = mu/2
    dom, x, y = case
    assume(dom.contains(x) and dom.contains(y))
    got = pair_tube_bound(dom, x, y)
    assume(got is not None)
    (p, nu_p), (q, nu_q) = (_boundary_contact(dom, x)[1],
                            _boundary_contact(dom, y)[1])
    c_p, c_q = complex(np.vdot(nu_p, p)), complex(np.vdot(nu_q, q))
    mu = _dual_disjointness(dom.bounding_radius, c_p, c_q, nu_p, nu_q)
    with mpmath.workdps(DIGITS):
        eta = mpmath.mpf(mu) / 2
        exact = (mpmath.log(eta / mp_gap(c_p, nu_p, x))
                 + mpmath.log(eta / mp_gap(c_q, nu_q, y))) / 2
        assert mpmath.mpf(got) <= exact


# ---------------------------------------------------------------------------
# the directional branch rounds down, with no slack
# ---------------------------------------------------------------------------


@given(tube_pairs())
def test_directional_branch_at_or_below_its_exact_value(case):
    # 1/2 log(1 + |y - x|/t) at 50 digits, t the same larger directional
    # distance of the chord's two ends
    dom, x, y = case
    assume(dom.contains(x) and dom.contains(y) and not np.array_equal(x, y))
    got = distance_lower_bound_detailed(dom, x, y)[1].get("directional", 0.0)
    t = max(dom.directional_distance(x, y - x),
            dom.directional_distance(y, y - x))
    with mpmath.workdps(DIGITS):
        exact = mpmath.log1p(mp_norm(x, y) / mpmath.mpf(t)) / 2
        assert mpmath.mpf(got) <= exact


# ---------------------------------------------------------------------------
# the delta-ratio branch rounds down, with no slack
# ---------------------------------------------------------------------------

RATIO_DOMAINS = [Ball(2), Ellipsoid(list(AXES)), OmegaPsi(PSI_PROFILES[0])]


@st.composite
def ratio_pairs(draw):
    """A ball, ellipsoid or exp Omega_psi and two points at depths 1e-12
    to 1: along rays from the centre, or above the Omega_psi wall."""
    dom = draw(st.sampled_from(RATIO_DOMAINS))

    def point():
        depth = 10.0 ** draw(st.floats(-12.0, 0.0))
        if isinstance(dom, OmegaPsi):
            x1, y1 = draw(st.floats(-0.5, 0.5)), draw(st.floats(-2.5, 2.5))
            y2 = draw(st.floats(-0.3, 0.3))
            return np.array([complex(x1, y1),
                             complex(dom._wall(x1, y1, y2) + depth, y2)])
        return (1.0 - depth) * draw(unit_vectors(2)) * getattr(dom, "axes",
                                                                1.0)
    return dom, point(), point()


@given(ratio_pairs())
def test_delta_ratio_branch_at_or_below_its_exact_value(case):
    # max(0, 1/2 log(ir(x)/d(y)), 1/2 log(ir(y)/d(x))) at 50 digits, of
    # the same floats: ir the inner radius, d the projection's distance
    dom, x, y = case
    assume(dom.contains(x) and dom.contains(y) and not np.array_equal(x, y))
    got = distance_lower_bound_detailed(dom, x, y)[1]["delta-ratio"]
    ends = [(dom.inner_radius_fast(z), dom.boundary_distance(z))
            for z in (x, y)]
    with mpmath.workdps(DIGITS):
        exact = max([mpmath.mpf(0)] + [
            mpmath.log(mpmath.mpf(lo) / mpmath.mpf(up)) / 2
            for (lo, _), (_, up) in (ends, ends[::-1])
            if lo > 0.0 and up > 0.0])
        assert mpmath.mpf(got) <= exact
