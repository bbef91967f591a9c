"""Metric and distance formulas, certified bound branches, bracket soundness.

Frozen oracle values are derived independently of the implementation
(artanh identities, Moebius ratios, explicit projections); see the inline
notes next to each constant.
"""

import math

import numpy as np
import pytest

from koblab.geometry import (
    Ball,
    Disc,
    Ellipsoid,
    GeometryError,
    HalfPlane,
    OmegaPsi,
    Polydisc,
    PsiSpec,
)
from koblab.metric import (
    MetricBracket,
    ball_distance,
    disc_distance,
    distance_bracket,
    distance_lower_bound,
    distance_lower_bound_detailed,
    halfplane_distance,
    halfplane_hole_distance,
    metric_bracket,
    metric_exact,
    pair_tube_bound,
    polydisc_distance,
    segment_upper,
    strip_to_disc,
)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_disc_distance_oracles():
    # artanh(0.5) = 0.5 log 3
    assert disc_distance(0, 0.5) == pytest.approx(0.5493061443340549, abs=1e-12)
    # Moebius ratio m = 1.8/1.81, (1+m)/(1-m) = 361, so the value is log 19
    assert disc_distance(-0.9, 0.9) == pytest.approx(math.log(19.0), abs=1e-12)
    assert disc_distance(0, 0) == 0.0
    assert disc_distance(0.3j, 0.3j) == 0.0
    with pytest.raises(GeometryError):
        disc_distance(1.0, 0.0)


def test_disc_distance_moebius_invariance():
    # pulling both points back by a disc automorphism preserves the value
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b, c = (complex(*rng.uniform(-0.6, 0.6, 2)) for _ in range(3))
        phi = lambda z: (z - c) / (1 - c.conjugate() * z)
        assert disc_distance(phi(a), phi(b)) == pytest.approx(
            disc_distance(a, b), abs=1e-11)


def test_halfplane_distance_oracles():
    # vertical pair i, 2i: m = 1/3, value = artanh(1/3) = 0.5 log 2
    assert halfplane_distance(1j, 2j) == pytest.approx(0.5 * math.log(2.0), abs=1e-13)
    # horizontal translation invariance
    assert halfplane_distance(5 + 1j, 5 + 2j) == pytest.approx(
        halfplane_distance(1j, 2j), abs=1e-13)
    with pytest.raises(GeometryError):
        halfplane_distance(1.0, 1j)


def test_polydisc_distance_oracles():
    # max picks whichever coordinate separates more; artanh(0.8) = 0.5 log 9
    assert polydisc_distance([0.8, 0], [0, 0.8]) == pytest.approx(
        0.5 * math.log(9.0), abs=1e-12)
    assert polydisc_distance([0.9, 0], [-0.9, 0]) == pytest.approx(
        math.log(19.0), abs=1e-12)
    assert polydisc_distance([0.1, 0.2], [0.1, 0.2]) == 0.0


def test_ball_distance_oracles():
    # radial pair reduces to the disc
    assert ball_distance([0.5, 0], [0, 0]) == pytest.approx(
        disc_distance(0, 0.5), abs=1e-12)
    # diameter pair reduces to the disc diameter value log 19
    assert ball_distance([0.9, 0], [-0.9, 0]) == pytest.approx(
        math.log(19.0), abs=1e-12)
    # unitary invariance
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    for _ in range(20):
        z = rng.uniform(-0.4, 0.4, 2) + 1j * rng.uniform(-0.4, 0.4, 2)
        w = rng.uniform(-0.4, 0.4, 2) + 1j * rng.uniform(-0.4, 0.4, 2)
        assert ball_distance(q @ z, q @ w) == pytest.approx(
            ball_distance(z, w), abs=1e-11)


def test_metric_exact_oracles():
    assert metric_exact(Disc(), [0.5], [1.0]) == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert metric_exact(Disc(), [0.0], [1.0]) == 1.0
    assert metric_exact(Polydisc(2), [0.5, 0], [0, 1.0]) == 1.0
    assert metric_exact(HalfPlane(), [2j], [1.0]) == pytest.approx(0.25)
    # ball at the origin is euclidean
    assert metric_exact(Ball(2), [0, 0], [0.6, 0.8]) == pytest.approx(1.0)
    with pytest.raises(GeometryError):
        metric_exact(Ellipsoid([1.0, 2.0]), [0, 0], [1.0, 0])


def test_ball_metric_matches_distance_derivative():
    # kappa(z; X) = lim k(z - hX, z + hX)/(2h) along a non-radial sample;
    # central differencing keeps h large enough to dodge the cancellation
    # in the distance formula while the O(h^2) error stays below tolerance
    z = np.array([0.3 + 0.1j, -0.2 + 0.4j])
    X = np.array([0.5 - 0.3j, 0.8 + 0.1j])
    h = 1e-3
    fd = ball_distance(z - h * X, z + h * X) / (2 * h)
    assert metric_exact(Ball(2), z, X) == pytest.approx(fd, rel=1e-6)


# ---------------------------------------------------------------------------
# metric brackets
# ---------------------------------------------------------------------------


def test_metric_bracket_examples():
    br = metric_bracket(Disc(), [0.5], [1.0])
    assert br.as_tuple() == pytest.approx((1.0, 2.0), abs=1e-12)
    assert br.contains(metric_exact(Disc(), [0.5], [1.0]))

    br = metric_bracket(Ball(2), [0, 0], [1.0, 0])
    assert br.as_tuple() == pytest.approx((0.5, 1.0), abs=1e-12)
    assert br.contains(1.0)

    br = metric_bracket(Ellipsoid([1.0, 2.0]), [0, 0], [0, 1.0])
    assert br.as_tuple() == pytest.approx((0.25, 0.5), abs=1e-12)


def test_metric_bracket_soundness_models():
    rng = np.random.default_rng(23)
    domains = [Disc(), Polydisc(2), Ball(2)]
    for dom in domains:
        checked = 0
        while checked < 1000:
            z = rng.uniform(-0.7, 0.7, dom.dim) + 1j * rng.uniform(-0.7, 0.7, dom.dim)
            if not dom.contains(z):
                continue
            X = rng.standard_normal(dom.dim) + 1j * rng.standard_normal(dom.dim)
            checked += 1
            br = metric_bracket(dom, z, X)
            exact = metric_exact(dom, z, X)
            assert br.lower <= exact * (1 + 1e-12)
            assert exact <= br.upper * (1 + 1e-12)
            assert br.upper <= 2 * br.lower * (1 + 1e-12)


def test_metric_bracket_rejects_zero_vector():
    with pytest.raises(GeometryError):
        metric_bracket(Disc(), [0.0], [0.0])


def test_metric_monotone_under_inclusion():
    # Ball(2) sits inside Polydisc(2): certified lower bounds for the larger
    # domain cannot exceed exact values on the smaller one
    rng = np.random.default_rng(31)
    ball, poly = Ball(2), Polydisc(2)
    for _ in range(100):
        z = rng.uniform(-0.5, 0.5, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
        if not ball.contains(z):
            continue
        X = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert metric_bracket(poly, z, X).lower <= metric_exact(ball, z, X) + 1e-12


# ---------------------------------------------------------------------------
# distance lower bounds
# ---------------------------------------------------------------------------


def test_lower_bound_disc_example():
    val = distance_lower_bound(Disc(), [0.0], [0.5])
    assert val >= 0.5 * math.log(2.0) - 1e-12    # delta ratio 1/0.5
    assert val <= disc_distance(0, 0.5) + 1e-12  # never above the exact value


def test_lower_bound_trivial_and_symmetry():
    assert distance_lower_bound(Ball(2), [0.1, 0.2], [0.1, 0.2]) == 0.0
    a = distance_lower_bound(Ball(2), [0.5, 0.1], [-0.3, 0.2])
    b = distance_lower_bound(Ball(2), [-0.3, 0.2], [0.5, 0.1])
    assert a == b


def test_lower_bound_ball_deep_pair():
    # both points hug opposite boundary points; the additive two-projection
    # bound gives 1/2 log(0.9/0.1) + 1/2 log(0.9/0.1) = log 9
    val = distance_lower_bound(Ball(2), [0.9, 0], [-0.9, 0])
    assert val >= 2.1972245 - 1e-6
    assert val <= ball_distance([0.9, 0], [-0.9, 0]) + 1e-12


def test_pair_tube_bound_values():
    val = pair_tube_bound(Ball(2), [0.9, 0], [-0.9, 0])
    assert val == pytest.approx(math.log(9.0), rel=1e-4)
    # shallow points are outside their tubes: bound does not apply
    assert pair_tube_bound(Ball(2), [0.1, 0], [-0.1, 0]) is None
    # unbounded domain: no bounding ball to minimize over
    assert pair_tube_bound(HalfPlane(), [1j], [2j]) is None


def test_lower_bounds_never_exceed_exact_models():
    rng = np.random.default_rng(37)
    domains = [Disc(), Polydisc(2), Ball(2)]
    for dom in domains:
        checked = 0
        while checked < 150:
            z = rng.uniform(-0.9, 0.9, dom.dim) + 1j * rng.uniform(-0.9, 0.9, dom.dim)
            w = rng.uniform(-0.9, 0.9, dom.dim) + 1j * rng.uniform(-0.9, 0.9, dom.dim)
            if not (dom.contains(z) and dom.contains(w)):
                continue
            checked += 1
            from koblab.metric import model_distance

            exact = model_distance(dom, z, w)
            assert distance_lower_bound(dom, z, w) <= exact + 1e-10


def test_lower_bound_branches_reported():
    _, branches = distance_lower_bound_detailed(Disc(), [0.0], [0.5])
    assert set(branches) >= {"delta-ratio", "halfplane-projection", "directional"}
    # directional branch on the disc chord: t_x = 1, t_y = 0.5 along (x - y)
    assert branches["directional"] == pytest.approx(0.5 * math.log1p(0.5), abs=1e-9)


def test_lower_bound_nested_inclusion():
    # Ball(2) inside Ellipsoid(1,2): bound for the ellipsoid vs exact ball value
    rng = np.random.default_rng(41)
    ball, ell = Ball(2), Ellipsoid([1.0, 2.0])
    for _ in range(25):
        z = rng.uniform(-0.5, 0.5, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
        w = rng.uniform(-0.5, 0.5, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
        if not (ball.contains(z) and ball.contains(w)):
            continue
        assert distance_lower_bound(ell, z, w) <= ball_distance(z, w) + 1e-10


def test_lower_bound_omega_psi_runs():
    dom = OmegaPsi(PsiSpec("exp_neg_c_over_x", c=math.pi))
    p = np.array([1j, 1e-3])
    o = np.array([0j, 1.0])
    val = distance_lower_bound(dom, p, o)
    # the boundary-distance ratio alone gives ~ 1/2 log(base gap / 1e-3)
    assert val >= 0.5 * math.log(dom.inner_radius_fast(o) / 1e-3) - 1e-9


# ---------------------------------------------------------------------------
# certified uppers
# ---------------------------------------------------------------------------


def test_segment_upper_models_exact():
    assert segment_upper(Disc(), [0.0], [0.5]) == pytest.approx(
        disc_distance(0, 0.5), abs=1e-14)
    assert segment_upper(Ball(2), [0.9, 0], [-0.9, 0]) == pytest.approx(
        math.log(19.0), abs=1e-12)


def test_segment_upper_generic_touching_disc():
    ell = Ellipsoid([1.0, 2.0])
    a, b = np.array([0.0, 0.0]), np.array([0.2, 0.0])
    up = segment_upper(ell, a, b)
    assert up == pytest.approx(math.atanh(0.2), abs=1e-12)  # inner radius 1 at 0
    with pytest.raises(GeometryError):
        # both endpoints have inner radius 0.5 < separation 1.0
        segment_upper(ell, [0.5, 0.0], [-0.5, 0.0])


def test_distance_bracket_models_degenerate():
    br = distance_bracket(Ball(2), [0.5, 0.1], [-0.2, 0.3])
    assert br.lower == br.upper == ball_distance([0.5, 0.1], [-0.2, 0.3])
    br = distance_bracket(Disc(), [0.2], [0.7j])
    assert br.width == 0.0


def test_distance_bracket_generic_orders():
    ell = Ellipsoid([1.0, 2.0])
    x, y = np.array([0.5, 0.0]), np.array([-0.5, 0.5j])
    br = distance_bracket(ell, x, y)
    assert 0.0 < br.lower <= br.upper
    # the ellipsoid contains Ball(2) and sits inside Polydisc-like boxes, so
    # sandwich against the exact ball value from the inside
    assert br.upper >= ball_distance(x, y) * 0.0  # sanity: non-negative
    assert br.lower <= ball_distance(x, y) + 1e-10  # Ball(2) inside ellipsoid


@pytest.mark.parametrize("x, y", [
    ((1e-17, 0.5), (0.3, -0.5)),
    ((1e-17, 0.5), (-0.2 + 0.1j, 0.9j)),
    ((2e-17, 0.8j), (0.1j, -1.0)),
    ((1e-17j, -0.7j), (0.5, 0.1)),
    ((5e-17, -0.3j), (0.4, 0.2)),
])
def test_ellipsoid_bracket_with_tiny_minimal_axis_coordinate(x, y):
    # z -> (z_j / a_j) maps the ellipsoid onto the unit ball, so its exact
    # distance is the ball distance of the rescaled points; a first
    # coordinate far below 1e-16 on the minimal axis must leave the
    # projection, and so the certified lower side, where the axis puts it
    a = np.array([1.0, 2.0])
    x, y = np.array(x, dtype=complex), np.array(y, dtype=complex)
    ell = Ellipsoid(a)
    assert ell.boundary_distance(x) == pytest.approx(
        ell.boundary_distance(np.array([0.0, x[1]])), rel=1e-12)
    br = distance_bracket(ell, x, y)
    assert br.contains(ball_distance(x / a, y / a))


def test_bracket_type_validation():
    with pytest.raises(GeometryError):
        MetricBracket(2.0, 1.0)
    with pytest.raises(GeometryError):
        MetricBracket(-1.0, 1.0)


# ---------------------------------------------------------------------------
# special geometry values
# ---------------------------------------------------------------------------


def test_halfplane_hole_distance():
    assert halfplane_hole_distance(0.01, 1.0) == pytest.approx(
        math.log(10.0), abs=1e-12)
    assert halfplane_hole_distance(0.5, 1.0) == pytest.approx(
        0.5 * math.log(2.0), abs=1e-13)
    for delta in (1e-1, 1e-2, 1e-3, 0.37):
        # exact cancellation identity
        assert halfplane_hole_distance(delta, 1.0) + 0.5 * math.log(delta) == 0.0
    with pytest.raises(GeometryError):
        halfplane_hole_distance(1.0, 0.5)
    with pytest.raises(GeometryError):
        halfplane_hole_distance(0.5, 0.5)


def test_strip_to_disc_values():
    assert strip_to_disc(0.0) == 0.0
    assert strip_to_disc(2.0).real == pytest.approx(0.9171523356672744, abs=1e-12)
    assert strip_to_disc(2.0).imag == 0.0
    # interior maps strictly inside
    rng = np.random.default_rng(5)
    for _ in range(50):
        zeta = complex(rng.uniform(-3, 3), rng.uniform(-0.99, 0.99))
        assert abs(strip_to_disc(zeta)) < 1.0
    # boundary lines land on the unit circle
    for x in np.linspace(-5, 5, 21):
        assert abs(abs(strip_to_disc(complex(x, 1.0))) - 1.0) < 1e-10
        assert abs(abs(strip_to_disc(complex(x, -1.0))) - 1.0) < 1e-10
    with pytest.raises(GeometryError):
        strip_to_disc(1 + 2j)
