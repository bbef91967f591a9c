"""Hand-value tests for the benchmark's reference computations.

Run with ``python3 -m pytest bench/test_refs.py`` from the repository root.
"""

import math
import os
import sys

import mpmath
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import refs  # noqa: E402

# artanh(1/2) = 1/2 log 3, to 30 digits
ATANH_HALF = mpmath.mpf("0.549306144334054845697622618461")


def close(a, b, tol="1e-40"):
    return abs(mpmath.mpf(a) - mpmath.mpf(b)) < mpmath.mpf(tol)


def test_disc_from_origin_is_artanh():
    assert close(refs.disc_distance(0, 0.5), ATANH_HALF, "1e-29")
    with mpmath.mp.workdps(50):
        assert close(refs.disc_distance(0, -0.9j), mpmath.atanh(0.9))


def test_disc_is_invariant_under_rotation_and_symmetric():
    a, b = 0.3 + 0.4j, -0.7 + 0.1j
    rot = complex(math.cos(1.0), math.sin(1.0))
    assert close(refs.disc_distance(a, b), refs.disc_distance(b, a))
    # rotation rounds each coordinate once, so agreement is to double precision
    assert close(refs.disc_distance(a, b),
                 refs.disc_distance(a * rot, b * rot), "1e-14")


def test_disc_keeps_digits_near_the_boundary():
    # k(0, 1 - d) = 1/2 log((2 - d)/d): about 1/2 log(2/d) for tiny d
    d = 2.0 ** -40
    with mpmath.mp.workdps(50):
        want = mpmath.log((2 - mpmath.mpf(d)) / mpmath.mpf(d)) / 2
    assert close(refs.disc_distance(0, 1 - d), want)


def test_polydisc_is_the_largest_coordinate_distance():
    z, w = (0.5, 0.0), (0.0, 0.2)
    assert close(refs.polydisc_distance(z, w), ATANH_HALF, "1e-29")


def test_ball_from_origin_is_artanh_of_the_norm():
    assert close(refs.ball_distance((0, 0), (0.3, 0.4j)), ATANH_HALF, "1e-29")


def test_ball_of_dimension_one_is_the_disc():
    a, b = 0.3 - 0.2j, -0.5 + 0.6j
    assert close(refs.ball_distance((a,), (b,)), refs.disc_distance(a, b))


def test_ball_radius_rescales():
    assert close(refs.ball_distance((0, 0), (1.5, 0), radius=3), ATANH_HALF,
                 "1e-29")


def test_ellipsoid_with_unit_axes_is_the_ball():
    z, w = (0.1 + 0.2j, -0.3j), (0.5, 0.25 - 0.25j)
    assert close(refs.ellipsoid_distance(z, w, (1, 1)),
                 refs.ball_distance(z, w))


def test_ellipsoid_axes_rescale_to_the_ball():
    assert close(refs.ellipsoid_distance((0, 0), (0, 1.0), (1, 2)),
                 ATANH_HALF, "1e-29")


def test_right_halfplane_depth_is_half_log():
    with mpmath.mp.workdps(50):
        want = mpmath.log(1000) / 2
    assert close(refs.right_halfplane_distance(1, 1e-3), want, "1e-17")


def test_omega_psi_lowers_are_halfspace_and_cap_ball():
    z, w = (0.5j, 1e-2), (-0.5j, 1e-2)
    half, cap = refs.omega_psi_containing_lowers(z, w, 3.0)
    assert half == 0
    assert close(cap, refs.ball_distance(z, w, radius=3.0))
    half, _ = refs.omega_psi_containing_lowers((0, 1.0), (0.5j, 0.01), 3.0)
    assert close(half, refs.right_halfplane_distance(1.0, 0.01))


def test_divergence_closed_forms_at_c_pi():
    c = math.pi
    with mpmath.mp.workdps(50):
        quarter_log_100 = mpmath.log(100) / 4
        log2 = mpmath.log(2)
    gain = (refs.divergence_product_lower(c, 1e-3)
            - refs.divergence_product_lower(c, 1e-1))
    # c is pi rounded to a double, so agreement is to double precision
    assert close(gain, quarter_log_100, "1e-15")
    assert close(refs.divergence_product_lower(c, 1.0), -log2 / 2, "1e-15")
    assert close(refs.divergence_pair_upper(c, 1e-2),
                 log2 + mpmath.log(100) / 2, "1e-15")
    assert float(refs.divergence_product_lower(c, 1e-3)) == pytest.approx(
        1.3803652294655615, abs=1e-15)


def test_outside_points_are_refused():
    with pytest.raises(ValueError):
        refs.ball_distance((1.0, 0), (0, 0))
    with pytest.raises(ValueError):
        refs.right_halfplane_distance(-1, 1)


def test_tall_rectangle_is_the_strip_near_its_middle():
    # the strip { |Re z| < A } maps onto the right half-plane by
    # z -> exp(i pi z / (2A)), so k(iy, iy') = pi |y - y'| / (4A); a
    # rectangle of height 40A differs from it by ~exp(-60) in the middle
    got = refs.rectangle_distance(0.3j, -0.4j, 0.5, 20)
    with mpmath.mp.workdps(50):
        want = mpmath.pi * mpmath.mpf(0.7) / 2
    assert close(got, want, "1e-20")
    assert got > want                 # the rectangle lies in the strip
    # images e^(+-200) apart: no digits lost
    with mpmath.mp.workdps(50):
        far = mpmath.pi * mpmath.mpf(1.5) / (4 * mpmath.mpf(0.01))
    assert close(refs.rectangle_distance(0.75j, -0.75j, 0.01, 2), far,
                 "1e-30")


def test_rectangle_turned_a_quarter_is_the_same_rectangle():
    # z -> i z maps { |Re| < A, |Im| < H } onto { |Re| < H, |Im| < A }; the
    # wide one sums a theta series with nome 0.03, the tall one 1e-6
    a, b = 0.2 + 0.5j, -0.3 - 0.1j
    assert close(refs.rectangle_distance(a, b, 0.7, 1.3),
                 refs.rectangle_distance(1j * a, 1j * b, 1.3, 0.7))
    # a square: reflection in the diagonal
    assert close(refs.rectangle_distance(0, 0.5, 1, 1),
                 refs.rectangle_distance(0, 0.5j, 1, 1))


def test_rectangle_distance_lies_between_strip_and_inscribed_disc():
    a, b = 0.1j, -0.2 + 0.3j
    got = refs.rectangle_distance(a, b, 1, 1)
    strip = refs.right_halfplane_distance(
        complex(mpmath.exp(1j * mpmath.pi * a / 2)),
        complex(mpmath.exp(1j * mpmath.pi * b / 2)))
    assert strip < got < refs.disc_distance(a, b)


def test_psi_profiles_by_hand():
    assert close(refs.psi_pure("exp_neg_c_over_x", 2, 1),
                 mpmath.exp(-2), "1e-45")
    with mpmath.mp.workdps(50):
        want = mpmath.exp(-1 / (mpmath.mpf("0.01") * mpmath.log(100) ** 2))
    assert close(refs.psi_pure("exp_neg_inv_log_pow", 2, "0.01"), want,
                 "1e-45")


def test_omega_psi_inner_upper_brackets_with_the_containing_lowers():
    z, w = (0.5j, 1e-2), (-0.9j, 3e-3)
    widths = [0.1 * k for k in range(1, 11)]
    upper = refs.omega_psi_inner_upper(z, w, "exp_neg_c_over_x", math.pi,
                                       1.0, 3.0, widths)
    assert max(refs.omega_psi_containing_lowers(z, w, 3.0)) < upper
    # one width: the larger of the rectangle and the disc distances
    a = 0.4
    c = refs.psi_pure("exp_neg_c_over_x", math.pi, a)
    one = refs.omega_psi_inner_upper(z, w, "exp_neg_c_over_x", math.pi,
                                     1.0, 3.0, [a])
    with mpmath.mp.workdps(50):
        disc = refs.disc_distance(complex((1e-2 - c - 0.5) / 0.5),
                                  complex((3e-3 - c - 0.5) / 0.5))
    assert upper <= one
    assert close(one, max(refs.rectangle_distance(0.5j, -0.9j, a, 2), disc),
                 "1e-14")
    # no width's disc holds a point shallower than psi(0.1) = exp(-10 pi)
    assert refs.omega_psi_inner_upper(z, (0, 1e-15), "exp_neg_c_over_x",
                                      math.pi, 1.0, 3.0, widths) is None
