"""Reference values computed apart from koblab, with mpmath at 50 digits.

Every function takes plain Python numbers (complex coordinates as Python
complex, or anything ``complex()`` accepts) and returns an ``mpmath.mpf``.
Double inputs convert to mpmath exactly, so the only rounding is mpmath's
own at 50 digits; the benchmark compares koblab's doubles against these
values without any tolerance.

Conventions match koblab's: the Kobayashi distance of the unit disc is
k(a, b) = artanh |a - b| / |1 - conj(a) b|, so k(0, r) = artanh(r).
"""

from __future__ import annotations

import mpmath
from mpmath import mp

DIGITS = 50


def _mpc(z) -> mpmath.mpc:
    z = complex(z)
    return mpmath.mpc(z.real, z.imag)


def _vec(z) -> list:
    return [_mpc(c) for c in z]


def disc_distance(a, b) -> mpmath.mpf:
    """Poincare distance of the unit disc."""
    with mp.workdps(DIGITS):
        a, b = _mpc(a), _mpc(b)
        return mpmath.atanh(abs(a - b) / abs(1 - mpmath.conj(a) * b))


def polydisc_distance(z, w) -> mpmath.mpf:
    """Product of discs: the largest coordinate disc distance."""
    if len(z) != len(w):
        raise ValueError("dimension mismatch")
    return max(disc_distance(a, b) for a, b in zip(z, w))


def _ball(z: list, w: list) -> mpmath.mpf:
    nz = sum(abs(c) ** 2 for c in z)
    nw = sum(abs(c) ** 2 for c in w)
    if nz >= 1 or nw >= 1:
        raise ValueError("ball distance needs interior points")
    inner = sum(a * mpmath.conj(b) for a, b in zip(z, w))
    ratio = (1 - nz) * (1 - nw) / abs(1 - inner) ** 2
    return mpmath.atanh(mpmath.sqrt(max(mpmath.mpf(0), 1 - ratio)))


def ball_distance(z, w, radius=1) -> mpmath.mpf:
    """Kobayashi distance of the euclidean ball of the given radius."""
    if len(z) != len(w):
        raise ValueError("dimension mismatch")
    with mp.workdps(DIGITS):
        r = mpmath.mpf(radius)
        return _ball([c / r for c in _vec(z)], [c / r for c in _vec(w)])


def ellipsoid_distance(z, w, axes) -> mpmath.mpf:
    """Distance of { sum |z_j|^2 / a_j^2 < 1 }.

    The map z -> (z_j / a_j) is a biholomorphism onto the unit ball, so the
    distance is the ball distance of the rescaled points.
    """
    if not len(z) == len(w) == len(axes):
        raise ValueError("dimension mismatch")
    with mp.workdps(DIGITS):
        a = [mpmath.mpf(x) for x in axes]
        return _ball([c / s for c, s in zip(_vec(z), a)],
                     [c / s for c, s in zip(_vec(w), a)])


def right_halfplane_distance(a, b) -> mpmath.mpf:
    """Distance of { Re w > 0 }: artanh |a - b| / |a + conj(b)|."""
    with mp.workdps(DIGITS):
        a, b = _mpc(a), _mpc(b)
        if a.real <= 0 or b.real <= 0:
            raise ValueError("half-plane distance needs Re > 0")
        return mpmath.atanh(abs(a - b) / abs(a + mpmath.conj(b)))


def omega_psi_containing_lowers(z, w, cap_radius) -> tuple:
    """Lower bounds for k_Omega(z, w) on a segment domain Omega_psi in C^2.

    Omega_psi lies in the half-space { Re z2 > 0 } and in the ball of radius
    ``cap_radius``; the Kobayashi distance decreases under inclusion, so
    both distances bound k_Omega from below.  The half-space is the right
    half-plane times C, whose distance is that of the z2 coordinates.
    """
    return (right_halfplane_distance(z[1], w[1]),
            ball_distance(z, w, radius=cap_radius))


def _theta_ratio(z, q) -> mpmath.mpc:
    """theta1(z, q) / theta4(z, q) up to the positive factor 2 q^(1/4).

    Summed term by term: mpmath's ``jtheta`` loses every digit at nomes
    near 1e-1000, which tall rectangles need.  Both series decrease from
    their first term on the theta rectangle used below.
    """
    tiny = mpmath.mpf(10) ** (-mp.dps - 5)
    s1 = s4 = None
    for n in range(100000):
        t1 = (-1) ** n * q ** (n * (n + 1)) * mpmath.sin((2 * n + 1) * z)
        t4 = 2 * (-1) ** n * q ** (n * n) * mpmath.cos(2 * n * z) if n else 1
        s1 = t1 if s1 is None else s1 + t1
        s4 = t4 if s4 is None else s4 + t4
        if n and abs(t1) <= tiny * abs(s1) and abs(t4) <= tiny * abs(s4):
            return s1 / s4
    raise ArithmeticError("theta series did not converge")


def rectangle_distance(a, b, half_width, half_height) -> mpmath.mpf:
    """Distance of the rectangle { |Re z| < half_width, |Im z| < half_height }.

    With z' = pi (z + i half_height) / (2 half_width) and the nome
    q = exp(-2 pi half_height / half_width), sn = theta1(z', q) /
    theta4(z', q) times a positive constant maps the rectangle conformally
    onto the upper half-plane (DLMF 22.2.4), where the distance is
    artanh(rho), rho = |u - v| / |u - conj(v)|.  Images of a tall
    rectangle span hundreds of orders of magnitude, so rho rounds to 1;
    the distance is taken as log(1 + rho) + log|u - conj(v)| -
    1/2 log(4 Im u Im v), using 1 - rho^2 = 4 Im u Im v / |u - conj(v)|^2.
    """
    with mp.workdps(DIGITS):
        wid, hgt = mpmath.mpf(half_width), mpmath.mpf(half_height)
        q = mpmath.exp(-2 * mpmath.pi * hgt / wid)

        def image(z):
            z = _mpc(z)
            if not (abs(z.real) < wid and abs(z.imag) < hgt):
                raise ValueError("rectangle distance needs interior points")
            return _theta_ratio(mpmath.pi * (z + 1j * hgt) / (2 * wid), q)

        u, v = image(a), image(b)
        far = abs(u - mpmath.conj(v))
        return (mpmath.log(1 + abs(u - v) / far) + mpmath.log(far)
                - mpmath.log(4 * u.imag * v.imag) / 2)


def psi_pure(form: str, param, x) -> mpmath.mpf:
    """The profile's own formula at x > 0: exp(-c/x) for
    ``exp_neg_c_over_x`` (param c), exp(-1 / (x log(1/x)^alpha)) for
    ``exp_neg_inv_log_pow`` (param alpha)."""
    with mp.workdps(DIGITS):
        x, p = mpmath.mpf(x), mpmath.mpf(param)
        if form == "exp_neg_c_over_x":
            return mpmath.exp(-p / x)
        if form == "exp_neg_inv_log_pow":
            return mpmath.exp(-1 / (x * mpmath.log(1 / x) ** p))
        raise ValueError(f"unknown profile {form!r}")


def omega_psi_inner_upper(z, w, form, param, chi2, cap_radius,
                          half_widths):
    """An upper bound for k_Omega(z, w) on a segment domain Omega_psi in C^2,
    or None when no candidate domain below holds both points.

    Let 0 < a be such that psi is increasing and given by its own formula
    on [0, a], c = psi(a) and r = 1 / (2 chi2).  Then Omega_psi contains

        P_a = { |Re z1| < a, |Im z1| < 2 } x { |z2 - (c + r)| < r }

    whenever P_a lies in the cap ball: on P_a, psi(Re z1) < c, the chi1
    term vanishes, and the disc lies in { Re z2 > c + chi2 (Im z2)^2 }
    because its radius is the parabola's radius of curvature at the vertex.
    A smaller domain has the larger distance, so
    k_Omega <= k_{P_a} = max(rectangle distance, disc distance); the bound
    is the least of these over the candidate half-widths ``a``, which the
    caller keeps inside the profile's increasing, uncontinued part.
    """
    with mp.workdps(DIGITS):
        r = 1 / (2 * mpmath.mpf(chi2))
        best = None
        for a in half_widths:
            c = psi_pure(form, param, a)
            if mpmath.mpf(a) ** 2 + 4 + (c + 2 * r) ** 2 >= mpmath.mpf(
                    cap_radius) ** 2:
                continue                    # P_a leaves the cap ball
            z1, w1 = _mpc(z[0]), _mpc(w[0])
            z2, w2 = (_mpc(z[1]) - c - r) / r, (_mpc(w[1]) - c - r) / r
            if not (abs(z1.real) < a and abs(w1.real) < a
                    and abs(z1.imag) < 2 and abs(w1.imag) < 2
                    and abs(z2) < 1 and abs(w2) < 1):
                continue
            k = max(rectangle_distance(z1, w1, a, 2), disc_distance(z2, w2))
            best = k if best is None else min(best, k)
        return best


def divergence_product_lower(c, eps) -> mpmath.mpf:
    """(1/2 - pi/(4c)) log(1/eps) - 1/2 log 2: the certified Gromov-product
    lower bound of the psi = exp(-c/x) case study at depth eps."""
    with mp.workdps(DIGITS):
        c, eps = mpmath.mpf(c), mpmath.mpf(eps)
        return ((mpmath.mpf(1) / 2 - mpmath.pi / (4 * c)) * mpmath.log(1 / eps)
                - mpmath.log(2) / 2)


def divergence_pair_upper(c, eps) -> mpmath.mpf:
    """log 2 + (pi/(2c)) log(1/eps): the analytic-disc pair upper bound."""
    with mp.workdps(DIGITS):
        c, eps = mpmath.mpf(c), mpmath.mpf(eps)
        return mpmath.log(2) + mpmath.pi / (2 * c) * mpmath.log(1 / eps)
