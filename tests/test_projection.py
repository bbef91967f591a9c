"""Brent's root finder and the Omega_psi wall projection, against scipy.

koblab runs without scipy; these tests keep it as the reference.  The
plain-float ``_brentq`` must return scipy's ``brentq`` root bit for bit, and
the wall projection must find the nearest wall point: never farther than
the two-start L-BFGS-B local search it replaced, and as near as a
grid-plus-simplex brute force.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from koblab.geometry import GeometryError, OmegaPsi, PsiSpec, _brentq

U = 2.0 ** -53


# ---------------------------------------------------------------------------
# _brentq against scipy.optimize.brentq
# ---------------------------------------------------------------------------


def _secular(b2, u):
    """The ellipsoid projection's secular function g(s) - 1, as
    ``_project_interior_to_ellipsoid`` writes it, on its bracket."""
    m2 = min(b2)

    def f(s):
        return sum((b * x / ((b - m2) + s)) ** 2 / b for b, x in zip(b2, u)) \
            - 1.0
    return f, 1e-12 * m2, m2


def _problem(kind, p, q, lo, hi):
    """(f, a, b) for one drawn root problem."""
    if kind == "power":
        k = 1 + int(q) % 7
        return (lambda x: math.copysign(abs(x) ** k, x) - p), lo, hi
    if kind == "tanh":
        return (lambda x: math.tanh(q * (x - p)) + 1e-3 * x), lo, hi
    if kind == "exp":
        return (lambda x: math.exp(x) - 2.0 - 0.1 * p * x), lo, hi
    if kind == "cubic":          # three roots, steep and flat stretches
        return (lambda x: (x - p) * (x + 0.5 * p) * (x - q / 4.0)), lo, hi
    # an interior point of a 4-axis ellipsoid: sum u_i^2/b_i^2 < 1
    b2 = [0.01 + abs(math.sin(7.0 * t)) * 4.0 for t in (p, q, lo, hi)]
    u = [0.45 * math.cos(3.0 * t) * math.sqrt(b)
         for t, b in zip((q, hi, p, lo), b2)]
    return _secular(b2, u)


@settings(max_examples=3000)
@given(kind=st.sampled_from(["power", "tanh", "exp", "cubic", "secular"]),
       p=st.floats(-3.0, 3.0), q=st.floats(0.1, 10.0),
       lo=st.floats(-4.0, -3.0), hi=st.floats(3.0, 4.0),
       xtol=st.sampled_from([2e-12, 1e-300, 1e-6]),
       rtol=st.sampled_from([8.881784197001252e-16, 8.9e-16, 1e-10]),
       maxiter=st.sampled_from([100, 200, 100, 200, 6]))
def test_brentq_matches_scipy_bit_for_bit(kind, p, q, lo, hi, xtol, rtol,
                                          maxiter):
    # every bracket holds a sign change; the same root bits, or a failure
    # where scipy fails, GeometryError for its RuntimeError (no convergence
    # within maxiter = 6 steps)
    f, a, b = _problem(kind, p, q, lo, hi)
    try:
        want = optimize.brentq(f, a, b, xtol=xtol, rtol=rtol,
                               maxiter=maxiter).hex()
    except (ValueError, RuntimeError):
        want = "fails"
    try:
        got = _brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter).hex()
    except GeometryError:
        got = "fails"
    assert got == want


def test_brentq_failures_raise_geometry_errors():
    with pytest.raises(GeometryError, match="sign change"):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(GeometryError, match="converge"):
        _brentq(lambda x: x ** 3 - 0.3, 0.0, 1.0, xtol=1e-300, maxiter=2)


# ---------------------------------------------------------------------------
# the Omega_psi wall projection
# ---------------------------------------------------------------------------

WALL_DOMAINS = {
    "exp-pi": OmegaPsi(PsiSpec("exp_neg_c_over_x", c=math.pi)),
    "logpow-2": OmegaPsi(PsiSpec("exp_neg_inv_log_pow", alpha=2.0)),
    "exp-half-chi1-3": OmegaPsi(PsiSpec("exp_neg_c_over_x", c=0.5), chi1=3.0),
}


def _lbfgsb_wall_distance(dom, z):
    """The two-start L-BFGS-B search the projection replaced."""
    x1, y1, x2, y2 = z[0].real, z[0].imag, z[1].real, z[1].imag

    def objective(abc):
        a, b, c = abc
        F = dom._wall(a, b, c)
        Fa, Fb, Fc = dom._wall_grad(a, b, c)
        da, db, dc, dw = x1 - a, y1 - b, y2 - c, x2 - F
        return da * da + db * db + dc * dc + dw * dw, np.array(
            [-2.0 * da - 2.0 * dw * Fa, -2.0 * db - 2.0 * dw * Fb,
             -2.0 * dc - 2.0 * dw * Fc])

    best = math.inf
    for start in ((x1, y1, y2), (0.0, min(2.0, max(-2.0, y1)), 0.0)):
        res = optimize.minimize(objective, np.array(start), jac=True,
                                method="L-BFGS-B",
                                options={"ftol": 1e-18, "gtol": 1e-14,
                                         "maxiter": 500})
        best = min(best, res.fun)
    return math.sqrt(max(best, 0.0))


def _brute_wall_distance(dom, z, n=11, starts=2):
    """Grid plus simplex: the squared distance to the wall point over
    (a, b, c), on an n^3 grid of the cube of half-width the vertical gap
    about (x1, y1, y2), then Nelder-Mead from its best points.  The
    simplex stops once its values agree to 1e-14 relative, or to four
    times the rounding of the vertical term (about 2u x2 d), below which
    the computed distance cannot tell points apart."""
    x1, y1, x2, y2 = z[0].real, z[0].imag, z[1].real, z[1].imag
    D = x2 - dom._wall(x1, y1, y2)
    A, B, C = (np.linspace(t - D, t + D, n) for t in (x1, y1, y2))
    tb = np.maximum(np.abs(B) - 2.0, 0.0)
    F = np.array([dom.psi.value(a) for a in A])[:, None, None] \
        + dom.chi1 * (tb * tb)[None, :, None] \
        + dom.chi2 * (C * C)[None, None, :]
    grid = (A[:, None, None] - x1) ** 2 + (B[None, :, None] - y1) ** 2 \
        + (C[None, None, :] - y2) ** 2 + (x2 - F) ** 2

    def f(q):
        a, b, c = q
        dw = x2 - dom._wall(a, b, c)
        return (x1 - a) ** 2 + (y1 - b) ** 2 + (y2 - c) ** 2 + dw * dw

    h = 2.0 * D / (n - 1)
    best = math.inf
    for idx in np.argsort(grid.ravel())[:starts]:
        i, j, k = np.unravel_index(idx, grid.shape)
        q0 = np.array([A[i], B[j], C[k]])
        f0 = float(grid[i, j, k])
        res = optimize.minimize(
            f, q0, method="Nelder-Mead",
            options={"xatol": D, "maxiter": 20000,
                     "fatol": 1e-14 * f0 + 4.0 * U * max(1.0, abs(x2))
                     * math.sqrt(f0),
                     "initial_simplex": q0 + np.vstack(
                         [np.zeros(3), h * np.eye(3)])})
        best = min(best, res.fun)
    return math.sqrt(best)


def _wall_points(dom, count, rng, y1_range=(0.0, 2.6), depths=(1e-8, 0.5)):
    """Seeded interior points: Re z1 = 0 and Im z2 = 0 a quarter of the
    time each (the case study's points sit on both), |Im z1| in
    ``y1_range`` (up to 2.6, past the flat segment), and depths
    log-uniform over ``depths``."""
    reach = 1.0 if dom.psi.form == "exp_neg_c_over_x" else 0.1
    out = []
    while len(out) < count:
        x1 = 0.0 if rng.random() < 0.25 else rng.uniform(-reach, reach)
        y1 = rng.choice((-1.0, 1.0)) * rng.uniform(*y1_range)
        y2 = 0.0 if rng.random() < 0.25 else rng.uniform(-0.6, 0.6)
        depth = math.exp(rng.uniform(*np.log(depths)))
        z = np.array([complex(x1, y1),
                      complex(dom._wall(x1, y1, y2) + depth, y2)])
        if dom.contains(z):
            out.append(z)
    return out


def _check_nearest(dom, points):
    for z in points:
        d, contact = dom._graph_distance(z)
        floor = 8.0 * U * max(1.0, abs(z[1].real))
        assert d == pytest.approx(float(np.linalg.norm(contact - z)),
                                  rel=1e-12, abs=floor)
        assert d <= _lbfgsb_wall_distance(dom, z) * (1.0 + 1e-12) + floor
        brute = _brute_wall_distance(dom, z)
        assert abs(d - brute) <= 1e-9 * brute + floor, z


@pytest.mark.parametrize("name", WALL_DOMAINS)
def test_wall_distance_is_the_nearest_wall_point(name):
    # never farther than the local search it replaced, and as near as the
    # brute force, up to the rounding of the vertical term x2 - F
    dom = WALL_DOMAINS[name]
    seed = sorted(WALL_DOMAINS).index(name)
    rng = np.random.default_rng([28, seed])
    _check_nearest(dom, _wall_points(dom, 1000, rng))


def test_wall_distance_reaches_the_far_arm():
    # past |Im z1| = 2 the wall rises as 3((|b| - 2)_+)^2; from deep points
    # just inside |Im z1| < 2 the nearest wall point can lie on that arm,
    # beyond the flat part below: from (1.9i, 0.5) it is 0.4613 away
    dom = OmegaPsi(PsiSpec("exp_neg_c_over_x", c=math.pi), chi1=3.0)
    z = np.array([1.9j, 0.5])
    d, contact = dom._graph_distance(z)
    assert contact[0].imag > 2.0
    assert d == pytest.approx(_brute_wall_distance(dom, z, n=31), rel=1e-9)
    assert d == pytest.approx(0.4613, abs=1e-4)
    _check_nearest(dom, _wall_points(dom, 200, np.random.default_rng(28),
                                     y1_range=(1.5, 2.0), depths=(0.1, 0.5)))


@pytest.mark.parametrize("name, z, table", [
    ("exp-pi", (0.0, 1.0), 0.866),
    ("logpow-2", (0.0, 1.0), 0.263),
    ("logpow-2", (0.28874673168731535j, 0.08405517128752388), 0.0330),
])
def test_deep_points_read_their_true_distance(name, z, table):
    # the local search stopped at the vertical foot, 1.0, 1.0 and 0.0841
    dom = WALL_DOMAINS[name]
    z = np.array(z, dtype=complex)
    d = dom.boundary_distance(z)
    assert d == pytest.approx(table, abs=5e-4)
    assert d == pytest.approx(_brute_wall_distance(dom, z, n=31), rel=1e-9)
    assert d < 0.9 * _lbfgsb_wall_distance(dom, z)
    if name == "exp-pi":
        # the contacts (0, 1/2 +- i/sqrt(2)): c^2 = 1/2 at lam = 1/2
        assert d == pytest.approx(math.sqrt(0.75), rel=1e-15)


PSI_SHAPES = [PsiSpec("exp_neg_c_over_x", c=c) for c in (0.5, math.pi, 4.0)] \
    + [PsiSpec("exp_neg_inv_log_pow", alpha=a) for a in (1.2, 2.0, 3.0)]


@pytest.mark.parametrize("psi", PSI_SHAPES, ids=[
    "exp-0.5", "exp-pi", "exp-4", "logpow-1.2", "logpow-2", "logpow-3"])
def test_curvature_bounds_psi_second_derivative(psi):
    # psi'' matches differences of psi', rises to one peak on the pure
    # region and falls to 0 at the cut, and curvature(lo, hi) is at least
    # psi'' on [lo, hi], the continuation's 2 psi'(cut) past the cut
    cut = psi.cut
    xs = np.geomspace(cut * 1e-3, cut, 3001)
    d2 = np.array([psi._pure_deriv2(x) for x in xs])
    for x in xs[::300]:
        h = 1e-6 * x
        fd = (psi._pure_deriv(x + h) - psi._pure_deriv(x - h)) / (2.0 * h)
        assert psi._pure_deriv2(x) == pytest.approx(fd, rel=1e-5,
                                                    abs=1e-6 * d2.max())
    top = int(np.argmax(d2))
    assert np.all(np.diff(d2[:top + 1]) >= -1e-12 * d2[top])
    assert np.all(np.diff(d2[top:]) <= 1e-12 * d2[top])
    assert psi._curvature_peak == pytest.approx(xs[top], rel=1e-2)
    beyond = 2.0 * psi._at_cut[1]
    rng = np.random.default_rng(5)
    for _ in range(200):
        lo, hi = np.sort(rng.uniform(0.0, 1.5 * cut, 2))
        inside = d2[(xs >= lo) & (xs <= hi)]
        want = max(inside.max(initial=0.0), beyond if hi > cut else 0.0)
        assert psi.curvature(lo, hi) >= want * (1.0 - 1e-12)
