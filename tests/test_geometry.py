"""Geometry queries: membership, boundary/directional distances, minimal bases.

Oracle policy: closed-form values are checked against independent
derivations (frozen constants below); sampled machinery is checked against
brute-force membership-only oracles and against resolution doubling.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize

from koblab import geometry
from koblab.geometry import (
    AmbiguousProjectionError,
    Ball,
    Disc,
    Domain,
    Ellipsoid,
    GeometryError,
    HalfPlane,
    LocalizedDomain,
    OmegaPsi,
    Polydisc,
    PsiSpec,
    _null_basis,
    _phase_search,
    _RAY_REL_TOL,
    _SCAN_PHASES,
    _touching_disc_upper,
    _unit_bounds,
    as_carray,
    domain_from_json,
    from_pairs,
    ray_exit,
    to_pairs,
)
from koblab.metric import distance_lower_bound


def brute_directional(domain, z, v, n_theta=512):
    """Membership-only oracle for the disc radius of D cap (z + C v)."""
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    best = math.inf
    for theta in np.linspace(0, 2 * math.pi, n_theta, endpoint=False):
        u = np.exp(1j * theta) * v
        lo, hi = 0.0, 8.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if domain.contains(z + mid * u):
                lo = mid
            else:
                hi = mid
        best = min(best, 0.5 * (lo + hi))
    return best


def brute_boundary_distance(domain, z, n_dirs=4000, seed=7):
    """Membership-only oracle for the euclidean boundary distance."""
    z = np.asarray(z, dtype=complex)
    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(n_dirs):
        u = rng.standard_normal(2 * domain.dim)
        u = u / np.linalg.norm(u)
        u = u[0::2] + 1j * u[1::2]
        lo, hi = 0.0, 8.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if domain.contains(z + mid * u):
                lo = mid
            else:
                hi = mid
        best = min(best, 0.5 * (lo + hi))
    return best


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


def test_pairs_roundtrip():
    z = from_pairs([[0.5, -0.25], [1.5, 2.0]])
    assert z.tolist() == [0.5 - 0.25j, 1.5 + 2.0j]
    assert to_pairs(z) == [[0.5, -0.25], [1.5, 2.0]]
    assert np.array_equal(from_pairs(to_pairs(z)), z)


def test_pairs_reject_bad_input():
    with pytest.raises(GeometryError):
        as_carray([float("nan")])
    with pytest.raises(GeometryError):
        as_carray([[1.0, 2.0]])
    with pytest.raises(GeometryError):
        from_pairs([[1.0, 2.0, 3.0]])


@pytest.mark.parametrize("bad", [complex(math.inf, 0.0), complex(-math.inf, 1.0),
                                 complex(math.nan, 0.0), complex(0.0, math.inf),
                                 complex(1.0, -math.inf), complex(0.0, math.nan)])
def test_as_carray_rejects_non_finite_real_or_imaginary_part(bad):
    for x in ([0.5, bad], np.array([bad, 0.25j]), bad):
        with pytest.raises(GeometryError, match="non-finite"):
            as_carray(x)


def test_as_carray_shapes_and_values():
    # a 0-d scalar becomes a point of length 1
    for x in (0.5, 0.5 + 0.25j, np.complex128(0.5 + 0.25j), np.array(2.0)):
        z = as_carray(x)
        assert z.shape == (1,) and z.dtype == complex
        assert z[0] == complex(x)
    # a list of Python complex numbers keeps its values and order
    z = as_carray([0.5 - 0.25j, -1j, 3.0])
    assert z.dtype == complex and z.tolist() == [0.5 - 0.25j, -1j, 3 + 0j]
    # a complex array passes through without a copy
    w = np.array([0.1, 0.2j])
    assert as_carray(w) is w
    # a 2-d array is refused, even with one row or one column
    for x in (np.zeros((2, 2)), np.zeros((1, 3)), np.zeros((3, 1)),
              [[0.1j], [0.2]]):
        with pytest.raises(GeometryError, match="1-d"):
            as_carray(x)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_membership_is_open():
    assert Disc().contains([0.999])
    assert not Disc().contains([1.0])  # boundary points are outside
    assert Polydisc(2).contains([0.5, 0.9j])
    assert not Polydisc(2).contains([1.0, 0.0])
    assert Ball(2).contains([0.7, 0.7j * 0.5])
    assert not Ball(2).contains([1.0, 0.0])
    assert HalfPlane().contains([1j])
    assert not HalfPlane().contains([0.0])
    assert Ellipsoid([1.0, 2.0]).contains([0.0, 1.9j])
    assert not Ellipsoid([1.0, 2.0]).contains([0.0, 2.0j])


def test_omega_psi_membership():
    dom = OmegaPsi(PsiSpec("exp_neg_c_over_x", c=math.pi))
    # a point just above the flat segment is inside
    assert dom.contains([1j, 0.001])
    assert not dom.contains([1j, 0.0])          # on the segment itself
    assert not dom.contains([1j, -0.001])       # below the wall
    assert not dom.contains([1j, 2.9])          # outside the cap
    # the wall rises off the segment: at Re z1 = 1, need Re z2 > e^{-pi}
    assert not dom.contains([1.0, 0.02])
    assert dom.contains([1.0, 0.05])            # e^{-pi} = 0.0432...


# every domain class, each Omega_psi profile, and a window around Omega_psi
CONTRACT_DOMAINS = {
    "Disc": Disc(),
    "HalfPlane": HalfPlane(),
    "Polydisc": Polydisc(2),
    "Ball": Ball(2),
    "Ellipsoid": Ellipsoid([1.0, 2.0]),
    "OmegaPsi-exp": OmegaPsi(PsiSpec("exp_neg_c_over_x")),
    "OmegaPsi-logpow": OmegaPsi(PsiSpec("exp_neg_inv_log_pow", alpha=2.0)),
    "LocalizedDomain": LocalizedDomain(OmegaPsi(PsiSpec("exp_neg_c_over_x")),
                                       [0.5j, 0.3], 0.5),
}


@pytest.mark.parametrize("name", list(CONTRACT_DOMAINS))
def test_primitives_reject_a_point_of_the_wrong_dimension(name):
    # every public primitive checks the dimension, on every domain, before
    # a closed form can drop a coordinate or numpy can broadcast one
    dom = CONTRACT_DOMAINS[name]
    z = dom.base_point
    for bad in ([0.1] * (dom.dim - 1), [0.1] * (dom.dim + 1)):
        for call in (dom.contains, dom.inner_radius_fast,
                     dom.boundary_distance, dom.nearest_boundary_point,
                     dom.supporting_normal,
                     lambda p: dom.directional_distance(p, z),
                     lambda p: dom.directional_distance(z, p)):
            with pytest.raises(GeometryError, match="dimension"):
                call(bad)


@pytest.mark.parametrize("name", list(CONTRACT_DOMAINS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_inner_radius_is_positive_only_inside(name, data):
    # for any finite point the fast inner radius answers without raising:
    # > 0 only where contains holds, and a lower bound inside
    dom = CONTRACT_DOMAINS[name]
    scale = data.draw(st.floats(0.0, 2.0 * min(dom.bounding_radius, 3.0)))
    offset = [complex(data.draw(st.floats(-1.0, 1.0)),
                      data.draw(st.floats(-1.0, 1.0)))
              for _ in range(dom.dim)]
    z = dom.base_point + scale * np.array(offset)
    r = dom.inner_radius_fast(z)
    if dom.contains(z):
        assert r <= dom.boundary_distance(z) + 1e-12
    else:
        assert r <= 0.0


# ---------------------------------------------------------------------------
# boundary distances (closed forms)
# ---------------------------------------------------------------------------


def test_boundary_distance_models():
    assert Disc().boundary_distance([0.9]) == pytest.approx(0.1, abs=1e-15)
    assert HalfPlane().boundary_distance([2.5j + 1]) == pytest.approx(2.5)
    assert Polydisc(2).boundary_distance([0.5, 0.0]) == pytest.approx(0.5)
    assert Ball(2).boundary_distance([0.6, 0.0]) == pytest.approx(0.4)
    # ellipsoid with distinct axes: off-axis contact beats the axis endpoint
    # (for x=(0.5,0) on axes (2,1): contact (2/3, +-sqrt(8)/3), d = 0.9574...)
    e = Ellipsoid([2.0, 1.0])
    d = e.boundary_distance([0.5, 0.0])
    assert d == pytest.approx(math.sqrt((0.5 - 2 / 3) ** 2 + 8 / 9), rel=1e-12)


@pytest.mark.parametrize("tiny", [1e-60, 1e-100, 1e-200, 1e-310, 5e-324])
def test_ellipsoid_distance_at_a_tiny_minimal_axis_coordinate(tiny):
    # a minimal-axis coordinate far below the axis put the projection's
    # multiplier so near the pole that brentq ran out of iterations or the
    # bracket walk gave up; the distance is within tiny of the one at 0
    e = Ellipsoid([1.0, 2.0])
    for z, ref in (([tiny, 0.5], [0.0, 0.5]), ([1j * tiny, 0.0], [0.0, 0.0]),
                   ([tiny, 1.9j], [0.0, 1.9j])):
        assert e.boundary_distance(z) == pytest.approx(
            e.boundary_distance(ref), abs=1e-15)
        assert e.contains(e.nearest_boundary_point(z)) is False


def test_ellipsoid_distance_against_parametric_oracle():
    from scipy.optimize import minimize_scalar

    axes = np.array([1.0, 2.0])
    e = Ellipsoid(axes)

    def oracle(z):
        # for fixed moduli (r1, r2) on the quadric, the optimal phases align
        # with those of z, so the problem reduces to the nearest point on a
        # real ellipse (r1, r2) = (a1 sin eta, a2 cos eta) to (|z1|, |z2|)
        m = np.abs(z)

        def dist(eta):
            r1 = axes[0] * math.sin(eta)
            r2 = axes[1] * math.cos(eta)
            return math.hypot(r1 - m[0], r2 - m[1])

        grid = np.linspace(0.0, math.pi / 2, 2001)
        k = int(np.argmin([dist(t) for t in grid]))
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, len(grid) - 1)]
        res = minimize_scalar(dist, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-14})
        return float(res.fun)

    rng = np.random.default_rng(3)
    for _ in range(25):
        z = rng.uniform(-0.5, 0.5, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
        if not e.contains(z):
            continue
        d = e.boundary_distance(z)
        assert d == pytest.approx(oracle(np.asarray(z)), abs=1e-9)


def test_ellipsoid_nearest_point_example():
    e = Ellipsoid([1.0, 2.0])
    p = e.nearest_boundary_point([0.5, 0.0])
    assert np.allclose(p, [1.0, 0.0], atol=1e-12)


def test_boundary_distance_requires_interior_point():
    with pytest.raises(GeometryError):
        Disc().boundary_distance([1.5])
    with pytest.raises(GeometryError):
        Ball(2).boundary_distance([1.0, 0.5])


# ---------------------------------------------------------------------------
# directional distances
# ---------------------------------------------------------------------------


def test_directional_distance_examples():
    assert Disc().directional_distance([0.0], [1.0]) == pytest.approx(1.0)
    t = Ball(2).directional_distance([0.5, 0.0], [0.0, 1.0])
    assert t == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)  # 0.8660254
    assert Polydisc(2).directional_distance([0.5, 0.0], [1.0, 0.0]) == pytest.approx(0.5)


DIRECTION_CASES = [
    (Disc(), [0.3]),
    (HalfPlane(), [1j]),
    (Polydisc(2), [0.1, 0.1]),
    (Ball(2), [0.1, 0.1]),
    (Ellipsoid([1.0, 2.0]), [0.0, 0.0]),
    (OmegaPsi(PsiSpec("exp_neg_c_over_x", c=math.pi)), [0.0, 1.0]),
    (LocalizedDomain(Ball(2), [0.0, 0.0], 0.5), [0.1, 0.0]),
]


@pytest.mark.parametrize("dom,z", DIRECTION_CASES,
                         ids=[type(d).__name__ for d, _ in DIRECTION_CASES])
def test_directional_distance_rejects_bad_directions(dom, z):
    # a direction of the wrong length must not broadcast or be cut short,
    # and a zero direction must not divide by zero, in every override and
    # in the generic scan
    bad = [[1.0] * (dom.dim + 1), [0.0] * dom.dim]
    if dom.dim > 1:
        bad.append([1.0] * (dom.dim - 1))
    for v in bad:
        with pytest.raises(GeometryError):
            dom.directional_distance(z, v)
    assert dom.directional_distance(z, [1.0] + [0.0] * (dom.dim - 1)) > 0.0
    # a strided complex view is a direction like its contiguous copy
    strided = np.array([[0.6 - 0.8j, 9.0]] * dom.dim)[:, 0]
    assert dom.directional_distance(z, strided).hex() == \
        dom.directional_distance(z, strided.copy()).hex()


def test_directional_distance_against_brute_force():
    rng = np.random.default_rng(11)
    domains = [Ball(2), Polydisc(2), Ellipsoid([1.0, 2.0])]
    for dom in domains:
        for _ in range(8):
            z = rng.uniform(-0.4, 0.4, 2) + 1j * rng.uniform(-0.4, 0.4, 2)
            if not dom.contains(z):
                continue
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            t = dom.directional_distance(z, v)
            oracle = brute_directional(dom, z, v)
            assert t == pytest.approx(oracle, rel=1e-3)


def test_directional_dominates_boundary_distance():
    # the euclidean ball of radius delta contains the flat disc, so t >= delta
    rng = np.random.default_rng(4)
    for dom in [Ball(2), Polydisc(2), Ellipsoid([1.0, 2.0])]:
        for _ in range(20):
            z = rng.uniform(-0.5, 0.5, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
            if not dom.contains(z):
                continue
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            assert dom.directional_distance(z, v) >= dom.boundary_distance(z) - 1e-9


def test_omega_psi_directional_tracks_psi_inverse():
    # moving along the segment direction from a point at height r, the disc
    # radius is psi^{-1}(r) up to lower-order terms
    psi = PsiSpec("exp_neg_c_over_x", c=math.pi)
    dom = OmegaPsi(psi)
    r = 1e-2
    t = dom.directional_distance([0j, r], [1.0, 0.0])
    assert t == pytest.approx(psi.inverse(r), rel=0.05)


# ---------------------------------------------------------------------------
# sampled machinery self-checks
# ---------------------------------------------------------------------------


def test_omega_psi_boundary_distance_near_segment_is_height():
    dom = OmegaPsi(PsiSpec("exp_neg_c_over_x", c=math.pi))
    for eps in (1e-2, 1e-4, 1e-6):
        assert dom.boundary_distance([1j, eps]) == pytest.approx(eps, rel=1e-9)


def test_omega_psi_boundary_distance_generic_point():
    from scipy.optimize import minimize

    psi = PsiSpec("exp_neg_c_over_x", c=math.pi)
    dom = OmegaPsi(psi)
    z = np.array([0.3 + 0.4j, 0.8 + 0.1j])
    d = dom.boundary_distance(z)

    # independent oracle: grid + simplex search over the wall graph
    # (x1, y1, y2) -> (x1 + i y1, wall(x1, y1, y2) + i y2)
    def wall_point(q):
        x1, y1, y2 = q
        t = max(abs(y1) - 2.0, 0.0)
        height = psi.value(x1) + t * t + y2 * y2
        return np.array([x1 + 1j * y1, height + 1j * y2])

    def dist(q):
        return np.linalg.norm(wall_point(q) - z)

    grids = np.meshgrid(np.linspace(-1, 1.5, 41), np.linspace(-1, 1.5, 41),
                        np.linspace(-0.5, 0.7, 25), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    vals = np.array([dist(q) for q in pts])
    q0 = pts[int(np.argmin(vals))]
    res = minimize(dist, q0, method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 5000})
    oracle = float(res.fun)

    assert d == pytest.approx(oracle, abs=1e-7)
    assert dom.inner_radius_fast(z) <= d + 1e-9


# ---------------------------------------------------------------------------
# the domain protocol: closed forms and solver kernels
# ---------------------------------------------------------------------------

PROTOCOL_DOMAINS = [
    (Disc(), True),
    (HalfPlane(), True),
    (Polydisc(2), True),
    (Ball(2), True),
    (Ellipsoid((1.0, 2.0)), False),
    (OmegaPsi(PsiSpec("exp_neg_c_over_x")), False),
]


def _protocol_pair(domain, rng):
    """A short pair well inside the domain (model domains only)."""
    if isinstance(domain, HalfPlane):
        x = np.array([complex(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))])
    else:
        v = rng.standard_normal(domain.dim) + 1j * rng.standard_normal(domain.dim)
        x = v / np.linalg.norm(v) * rng.uniform(0.0, 0.6)
    w = rng.standard_normal(domain.dim) + 1j * rng.standard_normal(domain.dim)
    return x, x + rng.uniform(0.02, 0.2) * w / np.linalg.norm(w)


@pytest.mark.parametrize("domain, is_model", PROTOCOL_DOMAINS,
                         ids=[type(d).__name__ for d, _ in PROTOCOL_DOMAINS])
def test_domain_protocol_closed_forms_and_kernels(domain, is_model):
    assert domain.exact is is_model
    x = domain.base_point
    y = x + 0.1 * np.eye(domain.dim, dtype=complex)[0]
    assert (domain.exact_distance(x, y) is not None) is is_model
    if isinstance(domain, HalfPlane):
        # the solver refuses unbounded domains, so the half-plane has no
        # kernel of its own to compare with its closed form
        return
    node = domain._node

    def seg(p, q):
        a, b = p.tolist(), q.tolist()
        return max(domain._terms(a, b, node(a)[1], node(b)[1]))
    if not is_model:
        # the generic kernel calls the one rounded-up touching-disc bound
        # at the larger of the node radii and, where the domain has one,
        # the line radii of both ends: one formula, same bits
        (rx, fx), (ry, fy) = node(x.tolist()), node(y.tolist())
        t = max(rx, ry)
        if hasattr(domain, "_line_radius"):
            q = _unit_bounds((y - x).view(float).tolist())
            t = max(t, domain._line_radius(fx, q), domain._line_radius(fy, q))
            assert t > max(rx, ry)
        assert seg(x, y) == _touching_disc_upper((y - x).view(float).tolist(), t)
        assert seg(x, y) >= math.atanh(float(np.linalg.norm(y - x)) / t)
        return
    # the descent's kernel calls the closed form: one formula, same bits
    rng = np.random.default_rng(20)
    for _ in range(25):
        x, y = _protocol_pair(domain, rng)
        assert seg(x, y) == domain.exact_distance(x, y)


# ---------------------------------------------------------------------------
# nearest boundary point / supporting hyperplanes
# ---------------------------------------------------------------------------


def test_nearest_boundary_point_models():
    assert np.allclose(Disc().nearest_boundary_point([0.9]), [1.0])
    assert np.allclose(Disc().nearest_boundary_point([0.0]), [-1.0])  # tie-break
    assert np.allclose(
        Polydisc(2).nearest_boundary_point([0.5, 0.0]), [1.0, 0.0])
    assert np.allclose(Ball(2).nearest_boundary_point([0.0, 0.5]), [0.0, 1.0])
    assert np.allclose(
        HalfPlane().nearest_boundary_point([2.0 + 1j]), [2.0])


def test_supporting_normal_outward():
    # Re <z - b, nu> < 0 for interior points: the domain is on the inner side
    cases = [
        (Disc(), [0.3 + 0.1j]),
        (Ball(2), [0.2, 0.3j]),
        (Polydisc(2), [0.5, -0.2]),
        (Ellipsoid([1.0, 2.0]), [0.4, 0.5j]),
    ]
    rng = np.random.default_rng(5)
    for dom, z in cases:
        z = np.asarray(z, dtype=complex)
        b = dom.nearest_boundary_point(z)
        nu = dom.supporting_normal(b)
        assert np.linalg.norm(nu) == pytest.approx(1.0, abs=1e-12)
        for _ in range(40):
            w = rng.uniform(-0.9, 0.9, dom.dim) + 1j * rng.uniform(-0.9, 0.9, dom.dim)
            if dom.contains(w):
                assert np.real(np.vdot(nu, w - b)) < 1e-10


def test_polydisc_supporting_normal_example():
    nu = Polydisc(2).supporting_normal([1.0, 0.3])
    assert np.allclose(nu, [1.0, 0.0], atol=1e-12)


def test_omega_psi_supporting_normal_on_segment():
    dom = OmegaPsi(PsiSpec("exp_neg_c_over_x", c=math.pi))
    nu = dom.supporting_normal([1j, 0.0])
    assert np.allclose(nu, [0.0, -1.0], atol=1e-12)


def test_omega_psi_projection_threshold_reads_the_diagonal_hessian():
    # the wall's Hessian is diag(psi'', 2 chi1, 2 chi2); the sampled |psi''|
    # of exp(-pi/x) stays below 0.4, so the constant curvature 2 chi1 rules
    dom = OmegaPsi(PsiSpec("exp_neg_c_over_x", c=math.pi), chi1=3.0,
                   chi2=0.5, cap_radius=4.0)
    assert dom.projection_threshold == 0.5 / 6.0
    with pytest.raises(AmbiguousProjectionError):
        dom.nearest_boundary_point([0.0, 1.0])  # depth 1 > 1/12


def test_localized_domain_ambiguity():
    # center the window so base boundary and window sphere tie at distinct points
    dom = LocalizedDomain(Ball(2), center=[0.0, 0.0], radius=1.0)
    with pytest.raises(AmbiguousProjectionError):
        dom.nearest_boundary_point([0.0, 0.0])


# one metric projection per point: Domain._project gives the boundary
# distance and the nearest boundary point together

PROJECTED = {
    "disc": (Disc(), 1.0),
    "halfplane": (HalfPlane(), 2.0),
    "polydisc2": (Polydisc(2), 1.0),
    "ball2": (Ball(2), 1.0),
    "ellipsoid-1-2": (Ellipsoid([1.0, 2.0]), 2.0),
    "omega-psi": (OmegaPsi(PsiSpec("exp_neg_c_over_x", c=math.pi)), 1.4),
    "localized-ball2": (LocalizedDomain(Ball(2), [0.3, 0.0], 0.6), 1.0),
}


@pytest.mark.parametrize("name", PROJECTED)
def test_contact_lies_at_the_boundary_distance(name):
    # where the contact is unique, |nearest_boundary_point(z) - z| is the
    # boundary distance: both come from the same projection
    dom, box = PROJECTED[name]
    rng = np.random.default_rng(83)
    checked = 0
    while checked < 20:
        z = rng.uniform(-box, box, dom.dim) + 1j * rng.uniform(-box, box, dom.dim)
        if not dom.contains(z):
            continue
        checked += 1
        d = dom.boundary_distance(z)
        try:
            b = dom.nearest_boundary_point(z)
        except AmbiguousProjectionError:
            continue
        assert float(np.linalg.norm(b - z)) == pytest.approx(d, rel=1e-12)


def _count_projections(monkeypatch, cls):
    """Record the point of every ``cls._project`` call."""
    calls = []
    project = cls._project

    def counting(self, z):
        calls.append(tuple(z))
        return project(self, z)
    monkeypatch.setattr(cls, "_project", counting)
    return calls


@pytest.mark.parametrize("dom, x, y", [
    (Ellipsoid([1.0, 2.0]), [0.9, 0.0], [-0.9, 0.1j]),
    (OmegaPsi(PsiSpec("exp_neg_c_over_x", c=math.pi)),
     [1j, 0.05], [-1j, 0.02]),
], ids=["ellipsoid", "omega-psi"])
def test_lower_bound_projects_each_endpoint_once(monkeypatch, dom, x, y):
    calls = _count_projections(monkeypatch, type(dom))
    assert distance_lower_bound(dom, x, y) > 0.0
    assert sorted(calls) == sorted([tuple(as_carray(x)), tuple(as_carray(y))])


@pytest.mark.parametrize("radius, z", [
    (0.8, [0.9, 0.3]),     # the base boundary is nearer
    (0.8, [0.3, 0.0]),     # the window sphere is nearer
    (0.5, [0.7, 0.0]),     # both, at the same point
], ids=["base", "sphere", "tie"])
def test_localized_nearest_point_projects_its_base_once(monkeypatch, radius, z):
    dom = LocalizedDomain(Ball(2), [0.5, 0.0], radius)
    calls = _count_projections(monkeypatch, Ball)
    b = dom.nearest_boundary_point(z)
    assert len(calls) == 1
    assert float(np.linalg.norm(b - as_carray(z))) == pytest.approx(
        dom.boundary_distance(z), rel=1e-12)


# ---------------------------------------------------------------------------
# minimal bases
# ---------------------------------------------------------------------------


def test_minimal_basis_ball_example():
    res = Ball(2).minimal_basis([0.5, 0.0])
    assert res.taus[0] == pytest.approx(0.5, abs=1e-12)
    assert res.taus[1] == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)
    assert res.orthonormality_defect() < 1e-12
    assert np.allclose(res.basis[0], [1.0, 0.0], atol=1e-12)


def test_minimal_basis_polydisc_example():
    res = Polydisc(2).minimal_basis([0.5, 0.0])
    assert res.taus[0] == pytest.approx(0.5)
    assert res.taus[1] == pytest.approx(1.0)
    assert res.orthonormality_defect() < 1e-12


@pytest.mark.parametrize("dom, z", [
    (Polydisc(2), [0.5 + 1e-14, 0.5]),
    (Polydisc(2), [0.5, 0.5 + 1e-14j]),
    (Polydisc(2), [-0.3, 0.3 - 5e-14]),
    (Polydisc(3), [0.2, 0.7 + 2e-14, -0.7]),
])
def test_polydisc_first_contact_is_the_nearest_boundary_point(dom, z):
    # faces within 1e-13 of the nearest one tie the same way in the
    # projection and in the minimal basis's first slice
    contact = dom.minimal_basis(z).contacts[0]
    assert np.array_equal(contact, dom.nearest_boundary_point(z))


def test_minimal_basis_invariants_random():
    rng = np.random.default_rng(17)
    domains = [Ball(2), Polydisc(2), Ellipsoid([1.0, 2.0])]
    for dom in domains:
        checked = 0
        while checked < 30:
            z = rng.uniform(-0.6, 0.6, 2) + 1j * rng.uniform(-0.6, 0.6, 2)
            if not dom.contains(z):
                continue
            checked += 1
            res = dom.minimal_basis(z)
            assert res.orthonormality_defect() < 1e-10
            assert np.all(np.diff(res.taus) >= -1e-9)
            assert res.taus[0] == pytest.approx(dom.boundary_distance(z), abs=1e-8)
            # contacts are boundary points: not inside, but inside after pullback
            for j in range(2):
                contact = res.contacts[j]
                assert not dom.contains(contact + 1e-9 * (contact - z))
                assert dom.contains(z + 0.999999 * (contact - z))


def test_minimal_basis_ball3():
    res = Ball(3).minimal_basis([0.5, 0.0, 0.0])
    assert res.orthonormality_defect() < 1e-10
    assert res.taus[0] == pytest.approx(0.5)
    assert res.taus[1] == pytest.approx(math.sqrt(0.75))
    assert res.taus[2] == pytest.approx(math.sqrt(0.75))


def test_minimal_basis_generic_omega_psi():
    dom = OmegaPsi(PsiSpec("exp_neg_c_over_x", c=math.pi))
    z = np.array([1j, 0.05])
    res = dom.minimal_basis(z)
    assert res.orthonormality_defect() < 1e-10
    assert res.taus[0] == pytest.approx(0.05, rel=1e-6)
    assert res.taus[1] >= res.taus[0] - 1e-9
    # first direction is the downward normal onto the segment
    assert np.allclose(res.basis[0], [0.0, -1.0], atol=1e-4)

OMEGA_PI = OmegaPsi(PsiSpec("exp_neg_c_over_x", c=math.pi))


@pytest.mark.parametrize("dom, z", [
    (OMEGA_PI, [1j, 0.05]),
    (OMEGA_PI, [0.02 - 0.7j, 0.01 + 0.03j]),
    (OMEGA_PI, [-0.05 + 1.6j, 0.2 - 0.05j]),
    # a window wider than Omega_psi: the directional distance is the base's
    (LocalizedDomain(OMEGA_PI, [0.5j, 0.3], 10.0), [0.04 + 0.5j, 0.02]),
], ids=["omega-segment", "omega-near-wall", "omega-far", "localized-wide"])
def test_minimal_basis_second_tau_is_the_directional_distance(dom, z):
    # on a 2-dimensional domain without a closed-form slice the second
    # stage is the complex line orthogonal to e_0, and its contact is the
    # directional phase scan's: tau_1 is that directional distance, bit
    # for bit, and the contact lies on the boundary
    z = np.array(z, dtype=complex)
    res = dom.minimal_basis(z)
    v = _null_basis(res.basis[0])[:, 0]
    assert res.taus[1].hex() == dom.directional_distance(z, v).hex()
    contact = res.contacts[1]
    assert abs(np.linalg.norm(contact - z) - res.taus[1]) <= 1e-12
    assert dom.contains(z + (1.0 - 1e-6) * (contact - z))
    assert not dom.contains(z + (1.0 + 1e-6) * (contact - z))


def test_minimal_basis_narrow_window_scans_the_window_rays():
    # a window that cuts the slice line: the window's directional distance
    # takes the closed-form sphere exit, while the slice contact scans the
    # window's own rays, so tau_1 is the phase scan of the window domain
    dom = LocalizedDomain(OMEGA_PI, [0.5j, 0.3], 0.5)
    z = np.array([0.04 + 0.5j, 0.02])
    res = dom.minimal_basis(z)
    v = _null_basis(res.basis[0])[:, 0]
    assert res.taus[1].hex() == _phase_search(dom, z, v)[0].hex()
    assert res.taus[1] == pytest.approx(dom.directional_distance(z, v),
                                        rel=1e-8)


def test_minimal_basis_wide_generic_slice_raises():
    # a window of dimension 3 leaves a 2-dimensional slice to the generic
    # contact, which answers only complex lines
    dom = LocalizedDomain(Ball(3), [0.0, 0.0, 0.0], 0.5)
    with pytest.raises(GeometryError, match="2-dimensional slice"):
        dom.minimal_basis([0.1, 0.0, 0.0])


# float.hex of taus, basis and contacts (real and imaginary parts in turn,
# row by row): recorded from the per-domain minimal-basis code that the one
# Domain.minimal_basis loop replaced, so the loop must reproduce every bit,
# signed zeros included.  The tied polydisc gaps and the degenerate
# Ellipsoid([1, 1, 2]) slices exercise the tie-breaks.  Omega_psi's second
# row is the directional phase scan's contact along the slice line.
PIN_DOMAINS = {
    "disc": Disc(), "polydisc2": Polydisc(2), "polydisc3": Polydisc(3),
    "ball2": Ball(2), "ball3": Ball(3), "ellipsoid12": Ellipsoid([1, 2]),
    "ellipsoid112": Ellipsoid([1, 1, 2]),
    "omega_psi": OmegaPsi(PsiSpec("exp_neg_c_over_x", c=math.pi)),
}
MINIMAL_BASIS_PINS = [
    ('disc', [(0.3+0.4j)],
     '0x1.0000000000000p-1',
     '0x1.3333333333333p-1 0x1.999999999999ap-1',
     '0x1.3333333333333p-1 0x1.999999999999ap-1'),
    ('disc', [-0.6j],
     '0x1.999999999999ap-2',
     '0x0.0p+0 -0x1.0000000000000p+0',
     '-0x0.0p+0 -0x1.0000000000000p+0'),
    ('disc', [0j],
     '0x1.0000000000000p+0',
     '-0x1.0000000000000p+0 0x0.0p+0',
     '-0x1.0000000000000p+0 0x0.0p+0'),
    ('polydisc2', [0.5, 0.5j],
     '0x1.0000000000000p-1 0x1.0000000000000p-1',
     '0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 '
     '0x0.0p+0 0x0.0p+0 0x0.0p+0',
     '0x1.0000000000000p-1 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 '
     '0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p-1'),
    ('polydisc2', [(0.2-0.3j), 0.6],
     '0x1.999999999999ap-2 0x1.4765517d90f38p-1',
     '0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0 0x1.1c01aa03be898p-1 '
     '-0x1.aa027f059dce2p-1 0x0.0p+0 0x0.0p+0',
     '0x1.999999999999ap-3 -0x1.3333333333333p-2 0x1.0000000000000p+0 '
     '0x0.0p+0 0x1.1c01aa03be897p-1 -0x1.aa027f059dce1p-1 '
     '0x1.3333333333333p-1 0x0.0p+0'),
    ('polydisc3', [0.3, -0.3, 0.3j],
     '0x1.6666666666666p-1 0x1.6666666666666p-1 0x1.6666666666666p-1',
     '0x0.0p+0 0x0.0p+0 -0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 '
     '0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 '
     '0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0',
     '0x1.3333333333333p-2 0x0.0p+0 -0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 '
     '0x1.3333333333333p-2 0x1.3333333333333p-2 0x0.0p+0 '
     '-0x1.3333333333333p-2 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 '
     '0x1.0000000000000p+0 0x0.0p+0 -0x1.3333333333333p-2 0x0.0p+0 0x0.0p+0 '
     '0x1.3333333333333p-2'),
    ('polydisc3', [0.1, 0.8j, -0.4],
     '0x1.9999999999998p-3 0x1.3333333333333p-1 0x1.ccccccccccccdp-1',
     '0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 '
     '0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.0000000000000p+0 0x0.0p+0 '
     '0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0',
     '0x1.999999999999ap-4 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 '
     '-0x1.999999999999ap-2 0x0.0p+0 0x1.999999999999ap-4 0x0.0p+0 0x0.0p+0 '
     '0x1.999999999999ap-1 -0x1.0000000000000p+0 0x0.0p+0 '
     '0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 0x1.999999999999ap-1 '
     '-0x1.999999999999ap-2 0x0.0p+0'),
    ('ball2', [0.5, 0],
     '0x1.0000000000000p-1 0x1.bb67ae8584caap-1',
     '0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 '
     '-0x1.0000000000000p+0 0x0.0p+0',
     '0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p-1 '
     '0x0.0p+0 -0x1.bb67ae8584caap-1 0x0.0p+0'),
    ('ball2', [(0.3+0.1j), (-0.2+0.4j)],
     '0x1.cf21d160ef71ap-2 0x1.ac5eb3f7ab2f8p-1',
     '0x1.186f174f88473p-1 0x1.75e9746a0b098p-3 -0x1.75e9746a0b098p-2 '
     '0x1.75e9746a0b098p-1 -0x1.a20bd700c2c3cp-1 0x0.0p+0 '
     '-0x1.4e6fdf33cf036p-4 0x1.24a1e34d5522bp-1',
     '0x1.186f174f88472p-1 0x1.75e9746a0b098p-3 -0x1.75e9746a0b098p-2 '
     '0x1.75e9746a0b098p-1 -0x1.88533e7dbd011p-2 0x1.999999999999ap-4 '
     '-0x1.12c0a4f818055p-2 0x1.c1a2416454126p-1'),
    ('ball3', [0.5, 0, 0],
     '0x1.0000000000000p-1 0x1.bb67ae8584caap-1 0x1.bb67ae8584caap-1',
     '0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 '
     '0x0.0p+0 0x0.0p+0 -0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 '
     '0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.0000000000000p+0 0x0.0p+0',
     '0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 '
     '0x1.0000000000000p-1 0x0.0p+0 -0x1.bb67ae8584caap-1 0x0.0p+0 0x0.0p+0 '
     '0x0.0p+0 0x1.0000000000000p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0 '
     '-0x1.bb67ae8584caap-1 0x0.0p+0'),
    ('ball3', [(0.1+0.2j), -0.3, 0.4j],
     '0x1.cf21d160ef71ap-2 0x1.ac5eb3f7ab2f8p-1 0x1.ac5eb3f7ab2f8p-1',
     '0x1.75e9746a0b098p-3 0x1.75e9746a0b098p-2 -0x1.186f174f88473p-1 '
     '0x0.0p+0 0x0.0p+0 0x1.75e9746a0b098p-1 -0x1.d363d1848dcbfp-1 '
     '0x1.31fa808c55b43p-55 -0x1.c0b1bee5a6d70p-4 0x1.c0b1bee5a6d7dp-3 '
     '0x1.2b2129ee6f3aep-2 0x1.2b2129ee6f3adp-3 -0x1.9198c8b8307c8p-52 '
     '-0x1.31fa808c55b43p-52 -0x1.9999999999998p-1 0x0.0p+0 '
     '0x1.7fa3ff18016c7p-54 -0x1.3333333333331p-1',
     '0x1.75e9746a0b098p-3 0x1.75e9746a0b098p-2 -0x1.186f174f88472p-1 '
     '0x0.0p+0 0x0.0p+0 0x1.75e9746a0b098p-1 -0x1.53d8b18e8f57fp-1 '
     '0x1.999999999999bp-3 -0x1.910d182e809c0p-2 0x1.776793ed35a3fp-3 '
     '0x1.f48a1a919cdb2p-3 0x1.0b5e101f00683p-1 0x1.9999999999985p-4 '
     '0x1.9999999999992p-3 -0x1.f04bc32c88f2cp-1 0x0.0p+0 '
     '0x1.40fa0d33502a4p-54 -0x1.a1c6930b35b00p-4'),
    ('ellipsoid12', [(0.3+0.1j), (0.5-0.4j)],
     '0x1.3da33520d11fbp-1 0x1.632d4c7f06aecp+0',
     '0x1.db9ab004038e3p-1 0x1.3d11caad57b43p-2 0x1.44c57567bffe3p-3 '
     '-0x1.03d12ab96664ep-3 -0x1.8a912c73a9a1ap-3 -0x1.070b72f7c66bdp-4 '
     '0x1.877941ccaaca1p-1 -0x1.392dce3d556e7p-1',
     '0x1.c0a87aad1e39cp-1 0x1.2b1afc73697bep-2 0x1.325ef1f037a2fp-1 '
     '-0x1.ea318319f29e5p-2 0x1.0be5115941490p-5 0x1.65316c7701b68p-7 '
     '0x1.8f9135c4d05c6p+0 -0x1.3fa75e370d16bp+0'),
    ('ellipsoid12', [0, 0.5],
     '0x1.ea33e2c83c140p-1 0x1.74f4ab7c877ddp+0',
     '-0x1.f82ec882c0f9ap-1 0x0.0p+0 0x1.6482d37a5a3d0p-3 0x0.0p+0 '
     '0x1.6482d37a5a3d0p-3 0x0.0p+0 0x1.f82ec882c0f9bp-1 0x0.0p+0',
     '-0x1.e2b7dddfefa66p-1 0x0.0p+0 0x1.5555555555555p-1 0x0.0p+0 '
     '0x1.03b16b6815880p-2 0x0.0p+0 0x1.ef42ecd8cf3ddp+0 0x0.0p+0'),
    ('ellipsoid112', [0.2, 0.1j, 0.5],
     '0x1.7953451c08c89p-1 0x1.df7bff22627e2p-1 0x1.7e90ae9d88de6p+0',
     '0x1.c40444e4d6f66p-1 0x0.0p+0 0x0.0p+0 0x1.c40444e4d6f66p-2 '
     '0x1.4883fd39f871dp-3 0x0.0p+0 0x1.b365c7eca1f04p-2 0x0.0p+0 0x0.0p+0 '
     '-0x1.cae2320d276d9p-1 0x1.02859e7d16afdp-3 0x0.0p+0 '
     '-0x1.988d42c47141dp-3 0x1.598dbf3f007b9p-58 0x1.598dbf3f007b7p-57 '
     '0x1.623593112c060p-5 0x1.f53862ab4a519p-1 -0x1.00f5cc0abf17ap-110',
     '0x1.b3850ed5650d6p-1 0x0.0p+0 0x0.0p+0 0x1.b3850ed5650d6p-2 '
     '0x1.3c86a76ca0b42p-1 0x0.0p+0 0x1.3245fba0521e3p-1 0x0.0p+0 0x0.0p+0 '
     '-0x1.7a8a8ca19a920p-1 0x1.3c86a76ca0b42p-1 0x0.0p+0 '
     '-0x1.91e02c5104af8p-4 0x1.023267674969ap-57 0x1.0232676749699p-56 '
     '0x1.5121d518fbaf8p-3 0x1.f682b469edeefp+0 -0x1.8000000000000p-110'),
    ('ellipsoid112', [0, 0, 0],
     '0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+1',
     '-0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 '
     '0x0.0p+0 0x0.0p+0 -0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 '
     '0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.0000000000000p+0 0x0.0p+0',
     '-0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 '
     '0x0.0p+0 0x0.0p+0 -0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 '
     '0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 -0x1.0000000000000p+1 0x0.0p+0'),
    # tau_1 and its contact re-recorded (0x1.0c76e86c4fd2ap+0 before) when
    # the phase scan began to read 16 phases of outer ray ends, unpolished
    ('omega_psi', [1j, 0.05],
     '0x1.999999999999ap-5 0x1.0c76e86e1a9dap+0',
     '0x0.0p+0 0x0.0p+0 -0x1.0000000000000p+0 0x0.0p+0 0x1.0000000000000p+0 '
     '0x0.0p+0 0x0.0p+0 0x0.0p+0',
     '0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0 0x1.0c76e86e1a9dap+0 '
     '0x1.0000000000000p+0 0x1.999999999999ap-5 0x0.0p+0'),
]


def _hex_words(arr) -> str:
    arr = np.asarray(arr).ravel()
    if np.iscomplexobj(arr):
        arr = np.column_stack([arr.real, arr.imag]).ravel()
    return " ".join(float(x).hex() for x in arr)


@pytest.mark.parametrize("name,z,taus,basis,contacts", MINIMAL_BASIS_PINS)
def test_minimal_basis_pinned_bit_for_bit(name, z, taus, basis, contacts):
    res = PIN_DOMAINS[name].minimal_basis(np.array(z, dtype=complex))
    assert _hex_words(res.taus) == taus
    assert _hex_words(res.basis) == basis
    assert _hex_words(res.contacts) == contacts


@pytest.mark.parametrize("z", [[0.3 + 0.7j], [-2.0 + 1e-3j], [5.0 + 40.0j]])
def test_minimal_basis_halfplane(z):
    # the contact is the real projection and tau the height, exactly; the
    # direction is -i to within one ulp
    res = HalfPlane().minimal_basis(z)
    assert res.taus.tolist() == [z[0].imag]
    assert res.contacts.tolist() == [[complex(z[0].real, 0.0)]]
    assert abs(res.basis[0, 0] - (-1j)) <= 2.0 ** -52


# ---------------------------------------------------------------------------
# psi profiles
# ---------------------------------------------------------------------------


def test_psi_exp_form_values():
    psi = PsiSpec("exp_neg_c_over_x", c=math.pi)
    assert psi.value(0.0) == 0.0
    assert psi.value(1.0) == pytest.approx(math.exp(-math.pi), rel=1e-15)
    assert psi.value(-1.0) == psi.value(1.0)
    assert psi.inverse(1e-3) == pytest.approx(math.pi / math.log(1e3), rel=1e-14)
    # inverse really inverts
    for u in (1e-6, 1e-3, 1e-1):
        assert psi.value(psi.inverse(u)) == pytest.approx(u, rel=1e-10)


def test_psi_is_convex_and_increasing():
    for spec in (PsiSpec("exp_neg_c_over_x", c=math.pi),
                 PsiSpec("exp_neg_inv_log_pow", alpha=2.0)):
        # below ~5e-3 the exp forms underflow to 0.0, so start above that
        xs = np.linspace(5e-3, 3.0, 4000)
        vals = np.array([spec.value(x) for x in xs])
        assert np.all(np.diff(vals) > 0)
        # discrete convexity: second differences non-negative (up to fp noise)
        second = np.diff(vals, 2)
        assert np.min(second) > -1e-12


def test_psi_loglog_inverse():
    psi = PsiSpec("exp_neg_inv_log_pow", alpha=2.0)
    for u in (1e-8, 1e-4):
        x = psi.inverse(u)
        assert psi.value(x) == pytest.approx(u, rel=1e-9)


@pytest.mark.parametrize("alpha", [1.1, 2.0, 5.0])
def test_psi_loglog_inverse_never_overshoots(alpha):
    # the Newton solve lands within a few ulps of the root brentq finds and
    # never above u, from u = 1e-300 up to psi(cut)
    psi = PsiSpec("exp_neg_inv_log_pow", alpha=alpha)
    top = psi.value(psi.cut)
    for u in [10.0 ** e for e in range(-300, 0, 7)] + [top, 0.5 * top]:
        if u > top:
            continue
        x = psi.inverse(u)
        root = optimize.brentq(lambda t: psi.value(t) - u, 1e-300, psi.cut,
                               xtol=1e-300, rtol=8.9e-16)
        assert psi.value(x) <= u
        assert x == pytest.approx(root, rel=1e-13)


def _psi_reference(psi, x):
    """psi at the float x in 50-digit arithmetic, on the float c, alpha
    and cut that define it."""
    with mpmath.workdps(50):
        def pure(t):
            t = mpmath.mpf(t)
            if psi.form == "exp_neg_c_over_x":
                return mpmath.exp(-mpmath.mpf(psi.c) / t)
            return mpmath.exp(-(1 / t) * mpmath.log(1 / t) ** (-psi.alpha))
        x = abs(mpmath.mpf(x))
        cut = mpmath.mpf(psi.cut)
        if x <= cut:
            return pure(x)
        a, b = pure(cut), mpmath.diff(pure, cut)
        return a + b * (x - cut) + b * (x - cut) ** 2


@pytest.mark.parametrize("psi", [PsiSpec("exp_neg_c_over_x"),
                                 PsiSpec("exp_neg_inv_log_pow", alpha=2.0)],
                         ids=["exp_neg_c_over_x", "exp_neg_inv_log_pow"])
@settings(max_examples=60, deadline=None)
@given(x=st.floats(1e-3, 3.0))
def test_psi_value_up_bounds_the_exact_profile(psi, x):
    # above psi itself, pure region and continuation alike, and within a
    # relative 1e-9 of the float value
    up = psi.value_up(x)
    assert up >= _psi_reference(psi, x)
    assert up <= max(psi.value(x) * (1.0 + 1e-9), 2.0 ** -1000)


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------


def test_domain_json_roundtrip():
    specs = [
        {"kind": "disc"},
        {"kind": "halfplane"},
        {"kind": "polydisc", "n": 2},
        {"kind": "ball", "n": 3},
        {"kind": "ellipsoid", "axes": [1.0, 2.0]},
        {"kind": "omega_psi", "psi": {"form": "exp_neg_c_over_x", "c": 3.14159265},
         "cap_radius": 3.0},
    ]
    for spec in specs:
        dom = domain_from_json(spec)
        again = domain_from_json(dom.to_json())
        assert again.to_json() == dom.to_json()
    # records without n build the two-dimensional domain
    for kind in ("ball", "polydisc"):
        dom = domain_from_json({"kind": kind})
        assert dom.dim == 2
        assert dom.to_json() == {"kind": kind, "n": 2}


def test_domain_json_rejects_unknown():
    with pytest.raises(GeometryError):
        domain_from_json({"kind": "torus"})
    with pytest.raises(GeometryError):
        domain_from_json({})


@pytest.mark.parametrize("build", [
    lambda: PsiSpec("exp_neg_c_over_x", c=math.inf),
    lambda: PsiSpec("exp_neg_c_over_x", c=math.nan),
    lambda: PsiSpec("exp_neg_inv_log_pow", alpha=math.nan),
    lambda: PsiSpec("exp_neg_inv_log_pow", alpha=math.inf),
    lambda: OmegaPsi(PsiSpec("exp_neg_c_over_x"), chi1=-1.0),
    lambda: OmegaPsi(PsiSpec("exp_neg_c_over_x"), chi2=-1.0),
    lambda: OmegaPsi(PsiSpec("exp_neg_c_over_x"), chi1=math.nan),
    lambda: OmegaPsi(PsiSpec("exp_neg_c_over_x"), chi2=math.inf),
    lambda: OmegaPsi(PsiSpec("exp_neg_c_over_x"), cap_radius=math.nan),
    lambda: OmegaPsi(PsiSpec("exp_neg_c_over_x"), cap_radius=math.inf),
    lambda: Ellipsoid([1.0, math.nan]),
    lambda: Ellipsoid([1.0, math.inf]),
    lambda: domain_from_json({"kind": "ellipsoid", "axes": [1.0, math.inf]}),
    lambda: domain_from_json({"kind": "omega_psi", "chi1": math.nan}),
], ids=["c-inf", "c-nan", "alpha-nan", "alpha-inf", "chi1-negative",
        "chi2-negative", "chi1-nan", "chi2-inf", "cap-nan", "cap-inf",
        "axis-nan", "axis-inf", "json-axis-inf", "json-chi1-nan"])
def test_domains_reject_invalid_parameters(build):
    # non-finite parameters, and a negative chi, which bends the wall
    # concave: with chi1 = -1, (2.8i, -0.2) and (-2.8i, -0.2) are inside
    # and their midpoint (0, -0.2) is not
    with pytest.raises(GeometryError):
        build()


@pytest.mark.parametrize("cls, arg, record", [
    (Ellipsoid, [[1.0, 2.0]], {"kind": "ellipsoid", "axes": [[1.0, 2.0]]}),
    (Ellipsoid, 2.0, {"kind": "ellipsoid", "axes": 2.0}),
    (Ellipsoid, "ab", {"kind": "ellipsoid", "axes": "ab"}),
    (Polydisc, 2.5, {"kind": "polydisc", "n": 2.5}),
    (Ball, 2.7, {"kind": "ball", "n": 2.7}),
    (Ball, math.nan, {"kind": "ball", "n": math.nan}),
    (Ball, 0, {"kind": "ball", "n": 0}),
], ids=["axes-nested", "axes-scalar", "axes-text", "polydisc-fractional",
        "ball-fractional", "ball-nan", "ball-zero"])
def test_constructors_reject_what_json_rejects(cls, arg, record):
    # axes must be a 1-D sequence and n an integer >= 1, whether the domain
    # comes from its constructor or from its JSON record
    with pytest.raises(GeometryError):
        cls(arg)
    with pytest.raises(GeometryError):
        domain_from_json(record)


def test_constructors_take_integer_dimensions():
    assert Polydisc(np.int64(3)).dim == 3
    assert Ball(np.int32(2)).to_json() == {"kind": "ball", "n": 2}
    assert Ellipsoid((1, 2)).dim == 2


@pytest.mark.parametrize("axis", [1e200, 2.0 ** 256 * (1 + 2 ** -52),
                                  1e-170, 2.0 ** -256 * (1 - 2 ** -53)])
def test_ellipsoid_rejects_axes_whose_squares_leave_the_range(axis):
    # a_j^2 = inf read (1e199)^2/a_j^2 = inf/inf as nan, so (1e199, 0) was
    # outside Ellipsoid([1e200, 1]); a_j^2 = 0 divided by zero
    with pytest.raises(GeometryError):
        Ellipsoid([axis, 1.0])
    with pytest.raises(GeometryError):
        domain_from_json({"kind": "ellipsoid", "axes": [axis, 1.0]})


@pytest.mark.parametrize("axis", [2.0 ** 256, 2.0 ** -256])
def test_ellipsoid_at_the_ends_of_the_axis_range(axis):
    # membership, the projection and the quadric exit at the extreme axes
    dom = Ellipsoid([axis, 1.0])
    z = [0.5 * axis, 0.0]
    assert dom.contains(z)
    assert not dom.contains([1.5 * axis, 0.0])
    d = dom.boundary_distance(z)
    # the nearest boundary point is across the unit axis on the long
    # ellipsoid, along the tiny axis on the thin one
    assert d == pytest.approx(math.sqrt(0.75) if axis > 1.0 else 0.5 * axis,
                              rel=1e-12)
    assert dom.directional_distance(z, [1.0, 0.0]) == pytest.approx(
        0.5 * axis, rel=1e-12)
    assert 0.0 < dom.inner_radius_fast(z) <= d


def test_ray_exit_bisection():
    dom = Disc()
    t = ray_exit(dom.ray(np.array([0j]), np.array([1 + 0j])), hi_cap=8.0)
    assert t == pytest.approx(1.0, rel=1e-9)
    # a ray that never leaves returns the cap itself
    up = HalfPlane().ray(np.array([1j]), np.array([1j]))
    assert ray_exit(up, hi_cap=8.0) == 8.0
    assert ray_exit(lambda t: t < 3.0, hi_cap=2.0) == 2.0


def _flicker(t):
    """Inside below 1 - 1e-9, outside above 1 + 1e-9, and in between a
    pattern that flips with the low bits of t: not monotone in that band."""
    if t < 1.0 - 1e-9:
        return True
    return t < 1.0 + 1e-9 and int(t * 2.0 ** 52) % 3 == 0


@pytest.mark.parametrize("inside, hi_cap", [
    (Disc().ray(np.array([0j]), np.array([1 + 0j])), 8.0),
    (lambda t: True, 8.0),
    (lambda t: t < 3.0, 2.0),
    (_flicker, 8.0),
], ids=["disc", "never-exits", "cap-below-exit", "flicker"])
def test_ray_exit_floor_is_exact(inside, hi_cap):
    probes = []

    def recording(t):
        probes.append(t)
        return inside(t)

    full = ray_exit(recording, hi_cap)
    full_probes = list(probes)
    inside_probes = [t for t in full_probes if inside(t)]
    floors = [0.0, 0.5 * full, math.nextafter(full, 0.0), full,
              math.nextafter(full, math.inf), 2.0 * full, math.inf]
    for floor in floors + inside_probes:
        probes.clear()
        cut = ray_exit(recording, hi_cap, floor=floor)
        # the same probes in the same order, stopped early at most
        assert probes == full_probes[:len(probes)]
        if full <= floor:
            assert cut.hex() == full.hex()
        else:
            assert cut > floor


PSI_PROFILES = [PsiSpec("exp_neg_c_over_x"),
                PsiSpec("exp_neg_inv_log_pow", alpha=2.0)]
PSI_IDS = [psi.form for psi in PSI_PROFILES]


def cap_gap_reference(dom, z):
    """cap_radius - |z| for an OmegaPsi point, squares summed as
    (x1² + x2²) + (y1² + y2²) on Python floats: the one cap formula."""
    z1, z2 = complex(z[0]), complex(z[1])
    x1, y1, x2, y2 = z1.real, z1.imag, z2.real, z2.imag
    return dom.cap_radius - math.sqrt((x1 * x1 + x2 * x2)
                                      + (y1 * y1 + y2 * y2))


def omega_psi_contains_reference(dom, z):
    """OmegaPsi membership as the cap formula and the wall formula."""
    if not cap_gap_reference(dom, z) > 0.0:
        return False
    z1, z2 = complex(z[0]), complex(z[1])
    return z2.real > dom._wall(z1.real, z1.imag, z2.imag)


def _ulps(t, k):
    """t moved k representable doubles up (k < 0: down)."""
    for _ in range(abs(k)):
        t = math.nextafter(t, math.inf if k > 0 else -math.inf)
    return t


@pytest.mark.parametrize("psi", PSI_PROFILES, ids=PSI_IDS)
@given(data=st.data())
def test_omega_psi_ray_matches_contains(psi, data):
    dom = OmegaPsi(psi)
    x1 = data.draw(st.floats(-1.0, 1.0))
    y1 = data.draw(st.floats(-2.6, 2.6))
    y2 = data.draw(st.floats(-1.0, 1.0))
    gap = data.draw(st.floats(1e-9, 2.0))
    z = np.array([complex(x1, y1), complex(dom._wall(x1, y1, y2) + gap, y2)])
    assume(np.linalg.norm(z) < dom.cap_radius)
    w = np.array([data.draw(st.floats(-1.0, 1.0)) for _ in range(4)])
    assume(np.linalg.norm(w) > 1e-3)
    w = w / np.linalg.norm(w)
    u = w[0::2] + 1j * w[1::2]

    def reference(t):
        return omega_psi_contains_reference(dom, z + t * u)

    # the exit to the last bit, and the crossing of the cap sphere
    lo, hi = 0.0, 2.0 * dom.cap_radius
    while _ulps(lo, 1) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if reference(mid) else (lo, mid)
    b = float(np.vdot(u, z).real)
    t_cap = -b + math.sqrt(b * b + dom.cap_radius ** 2
                           - float(np.linalg.norm(z)) ** 2)
    base = data.draw(st.sampled_from(("free", "exit", "cap")))
    if base == "free":
        t = data.draw(st.floats(0.0, 2.0 * dom.cap_radius))
    else:
        t = _ulps(lo if base == "exit" else t_cap,
                  data.draw(st.integers(-4, 4)))
    inside = dom.ray(z, u)
    assert inside(t) == dom.contains(z + t * u) == reference(t)
    assert ray_exit(inside, 8.0) == ray_exit(reference, 8.0)


# Points within an ulp of the cap sphere |z| = 3 where a plain sum of
# squares and np.linalg.norm (whose BLAS dot products may fuse
# multiply-adds) decided |z| >= 3 differently in a seeded search on an
# x86-64 machine, so the rounding of |z| decides them; all lie well inside
# the wall, so the cap alone decides membership.
CAP_TIES = [
    ("-0x1.7674251a37afdp-3", "0x1.71531d02c615ap+0",
     "0x1.4b346f753571bp+1", "-0x1.be3e920f409cap-2"),
    ("0x1.453df6a832d00p-3", "-0x1.90734cc661c08p-3",
     "0x1.7cb9d5e309014p+1", "0x1.321d31a4ad9e0p-2"),
    ("0x1.1a9064a5e5d16p-2", "-0x1.010d1db227b34p-1",
     "0x1.747c70cb0dd07p+1", "0x1.cdd8f7e7ebe92p-2"),
    ("0x1.2dcd4412d8680p-3", "-0x1.1988865ac17d8p-3",
     "0x1.7d79a8c228410p+1", "-0x1.1cc93edc20e06p-2"),
    ("-0x1.f54f04595647ap-3", "-0x1.aa3f0bdaaaff8p-2",
     "0x1.7911b503170bep+1", "0x1.311594a4a0a8ep-2"),
    ("0x1.7982a2a129f4cp-4", "-0x1.ea0b2f4b29c49p-1",
     "0x1.6baddec41bb92p+1", "0x1.af025baba9760p-5"),
]


def cap_tie_points():
    for x1, y1, x2, y2 in CAP_TIES:
        yield np.array([complex(float.fromhex(x1), float.fromhex(y1)),
                        complex(float.fromhex(x2), float.fromhex(y2))])


@pytest.mark.parametrize("psi", PSI_PROFILES, ids=PSI_IDS)
def test_omega_psi_cap_ties_follow_cap_gap(psi):
    dom = OmegaPsi(psi)
    u = np.array([0.6, 0.8j])
    for z in cap_tie_points():
        expected = omega_psi_contains_reference(dom, z)
        assert dom.contains(z) == expected
        assert dom.ray(z, u)(0.0) == expected
        assert dom.inner_radius_fast(z).hex() == \
            inner_radius_reference(dom, z).hex()


@pytest.mark.parametrize("psi", PSI_PROFILES, ids=PSI_IDS)
def test_omega_psi_cap_gap_decides_on_the_sphere(psi):
    # every cap tie moved onto the sphere, |z| within 4 ulps of the cap:
    # membership, the inner radius and the boundary distance read the same
    # cap gap, so they agree to the last bit
    dom = OmegaPsi(psi)
    seen = set()
    for z0 in cap_tie_points():
        for k in range(-4, 5):
            z = z0 * (_ulps(dom.cap_radius, k) / np.linalg.norm(z0))
            inside = omega_psi_contains_reference(dom, z)
            assert dom.contains(z) == inside
            seen.add(inside)
            if inside:
                assert 0.0 < dom.inner_radius_fast(z) <= \
                    dom.boundary_distance(z)
            else:
                assert dom.inner_radius_fast(z) == 0.0
    assert seen == {True, False}


def unpruned_scan(domain, z, v, n_theta=_SCAN_PHASES):
    """``(t, u)`` of the full phase scan: every phase's ray bisected to the
    end, and the first least exit by ``np.argmin`` with its direction."""
    v = v / np.linalg.norm(v)
    cap = 4.0 * domain.bounding_radius + float(np.linalg.norm(z)) + 1.0
    thetas = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    values = [ray_exit(domain.ray(z, np.exp(1j * t) * v), cap) for t in thetas]
    k = int(np.argmin(values))
    return values[k], np.exp(1j * thetas[k]) * v


SCAN_DOMAINS = {
    PSI_IDS[0]: OmegaPsi(PSI_PROFILES[0]),
    PSI_IDS[1]: OmegaPsi(PSI_PROFILES[1]),
    "localized": LocalizedDomain(OmegaPsi(PSI_PROFILES[0]),
                                 np.array([0.5j, 0.05 + 0j]), 0.3),
}
STOP_DOMAINS = dict(SCAN_DOMAINS, ellipsoid=Ellipsoid([1.0, 1.5]),
                    ball=Ball(2))


def _stop_case(name, data):
    """An interior point and a direction of a ``STOP_DOMAINS`` domain: near
    the Omega_psi wall, inside the window for the localized one, and
    anywhere inside on the closed-form domains."""
    dom = STOP_DOMAINS[name]
    if name in SCAN_DOMAINS:
        if name == "localized":
            y1 = data.draw(st.floats(0.3, 0.7))
            x1 = data.draw(st.floats(-0.1, 0.1, allow_subnormal=False))
        else:
            y1 = data.draw(st.floats(-2.6, 2.6))
            x1 = data.draw(st.floats(-0.5, 0.5, allow_subnormal=False))
        y2 = data.draw(st.floats(-0.1, 0.1))
        gap = 10.0 ** data.draw(st.floats(-6.0, -1.0))
        base = dom.base if name == "localized" else dom
        z = np.array([complex(x1, y1),
                      complex(base._wall(x1, y1, y2) + gap, y2)])
    else:
        z = np.array([complex(data.draw(st.floats(-1.5, 1.5)),
                              data.draw(st.floats(-1.5, 1.5)))
                      for _ in range(2)])
    assume(dom.contains(z))
    v = np.array([complex(data.draw(st.floats(-1.0, 1.0)),
                          data.draw(st.floats(-1.0, 1.0)))
                  for _ in range(2)])
    assume(np.linalg.norm(v) > 1e-3)
    return dom, z, v


@pytest.mark.parametrize("name", list(SCAN_DOMAINS))
@settings(max_examples=40)
@given(data=st.data())
def test_scan_directional_distance_matches_unpruned(name, data):
    dom, z, v = _stop_case(name, data)
    t, u = _phase_search(dom, z, v)
    t_full, u_full = unpruned_scan(dom, z, v)
    assert t.hex() == t_full.hex()
    assert np.array_equal(u, u_full)
    if name != "localized":
        assert dom.directional_distance(z, v).hex() == t.hex()


class _TwoDips(Domain):
    """A planar region whose exit time is 1.0 at exactly two scan phases,
    6 and 12 of 16, and 1.5 at the others.  The coarse-to-fine scan visits
    phase 12 first (0, 8, 4, 12, 2, 10, 6, ...), so the direction it
    returns shows which of the two tied phases it keeps."""
    dim = 1
    bounding_radius = 2.0
    h = 2.0 * math.pi / 16

    def ray(self, z, u):
        k = (float(np.angle(u[0])) % (2.0 * math.pi)) / self.h
        r = 1.0 if min(abs(k - 6.0), abs(k - 12.0)) < 1e-9 else 1.5
        return lambda t: t < r


def test_scan_ties_go_to_the_first_phase():
    assert _SCAN_PHASES == 16
    dom, z, v = _TwoDips(), np.array([0j]), np.array([1 + 0j])
    t, u = _phase_search(dom, z, v)
    t_full, u_full = unpruned_scan(dom, z, v)
    assert t.hex() == t_full.hex()
    assert u[0] == u_full[0] == np.exp(1j * 6.0 * dom.h)
    assert 1.0 <= t <= 1.0 + 1e-9


class _CountingOmegaPsi(OmegaPsi):
    """OmegaPsi whose rays count their probes."""
    probes = 0

    def ray(self, z, u):
        inside = super().ray(z, u)

        def counted(t):
            _CountingOmegaPsi.probes += 1
            return inside(t)
        return counted


def test_scan_directional_distance_prunes_probes():
    dom = _CountingOmegaPsi(PsiSpec("exp_neg_c_over_x"))
    z = np.array([0.3j, complex(dom._wall(0.0, 0.3, 0.0) + 1e-3, 0.0)])
    v = np.array([1.0 + 0j, 0.2j])
    _CountingOmegaPsi.probes = 0
    pruned = _phase_search(dom, z, v)[0]
    n_pruned, _CountingOmegaPsi.probes = _CountingOmegaPsi.probes, 0
    full = unpruned_scan(dom, z, v)[0]
    assert pruned.hex() == full.hex()
    assert n_pruned <= 0.5 * _CountingOmegaPsi.probes


@pytest.mark.parametrize("name", list(STOP_DOMAINS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_directional_distance_stop_is_exact(name, data):
    # a result above stop is the unstopped one bit for bit; one at or below
    # stop only says the unstopped one is at or below stop too
    dom, z, v = _stop_case(name, data)
    full = dom.directional_distance(z, v)
    kind = data.draw(st.sampled_from(["scaled", "equal", "below", "above"]))
    if kind == "scaled":
        stop = full * (1.0 + data.draw(st.floats(-0.2, 0.2)))
    elif kind == "equal":
        stop = full
    else:
        stop = math.nextafter(full, -math.inf if kind == "below" else math.inf)
    got = dom.directional_distance(z, v, stop=stop)
    if full > stop:
        assert got.hex() == full.hex()
    else:
        assert got <= stop
    assert dom.directional_distance(z, v, stop=-math.inf).hex() == full.hex()


def test_scan_stop_skips_phases():
    # v points the first phase at the wall, so that phase exits first and
    # meets a stop at twice the least exit: the stopped scan bisects that
    # one ray in full, as ray_exit alone would, and skips the other
    # _SCAN_PHASES - 1 phases, each of which the full scan probes at least
    # once
    dom = _CountingOmegaPsi(PsiSpec("exp_neg_c_over_x"))
    z = np.array([0.3j, complex(dom._wall(0.0, 0.3, 0.0) + 1e-3, 0.0)])
    v = np.array([1j, -0.2 + 0j])
    _CountingOmegaPsi.probes = 0
    full = _phase_search(dom, z, v)[0]
    n_full, _CountingOmegaPsi.probes = _CountingOmegaPsi.probes, 0
    cap = 4.0 * dom.bounding_radius + float(np.linalg.norm(z)) + 1.0
    first = ray_exit(dom.ray(z, np.exp(0j) * v / np.linalg.norm(v)), cap)
    n_first, _CountingOmegaPsi.probes = _CountingOmegaPsi.probes, 0
    assert first.hex() == full.hex()
    stopped = _phase_search(dom, z, v, stop=2.0 * full)[0]
    assert stopped.hex() == full.hex()
    assert _CountingOmegaPsi.probes == n_first
    assert n_first <= n_full - (_SCAN_PHASES - 1)
    _CountingOmegaPsi.probes = 0
    assert _phase_search(dom, z, v, stop=0.5 * full)[0].hex() == \
        full.hex()
    assert _CountingOmegaPsi.probes == n_full


def brute_outer_min(domain, z, v, n_theta=4096):
    """The least outer ray end over ``n_theta`` equally spaced phases: on
    each ray the smallest float that ``domain.ray`` rejects, bisected to
    adjacent floats.  The phases go in a seeded random order, and a ray
    still inside at the running least end cannot lower it and is skipped,
    which is exact for a predicate true on an interval [0, T)."""
    v = v / np.linalg.norm(v)
    best = 4.0 * domain.bounding_radius + float(np.linalg.norm(z)) + 1.0
    thetas = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    for k in np.random.default_rng(0).permutation(n_theta):
        inside = domain.ray(z, np.exp(1j * thetas[k]) * v)
        if inside(best):
            continue
        lo, hi = 0.0, best
        while math.nextafter(lo, math.inf) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if inside(mid) else (lo, mid)
        best = hi
    return best


# a point over the flat segment and the normal (0, 1): the line's nearest
# boundary point is straight down at the wall, at phase pi, which both the
# scan's grid and the brute grid hold, so there an inner ray end shows
ALIGNED_SCAN_CASES = {
    PSI_IDS[0]: np.array([0.5j, 1e-3 + 0j]),
    PSI_IDS[1]: np.array([-1.2j, 1e-2 + 0j]),
    "localized": np.array([0.5j, 1e-3 + 0j]),
}
NORMAL = np.array([0j, 1 + 0j])


def _scan_shortfalls():
    """The aligned cases whose scan t is below the brute least outer end."""
    out = []
    for name, z in ALIGNED_SCAN_CASES.items():
        dom = SCAN_DOMAINS[name]
        t = _phase_search(dom, z, NORMAL)[0]
        if not t >= brute_outer_min(dom, z, NORMAL):
            out.append(name)
    return out


@pytest.mark.parametrize("name", list(SCAN_DOMAINS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_scan_at_or_above_brute_outer_ends(name, data):
    # the scan's t is a minimum of outer ends over 16 of the 4096 phases,
    # so no slack: it is at least the 4096-phase least outer end
    dom, z, v = _stop_case(name, data)
    assert _phase_search(dom, z, v)[0] >= brute_outer_min(dom, z, v)


def test_scan_at_or_above_brute_outer_ends_where_aligned():
    assert _scan_shortfalls() == []


def test_scan_soundness_check_catches_inner_ends(monkeypatch):
    # a ray_exit that reports the inside end lo of its last bracket: the
    # largest probe its predicate accepted
    exact_exit = geometry.ray_exit

    def inner_end(inside, hi_cap, floor=math.inf):
        accepted = [0.0]

        def recording(t):
            ok = inside(t)
            if ok:
                accepted.append(t)
            return ok
        exact_exit(recording, hi_cap, floor)
        return max(accepted)

    monkeypatch.setattr(geometry, "ray_exit", inner_end)
    assert _scan_shortfalls() == list(ALIGNED_SCAN_CASES)


def _quadric_exact(z, v, a2):
    """(1 - A)|v| / (beta + sqrt(beta^2 + C (1 - A))) on mpmath numbers,
    the exit of the quadric sum |z_j|^2/a2_j < 1."""
    A = mpmath.fsum(abs(c) ** 2 / w for c, w in zip(z, a2))
    C = mpmath.fsum(abs(c) ** 2 / w for c, w in zip(v, a2))
    beta = abs(mpmath.fsum(p * mpmath.conj(c) / w for p, c, w in zip(v, z, a2)))
    norm = mpmath.sqrt(mpmath.fsum(abs(c) ** 2 for c in v))
    return (1 - A) * norm / (beta + mpmath.sqrt(beta ** 2 + C * (1 - A)))


def ellipsoid_directional_exact(dom, z, v):
    """delta(z; v) on a closed-form domain, to 50 digits, from the float
    inputs: the quadric exit on the ellipsoid, the ball and the disc,
    min_j (1 - |z_j|)|v|/|v_j| on the polydisc, and on the window the
    smaller of the base's and the sphere's, the latter at the exact z - c."""
    with mpmath.workdps(50):
        zs = [mpmath.mpc(c.real, c.imag) for c in z]
        vs = [mpmath.mpc(c.real, c.imag) for c in v]
        if isinstance(dom, LocalizedDomain):
            w = [p - mpmath.mpc(c.real, c.imag) for p, c in zip(zs, dom.center)]
            return min(ellipsoid_directional_exact(dom.base, z, v),
                       _quadric_exact(w, vs, [mpmath.mpf(dom.radius) ** 2] * dom.dim))
        if isinstance(dom, Polydisc):
            norm = mpmath.sqrt(mpmath.fsum(abs(c) ** 2 for c in vs))
            return min((1 - abs(c)) * norm / abs(p) for c, p in zip(zs, vs) if p != 0)
        axes = dom.axes if isinstance(dom, Ellipsoid) else [1.0] * dom.dim
        return _quadric_exact(zs, vs, [mpmath.mpf(float(a)) ** 2 for a in axes])


QUADRIC_DOMAINS = {
    "2d": Ellipsoid((1.0, 2.0)),
    "3d": Ellipsoid((1.0, 1.5, 3.0)),
    "disc": Disc(),
    "polydisc2": Polydisc(2),
    "ball2": Ball(2),
    "ball3": Ball(3),
    "window": LocalizedDomain(Ball(2), (0.2 + 0.1j, -0.15j), 0.6),
}


def _ellipsoid_case(dom, w, v, depth):
    """The boundary point of ``dom`` from its centre along w, pulled in by
    ``depth`` of that distance."""
    w = np.asarray(w, dtype=complex)
    w = w / np.linalg.norm(w)
    if isinstance(dom, LocalizedDomain):
        z = dom.center + (1.0 - depth) * dom.radius * w
    elif isinstance(dom, Ellipsoid):
        z = (1.0 - depth) * dom.axes * w
    elif isinstance(dom, Polydisc):
        z = (1.0 - depth) * w / np.max(np.abs(w))
    else:
        z = (1.0 - depth) * w
    return z, np.asarray(v, dtype=complex)


def _ellipsoid_shortfalls(cases):
    """The cases ``(name, z, v)`` of ``QUADRIC_DOMAINS`` whose directional
    distance is below the exact one."""
    out = []
    for name, z, v in cases:
        dom = QUADRIC_DOMAINS[name]
        t = dom.directional_distance(z, v)
        if not mpmath.mpf(t) >= ellipsoid_directional_exact(dom, z, v):
            out.append((name, z, v))
    return out


def _seeded_ellipsoid_cases(count=40):
    rng = np.random.default_rng(17)
    cases = []
    for name, dom in QUADRIC_DOMAINS.items():
        n = dom.dim
        for _ in range(count):
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            z, v = _ellipsoid_case(dom, w, v, 10.0 ** rng.uniform(-12, -1))
            cases.append((name, z, v))
    return cases


@pytest.mark.parametrize("name", list(QUADRIC_DOMAINS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ellipsoid_directional_at_or_above_exact(name, data):
    # every closed form but the half-plane's is the rounded-up quadric
    # exit; no slack against its 50-digit value
    dom = QUADRIC_DOMAINS[name]
    part = st.floats(-1.0, 1.0)
    w = [complex(data.draw(part), data.draw(part)) for _ in range(dom.dim)]
    v = [complex(data.draw(part), data.draw(part)) for _ in range(dom.dim)]
    assume(np.linalg.norm(w) > 1e-3 and np.linalg.norm(v) > 1e-6)
    depth = 10.0 ** data.draw(st.floats(-12.0, -1.0))
    z, v = _ellipsoid_case(dom, w, v, depth)
    assume(dom.contains(z))
    assert _ellipsoid_shortfalls([(name, z, v)]) == []


def test_ellipsoid_directional_seeded_at_or_above_exact():
    assert _ellipsoid_shortfalls(_seeded_ellipsoid_cases()) == []


def test_ellipsoid_soundness_check_catches_a_shrunk_t(monkeypatch):
    # the quadric exit scaled by 1 - 1e-12 falls below the exact value on
    # every domain that reads it
    exact_t = geometry._quadric_exit

    def shrunk(z, v, a2):
        return exact_t(z, v, a2) * (1.0 - 1e-12)

    monkeypatch.setattr(geometry, "_quadric_exit", shrunk)
    caught = {name for name, _, _ in
              _ellipsoid_shortfalls(_seeded_ellipsoid_cases())}
    assert caught == set(QUADRIC_DOMAINS)


def inner_radius_reference(dom, z):
    """OmegaPsi.inner_radius_fast on numpy scalars, the cap term through
    :func:`cap_gap_reference`."""
    arr = np.asarray(z, dtype=complex)
    x1, y1 = arr[0].real, arr[0].imag
    x2, y2 = arr[1].real, arr[1].imag
    gap = x2 - dom._wall(x1, y1, y2)
    if gap <= 0:
        return 0.0
    ga = abs(dom.psi.derivative(abs(x1) + gap))
    gb = 2.0 * dom.chi1 * max(0.0, abs(y1) + gap - 2.0)
    gc = 2.0 * dom.chi2 * (abs(y2) + gap)
    lip = math.sqrt(ga * ga + gb * gb + gc * gc)
    wall_bound = gap / math.sqrt(1.0 + lip * lip)
    return max(0.0, min(cap_gap_reference(dom, arr), wall_bound))


@pytest.mark.parametrize("psi", PSI_PROFILES, ids=PSI_IDS)
@given(data=st.data())
def test_omega_psi_inner_radius_matches_reference(psi, data):
    dom = OmegaPsi(psi)
    x1 = data.draw(st.floats(-1.0, 1.0, allow_subnormal=False))
    y1 = data.draw(st.floats(-2.9, 2.9))
    y2 = data.draw(st.floats(-1.0, 1.0))
    gap = data.draw(st.sampled_from((1e-9, 1e-4, 1e-2, 0.5, 3.0)))
    z = np.array([complex(x1, y1), complex(dom._wall(x1, y1, y2) + gap, y2)])
    if data.draw(st.booleans()):
        # onto the cap sphere, a few ulps of |z| in or out
        scale = _ulps(dom.cap_radius, data.draw(st.integers(-4, 4)))
        z = z * (scale / np.linalg.norm(z))
    assert dom.inner_radius_fast(z).hex() == \
        inner_radius_reference(dom, z).hex()


@pytest.mark.parametrize("psi", PSI_PROFILES, ids=PSI_IDS)
def test_psi_underflows_to_zero_at_tiny_x(psi):
    # exp(-g) underflows long before x^-2 overflows, x*x underflows or 1/x
    # overflows; psi and psi' are 0 there, not an exception or NaN
    for x in (1e-160, 1e-200, 5e-324):
        assert psi.value(x) == 0.0
        assert psi.derivative(x) == 0.0
    dom = OmegaPsi(psi)
    assert dom.boundary_distance(np.array([1e-200 + 0.5j, 0.5 + 0j])) > 0.0


# ---------------------------------------------------------------------------
# the line radius of the generic segment kernel on Omega_psi
# ---------------------------------------------------------------------------


def _line_radius(dom, z, u):
    """The kernel's line radius at z for the unit direction u."""
    q = _unit_bounds(u.view(float).tolist())
    return dom._line_radius(dom._node(z)[1], q)


def _line_disc_problems(dom, z, u, rho, angles=64):
    """What is wrong with {z + zeta*u : |zeta| < rho} as a certified disc of
    the domain in the complex line of u: a sampled point on its rim or
    inside it that ``contains`` rejects, or a radius past the directional
    distance (up to the scan's bisection tolerance)."""
    problems = []
    for scale in (1.0, 0.5):
        for k in range(angles):
            w = z + scale * rho * cmath.exp(2j * math.pi * k / angles) * u
            if not dom.contains(w):
                problems.append(f"{w} at |zeta| = {scale} rho is outside")
    t = dom.directional_distance(z, u)
    if not rho <= t * (1.0 + _RAY_REL_TOL):
        problems.append(f"rho {rho} exceeds the directional distance {t}")
    return problems


@pytest.mark.parametrize("psi", PSI_PROFILES, ids=PSI_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_line_radius_is_a_certified_disc(psi, data):
    dom = OmegaPsi(psi)
    x1 = data.draw(st.floats(-1.0, 1.0, allow_subnormal=False))
    y1 = data.draw(st.floats(-2.6, 2.6))
    y2 = data.draw(st.floats(-0.5, 0.5))
    gap = 10.0 ** data.draw(st.floats(-4.0, math.log10(0.3)))
    z = np.array([complex(x1, y1), complex(dom._wall(x1, y1, y2) + gap, y2)])
    assume(np.linalg.norm(z) < dom.cap_radius - 1e-3)
    # random unit directions, half of them tilted toward the segment's
    # complex line, where the line radius gains most over the inner radius
    w = np.array([data.draw(st.floats(-1.0, 1.0)) for _ in range(4)])
    if data.draw(st.booleans()):
        w[2:] *= 10.0 ** data.draw(st.floats(-4.0, 0.0))
    assume(np.linalg.norm(w) > 1e-3)
    w = w / np.linalg.norm(w)
    u = w[0::2] + 1j * w[1::2]
    rho = _line_radius(dom, z, u)
    assert rho >= dom.inner_radius_fast(z)
    assert _line_disc_problems(dom, z, u, rho) == []


# points above the flat segment with the direction of the segment, where
# the line radius is nearly the directional distance, and with a tilted
# direction, where the r-dependence of the chi and Re w2 terms matters
# (x1, y1, y2, height above the wall)
_LINE_CASES = [(0.0, 0.5, 0.0, 1e-2), (0.0, 0.9, 0.0, 1e-3),
               (0.0, 1.5, 0.0, 1e-3), (0.01, -0.2, 0.01, 0.05)]


@pytest.mark.parametrize("psi", PSI_PROFILES, ids=PSI_IDS)
def test_line_radius_mutants_fail_the_disc_check(psi):
    # the checks of test_line_radius_is_a_certified_disc catch a doubled
    # radius along the segment, and the odd iterate Phi(0) of the guess
    # along a tilted direction, at every case
    dom = OmegaPsi(psi)
    along = np.array([1.0, 0.0], dtype=complex)
    tilted = np.array([1.0, 0.3j]) / math.hypot(1.0, 0.3)
    for x1, y1, y2, gap in _LINE_CASES:
        z = np.array([complex(x1, y1),
                      complex(dom._wall(x1, y1, y2) + gap, y2)])
        rho = _line_radius(dom, z, along)
        assert rho > dom.inner_radius_fast(z)
        assert _line_disc_problems(dom, z, along, rho) == []
        assert _line_disc_problems(dom, z, along, 2.0 * rho) != []
        f, q = dom._node(z)[1], _unit_bounds(tilted.view(float).tolist())
        odd = min(f[5], dom._line_phi(f, q, 0.0))
        rho = _line_radius(dom, z, tilted)
        assert _line_disc_problems(dom, z, tilted, rho) == []
        assert _line_disc_problems(dom, z, tilted, odd) != []


def test_line_radius_only_on_omega_psi():
    # every other domain keeps the node radius, and its kernel's terms
    # make no line-radius call
    for dom in (Ellipsoid((1.0, 2.0)), Ball(2), Polydisc(2),
                LocalizedDomain(OmegaPsi(PSI_PROFILES[0]), [0.5j, 0.3], 0.2)):
        assert not hasattr(dom, "_line_radius")
    dom = OmegaPsi(PSI_PROFILES[0])
    z = np.array([0.5j, 1e-2])
    r, f = dom._node(z)
    assert r == f[0] == dom.inner_radius_fast(z)
