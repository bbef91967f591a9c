"""Geometry queries: membership, boundary/directional distances, minimal bases.

Oracle policy: closed-form values are checked against independent
derivations (frozen constants below); sampled machinery is checked against
brute-force membership-only oracles and against resolution doubling.
"""

import math

import numpy as np
import pytest

from koblab.geometry import (
    AmbiguousProjectionError,
    Ball,
    Disc,
    Ellipsoid,
    GeometryError,
    HalfPlane,
    LocalizedDomain,
    OmegaPsi,
    Polydisc,
    PsiSpec,
    SmoothConvex,
    as_carray,
    domain_from_json,
    from_pairs,
    ray_exit,
    to_pairs,
)


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


def test_smooth_convex_matches_ellipsoid():
    # run the generic sampled machinery on an ellipsoid in disguise and
    # compare with the closed forms; doubling the ray count must not move
    # the answer by more than 1e-6
    axes = np.array([1.0, 2.0])

    def f(z):
        return float(np.sum(np.abs(z) ** 2 / axes**2)) - 1.0

    generic = SmoothConvex(f, dim=2, bounding_radius=2.0, base_point=[0.0, 0.0])
    exact = Ellipsoid(axes)
    z = np.array([0.3 + 0.2j, -0.5 + 0.7j])
    d_generic = generic.boundary_distance(z)
    d_exact = exact.boundary_distance(z)
    assert d_generic == pytest.approx(d_exact, abs=1e-6)

    from koblab.geometry import sampled_boundary_distance

    d_doubled = sampled_boundary_distance(generic, z, n_dirs=256)
    assert abs(d_doubled - d_generic) < 1e-6


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
    radius, seg, _ = domain.segment_kernels()
    if not is_model:
        with pytest.raises(GeometryError):
            domain.exact_metric(x, y - x)
        # the generic kernel is the touching-disc bound at the inner radius
        ra, rb = radius(x), radius(y)
        t = max(ra, rb)
        assert seg(x, y, ra, rb) == math.atanh(float(np.linalg.norm(y - x)) / t)
        return
    # the descent's ratio-form kernel and the log-form closed form are two
    # formulas for the same distance
    rng = np.random.default_rng(20)
    for _ in range(25):
        x, y = _protocol_pair(domain, rng)
        exact = domain.exact_distance(x, y)
        assert seg(x, y, radius(x), radius(y)) == pytest.approx(exact, rel=1e-12)


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


def test_localized_domain_ambiguity():
    # center the window so base boundary and window sphere tie at distinct points
    dom = LocalizedDomain(Ball(2), center=[0.0, 0.0], radius=1.0)
    with pytest.raises(AmbiguousProjectionError):
        dom.nearest_boundary_point([0.0, 0.0])


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


def test_ray_exit_bisection():
    dom = Disc()
    t = ray_exit(dom.contains, np.array([0j]), np.array([1 + 0j]), hi_cap=8.0)
    assert t == pytest.approx(1.0, rel=1e-9)
