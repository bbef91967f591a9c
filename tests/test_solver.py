"""Geodesic solver: accuracy on model domains, certified invariants, and
the bidisc double-geodesic construction."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from koblab.geometry import (Ball, Disc, Ellipsoid, GeometryError, HalfPlane,
                             OmegaPsi, Polydisc, PsiSpec)
from koblab.metric import ball_distance, disc_distance, polydisc_distance
from koblab.solver import (
    GeodesicResult,
    Path,
    SolverConfig,
    bidisc_boundary_geodesic,
    solve_geodesic,
)
from test_rounding import mp_distance

CFG = SolverConfig(control_points=17, max_iter=2000, rel_tol=1e-6)
LIGHT = SolverConfig.light()


def random_ball_point(rng, dim, rmax=0.75):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return v * rng.uniform(0.0, rmax)


def test_solver_config_defaults_and_json():
    cfg = SolverConfig()
    assert cfg.control_points == 65
    assert cfg.max_iter == 5000
    assert cfg.rel_tol == 1e-6
    blob = json.dumps(cfg.to_json())
    again = SolverConfig.from_json(json.loads(blob))
    assert again == cfg


def test_solver_config_validation():
    with pytest.raises(GeometryError):
        SolverConfig(control_points=1)
    with pytest.raises(GeometryError):
        SolverConfig(rel_tol=0.0)
    with pytest.raises(GeometryError):
        SolverConfig(max_iter=0)
    assert SolverConfig(rel_tol=0.5).rel_tol == 0.5


@pytest.mark.parametrize("field, value", [
    ("rel_tol", 0.5000000000000001), ("rel_tol", 2.0), ("rel_tol", math.inf),
    ("rel_tol", math.nan), ("max_iter", math.nan), ("max_iter", math.inf),
    ("control_points", math.nan), ("control_points", math.inf)])
def test_solver_config_rejects_settings_that_run_no_descent(field, value):
    # above rel_tol 0.5 the first step, half the path's scale, is already
    # below the final one, so the solve would report the straight chord
    # as converged; a nan count passed the old checks and crashed the solve
    with pytest.raises(GeometryError):
        SolverConfig(**{field: value})
    with pytest.raises(GeometryError):
        SolverConfig.from_json({field: value})


def test_disc_segment_example():
    exact = math.atanh(0.5)  # 0.5493061443340549
    res = solve_geodesic(Disc(), [0.0], [0.5], CFG)
    assert res.distance.contains(exact)
    assert abs(res.distance.upper - exact) < 1e-3
    assert res.converged


def test_disc_generic_pair_tight():
    x, y = 0.3 + 0.5j, -0.6 + 0.1j
    exact = disc_distance(x, y)
    res = solve_geodesic(Disc(), [x], [y], CFG)
    assert res.distance.lower <= exact + 1e-12
    assert exact <= res.distance.upper + 1e-12
    assert abs(res.distance.upper - exact) / exact < 1e-6


def test_polydisc_example():
    exact = polydisc_distance(np.array([0.8, 0.0]), np.array([0.0, 0.8]))
    assert abs(exact - 1.0986122886681098) < 1e-12
    res = solve_geodesic(Polydisc(2), [0.8, 0.0], [0.0, 0.8], CFG)
    assert abs(res.distance.upper - exact) / exact < 1e-3
    assert res.distance.lower <= exact + 1e-12


def test_ball_pair_tight():
    x = np.array([0.5 + 0.2j, -0.1])
    y = np.array([-0.3, 0.4j])
    exact = ball_distance(x, y)
    res = solve_geodesic(Ball(2), x, y, CFG)
    assert abs(res.distance.upper - exact) / exact < 1e-6
    assert res.distance.lower <= exact + 1e-12


def test_same_point_trivial():
    for domain, pt in ((Disc(), [0.25j]), (Ball(2), [0.1, 0.2]),
                       (HalfPlane(), [1j])):
        res = solve_geodesic(domain, pt, pt, CFG)
        assert res.distance.as_tuple() == (0.0, 0.0)
        assert res.path.points.shape[0] == 1
        assert res.converged
        assert res.min_boundary_distance == res.max_boundary_distance


def test_exterior_endpoint_rejected():
    with pytest.raises(GeometryError):
        solve_geodesic(Disc(), [0.0], [1.5], CFG)
    with pytest.raises(GeometryError):
        solve_geodesic(Ball(2), [1.0, 1.0], [0.0, 0.0], CFG)


def test_near_boundary_endpoint_rejected():
    with pytest.raises(GeometryError):
        solve_geodesic(Disc(), [0.0], [1.0 - 1e-9], CFG)


def test_unbounded_domain_refused():
    with pytest.raises(GeometryError):
        solve_geodesic(HalfPlane(), [1j], [2j], CFG)


def test_soundness_sweep_models():
    rng = np.random.default_rng(20260801)
    cases = []
    for _ in range(25):
        cases.append((Disc(), random_ball_point(rng, 1), random_ball_point(rng, 1),
                      lambda a, b: disc_distance(a[0], b[0])))
        cases.append((Polydisc(2), rng.uniform(-0.6, 0.6, 2) + 1j * rng.uniform(-0.6, 0.6, 2),
                      rng.uniform(-0.6, 0.6, 2) + 1j * rng.uniform(-0.6, 0.6, 2),
                      polydisc_distance))
        cases.append((Ball(2), random_ball_point(rng, 2), random_ball_point(rng, 2),
                      ball_distance))
    for domain, x, y, oracle in cases:
        res = solve_geodesic(domain, x, y, LIGHT)
        assert res.distance.lower <= oracle(x, y) + 1e-12
        assert mp_distance(domain, x, y) <= res.distance.upper


def test_exhausted_sweep_budget_is_not_converged():
    # between two polydisc faces the light solver runs out of its 400
    # sweeps before the step settles, so it must not claim convergence
    x = [0.9999, 0.4j]
    y = [0.35103302 + 0.19177022j, 0.54014022 - 0.84121854j]
    res = solve_geodesic(Polydisc(2), x, y, LIGHT)
    assert res.iterations == LIGHT.max_iter
    assert not res.converged
    assert res.distance.contains(polydisc_distance(x, y))


def test_default_ellipsoid_solve_converges_within_budget():
    # the sweeps at a fine step gain little here; before the step halved on
    # too small a gain, this solve crawled through 3596 of its 5000 sweeps
    res = solve_geodesic(Ellipsoid([1.0, 2.0]), [0.7j, 0.2], [-0.7, 0.0],
                         SolverConfig())
    assert res.converged
    assert res.iterations < SolverConfig().max_iter


def test_upper_improves_with_budget():
    rng = np.random.default_rng(5)
    loose = SolverConfig(control_points=9, max_iter=200, rel_tol=1e-3)
    tight = SolverConfig(control_points=17, max_iter=2000, rel_tol=1e-6)
    for _ in range(5):
        x, y = random_ball_point(rng, 2), random_ball_point(rng, 2)
        up_loose = solve_geodesic(Ball(2), x, y, loose).distance.upper
        up_tight = solve_geodesic(Ball(2), x, y, tight).distance.upper
        assert up_tight <= up_loose + 1e-12


def test_symmetry_of_uppers():
    rng = np.random.default_rng(6)
    for _ in range(5):
        x, y = random_ball_point(rng, 2), random_ball_point(rng, 2)
        a = solve_geodesic(Ball(2), x, y, CFG).distance.upper
        b = solve_geodesic(Ball(2), y, x, CFG).distance.upper
        assert abs(a - b) <= 2.0 * CFG.rel_tol * max(1.0, a)


def test_triangle_inequality_on_uppers():
    rng = np.random.default_rng(7)
    for _ in range(5):
        x, y, z = (random_ball_point(rng, 1), random_ball_point(rng, 1),
                   random_ball_point(rng, 1))
        uxz = solve_geodesic(Disc(), x, z, LIGHT).distance.upper
        uxy = solve_geodesic(Disc(), x, y, LIGHT).distance.upper
        uyz = solve_geodesic(Disc(), y, z, LIGHT).distance.upper
        assert uxz <= uxy + uyz + 3.0 * LIGHT.rel_tol


def test_boundary_distance_ratio_never_violated():
    # upper(x,y) >= half |log(delta(y)/delta(x))|, exact inequality
    rng = np.random.default_rng(8)
    domains = [Disc(), Polydisc(2), Ball(2)]
    for k in range(60):
        domain = domains[k % 3]
        dim = domain.dim
        x = random_ball_point(rng, dim, 0.9 if dim == 1 else 0.6)
        y = random_ball_point(rng, dim, 0.9 if dim == 1 else 0.6)
        if np.array_equal(x, y):
            continue
        res = solve_geodesic(domain, x, y, LIGHT)
        ratio = 0.5 * abs(math.log(domain.boundary_distance(y) /
                                   domain.boundary_distance(x)))
        assert res.distance.upper >= ratio


def test_result_path_structure():
    res = solve_geodesic(Ball(2), [0.5, 0.0], [0.0, 0.5j], CFG)
    pts = res.path.points
    for j in range(pts.shape[0] - 1):
        assert not np.array_equal(pts[j], pts[j + 1])
        assert Ball(2).contains(pts[j])
    assert abs(res.path.upper_length - res.distance.upper) < 1e-12
    assert res.path.lower_length >= res.distance.lower - 1e-12
    blob = json.dumps(res.to_json())
    parsed = json.loads(blob)
    assert parsed["converged"] is True
    assert len(parsed["points"]) == pts.shape[0]
    assert len(parsed["points"][0]) == 2


def test_path_validation():
    with pytest.raises(GeometryError):
        Path(points=np.array([[0.0], [0.0]], dtype=complex), domain=Disc(),
             segment_brackets=[None])
    with pytest.raises(GeometryError):
        Path(points=np.array([[0.0], [2.0]], dtype=complex), domain=Disc(),
             segment_brackets=[None])


def test_bidisc_equal_lengths_machine_precision():
    for eps in (1e-2, 1e-3, 1e-4):
        p1, p2 = bidisc_boundary_geodesic(eps)
        exact = disc_distance(-1.0 + eps, 1.0 - eps)
        assert abs(p1.upper_length - p2.upper_length) < 1e-12
        assert abs(p1.upper_length - exact) < 1e-12
        c = p2.meta["c"]
        assert c >= 1.1
        # the construction's gate inequality
        r = math.sqrt(eps)
        assert disc_distance(0.0, 1.0 - r) < disc_distance(1.0 - eps, 1.0 - c * r)
        assert max(p2.boundary_distances()) <= c * r + 1e-12
        dom = Polydisc(2)
        for pt in p2.points:
            assert dom.contains(pt)
        assert np.allclose(p1.points[0], [-1.0 + eps, 0.0])
        assert np.allclose(p1.points[-1], [1.0 - eps, 0.0])


def test_bidisc_lengths_value_example():
    p1, _ = bidisc_boundary_geodesic(1e-4)
    assert abs(p1.upper_length - disc_distance(-0.9999, 0.9999)) < 1e-12
    assert abs(p1.upper_length - 2.0 * math.atanh(0.9999)) < 1e-14
    assert abs(p1.upper_length - 9.903437551286196) < 1e-10


def test_bidisc_boundary_distance_scaling():
    _, p_coarse = bidisc_boundary_geodesic(1e-2)
    _, p_fine = bidisc_boundary_geodesic(1e-4)
    ratio = max(p_coarse.boundary_distances()) / max(p_fine.boundary_distances())
    assert 7.0 < ratio < 13.0  # ~ sqrt(1e-4/1e-2)^-1 = 10


def test_bidisc_epsilon_validation():
    with pytest.raises(GeometryError):
        bidisc_boundary_geodesic(0.02)
    with pytest.raises(GeometryError):
        bidisc_boundary_geodesic(0.0)


def test_solver_on_ellipsoid_brackets_ordered():
    e = Ellipsoid([1.0, 0.5])
    res = solve_geodesic(e, [0.2, 0.1j], [-0.3, -0.05],
                         SolverConfig(control_points=9, max_iter=300, rel_tol=1e-4))
    assert 0.0 < res.distance.lower <= res.distance.upper
    assert res.min_boundary_distance > 0.0
    assert res.max_boundary_distance >= res.min_boundary_distance


# ---------------------------------------------------------------------------
# pinned trajectories and the polydisc's per-coordinate terms
# ---------------------------------------------------------------------------

# (domain, x, y, config name, lower hex, upper hex, iterations, converged).
# Every kernel or descent edit that moves the descent's path, by a single
# bit anywhere, changes these; CHANGES.md lists each re-recorded pin.  In
# the default Ellipsoid solve every sweep that moves gains more than
# rel_tol/100 of the drive, so the step rule for small gains never fires
# there, and the pin checks the descent apart from that rule.
GOLDEN = (
    (Disc(), [0.3 + 0.5j], [-0.6 + 0.1j], "light",
     "0x1.6e6462a3a7575p-1", "0x1.35b8aa68c6c73p+0", 38, True),
    (Disc(), [0.3 + 0.5j], [-0.6 + 0.1j], "default",
     "0x1.6e6462a3a7575p-1", "0x1.35b8a80540fefp+0", 95, True),
    (Polydisc(2), [0.5 + 0.2j, -0.3j], [-0.4, 0.6 + 0.1j], "light",
     "0x1.1a2d9e2306c6ep-1", "0x1.03135a227e1b8p+0", 43, True),
    (Polydisc(2), [0.5 + 0.2j, -0.3j], [-0.4, 0.6 + 0.1j], "default",
     "0x1.1a2d9e2306c6ep-1", "0x1.0313588cc1b29p+0", 115, True),
    (Polydisc(3), [0.1j, 0.5, -0.2 + 0.3j], [0.7, -0.2j, 0.6 - 0.1j], "light",
     "0x1.37030b8cc9354p-1", "0x1.056b67f3b9fdap+0", 49, True),
    (Polydisc(3), [0.1j, 0.5, -0.2 + 0.3j], [0.7, -0.2j, 0.6 - 0.1j],
     "default", "0x1.37030b8cc9354p-1", "0x1.056b6534b7666p+0", 139, True),
    (Ball(2), [0.5 + 0.2j, -0.1], [-0.3, 0.4j], "light",
     "0x1.0954e6ee736f3p-1", "0x1.096c2f67ae68cp+0", 25, True),
    (Ball(2), [0.5 + 0.2j, -0.1], [-0.3, 0.4j], "default",
     "0x1.0954e6ee736f3p-1", "0x1.096c270848cf5p+0", 70, True),
    (Ball(3), [0.7 + 0.2j, -0.3, 0.2j], [-0.5, 0.6j, 0.3 - 0.2j], "light",
     "0x1.348b25f058bd7p+0", "0x1.1d4d5121add90p+1", 40, True),
    (Ball(3), [0.7 + 0.2j, -0.3, 0.2j], [-0.5, 0.6j, 0.3 - 0.2j], "default",
     "0x1.348b25f058bd7p+0", "0x1.1d4d33405890bp+1", 116, True),
    # the generic touching-disc kernel, on Omega_psi with its line radius
    (Ellipsoid([1.0, 2.0]), [0.1, 0.3j], [0.5 + 0.2j, -0.9], "light",
     "0x1.1afaca9cff934p-1", "0x1.b4eacdd9b5601p+0", 103, True),
    (Ellipsoid([1.0, 2.0]), [0.5, 0.5], [-0.5, -0.5], "default",
     "0x1.994d489e4488ep-1", "0x1.cb303713f7d8cp+0", 148, True),
    (OmegaPsi(PsiSpec("exp_neg_c_over_x")), [0.2 + 0.5j, 0.5],
     [-0.5j, 0.2 + 0.1j], "light",
     "0x1.ff74425c9855cp-2", "0x1.09b3b217dc453p+1", 375, True),
)
CONFIGS = {"light": SolverConfig.light(), "default": SolverConfig()}


@pytest.mark.parametrize(
    "domain, x, y, cfg, lower, upper, iterations, converged", GOLDEN,
    ids=[f"{type(g[0]).__name__}{g[0].dim}-{g[3]}" for g in GOLDEN])
def test_solver_outputs_pinned_bit_for_bit(domain, x, y, cfg, lower, upper,
                                           iterations, converged):
    res = solve_geodesic(domain, np.array(x, dtype=complex),
                         np.array(y, dtype=complex), CONFIGS[cfg])
    assert res.distance.lower.hex() == lower
    assert res.distance.upper.hex() == upper
    assert res.iterations == iterations
    assert res.converged is converged


# interior disc points at depths 1e-12 to 1
disc_points = st.builds(lambda e, t: (1.0 - 10.0 ** e) * cmath.exp(1j * t),
                        st.floats(-12.0, 0.0), st.floats(0.0, 2 * math.pi))


# a moved coordinate anywhere from the origin to twice the unit modulus:
# inside at depths 1e-12 to 1, or outside by 1e-12 to 1
moved_coordinates = st.builds(
    lambda e, t, out: (1.0 + (10.0 ** e if out else -10.0 ** e))
    * cmath.exp(1j * t),
    st.floats(-12.0, 0.0), st.floats(0.0, 2 * math.pi), st.booleans())


def _hexes(values):
    return [v.hex() for v in values]


def _node_hexes(node):
    r, f = node
    return r.hex(), _hexes(f if isinstance(f, list) else [f])


def _slot_kernel_mismatches(domain, a, b, slot, value):
    """Where the descent's per-slot kernels differ from the full ones, by
    hex: coordinate ``slot`` of one endpoint of the interior segment [a, b]
    moves to ``value``, and the per-slot node (given the endpoint's factor)
    must be the moved point's full node, radius and factor, also where the
    radius is <= 0; where it is > 0 the per-slot terms (given the segment's
    terms T) must be the full terms, and T must stay as it was."""
    node, terms = domain._node, domain._terms
    (_, fa), (_, fb) = node(a), node(b)
    T = terms(a, b, fa, fb)
    before = _hexes(T)
    bad = []
    for end, f in (("a", fa), ("b", fb)):
        c = list(a if end == "a" else b)
        c[slot] = value
        rc, fc = node(c)
        if _node_hexes(node(c, f, slot)) != _node_hexes((rc, fc)):
            bad.append(f"node of the moved {end}")
        if rc > 0.0:
            ends = (c, b, fc, fb) if end == "a" else (a, c, fa, fc)
            if _hexes(terms(*ends, T, slot)) != _hexes(terms(*ends)):
                bad.append(f"terms with {end} moved")
    if _hexes(T) != before:
        bad.append("T was changed")
    return bad


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
def test_polydisc_single_slot_update_matches_full_terms(n, data):
    dom = Polydisc(n)
    node, terms = dom._node, dom._terms
    x, y = (np.array(data.draw(st.lists(disc_points, min_size=n, max_size=n)))
            for _ in range(2))
    a, b = x.tolist(), y.tolist()
    (ra, fa), (rb, fb) = node(a), node(b)
    assume(min(ra, rb) > 0.0)
    T = terms(a, b, fa, fb)
    # the reductions are the closed form and the norm of the disc distances
    assert max(T).hex() == polydisc_distance(x, y).hex()
    assert math.hypot(*T).hex() == math.hypot(
        *[disc_distance(p, q) for p, q in zip(x, y)]).hex()
    # a move of one coordinate of either endpoint, in or out of the domain
    slot = data.draw(st.integers(0, n - 1))
    assert _slot_kernel_mismatches(dom, a, b, slot,
                                   data.draw(moved_coordinates)) == []


def _ball_point(n):
    """Interior points of the unit ball in C^n at depths 1e-12 to 1."""
    direction = st.lists(st.floats(-1.0, 1.0), min_size=2 * n,
                         max_size=2 * n).filter(lambda v: max(map(abs, v)) > 0.1)

    def build(e, v):
        z = np.array(v[:n]) + 1j * np.array(v[n:])
        return (1.0 - 10.0 ** e) * z / np.linalg.norm(z)
    return st.builds(build, st.floats(-12.0, 0.0), direction)


KERNEL_MODELS = [Disc(), Polydisc(1), Polydisc(2), Polydisc(3), Ball(2),
                 Ball(3)]


@pytest.mark.parametrize("domain", KERNEL_MODELS,
                         ids=[f"{type(d).__name__}{d.dim}" for d in KERNEL_MODELS])
@given(data=st.data())
def test_model_kernel_factors_and_terms(domain, data):
    n = domain.dim
    points = (_ball_point(n) if isinstance(domain, Ball) else
              st.lists(disc_points, min_size=n, max_size=n).map(np.array))
    node, terms = domain._node, domain._terms
    x, y = data.draw(points), data.draw(points)
    a, b = x.tolist(), y.tolist()
    (ra, fa), (rb, fb) = node(a), node(b)
    # a positive radius certifies every factor the terms divide by
    for r, f in ((ra, fa), (rb, fb)):
        if r > 0.0:
            assert min(np.atleast_1d(f)) > 0.0
    assume(min(ra, rb) > 0.0)
    # the kernel's upper is the closed form, bit for bit
    T = terms(a, b, fa, fb)
    assert max(T).hex() == domain.exact_distance(x, y).hex()
    # a move of one coordinate of either endpoint, which on the ball or the
    # polydisc may take it out: the per-slot kernels are the full ones
    slot = data.draw(st.integers(0, n - 1))
    assert _slot_kernel_mismatches(domain, a, b, slot,
                                   data.draw(moved_coordinates)) == []


def test_slot_node_mutant_fails_the_kernel_identity(monkeypatch):
    # a per-slot polydisc node that reads only the moved coordinate's
    # modulus for its radius breaks the identity wherever an unmoved
    # coordinate holds the max.  The solver pins do not catch it (every
    # GOLDEN pin keeps its bits under it): the descent compares that
    # radius only with the margin 1e-9 sqrt(n), and the unmoved
    # coordinates of a probe are those of an accepted point, which
    # already clear it
    full = Polydisc._node

    def mutant(self, z, f=None, slot=0):
        if f is None:
            return full(self, z)
        f = f.copy()
        r = abs(z[slot])
        f[slot] = 1.0 - r ** 2
        return 1.0 - r, f

    dom = Polydisc(2)
    a, b = [0.9 + 0.1j, 0.2j], [0.5, -0.3 + 0.1j]
    assert _slot_kernel_mismatches(dom, a, b, 1, 0.4) == []
    monkeypatch.setattr(Polydisc, "_node", mutant)
    # |0.9 + 0.1i| and 0.5 hold the max of the moved a and b
    assert _slot_kernel_mismatches(dom, a, b, 1, 0.4) == [
        "node of the moved a", "node of the moved b"]
