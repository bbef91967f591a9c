"""Geodesic solver: accuracy on model domains, certified invariants, and
the bidisc double-geodesic construction."""

import json
import math

import numpy as np
import pytest

from koblab.geometry import Ball, Disc, Ellipsoid, GeometryError, HalfPlane, Polydisc
from koblab.metric import ball_distance, disc_distance, polydisc_distance, segment_upper
from koblab.solver import (
    GeodesicResult,
    Path,
    SolverConfig,
    bidisc_boundary_geodesic,
    path_length,
    refine_path,
    solve_geodesic,
    straight_path,
)

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
        exact = oracle(x, y)
        assert res.distance.lower <= exact + 1e-12
        assert exact <= res.distance.upper + 1e-12


def test_exhausted_sweep_budget_is_not_converged():
    # between two polydisc faces the light solver runs out of its 400
    # sweeps before the step settles, so it must not claim convergence
    x = [0.9999, 0.4j]
    y = [0.35103302 + 0.19177022j, 0.54014022 - 0.84121854j]
    res = solve_geodesic(Polydisc(2), x, y, LIGHT)
    assert res.iterations == LIGHT.max_iter
    assert not res.converged
    assert res.distance.contains(polydisc_distance(x, y))


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


def test_path_length_halfplane_exact_metric():
    # on the half-plane the bracket lower side IS the metric |X|/(2 Im z)
    h = HalfPlane()
    path = straight_path(h, [1j], [2j], 513)
    val = path_length(h, path, "lower")
    assert abs(val - 0.5 * math.log(2.0)) < 1e-5
    assert abs(val - 0.3465736) < 1e-5
    doubled = path_length(h, refine_path(path), "lower")
    assert abs(doubled - val) < 1e-6


def test_path_length_disc_upper_overestimates():
    d = Disc()
    path = straight_path(d, [0.0], [0.5], 257)
    val = path_length(d, path, "upper")
    assert val >= 0.5493
    # the upper side integrates |X|/(1-|z|): integral log 2
    assert abs(val - math.log(2.0)) < 1e-3


def test_path_length_doubling_stable_on_models():
    b = Ball(2)
    path = straight_path(b, [0.3, 0.1], [-0.2, 0.25j], 513)
    for side in ("lower", "upper"):
        v1 = path_length(b, path, side)
        v2 = path_length(b, refine_path(path), side)
        assert abs(v2 - v1) < 1e-6


def test_path_length_single_point_and_validation():
    d = Disc()
    single = Path(points=np.array([[0.2]], dtype=complex), domain=d,
                  segment_brackets=[])
    assert path_length(d, single, "upper") == 0.0
    assert path_length(d, single, "lower") == 0.0
    path = straight_path(d, [0.0], [0.5], 9)
    with pytest.raises(GeometryError):
        path_length(d, path, "middle")


def test_segment_upper_matches_path_brackets():
    d = Disc()
    path = straight_path(d, [0.0], [0.5], 9)
    for j, br in enumerate(path.segment_brackets):
        a, b = path.points[j], path.points[j + 1]
        assert abs(br.upper - segment_upper(d, a, b)) < 1e-12


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
