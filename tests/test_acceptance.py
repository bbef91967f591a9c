"""Acceptance sweep: one test per shipped guarantee, at stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get exactly one
pass/fail line per guarantee.  Every tolerance below is part of the
package contract, not a tuning knob; none of them is loosened to make a
red test green.  The third clause of guarantee 4 pins the certified
Gromov-product increase over two decades to its closed form
(1/2 - pi/(4c)) * log(100), derived from the half-plane projection
lower bound and the analytic-disc pair upper, and checks that the
certified lower bounds strictly increase.
"""

import json
import math

import numpy as np

from koblab import cli
from koblab.cases import (omega_psi_upper_bound, run_bidisc_case,
                          run_omega_psi_case)
from koblab.diagnostics import (balls_inequality_check, k_point_probe,
                                localization_check)
from koblab.geometry import (Ball, Disc, Ellipsoid, HalfPlane, OmegaPsi,
                             Polydisc, PsiSpec)
from koblab.metric import (ball_distance, disc_distance, distance_bracket,
                           halfplane_hole_distance, polydisc_distance)
from koblab.solver import SolverConfig, solve_geodesic

LIGHT = SolverConfig.light()


def sample_disc(rng):
    return np.array([complex(*rng.uniform(-0.6, 0.6, 2))])


def sample_two(rng):
    return (rng.uniform(-0.5, 0.5, 2) + 1j * rng.uniform(-0.5, 0.5, 2)) * 0.9


def sample_halfplane(rng):
    return np.array([complex(rng.uniform(-2.0, 2.0),
                             rng.uniform(0.05, 3.0))])


def test_criterion_01_model_domain_exactness():
    # solver upper within 1e-3 relative of the closed form on 50 random
    # pairs per model domain; certified lower never exceeds the exact value
    rng = np.random.default_rng(101)
    cases = [
        (Disc(), sample_disc, lambda x, y: disc_distance(x[0], y[0])),
        (Polydisc(2), sample_two, polydisc_distance),
        (Ball(2), sample_two, ball_distance),
    ]
    for dom, sample, closed_form in cases:
        for _ in range(50):
            x, y = sample(rng), sample(rng)
            if np.array_equal(x, y):
                continue
            exact = closed_form(x, y)
            res = solve_geodesic(dom, x, y, LIGHT)
            assert res.distance.upper <= exact * (1 + 1e-3) + 1e-12
            assert res.distance.upper >= exact * (1 - 1e-3) - 1e-12
            assert res.distance.lower <= exact


def test_criterion_02_halfplane_hole_distance():
    # closed form reproduces half the log to machine precision, and a
    # numerical distance-to-circle minimization lands within 2%
    for delta in (1e-1, 1e-2, 1e-3):
        exact = halfplane_hole_distance(delta, 1.0)
        assert exact == -0.5 * math.log(delta)
        assert abs(exact - 0.5 * math.log(1.0 / delta)) \
            <= 4 * math.ulp(exact)
        p = np.array([1j * delta])
        thetas = np.linspace(0.0, math.pi, 183)[1:-1]
        estimate = min(
            distance_bracket(HalfPlane(), p,
                             np.array([complex(math.cos(t),
                                               math.sin(t))])).upper
            for t in thetas)
        assert abs(estimate - exact) <= 0.02 * exact


def test_criterion_03_bidisc_twin_geodesics():
    rep = run_bidisc_case([1e-2, 1e-3, 1e-4])
    assert len(rep.samples) == 3
    log2 = math.log(2.0)
    for s in rep.samples:
        assert s.inputs["length_gap"] <= 1e-12
        assert "equal-lengths" in s.flags
        assert s.inputs["residual_upper"] <= log2 + 0.01
    exponent = rep.fitted_parameters["decay_exponent"]
    assert 0.4 <= exponent <= 0.6


def test_criterion_04_segment_profile_bound_and_product_growth():
    params = OmegaPsi(PsiSpec(form="exp_neg_c_over_x", c=math.pi))
    # certified analytic-disc upper at eps=1e-3, inclusion checked at 256
    # boundary samples inside the call (it raises on any violation)
    bound = omega_psi_upper_bound(params, 1e-3)
    assert abs(bound - 4.1470) <= 1e-3
    # certified Gromov-product lower bounds along the approach
    rep = run_omega_psi_case(params, [1e-1, 1e-2, 1e-3])
    lows = {s.grid_value: s.lower for s in rep.samples}
    increase = lows[1e-3] - lows[1e-1]
    # both lowers k(p_eps, o), k(q_eps, o) come from the half-plane
    # projection onto {Re z2 > 0}, exactly 1/2*log(1/eps) with o = (0, 1);
    # the analytic-disc pair upper is log 2 + (pi/(2c))*log(1/eps).  The
    # product lower is therefore (1/2 - pi/(4c))*log(1/eps) - 1/2*log 2,
    # positive in rate exactly when c > pi/2, and it gains
    # (1/2 - pi/(4c))*log(100) from eps = 1e-1 to eps = 1e-3
    c = params.psi.c
    expected = (0.5 - math.pi / (4 * c)) * math.log(100.0)
    assert abs(increase - expected) <= 1e-9, (
        f"certified Gromov-product increase {increase!r} != closed form "
        f"{expected!r}")
    assert lows[1e-1] < lows[1e-2] < lows[1e-3]
    assert rep.verdict == "consistent"
    assert rep.detail == "product-divergence-trend"
    assert rep.fitted_parameters["n_skipped"] == 0


def test_criterion_05_distance_floor_invariant_sweep():
    # upper(x, y) >= 0.5*|log(delta(y)/delta(x))| with no tolerance, over
    # 1000 random pairs: 250 solver runs each on the bounded models and
    # 250 certified brackets on the half-plane (which the geodesic search
    # declines by contract)
    rng = np.random.default_rng(202)
    violations = 0

    def floor(dom, x, y):
        return 0.5 * abs(math.log(dom.boundary_distance(y) /
                                  dom.boundary_distance(x)))

    for dom, sample in ((Disc(), sample_disc), (Polydisc(2), sample_two),
                        (Ball(2), sample_two)):
        for _ in range(250):
            x, y = sample(rng), sample(rng)
            if np.array_equal(x, y):
                continue
            upper = solve_geodesic(dom, x, y, LIGHT).distance.upper
            if not upper >= floor(dom, x, y):
                violations += 1
    dom = HalfPlane()
    for _ in range(250):
        x, y = sample_halfplane(rng), sample_halfplane(rng)
        if np.array_equal(x, y):
            continue
        if not distance_bracket(dom, x, y).upper >= floor(dom, x, y):
            violations += 1
    assert violations == 0


def test_criterion_06_metric_ball_box_bound():
    # max_j |z_j - q_j| / tau_j < e^{2r} - 1 with positive margin when r
    # is the solver-certified distance upper, 50 pairs across Ball(2)
    # and Polydisc(2)
    rng = np.random.default_rng(303)
    for k in range(50):
        dom = Ball(2) if k % 2 == 0 else Polydisc(2)
        q, z = sample_two(rng) * 0.8, sample_two(rng) * 0.8
        r = solve_geodesic(dom, q, z, LIGHT).distance.upper
        holds, margin = balls_inequality_check(dom, q, z, r)
        assert holds
        assert margin > 0.0


def test_criterion_07_minimal_basis_invariants():
    rng = np.random.default_rng(404)
    domains = (Ball(2), Polydisc(2), Ellipsoid([1.0, 2.0]))
    for dom in domains:
        axes = getattr(dom, "axes", np.ones(2))
        checked = 0
        while checked < 100:
            u = rng.normal(size=2) + 1j * rng.normal(size=2)
            u = u / np.linalg.norm(u) * rng.uniform(0.0, 0.93)
            z = np.asarray(axes, dtype=float) * u
            if not dom.contains(z):
                continue
            basis = dom.minimal_basis(z)
            assert basis.orthonormality_defect() <= 1e-10
            assert np.all(np.diff(basis.taus) >= -1e-14)
            assert abs(basis.taus[0] - dom.boundary_distance(z)) <= 1e-8
            checked += 1


def test_criterion_08_k_point_dichotomy():
    grid = list(np.geomspace(1e-1, 1e-4, 7))
    # spherical boundary point: statistic stays bounded below
    ball = k_point_probe(Ball(2), [1.0, 0.0], 0.3, grid)
    stats = [s.statistic for s in ball.samples]
    at_1em2 = [s.statistic for s in ball.samples
               if abs(s.grid_value - 1e-2) < 1e-15][0]
    assert min(stats) >= at_1em2 - 0.5
    # face point of the bidisc: statistic drops by at least 2 across
    # the grid
    face = k_point_probe(Polydisc(2), [1.0, 0.0], 0.3, grid)
    drop = face.samples[0].statistic - face.samples[-1].statistic
    assert drop >= 2.0


def test_criterion_09_localization_constant():
    rep1 = localization_check(Ball(2), [1.0, 0.0], 0.4, 0.2, 100, seed=9)
    rep2 = localization_check(Ball(2), [1.0, 0.0], 0.4, 0.2, 200, seed=9)
    c1 = rep1.fitted_parameters["C_emp"]
    c2 = rep2.fitted_parameters["C_emp"]
    assert math.isfinite(c1)
    assert math.isfinite(c2)
    assert abs(c2 - c1) < 0.2


def test_criterion_10_reproducible_byte_identical(tmp_path):
    cfg = tmp_path / "disc.json"
    cfg.write_text(json.dumps({"domain": {"kind": "disc"}}))
    args = ["visibility-scan", "--config", str(cfg), "--p", "[[1,0]]",
            "--q", "[[-1,0]]", "--eps", "1e-1,1e-2", "--seed", "17",
            "--reproducible", "--format", "json"]
    out1, out2 = tmp_path / "first", tmp_path / "second"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    blob1 = (out1 / "visibility-scan-run.json").read_bytes()
    blob2 = (out2 / "visibility-scan-run.json").read_bytes()
    assert blob1 == blob2
