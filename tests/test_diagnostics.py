"""Probe suite: products, residuals, scans, fits, and report plumbing.

Frozen oracle values come from closed-form model distances (artanh
identities) worked out independently next to each assertion; verdicts are
pinned only where the probe's contract makes them deterministic.
"""

import json
import math

import numpy as np
import pytest

from koblab.diagnostics import (
    REPORT_SCHEMA,
    ProbeReport,
    ProbeSample,
    SignedBracket,
    balls_inequality_check,
    goldilocks_probe,
    gromov_product,
    growth_fit,
    k_point_probe,
    localization_check,
    log_estimate_residual,
    sameheight_scaling,
    visibility_scan,
)
from koblab.geometry import (
    Ball,
    Disc,
    GeometryError,
    HalfPlane,
    OmegaPsi,
    Polydisc,
    PsiSpec,
)
from koblab.metric import MetricBracket
from koblab.solver import bidisc_boundary_geodesic


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_signed_bracket_validation():
    b = SignedBracket(-1.5, -0.5)
    assert b.width == pytest.approx(1.0)
    assert b.contains(-1.0) and not b.contains(0.0)
    assert b.as_tuple() == (-1.5, -0.5)
    with pytest.raises(GeometryError):
        SignedBracket(0.5, -0.5)


def test_probe_report_verdict_vocabulary():
    with pytest.raises(GeometryError):
        ProbeReport("x", [], [], {}, "maybe")
    rep = ProbeReport("x", [1.0], [], {}, "inconclusive")
    assert rep.verdict == "inconclusive"


def test_report_json_and_csv_round_trip():
    s1 = ProbeSample(0.1, 1.0, 2.0, 1.5, ("tagged",), {"k": 3})
    s2 = ProbeSample(0.01, -1.0, None, -1.0)
    rep = ProbeReport("demo", [0.1, 0.01], [s1, s2], {"alpha": 0.5},
                      "consistent", "demo-detail", ["note"])
    blob = rep.to_json()
    assert blob["schema"] == REPORT_SCHEMA == "koblab-report/1"
    assert blob["samples"][1]["upper"] is None
    # the whole report must be JSON-serializable as-is
    text = json.dumps(blob, sort_keys=True)
    assert "demo-detail" in text

    csv = rep.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "grid,lower,upper,statistic,flags"
    assert lines[1].split(",")[0] == "%.17g" % 0.1
    assert lines[1].endswith("tagged")
    assert "nan" in lines[2]


# ---------------------------------------------------------------------------
# gromov products
# ---------------------------------------------------------------------------


def test_gromov_product_trivial_same_point():
    g = gromov_product(Disc(), [0.0], [0.0], [0.0])
    assert g.lower == 0.0 and g.upper == 0.0


def test_gromov_product_disc_diameter_is_zero():
    # o=0 lies on the geodesic through ±0.9, so the product vanishes
    g = gromov_product(Disc(), [0.9], [-0.9], [0.0])
    assert g.lower <= 1e-12 and g.upper <= 1e-12


def test_gromov_product_polydisc_equal_rates_is_zero():
    # both coordinate pairs diverge at the same rate: k(x,y) = 2 artanh 0.99
    # = k(x,o) + k(o,y) exactly, so the product collapses to 0
    g = gromov_product(Polydisc(2), [0.99, 0.99], [0.99, -0.99], [0.0, 0.0])
    assert 0.0 <= g.lower <= g.upper <= 1e-12


def test_gromov_product_polydisc_face_divergence():
    # x=(0.99, 0.5), y=(0.99, -0.5): k(x,o)=k(y,o)=artanh(0.99) while
    # k(x,y)=2 artanh(0.5), so the product is artanh(0.99) - artanh(0.5)
    g = gromov_product(Polydisc(2), [0.99, 0.5], [0.99, -0.5], [0.0, 0.0])
    expect = math.atanh(0.99) - math.atanh(0.5)
    assert g.lower == pytest.approx(expect, abs=1e-12)
    assert g.upper == pytest.approx(expect, abs=1e-12)
    assert g.lower > 2.0


def test_gromov_product_face_divergence_trend():
    # the same construction diverges as the first coordinate approaches 1
    values = []
    for eps in (1e-1, 1e-2, 1e-3):
        g = gromov_product(Polydisc(2), [1 - eps, 0.5], [1 - eps, -0.5],
                           [0.0, 0.0])
        values.append(g.lower)
    assert values[0] < values[1] < values[2]
    # the product is artanh(1-eps) - artanh(0.5), so the two-decade gain
    # is artanh(0.999) - artanh(0.9) (~ log 10 up to the (2-eps)/2 factors)
    assert values[2] - values[0] == pytest.approx(
        math.atanh(0.999) - math.atanh(0.9), abs=1e-12)


def test_gromov_product_interior_precondition():
    with pytest.raises(GeometryError):
        gromov_product(Disc(), [1.0], [0.0], [0.0])


def test_gromov_product_base_point_stability():
    # |(x|y)_o - (x|y)_o'| <= k(o,o'): widened brackets must overlap
    P = Polydisc(2)
    x, y = [0.99, 0.5], [0.99, -0.5]
    o1, o2 = [0.0, 0.0], [0.3, 0.1j]
    g1 = gromov_product(P, x, y, o1)
    g2 = gromov_product(P, x, y, o2)
    shift = max(math.atanh(0.3), math.atanh(0.1))  # k(o1,o2) on the polydisc
    assert g1.lower - shift <= g2.upper + 1e-12
    assert g2.lower - shift <= g1.upper + 1e-12


# ---------------------------------------------------------------------------
# log-estimate residuals
# ---------------------------------------------------------------------------


def test_residual_same_point_at_unit_depth():
    # x=y at the disc center: both logs are log(1/1)=0 and k=0
    r = log_estimate_residual(Disc(), [0.0], [0.0])
    assert r.lower == 0.0 and r.upper == 0.0


def test_residual_polydisc_antipodal_pair():
    # delta = eps on both sides, k = 2 artanh(1-eps) = log((2-eps)/eps),
    # so the residual is exactly -log(2-eps)
    eps = 1e-3
    r = log_estimate_residual(Polydisc(2), [1 - eps, 0.0], [-(1 - eps), 0.0])
    assert r.upper == pytest.approx(-math.log(2.0 - eps), abs=1e-12)
    assert r.upper <= math.log(2.0) + 0.01
    assert r.lower == pytest.approx(r.upper, abs=1e-12)


def test_residual_upper_identity_is_exact():
    # upper = 1/2 log(1/delta_x) + 1/2 log(1/delta_y) - k.lower, bit-exact
    D = Ball(2)
    x, y = np.array([0.3, 0.1j]), np.array([-0.2, 0.4])
    r = log_estimate_residual(D, x, y)
    k = gromov_product  # noqa: F841  (kept out of the identity on purpose)
    from koblab.metric import distance_bracket
    kb = distance_bracket(D, x, y)
    expect = (0.5 * math.log(1.0 / D.boundary_distance(x))
              + 0.5 * math.log(1.0 / D.boundary_distance(y)) - kb.lower)
    assert r.upper == expect


def test_residual_with_external_bracket_diverges_near_segment():
    # points above two segment endpoints; the analytic upper bound
    # log 2 + 1/2 log(1/eps) forces residual lower ~ 1/2 log(1/eps) - log 2
    psi = PsiSpec("exp_neg_c_over_x", c=math.pi)
    Om = OmegaPsi(psi)
    eps = 1e-3
    p = np.array([1j, eps], dtype=complex)
    q = np.array([-1j, eps], dtype=complex)
    kb = MetricBracket(0.0, math.log(2.0) + 0.5 * math.log(1.0 / eps))
    r = log_estimate_residual(Om, p, q, k_bracket=kb)
    assert r.lower >= 2.5
    assert r.lower == pytest.approx(
        math.log(1.0 / eps) - kb.upper, abs=1e-6)


def test_residual_interior_precondition():
    with pytest.raises(GeometryError):
        log_estimate_residual(Disc(), [1.0], [0.5])


# ---------------------------------------------------------------------------
# visibility scans
# ---------------------------------------------------------------------------


def test_visibility_scan_ball_floor():
    # antipodal approach in the ball: every geodesic runs through the
    # center, so the max boundary distance sits at 1 for every eps
    grid = list(np.geomspace(1e-1, 1e-4, 5))
    rep = visibility_scan(Ball(2), [1.0, 0.0], [-1.0, 0.0], grid)
    assert rep.verdict == "consistent"
    assert rep.detail == "consistent-with-visibility"
    assert rep.fitted_parameters["floor"] >= 0.5
    assert any("compact set" in n for n in rep.notes)
    assert any(n == "approach=normal" for n in rep.notes)


def test_visibility_scan_polydisc_boundary_path_decay():
    # the three-leg construction hugs the face; its depth decays like
    # c*sqrt(eps), so the fitted exponent lands at 0.5 +- 0.1
    grid = list(np.geomspace(1e-2, 1e-4, 7))

    def supplier(eps):
        return bidisc_boundary_geodesic(eps)[1]

    rep = visibility_scan(Polydisc(2), [-1.0, 0.0], [1.0, 0.0], grid,
                          path_supplier=supplier)
    assert rep.verdict == "consistent"
    assert rep.detail == "consistent-with-failure"
    assert abs(rep.fitted_parameters["exponent"] - 0.5) <= 0.1
    assert all(s.flags == ("supplied-path",) for s in rep.samples)
    # supplied-path samples carry the certified path-length bracket
    assert all(s.lower <= s.upper for s in rep.samples)


def test_visibility_scan_single_sample_inconclusive():
    rep = visibility_scan(Ball(2), [1.0, 0.0], [-1.0, 0.0], [1e-2])
    assert rep.verdict == "inconclusive"
    assert rep.detail == "single-sample"


def test_visibility_scan_custom_approach():
    p, q = np.array([1.0, 0.0]), np.array([-1.0, 0.0])

    def approach(eps):
        return p * (1 - eps), q * (1 - eps)

    rep = visibility_scan(Ball(2), p, q, [1e-1, 1e-2], approach=approach)
    assert any(n == "approach=custom" for n in rep.notes)
    assert rep.samples[0].statistic == pytest.approx(1.0, abs=1e-9)


def test_visibility_scan_argument_validation():
    B = Ball(2)
    with pytest.raises(GeometryError):
        visibility_scan(B, [1.0, 0.0], [1.0, 0.0], [1e-2])
    with pytest.raises(GeometryError):
        visibility_scan(B, [1.0, 0.0], [-1.0, 0.0], [])
    with pytest.raises(GeometryError):
        visibility_scan(B, [1.0, 0.0], [-1.0, 0.0], [0.0, 1e-2])
    with pytest.raises(GeometryError):
        visibility_scan(B, [1.0, 0.0], [-1.0, 0.0], [1e-2],
                        approach="sideways")
    with pytest.raises(GeometryError):
        # custom approach that leaves the domain
        visibility_scan(B, [1.0, 0.0], [-1.0, 0.0], [1e-2],
                        approach=lambda e: ([1.0 + e, 0.0], [-1.0, 0.0]))


def test_visibility_implies_bounded_products():
    # on the same grid as a visibility-consistent scan, no certified
    # product lower may diverge; the antipodal ball pair has product 0
    grid = list(np.geomspace(1e-1, 1e-4, 5))
    rep = visibility_scan(Ball(2), [1.0, 0.0], [-1.0, 0.0], grid)
    assert rep.detail == "consistent-with-visibility"
    B = Ball(2)
    uppers = []
    for eps in grid:
        g = gromov_product(B, [1.0 - eps, 0.0], [-(1.0 - eps), 0.0],
                           [0.0, 0.0])
        uppers.append(g.upper)
    assert max(uppers) <= 1e-9


# ---------------------------------------------------------------------------
# k-point probes
# ---------------------------------------------------------------------------


def test_k_point_ball_bounded_below():
    grid = list(np.geomspace(1e-1, 1e-4, 7))
    rep = k_point_probe(Ball(2), [1.0, 0.0], 0.3, grid)
    assert rep.verdict == "consistent"
    assert rep.detail == "bounded-below"
    stats = [s.statistic for s in rep.samples]
    at_1em2 = [s.statistic for s in rep.samples
               if abs(s.grid_value - 1e-2) < 1e-15][0]
    assert min(stats) >= at_1em2 - 0.5
    # below 1e-2 the statistic is non-decreasing up to 0.1 slack
    fine = [s for s in rep.samples if s.grid_value <= 1e-2 + 1e-15]
    for a, b in zip(fine, fine[1:]):
        assert b.statistic >= a.statistic - 0.1


def test_k_point_polydisc_face_unbounded_trend():
    grid = list(np.geomspace(1e-1, 1e-4, 7))
    rep = k_point_probe(Polydisc(2), [1.0, 0.0], 0.3, grid)
    assert rep.verdict == "consistent"
    assert rep.detail == "unbounded-below-trend"
    drop = rep.samples[0].statistic - rep.samples[-1].statistic
    assert drop >= 2.0
    assert rep.fitted_parameters["slope_vs_log_inv_eps"] <= -0.2


def test_k_point_verdicts_stable_under_sample_doubling():
    grid = list(np.geomspace(1e-1, 1e-4, 7))
    for dom, point in ((Ball(2), [1.0, 0.0]), (Polydisc(2), [1.0, 0.0])):
        r64 = k_point_probe(dom, point, 0.3, grid)
        r128 = k_point_probe(dom, point, 0.3, grid, sphere_samples=128)
        assert r64.detail == r128.detail


def test_k_point_single_sample_inconclusive():
    rep = k_point_probe(Ball(2), [1.0, 0.0], 0.3, [0.15])
    assert rep.verdict == "inconclusive"
    assert rep.detail == "single-sample"
    assert math.isfinite(rep.samples[0].statistic)


def test_k_point_argument_validation():
    with pytest.raises(GeometryError):
        k_point_probe(Ball(2), [1.0, 0.0], 0.3, [0.5])   # eps >= w_radius
    with pytest.raises(GeometryError):
        k_point_probe(Ball(2), [1.0, 0.0], -0.1, [1e-2])
    with pytest.raises(GeometryError):
        # window swallowing the whole disc leaves no sphere witnesses
        k_point_probe(Disc(), [1.0], 3.0, [1e-2])


# ---------------------------------------------------------------------------
# growth fits
# ---------------------------------------------------------------------------


def test_growth_fit_disc_alpha_half():
    rep = growth_fit(Disc(), [0.0], 24, seed=3)
    assert rep.verdict == "consistent"
    assert 0.45 <= rep.fitted_parameters["alpha"] <= 0.55
    assert rep.detail.startswith("alpha=")


def test_growth_fit_ball_alpha_half():
    rep = growth_fit(Ball(2), [0.0, 0.0], 24, seed=3)
    assert 0.45 <= rep.fitted_parameters["alpha"] <= 0.55
    # samples are ordered coarse -> fine and each carries its bracket
    deltas = [s.grid_value for s in rep.samples]
    assert deltas == sorted(deltas, reverse=True)
    assert all(s.lower <= s.statistic + 1e-12 for s in rep.samples)


def test_growth_fit_requires_enough_samples():
    with pytest.raises(GeometryError):
        growth_fit(Disc(), [0.0], 5)


def test_growth_fit_constant_depth_degenerates():
    pts = [[0.9 * np.exp(1j * t)] for t in np.linspace(0.1, 1.3, 10)]
    with pytest.raises(GeometryError):
        growth_fit(Disc(), [0.0], 10, points=pts)


def test_growth_fit_points_must_be_interior():
    with pytest.raises(GeometryError):
        growth_fit(Disc(), [0.0], 8, points=[[1.2]] * 8)


# ---------------------------------------------------------------------------
# degeneration-rate probe
# ---------------------------------------------------------------------------


def test_goldilocks_ball_integrable_sqrt_tail():
    # tangential slice discs at depth delta have radius ~ sqrt(2 delta),
    # so the sampled sup fits exponent 1/2
    rep = goldilocks_probe(Ball(2), list(np.geomspace(1e-1, 1e-4, 10)))
    assert rep.verdict == "consistent"
    assert rep.detail == "integrable-tail"
    assert abs(rep.fitted_parameters["tail_exponent"] - 0.5) <= 0.1
    assert rep.fitted_parameters["log_integral"] > 0.0


def test_goldilocks_disc_linear_tail():
    # no complex tangent in one variable: the widest disc scales like
    # the boundary distance itself, M(r) ~ 2r
    rep = goldilocks_probe(Disc(), list(np.geomspace(1e-1, 1e-4, 10)))
    assert rep.detail == "integrable-tail"
    assert abs(rep.fitted_parameters["tail_exponent"] - 1.0) <= 0.1


def test_goldilocks_omega_psi_divergent_tail():
    # along the segment the slice radius decays like pi/log(1/r):
    # slower than any power, so the fitted tail exponent sits near 0
    Om = OmegaPsi(PsiSpec("exp_neg_c_over_x", c=math.pi))
    rep = goldilocks_probe(Om, list(np.geomspace(1e-2, 1e-6, 8)),
                           anchors=6, extra_directions=2)
    assert rep.verdict == "consistent"
    assert rep.detail == "divergent-tail"
    assert rep.fitted_parameters["tail_exponent"] < 0.1


def test_goldilocks_single_point_inconclusive():
    rep = goldilocks_probe(Ball(2), [1e-2])
    assert rep.verdict == "inconclusive"
    assert rep.detail == "single-sample"


def test_goldilocks_grid_validation():
    B = Ball(2)
    with pytest.raises(GeometryError):
        goldilocks_probe(B, [1e-4, 1e-2])       # not decreasing
    with pytest.raises(GeometryError):
        goldilocks_probe(B, [1e-2, 0.0])
    with pytest.raises(GeometryError):
        goldilocks_probe(B, [2.0, 1e-2])        # beyond bounding radius


# ---------------------------------------------------------------------------
# localization comparison
# ---------------------------------------------------------------------------


def test_localization_constant_finite_and_doubling_stable():
    rep1 = localization_check(Ball(2), [1.0, 0.0], 0.4, 0.2, 100, seed=5)
    rep2 = localization_check(Ball(2), [1.0, 0.0], 0.4, 0.2, 200, seed=5)
    c1 = rep1.fitted_parameters["C_emp"]
    c2 = rep2.fitted_parameters["C_emp"]
    assert math.isfinite(c1) and math.isfinite(c2)
    assert abs(c2 - c1) < 0.2
    assert rep1.verdict == "consistent" and rep2.verdict == "consistent"
    # same seed: the 200-pair run replays the first 100 pairs bit-exactly
    first = [s.statistic for s in rep1.samples]
    assert [s.statistic for s in rep2.samples][:100] == first


def test_localization_same_point_pairs_nonpositive():
    pairs = [(np.array([0.85, 0.0]), np.array([0.85, 0.0])),
             (np.array([0.9, 0.05]), np.array([0.9, 0.05]))]
    rep = localization_check(Ball(2), [1.0, 0.0], 0.4, 0.2, 2, pairs=pairs)
    for s in rep.samples:
        assert s.statistic <= 0.0


def test_localization_rejects_straddling_pairs():
    # second point sits outside the inner window V
    pairs = [(np.array([0.85, 0.0]), np.array([0.3, 0.0]))]
    with pytest.raises(GeometryError):
        localization_check(Ball(2), [1.0, 0.0], 0.4, 0.2, 1, pairs=pairs)


def test_localization_window_validation():
    with pytest.raises(GeometryError):
        localization_check(Ball(2), [1.0, 0.0], 0.2, 0.4, 10)


# ---------------------------------------------------------------------------
# metric-ball box inequality
# ---------------------------------------------------------------------------


def test_balls_inequality_polydisc_example():
    # k = artanh(0.6) - artanh(0.5) = 0.1438 < 0.15; tau(q) = (0.5, 1);
    # lhs = 0.1/0.5 = 0.2 against e^{0.3}-1
    holds, margin = balls_inequality_check(Polydisc(2), [0.5, 0.0],
                                           [0.6, 0.0], 0.15)
    assert holds
    assert margin == pytest.approx(math.expm1(0.3) - 0.2, abs=1e-12)


def test_balls_inequality_trivial_same_point():
    holds, margin = balls_inequality_check(Ball(2), [0.3, 0.1], [0.3, 0.1],
                                           0.2)
    assert holds
    assert margin == pytest.approx(math.expm1(0.4), abs=1e-12)


def test_balls_inequality_requires_certified_radius():
    with pytest.raises(GeometryError):
        balls_inequality_check(Ball(2), [0.0, 0.0], [0.9, 0.0], 0.1)


def test_balls_inequality_random_sweep():
    rng = np.random.default_rng(11)
    B, P = Ball(2), Polydisc(2)
    for k in range(50):
        dom = B if k % 2 == 0 else P
        q = (rng.uniform(-0.5, 0.5, 2) + 1j * rng.uniform(-0.5, 0.5, 2)) * 0.7
        z = (rng.uniform(-0.5, 0.5, 2) + 1j * rng.uniform(-0.5, 0.5, 2)) * 0.7
        from koblab.metric import distance_bracket
        r = distance_bracket(dom, q, z).upper + 0.1
        holds, margin = balls_inequality_check(dom, q, z, r)
        assert holds and margin > 0.0


# ---------------------------------------------------------------------------
# same-height separation scaling
# ---------------------------------------------------------------------------


def test_sameheight_ball_exponent_half():
    grid = list(np.geomspace(1e-1, 1e-3, 5))
    rep = sameheight_scaling(Ball(2), [1.0, 0.0], 0.5, grid, 2)
    assert rep.verdict == "consistent"
    assert rep.detail == "exponent-matches-type"
    assert abs(rep.fitted_parameters["exponent"] - 0.5) <= 0.15
    assert rep.fitted_parameters["C2"] > 0.0


def test_sameheight_single_height_inconclusive():
    rep = sameheight_scaling(Ball(2), [1.0, 0.0], 0.5, [1e-2], 2)
    assert rep.verdict == "inconclusive"
    assert rep.detail == "single-sample"


def test_sameheight_rejects_polydisc_face():
    with pytest.raises(GeometryError):
        sameheight_scaling(Polydisc(2), [1.0, 0.0], 0.3, [1e-2, 1e-3], 2)


def test_sameheight_rejects_segment_region_and_bad_type():
    Om = OmegaPsi(PsiSpec("exp_neg_c_over_x", c=math.pi))
    with pytest.raises(GeometryError):
        sameheight_scaling(Om, [0.0, 0.0], 0.3, [1e-2, 1e-3], 2)
    with pytest.raises(GeometryError):
        sameheight_scaling(Ball(2), [1.0, 0.0], 0.5, [1e-2, 1e-3], 0)
    with pytest.raises(GeometryError):
        sameheight_scaling(HalfPlane(), [0.0], 0.5, [1e-2, 1e-3], 2)
