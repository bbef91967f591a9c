"""Case-study runners: the bidisc double geodesic and the psi-profile
dichotomy, plus the certified analytic-disc upper bound they share."""

import math

import numpy as np
import pytest

from koblab.cases import (_fast_decay, omega_psi_upper_bound,
                          run_bidisc_case, run_omega_psi_case)
from koblab.geometry import GeometryError, OmegaPsi, PsiSpec, domain_from_json
from koblab.svg import render_report_svg


def pi_profile(c=math.pi, **kw):
    return OmegaPsi(PsiSpec("exp_neg_c_over_x", c=c), **kw)


def log_profile(alpha=2.0):
    return OmegaPsi(PsiSpec("exp_neg_inv_log_pow", alpha=alpha))


# ---------------------------------------------------------------------------
# the domain record
# ---------------------------------------------------------------------------


def test_regime_flags():
    assert _fast_decay(pi_profile())
    # the fast-decay regime needs strict inequality c > pi/2
    assert not _fast_decay(pi_profile(c=math.pi / 2))
    assert _fast_decay(pi_profile(c=math.pi / 2 + 1e-9))
    assert not _fast_decay(log_profile())


def test_params_json_round_trip():
    dom = pi_profile(chi1=2.0, chi2=0.5, cap_radius=4.0)
    back = domain_from_json(dom.to_json())
    assert isinstance(back, OmegaPsi)
    assert back.to_json() == dom.to_json()
    assert (back.psi, back.chi1, back.chi2, back.cap_radius) == \
        (dom.psi, 2.0, 0.5, 4.0)


def test_params_reject_bad_chart():
    with pytest.raises(GeometryError):
        pi_profile(cap_radius=2.0)  # cap sheet must clear the wall region


def test_eps_prime_closed_form():
    params = pi_profile()
    for eps in (1e-1, 1e-2, 1e-3, 1e-6):
        assert params.psi.inverse(eps) == pytest.approx(
            math.pi / math.log(1.0 / eps), rel=1e-12)


# ---------------------------------------------------------------------------
# analytic-disc upper bound
# ---------------------------------------------------------------------------


def test_upper_bound_frozen_values():
    params = pi_profile()
    assert omega_psi_upper_bound(params, 1e-3) == pytest.approx(
        4.1470248200510138, abs=1e-3)
    assert omega_psi_upper_bound(params, 1e-6) == pytest.approx(
        7.6009024595420822, abs=1e-3)


def test_upper_bound_closed_form_identity():
    # for the exp(-c/x) profile the emitted bound is exactly
    # log 2 + (pi/(2c)) log(1/eps), to the last bit
    for c in (math.pi, 2.0, 4.0):
        params = pi_profile(c=c)
        for eps in (1e-2, 1e-3, 1e-5):
            expected = math.log(2.0) + (math.pi / (2.0 * c)) \
                * math.log(1.0 / eps)
            assert omega_psi_upper_bound(params, eps) == expected


def test_upper_bound_grows_half_log_for_c_pi():
    params = pi_profile()
    b1 = omega_psi_upper_bound(params, 1e-2)
    b2 = omega_psi_upper_bound(params, 1e-4)
    assert b2 - b1 == pytest.approx(0.5 * math.log(1e2), abs=1e-12)


def test_upper_bound_chart_precondition():
    # psi^{-1}(0.5) = pi/log 2 = 4.53 > 2: the rectangle leaves the chart
    with pytest.raises(GeometryError):
        omega_psi_upper_bound(pi_profile(), 0.5)


def test_upper_bound_cap_precondition():
    # a shrunken cap: at eps=0.15 the rectangle's corner reach ~2.60
    # exceeds cap_radius=2.5 while psi^{-1}(eps)=1.66 is still chart-legal
    params = pi_profile(cap_radius=2.5)
    assert params.psi.inverse(0.15) < 2.0
    with pytest.raises(GeometryError):
        omega_psi_upper_bound(params, 0.15)
    # the same eps passes with the default cap
    assert omega_psi_upper_bound(pi_profile(), 0.15) > 0.0


def test_upper_bound_runtime_certification_gate():
    # with c=8 and eps=0.017 the half-width is 1.963 (chart-legal) but the
    # renormalized disc attains 1.5071, slightly above the emitted form
    # 1.4932, so the certification refuses to emit the bound
    with pytest.raises(GeometryError):
        omega_psi_upper_bound(pi_profile(c=8.0), 0.017)
    # a slightly smaller eps restores the margin and the bound emits
    assert omega_psi_upper_bound(pi_profile(c=8.0), 0.012) > 0.0


def test_upper_bound_rejects_nonpositive_eps():
    with pytest.raises(GeometryError):
        omega_psi_upper_bound(pi_profile(), 0.0)


# ---------------------------------------------------------------------------
# bidisc runner
# ---------------------------------------------------------------------------


def test_bidisc_case_report():
    rep = run_bidisc_case([1e-2, 1e-3, 1e-4])
    assert rep.verdict == "consistent"
    assert rep.detail == "bounded-products-without-visibility"
    assert rep.fitted_parameters["max_length_gap"] <= 1e-12
    assert rep.fitted_parameters["max_residual_upper"] <= math.log(2.0) + 0.01
    assert abs(rep.fitted_parameters["decay_exponent"] - 0.5) <= 0.1
    for s in rep.samples:
        assert "equal-lengths" in s.flags
        eps = s.grid_value
        # the residual of this pair is -log(2 - eps) on the nose
        assert s.inputs["residual_upper"] == pytest.approx(
            -math.log(2.0 - eps), abs=1e-12)
        # the antipodal pair's product against the origin vanishes
        assert 0.0 <= s.inputs["product_upper"] <= 1e-9
        assert s.statistic == pytest.approx(math.sqrt(eps), rel=0.75)


def test_bidisc_case_statistic_is_boundary_depth():
    rep = run_bidisc_case([1e-4])
    (s,) = rep.samples
    # the three-leg path tops out near height 1 - sqrt(eps)
    assert s.statistic == pytest.approx(1.0 - (1.0 - math.sqrt(1e-4)), rel=0.5)
    assert rep.verdict == "consistent"


def test_bidisc_case_grid_validation():
    with pytest.raises(GeometryError):
        run_bidisc_case([])
    with pytest.raises(GeometryError):
        run_bidisc_case([1e-3, 2e-2])
    with pytest.raises(GeometryError):
        run_bidisc_case([0.0])


# ---------------------------------------------------------------------------
# psi-profile runner: fast-decay (non-visible) regime
# ---------------------------------------------------------------------------


def test_omega_psi_divergence_lowers():
    rep = run_omega_psi_case(pi_profile(), [1e-1, 1e-2, 1e-3])
    assert rep.verdict == "consistent"
    assert rep.detail == "product-divergence-trend"
    assert rep.fitted_parameters["n_skipped"] == 0
    for s in rep.samples:
        # lower = 1/4 log(1/eps) - 1/2 log 2: the halfplane-projection
        # sides contribute 1/2 log(1/eps) each, the disc upper removes
        # half of log 2 + 1/2 log(1/eps)
        eps = s.grid_value
        expected = 0.25 * math.log(1.0 / eps) - 0.5 * math.log(2.0)
        assert s.lower == pytest.approx(expected, abs=1e-9)
        assert s.upper is None
        assert s.statistic == s.lower


def test_omega_psi_divergence_increase_two_decades():
    rep = run_omega_psi_case(pi_profile(), [1e-1, 1e-3])
    gain = rep.samples[-1].lower - rep.samples[0].lower
    assert gain == pytest.approx(0.25 * math.log(100.0), abs=1e-9)
    # the certified increase clears a round unit even though the naive
    # one-sided rate would suggest twice as much
    assert gain >= 1.0


def test_omega_psi_divergence_gain_per_decade():
    rep = run_omega_psi_case(pi_profile(), [1e-1, 1e-2, 1e-3])
    assert rep.fitted_parameters["lower_gain_per_decade"] == pytest.approx(
        0.25 * math.log(10.0), abs=1e-9)
    assert rep.fitted_parameters["fit_rms"] <= 1e-9


def test_omega_psi_divergence_skips_uncertified_points():
    # eps=0.5 fails the chart precondition inside the disc construction;
    # the grid point is skipped and said so, never guessed
    rep = run_omega_psi_case(pi_profile(), [0.5, 1e-2, 1e-3])
    assert rep.fitted_parameters["n_skipped"] == 1
    assert len(rep.samples) == 2
    assert any("skipped" in n for n in rep.notes)
    assert rep.verdict == "consistent"


def test_omega_psi_case_grid_validation():
    with pytest.raises(GeometryError):
        run_omega_psi_case(pi_profile(), [])
    with pytest.raises(GeometryError):
        run_omega_psi_case(pi_profile(), [1e-2, -1e-3])
    # (i, 1.5) is inside, but the cap sphere is 1.2 away, nearer than the
    # segment
    with pytest.raises(GeometryError, match="chart depth mismatch"):
        run_omega_psi_case(pi_profile(), [1.5, 1e-2])


# ---------------------------------------------------------------------------
# psi-profile runner: slow-decay (Goldilocks) regime
# ---------------------------------------------------------------------------


def test_omega_psi_goldilocks_branch():
    rep = run_omega_psi_case(log_profile(), [1e-1, 1e-2], seed=1)
    assert rep.verdict == "consistent"
    assert rep.detail == "goldilocks-consistent-with-visibility"
    assert rep.fitted_parameters["rate_detail"] == "integrable-tail"
    # scan paths keep a positive depth floor: the boundary distance of each
    # path's deepest point, 0.211 here (its height, 0.766, while the wall
    # projection stopped at the vertical foot)
    assert rep.fitted_parameters["floor"] > 0.2
    for s in rep.samples:
        assert s.upper >= s.lower > 0.0
    assert any("segment endpoints" in n for n in rep.notes)


# ---------------------------------------------------------------------------
# chart emission
# ---------------------------------------------------------------------------


def test_svg_renders_case_report():
    rep = run_omega_psi_case(pi_profile(), [1e-1, 1e-2, 1e-3])
    svg = render_report_svg(rep)
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert 'width="800" height="600"' in svg
    assert "<polyline" in svg
    assert "log10(1/eps)" in svg
    assert "product-divergence-trend" in svg


def test_svg_deterministic():
    rep = run_bidisc_case([1e-2, 1e-3])
    assert render_report_svg(rep) == render_report_svg(rep)


def test_svg_handles_empty_report():
    rep = run_omega_psi_case(pi_profile(), [1e-1, 1e-2, 1e-3])
    bare = type(rep)(rep.probe_kind, [], [], {}, "inconclusive",
                     "all-points-skipped")
    svg = render_report_svg(bare)
    assert "no drawable samples" in svg
    assert svg.startswith("<svg")


def test_svg_title_escapes_markup():
    rep = run_bidisc_case([1e-3])
    svg = render_report_svg(rep, title="a<b & c>d")
    assert "a&lt;b &amp; c&gt;d" in svg
