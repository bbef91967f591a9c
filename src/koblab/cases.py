"""Turnkey experiments around the named example domains.

Two storylines, both returning the uniform ProbeReport record.  The bidisc
runner rebuilds the pair of equal-length geodesics between (-1+eps, 0) and
(1-eps, 0): their Gromov product against the origin is exactly zero and
the two-sided log estimate holds with residual under log 2, yet the
three-leg path sinks toward the distinguished boundary like sqrt(eps) —
boundedness of products without visibility.  The psi-profile runner works
the wedge domains: in the fast-decay regime it certifies Gromov products
from below with an explicit analytic disc (the product lower bounds grow
without bound, so no visibility), and otherwise it falls back on the
degeneration-rate probe plus a geodesic scan and reports consistency with
visibility.

Every emitted number is one side of a certified bracket, with the same
conventions as the diagnostics module; heuristic statistics are flagged in
the report notes.
"""

from __future__ import annotations

import math

import numpy as np

from .diagnostics import (ProbeReport, ProbeSample, _finest_half,
                          _linear_fit, _positive_grid, _power_fit,
                          goldilocks_probe, gromov_product,
                          log_estimate_residual, visibility_scan)
from .geometry import GeometryError, OmegaPsi, Polydisc
from .metric import disc_distance, distance_lower_bound
from .solver import SolverConfig, bidisc_boundary_geodesic

__all__ = [
    "omega_psi_upper_bound",
    "run_bidisc_case",
    "run_omega_psi_case",
]

_INCLUSION_SAMPLES = 256


# ---------------------------------------------------------------------------
# certified analytic-disc upper bound
# ---------------------------------------------------------------------------


def omega_psi_upper_bound(dom: OmegaPsi, epsilon: float) -> float:
    """Certified upper bound for k((i, eps), (-i, eps)) via an analytic disc.

    With a = psi^{-1}(eps), the vertical strip {|Re| < a} maps onto the
    unit disc by zeta -> i tan(pi zeta / (4a)), and the flat slice
    zeta -> (zeta, eps) carries the rectangle {|Re| < a, |Im| < 2} into
    the domain.  Renormalizing the disc by r = 1 - 2 exp(-pi/a) produces
    an analytic disc through both points, attaining
    2 atanh(tanh(pi/(4a)) / r); the emitted bound is the cleaner
    log 2 + pi/(2a), and the attained value is checked against it at
    runtime, so nothing is emitted uncertified.  The disc's boundary
    image is additionally certified inside the domain on a 256-point
    sample.  For the exp(-c/x) profile the bound is computed in closed
    form as log 2 + (pi/(2c)) log(1/eps); inside the profile's pure-decay
    range this is the a-route number bit for bit, and past the convexity
    cut it is smaller yet still certified by the runtime comparison.
    """
    epsilon = float(epsilon)
    if not epsilon > 0.0:
        raise GeometryError("epsilon must be positive")
    a = dom.psi.inverse(epsilon)       # the slice half-width psi^{-1}(eps)
    if not 0.0 < a <= 2.0:
        raise GeometryError(
            "the slice rectangle leaves the chart: psi^{-1}(eps) = "
            f"{a:.6g} > 2")
    # the rectangle (hence the disc image) must stay inside the cap sheet
    reach = math.sqrt(a * a + 4.0 + epsilon * epsilon)
    if reach >= dom.cap_radius:
        raise GeometryError(
            "the slice rectangle leaves the bounded chart region")

    sigma = math.exp(-math.pi / (2.0 * a))
    r = 1.0 - 2.0 * sigma * sigma          # renormalized disc radius
    t = (1.0 - sigma) / (1.0 + sigma)      # = tanh(pi/(4a)), the points' slot
    if not 0.0 < t < r:
        raise GeometryError(
            "epsilon too large: the renormalized disc misses the points")
    attained = 2.0 * math.atanh(t / r)
    if dom.psi.form == "exp_neg_c_over_x":
        bound = math.log(2.0) + (math.pi / (2.0 * dom.psi.c)) \
            * math.log(1.0 / epsilon)
    else:
        bound = math.log(2.0) + math.pi / (2.0 * a)
    if attained > bound:
        raise GeometryError(
            f"epsilon too large: the disc attains {attained:.6g}, above "
            f"the emitted form {bound:.6g}")

    # certification: the disc's boundary image must lie inside the domain
    theta = 2.0 * math.pi * np.arange(_INCLUSION_SAMPLES) / _INCLUSION_SAMPLES
    rim = (4.0 * a / math.pi) * np.arctan(-1j * r * np.exp(1j * theta))
    for z1 in rim:
        if not dom.contains(np.array([z1, epsilon], dtype=complex)):
            raise GeometryError(
                "inclusion check failed: eps not small enough for the "
                "disc construction")
    return bound


# ---------------------------------------------------------------------------
# the bidisc double geodesic
# ---------------------------------------------------------------------------


def run_bidisc_case(eps_grid) -> ProbeReport:
    """Both bidisc geodesics between (-1+eps, 0) and (1-eps, 0), per eps.

    For every eps the diameter path and the three-leg boundary-hugging
    path have exactly the same length (both telescope to the disc
    distance of the first coordinates), the pair's product against the
    origin is exactly 0, and the log-estimate residual stays under
    log 2 — yet the three-leg path's distance to the boundary decays
    like sqrt(eps), so no compact set catches every geodesic.
    """
    eps_grid = _positive_grid(eps_grid, "eps")
    if any(e > 1e-2 for e in eps_grid):
        raise GeometryError("the eps grid must lie in (0, 1e-2]")
    dom = Polydisc(2)
    origin = np.zeros(2, dtype=complex)

    def evaluate(eps: float) -> ProbeSample:
        diameter, boundary_path = bidisc_boundary_geodesic(eps)
        exact = disc_distance(-1.0 + eps, 1.0 - eps)
        gap = max(abs(diameter.upper_length - exact),
                  abs(boundary_path.upper_length - exact))
        x = np.array([-1.0 + eps, 0.0], dtype=complex)
        y = np.array([1.0 - eps, 0.0], dtype=complex)
        residual = log_estimate_residual(dom, x, y)
        product = gromov_product(dom, x, y, origin)
        stat = float(np.max(boundary_path.boundary_distances()))
        flags = ("equal-lengths",) if gap <= 1e-12 else ()
        return ProbeSample(eps, boundary_path.lower_length,
                           boundary_path.upper_length, stat, flags,
                           {"exact_length": exact, "length_gap": gap,
                            "residual_upper": residual.upper,
                            "product_upper": product.upper,
                            "three_leg_c": boundary_path.meta.get("c")})

    samples = [evaluate(eps) for eps in eps_grid]
    gaps = [s.inputs["length_gap"] for s in samples]
    residuals = [s.inputs["residual_upper"] for s in samples]
    products = [s.inputs["product_upper"] for s in samples]
    fitted: dict = {"max_length_gap": max(gaps),
                    "max_residual_upper": max(residuals),
                    "max_product_upper": max(products)}
    notes = ["both path lengths telescope to the exact first-coordinate "
             "disc distance; length_gap records the defect",
             "statistic = the three-leg path's maximum boundary distance",
             "product_upper certifies the pair's product against the "
             "origin from above"]
    if len(samples) >= 2:
        stats = np.array([s.statistic for s in samples])
        es = np.asarray(eps_grid)
        idx = _finest_half(es)
        exponent, prefactor, rms = _power_fit(es[idx], stats[idx])
        fitted.update(decay_exponent=exponent, prefactor=prefactor,
                      fit_rms=rms)

    if fitted["max_length_gap"] > 1e-12:
        verdict, detail = "violated", "length-mismatch"
    elif fitted["max_residual_upper"] > math.log(2.0) + 0.01:
        verdict, detail = "violated", "log-estimate-residual-exceeded"
    else:
        verdict, detail = "consistent", "bounded-products-without-visibility"
    return ProbeReport("bidisc-case", eps_grid, samples, fitted, verdict,
                       detail, notes)


# ---------------------------------------------------------------------------
# the psi-profile dichotomy
# ---------------------------------------------------------------------------


def _check_chart_depth(dom: OmegaPsi, eps_grid) -> None:
    """The subjects (+-i, eps) sit at height eps over the flat segment,
    inside the domain and nearer the segment than the cap sphere; verify
    at the grid extremes so a mis-parameterized chart fails loudly.

    Their boundary distance is eps only while psi stays flat within eps
    of Re z1 = 0: on the log-power profile with alpha = 2 the wall rises
    near enough that (i, 0.1) lies 0.0378 from it, and (i, 0.01) 0.00955.
    """
    for e in (max(eps_grid), min(eps_grid)):
        p = np.array([1j, e], dtype=complex)
        if not dom.contains(p):
            raise GeometryError(f"(i, {e:g}) is not inside the domain")
        cap = dom._cap_gap(1j, complex(e))
        if not cap > e:
            raise GeometryError(
                f"chart depth mismatch at eps={e:g}: the cap sphere is "
                f"{cap:.6g} away")


def _fast_decay(dom: OmegaPsi) -> bool:
    """Whether psi = exp(-c/x) with c > pi/2, strictly: the regime where
    the certified product lower bounds grow without bound."""
    return dom.psi.form == "exp_neg_c_over_x" and dom.psi.c > math.pi / 2


def run_omega_psi_case(dom: OmegaPsi, eps_grid, seed: int = 0,
                       config: SolverConfig | None = None) -> ProbeReport:
    """Dichotomy runner for the psi-profile domains.

    The regime comes from ``dom.psi``.  Its threshold: psi = exp(-c/x)
    with c > pi/2, strictly, decays faster than exp(-pi/(2x)), and that
    kills visibility.  In this fast-decay regime, for each eps
    the product (p_eps|q_eps)_o with p_eps = (i, eps), q_eps = (-i, eps),
    o = (0, 1) is certified from below by 1/2 [k(p, o) + k(q, o)] - 1/2
    upper(p, q), with the pair upper from the analytic-disc construction;
    a growing sequence of lower bounds is divergence evidence no sampling
    can retract.  Grid points whose disc construction fails its inclusion
    check are reported as skipped, never guessed.

    Otherwise the runner combines the degeneration-rate probe with a
    geodesic scan along eps -> ((i, eps), (-i, eps)) and reports their
    joint consistency with visibility.
    """
    eps_grid = _positive_grid(eps_grid, "eps")
    base = np.array([0.0, 1.0], dtype=complex)
    if not dom.contains(base):
        raise GeometryError("the report base point (0, 1) left the domain")
    _check_chart_depth(dom, eps_grid)

    if _fast_decay(dom):
        return _run_divergence_case(dom, base, eps_grid)
    return _run_scan_case(dom, eps_grid, seed, config)


def _run_divergence_case(dom: OmegaPsi, base: np.ndarray,
                         eps_grid) -> ProbeReport:
    def evaluate(eps: float):
        try:
            pair_upper = omega_psi_upper_bound(dom, eps)
        except GeometryError as exc:
            return eps, str(exc)
        p = np.array([1j, eps], dtype=complex)
        q = np.array([-1j, eps], dtype=complex)
        lb_p = distance_lower_bound(dom, p, base)
        lb_q = distance_lower_bound(dom, q, base)
        lower = 0.5 * (lb_p + lb_q) - 0.5 * pair_upper
        return eps, ProbeSample(eps, lower, None, lower, (),
                                {"pair_upper": pair_upper,
                                 "lower_p_to_base": lb_p,
                                 "lower_q_to_base": lb_q})

    results = [evaluate(eps) for eps in eps_grid]
    samples = [s for _, s in results if isinstance(s, ProbeSample)]
    skipped = [(e, why) for e, why in results if not isinstance(why, ProbeSample)]

    notes = ["base point o = (0, 1); products are certified from below by "
             "1/2[k(p,o)+k(q,o)] lower bounds minus half the analytic-disc "
             "pair upper",
             "no product upper is claimed (upper = nan in the rows)"]
    for e, why in skipped:
        notes.append(f"eps={e:g} skipped: {why}")

    fitted: dict = {"n_skipped": len(skipped)}
    if not samples:
        verdict, detail = "inconclusive", "all-points-skipped"
    elif len(samples) < 2:
        verdict, detail = "inconclusive", "single-sample"
    else:
        es = np.array([s.grid_value for s in samples])
        lows = np.array([s.lower for s in samples])
        slope, intercept, rms = _linear_fit(np.log(1.0 / es), lows)
        fitted.update(lower_gain_per_decade=slope * math.log(10.0),
                      intercept=intercept, fit_rms=rms,
                      max_lower=float(np.max(lows)))
        if slope > 0.05:
            verdict, detail = "consistent", "product-divergence-trend"
        else:
            verdict, detail = "inconclusive", "no-clear-trend"
    return ProbeReport("omega-psi-case", eps_grid, samples, fitted,
                       verdict, detail, notes)


def _run_scan_case(dom: OmegaPsi, eps_grid, seed: int,
                   config: SolverConfig | None) -> ProbeReport:
    def pair_at(eps: float):
        return (np.array([1j, eps], dtype=complex),
                np.array([-1j, eps], dtype=complex))

    scan = visibility_scan(dom, np.array([1j, 0.0], dtype=complex),
                           np.array([-1j, 0.0], dtype=complex), eps_grid,
                           approach=pair_at, config=config)
    rate_grid = sorted(set(eps_grid), reverse=True)
    if len(rate_grid) >= 2:
        rate = goldilocks_probe(dom, rate_grid, seed=seed, anchors=8,
                                extra_directions=2)
        rate_detail = rate.detail
        rate_notes = [f"degeneration probe: {n}" for n in rate.notes]
        rate_fitted = {f"rate_{k}": v for k, v in
                       rate.fitted_parameters.items()}
    else:
        rate_detail = "single-sample"
        rate_notes = ["degeneration probe skipped: grid too small"]
        rate_fitted = {}

    fitted = dict(scan.fitted_parameters)
    fitted.update(rate_fitted)
    fitted["rate_detail"] = rate_detail
    notes = list(scan.notes) + rate_notes + [
        "scan pairs approach the segment endpoints (i, 0) and (-i, 0)"]

    scan_ok = scan.detail == "consistent-with-visibility"
    rate_ok = rate_detail == "integrable-tail"
    if scan_ok and rate_ok:
        verdict, detail = "consistent", "goldilocks-consistent-with-visibility"
    elif scan.detail == "consistent-with-failure":
        verdict, detail = "inconclusive", "scan-contradicts-regime"
    elif rate_ok:
        verdict, detail = "inconclusive", "rate-only-evidence"
    else:
        verdict, detail = "inconclusive", "mixed-evidence"
    return ProbeReport("omega-psi-case", eps_grid, scan.samples, fitted,
                       verdict, detail, notes)
