"""Metric and distance formulas, certified bound branches, bracket soundness.

Frozen oracle values are derived independently of the implementation
(artanh identities, Moebius ratios, explicit projections); see the inline
notes next to each constant.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import optimize

from koblab import metric as metric_module

from koblab.geometry import (
    Ball,
    Disc,
    Ellipsoid,
    GeometryError,
    HalfPlane,
    LocalizedDomain,
    OmegaPsi,
    Polydisc,
    PsiSpec,
    _UNIT_ROUNDOFF,
    _down,
    _up,
)
from koblab.metric import (
    MetricBracket,
    _boundary_contact,
    _certified_chain_upper,
    _dual_candidates,
    _dual_disjointness,
    _dual_value,
    _half_log_down,
    _into_disc,
    ball_distance,
    disc_distance,
    distance_bracket,
    distance_lower_bound,
    distance_lower_bound_detailed,
    halfplane_distance,
    halfplane_hole_distance,
    pair_tube_bound,
    polydisc_distance,
)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_disc_distance_oracles():
    # artanh(0.5) = 0.5 log 3
    assert disc_distance(0, 0.5) == pytest.approx(0.5493061443340549, abs=1e-12)
    # Moebius ratio m = 1.8/1.81, (1+m)/(1-m) = 361, so the value is log 19
    assert disc_distance(-0.9, 0.9) == pytest.approx(math.log(19.0), abs=1e-12)
    assert disc_distance(0, 0) == 0.0
    assert disc_distance(0.3j, 0.3j) == 0.0
    with pytest.raises(GeometryError):
        disc_distance(1.0, 0.0)


def test_disc_distance_moebius_invariance():
    # pulling both points back by a disc automorphism preserves the value
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b, c = (complex(*rng.uniform(-0.6, 0.6, 2)) for _ in range(3))
        phi = lambda z: (z - c) / (1 - c.conjugate() * z)
        assert disc_distance(phi(a), phi(b)) == pytest.approx(
            disc_distance(a, b), abs=1e-11)


def test_halfplane_distance_oracles():
    # vertical pair i, 2i: m = 1/3, value = artanh(1/3) = 0.5 log 2
    assert halfplane_distance(1j, 2j) == pytest.approx(0.5 * math.log(2.0), abs=1e-13)
    # horizontal translation invariance
    assert halfplane_distance(5 + 1j, 5 + 2j) == pytest.approx(
        halfplane_distance(1j, 2j), abs=1e-13)
    with pytest.raises(GeometryError):
        halfplane_distance(1.0, 1j)


def test_polydisc_distance_oracles():
    # max picks whichever coordinate separates more; artanh(0.8) = 0.5 log 9
    assert polydisc_distance([0.8, 0], [0, 0.8]) == pytest.approx(
        0.5 * math.log(9.0), abs=1e-12)
    assert polydisc_distance([0.9, 0], [-0.9, 0]) == pytest.approx(
        math.log(19.0), abs=1e-12)
    assert polydisc_distance([0.1, 0.2], [0.1, 0.2]) == 0.0


def test_ball_distance_oracles():
    # radial pair reduces to the disc
    assert ball_distance([0.5, 0], [0, 0]) == pytest.approx(
        disc_distance(0, 0.5), abs=1e-12)
    # diameter pair reduces to the disc diameter value log 19
    assert ball_distance([0.9, 0], [-0.9, 0]) == pytest.approx(
        math.log(19.0), abs=1e-12)
    # unitary invariance
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    for _ in range(20):
        z = rng.uniform(-0.4, 0.4, 2) + 1j * rng.uniform(-0.4, 0.4, 2)
        w = rng.uniform(-0.4, 0.4, 2) + 1j * rng.uniform(-0.4, 0.4, 2)
        assert ball_distance(q @ z, q @ w) == pytest.approx(
            ball_distance(z, w), abs=1e-11)


# ---------------------------------------------------------------------------
# distance lower bounds
# ---------------------------------------------------------------------------


def test_lower_bound_disc_example():
    val = distance_lower_bound(Disc(), [0.0], [0.5])
    assert val >= 0.5 * math.log(2.0) - 1e-12    # delta ratio 1/0.5
    assert val <= disc_distance(0, 0.5) + 1e-12  # never above the exact value


def test_lower_bound_trivial_and_symmetry():
    assert distance_lower_bound(Ball(2), [0.1, 0.2], [0.1, 0.2]) == 0.0
    a = distance_lower_bound(Ball(2), [0.5, 0.1], [-0.3, 0.2])
    b = distance_lower_bound(Ball(2), [-0.3, 0.2], [0.5, 0.1])
    assert a == b


def test_lower_bound_ball_deep_pair():
    # both points hug opposite boundary points; the additive two-projection
    # bound gives 1/2 log(1/0.1) + 1/2 log(1/0.1) = log 10 (eta = mu/2 = 1)
    val = distance_lower_bound(Ball(2), [0.9, 0], [-0.9, 0])
    assert val >= 2.1972245 - 1e-6
    assert val <= ball_distance([0.9, 0], [-0.9, 0]) + 1e-12


def test_pair_tube_bound_values():
    # p = (1, 0), q = (-1, 0): mu = min over the unit ball of
    # |1 - u1| + |1 + u1| = 2, so eta = mu/2 = 1 and the gaps are 0.1
    val = pair_tube_bound(Ball(2), [0.9, 0], [-0.9, 0])
    assert val == pytest.approx(math.log(10.0), rel=1e-4)
    # same tubes, gaps 0.9 < eta: 1/2 log(1/0.9) twice
    val = pair_tube_bound(Ball(2), [0.1, 0], [-0.1, 0])
    assert val == pytest.approx(math.log(1.0 / 0.9), rel=1e-4)
    # p = (1, 0), q = (0, 1): mu = 2 - sqrt 2 at u = (1, 1)/sqrt 2, so
    # eta = 0.293 is below both gaps 0.5: the points are outside their tubes
    assert pair_tube_bound(Ball(2), [0.5, 0], [0, 0.5]) is None
    # unbounded domain: no bounding ball to minimize over
    assert pair_tube_bound(HalfPlane(), [1j], [2j]) is None


TUBE_DOMAINS = {"ball2": Ball(2), "ellipsoid-1-2": Ellipsoid([1.0, 2.0]),
                "ellipsoid-1-1.5-3": Ellipsoid([1.0, 1.5, 3.0])}


def _deep_pairs(domain, count, rng):
    """Seeded pairs, each point moved inward along the boundary normal by a
    depth in [1e-3, 0.3] (below the smallest curvature radius 1/3)."""
    a = getattr(domain, "axes", np.ones(domain.dim))
    pairs = []
    for _ in range(count):
        pair = []
        for _ in range(2):
            d = rng.standard_normal(domain.dim) \
                + 1j * rng.standard_normal(domain.dim)
            b = d / math.sqrt(float(np.sum(np.abs(d) ** 2 / a ** 2)))
            nu = b / a ** 2
            depth = 10.0 ** rng.uniform(-3.0, math.log10(0.3))
            pair.append(b - depth * nu / np.linalg.norm(nu))
        pairs.append(tuple(pair))
    return pairs


def _tube_data(domain, x, y):
    (p, nu_p), (q, nu_q) = (_boundary_contact(domain, x)[1],
                            _boundary_contact(domain, y)[1])
    c_p, c_q = complex(np.vdot(nu_p, p)), complex(np.vdot(nu_q, q))
    mu = _dual_disjointness(domain.bounding_radius, c_p, c_q, nu_p, nu_q)
    return c_p, c_q, nu_p, nu_q, mu


DUAL_CASES = {
    **{name: (dom, lambda rng, dom=dom: _deep_pairs(dom, 8, rng))
       for name, dom in TUBE_DOMAINS.items()},
    # nu_p and nu_q parallel: the torus maximum sits on the kink where
    # |nu_p + e^{i delta} nu_q| = 0
    "disc": (Disc(), lambda rng: _deep_pairs(Disc(), 8, rng)),
    # R = sqrt 2, contacts on either face
    "polydisc2": (Polydisc(2), lambda rng: _deep_polydisc_pairs(8, rng)),
}


@pytest.mark.parametrize("name", DUAL_CASES)
def test_pair_tube_dual_never_exceeds_primal(name):
    # the certified mu is a lower bound on min over |u| <= R of |f| + |g|:
    # it may not exceed a 30-start primal minimum (each optimizer point
    # pulled into the ball first) nor |f| + |g| at 10^4 sampled points of
    # the ball; and the dual's maximum, which strong duality puts at that
    # minimum, is found to within 1e-12 of it
    domain, draw = DUAL_CASES[name]
    rng = np.random.default_rng(61)
    R, n = domain.bounding_radius, domain.dim
    for x, y in draw(rng):
        c_p, c_q, nu_p, nu_q, mu = _tube_data(domain, x, y)

        def objective(z):
            return np.abs(c_p - z @ np.conj(nu_p)) \
                + np.abs(c_q - z @ np.conj(nu_q))

        def feasible(v):
            z = v[:n] + 1j * v[n:]
            r = float(np.linalg.norm(z))
            return z * (R / r) if r > R else z

        def primal_with_gradient(v):
            # d|c - <nu, z>| = -Re(conj(s) <nu, dz>) with s the unit phase
            z = v[:n] + 1j * v[n:]
            f, g = c_p - np.vdot(nu_p, z), c_q - np.vdot(nu_q, z)
            grad = -(f / abs(f) if f else 0.0) * nu_p \
                - (g / abs(g) if g else 0.0) * nu_q
            return abs(f) + abs(g), np.concatenate([grad.real, grad.imag])

        starts = [np.concatenate([s.real, s.imag]) for s in (x, y)]
        starts += [rng.uniform(-R, R, 2 * n) / math.sqrt(2 * n)
                   for _ in range(28)]
        primal = math.inf
        for v0 in starts:
            res = optimize.minimize(
                primal_with_gradient, v0, jac=True, method="SLSQP",
                constraints=[{"type": "ineq",
                              "fun": lambda v: R * R - float(v @ v),
                              "jac": lambda v: -2.0 * v}],
                options={"maxiter": 300, "ftol": 1e-14})
            primal = min(primal, float(objective(feasible(res.x))))
        w = rng.standard_normal((10_000, n)) \
            + 1j * rng.standard_normal((10_000, n))
        w *= (R * rng.uniform(0.0, 1.0, (10_000, 1)) ** (1.0 / (2 * n))
              / np.linalg.norm(w, axis=1, keepdims=True))
        sampled = float(np.min(objective(w)))
        assert mu <= primal and mu <= sampled
        assert mu >= primal - 1e-12 * max(1.0, primal)


_E1, _E2 = np.array([1.0 + 0j, 0.0]), np.array([0.0, 1.0 + 0j])
_PARALLEL = np.array([0.6, 0.8j])
_TURNED = np.array([complex(math.cos(0.7), math.sin(0.7))])
with mpmath.workdps(50):
    _FACE_MAX = 1 - mpmath.sqrt(1 - mpmath.mpf(0.2) ** 2)

# (R, c_p, c_q, nu_p, nu_q, max of D) with the maximum known exactly, one
# instance for each kind of candidate that holds it:
#   zero: nu_p = nu_q and c_p = c_q = 1/2; D <= |a + b|/2 - |a + b| <= 0
#   torus: opposite disc contacts; |f| + |g| >= |f + g| = 2 bounds D, and
#     D(1, 1) = 2 sits on the kink |nu_p + nu_q| = 0
#   face-a: D(1, b) at b = c/sqrt(1 - c^2) meets the primal value
#     1 - sqrt(1 - c^2) of u = (sqrt(1 - c^2), c), with c = |c_q| = 0.2
#     (the float), here at 50 digits; face-b is its mirror
DUAL_INSTANCES = {
    "zero": (1.0, 0.5, 0.5, _PARALLEL, _PARALLEL, 0),
    "torus": (1.0, 1.0, 1.0, _TURNED, -_TURNED, 2),
    "face-a": (1.0, 1.0, 0.2j, _E1, _E2, _FACE_MAX),
    "face-b": (1.0, 0.2j, 1.0, _E2, _E1, _FACE_MAX),
}


def _sampled_dual_max(R, c_p, c_q, nu_p, nu_q):
    """max of D over a polar grid of the bidisc, 16 radii by 64 phases in
    each disc, in double precision."""
    r = np.linspace(0.0, 1.0, 16)
    disc = (r[:, None] * np.exp(2j * math.pi * np.arange(64) / 64)).ravel()
    a, b = disc[:, None], disc[None, :]
    w = a[..., None] * nu_p + b[..., None] * nu_q
    vals = (np.conj(a) * c_p + np.conj(b) * c_q).real \
        - R * np.linalg.norm(w, axis=-1)
    return float(vals.max())


@pytest.mark.parametrize("kind", DUAL_INSTANCES)
def test_dual_candidate_kinds_reach_the_exact_maximum(kind):
    # each instance's maximum is held by the candidate of its own kind, mu
    # lies below the exact maximum and within 1e-14 of it, and no point of
    # a dense grid of the bidisc beats it by more than that (the pull into
    # the discs and the rounding down cost a few 1e-15)
    R, c_p, c_q, nu_p, nu_q, exact = DUAL_INSTANCES[kind]
    values = {k: _dual_value(R, c_p, c_q, nu_p, nu_q, _into_disc(a),
                             _into_disc(b))
              for k, (a, b) in _dual_candidates(R, c_p, c_q, nu_p,
                                                nu_q).items()}
    mu = _dual_disjointness(R, c_p, c_q, nu_p, nu_q)
    assert max(values, key=values.get) == kind
    assert mu == values[kind]
    assert mu <= exact
    assert mu >= exact - 1e-14
    assert mu >= _sampled_dual_max(R, c_p, c_q, nu_p, nu_q) - 1e-14


@pytest.mark.parametrize("name", ["ellipsoid-1-2", "ellipsoid-1-1.5-3"])
def test_lower_bound_below_rescaled_ball_distance(name):
    # z -> z/a maps the ellipsoid onto the unit ball, so the Kobayashi
    # distance is ball_distance(x/a, y/a); no lower bound may exceed it
    domain = TUBE_DOMAINS[name]
    rng = np.random.default_rng(67)
    a = domain.axes
    tube_wins = 0
    for x, y in _deep_pairs(domain, 40, rng):
        best, branches = distance_lower_bound_detailed(domain, x, y)
        assert best <= ball_distance(x / a, y / a) + 1e-10
        tube_wins += branches.get("pair-tube", -1.0) >= best
    assert tube_wins >= 5        # the pairs do exercise the tube


def test_pair_tube_none_when_mu_vanishes():
    # both contacts at (1, 0): f = g vanish together at u = p in the ball
    dom = Ball(2)
    x, y = np.array([0.9, 0.0]), np.array([0.8, 0.0])
    assert _tube_data(dom, x, y)[-1] <= 0.0
    assert pair_tube_bound(dom, x, y) is None
    # polydisc faces |z1| = 1 and |z2| = 1: f = g = 0 at u = (1, 1), which
    # lies on the bounding sphere of radius sqrt 2
    dom = Polydisc(2)
    x, y = np.array([0.99, 0.0]), np.array([0.0, 0.99])
    assert _tube_data(dom, x, y)[-1] <= 0.0
    assert pair_tube_bound(dom, x, y) is None


def _pair_tube_reference(domain, x, y):
    """pair_tube_bound without its pre-check: the dual is always solved and
    the tube accepted only when both gaps, rounded up as pair_tube_bound
    rounds them, lie strictly inside eta = mu/2."""
    if math.isinf(domain.bounding_radius):
        return None
    x, y = domain._interior(x), domain._interior(y)
    contacts = (_boundary_contact(domain, x)[1],
                _boundary_contact(domain, y)[1])
    if contacts[0] is None or contacts[1] is None:
        return None
    (p, nu_p), (q, nu_q) = contacts
    c_p, c_q = complex(np.vdot(nu_p, p)), complex(np.vdot(nu_q, q))
    mu = _dual_disjointness(domain.bounding_radius, c_p, c_q, nu_p, nu_q)
    if not (mu > 0.0 and math.isfinite(mu)):
        return None
    eta = 0.5 * mu
    pad = (2 * len(x) + 7) * _UNIT_ROUNDOFF
    fx = _up(abs(c_p - complex(np.vdot(nu_p, x)))
             + pad * (abs(c_p) + np.linalg.norm(nu_p) * np.linalg.norm(x)), 1)
    gy = _up(abs(c_q - complex(np.vdot(nu_q, y)))
             + pad * (abs(c_q) + np.linalg.norm(nu_q) * np.linalg.norm(y)), 1)
    if not (0.0 < fx < eta and 0.0 < gy < eta):
        return None
    return _down(_half_log_down(eta, fx) + _half_log_down(eta, gy), 1)


def _deep_polydisc_pairs(count, rng):
    """Seeded Polydisc(2) pairs: one coordinate of each point at depth in
    [1e-3, 0.3] below its unit circle, the other anywhere in its disc."""
    pairs = []
    for _ in range(count):
        pair = []
        for _ in range(2):
            j = rng.integers(2)
            z = np.sqrt(rng.uniform(0.0, 0.8, 2)) \
                * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, 2))
            depth = 10.0 ** rng.uniform(-3.0, math.log10(0.3))
            z[j] = (1.0 - depth) * np.exp(2j * math.pi * rng.uniform())
            pair.append(z)
        pairs.append(tuple(pair))
    return pairs


def _segment_pairs(count, rng):
    """Seeded Omega_psi pairs (i y, eps) near the flat segment, as the
    Omega_psi case study draws them: |y| <= 1.8, eps in [1e-3, 1e-1]."""
    return [tuple(np.array([1j * rng.uniform(-1.8, 1.8),
                            10.0 ** rng.uniform(-3.0, -1.0)])
                  for _ in range(2)) for _ in range(count)]


EXACTNESS_CASES = {
    "ball2": (Ball(2), lambda rng: _deep_pairs(Ball(2), 40, rng)),
    "polydisc2": (Polydisc(2), lambda rng: _deep_polydisc_pairs(40, rng)),
    **{name: (dom, lambda rng, dom=dom: _deep_pairs(dom, 40, rng))
       for name, dom in TUBE_DOMAINS.items() if name != "ball2"},
    "omega-psi-exp": (OmegaPsi(PsiSpec("exp_neg_c_over_x", c=math.pi)),
                      lambda rng: _segment_pairs(16, rng)),
    "omega-psi-logpow": (OmegaPsi(PsiSpec("exp_neg_inv_log_pow", alpha=2.0)),
                         lambda rng: _segment_pairs(8, rng)),
}


def _bits(value):
    return None if value is None else value.hex()


@pytest.mark.parametrize("name", EXACTNESS_CASES)
def test_pair_tube_bound_matches_always_solved_reference(name, monkeypatch):
    # the pre-check only skips solves whose eta would reject: every result,
    # None included, is the always-solved one bit for bit
    domain, draw = EXACTNESS_CASES[name]
    solves = []
    monkeypatch.setattr(
        metric_module, "_dual_disjointness",
        lambda *args: solves.append(1) or _dual_disjointness(*args))
    accepted = 0
    pairs = draw(np.random.default_rng(71))
    for x, y in pairs:
        before = len(solves)
        got = pair_tube_bound(domain, x, y)
        assert _bits(got) == _bits(_pair_tube_reference(domain, x, y))
        accepted += got is not None
        if name.startswith("omega-psi") and all(
                _on_flat_segment(domain, z) for z in (x, y)):
            # both nearest wall points on the flat segment, normals
            # (0, -1): the pre-check settles the pair without a solve
            assert len(solves) == before
    if name == "omega-psi-exp":
        # near the flat segment the pre-check rules out most solves; on
        # the log-power profile the wall rises within eps of most of these
        # pairs, and their tilted contact normals leave the solve to run
        assert 2 * len(solves) < len(pairs)
    elif not name.startswith("omega-psi"):
        assert accepted >= 3              # deep pairs reach the tube


def _on_flat_segment(domain, z) -> bool:
    contact = domain._project(z)[1]
    return not isinstance(contact, Exception) and contact[0].real == 0.0


@pytest.mark.parametrize("name", EXACTNESS_CASES)
def test_lower_bound_matches_unstopped_reference(name, monkeypatch):
    # (best, branches) equals the bound built from two unstopped directional
    # scans and the always-solved tube, bit for bit
    domain, draw = EXACTNESS_CASES[name]
    pairs = draw(np.random.default_rng(73))
    got = [distance_lower_bound_detailed(domain, x, y) for x, y in pairs]
    unstopped = type(domain).directional_distance
    monkeypatch.setattr(
        domain, "directional_distance",
        lambda z, v, stop=-math.inf: unstopped(domain, z, v))
    monkeypatch.setattr(metric_module, "pair_tube_bound",
                        lambda dom, x, y, contacts=None:
                        _pair_tube_reference(dom, x, y))
    for (x, y), (best, branches) in zip(pairs, got):
        ref_best, ref_branches = distance_lower_bound_detailed(domain, x, y)
        assert best.hex() == ref_best.hex()
        assert {k: v.hex() for k, v in branches.items()} == \
            {k: v.hex() for k, v in ref_branches.items()}


def test_lower_bounds_never_exceed_exact_models():
    rng = np.random.default_rng(37)
    domains = [Disc(), Polydisc(2), Ball(2)]
    for dom in domains:
        checked = 0
        while checked < 150:
            z = rng.uniform(-0.9, 0.9, dom.dim) + 1j * rng.uniform(-0.9, 0.9, dom.dim)
            w = rng.uniform(-0.9, 0.9, dom.dim) + 1j * rng.uniform(-0.9, 0.9, dom.dim)
            if not (dom.contains(z) and dom.contains(w)):
                continue
            checked += 1
            exact = dom.exact_distance(z, w)
            assert distance_lower_bound(dom, z, w) <= exact + 1e-10


def test_lower_bound_branches_reported():
    _, branches = distance_lower_bound_detailed(Disc(), [0.0], [0.5])
    assert set(branches) >= {"delta-ratio", "halfplane-projection", "directional"}
    # directional branch on the disc chord: t_x = 1, t_y = 0.5 along (x - y)
    assert branches["directional"] == pytest.approx(0.5 * math.log1p(0.5), abs=1e-9)


def test_lower_bound_nested_inclusion():
    # Ball(2) inside Ellipsoid(1,2): bound for the ellipsoid vs exact ball value
    rng = np.random.default_rng(41)
    ball, ell = Ball(2), Ellipsoid([1.0, 2.0])
    for _ in range(25):
        z = rng.uniform(-0.5, 0.5, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
        w = rng.uniform(-0.5, 0.5, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
        if not (ball.contains(z) and ball.contains(w)):
            continue
        assert distance_lower_bound(ell, z, w) <= ball_distance(z, w) + 1e-10


def test_lower_bound_omega_psi_runs():
    dom = OmegaPsi(PsiSpec("exp_neg_c_over_x", c=math.pi))
    p = np.array([1j, 1e-3])
    o = np.array([0j, 1.0])
    val = distance_lower_bound(dom, p, o)
    # the boundary-distance ratio alone gives ~ 1/2 log(base gap / 1e-3)
    assert val >= 0.5 * math.log(dom.inner_radius_fast(o) / 1e-3) - 1e-9


# ---------------------------------------------------------------------------
# certified uppers
# ---------------------------------------------------------------------------


def segment_upper(domain, a, b):
    """The solver's certified per-segment upper for k(a, b)."""
    a = np.asarray(a, dtype=complex).tolist()
    b = np.asarray(b, dtype=complex).tolist()
    return max(domain._terms(a, b, domain._node(a)[1], domain._node(b)[1]))


def test_segment_upper_models_exact():
    # the models' segment kernel and their collapsed bracket are the exact
    # pair distance: artanh(1/2) on the disc, log 19 on the ball diameter
    for dom, a, b, exact in ((Disc(), [0.0], [0.5], disc_distance(0, 0.5)),
                             (Ball(2), [0.9, 0], [-0.9, 0], math.log(19.0))):
        assert segment_upper(dom, a, b) == pytest.approx(exact, abs=1e-12)
        br = distance_bracket(dom, a, b)
        assert br.lower == br.upper == pytest.approx(exact, abs=1e-12)


def test_segment_upper_generic_touching_disc():
    ell = Ellipsoid([1.0, 2.0])
    up = segment_upper(ell, [0.0, 0.0], [0.2, 0.0])
    assert up == pytest.approx(math.atanh(0.2), abs=1e-12)  # inner radius 1 at 0
    # both endpoints have inner radius 0.5 < separation 1.0: no certificate
    assert segment_upper(ell, [0.5, 0.0], [-0.5, 0.0]) == math.inf
    # the chain upper halves the chord until each piece certifies
    br = distance_bracket(ell, [0.0, 0.0], [0.2, 0.0])
    assert br.upper == pytest.approx(math.atanh(0.2), abs=1e-12)


def test_distance_bracket_models_degenerate():
    br = distance_bracket(Ball(2), [0.5, 0.1], [-0.2, 0.3])
    assert br.lower == br.upper == ball_distance([0.5, 0.1], [-0.2, 0.3])
    br = distance_bracket(Disc(), [0.2], [0.7j])
    assert br.width == 0.0


def test_distance_bracket_checks_points_first():
    # the closed-form shortcut must not drop or misread coordinates
    with pytest.raises(GeometryError, match="dimension"):
        distance_bracket(Disc(), [0.0, 0.9], [0.5, 0.95])
    with pytest.raises(GeometryError, match="dimension"):
        distance_bracket(Ball(2), [0.5], [0.0])
    with pytest.raises(GeometryError, match="not in the domain"):
        distance_bracket(Ball(2), [0.9, 0.9], [0.0, 0.0])


def test_distance_bracket_generic_orders():
    ell = Ellipsoid([1.0, 2.0])
    x, y = np.array([0.5, 0.0]), np.array([-0.5, 0.5j])
    br = distance_bracket(ell, x, y)
    assert 0.0 < br.lower <= br.upper
    # the ellipsoid contains Ball(2) and sits inside Polydisc-like boxes, so
    # sandwich against the exact ball value from the inside
    assert br.upper >= ball_distance(x, y) * 0.0  # sanity: non-negative
    assert br.lower <= ball_distance(x, y) + 1e-10  # Ball(2) inside ellipsoid


@pytest.mark.parametrize("x, y", [
    ((1e-17, 0.5), (0.3, -0.5)),
    ((1e-17, 0.5), (-0.2 + 0.1j, 0.9j)),
    ((2e-17, 0.8j), (0.1j, -1.0)),
    ((1e-17j, -0.7j), (0.5, 0.1)),
    ((5e-17, -0.3j), (0.4, 0.2)),
])
def test_ellipsoid_bracket_with_tiny_minimal_axis_coordinate(x, y):
    # z -> (z_j / a_j) maps the ellipsoid onto the unit ball, so its exact
    # distance is the ball distance of the rescaled points; a first
    # coordinate far below 1e-16 on the minimal axis must leave the
    # projection, and so the certified lower side, where the axis puts it
    a = np.array([1.0, 2.0])
    x, y = np.array(x, dtype=complex), np.array(y, dtype=complex)
    ell = Ellipsoid(a)
    assert ell.boundary_distance(x) == pytest.approx(
        ell.boundary_distance(np.array([0.0, x[1]])), rel=1e-12)
    br = distance_bracket(ell, x, y)
    assert br.contains(ball_distance(x / a, y / a))


class _CountingNodes:
    """A domain that records every point its kernels' node sees."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = []

    def _node(self, z):
        self.seen.append(np.asarray(z, dtype=complex).tobytes())
        return super()._node(z)


class _CountingEllipsoid(_CountingNodes, Ellipsoid):
    pass


class _CountingOmegaPsi(_CountingNodes, OmegaPsi):
    pass


def _assert_one_node_per_point(dom, x, y):
    # the chord asks the kernels' node once per point it visits
    a = np.array(x, dtype=complex).tolist()
    b = np.array(y, dtype=complex).tolist()
    upper = _certified_chain_upper(dom, a, b, dom._node(a)[1], dom._node(b)[1])
    assert math.isfinite(upper)
    assert len(dom.seen) > 10        # the segment was subdivided
    assert len(dom.seen) == len(set(dom.seen))


def test_chain_upper_one_inner_radius_per_point():
    _assert_one_node_per_point(_CountingEllipsoid([1.0, 2.0]),
                               [0.95, 0.0], [0.9j, 0.3])


def test_chain_upper_one_node_per_point_on_omega_psi():
    _assert_one_node_per_point(_CountingOmegaPsi(PsiSpec("exp_neg_c_over_x")),
                               [0.9j, 0.05], [0.2 + 0.3j, 0.1 + 0.05j])


class _ScaledKernelEllipsoid(Ellipsoid):
    """An ellipsoid whose segment terms are the generic ones times 1.5,
    still certified uppers, only looser."""

    def _terms(self, a, b, fa, fb):
        return [1.5 * t for t in super()._terms(a, b, fa, fb)]


def test_chord_upper_reads_the_segment_kernels():
    # the chord's pieces cost the domain's own segment terms, so a domain
    # that changes its terms moves distance_bracket's upper with them
    x, y = _P(0.0, 0.0), _P(0.2, 0.0)
    plain = distance_bracket(Ellipsoid([1.0, 2.0]), x, y)
    scaled = distance_bracket(_ScaledKernelEllipsoid([1.0, 2.0]), x, y)
    assert plain.upper == pytest.approx(math.atanh(0.2), abs=1e-12)
    assert scaled.upper == 1.5 * plain.upper
    assert scaled.lower == plain.lower


def _P(*coords):
    return np.array(coords, dtype=complex)


# pairs near the flat segment of Omega_psi (exp(-pi/x)) and the distance
# upper of the product domain inside it (``omega_psi_inner_upper`` of
# bench/refs.py), before the kernel took the line radius the chord upper
# was 105.6, 1931 and 309
SEGMENT_PAIRS = [
    (_P(0.5j, 1e-2), _P(-0.5j, 1e-2), 1.30643),
    (_P(0.9j, 1e-3), _P(-0.9j, 1e-3), 3.55857),
    (_P(1.5j, 1e-3), _P(1.2j, 1e-3), 0.60186),
]


@pytest.mark.parametrize("x,y,inner_upper", SEGMENT_PAIRS)
def test_chord_upper_near_the_flat_segment(x, y, inner_upper):
    # the touching disc in the segment's complex line keeps the chord upper
    # within 1.25 times the inner-domain upper, and above the lower
    br = distance_bracket(OmegaPsi(PsiSpec("exp_neg_c_over_x")), x, y)
    assert br.lower <= br.upper <= 1.25 * inner_upper


# float.hex of (lower, upper) of distance_bracket, recorded before the chord
# upper handed each midpoint's inner radius down the recursion and before
# OmegaPsi tested ray probes on plain floats; both kept every bit.  The
# uppers were re-recorded, 8 to 30 ulps higher, when the chord's
# touching-disc terms and the sum of its halves began to round up; the
# chord splits into the same pieces and the lowers kept every bit.  The
# Omega_psi uppers but one were re-recorded again, 1.46 to 451 times lower,
# when the generic kernel's touching disc took the line radius in the
# segment's own complex line; the lowers kept every bit.  The lowers of
# dom0, dom1 and dom4 were re-recorded, each below its 50-digit exact
# distance, when the pair-tube dual took its maximum from four closed-form
# candidates and the tube's gaps and logs began to round outward; every
# upper kept its bits.  The lowers won by the directional branch (dom5 to
# dom7, dom9 and dom10) were re-recorded, each lower than before, when that
# branch began to round down, the ellipsoid's directional distance to
# round up and the Omega_psi phase scan to read 16 phases of outer ray ends
# without a polish; every upper kept its bits.  The lowers of dom9 and
# dom11 were re-recorded, each higher than before and below the
# inner-domain upper of bench/refs.py, when the Omega_psi wall projection
# began to find the nearest wall point: their half-plane contacts moved
# from the vertical foot onto the rising log-power wall.
BRACKET_PINS = [
    (Ellipsoid([1.0, 2.0]), _P(0.95, 0), _P(0.9j, 0.3),
     "0x1.2166a535d5a12p+1", "0x1.99f594083ac18p+2"),
    (Ellipsoid([1.0, 2.0]), _P(0.5, 1.5j), _P(-0.5, 1.6),
     "0x1.d5aff10275df2p+0", "0x1.2d896dfec5600p+3"),
    (Ellipsoid([1.0, 2.0]), _P(0.0, 0.1), _P(0.2j, 0.05),
     "0x1.c78bd5b2714eap-4", "0x1.c39b8ce297610p-3"),
    (Ellipsoid([1.0, 1.5, 3.0]), _P(0.9, 0, 0), _P(0, 1.3, 0.5j),
     "0x1.26bb1bbb55516p+0", "0x1.a359b56420826p+2"),
    (Ellipsoid([1.0, 1.5, 3.0]), _P(0.1, 0.2j, 2.8), _P(0, 0, -2.9),
     "0x1.6b0ea4c176edbp+1", "0x1.2e82f71bf2658p+4"),
    (Ellipsoid([1.0, 1.5, 3.0]), _P(0.3, 0.3, 0.3), _P(0.2j, -0.4, 1.0),
     "0x1.4b8c68a46559ep-2", "0x1.98a144b0011dep+0"),
    (OmegaPsi(PsiSpec("exp_neg_c_over_x")), _P(0.5j, 1e-2), _P(-0.5j, 1e-2),
     "0x1.ce1a66983778ep-2", "0x1.899142e8fd2c6p+0"),
    (OmegaPsi(PsiSpec("exp_neg_c_over_x")), _P(1.5j, 1e-3), _P(1.2j, 1e-3),
     "0x1.036154565cadap-2", "0x1.5edfe7f53beefp-1"),
    (OmegaPsi(PsiSpec("exp_neg_c_over_x")), _P(0.9j, 0.05),
     _P(0.2 + 0.3j, 0.1 + 0.05j),
     "0x1.ecc2caec5160bp-2", "0x1.2cb20cafafd56p+3"),
    (OmegaPsi(PsiSpec("exp_neg_inv_log_pow", alpha=2.0)), _P(0.5j, 1e-2),
     _P(-0.3j, 2e-2), "0x1.0bcb9a79cf26fp+2", "0x1.148299376390ep+6"),
    (OmegaPsi(PsiSpec("exp_neg_inv_log_pow", alpha=2.0)), _P(1.7j, 1e-3),
     _P(1.75j, 2e-3), "0x1.19545db143ac2p+0", "0x1.21eb5b0cc9e12p+3"),
    (OmegaPsi(PsiSpec("exp_neg_inv_log_pow", alpha=2.0)), _P(0.001, 0.05),
     _P(-0.3j, 0.1), "0x1.276c419ded25ep+1", "0x1.57c712ab1599ap+3"),
]


@pytest.mark.parametrize("dom,x,y,lower,upper", BRACKET_PINS)
def test_distance_bracket_pinned_bit_for_bit(dom, x, y, lower, upper):
    br = distance_bracket(dom, x, y)
    assert (br.lower.hex(), br.upper.hex()) == (lower, upper)


# a window about (0.3, 0.1i) of radius 0.6 lies inside both bases, so both
# brackets are the window ball's; its chord runs through
# ``LocalizedDomain._node``, the min of the base's node radius and the
# window gap
@pytest.mark.parametrize("base", [Ball(2), Ellipsoid([1.0, 2.0])],
                         ids=["ball", "ellipsoid"])
def test_localized_bracket_pinned_bit_for_bit(base):
    dom = LocalizedDomain(base, [0.3, 0.1j], 0.6)
    br = distance_bracket(dom, _P(0.35, 0.15j), _P(0.1 + 0.1j, 0.2))
    assert (br.lower.hex(), br.upper.hex()) == ("0x1.a6b2d17a85381p-2",
                                                "0x1.9053f05ed6362p-1")


def test_bracket_type_validation():
    with pytest.raises(GeometryError):
        MetricBracket(2.0, 1.0)
    with pytest.raises(GeometryError):
        MetricBracket(-1.0, 1.0)


# ---------------------------------------------------------------------------
# special geometry values
# ---------------------------------------------------------------------------


def test_halfplane_hole_distance():
    assert halfplane_hole_distance(0.01, 1.0) == pytest.approx(
        math.log(10.0), abs=1e-12)
    assert halfplane_hole_distance(0.5, 1.0) == pytest.approx(
        0.5 * math.log(2.0), abs=1e-13)
    for delta in (1e-1, 1e-2, 1e-3, 0.37):
        # exact cancellation identity
        assert halfplane_hole_distance(delta, 1.0) + 0.5 * math.log(delta) == 0.0
    with pytest.raises(GeometryError):
        halfplane_hole_distance(1.0, 0.5)
    with pytest.raises(GeometryError):
        halfplane_hole_distance(0.5, 0.5)



def test_lower_bound_on_a_subnormal_chord():
    # y - x = (0, 5e-324) squares to 0, so the chord has no direction to
    # scan: the directional branch is left out instead of raising
    x = np.array([0.9j, 0j])
    y = np.array([0.9j, 5e-324 + 0j])
    best, branches = distance_lower_bound_detailed(Ball(2), x, y)
    assert "directional" not in branches
    assert 0.0 <= best <= 1e-300
