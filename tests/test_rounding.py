"""Outward rounding of the model closed forms and of the solver's uppers,
against 50-digit mpmath references computed apart from koblab."""

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from koblab.geometry import Ball, Disc, Polydisc
from koblab.solver import SolverConfig, solve_geodesic

DIGITS = 50


def _mpc(z):
    z = complex(z)
    return mpmath.mpc(z.real, z.imag)


def mp_disc(a, b):
    """artanh of the Moebius ratio, at 50 digits."""
    with mpmath.workdps(DIGITS):
        a, b = _mpc(a), _mpc(b)
        return mpmath.atanh(abs(a - b) / abs(1 - mpmath.conj(a) * b))


def mp_ball(z, w):
    """artanh sqrt(1 - (1-|z|^2)(1-|w|^2)/|1-<z,w>|^2), at 50 digits."""
    with mpmath.workdps(DIGITS):
        z, w = [_mpc(c) for c in z], [_mpc(c) for c in w]
        nz = sum(abs(c) ** 2 for c in z)
        nw = sum(abs(c) ** 2 for c in w)
        inner = sum(a * mpmath.conj(b) for a, b in zip(z, w))
        ratio = (1 - nz) * (1 - nw) / abs(1 - inner) ** 2
        return mpmath.atanh(mpmath.sqrt(max(mpmath.mpf(0), 1 - ratio)))


def mp_distance(domain, x, y):
    if isinstance(domain, Ball):
        return mp_ball(x, y)
    return max(mp_disc(a, b) for a, b in zip(x, y))


# ---------------------------------------------------------------------------
# the closed forms stay within their derived error bound
# ---------------------------------------------------------------------------

depths = st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e)
coords = st.floats(-1.0, 1.0)


@st.composite
def unit_vectors(draw, dim):
    v = np.array([complex(draw(coords), draw(coords)) for _ in range(dim)])
    norm = float(np.linalg.norm(v))
    assume(norm > 0.1)
    return v / norm


@st.composite
def model_pairs(draw, domain):
    """Pairs at depths 1e-12 to 1; a near pair sits within a fraction of
    the first point's depth, where 1 - |z|^2 cancels."""
    # the ball is one round body; the disc and polydisc go by coordinate
    blocks = [domain.dim] if isinstance(domain, Ball) else [1] * domain.dim
    x, y = [], []
    for k in blocks:
        dx = draw(depths)
        x0 = (1.0 - dx) * draw(unit_vectors(k))
        if draw(st.booleans()):
            y0 = x0 + draw(st.floats(0.0, 0.9)) * dx * draw(unit_vectors(k))
        else:
            y0 = (1.0 - draw(depths)) * draw(unit_vectors(k))
        x.extend(x0)
        y.extend(y0)
    return np.array(x), np.array(y)


MODELS = [Disc(), Polydisc(2), Ball(2), Ball(3)]


@pytest.mark.parametrize("domain", MODELS,
                         ids=[f"{type(d).__name__}{d.dim}" for d in MODELS])
@given(data=st.data())
def test_closed_form_within_derived_bound(domain, data):
    x, y = data.draw(model_pairs(domain))
    point, node = domain.segment_kernels()[:2]
    delta = min(node(point(x))[0], node(point(y))[0])
    assume(delta > 0.0)
    got = domain.exact_distance(x, y)
    with mpmath.workdps(DIGITS):
        err = abs(mpmath.mpf(got) - mp_distance(domain, x, y))
    assert err <= domain.exact_error(got, delta)


# ---------------------------------------------------------------------------
# default-config solver uppers stay above the distance
# ---------------------------------------------------------------------------

# pairs on which the default solver converges to within ~1e-14 of the
# distance, so an unrounded segment sum lands below it
DEFAULT_FAULTS = (
    (Disc(), ((-0.7991380764896782 + 0.6009476534841287j),),
     ((0.15135444827702565 - 0.6841758347650428j),)),
    (Disc(), ((0.9620252966857937 + 0.27216100101151824j),),
     ((-0.9983644225319301 - 0.044707268084244495j),)),
    (Polydisc(2), ((0.8251957778387488 + 0.1745492107499727j),
                   (0.004367665462578808 + 0.999584025781447j)),
     ((0.6339952469263512 + 0.4456091778925824j),
      (-0.9994604436991741 + 0.02962781076663186j))),
    (Polydisc(2), ((0.327504479230309 - 0.5693479892585039j),
                   (-0.999788752463713 + 0.013945492716075234j)),
     ((-0.28990183045602125 - 0.6079461360905764j),
      (0.4275383408857966 - 0.8506030588234355j))),
)


@pytest.mark.parametrize("domain, x, y", DEFAULT_FAULTS)
def test_default_solver_upper_at_or_above_distance(domain, x, y):
    res = solve_geodesic(domain, np.array(x), np.array(y), SolverConfig())
    k = mp_distance(domain, x, y)
    assert res.distance.upper >= k
    assert res.distance.lower <= k
    # the rounding stays far below the solver's own tolerance
    assert float(res.distance.upper - k) < 1e-9 * float(k)
