"""Convex domains in C^n with certified boundary queries.

Everything downstream (distance brackets, geodesic search, visibility
probes) reduces to a handful of geometric primitives on an open convex
domain D:

* membership,
* Euclidean distance to the boundary,
* directional distance ``delta(z; v) = sup { r : z + lam*v in D for |lam| < r }``,
  the radius of the largest round complex disc through ``z`` in direction ``v``,
* nearest boundary point and the outward normal of a supporting hyperplane,
* the iterated minimal basis at a point: take the contact direction of the
  nearest boundary point, slice the domain by the orthogonal complement of
  that complex line, and repeat in the slice.

Model domains (disc, half-plane, polydisc, ball, ellipsoid) implement these
with closed forms.  The four Kobayashi models (disc, half-plane, polydisc,
ball) also carry their closed-form distance, and the bounded three
closed-form segment terms for the geodesic solver, through the
``Domain`` protocol.  The graph-type domain used in the flat-boundary
experiments falls back to generic ray machinery with bisection along each
ray, and so does the iterated minimal basis past its first contact on
such a domain: the later slice of a 2-dimensional domain is the
directional phase scan.  Those code paths carry self-checks in the test
suite instead of closed-form guarantees.
"""

from __future__ import annotations

import functools
import heapq
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class GeometryError(ValueError):
    """Raised for invalid geometric inputs (outside point, bad dimension...)."""


class AmbiguousProjectionError(GeometryError):
    """Raised when a nearest-boundary-point query has no unique answer."""


# ---------------------------------------------------------------------------
# points and vectors
# ---------------------------------------------------------------------------


def as_carray(x) -> np.ndarray:
    """Coerce a point/vector (sequence or scalar) to a complex array.

    A complex entry is finite only when both of its parts are, so
    ``isfinite`` on the complex array itself rejects inf or nan in either.
    """
    arr = np.asarray(x, dtype=complex)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    elif arr.ndim > 1:
        raise GeometryError(f"expected a 1-d complex point, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise GeometryError("point has non-finite entries")
    return arr


def to_pairs(z) -> list:
    """Serialize a complex point as [[re, im], ...] pairs."""
    arr = as_carray(z)
    return [[float(c.real), float(c.imag)] for c in arr]


def from_pairs(pairs: Sequence) -> np.ndarray:
    """Parse [[re, im], ...] pairs into a complex array."""
    out = []
    for p in pairs:
        if not isinstance(p, (list, tuple)) or len(p) != 2:
            raise GeometryError(f"coordinate pair must have 2 entries, got {p!r}")
        out.append(complex(_json_number(p[0], "coordinate"),
                           _json_number(p[1], "coordinate")))
    return np.array(out, dtype=complex)


def _lex_key(z: np.ndarray):
    """Lexicographic key on the (re, im, re, im, ...) expansion of a point."""
    key = []
    for c in z:
        key.extend([round(c.real, 12), round(c.imag, 12)])
    return tuple(key)


def real_view(z: np.ndarray) -> np.ndarray:
    """Flat real view (re1, im1, re2, im2, ...) of a complex vector."""
    out = np.empty(2 * len(z))
    out[0::2] = z.real
    out[1::2] = z.imag
    return out


def complex_view(u: np.ndarray) -> np.ndarray:
    """Inverse of :func:`real_view`."""
    u = np.asarray(u, dtype=float)
    return u[0::2] + 1j * u[1::2]


# ---------------------------------------------------------------------------
# minimal basis result
# ---------------------------------------------------------------------------


@dataclass
class MinimalBasisResult:
    """Iterated contact directions at a point.

    ``basis`` rows are the orthonormal directions e_1..e_n, ``taus`` the
    slice-by-slice boundary distances (non-decreasing), ``contacts`` the
    boundary contact points realizing each tau.
    """

    basis: np.ndarray
    taus: np.ndarray
    contacts: np.ndarray

    def coordinates(self, w, origin) -> np.ndarray:
        """Components of w - origin in the basis (Hermitian inner products)."""
        diff = as_carray(w) - as_carray(origin)
        return self.basis.conj() @ diff

    def orthonormality_defect(self) -> float:
        gram = self.basis @ self.basis.conj().T
        return float(np.max(np.abs(gram - np.eye(len(self.taus)))))


# ---------------------------------------------------------------------------
# generic ray machinery
# ---------------------------------------------------------------------------

_DIRECTION_SEED = 91261
_RAY_REL_TOL = 1e-9     # relative width at which ray_exit stops bisecting
_SCAN_PHASES = 16       # phases _phase_search samples


def _unit_directions(dim_real: int, count: int) -> np.ndarray:
    """A fixed, deterministic set of unit directions in R^dim_real."""
    rng = np.random.default_rng(_DIRECTION_SEED + 1000 * dim_real + count)
    dirs = rng.standard_normal((count, dim_real))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return dirs


def ray_exit(
    inside: Callable[[float], bool],
    hi_cap: float,
    floor: float = math.inf,
) -> float:
    """sup { t > 0 : inside(t) } for a predicate true on an interval [0, T).

    ``inside`` is usually ``domain.ray(z, u)`` with u a unit vector: whether
    z + t*u lies in a convex domain holding z (``_contains(z + t*u)`` by
    default, a plain-float test on ``OmegaPsi``; see :meth:`Domain.ray`).
    The exit time is capped at ``hi_cap``: a doubling search brackets it,
    then bisection narrows the bracket [lo, hi] to relative width
    ``_RAY_REL_TOL`` and returns its outer end ``hi``, a probe that
    ``inside`` rejected.  For a predicate true exactly on [0, T) that end
    is at or past T, so a minimum of such ends over rays is an upper bound
    on the least exit time among them.  The cap is returned as it is when
    ``inside(hi_cap)`` holds, so callers pass a cap past every exit: a ray
    from z leaves a domain within radius R of the origin by t = R + |z|.

    ``floor`` lets a caller that wants only exits at most ``floor`` stop
    early: the probes are the same and in the same order, but the search
    returns ``lo`` as soon as the inside end ``lo`` exceeds ``floor``.  The
    cut is exact.  ``lo`` never decreases, and both full returns, ``hi``
    and ``hi_cap``, exceed every inside probe, ``lo`` included, so the
    full search would also end strictly above ``floor``.  A result at most
    ``floor`` is the full search's, bit for bit; a larger one only says
    the full search ends above ``floor``.
    """
    lo = 0.0
    hi = min(1e-3 * max(hi_cap, 1.0), hi_cap)
    while inside(hi):
        lo = hi
        if lo > floor:
            return lo
        hi *= 2.0
        if hi >= hi_cap:
            if inside(hi_cap):
                return hi_cap
            hi = hi_cap
            break
    while hi - lo > _RAY_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
            if lo > floor:
                return lo
        else:
            hi = mid
    return hi


@functools.cache
def _coarse_to_fine(count: int) -> tuple:
    """The indices 0..count-1 in bit-reversed order (0, 32, 16, 48, 8, ...
    for 64), so that equally spaced samples fill the circle evenly."""
    bits = max(count - 1, 0).bit_length()
    return tuple(sorted(range(count),
                        key=lambda i: format(i, f"0{bits}b")[::-1]))


def _first_shortest_exit(rays: Sequence[Callable[[float], bool]],
                         cap: float, stop: float = -math.inf) -> tuple:
    """(t, k): the least ``ray_exit(rays[k], cap)`` and the first index k
    that attains it, as ``np.argmin`` would pick over the full list.

    Rays are visited coarse to fine (:func:`_coarse_to_fine`) and each
    bisection gets the running minimum as its ``floor``, so a ray that
    cannot beat it stops as soon as it is known to exit later.  The cut
    is exact (see :func:`ray_exit`), so t and k are those of the unpruned
    loop; ties go to the smaller index whatever the visiting order.

    ``stop`` lets a caller that only needs to know whether the least exit
    is above ``stop`` return as soon as the running minimum is at most
    ``stop``; the rays left are not visited.  The running minimum only
    falls, so such a t at most ``stop`` says only that the full loop's t
    is at most ``stop`` too (and its k is then the running one, not the
    full loop's).  A t above ``stop`` comes from the full loop, bit for
    bit, with its k.
    """
    best, k = math.inf, -1
    for i in _coarse_to_fine(len(rays)):
        t = ray_exit(rays[i], cap, floor=best)
        if t < best or (t == best and i < k):
            best, k = t, i
            if best <= stop:
                break
    return best, k


def _phase_search(domain: "Domain", z: np.ndarray, v: np.ndarray,
                  stop: float = -math.inf) -> tuple:
    """``(t, u)``: the shortest exit from z over ``_SCAN_PHASES`` phases of
    the complex line z + C v, and the unit direction u = e^(i theta) v / |v|
    whose ray exits at t, so z + t*u is the line's sampled nearest
    boundary point.

    The slice D cap (z + C v) is a planar convex region containing 0; its
    boundary distance from 0, the directional distance delta(z; v), is the
    minimum over all phases of the ray exit time.  Each exit time bisects
    ``domain.ray(z, u)`` (:meth:`Domain.ray`) and reads the outer end of
    its bracket (:func:`ray_exit`), a point outside D.  So t, a minimum of
    outer ends over some of the phases, is at least delta(z; v): an upper
    bound, the side the directional lower bound
    1/2 log(1 + |x - y|/t) needs.  No search refines t between the phases:
    on the Omega_psi case study a Brent polish doubled the probes for a
    lower bound about 1e-4 nat tighter.

    The equally spaced phases are searched by :func:`_first_shortest_exit`:
    coarse to fine, each bisection stopped once it is known to exit after
    the running minimum.  The minimum and its phase (the first on a tie,
    as ``np.argmin`` picks) are those of the full scan, bit for bit.

    ``stop`` is for callers that keep t only when it exceeds ``stop`` (a
    running maximum, say).  The search returns as soon as its running
    minimum is at most ``stop``, skipping the phases left, so the full
    search's t is at most ``stop`` too.  A t at most ``stop`` says only
    that; a t above ``stop`` is the full search's, bit for bit, and so is
    its u.  The default never stops.
    """
    v = v / np.linalg.norm(v)
    cap = 4.0 * domain.bounding_radius + float(np.linalg.norm(z)) + 1.0
    thetas = np.linspace(0.0, 2.0 * math.pi, _SCAN_PHASES, endpoint=False)
    best, k = _first_shortest_exit(
        [domain.ray(z, np.exp(1j * theta) * v) for theta in thetas], cap, stop)
    return best, np.exp(1j * thetas[k]) * v


def _null_basis(u: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the orthogonal complement of unit u in C^m."""
    m = len(u)
    if m == 1:
        return np.zeros((1, 0), dtype=complex)
    # Householder-style: complete u to a unitary deterministically.
    mat = np.eye(m, dtype=complex)
    mat[:, 0] = u
    q, _ = np.linalg.qr(mat)
    # first column of q is u up to phase; fix the phase so q[:,0] == u
    phase = np.vdot(q[:, 0], u)
    q[:, 0] *= phase / abs(phase)
    return q[:, 1:]


def _lex_smallest_on_sphere(z0: np.ndarray, cols: np.ndarray, radius: float) -> np.ndarray:
    """Lexicographically smallest point of { z0 + radius * cols @ u : |u| = 1 }.

    The (re, im)-lexicographic order is decided by the first ambient
    coordinate the sphere actually moves; the minimizer of that linear
    functional on the sphere is unique, so the greedy choice settles it.
    """
    for j in range(cols.shape[0]):
        row = cols[j, :]
        nrm = float(np.linalg.norm(row))
        if nrm > 1e-13:
            u = -np.conj(row) / nrm
            return z0 + radius * (cols @ u)
    return z0 + radius * cols[:, 0]


# ---------------------------------------------------------------------------
# the domain interface
# ---------------------------------------------------------------------------


class Domain:
    """An open convex domain in C^n.

    The public primitives (``contains``, ``inner_radius_fast``,
    ``boundary_distance``, ``directional_distance``,
    ``nearest_boundary_point``, ``supporting_normal``) are defined here
    only.  Each converts and checks its input once: a finite point of the
    domain's dimension, an interior one where the primitive needs it, a
    finite nonzero direction.  It then calls the private method of the
    same name (``_contains``, ``_project``, ...), which each domain
    supplies with the geometry alone, on the checked complex array.  The
    two boundary queries share one: ``boundary_distance`` and
    ``nearest_boundary_point`` read the distance and the contact of the
    domain's one metric projection ``_project``.  ``inner_radius_fast``
    reads the radius of the domain's segment-kernel node ``_node``, the
    one radius per domain; on the models and the ellipsoid, ``_contains``
    reads the same formula, so it holds exactly where that radius is > 0.

    ``exact`` marks the model domains: their Kobayashi distance has a
    closed form, which their segment terms call, and
    ``exact_error(d, delta)`` bounds the distance's rounding error, delta
    the pair's smaller node radius.
    """

    dim: int
    bounding_radius: float
    exact = False

    # -- the public primitives -----------------------------------------------

    def contains(self, z) -> bool:
        """Whether z lies in the (open) domain."""
        return self._contains(self._point(z))

    def inner_radius_fast(self, z) -> float:
        """A cheap certified lower bound for boundary_distance (may be
        exact) at an interior point, and <= 0 outside: for a finite point
        of the domain's dimension it never raises, and it is > 0 only
        where ``contains`` holds."""
        return self._inner_radius(self._point(z))

    def boundary_distance(self, z) -> float:
        """Euclidean distance from an interior point to the boundary."""
        return self._project(self._interior(z))[0]

    def directional_distance(self, z, v, stop: float = -math.inf) -> float:
        """Radius of the largest complex disc through z in direction v/|v|.

        ``stop`` is an exact early exit for callers that keep the result
        only when it exceeds ``stop``: a result above ``stop`` is the
        unstopped one, bit for bit, and a result at most ``stop`` says only
        that the unstopped one is at most ``stop`` as well.  The phase scan
        (:func:`_phase_search`) uses it to skip work; the closed forms
        ignore it.
        """
        return self._directional_distance(self._interior(z),
                                          self._direction(v), stop)

    def nearest_boundary_point(self, z) -> np.ndarray:
        """The boundary point nearest to interior z; raises
        ``AmbiguousProjectionError`` where it is not unique."""
        contact = self._project(self._interior(z))[1]
        if isinstance(contact, AmbiguousProjectionError):
            raise contact
        return contact

    def supporting_normal(self, b) -> np.ndarray:
        """Outward unit normal of a supporting hyperplane at boundary point b."""
        return self._supporting_normal(self._point(b))

    # -- the per-domain geometry, on checked complex arrays ---------------------

    def _contains(self, z: np.ndarray) -> bool:
        raise NotImplementedError

    def _inner_radius(self, z: np.ndarray) -> float:
        """The radius of :meth:`_node` at the array's list: the domain's one
        radius, which its segment terms read too."""
        return self._node(z.tolist())[0]

    def _project(self, z: np.ndarray) -> tuple:
        """``(distance, contact)``: the metric projection of interior z onto
        the boundary.  ``distance`` is the Euclidean boundary distance and
        ``contact`` the nearest boundary point, or, where that point is not
        unique, an ``AmbiguousProjectionError`` returned rather than raised,
        so the distance still reads."""
        raise NotImplementedError

    def _directional_distance(self, z: np.ndarray, v: np.ndarray,
                              stop: float = -math.inf) -> float:
        return _phase_search(self, z, v, stop)[0]

    def _supporting_normal(self, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def ray(self, z: np.ndarray, u: np.ndarray) -> Callable[[float], bool]:
        """The predicate ``inside(t)``: whether z + t*u lies in the domain.

        ``z`` and ``u`` are complex arrays of the domain's dimension.  The
        generic ray machinery (:func:`ray_exit` and its callers) bisects
        this predicate, so a domain can set up each ray once instead of
        building a numpy array per probe.  The default is
        ``_contains(z + t*u)``.

        Only ``OmegaPsi`` overrides it: the models and the ellipsoid answer
        directional queries in closed form, and Omega_psi is the domain
        whose directional distances and contacts run through the ray
        machinery in bulk.  Its ``ray`` converts z and u to Python complex
        once and gives the same answer as ``contains`` on every t.
        ``LocalizedDomain``, which maps a point before testing it, keeps
        the default: mapping z and u apart rounds differently from mapping
        z + t*u, so its exit times would move in the last bits.
        """
        return lambda t: self._contains(z + t * u)

    # -- closed forms and segment kernels ---------------------------------------
    #
    # ``_node`` and ``_terms`` are the segment kernels: the one source of a
    # segment's certified upper.  The descent of
    # :func:`koblab.solver.solve_geodesic` and the subdivided chord of
    # :func:`koblab.metric.distance_bracket` both call them, on points given
    # as ``ndarray.tolist()``, lists of Python complex numbers, so they run
    # on plain floats with no numpy scalar or temporary in the loop; a
    # domain that changes its terms changes both uppers.  They keep no state
    # that changes an answer: a node depends only on its point and a term
    # only on its endpoints and their factors (Omega_psi's line-radius memo
    # caches a pure function of its key).  A visit of the descent to a
    # control point therefore reads only that point, its two neighbours and
    # the step, which is what lets the descent skip the visits of settled
    # points exactly.

    def exact_distance(self, x: np.ndarray, y: np.ndarray):
        """Closed-form Kobayashi distance between interior points, or None."""
        return None

    def _node(self, z: list, f=None, slot: int = 0) -> tuple:
        """``(radius, factor)`` at the list of Python complex ``z``: the
        domain's one cheap interior radius, <= 0 outside, and the point's
        share of every segment term it enters, computed once per point so
        that no term recomputes it.  Where the radius is > 0 the factor is
        the one the terms need at an interior point.

        The radius is what ``inner_radius_fast`` returns (see
        :meth:`_inner_radius`).  The factors: 1 - |z_j|^2 per coordinate on
        the disc and the polydisc, from the same ``abs`` as the radius;
        1 - |z|^2 on the ball, from the one sum that also gives the radius;
        on Omega_psi, the plain floats its line radius reads; the radius
        itself elsewhere.

        Given ``f``, the factor of a point that ``z`` differs from in
        coordinate ``slot`` only (a probe of the geodesic descent), a
        domain may reuse the shares of the unmoved coordinates; the answer
        is the same, bit for bit.  Only the polydisc does
        (:meth:`Polydisc._node`); every other node reads the whole point.
        """
        raise NotImplementedError

    def _terms(self, a: list, b: list, fa, fb, T=None, slot: int = 0) -> list:
        """The nonnegative terms of the segment [a, b], given interior
        endpoints and their node factors.  The max of the terms is the
        certified upper for k(a, b), inf when it cannot certify (on models,
        the closed form up to ``exact_error``); their euclidean norm is the
        search objective.  The polydisc has one term per coordinate, its
        disc distance; every other domain has a single term, which both
        reductions return unchanged.

        Given ``T``, the segment's terms before coordinate ``slot`` of one
        endpoint moved, a domain may recompute only the term that
        coordinate enters; the answer is the same, bit for bit, and ``T``
        is left as it was.  Only the polydisc does (:meth:`Polydisc._terms`);
        a single term is recomputed whole.

        Here the single term is the rounded-up touching-disc bound
        :func:`_touching_disc_upper`, on the real and imaginary parts of
        b - a (:func:`_difference_parts`), at t = max(fa, fb), the larger
        node radius.  Omega_psi also takes the line radius of each end
        (:meth:`OmegaPsi._terms`).
        """
        return [_touching_disc_upper(_difference_parts(a, b), max(fa, fb))]

    # -- boundary structure --------------------------------------------------

    def minimal_basis(self, z) -> MinimalBasisResult:
        """The iterated minimal basis at interior z.

        Stage 0 takes the nearest boundary point of z from :meth:`_project`
        (an ambiguous contact raises).  Stage k >= 1 takes the nearest
        boundary contact of the slice { z + cols @ w } (``cols`` an
        orthonormal basis of the complement of the first k directions)
        from :meth:`_slice_contact`.  Each stage records
        e_k = (contact - z) / tau_k and cuts e_k out of ``cols``.  This loop
        is the only one; domains differ only in how they find a slice's
        contact.
        """
        z = self._interior(z)
        n = self.dim
        basis = np.zeros((n, n), dtype=complex)
        contacts = np.zeros((n, n), dtype=complex)
        taus = np.zeros(n)
        cols = np.eye(n, dtype=complex)
        tau, contact = self._project(z)
        if isinstance(contact, AmbiguousProjectionError):
            raise contact
        for k in range(n):
            if k > 0:
                cols = cols @ _null_basis(cols.conj().T @ basis[k - 1])
                contact, tau = self._slice_contact(z, cols)
            taus[k] = tau
            basis[k] = (contact - z) / tau
            contacts[k] = contact
        return MinimalBasisResult(basis=basis, taus=taus, contacts=contacts)

    def _slice_contact(self, z: np.ndarray, cols: np.ndarray):
        """``(contact, tau)``: the nearest boundary point of the slice
        { z + cols @ w } at a stage k >= 1 of :meth:`minimal_basis`, and
        its distance from z.

        Here a one-column slice is the complex line through z along
        ``cols[:, 0]``, whose nearest boundary point is z + t*u from the
        phase search of the directional distance (:func:`_phase_search`),
        at tau = t.  A wider slice, which only a ``LocalizedDomain`` of
        dimension >= 3 leaves to this method, raises ``GeometryError``.
        """
        if cols.shape[1] != 1:
            raise GeometryError(
                f"{type(self).__name__} has no minimal-basis contact for a "
                f"{cols.shape[1]}-dimensional slice")
        t, u = _phase_search(self, z, cols[:, 0])
        return z + t * u, t

    # -- metadata ------------------------------------------------------------

    @property
    def base_point(self) -> np.ndarray:
        return np.zeros(self.dim, dtype=complex)

    def boundary_anchor_points(self, count: int, rng: np.random.Generator) -> list:
        """Boundary points used to seed near-boundary sampling probes."""
        out = []
        base = self.base_point
        for _ in range(count):
            u = rng.standard_normal(2 * self.dim)
            u = complex_view(u / np.linalg.norm(u))
            out.append(self.exit_point(base, u))
        return out

    def exit_point(self, base: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Where the ray base + t*u (u a unit vector, base interior) leaves
        the domain: t is the outer end of :func:`ray_exit`, capped at
        4 * bounding_radius + 1, so the point lies on the boundary or up
        to ``_RAY_REL_TOL`` relative past it.  Its callers step inward from
        it and test membership."""
        cap = 4.0 * self.bounding_radius + 1.0
        return base + ray_exit(self.ray(base, u), cap) * u

    def to_json(self) -> dict:
        raise GeometryError(f"{type(self).__name__} has no JSON form")

    # -- helpers --------------------------------------------------------------

    def _point(self, z) -> np.ndarray:
        """``z`` as a complex array, checked: finite, of the domain's
        dimension."""
        arr = as_carray(z)
        if len(arr) != self.dim:
            raise GeometryError(
                f"point dimension {len(arr)} != domain dimension {self.dim}"
            )
        return arr

    def _interior(self, z) -> np.ndarray:
        arr = self._point(z)
        if not self._contains(arr):
            raise GeometryError(f"point {arr} is not in the domain")
        return arr

    def _direction(self, v) -> np.ndarray:
        """``v`` as a checked complex array of finite nonzero norm, so no
        ``_directional_distance`` divides by zero."""
        arr = self._point(v)
        if not 0.0 < np.linalg.norm(arr) < math.inf:
            raise GeometryError("direction needs a finite nonzero norm")
        return arr


# ---------------------------------------------------------------------------
# one-dimensional root finding
# ---------------------------------------------------------------------------


def _brentq(f: Callable[[float], float], xa: float, xb: float,
            xtol: float = 2e-12, rtol: float = 8.881784197001252e-16,
            maxiter: int = 100) -> float:
    """A root of ``f`` in [xa, xb], where f(xa) and f(xb) differ in sign.

    Brent's method (Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4): inverse quadratic interpolation, or the
    secant step when only two points are distinct, kept only while it
    shrinks the bracket fast enough, else bisection.  The loop is that of
    the widely used C routine ``brentq``, operation for operation and with
    its default tolerances, so on the same floats both return the same
    root bits; the tests compare them.  It stops once half the bracket is
    below (xtol + rtol|x|)/2.  No sign change, or no convergence within
    ``maxiter`` steps, raises ``GeometryError``.
    """
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise GeometryError("root bracket has no sign change")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)  # secant
                else:                           # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) \
                        / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # the C division gives inf or nan, and the test below bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise GeometryError(f"root search did not converge in {maxiter} steps")


# ---------------------------------------------------------------------------
# model domains: closed forms
# ---------------------------------------------------------------------------

_UNIT_ROUNDOFF = 2.0 ** -53
_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)     # the golden-section ratio


def _up(x: float, steps: int) -> float:
    """x moved ``steps`` floats up.  One step, x⁺ = nextafter(x, inf),
    exceeds every real that rounds to x, and x(1 + u) for x >= 0; when
    |x - y| <= k ulp(y) for a real y, 2k steps reach y, as ulp(y) <=
    2 ulp(x) and each step is at least ulp(x)."""
    for _ in range(steps):
        x = math.nextafter(x, math.inf)
    return x


def _down(x: float, steps: int) -> float:
    """x moved ``steps`` floats down, the mirror of :func:`_up`."""
    for _ in range(steps):
        x = math.nextafter(x, -math.inf)
    return x


def _difference_parts(a: list, b: list) -> list:
    """The real and imaginary parts of b - a, in order, for points given as
    lists of Python complex numbers: the same floats as
    ``(b - a).view(float).tolist()`` on arrays, as both subtract part by
    part."""
    return [v for p, q in zip(a, b) for v in (q.real - p.real, q.imag - p.imag)]


def _touching_disc_upper(d: list, t: float) -> float:
    """artanh(|b - a| / t) rounded up, given ``d``, the parts of fl(b - a)
    from :func:`_difference_parts`: 0 for b = a, inf unless the
    rounded-up quotient is < 1.

    When a ball of radius t about a or b lies in the domain, so does the
    complex disc of radius t through [a, b] about that end, and the
    Kobayashi distance contracts: k(a, b) <= artanh(|b - a| / t).  This is
    the one touching-disc bound.  Its callers are the generic segment
    terms :meth:`Domain._terms` and Omega_psi's :meth:`OmegaPsi._terms`,
    which the chord upper and the geodesic descent both read.

    Rounding (u = 2^-53, x⁺ as in :func:`_up`), on ``d``, the plain floats
    that the Python complex numbers of the kernels' points give:

    * the subtraction: each real and imaginary part of b - a is rounded
      once, so |b - a| <= (1 + u)|fl(b - a)|, one step;
    * the sum of squares and the sqrt: ``math.hypot``, whose error is
      under 1 ulp (Python 3.10 on), two steps; it scales, so a tiny
      |b - a| neither underflows nor loses its relative accuracy;
    * the quotient by t: one step, so q bounds |b - a| / t;
    * libm atanh is within 2 ulps (glibc's listed maximum for double),
      four steps.
    """
    h = math.hypot(*d)
    if h == 0.0:
        return 0.0
    q = _up(_up(h, 3) / t, 1) if t > 0.0 else math.inf
    return _up(math.atanh(q), 4) if q < 1.0 else math.inf


_UNIT_GRID = 2.0 ** 20   # the direction bounds of _unit_bounds are on 2^-20
_LINE_MEMO = 1 << 12     # line radii OmegaPsi's memo holds at most


def _unit_bounds(d: list) -> tuple:
    """Bounds q_j >= |u_j| on the coordinates of the unit direction
    u = (b - a)/|b - a|, given ``d``, the real and imaginary parts of
    fl(b - a) from :func:`_difference_parts`, which
    :func:`_touching_disc_upper` reads too, not all zero.

    Each part of fl(b - a) is rounded once, ``math.hypot`` errs by under
    1 ulp, and the quotient is rounded once, so |u_j| <= fl(h_j/h)(1 + 8u)
    <= fl(h_j/h) + 2^-48.  Rounded up onto the grid of 2^-20, the bounds of
    nearby directions agree, so the pieces of one chord share them and a
    memo of the line radius hits; the grid costs at most 2^-20 of each
    bound, and every bound is > 0.
    """
    h = math.hypot(*d)
    return tuple(math.ceil((math.hypot(d[k], d[k + 1]) / h + 2.0 ** -48)
                           * _UNIT_GRID) / _UNIT_GRID
                 for k in range(0, len(d), 2))


def _sum_up(values: list) -> float:
    """A certified upper bound on the exact sum of nonnegative floats.

    Summing k terms left to right errs by at most (k - 1)u times the sum
    (Higham 2002, 4.2; the (k - 1)u form is Rump, BIT 52, 2012).  The pad
    (k - 1)u·ŝ covers that to first order, and ``nextafter`` covers the
    pad's own rounding and the second-order rest for k < 10^7, while the
    pad does not underflow.
    """
    total = float(sum(values))
    pad = (len(values) - 1) * _UNIT_ROUNDOFF * total
    return math.nextafter(total + pad, math.inf)


def disc_distance(a: complex, b: complex) -> float:
    """Poincare distance on the unit disc.

    Written as ½ log((|1-āb| + |a-b|)² / ((1-|a|²)(1-|b|²))), not as artanh
    of the Möbius ratio t, which loses digits as 1 - t cancels.

    Rounding (Rump, Acta Numerica 2010): +, -, *, /, sqrt err by a factor
    1 + e, |e| <= u = 2^-53, libm hypot (``abs``), log and pow by 1 ulp
    (2u); delta = min(1-|a|, 1-|b|).  To first order, relative errors:
    |1-āb| >= delta and fl(āb) errs by 2√2u|a||b|, so 2√2u/delta + 3u;
    |a-b| 3u; 1-|a|² 6u|a|²/(1-|a|²) + u <= 3u/delta + u.  The quotient
    then errs by eta <= (6 + 4√2)u/delta + 13u, and |d̂ - d| <= eta/2 + 2ud
    <= u(2d + 12.33/delta).  For delta >= 1000u, second-order terms and the
    computed radius for delta add below u/(2 delta): ``Disc.exact_error``
    is u(2d + 13/delta).
    """
    a, b = complex(a), complex(b)
    ra, rb = abs(a), abs(b)
    if ra >= 1.0 or rb >= 1.0:
        raise GeometryError("disc_distance needs interior points")
    return _disc_distance(a, b, 1.0 - ra ** 2, 1.0 - rb ** 2)


def _disc_distance(a: complex, b: complex, fa: float, fb: float) -> float:
    """:func:`disc_distance` of two interior Python complex numbers, given
    their factors fa = 1 - |a|^2 and fb = 1 - |b|^2.  The floor at 0 is
    a conditional, not the builtin ``max``, which costs a quarter of the
    call; both give 0.0 for a NaN, -0.0 or negative d."""
    num = abs(1.0 - a.conjugate() * b) + abs(a - b)
    d = 0.5 * math.log(num * num / (fa * fb))
    return d if d > 0.0 else 0.0


def halfplane_distance(a: complex, b: complex) -> float:
    """Poincare distance on the upper half-plane { Im > 0 }.

    Rounding as in :func:`disc_distance`: |a - b̄|, |a - b| err by 3u, so
    eta <= 11u and ``HalfPlane.exact_error`` is u(2d + 6), at any depth.
    """
    a, b = complex(a), complex(b)
    if a.imag <= 0.0 or b.imag <= 0.0:
        raise GeometryError("halfplane_distance needs Im > 0")
    # |a - conj(b)|^2 - |a - b|^2 = 4 Im(a) Im(b), so the log form avoids
    # the near-boundary cancellation of the artanh ratio
    num = abs(a - b.conjugate()) + abs(a - b)
    den = 4.0 * a.imag * b.imag
    return max(0.0, 0.5 * math.log(num * num / den))


def polydisc_distance(z, w) -> float:
    """max over coordinates of the disc distance, within the disc's bound."""
    z, w = as_carray(z), as_carray(w)
    if z.shape != w.shape:
        raise GeometryError("dimension mismatch")
    return max(disc_distance(z[j], w[j]) for j in range(len(z)))


def ball_distance(z, w) -> float:
    """Kobayashi (= Bergman up to scale) distance on the unit ball.

    With v = w - z and c = sum conj(z_j) v_j, the disc's log form holds with
    M = |1 - <w, z>| = |(1-|z|²) - c| for |1-āb| and N = M tanh d =
    sqrt((1-|z|²)|v|² + |c|²), a sum of nonnegative terms, for |a-b|.

    Rounding as in :func:`disc_distance`, n = len(z), delta = min(1-|z|,
    1-|w|); to first order 1-|z|² errs by (n+1)u/(2 delta) + u and c by
    (n + 2√2)u|z||v|.  As M >= delta, M >= (1-|z|²)/2 and |v| <=
    M/sqrt(1-|z|²), M errs by (2n + 1 + 2√2)u/delta + 5u; as N² >=
    2 sqrt(1-|z|²)|v||c|, N by ((3n+1)/4 + √2)u/delta + (n/2 + 7)u.  So
    eta <= (5n + 3 + 4√2)u/delta + (n + 21)u, |d̂ - d| <= u(2d +
    (3n + 14.83)/delta), and for delta >= 20(n+5)²u the rest adds below
    1.1u/delta: ``Ball.exact_error`` is u(2d + (3n + 16)/delta).
    """
    z, w = as_carray(z), as_carray(w)
    if z.shape != w.shape:
        raise GeometryError("dimension mismatch")
    z, w = z.tolist(), w.tolist()
    dz, dw = 1.0 - _norm2(z), 1.0 - _norm2(w)
    if not (dz > 0.0 and dw > 0.0):
        raise GeometryError("ball_distance needs interior points")
    return _ball_distance(z, w, dz, dw)


def _norm2(z: list) -> float:
    """|z|^2 of a list of Python complex numbers, summed left to right."""
    s = 0.0
    for q in z:
        s += q.real * q.real + q.imag * q.imag
    return s


def _ball_distance(z: list, w: list, dz: float, dw: float) -> float:
    """:func:`ball_distance` of two lists of Python complex numbers, given
    their factors dz = 1 - |z|^2 and dw = 1 - |w|^2."""
    nv2 = 0.0
    c = 0j
    for zj, wj in zip(z, w):
        vj = wj - zj
        c += zj.conjugate() * vj
        nv2 += vj.real * vj.real + vj.imag * vj.imag
    num = abs(dz - c) + math.sqrt(dz * nv2 + abs(c) ** 2)
    # floored at 0 as in _disc_distance
    d = 0.5 * math.log(num * num / (dz * dw))
    return d if d > 0.0 else 0.0


def _gauge(z: list, a2: list) -> float:
    """g(z) = sum |z_j|^2 / a2_j on Python floats, z a list of Python
    complex numbers, a2_j = inf where the quadric leaves z_j free.  The
    ellipsoid's membership and inner radius read this one sum, so its
    radius is > 0 exactly where ``contains`` holds."""
    g = 0.0
    for c, a in zip(z, a2):
        r = abs(c)
        g += r * r / a
    return g


def _quadric_exit(z: np.ndarray, v: np.ndarray, a2: list) -> float:
    """delta(z; v) of the quadric sum |z_j|^2 / a2_j < 1, rounded up: the
    closed form

        t = (1 - A) |v| / (beta + sqrt(beta^2 + C (1 - A))),

    A = g(z), C = g(v) (:func:`_gauge`), beta = |sum v_j conj(z_j)/a2_j|.
    The circle z + r e^(i theta) v/|v| leaves the quadric first where
    A + 2 r beta/|v| + r^2 C/|v|^2 = 1, and t is that root written
    without the cancellation of -beta + sqrt(...).  It rises with 1 - A
    and |v| and falls with beta and C, so an upper bound takes each
    from the right side.  Every closed-form directional distance but the
    half-plane's is this: the ellipsoid (a2_j = a_j^2), the ball and the
    disc (a2 = 1), each polydisc cylinder |z_j| < 1 (a2 = inf off j) and
    the window ball about c, at z - c (a2 = R^2).

    v is first scaled by a power of two to a largest part in [1/2, 1),
    exactly but for parts pushed below 2^-1022, so no square overflows.
    A C below 2^-1022 means v moves the bounded coordinates by under
    2^-511 a_j or not at all (a polydisc cylinder off v's support):
    t = inf, an upper bound.  Past that guard any underflow is far inside
    the pads or the one-float steps.  With u = 2^-53 and n = dim, every
    sum runs left to right on Python floats, and z may be the window's
    w = fl(z - c), each part within u of the exact one:

    * A is the gauge sum.  Each term |w_j|^2/a2_j errs by under 9u
      relative: 2u from the parts of w, and hypot within 1 ulp, the
      square, the rounded a2_j and the quotient.  The sum adds (n - 1)u,
      so |A - g| <= (n + 8)u g to first order, at most (n + 9)u as
      every caller's membership test keeps g within a few u of < 1.
      1 - A is exact for A >= 1/2 and within u otherwise, so 1 - g is at
      most fl(1 - A) + (n + 10)u; the pad is (n + 11)u and the sum steps
      one float up.  This absolute pad is the price of the cancellation:
      at depth d it adds about (n + 11)u/d of t.
    * C, the same sum on v, is within (n + 6)u of itself relative, so
      C (1 - (n + 7)u), stepped one float down, is below it.
    * Each product v_j conj(w_j) errs by at most sqrt(5)u |v_j| |w_j|
      (Brent, Percival and Zimmermann, Math. Comp. 76, 2007), and the
      parts of w add u |v_j| |w_j|; dividing both parts by the rounded
      a2_j adds 2u, and the complex sum (n - 1)u of the sum of moduli.
      By Cauchy-Schwarz that sum is at most sqrt(C g), so the computed
      sum is within (n + 5)u sqrt(C) of the exact one, and hypot adds
      2u beta: beta is at least beta' - (n + 5)u (beta' + sqrt(C')) for
      the computed beta' and C'.  The pad is (n + 6)u (beta' + sqrt(C')),
      the extra u covering second-order terms and the pad's own
      rounding; the difference steps one float down and is floored at 0.
    * |v| is ``math.hypot`` of the parts, within 1 ulp: two steps up.
    * The rest are single correctly rounded operations, each stepped
      one float its way (see :func:`_up`): the denominator down, the
      numerator and the quotient up.  The padded 1 - A is positive, and
      with C >= 2^-1022 so are the radicand and the denominator.
    """
    n = len(a2)
    # a direction may be a strided view, which has no float view
    parts = np.ascontiguousarray(v).view(float).tolist()
    e = math.frexp(max(abs(p) for p in parts))[1]
    parts = [math.ldexp(p, -e) for p in parts]
    v = [complex(parts[k], parts[k + 1]) for k in range(0, len(parts), 2)]
    z = z.tolist()
    A, C = _gauge(z, a2), _gauge(v, a2)
    if C < 2.0 ** -1022:
        return math.inf
    b = 0j
    for zj, vj, a in zip(z, v, a2):
        b += vj * zj.conjugate() / a
    u = _UNIT_ROUNDOFF
    beta = abs(b)
    beta = max(0.0, _down(beta - (n + 6) * u * (beta + math.sqrt(C)), 1))
    C = _down(C * (1.0 - (n + 7) * u), 1)
    s = _up((1.0 - A) + (n + 11) * u, 1)
    norm = _up(math.hypot(*parts), 2)
    den = _down(beta + _down(math.sqrt(
        _down(_down(beta * beta, 1) + _down(C * s, 1), 1)), 1), 1)
    return _up(_up(s * norm, 1) / den, 1)


class Disc(Domain):
    """The unit disc in C."""

    dim = 1
    bounding_radius = 1.0
    exact = True
    _a2 = [1.0]

    def exact_distance(self, x, y) -> float:
        return disc_distance(x[0], y[0])

    def exact_error(self, d, delta) -> float:
        return _UNIT_ROUNDOFF * (2.0 * d + 13.0 / delta)

    def _node(self, z: list, f=None, slot: int = 0) -> tuple:
        r = abs(z[0])
        return 1.0 - r, 1.0 - r ** 2

    def _terms(self, a, b, fa, fb, T=None, slot: int = 0) -> list:
        return [_disc_distance(a[0], b[0], fa, fb)]

    def _contains(self, z) -> bool:
        # the abs of _node, so membership is a positive node radius
        return abs(complex(z[0])) < 1.0

    def _project(self, z) -> tuple:
        r = abs(z[0])
        contact = np.array([-1.0 + 0j]) if r < 1e-14 else z / r
        return 1.0 - r, contact

    def _directional_distance(self, z, v, stop=-math.inf) -> float:
        return _quadric_exit(z, v, self._a2)

    def _supporting_normal(self, b) -> np.ndarray:
        return b / abs(b[0])

    def to_json(self) -> dict:
        return {"kind": "disc"}


class HalfPlane(Domain):
    """The upper half-plane { Im z > 0 } in C (the only unbounded model)."""

    dim = 1
    bounding_radius = math.inf
    exact = True

    def exact_distance(self, x, y) -> float:
        return halfplane_distance(x[0], y[0])

    def exact_error(self, d, delta) -> float:
        return _UNIT_ROUNDOFF * (2.0 * d + 6.0)

    def _contains(self, z) -> bool:
        # the Python float of _node, so membership is a positive node radius
        return complex(z[0]).imag > 0.0

    def _node(self, z: list, f=None, slot: int = 0) -> tuple:
        r = z[0].imag
        return r, r

    def _project(self, z) -> tuple:
        return z[0].imag, np.array([complex(z[0].real, 0.0)])

    def _directional_distance(self, z, v, stop=-math.inf) -> float:
        return z[0].imag

    def _supporting_normal(self, b) -> np.ndarray:
        return np.array([-1j])

    def boundary_anchor_points(self, count: int, rng: np.random.Generator) -> list:
        return [np.array([complex(x, 0.0)]) for x in rng.uniform(-3.0, 3.0, count)]

    @property
    def base_point(self) -> np.ndarray:
        return np.array([1j])

    def to_json(self) -> dict:
        return {"kind": "halfplane"}


def _dimension(n, kind: str) -> int:
    """``n`` as a domain dimension: an integer >= 1.  A float, a bool, a
    NaN or anything else that is no integer raises ``GeometryError``, as
    :func:`domain_from_json` does for a JSON ``n``."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise GeometryError(f"{kind} dimension must be an integer >= 1, "
                            f"got {n!r}")
    return int(n)


class Polydisc(Domain):
    """The unit polydisc D^n."""

    exact = True

    def __init__(self, n: int = 2):
        self.dim = _dimension(n, "polydisc")
        self.bounding_radius = math.sqrt(self.dim)
        # the polydisc is the intersection of the cylinders |z_j| < 1
        self._cylinders = np.where(np.eye(self.dim), 1.0, math.inf).tolist()

    def exact_distance(self, x, y) -> float:
        return polydisc_distance(x, y)

    exact_error = Disc.exact_error

    def _node(self, z: list, f=None, slot: int = 0) -> tuple:
        """``(1 - max |z_j|, [1 - |z_j|^2])``.  Given the factor list ``f``
        of the point ``z`` moved from in coordinate ``slot``, it copies
        ``f`` and recomputes that coordinate's factor only, the same floats
        as the full list; the radius reads every modulus, since a move
        can lower the max as well as raise it."""
        if f is None:
            r = [abs(q) for q in z]
            return 1.0 - max(r), [1.0 - rj ** 2 for rj in r]
        f = f.copy()
        f[slot] = 1.0 - abs(z[slot]) ** 2
        return 1.0 - max(map(abs, z)), f

    def _terms(self, a, b, fa, fb, T=None, slot: int = 0) -> list:
        """One term per coordinate: its :func:`disc_distance`.

        Their max, the distance, has flat ridges that stall coordinate
        descent, so the descent drives the smooth euclidean norm of the
        terms instead; its minimizers allocate every coordinate's length
        proportionally across segments, and at a proportional allocation
        the per-segment max telescopes, so the final configuration also
        minimizes the certified sum.  The factors are the list of
        1 - |z_j|^2.  Given the terms ``T`` before coordinate ``slot`` of
        an endpoint moved, it copies ``T`` and recomputes that coordinate's
        term only, as a move changes no other.
        """
        if T is None:
            return [_disc_distance(aj, bj, fj, gj)
                    for aj, bj, fj, gj in zip(a, b, fa, fb)]
        T = T.copy()
        T[slot] = _disc_distance(a[slot], b[slot], fa[slot], fb[slot])
        return T

    def _contains(self, z) -> bool:
        # the abs of _node, so membership is a positive node radius
        return max(abs(q) for q in z.tolist()) < 1.0

    def _directional_distance(self, z, v, stop=-math.inf) -> float:
        return min(_quadric_exit(z, v, a2) for a2 in self._cylinders)

    def _face_contact(self, z: np.ndarray, j: int) -> np.ndarray:
        w = z.copy()
        w[j] = z[j] / abs(z[j]) if abs(z[j]) > 1e-14 else -1.0
        return w

    def _nearest_face(self, z: np.ndarray, faces: np.ndarray) -> tuple:
        """``(gap, contact)`` of the face among ``faces`` (coordinate
        indices) nearest to z; faces within 1e-13 of it tie toward the
        lexicographically smallest contact."""
        gaps = 1.0 - np.abs(z[faces])
        best = float(np.min(gaps))
        ties = faces[gaps <= best + 1e-13]
        if len(ties) == 1:
            return best, self._face_contact(z, ties[0])
        return best, min((self._face_contact(z, j) for j in ties), key=_lex_key)

    def _project(self, z) -> tuple:
        return self._nearest_face(z, np.arange(self.dim))

    def _supporting_normal(self, b) -> np.ndarray:
        j = int(np.argmax(np.abs(b)))
        nu = np.zeros(self.dim, dtype=complex)
        nu[j] = b[j] / abs(b[j])
        return nu

    def _slice_contact(self, z, cols):
        # the slice is the sub-polydisc of the coordinates cols still moves
        # (their rows of cols are unit, the others zero): its nearest face,
        # under the tie rule of _project
        free = np.flatnonzero(np.linalg.norm(cols, axis=1) > 0.5)
        gap, contact = self._nearest_face(z, free)
        return contact, gap

    def to_json(self) -> dict:
        return {"kind": "polydisc", "n": self.dim}


class Ball(Domain):
    """The unit euclidean ball in C^n."""

    exact = True

    def __init__(self, n: int = 2):
        self.dim = _dimension(n, "ball")
        self.bounding_radius = 1.0
        self._a2 = [1.0] * self.dim

    def exact_distance(self, x, y) -> float:
        return ball_distance(x, y)

    def exact_error(self, d, delta) -> float:
        return _UNIT_ROUNDOFF * (2.0 * d + (3 * self.dim + 16.0) / delta)

    def _node(self, z: list, f=None, slot: int = 0) -> tuple:
        # one sum for both, so radius > 0 implies the factor 1-|z|² > 0
        s = _norm2(z)
        return 1.0 - math.sqrt(s), 1.0 - s

    def _terms(self, a, b, fa, fb, T=None, slot: int = 0) -> list:
        return [_ball_distance(a, b, fa, fb)]

    def _contains(self, z) -> bool:
        # the sum of _node: sqrt(s) < 1 exactly when s < 1, so membership
        # is a positive node radius
        return _norm2(z.tolist()) < 1.0

    def _project(self, z) -> tuple:
        r = float(np.linalg.norm(z))
        if r >= 1e-14:
            return 1.0 - r, z / r
        contact = np.zeros(self.dim, dtype=complex)
        contact[0] = -1.0
        return 1.0 - r, contact

    def _directional_distance(self, z, v, stop=-math.inf) -> float:
        return _quadric_exit(z, v, self._a2)

    def _supporting_normal(self, b) -> np.ndarray:
        return b / np.linalg.norm(b)

    def _slice_contact(self, z, cols):
        # every further slice is a ball centered at z inside the slice, so the
        # contact circle is a full sphere: all remaining taus coincide and the
        # contact is pinned by the lexicographic tie-break.
        tau = math.sqrt(max(0.0, 1.0 - float(np.vdot(z, z).real)))
        return _lex_smallest_on_sphere(z, cols, tau), tau

    def to_json(self) -> dict:
        return {"kind": "ball", "n": self.dim}


def _paired_axes(axes: np.ndarray) -> np.ndarray:
    out = np.empty(2 * len(axes))
    out[0::2] = axes
    out[1::2] = axes
    return out


def _project_interior_to_ellipsoid(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Nearest point of the real ellipsoid {sum x_i^2/b_i^2 = 1} from inside.

    A non-unique contact is resolved toward the lexicographically smallest
    point.  Solves the KKT system p_i = b_i^2 u_i / (b_i^2 + nu) with the
    degenerate minimal-axis branch handled explicitly.  The multiplier is carried as
    s = nu + m2 (m2 the smallest b_i^2), so the denominators read
    (b_i^2 - m2) + s and are exactly s on the minimal axes: near the pole
    s = 0 they keep their relative precision however small s gets.  The
    root s of sum p_i^2/b_i^2 = 1 is Brent's (:func:`_brentq`), on a
    bracket walked toward the pole.
    """
    b2 = b * b
    m2 = float(np.min(b2))
    gap = b2 - m2
    # a coordinate below 2^-150 sqrt(m2) counts as 0: dropping it moves the
    # contact's distance by at most its size, and on a minimal axis it would
    # put the root s too near the pole for the bracket walk and _brentq
    nonzero = np.abs(u) > 2.0 ** -150 * math.sqrt(m2)

    def g(s: float) -> float:
        return float(np.sum((b2[nonzero] * u[nonzero] / (gap[nonzero] + s)) ** 2 / b2[nonzero]))

    min_axes_zero = not np.any(nonzero & (b2 <= m2 * (1 + 1e-12)))
    if not np.any(nonzero):
        g_lim = 0.0
        degenerate = True
    elif min_axes_zero:
        g_lim = g(0.0)
        degenerate = g_lim < 1.0
    else:
        degenerate = False

    if not degenerate:
        # g is decreasing in s with g(m2) < 1; walk lo toward the pole until g > 1
        lo = 0.5 * m2
        while g(lo) < 1.0:
            lo *= 0.5
            if lo < 1e-300:
                raise GeometryError("ellipsoid projection bracketing failed")
        # an absolute tolerance far below lo keeps the root's relative
        # precision
        s = _brentq(lambda t: g(t) - 1.0, lo, m2, xtol=1e-300, rtol=8.9e-16,
                    maxiter=200)
        return np.where(nonzero, b2 * u / (gap + s), 0.0)

    # degenerate branch: contact mass sits on the minimal axes where u_i = 0
    denom = np.where(gap > 0, gap, 1.0)
    p = np.where(nonzero, b2 * u / denom, 0.0)
    leftover = m2 * max(0.0, 1.0 - g_lim)
    idx = [i for i in range(len(b2)) if b2[i] <= m2 * (1 + 1e-12) and not nonzero[i]]
    p[idx[0]] = -math.sqrt(leftover)
    return p


class Ellipsoid(Domain):
    """The complex ellipsoid { sum |z_j|^2 / a_j^2 < 1 }.

    Every axis lies in [2^-256, 2^256]; others raise ``GeometryError``.  In
    that range every square and quotient the ellipsoid forms is a finite
    normal float: the gauge and the quadric exit read a_j^2 in
    [2^-512, 2^512] and |z_j|^2 <= a_j^2, the Lipschitz constant sums
    terms 1/a_j^2 <= 2^512, and the projection forms a_j^2 u_j between
    2^-150 a_min^3 >= 2^-918 (its smallest nonzero coordinate) and
    a_max^3 <= 2^768.  A subnormal |z_j|^2 then errs by at most
    2^-1075/a_j^2 <= 2^-563 in the gauge.  Outside it, a_j^2 overflows to
    inf (the gauge reads inf/inf = nan) or underflows to 0 (it divides by
    zero).
    """

    def __init__(self, axes: Sequence[float]):
        try:
            axes = np.asarray(axes, dtype=float)
        except (TypeError, ValueError):
            axes = None
        if axes is None or axes.ndim != 1 or len(axes) < 1 \
                or not np.all((axes >= 2.0 ** -256) & (axes <= 2.0 ** 256)):
            raise GeometryError("ellipsoid axes must be a non-empty list of "
                                "numbers in [2^-256, 2^256]")
        self.axes = axes
        self.dim = len(axes)
        self.bounding_radius = float(np.max(axes))
        # the gauge's constants, computed once: a_j^2, the Lipschitz
        # constant 2 sqrt(sum 1/a_j^2) of g and the smallest axis
        self._a2 = (axes**2).tolist()
        self._lip = 2.0 * math.sqrt(float(np.sum(1.0 / axes**2)))
        self._min_axis = float(np.min(axes))

    def _contains(self, z) -> bool:
        return _gauge(z.tolist(), self._a2) < 1.0

    def _project(self, z) -> tuple:
        u = real_view(z)
        p = _project_interior_to_ellipsoid(u, _paired_axes(self.axes))
        return float(np.linalg.norm(u - p)), complex_view(p)

    def _node(self, z: list, f=None, slot: int = 0) -> tuple:
        """``(radius, radius)``: the inner radius at the list ``z``, the
        larger of two certified lower bounds for the boundary distance:

        * Lipschitz: with y the nearest boundary point,
          1 - g(z) <= sup ||grad g|| * delta <= 2 sqrt(sum 1/a_j^2) delta;
        * radial concavity: z = sqrt(g) u with u on the boundary, and delta
          is concave, so delta(z) >= (1 - sqrt(g)) delta(0).

        Outside, g >= 1 and both read <= 0, so the max is 0.  The gauge is
        plain double, not rounded outward.
        """
        g = _gauge(z, self._a2)
        r = max(0.0, (1.0 - g) / self._lip,
                (1.0 - math.sqrt(g)) * self._min_axis)
        return r, r

    def _directional_distance(self, z, v, stop=-math.inf) -> float:
        return _quadric_exit(z, v, self._a2)

    def _supporting_normal(self, b) -> np.ndarray:
        nu = b / self.axes**2
        return nu / np.linalg.norm(nu)

    def _slice_contact(self, z, cols):
        # slice { z + cols @ w } of the ellipsoid is the Hermitian quadric
        #   (w - w0)^* H (w - w0) < r2,  H = cols^* Lam cols,  zeta = cols^* Lam z
        lam = 1.0 / self.axes**2
        H = cols.conj().T @ (lam[:, None] * cols)
        zeta = cols.conj().T @ (lam * z)
        const = float(np.sum(np.abs(z) ** 2 * lam))
        w0 = -np.linalg.solve(H, zeta)
        r2 = 1.0 - const + float(np.real(np.conj(w0) @ (H @ w0)))
        # diagonalize: v = evecs^* (w - w0) gives a paired real ellipsoid
        evals, evecs = np.linalg.eigh(H)
        semi = np.sqrt(r2 / evals)
        vq = -(evecs.conj().T @ w0)  # the slice origin w = 0 in v-coordinates
        p_real = _project_interior_to_ellipsoid(real_view(vq), _paired_axes(semi))
        contact = z + cols @ (w0 + evecs @ complex_view(p_real))
        return contact, float(np.linalg.norm(contact - z))

    def to_json(self) -> dict:
        return {"kind": "ellipsoid", "axes": [float(a) for a in self.axes]}


# ---------------------------------------------------------------------------
# psi profiles and the flat-segment graph domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PsiSpec:
    """A flat boundary profile psi: [0, inf) -> [0, inf), even in x.

    Two families:

    * ``exp_neg_c_over_x``:      psi(x) = exp(-c/x), c > 0
    * ``exp_neg_inv_log_pow``:   psi(x) = exp(-(1/x) * log(1/x)^(-alpha)), alpha > 1

    Both are convex increasing only on an initial interval (0, cut]; beyond the
    cut the profile is continued by the tangent quadratic with matched value
    and slope so the graph domain stays convex.  All experiments run at scales
    inside the pure region.
    """

    form: str
    c: float = math.pi
    alpha: float = 2.0

    def __post_init__(self):
        if self.form not in ("exp_neg_c_over_x", "exp_neg_inv_log_pow"):
            raise GeometryError(f"unknown psi form {self.form!r}")
        if not (math.isfinite(self.c) and math.isfinite(self.alpha)):
            raise GeometryError("psi needs finite c and alpha")
        if self.form == "exp_neg_c_over_x" and self.c <= 0:
            raise GeometryError("psi needs c > 0")
        if self.form == "exp_neg_inv_log_pow" and self.alpha <= 1:
            raise GeometryError("psi needs alpha > 1")

    # pure formula, valid for 0 < x <= cut ---------------------------------
    #
    # psi = exp(-g).  Where exp(-g) underflows to 0 both psi and psi' are 0,
    # and that is decided first: at tiny x the other factors overflow
    # (x^-2 raises OverflowError below about 1e-154) or divide by an
    # underflowed x*x, and 1/x itself overflows for subnormal x, which would
    # make the log-power g inf * 0 = NaN.

    def _pure(self, x: float) -> float:
        if self.form == "exp_neg_c_over_x":
            return math.exp(-self.c / x)
        inv = 1.0 / x
        if inv == math.inf:
            return 0.0
        return math.exp(-inv * math.log(inv) ** (-self.alpha))

    def _pure_deriv(self, x: float) -> float:
        if self.form == "exp_neg_c_over_x":
            e = math.exp(-self.c / x)
            if e == 0.0:
                return 0.0
            return e * self.c / (x * x)
        inv = 1.0 / x
        if inv == math.inf:
            return 0.0
        L = math.log(inv)
        # g(x) = x^-1 L^-alpha, psi = exp(-g), g' = x^-2 L^(-alpha-1) (alpha - L)
        e = math.exp(-(inv * L ** (-self.alpha)))
        if e == 0.0:
            return 0.0
        gp = x ** (-2.0) * L ** (-self.alpha - 1.0) * (self.alpha - L)
        return -gp * e

    def _pure_deriv2(self, x: float) -> float:
        """psi''(x) on the pure region, 0 where exp(-g) underflows.

        On the exp form, with q = c/x, psi'' = e^-q q^3 (q - 2)/c^2.  On
        the log-power form psi'' = (g'^2 - g'') e^-g with g' as in
        :meth:`_pure_deriv` and g'' = x^-3 L^(-alpha-2)
        (2L^2 - 3 alpha L + alpha(alpha + 1)).
        """
        if self.form == "exp_neg_c_over_x":
            q = self.c / x
            e = math.exp(-q)
            if e == 0.0:
                return 0.0
            return e * q * q * q * (q - 2.0) / (self.c * self.c)
        inv = 1.0 / x
        if inv == math.inf:
            return 0.0
        L, a = math.log(inv), self.alpha
        e = math.exp(-(inv * L ** (-a)))
        if e == 0.0:
            return 0.0
        gp = inv * inv * L ** (-a - 1.0) * (a - L)
        gpp = inv * inv * inv * L ** (-a - 2.0) * (2.0 * L * L - 3.0 * a * L
                                                   + a * (a + 1.0))
        return e * (gp * gp - gpp)

    @functools.cached_property
    def _curvature_peak(self) -> float:
        """Where psi'' peaks on the pure region.  On (0, cut) psi'' rises
        to one peak and falls to 0 at the cut: on the exp form the peak is
        at q = c/x = 3 + sqrt(3), the root of q^2 - 6q + 6 that the
        derivative of e^-q q^3 (q - 2) has past the inflection q = 2; on
        the log-power form a golden-section search finds it."""
        if self.form == "exp_neg_c_over_x":
            return self.c / (3.0 + math.sqrt(3.0))
        lo, hi = 0.0, self.cut
        x1, x2 = hi - _GOLDEN * hi, _GOLDEN * hi
        f1, f2 = self._pure_deriv2(x1), self._pure_deriv2(x2)
        while hi - lo > 1e-12 * self.cut:
            if f1 < f2:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + _GOLDEN * (hi - lo)
                f2 = self._pure_deriv2(x2)
            else:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - _GOLDEN * (hi - lo)
                f1 = self._pure_deriv2(x1)
        return x1 if f1 >= f2 else x2

    def curvature(self, lo: float, hi: float) -> float:
        """sup psi'' over [lo, hi], 0 <= lo <= hi: on the pure region
        psi'' at the point of the interval nearest its peak
        (:attr:`_curvature_peak`), and past the cut the continuation's
        constant 2 psi'(cut)."""
        cut = self.cut
        out = 2.0 * self._at_cut[1] if hi > cut else 0.0
        x = min(max(self._curvature_peak, lo), hi, cut)
        if lo < cut and x > 0.0:
            out = max(out, self._pure_deriv2(x))
        return out

    @functools.cached_property
    def cut(self) -> float:
        # cached: the log-power cut is a Brent root, and value/derivative
        # read it on every call
        if self.form == "exp_neg_c_over_x":
            return 0.5 * self.c  # inflection of exp(-c/x)
        return _loglog_convexity_cut(self.alpha)

    @functools.cached_property
    def _at_cut(self) -> tuple:
        """(psi(cut), psi'(cut)), the continuation's value and slope, which
        value, derivative and inverse read past the cut."""
        return self._pure(self.cut), self._pure_deriv(self.cut)

    def value(self, x: float) -> float:
        x = abs(float(x))
        if x == 0.0:
            return 0.0
        cut = self.cut
        if x <= cut:
            return self._pure(x)
        a, b = self._at_cut
        s = x - cut
        return a + b * s + b * s * s  # convex C^1 continuation

    def derivative(self, x: float) -> float:
        xs = float(x)
        sign = 1.0 if xs >= 0 else -1.0
        x = abs(xs)
        if x == 0.0:
            return 0.0
        cut = self.cut
        if x <= cut:
            return sign * self._pure_deriv(x)
        b = self._at_cut[1]
        s = x - cut
        return sign * (b + 2.0 * b * s)

    def value_up(self, x: float) -> float:
        """A certified upper bound on psi(x), the exact profile at the float
        x, covering the rounding of :meth:`value`.

        With g = -log psi(x), each of the at most six elementary operations
        that build g (glibc's listed maxima: 1 ulp for exp, log and pow) errs
        by at most 2u relatively, the power L^-alpha by alpha times the
        error of L, and exp(-g) turns an error e*g of g into a relative
        error of about e*g; so psi errs by at most about
        (g + 1)(alpha + 6)u, alpha read as 0 on the exp form.  Past the cut
        the quadratic continuation errs as psi(cut) and psi'(cut) do (its
        slope loses at most the factor L/(L - alpha) < 3 to cancellation)
        plus four operations, so g is taken as at least -log psi(cut).  The
        pad (g + 2)(alpha + 8) 16u covers both with room to spare.  Below
        2^-1000, where a subnormal result has no relative accuracy, the
        bound is 2^-1000.
        """
        v = self.value(x)
        if v < 2.0 ** -1000:
            return 2.0 ** -1000
        g = max(-math.log(v), self._cut_gain)
        alpha = self.alpha if self.form == "exp_neg_inv_log_pow" else 0.0
        pad = (g + 2.0) * (alpha + 8.0) * 16.0 * _UNIT_ROUNDOFF
        return _up(v + v * pad, 2)

    @functools.cached_property
    def _cut_gain(self) -> float:
        return -math.log(self._at_cut[0])

    def inverse(self, u: float) -> float:
        """The x >= 0 with psi(x) = u.

        On the exp form's pure region it is the closed form c/log(1/u).  On
        the log-power form's, with s = log(1/x), psi(x) = u reads
        s - alpha log s = w = log log(1/u), whose left side is convex and
        increasing past s = alpha, where the root lies.  At most six Newton
        steps solve it from s0 = max(2(w + alpha(log(2 alpha) - 1)),
        2 alpha): the tangent of log at 2 alpha bounds the left side below
        by s/2 - alpha(log(2 alpha) - 1), so s0 is at or past the root, and
        from there Newton decreases monotonically to it.  The result is
        then shrunk until ``value(x) <= u``, so it never overshoots u.
        """
        if not 0.0 < u:
            raise GeometryError("psi inverse needs u > 0")
        cut = self.cut
        a, b = self._at_cut
        if u <= a:
            if self.form == "exp_neg_c_over_x":
                return self.c / math.log(1.0 / u)
            alpha = self.alpha
            w = math.log(-math.log(u))
            s = max(2.0 * (w + alpha * (math.log(2.0 * alpha) - 1.0)),
                    2.0 * alpha)
            for _ in range(6):
                step = (s - alpha * math.log(s) - w) / (1.0 - alpha / s)
                s -= step
                if abs(step) <= 4.0 * _UNIT_ROUNDOFF * s:
                    break
            x = min(math.exp(-s), cut)
            shrink = 2.0 ** -52
            while self.value(x) > u:
                x *= 1.0 - shrink
                shrink *= 2.0
            return x
        # continuation region: quadratic, solve directly
        s = (-b + math.sqrt(b * b + 4.0 * b * (u - a))) / (2.0 * b)
        return cut + s

    def to_json(self) -> dict:
        if self.form == "exp_neg_c_over_x":
            return {"form": self.form, "c": self.c}
        return {"form": self.form, "alpha": self.alpha}

    @classmethod
    def from_json(cls, obj: dict) -> "PsiSpec":
        if not isinstance(obj, dict):
            raise GeometryError("a psi record must be a JSON object")
        form = obj.get("form")
        if form == "exp_neg_c_over_x":
            return cls(form=form, c=_json_number(obj.get("c", math.pi), "c"))
        if form == "exp_neg_inv_log_pow":
            return cls(form=form,
                       alpha=_json_number(obj.get("alpha", 2.0), "alpha"))
        raise GeometryError(f"unknown psi form {form!r}")


def _loglog_convexity_cut(alpha: float) -> float:
    """Largest x0 <= e^-alpha so psi'' > 0 on (0, x0) for the loglog family."""

    def convexity_gap(x: float) -> float:
        L = math.log(1.0 / x)
        lhs = (L - alpha) ** 2 * L ** (-alpha)
        rhs = x * ((L - alpha) * (2.0 * L - alpha - 1.0) + L)
        return lhs - rhs

    hi = math.exp(-alpha) * (1.0 - 1e-9)
    if convexity_gap(hi) > 0:
        return hi
    lo = hi
    while convexity_gap(lo) <= 0:
        lo *= 0.5
        if lo < 1e-250:
            raise GeometryError("could not locate convexity cut")
    return _brentq(convexity_gap, lo, 2 * lo, xtol=1e-300, rtol=8.9e-16)


def _arm_offset(chi: float, u: float, lam: float):
    """t = u/(1 - 2 chi lam), where a quadratic term chi t^2 of the Omega_psi
    wall, a point u from its vertex, is stationary at multiplier lam; None
    where t is not > 0 (that side of the pole has no stationary point)."""
    den = 1.0 - 2.0 * chi * lam
    return u / den if den != 0.0 and u / den > 0.0 else None


def _sheet_roots(R: float, arms: list) -> list:
    """Every lam in [0, R] where h(lam) = R - lam - sum chi t^2 vanishes
    with each arm's t = u/(1 - 2 chi lam) > 0, for ``arms``, a list of
    (chi, u) with chi > 0, u != 0, and R above the sheet's height at the
    foot (so sum chi u^2 < R).

    An arm with u > 0 needs lam below its pole 1/(2 chi), one with u < 0
    lam above it; each term chi t^2 is convex on either side of its pole,
    so h is concave between them.  Within |u| sqrt(chi/R)/(4 chi) of a pole
    the term exceeds 4R and h < 0, so the roots lie inside that margin.
    With no arm above its pole, h(0) > 0 and h decreases to one root;
    otherwise h < 0 at both ends and has two roots, one or none, on either
    side of its peak, the root of h'.
    """
    def h(lam: float) -> float:
        return R - lam - sum(chi * (u / (1.0 - 2.0 * chi * lam)) ** 2
                             for chi, u in arms)

    if not arms:
        return [R]
    lo, hi = 0.0, R
    for chi, u in arms:
        margin = abs(u) * math.sqrt(chi / R) / (4.0 * chi)
        if u > 0.0:
            hi = min(hi, 0.5 / chi - margin)
        else:
            lo = max(lo, 0.5 / chi + margin)
    if not lo < hi:
        return []
    if lo == 0.0:       # h(0) > 0 but for rounding when R is at the foot
        return [0.0] if h(0.0) <= 0.0 else \
            [_brentq(h, 0.0, hi, xtol=1e-300, maxiter=200)]

    def slope(lam: float) -> float:
        return -1.0 - sum(4.0 * chi * chi * u * u
                          / (1.0 - 2.0 * chi * lam) ** 3 for chi, u in arms)

    if not (slope(lo) > 0.0 and slope(hi) < 0.0):
        return []
    peak = _brentq(slope, lo, hi, xtol=1e-300, maxiter=200)
    top = h(peak)
    if top < 0.0:
        return []
    if top == 0.0:
        return [peak]
    return [_brentq(h, lo, peak, xtol=1e-300, maxiter=200),
            _brentq(h, peak, hi, xtol=1e-300, maxiter=200)]


class OmegaPsi(Domain):
    """A bounded convex domain in C^2 whose boundary contains the segment
    { (iy, 0) : |y| <= 2 }.

    Inside the ball of radius ``cap_radius`` the domain is

        Re z2 > psi(Re z1) + chi1((|Im z1| - 2)_+) + chi2(Im z2)

    with convex even profiles; the flatter psi is at 0, the more degenerate
    the boundary along the segment.  ``chi1 = chi2 = t^2`` by default.
    """

    def __init__(self, psi: PsiSpec, chi1: float = 1.0, chi2: float = 1.0,
                 cap_radius: float = 3.0):
        self.psi = psi
        self.chi1 = float(chi1)
        self.chi2 = float(chi2)
        self.cap_radius = float(cap_radius)
        if not math.sqrt(5.0) < self.cap_radius < math.inf:
            # the segment endpoints (+-2i, 0) must stay well inside the cap
            raise GeometryError("cap radius must be finite and large enough "
                                "for the flat segment")
        if not (0.0 <= self.chi1 < math.inf and 0.0 <= self.chi2 < math.inf):
            # a negative chi would bend the wall concave
            raise GeometryError("chi1 and chi2 must be finite and >= 0")
        self.dim = 2
        self.bounding_radius = self.cap_radius
        self._line_memo = {}      # (factor, direction bounds) -> line radius

    # F and its gradient ------------------------------------------------------

    def _wall(self, x1: float, y1: float, y2: float) -> float:
        t = max(0.0, abs(y1) - 2.0)
        return self.psi.value(x1) + self.chi1 * t * t + self.chi2 * y2 * y2

    def _wall_grad(self, x1: float, y1: float, y2: float):
        t = max(0.0, abs(y1) - 2.0)
        dy1 = 2.0 * self.chi1 * t * (1.0 if y1 >= 0 else -1.0)
        return (self.psi.derivative(x1), dy1, 2.0 * self.chi2 * y2)

    def _contains(self, z) -> bool:
        return self._inside(*z.tolist())

    def ray(self, z: np.ndarray, u: np.ndarray) -> Callable[[float], bool]:
        """:meth:`Domain.ray` on Python floats: z and u are converted once,
        and each probe runs :meth:`_inside`, the test ``_contains`` runs."""
        z1, z2 = z.tolist()
        u1, u2 = u.tolist()
        inside = self._inside
        return lambda t: inside(z1 + t * u1, z2 + t * u2)

    def _cap_gap(self, z1: complex, z2: complex) -> float:
        """cap_radius - |(z1, z2)| on Python floats.

        The one cap formula: membership, the inner radius, the boundary
        distance and the nearest boundary point all read the cap from it,
        so they agree on every point however close to the cap sphere.
        """
        x1, y1, x2, y2 = z1.real, z1.imag, z2.real, z2.imag
        return self.cap_radius - math.sqrt((x1 * x1 + x2 * x2)
                                           + (y1 * y1 + y2 * y2))

    def _inside(self, z1: complex, z2: complex) -> bool:
        """Membership of (z1, z2), the one test ``_contains`` and ``ray``
        share: a positive cap gap and a point above the wall."""
        return self._cap_gap(z1, z2) > 0.0 and \
            z2.real > self._wall(z1.real, z1.imag, z2.imag)

    def _graph_distance(self, z: np.ndarray):
        """Distance to the wall sheet { Re w2 <= F(w) } and the contact
        point: the nearest point (a + ib, F(a, b, c) + ic) of the wall.

        F is even and nondecreasing in |a|, |b| and |c|, so the nearest
        point lies with |a| >= |x1|, |b| >= |y1| and |c| >= |y2| on the
        sides of x1, y1 and y2; the search runs on s1 = |x1|, sb = |y1|,
        s2 = |y2| and the signs come back at the end.  It takes the
        stationary contact on the branch through the vertical foot
        (:meth:`_foot_branch`) and keeps it where that branch is provably
        the only one; elsewhere, past the uniqueness depth, the global
        search :meth:`_wall_search` runs.
        """
        z1, z2 = z.tolist()
        x1, y1, x2, y2 = z1.real, z1.imag, z2.real, z2.imag
        s1, sb, s2 = abs(x1), abs(y1), abs(y2)
        a, b, c = s1, sb, s2
        if x2 > self._wall(s1, sb, s2):
            # a coordinate within 2^-50 sqrt(x2/chi) of a quadric term's
            # vertex (|Im z1| = 2, Im z2 = 0) reads as on it, so no
            # multiplier of the search comes within rounding of the pole
            # 1/(2 chi); the distance is still taken from the point itself
            near = 2.0 ** -50 * math.sqrt(x2)
            if self.chi1 > 0.0 and abs(sb - 2.0) * math.sqrt(self.chi1) < near:
                sb = 2.0
            if self.chi2 > 0.0 and s2 * math.sqrt(self.chi2) < near:
                s2 = 0.0
            a, b, c, sure = self._foot_branch(s1, sb, s2, x2)
            if not sure:
                a, b, c = self._wall_search(s1, sb, s2, x2, (a, b, c))
        a, b, c = (-v if u < 0.0 else v for u, v in ((x1, a), (y1, b), (y2, c)))
        F = self._wall(a, b, c)
        da, db, dc, dw = x1 - a, y1 - b, y2 - c, x2 - F
        contact = np.array([complex(a, b), complex(F, c)])
        return math.sqrt(da * da + db * db + dc * dc + dw * dw), contact

    def _foot_branch(self, s1: float, sb: float, s2: float,
                     x2: float) -> tuple:
        """(a, b, c, sure): the stationary wall point on the branch through
        the vertical foot, and whether it is the nearest.

        With lam = x2 - F(contact), stationarity reads a - lam psi'(a) = s1,
        b = sb on the flat part |b| <= 2 or b - 2 = (sb - 2)/(1 - 2 chi1
        lam) on its arm, and c = s2/(1 - 2 chi2 lam).  From lam = 0 (the
        foot) the branch takes a root a in [s1, s1 + gap] and the same-side
        b and c, and lam is the root of r(lam) = x2 - lam - F on (0, gap].

        The contact d away has lam <= d and a - s1 <= d, so it is the
        nearest one when on that box the branch is the only stationary
        family: psi'' d < 1 on [s1, s1 + d] makes each a root unique and
        increasing in lam, and b, c are unique unless a flat coordinate can
        leave its flat part, which takes lam >= 1/(2 chi) (an arm beyond
        |b| = 2, 2 - sb away, or c off 0).  Then r decreases strictly and
        has one root.
        """
        psi, chi1, chi2 = self.psi, self.chi1, self.chi2
        gap = x2 - self._wall(s1, sb, s2)
        hi, top = gap, s1 + gap
        for chi, u in ((chi1, sb - 2.0), (chi2, s2)):
            if chi > 0.0 and u > 0.0:
                # near the pole chi t^2 exceeds 4 x2, so r < 0 there
                hi = min(hi, 0.5 / chi - u * math.sqrt(chi / x2) / (4.0 * chi))
        clamped = False

        def contact(lam: float) -> tuple:
            nonlocal clamped
            a = s1
            if s1 > 0.0 and lam > 0.0:
                def k(t):
                    return t - lam * psi.derivative(t) - s1
                clamped = not k(top) > 0.0
                a = top if clamped else _brentq(k, s1, top, xtol=1e-300,
                                                maxiter=200)
            b = sb if sb <= 2.0 or chi1 == 0.0 else \
                2.0 + _arm_offset(chi1, sb - 2.0, lam)
            c = s2 if s2 == 0.0 or chi2 == 0.0 else _arm_offset(chi2, s2, lam)
            return a, b, c

        def residual(lam: float) -> float:
            return x2 - lam - self._wall(*contact(lam))

        # r(0) = gap > 0; r(hi) <= 0 but for rounding where the branch
        # barely leaves the foot
        lam = hi if residual(hi) >= 0.0 else \
            _brentq(residual, 0.0, hi, xtol=1e-300, maxiter=200)
        a, b, c = contact(lam)
        da, db, dc, dw = a - s1, b - sb, c - s2, x2 - self._wall(a, b, c)
        d = math.sqrt(da * da + db * db + dc * dc + dw * dw)
        # the foot itself is gap away, so a farther contact is no candidate
        sure = not clamped and d <= gap * (1.0 + 2.0 ** -40) and \
            d * psi.curvature(s1, s1 + d) < 1.0 - 2.0 ** -20
        if sb <= 2.0 and chi1 > 0.0:
            sure = sure and (2.0 * chi1 * d <= 1.0 or d <= 2.0 - sb)
        if s2 == 0.0 and chi2 > 0.0:
            sure = sure and 2.0 * chi2 * d <= 1.0
        return a, b, c, sure

    def _wall_search(self, s1: float, sb: float, s2: float, x2: float,
                     start: tuple) -> tuple:
        """(a, b, c): the nearest wall point, by branch and bound over a.

        The squared distance is J(a) = (a - s1)^2 + m(a)^2, with m(a) the
        distance from (sb, s2, x2 - psi(a)) to the sheet of the b and c
        terms (:meth:`_sheet`, exact).  The distance from a point inside a
        convex set to its boundary is concave in the point, and m is that
        distance on the vertical line through (sb, s2), at the concave
        height x2 - psi(a): m is concave and decreasing on [s1, top], top
        = psi^-1(x2 - F(0, sb, s2)), past which no nearest point lies.  So
        on a cell m is at least its chord, and J at least the squared
        distance from (s1, 0) to the chord in the (a, m) plane.  Cells
        whose bound is within 1e-13 of the best J are dropped, after at
        most 400 evaluations; ``start``, a wall point, is kept unless the
        search beats it by more.
        """
        psi, tol = self.psi, 1e-13

        def point(a: float) -> tuple:
            P, b, c = self._sheet(x2 - psi.value(a), sb, s2)
            return (a - s1) ** 2 + P, math.sqrt(P), a, b, c

        def chord_bound(l, ml, r, mr) -> float:
            dx, dy = r - l, mr - ml
            t = min(1.0, max(0.0, ((s1 - l) * dx - ml * dy)
                             / (dx * dx + dy * dy)))
            ea, em = l + t * dx - s1, ml + t * dy
            return ea * ea + em * em

        a0, b0, c0 = start
        kept = (a0 - s1) ** 2 + (b0 - sb) ** 2 + (c0 - s2) ** 2 \
            + (x2 - self._wall(a0, b0, c0)) ** 2
        top = max(s1, psi.inverse(x2 - self._wall(0.0, sb, s2)))
        hi = min(top, s1 + math.sqrt(kept))
        best = lo_pt = point(s1)
        cells = []
        if hi > s1:
            hi_pt = point(hi)
            best = min(best, hi_pt)
            cells.append((chord_bound(s1, lo_pt[1], hi, hi_pt[1]),
                          s1, lo_pt[1], hi, hi_pt[1]))
        for _ in range(400):
            if not cells or cells[0][0] >= best[0] * (1.0 - tol):
                break
            _, l, ml, r, mr = heapq.heappop(cells)
            mid = 0.5 * (l + r)
            if not l < mid < r:
                continue
            pt = point(mid)
            best = min(best, pt)
            for cell in ((l, ml, mid, pt[1]), (mid, pt[1], r, mr)):
                bound = chord_bound(*cell)
                if bound < best[0] * (1.0 - tol):
                    heapq.heappush(cells, (bound,) + cell)
        return start if kept <= best[0] * (1.0 + tol) else best[2:]

    def _sheet(self, R: float, sb: float, s2: float) -> tuple:
        """(P, b, c): the squared distance P from (sb, s2, R), sb, s2 >= 0,
        to the sheet h = chi1((b - 2)_+)^2 + chi2 c^2, and its nearest
        point (b, c), b >= sb, c >= s2.

        Each term is chi((v - w)_+)^2 with w = 2 for b and w = 0 for c; with
        u = s - w, stationarity at multiplier lam = R - h puts v at s on the
        flat part (u <= 0), on the arm at t = v - w = u/(1 - 2 chi lam) > 0,
        or, when u = 0, anywhere on the arm at lam = 1/(2 chi) ("free").
        Every combination is tried: the arms' lam are the roots of
        h(lam) = R - lam - sum chi t^2 (:func:`_sheet_roots`), and a free
        arm takes the height left at its lam.  Two free arms share one lam
        only when chi1 = chi2, and then putting all of it on b is as near.
        """
        h0 = self._wall(0.0, sb, s2)
        best = ((R - h0) ** 2, sb, s2)     # the vertical foot
        if not R > h0:
            return best
        terms = ((self.chi1, sb - 2.0, 2.0, sb), (self.chi2, s2, 0.0, s2))
        kinds = [(["flat"] if chi == 0.0 or u <= 0.0 else [])
                 + ([] if chi == 0.0 else ["free" if u == 0.0 else "arm"])
                 for chi, u, _, _ in terms]
        for pair in ((kb, kc) for kb in kinds[0] for kc in kinds[1]):
            if pair == ("free", "free"):
                continue
            free = pair.index("free") if "free" in pair else None
            lams = [0.5 / terms[free][0]] if free is not None else \
                _sheet_roots(R, [term[:2] for kind, term in zip(pair, terms)
                                 if kind == "arm"])
            for lam in lams:
                ts = [_arm_offset(chi, u, lam) if kind == "arm" else 0.0
                      for kind, (chi, u, _, _) in zip(pair, terms)]
                if None in ts:
                    continue
                if free is not None:
                    rest = R - lam - terms[1 - free][0] * ts[1 - free] ** 2
                    if not rest > 0.0:
                        continue
                    ts[free] = math.sqrt(rest / terms[free][0])
                b, c = (s if kind == "flat" else w + t for kind, t, (_, _, w, s)
                        in zip(pair, ts, terms))
                dh = R - self._wall(0.0, b, c)
                P = (b - sb) ** 2 + (c - s2) ** 2 + dh * dh
                best = min(best, (P, b, c))
        return best

    def _node(self, z: list, f=None, slot: int = 0) -> tuple:
        """``(radius, factor)`` at the list ``z``: the inner radius, and as
        the factor the plain floats :meth:`_line_radius` reads, the inner
        radius, |x1|, |y1|, |y2|, x2 and the cap gap.

        The radius is a certified lower bound for boundary_distance.  The
        nearest wall point sits within the vertical gap g of the graph
        coordinates, so a Lipschitz constant of the wall over that ball
        gives dist >= g / sqrt(1 + L^2); the cap sheet contributes exactly
        (:meth:`_cap_gap`).  Outside, the vertical gap or the cap gap is
        <= 0, and so is the bound.
        """
        z1, z2 = z
        x1, y1, x2, y2 = z1.real, z1.imag, z2.real, z2.imag
        cap = self._cap_gap(z1, z2)
        gap = x2 - self._wall(x1, y1, y2)
        if gap <= 0:
            r = 0.0
        else:
            # sup of each gradient component over the ball of radius gap (the
            # wall profile is even and convex in each variable, so the sup is
            # at the rim)
            ga = abs(self.psi.derivative(abs(x1) + gap))
            gb = 2.0 * self.chi1 * max(0.0, abs(y1) + gap - 2.0)
            gc = 2.0 * self.chi2 * (abs(y2) + gap)
            lip = math.sqrt(ga * ga + gb * gb + gc * gc)
            wall_bound = gap / math.sqrt(1.0 + lip * lip)
            r = max(0.0, min(cap, wall_bound))
        return r, (r, abs(x1), abs(y1), abs(y2), x2, cap)

    def _terms(self, a, b, fa, fb, T=None, slot: int = 0) -> list:
        """The touching-disc term of :meth:`Domain._terms` at

            t = max(ra, rb, rho(a, u), rho(b, u)),  u = (b - a)/|b - a|,

        ra and rb the node radii and rho the *line radius* of
        :meth:`_line_radius`: a certified radius of a disc about the end in
        the segment's own complex line, through the factor and bounds on
        |u_j| (:func:`_unit_bounds`).  Each (factor, direction bounds) pair
        computes its rho once, through a memo of at most ``_LINE_MEMO``
        entries, so a chord's midpoint pays for one line radius, not two.
        """
        d = _difference_parts(a, b)
        if not any(d):
            return [0.0]
        q = _unit_bounds(d)
        memo, t = self._line_memo, max(fa[0], fb[0])
        for f in (fa, fb):
            rho = memo.get((f, q))
            if rho is None:
                if len(memo) >= _LINE_MEMO:
                    memo.clear()
                rho = memo[f, q] = self._line_radius(f, q)
            t = max(t, rho)
        return [_touching_disc_upper(d, t)]

    def _line_radius(self, f: tuple, q: tuple) -> float:
        """A certified radius rho >= the inner radius of the disc
        {z + zeta*u : |zeta| < rho} in the domain, for the point with node
        factor ``f`` and every unit u with |u1| <= q1, |u2| <= q2.

        On that disc |Re w1| <= |x1| + r q1, |Im w1| <= |y1| + r q1,
        |Im w2| <= |y2| + r q2 and Re w2 >= x2 - r q2, where r = |zeta|.  As
        psi is even and nondecreasing in |x| (its quadratic continuation
        too), the wall function G = F - Re w2 is at most

            M(r) = psi(|x1| + r q1) + chi1((|y1| + r q1 - 2)_+)^2
                   + chi2(|y2| + r q2)^2 + r q2 - x2,

        which increases strictly in r (q2 > 0).  So M(r) <= 0 puts the disc
        of radius r below the wall, and r <= the cap gap puts it inside the
        cap ball.  The guess is the even iterate Phi(Phi(0)) of

            Phi(r) = (psi^-1(x2 - chi1(...)^2 - chi2(...)^2 - r q2) - |x1|)/q1,

        which is nonincreasing, so Phi(0) is at or past the root of M and
        Phi(Phi(0)) at or before it; the odd iterate Phi(0) is not sound.
        The guess is never trusted: r is capped at the cap gap and taken
        only once :meth:`_line_wall_up`, M's psi, chi and sum terms rounded
        up, certifies it; else r shrinks by 2^-20 up to twice, and the
        inner radius is the fallback.
        """
        r0, cap = f[0], f[5]
        if not r0 > 0.0:
            return r0
        r = self._line_phi(f, q, 0.0)
        if not r > r0:
            return r0
        r = min(cap, self._line_phi(f, q, min(cap, r)))
        for _ in range(3):
            if not r > r0:
                return r0
            if self._line_wall_up(f, q, r) < f[4]:
                return r
            r *= 1.0 - 2.0 ** -20
        return r0

    def _line_phi(self, f: tuple, q: tuple, r: float) -> float:
        """Phi(r) of :meth:`_line_radius` in plain floats, 0 where its
        psi budget is not positive."""
        _, ax1, ay1, ay2, x2, _ = f
        q1, q2 = q
        s = max(0.0, ay1 + r * q1 - 2.0)
        c = ay2 + r * q2
        budget = x2 - self.chi1 * s * s - self.chi2 * c * c - r * q2
        if not budget > 0.0:
            return 0.0
        return (self.psi.inverse(budget) - ax1) / q1

    def _line_wall_up(self, f: tuple, q: tuple, r: float) -> float:
        """M(r) + x2 of :meth:`_line_radius`, rounded up: each sum of two
        nonnegative floats and each product two steps up (:func:`_up`), psi
        by :meth:`PsiSpec.value_up`, and the four terms by
        :func:`_sum_up`."""
        _, ax1, ay1, ay2, _, _ = f
        q1, q2 = q
        s = _up(ay1 + r * q1, 2) - 2.0
        s = _up(s, 1) if s > 0.0 else 0.0
        c = _up(ay2 + r * q2, 2)
        return _sum_up([self.psi.value_up(_up(ax1 + r * q1, 2)),
                        _up(self.chi1 * s * s, 2), _up(self.chi2 * c * c, 2),
                        _up(r * q2, 1)])

    @functools.cached_property
    def projection_threshold(self) -> float:
        """Uniqueness scale, half the minimal curvature radius: the wall's
        Hessian is diag(psi'', 2 chi1 past |y1| = 2, 2 chi2), the cap's is
        1/cap_radius, and psi'' is sampled by differences at 17 points."""
        h = 1e-5
        psi_curv = max(abs((self.psi.derivative(x + h) - self.psi.derivative(x)) / h)
                       for x in np.linspace(-2.0, 2.0, 17))
        return 0.5 / max(1.0 / self.cap_radius, 2.0 * self.chi1,
                         2.0 * self.chi2, psi_curv)

    def _project(self, z) -> tuple:
        d_cap = self._cap_gap(*z.tolist())
        d_wall, contact = self._graph_distance(z)
        d = min(d_cap, d_wall)
        if d > self.projection_threshold:
            return d, AmbiguousProjectionError(
                f"projection at depth {d:.3g} exceeds the uniqueness threshold "
                f"{self.projection_threshold:.3g}")
        tied = abs(d_cap - d_wall) <= 1e-7 * max(1.0, d)
        if tied or d_cap < d_wall:
            cap_pt = z * (self.cap_radius / np.linalg.norm(z))
            if tied and np.linalg.norm(cap_pt - contact) > 1e-4:
                return d, AmbiguousProjectionError("cap and wall contacts tie")
            if d_cap < d_wall:
                contact = cap_pt
        return d, contact

    def _supporting_normal(self, b) -> np.ndarray:
        if abs(np.linalg.norm(b) - self.cap_radius) < 1e-6 * self.cap_radius:
            return b / np.linalg.norm(b)
        x1, y1 = b[0].real, b[0].imag
        y2 = b[1].imag
        Fa, Fb, Fc = self._wall_grad(x1, y1, y2)
        nu = np.array([complex(Fa, Fb), complex(-1.0, Fc)])
        return nu / np.linalg.norm(nu)

    def boundary_anchor_points(self, count: int, rng: np.random.Generator) -> list:
        out = []
        n_seg = max(1, count // 2)
        for y in np.linspace(-1.8, 1.8, n_seg):
            out.append(np.array([complex(0.0, y), 0j]))
        out.extend(super().boundary_anchor_points(count - n_seg, rng))
        return out[:count]

    @property
    def base_point(self) -> np.ndarray:
        return np.array([0j, 1.0 + 0j])

    def to_json(self) -> dict:
        return {
            "kind": "omega_psi",
            "psi": self.psi.to_json(),
            "chi1": self.chi1,
            "chi2": self.chi2,
            "cap_radius": self.cap_radius,
        }


class LocalizedDomain(Domain):
    """The intersection of a domain with an open euclidean ball.

    Used by the localization probe (geodesics of D cap U vs geodesics of D)
    and wherever a bounded window into a domain is needed.
    """

    def __init__(self, base: Domain, center, radius: float):
        self.base = base
        self.center = as_carray(center)
        self.radius = float(radius)
        if len(self.center) != base.dim:
            raise GeometryError("window center dimension mismatch")
        self.dim = base.dim
        self.bounding_radius = min(
            base.bounding_radius, float(np.linalg.norm(self.center)) + self.radius)
        self._a2 = [self.radius ** 2] * self.dim

    # a point of the window has the base's dimension and, when interior,
    # lies in the base, so the base's private methods take it unchecked

    def _contains(self, z) -> bool:
        if np.linalg.norm(z - self.center) >= self.radius:
            return False
        return self.base._contains(z)

    def _node(self, z: list, f=None, slot: int = 0) -> tuple:
        r = min(self.base._node(z)[0],
                self.radius - float(np.linalg.norm(np.array(z) - self.center)))
        return r, r

    def _directional_distance(self, z, v, stop=-math.inf) -> float:
        v = v / np.linalg.norm(v)
        return min(self.base._directional_distance(z, v, stop),
                   _quadric_exit(z - self.center, v, self._a2))

    def _project(self, z) -> tuple:
        w = z - self.center
        nw = float(np.linalg.norm(w))
        d_ball = self.radius - nw
        d_base, base_pt = self.base._project(z)
        d = min(d_base, d_ball)
        tied = abs(d_ball - d_base) <= 1e-7 * max(1.0, min(d_ball, d_base))
        if not (tied or d_ball < d_base):
            return d, base_pt
        if nw == 0.0:
            return d, AmbiguousProjectionError(
                "every direction exits the window sphere at the same distance")
        sphere_pt = self.center + w * (self.radius / nw)
        if not tied:
            return d, sphere_pt
        if isinstance(base_pt, AmbiguousProjectionError):
            return d, base_pt
        if np.linalg.norm(sphere_pt - base_pt) > 1e-4:
            return d, AmbiguousProjectionError("window sphere and base boundary tie")
        return d, sphere_pt if d_ball <= d_base else base_pt

    def _supporting_normal(self, b) -> np.ndarray:
        if abs(np.linalg.norm(b - self.center) - self.radius) < 1e-6 * self.radius:
            w = b - self.center
            return w / np.linalg.norm(w)
        return self.base._supporting_normal(b)

    @property
    def base_point(self) -> np.ndarray:
        return self.center


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def _json_number(val, name: str, integer: bool = False,
                 error: type = GeometryError):
    """An outside-input value as a finite float, or as an int with
    ``integer``.

    Anything else (a string that is no number, null, a list, inf or nan, a
    fractional count) raises ``error`` naming the field, never a bare
    ValueError.
    """
    try:
        num = float(val)
        if math.isfinite(num):
            if not integer:
                return num
            if num.is_integer():
                return int(num)
    except (TypeError, ValueError, OverflowError):
        pass
    kind = "an integer" if integer else "a finite number"
    raise error(f"{name!r} must be {kind}, got {val!r}")


def domain_from_json(obj: dict) -> Domain:
    """Build a domain from its JSON description."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise GeometryError("domain JSON needs a 'kind' tag")
    kind = obj["kind"]
    if kind == "disc":
        return Disc()
    if kind == "halfplane":
        return HalfPlane()
    if kind == "polydisc":
        return Polydisc(_json_number(obj.get("n", 2), "n", integer=True))
    if kind == "ball":
        return Ball(_json_number(obj.get("n", 2), "n", integer=True))
    if kind == "ellipsoid":
        axes = obj.get("axes")
        if not isinstance(axes, (list, tuple)):
            raise GeometryError("an ellipsoid record needs an 'axes' list")
        return Ellipsoid([_json_number(a, "axes") for a in axes])
    if kind == "omega_psi":
        psi = PsiSpec.from_json(obj.get("psi", {"form": "exp_neg_c_over_x"}))
        return OmegaPsi(
            psi, chi1=_json_number(obj.get("chi1", 1.0), "chi1"),
            chi2=_json_number(obj.get("chi2", 1.0), "chi2"),
            cap_radius=_json_number(obj.get("cap_radius", 3.0), "cap_radius"))
    raise GeometryError(f"unknown domain kind {kind!r}")
