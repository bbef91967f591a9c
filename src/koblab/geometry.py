"""Convex domains in C^n with certified boundary queries.

Everything downstream (metric brackets, geodesic search, visibility probes)
reduces to a handful of geometric primitives on an open convex domain D:

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
ball) also carry their closed-form distance and metric and the geodesic
solver's segment kernels, through the ``Domain`` protocol.  The graph-type
domain used in the flat-boundary experiments and arbitrary smooth convex
bodies fall back to generic ray-sampling machinery with bisection along each
ray; those code paths carry doubling self-checks in the test suite instead of
closed-form guarantees.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import optimize


class GeometryError(ValueError):
    """Raised for invalid geometric inputs (outside point, bad dimension...)."""


class AmbiguousProjectionError(GeometryError):
    """Raised when a nearest-boundary-point query has no unique answer."""


# ---------------------------------------------------------------------------
# points and vectors
# ---------------------------------------------------------------------------


def as_carray(x) -> np.ndarray:
    """Coerce a point/vector (sequence or scalar) to a complex array."""
    arr = np.atleast_1d(np.asarray(x, dtype=complex))
    if arr.ndim != 1:
        raise GeometryError(f"expected a 1-d complex point, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
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
        if len(p) != 2:
            raise GeometryError(f"coordinate pair must have 2 entries, got {p!r}")
        out.append(complex(float(p[0]), float(p[1])))
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


def _unit_directions(dim_real: int, count: int) -> np.ndarray:
    """A fixed, deterministic set of unit directions in R^dim_real."""
    rng = np.random.default_rng(_DIRECTION_SEED + 1000 * dim_real + count)
    dirs = rng.standard_normal((count, dim_real))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return dirs


def ray_exit(
    contains: Callable[[np.ndarray], bool],
    z: np.ndarray,
    u: np.ndarray,
    hi_cap: float,
    rel_tol: float = 1e-9,
) -> float:
    """sup { t > 0 : z + t*u in D } for a convex D containing z.

    ``u`` is a unit vector in complex coordinates.  Bisection to relative
    tolerance ``rel_tol``; the exit time is capped at ``hi_cap``.
    """
    lo = 0.0
    hi = min(1e-3 * max(hi_cap, 1.0), hi_cap)
    while contains(z + hi * u):
        lo = hi
        hi *= 2.0
        if hi >= hi_cap:
            if contains(z + hi_cap * u):
                return hi_cap
            hi = hi_cap
            break
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if contains(z + mid * u):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _ray_objective(contains: Callable[[np.ndarray], bool], z: np.ndarray,
                   cap: float) -> Callable[[np.ndarray], float]:
    """Exit time along the real-view direction w, normalized (cap at w ~ 0)."""

    def objective(w: np.ndarray) -> float:
        nrm = np.linalg.norm(w)
        if nrm < 1e-12:
            return cap
        return ray_exit(contains, z, complex_view(w / nrm), cap)
    return objective


def _rated_rays(contains: Callable[[np.ndarray], bool], z: np.ndarray,
                count: int, cap: float) -> list:
    """(exit time, direction) over the fixed sample directions, shortest first."""
    rated = []
    for u_real in _unit_directions(2 * len(z), count):
        u = complex_view(u_real)
        rated.append((ray_exit(contains, z, u, cap), u))
    rated.sort(key=lambda t: t[0])
    return rated


def sampled_boundary_distance(
    domain: "Domain",
    z: np.ndarray,
    n_dirs: int = 128,
) -> float:
    """Distance to the boundary by sampled rays + local refinement.

    The three shortest rays are each polished by derivative-free descent.
    Doubling ``n_dirs`` must leave the result stable (self-checked in tests).
    """
    cap = 4.0 * domain.bounding_radius + float(np.linalg.norm(z)) + 1.0
    rated = _rated_rays(domain.contains, z, n_dirs, cap)
    objective = _ray_objective(domain.contains, z, cap)
    best = rated[0][0]
    for _, u in rated[:3]:
        res = optimize.minimize(
            objective,
            real_view(u),
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-13, "maxiter": 600},
        )
        best = min(best, float(min(objective(res.x), objective(real_view(u)))))
    return best


def _sampled_contact(domain: "Domain", z: np.ndarray, count: int):
    """Nearest boundary contact from ``count`` sampled rays, the shortest
    polished by Nelder-Mead.

    Returns (exit time, unit direction, all rated rays shortest first).
    """
    cap = 4.0 * domain.bounding_radius + float(np.linalg.norm(z)) + 1.0
    rated = _rated_rays(domain.contains, z, count, cap)
    best_r, best_u = rated[0]
    res = optimize.minimize(_ray_objective(domain.contains, z, cap),
                            real_view(best_u), method="Nelder-Mead",
                            options={"xatol": 1e-10, "fatol": 1e-14,
                                     "maxiter": 800})
    if res.fun < best_r:
        w = res.x / np.linalg.norm(res.x)
        best_r, best_u = res.fun, complex_view(w)
    return best_r, best_u, rated


def scan_directional_distance(
    domain: "Domain",
    z: np.ndarray,
    v: np.ndarray,
    n_theta: int = 64,
) -> float:
    """Directional distance by scanning phases of the complex disc slice.

    The slice D cap (z + C v) is a planar convex region containing 0; its
    boundary distance from 0 is the minimum over phases of the ray exit time.
    """
    v = v / np.linalg.norm(v)
    cap = 4.0 * domain.bounding_radius + float(np.linalg.norm(z)) + 1.0

    def r_of(theta: float) -> float:
        u = np.exp(1j * theta) * v
        return ray_exit(domain.contains, z, u, cap)

    thetas = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    values = [r_of(t) for t in thetas]
    k = int(np.argmin(values))
    h = 2.0 * math.pi / n_theta
    res = optimize.minimize_scalar(
        r_of, bounds=(thetas[k] - h, thetas[k] + h), method="bounded",
        options={"xatol": 1e-10},
    )
    return float(min(res.fun, values[k]))


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

    ``exact`` marks the model domains, whose Kobayashi distance and metric
    have closed forms (:meth:`exact_distance`, :meth:`exact_metric`) and
    whose solver segment kernels return exact pair distances.
    """

    dim: int
    bounding_radius: float
    exact = False

    # -- membership and distances ------------------------------------------

    def contains(self, z) -> bool:
        raise NotImplementedError

    def boundary_distance(self, z) -> float:
        """Euclidean distance from an interior point to the boundary."""
        raise NotImplementedError

    def directional_distance(self, z, v) -> float:
        """Radius of the largest complex disc through z in direction v/|v|."""
        z = self._interior(z)
        v = as_carray(v)
        if np.linalg.norm(v) == 0:
            raise GeometryError("zero direction")
        if len(v) != self.dim:
            raise GeometryError("direction dimension mismatch")
        return scan_directional_distance(self, z, v)

    def inner_radius_fast(self, z) -> float:
        """A cheap certified lower bound for boundary_distance (may be exact)."""
        return self.boundary_distance(z)

    # -- closed forms and solver kernels ---------------------------------------

    def exact_distance(self, x: np.ndarray, y: np.ndarray):
        """Closed-form Kobayashi distance between interior points, or None."""
        return None

    def exact_metric(self, z: np.ndarray, X: np.ndarray) -> float:
        """Closed-form Kobayashi metric of X at z."""
        raise GeometryError(f"no closed-form metric for {type(self).__name__}")

    def segment_kernels(self):
        """The ``(radius, seg, drive)`` closures of the geodesic descent.

        ``radius(p)`` is a cheap interior radius, negative outside.
        ``seg(a, b, ra, rb)`` is the certified upper for k(a, b) given the
        endpoint radii, inf when it cannot certify.  ``drive`` is the search
        objective, which is ``seg`` itself unless a domain supplies a
        smoother surrogate.  Here: the fast certified inner radius and the
        touching-disc bound artanh(|b - a| / max(ra, rb)).
        """
        dom = self

        def radius(p):
            if not dom.contains(p):
                return -1.0
            return dom.inner_radius_fast(p)

        def seg(a, b, ra, rb):
            u = float(np.linalg.norm(b - a))
            if u == 0.0:
                return 0.0
            t = max(ra, rb)
            if not u < t:
                return math.inf
            return math.atanh(u / t)
        return radius, seg, seg

    # -- boundary structure --------------------------------------------------

    def nearest_boundary_point(self, z) -> np.ndarray:
        raise NotImplementedError

    def supporting_normal(self, b) -> np.ndarray:
        """Outward unit normal of a supporting hyperplane at boundary point b."""
        raise NotImplementedError

    def minimal_basis(self, z) -> MinimalBasisResult:
        return _generic_minimal_basis(self, z)

    # -- metadata ------------------------------------------------------------

    @property
    def base_point(self) -> np.ndarray:
        raise NotImplementedError

    def boundary_anchor_points(self, count: int, rng: np.random.Generator) -> list:
        """Boundary points used to seed near-boundary sampling probes."""
        cap = 4.0 * self.bounding_radius + 1.0
        out = []
        base = self.base_point
        for _ in range(count):
            u = rng.standard_normal(2 * self.dim)
            u = complex_view(u / np.linalg.norm(u))
            t = ray_exit(self.contains, base, u, cap)
            out.append(base + t * u)
        return out

    def to_json(self) -> dict:
        raise GeometryError(f"{type(self).__name__} has no JSON form")

    # -- helpers --------------------------------------------------------------

    def _interior(self, z) -> np.ndarray:
        arr = as_carray(z)
        if len(arr) != self.dim:
            raise GeometryError(
                f"point dimension {len(arr)} != domain dimension {self.dim}"
            )
        if not self.contains(arr):
            raise GeometryError(f"point {arr} is not in the domain")
        return arr

    def _boundary(self, b) -> np.ndarray:
        arr = as_carray(b)
        if len(arr) != self.dim:
            raise GeometryError("point dimension mismatch")
        return arr


# ---------------------------------------------------------------------------
# model domains: closed forms
# ---------------------------------------------------------------------------


def disc_distance(a: complex, b: complex) -> float:
    """Poincare distance on the unit disc.

    Written as ½ log((|1-āb| + |a-b|)² / ((1-|a|²)(1-|b|²))) rather than
    artanh of the Möbius ratio: the denominator is cancellation-free, which
    keeps near-boundary pairs accurate to ~1e-12 where the ratio form loses
    half the digits.
    """
    a, b = complex(a), complex(b)
    if abs(a) >= 1.0 or abs(b) >= 1.0:
        raise GeometryError("disc_distance needs interior points")
    num = abs(1.0 - a.conjugate() * b) + abs(a - b)
    den = (1.0 - abs(a) ** 2) * (1.0 - abs(b) ** 2)
    return max(0.0, 0.5 * math.log(num * num / den))


def halfplane_distance(a: complex, b: complex) -> float:
    """Poincare distance on the upper half-plane { Im > 0 }."""
    a, b = complex(a), complex(b)
    if a.imag <= 0.0 or b.imag <= 0.0:
        raise GeometryError("halfplane_distance needs Im > 0")
    # |a - conj(b)|^2 - |a - b|^2 = 4 Im(a) Im(b), so the log form avoids
    # the near-boundary cancellation of the artanh ratio
    num = abs(a - b.conjugate()) + abs(a - b)
    den = 4.0 * a.imag * b.imag
    return max(0.0, 0.5 * math.log(num * num / den))


def polydisc_distance(z, w) -> float:
    """max over coordinates of the disc distance."""
    z, w = as_carray(z), as_carray(w)
    if z.shape != w.shape:
        raise GeometryError("dimension mismatch")
    return max(disc_distance(z[j], w[j]) for j in range(len(z)))


def ball_distance(z, w) -> float:
    """Kobayashi (= Bergman up to scale) distance on the unit ball."""
    z, w = as_carray(z), as_carray(w)
    if z.shape != w.shape:
        raise GeometryError("dimension mismatch")
    nz2 = float(np.vdot(z, z).real)
    nw2 = float(np.vdot(w, w).real)
    if nz2 >= 1.0 or nw2 >= 1.0:
        raise GeometryError("ball_distance needs interior points")
    inner = complex(np.sum(z * np.conj(w)))
    # clamp: ratio can exceed 1 by rounding when z == w; the log form keeps
    # near-boundary pairs accurate where artanh(sqrt(1-ratio)) would not be
    ratio = min(1.0, (1.0 - nz2) * (1.0 - nw2) / abs(1.0 - inner) ** 2)
    m = math.sqrt(max(0.0, 1.0 - ratio))
    if ratio == 0.0:
        raise GeometryError("pair too close to the boundary for the formula")
    return max(0.0, 0.5 * math.log((1.0 + m) ** 2 / ratio))


# The solver's segment kernels below use the artanh of the Möbius ratio on
# plain complex scalars, not the log forms above: they run in the descent's
# inner loop, and switching formulas would move every reported solver upper
# in its last bits.


class Disc(Domain):
    """The unit disc in C."""

    dim = 1
    bounding_radius = 1.0
    exact = True

    def exact_distance(self, x, y) -> float:
        return disc_distance(x[0], y[0])

    def exact_metric(self, z, X) -> float:
        return abs(X[0]) / (1.0 - abs(z[0]) ** 2)

    def segment_kernels(self):
        def radius(p):
            return 1.0 - abs(p[0])

        def seg(a, b, ra, rb):
            a0, b0 = a[0], b[0]
            return math.atanh(abs(a0 - b0) / abs(1.0 - a0.conjugate() * b0))
        return radius, seg, seg

    def contains(self, z) -> bool:
        arr = as_carray(z)
        return abs(arr[0]) < 1.0

    def boundary_distance(self, z) -> float:
        z = self._interior(z)
        return 1.0 - abs(z[0])

    def directional_distance(self, z, v) -> float:
        z = self._interior(z)
        as_carray(v)
        return 1.0 - abs(z[0])

    def nearest_boundary_point(self, z) -> np.ndarray:
        z = self._interior(z)
        if abs(z[0]) < 1e-14:
            return np.array([-1.0 + 0j])
        return z / abs(z[0])

    def supporting_normal(self, b) -> np.ndarray:
        b = self._boundary(b)
        return b / abs(b[0])

    def minimal_basis(self, z) -> MinimalBasisResult:
        z = self._interior(z)
        contact = self.nearest_boundary_point(z)
        tau = 1.0 - abs(z[0])
        e = (contact - z) / tau
        return MinimalBasisResult(
            basis=e.reshape(1, 1), taus=np.array([tau]), contacts=contact.reshape(1, 1)
        )

    @property
    def base_point(self) -> np.ndarray:
        return np.array([0j])

    def to_json(self) -> dict:
        return {"kind": "disc"}


class HalfPlane(Domain):
    """The upper half-plane { Im z > 0 } in C (the only unbounded model)."""

    dim = 1
    bounding_radius = math.inf
    exact = True

    def exact_distance(self, x, y) -> float:
        return halfplane_distance(x[0], y[0])

    def exact_metric(self, z, X) -> float:
        return abs(X[0]) / (2.0 * z[0].imag)

    def segment_kernels(self):
        def radius(p):
            return p[0].imag

        def seg(a, b, ra, rb):
            a0, b0 = a[0], b[0]
            return math.atanh(abs(a0 - b0) / abs(a0 - b0.conjugate()))
        return radius, seg, seg

    def contains(self, z) -> bool:
        return as_carray(z)[0].imag > 0.0

    def boundary_distance(self, z) -> float:
        z = self._interior(z)
        return z[0].imag

    def directional_distance(self, z, v) -> float:
        z = self._interior(z)
        as_carray(v)
        return z[0].imag

    def nearest_boundary_point(self, z) -> np.ndarray:
        z = self._interior(z)
        return np.array([complex(z[0].real, 0.0)])

    def supporting_normal(self, b) -> np.ndarray:
        self._boundary(b)
        return np.array([-1j])

    def minimal_basis(self, z) -> MinimalBasisResult:
        z = self._interior(z)
        tau = z[0].imag
        return MinimalBasisResult(
            basis=np.array([[-1j]]),
            taus=np.array([tau]),
            contacts=np.array([[complex(z[0].real, 0.0)]]),
        )

    def boundary_anchor_points(self, count: int, rng: np.random.Generator) -> list:
        return [np.array([complex(x, 0.0)]) for x in rng.uniform(-3.0, 3.0, count)]

    @property
    def base_point(self) -> np.ndarray:
        return np.array([1j])

    def to_json(self) -> dict:
        return {"kind": "halfplane"}


class Polydisc(Domain):
    """The unit polydisc D^n."""

    exact = True

    def __init__(self, n: int = 2):
        if n < 1:
            raise GeometryError("polydisc dimension must be >= 1")
        self.dim = int(n)
        self.bounding_radius = math.sqrt(n)

    def exact_distance(self, x, y) -> float:
        return polydisc_distance(x, y)

    def exact_metric(self, z, X) -> float:
        return max(abs(X[j]) / (1.0 - abs(z[j]) ** 2) for j in range(self.dim))

    def segment_kernels(self):
        """The certified ``seg`` is the max over coordinate disc distances.

        Its flat ridges stall coordinate descent, so ``drive`` is the smooth
        euclidean norm of the per-coordinate distance vector; its minimizers
        allocate every coordinate's length proportionally across segments,
        and at a proportional allocation the per-segment max telescopes, so
        the final configuration also minimizes the certified sum.
        """
        n = self.dim

        def radius(p):
            worst = 0.0
            for j in range(n):
                m = abs(p[j])
                if m > worst:
                    worst = m
            return 1.0 - worst

        def seg(a, b, ra, rb):
            worst = 0.0
            for j in range(n):
                m = abs(a[j] - b[j]) / abs(1.0 - a[j].conjugate() * b[j])
                if m > worst:
                    worst = m
            return math.atanh(worst)

        def drive(a, b, ra, rb):
            total = 0.0
            for j in range(n):
                m = abs(a[j] - b[j]) / abs(1.0 - a[j].conjugate() * b[j])
                s = math.atanh(min(m, 1.0 - 1e-16))
                total += s * s
            return math.sqrt(total)
        return radius, seg, drive

    def contains(self, z) -> bool:
        arr = as_carray(z)
        return bool(np.max(np.abs(arr)) < 1.0)

    def boundary_distance(self, z) -> float:
        z = self._interior(z)
        return float(np.min(1.0 - np.abs(z)))

    def directional_distance(self, z, v) -> float:
        z = self._interior(z)
        v = as_carray(v)
        v = v / np.linalg.norm(v)
        gaps = 1.0 - np.abs(z)
        t = math.inf
        for j in range(self.dim):
            if abs(v[j]) > 1e-15:
                t = min(t, gaps[j] / abs(v[j]))
        return t

    def _face_contact(self, z: np.ndarray, j: int) -> np.ndarray:
        w = z.copy()
        w[j] = z[j] / abs(z[j]) if abs(z[j]) > 1e-14 else -1.0
        return w

    def nearest_boundary_point(self, z) -> np.ndarray:
        z = self._interior(z)
        gaps = 1.0 - np.abs(z)
        best = np.min(gaps)
        cands = [
            self._face_contact(z, j)
            for j in range(self.dim)
            if gaps[j] <= best + 1e-13
        ]
        return min(cands, key=_lex_key)

    def supporting_normal(self, b) -> np.ndarray:
        b = self._boundary(b)
        j = int(np.argmax(np.abs(b)))
        nu = np.zeros(self.dim, dtype=complex)
        nu[j] = b[j] / abs(b[j])
        return nu

    def minimal_basis(self, z) -> MinimalBasisResult:
        z = self._interior(z)
        gaps = 1.0 - np.abs(z)
        # order the faces by gap; break ties toward the lexicographically
        # smallest contact point
        order = sorted(range(self.dim), key=lambda j: (gaps[j], _lex_key(self._face_contact(z, j))))
        basis = np.zeros((self.dim, self.dim), dtype=complex)
        contacts = np.zeros((self.dim, self.dim), dtype=complex)
        taus = np.zeros(self.dim)
        for k, j in enumerate(order):
            contact = self._face_contact(z, j)
            basis[k, j] = (contact[j] - z[j]) / gaps[j]
            taus[k] = gaps[j]
            contacts[k] = contact
        return MinimalBasisResult(basis=basis, taus=taus, contacts=contacts)

    @property
    def base_point(self) -> np.ndarray:
        return np.zeros(self.dim, dtype=complex)

    def to_json(self) -> dict:
        return {"kind": "polydisc", "n": self.dim}


class Ball(Domain):
    """The unit euclidean ball in C^n."""

    exact = True

    def __init__(self, n: int = 2):
        if n < 1:
            raise GeometryError("ball dimension must be >= 1")
        self.dim = int(n)
        self.bounding_radius = 1.0

    def exact_distance(self, x, y) -> float:
        return ball_distance(x, y)

    def exact_metric(self, z, X) -> float:
        nz2 = float(np.vdot(z, z).real)
        nX2 = float(np.vdot(X, X).real)
        zx = complex(np.sum(X * np.conj(z)))
        s = 1.0 - nz2
        return math.sqrt((nX2 * s + abs(zx) ** 2)) / s

    def segment_kernels(self):
        n = self.dim

        def radius(p):
            total = 0.0
            for j in range(n):
                q = p[j]
                total += q.real * q.real + q.imag * q.imag
            return 1.0 - math.sqrt(total)

        def seg(a, b, ra, rb):
            na = 0.0
            nb = 0.0
            inner = 0j
            for j in range(n):
                aj, bj = a[j], b[j]
                na += aj.real * aj.real + aj.imag * aj.imag
                nb += bj.real * bj.real + bj.imag * bj.imag
                inner += aj * bj.conjugate()
            ratio = (1.0 - na) * (1.0 - nb) / abs(1.0 - inner) ** 2
            m = math.sqrt(max(0.0, 1.0 - min(1.0, ratio)))
            return math.atanh(min(m, 1.0 - 1e-16))
        return radius, seg, seg

    def contains(self, z) -> bool:
        arr = as_carray(z)
        return float(np.linalg.norm(arr)) < 1.0

    def boundary_distance(self, z) -> float:
        z = self._interior(z)
        return 1.0 - float(np.linalg.norm(z))

    def directional_distance(self, z, v) -> float:
        z = self._interior(z)
        v = as_carray(v)
        v = v / np.linalg.norm(v)
        zv = abs(np.vdot(v, z))  # |<z, v>|
        nz2 = float(np.vdot(z, z).real)
        return -zv + math.sqrt(zv * zv + 1.0 - nz2)

    def nearest_boundary_point(self, z) -> np.ndarray:
        z = self._interior(z)
        r = np.linalg.norm(z)
        if r < 1e-14:
            out = np.zeros(self.dim, dtype=complex)
            out[0] = -1.0
            return out
        return z / r

    def supporting_normal(self, b) -> np.ndarray:
        b = self._boundary(b)
        return b / np.linalg.norm(b)

    def minimal_basis(self, z) -> MinimalBasisResult:
        z = self._interior(z)
        n = self.dim
        basis = np.zeros((n, n), dtype=complex)
        contacts = np.zeros((n, n), dtype=complex)
        taus = np.zeros(n)
        contact = self.nearest_boundary_point(z)
        taus[0] = 1.0 - float(np.linalg.norm(z))
        basis[0] = (contact - z) / taus[0]
        contacts[0] = contact
        cols = _null_basis(basis[0])
        # every further slice is a ball centered at z inside the slice, so the
        # contact circle is a full sphere: all remaining taus coincide and the
        # contact is pinned by the lexicographic tie-break.
        tau_rest = math.sqrt(max(0.0, 1.0 - float(np.vdot(z, z).real)))
        for k in range(1, n):
            contact = _lex_smallest_on_sphere(z, cols, tau_rest)
            basis[k] = (contact - z) / tau_rest
            contacts[k] = contact
            taus[k] = tau_rest
            if k < n - 1:
                sub = _null_basis(cols.conj().T @ basis[k])
                cols = cols @ sub
        return MinimalBasisResult(basis=basis, taus=taus, contacts=contacts)

    @property
    def base_point(self) -> np.ndarray:
        return np.zeros(self.dim, dtype=complex)

    def to_json(self) -> dict:
        return {"kind": "ball", "n": self.dim}


def _paired_axes(axes: np.ndarray) -> np.ndarray:
    out = np.empty(2 * len(axes))
    out[0::2] = axes
    out[1::2] = axes
    return out


def _project_interior_to_ellipsoid(u: np.ndarray, b: np.ndarray):
    """Nearest point of the real ellipsoid {sum x_i^2/b_i^2 = 1} from inside.

    Returns (p, ties) where ties is True when the contact is non-unique
    (resolved toward the lexicographically smallest point).
    Solves the KKT system p_i = b_i^2 u_i / (b_i^2 + nu) with the degenerate
    minimal-axis branch handled explicitly.  The multiplier is carried as
    s = nu + m2 (m2 the smallest b_i^2), so the denominators read
    (b_i^2 - m2) + s and are exactly s on the minimal axes: near the pole
    s = 0 they keep their relative precision however small s gets.
    """
    b2 = b * b
    m2 = float(np.min(b2))
    gap = b2 - m2
    nonzero = np.abs(u) > 0.0

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
        # an absolute tolerance far below lo keeps brentq's relative precision
        s = optimize.brentq(lambda t: g(t) - 1.0, lo, m2, xtol=1e-300,
                            rtol=8.9e-16, maxiter=200)
        p = np.where(nonzero, b2 * u / (gap + s), 0.0)
        return p, False

    # degenerate branch: contact mass sits on the minimal axes where u_i = 0
    denom = np.where(gap > 0, gap, 1.0)
    p = np.where(nonzero, b2 * u / denom, 0.0)
    leftover = m2 * max(0.0, 1.0 - g_lim)
    idx = [i for i in range(len(b2)) if b2[i] <= m2 * (1 + 1e-12) and not nonzero[i]]
    p[idx[0]] = -math.sqrt(leftover)
    ties = True
    return p, ties


class Ellipsoid(Domain):
    """The complex ellipsoid { sum |z_j|^2 / a_j^2 < 1 }."""

    def __init__(self, axes: Sequence[float]):
        axes = np.asarray(axes, dtype=float)
        if len(axes) < 1 or np.any(axes <= 0):
            raise GeometryError("ellipsoid axes must be positive")
        self.axes = axes
        self.dim = len(axes)
        self.bounding_radius = float(np.max(axes))

    def contains(self, z) -> bool:
        arr = as_carray(z)
        return float(np.sum(np.abs(arr) ** 2 / self.axes**2)) < 1.0

    def boundary_distance(self, z) -> float:
        z = self._interior(z)
        u = real_view(z)
        p, _ = _project_interior_to_ellipsoid(u, _paired_axes(self.axes))
        return float(np.linalg.norm(u - p))

    def inner_radius_fast(self, z) -> float:
        # two certified lower bounds for the boundary distance:
        #   - Lipschitz: with g = sum |z_j|^2/a_j^2 and y the nearest boundary
        #     point, 1 - g(z) <= sup ||grad g|| * delta <= 2 sqrt(sum 1/a_j^2) delta
        #   - radial concavity: z = sqrt(g) u with u on the boundary, and
        #     delta is concave, so delta(z) >= (1 - sqrt(g)) delta(0)
        z = self._interior(z)
        g = float(np.sum(np.abs(z) ** 2 / self.axes**2))
        lip = 2.0 * math.sqrt(float(np.sum(1.0 / self.axes**2)))
        radial = (1.0 - math.sqrt(g)) * float(np.min(self.axes))
        return max(0.0, (1.0 - g) / lip, radial)

    def directional_distance(self, z, v) -> float:
        z = self._interior(z)
        v = as_carray(v)
        v = v / np.linalg.norm(v)
        a2 = self.axes**2
        A = float(np.sum(np.abs(z) ** 2 / a2))
        C = float(np.sum(np.abs(v) ** 2 / a2))
        beta = abs(np.sum(v * np.conj(z) / a2))
        return (-beta + math.sqrt(beta * beta + C * (1.0 - A))) / C

    def nearest_boundary_point(self, z) -> np.ndarray:
        z = self._interior(z)
        u = real_view(z)
        p, _ = _project_interior_to_ellipsoid(u, _paired_axes(self.axes))
        return complex_view(p)

    def supporting_normal(self, b) -> np.ndarray:
        b = self._boundary(b)
        nu = b / self.axes**2
        return nu / np.linalg.norm(nu)

    def minimal_basis(self, z) -> MinimalBasisResult:
        z = self._interior(z)
        n = self.dim
        basis = np.zeros((n, n), dtype=complex)
        contacts = np.zeros((n, n), dtype=complex)
        taus = np.zeros(n)
        # stage 0 in ambient coordinates
        contact = self.nearest_boundary_point(z)
        taus[0] = float(np.linalg.norm(contact - z))
        basis[0] = (contact - z) / taus[0]
        contacts[0] = contact
        cols = _null_basis(basis[0])
        lam = 1.0 / self.axes**2
        for k in range(1, n):
            # slice { z + cols @ w } of the ellipsoid is the Hermitian quadric
            #   (w - w0)^* H (w - w0) < r2,  H = cols^* Lam cols,  zeta = cols^* Lam z
            H = cols.conj().T @ (lam[:, None] * cols)
            zeta = cols.conj().T @ (lam * z)
            const = float(np.sum(np.abs(z) ** 2 * lam))
            w0 = -np.linalg.solve(H, zeta)
            r2 = 1.0 - const + float(np.real(np.conj(w0) @ (H @ w0)))
            # diagonalize: v = evecs^* (w - w0) gives a paired real ellipsoid
            evals, evecs = np.linalg.eigh(H)
            semi = np.sqrt(r2 / evals)
            vq = -(evecs.conj().T @ w0)  # the slice origin w = 0 in v-coordinates
            p_real, _ = _project_interior_to_ellipsoid(real_view(vq), _paired_axes(semi))
            w_contact = w0 + evecs @ complex_view(p_real)
            contact = z + cols @ w_contact
            tau = float(np.linalg.norm(contact - z))
            taus[k] = tau
            basis[k] = (contact - z) / tau
            contacts[k] = contact
            if k < n - 1:
                sub = _null_basis(cols.conj().T @ basis[k])
                cols = cols @ sub
        return MinimalBasisResult(basis=basis, taus=taus, contacts=contacts)

    @property
    def base_point(self) -> np.ndarray:
        return np.zeros(self.dim, dtype=complex)

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
        if self.form == "exp_neg_c_over_x" and self.c <= 0:
            raise GeometryError("psi needs c > 0")
        if self.form == "exp_neg_inv_log_pow" and self.alpha <= 1:
            raise GeometryError("psi needs alpha > 1")

    # pure formula, valid for 0 < x <= cut ---------------------------------

    def _pure(self, x: float) -> float:
        if self.form == "exp_neg_c_over_x":
            return math.exp(-self.c / x)
        L = math.log(1.0 / x)
        return math.exp(-(1.0 / x) * L ** (-self.alpha))

    def _pure_deriv(self, x: float) -> float:
        if self.form == "exp_neg_c_over_x":
            return math.exp(-self.c / x) * self.c / (x * x)
        L = math.log(1.0 / x)
        # g(x) = x^-1 L^-alpha, psi = exp(-g), g' = x^-2 L^(-alpha-1) (alpha - L)
        g = (1.0 / x) * L ** (-self.alpha)
        gp = x ** (-2.0) * L ** (-self.alpha - 1.0) * (self.alpha - L)
        return -gp * math.exp(-g)

    @functools.cached_property
    def cut(self) -> float:
        # cached: the log-power cut is a brentq root, and value/derivative
        # read it on every call
        if self.form == "exp_neg_c_over_x":
            return 0.5 * self.c  # inflection of exp(-c/x)
        return _loglog_convexity_cut(self.alpha)

    def value(self, x: float) -> float:
        x = abs(float(x))
        if x == 0.0:
            return 0.0
        cut = self.cut
        if x <= cut:
            return self._pure(x)
        a = self._pure(cut)
        b = self._pure_deriv(cut)
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
        b = self._pure_deriv(cut)
        s = x - cut
        return sign * (b + 2.0 * b * s)

    def inverse(self, u: float) -> float:
        """The x >= 0 with psi(x) = u."""
        if not 0.0 < u:
            raise GeometryError("psi inverse needs u > 0")
        cut = self.cut
        if u <= self._pure(cut):
            if self.form == "exp_neg_c_over_x":
                return self.c / math.log(1.0 / u)
            return optimize.brentq(lambda x: self._pure(x) - u, 1e-300, cut,
                                   xtol=1e-300, rtol=8.9e-16, maxiter=400)
        # continuation region: quadratic, solve directly
        a = self._pure(cut)
        b = self._pure_deriv(cut)
        s = (-b + math.sqrt(b * b + 4.0 * b * (u - a))) / (2.0 * b)
        return cut + s

    def to_json(self) -> dict:
        if self.form == "exp_neg_c_over_x":
            return {"form": self.form, "c": self.c}
        return {"form": self.form, "alpha": self.alpha}

    @classmethod
    def from_json(cls, obj: dict) -> "PsiSpec":
        form = obj.get("form")
        if form == "exp_neg_c_over_x":
            return cls(form=form, c=float(obj.get("c", math.pi)))
        if form == "exp_neg_inv_log_pow":
            return cls(form=form, alpha=float(obj.get("alpha", 2.0)))
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
    return optimize.brentq(convexity_gap, lo, 2 * lo, xtol=1e-300, rtol=8.9e-16)


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
        if cap_radius <= math.sqrt(5.0):
            # the segment endpoints (+-2i, 0) must stay well inside the cap
            raise GeometryError("cap radius too small for the flat segment")
        self.psi = psi
        self.chi1 = float(chi1)
        self.chi2 = float(chi2)
        self.cap_radius = float(cap_radius)
        self.dim = 2
        self.bounding_radius = self.cap_radius
        self._delta_c_cache: Optional[float] = None

    # F and its gradient ------------------------------------------------------

    def _wall(self, x1: float, y1: float, y2: float) -> float:
        t = max(0.0, abs(y1) - 2.0)
        return self.psi.value(x1) + self.chi1 * t * t + self.chi2 * y2 * y2

    def _wall_grad(self, x1: float, y1: float, y2: float):
        t = max(0.0, abs(y1) - 2.0)
        dy1 = 2.0 * self.chi1 * t * (1.0 if y1 >= 0 else -1.0)
        return (self.psi.derivative(x1), dy1, 2.0 * self.chi2 * y2)

    def contains(self, z) -> bool:
        arr = as_carray(z)
        if np.linalg.norm(arr) >= self.cap_radius:
            return False
        x1, y1 = arr[0].real, arr[0].imag
        x2, y2 = arr[1].real, arr[1].imag
        return x2 > self._wall(x1, y1, y2)

    def _graph_distance(self, z: np.ndarray):
        """Distance to the wall sheet { Re w2 <= F(w) } and the contact point."""
        x1, y1 = z[0].real, z[0].imag
        x2, y2 = z[1].real, z[1].imag

        def objective(abc):
            a, bb, cc = abc
            F = self._wall(a, bb, cc)
            Fa, Fb, Fc = self._wall_grad(a, bb, cc)
            da, db, dc, dw = x1 - a, y1 - bb, y2 - cc, x2 - F
            val = da * da + db * db + dc * dc + dw * dw
            grad = np.array([
                -2.0 * da - 2.0 * dw * Fa,
                -2.0 * db - 2.0 * dw * Fb,
                -2.0 * dc - 2.0 * dw * Fc,
            ])
            return val, grad

        best = None
        for start in ((x1, y1, y2), (0.0, min(2.0, max(-2.0, y1)), 0.0)):
            res = optimize.minimize(objective, np.array(start), jac=True,
                                    method="L-BFGS-B",
                                    options={"ftol": 1e-18, "gtol": 1e-14,
                                             "maxiter": 500})
            if best is None or res.fun < best.fun:
                best = res
        a, bb, cc = best.x
        contact = np.array([complex(a, bb), complex(self._wall(a, bb, cc), cc)])
        return math.sqrt(max(best.fun, 0.0)), contact

    def boundary_distance(self, z) -> float:
        z = self._interior(z)
        d_cap = self.cap_radius - float(np.linalg.norm(z))
        d_wall, _ = self._graph_distance(z)
        return min(d_cap, d_wall)

    def inner_radius_fast(self, z) -> float:
        """Certified lower bound for boundary_distance.

        The nearest wall point sits within the vertical gap g of the graph
        coordinates, so a Lipschitz constant of the wall over that ball gives
        dist >= g / sqrt(1 + L^2); the cap sheet contributes exactly.
        """
        arr = as_carray(z)
        x1, y1 = arr[0].real, arr[0].imag
        x2, y2 = arr[1].real, arr[1].imag
        gap = x2 - self._wall(x1, y1, y2)
        if gap <= 0:
            return 0.0
        # sup of each gradient component over the ball of radius gap (the wall
        # profile is even and convex in each variable, so the sup is at the rim)
        ga = abs(self.psi.derivative(abs(x1) + gap))
        gb = 2.0 * self.chi1 * max(0.0, abs(y1) + gap - 2.0)
        gc = 2.0 * self.chi2 * (abs(y2) + gap)
        lip = math.sqrt(ga * ga + gb * gb + gc * gc)
        wall_bound = gap / math.sqrt(1.0 + lip * lip)
        return max(0.0, min(self.cap_radius - float(np.linalg.norm(arr)), wall_bound))

    def projection_threshold(self) -> float:
        """Uniqueness scale: half the minimal curvature radius seen by sampling."""
        if self._delta_c_cache is not None:
            return self._delta_c_cache
        h = 1e-5
        kappa_max = 1.0 / self.cap_radius  # cap sheet curvature
        xs = np.linspace(-2.0, 2.0, 17)
        ys = np.linspace(-2.5, 2.5, 11)
        for x1 in xs:
            for y1 in ys:
                for y2 in (-0.5, 0.0, 0.5):
                    hess = np.zeros((3, 3))
                    g0 = np.array(self._wall_grad(x1, y1, y2))
                    for i, dv in enumerate(np.eye(3) * h):
                        g1 = np.array(self._wall_grad(x1 + dv[0], y1 + dv[1], y2 + dv[2]))
                        hess[i] = (g1 - g0) / h
                    kappa_max = max(kappa_max, float(np.max(np.abs(
                        np.linalg.eigvalsh(0.5 * (hess + hess.T))))))
        self._delta_c_cache = 0.5 / kappa_max
        return self._delta_c_cache

    def nearest_boundary_point(self, z) -> np.ndarray:
        z = self._interior(z)
        d_cap = self.cap_radius - float(np.linalg.norm(z))
        d_wall, contact = self._graph_distance(z)
        d = min(d_cap, d_wall)
        if d > self.projection_threshold():
            raise AmbiguousProjectionError(
                f"projection at depth {d:.3g} exceeds the uniqueness threshold "
                f"{self.projection_threshold():.3g}")
        if abs(d_cap - d_wall) <= 1e-7 * max(1.0, d):
            cap_pt = z * (self.cap_radius / np.linalg.norm(z))
            if np.linalg.norm(cap_pt - contact) > 1e-4:
                raise AmbiguousProjectionError("cap and wall contacts tie")
        if d_cap < d_wall:
            return z * (self.cap_radius / np.linalg.norm(z))
        return contact

    def supporting_normal(self, b) -> np.ndarray:
        b = self._boundary(b)
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


class SmoothConvex(Domain):
    """A convex domain given by a smooth defining function (negative inside).

    ``func_lipschitz`` (a bound for the gradient norm of the defining
    function over the domain) is what makes cheap certified inner radii
    possible; without it ``inner_radius_fast`` returns 0, which disables the
    estimates that need a one-sided boundary distance but keeps everything
    else working.
    """

    def __init__(self, func: Callable[[np.ndarray], float], dim: int,
                 bounding_radius: float, base_point,
                 grad: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 func_lipschitz: Optional[float] = None):
        self.func = func
        self.dim = int(dim)
        self.bounding_radius = float(bounding_radius)
        self._base = as_carray(base_point)
        self.grad = grad
        self.func_lipschitz = (None if func_lipschitz is None
                               else float(func_lipschitz))

    def contains(self, z) -> bool:
        arr = as_carray(z)
        if np.linalg.norm(arr) > 2.0 * self.bounding_radius:
            return False
        return self.func(arr) < 0.0

    def boundary_distance(self, z) -> float:
        z = self._interior(z)
        return sampled_boundary_distance(self, z)

    def inner_radius_fast(self, z) -> float:
        # the sampled boundary distance is an over-estimate, so it must not
        # be used here; a certified radius needs the Lipschitz data
        z = self._interior(z)
        if self.func_lipschitz is None:
            return 0.0
        return max(0.0, -float(self.func(z)) / self.func_lipschitz)

    def nearest_boundary_point(self, z) -> np.ndarray:
        z = self._interior(z)
        best_r, best_u, rated = _sampled_contact(self, z, 128)
        # ambiguity scan: another sampled direction nearly as short but far away
        for r, u in rated[1:]:
            if r <= best_r * (1 + 1e-7) and np.linalg.norm(
                    z + r * u - (z + best_r * best_u)) > 1e-4:
                raise AmbiguousProjectionError("two near-minimal contacts found")
            if r > best_r * 1.5:
                break
        return z + best_r * best_u

    def supporting_normal(self, b) -> np.ndarray:
        b = self._boundary(b)
        if self.grad is not None:
            g = np.asarray(self.grad(b))
        else:
            h = 1e-7
            g = np.zeros(2 * self.dim)
            for i in range(2 * self.dim):
                dv = np.zeros(2 * self.dim)
                dv[i] = h
                g[i] = (self.func(b + complex_view(dv)) -
                        self.func(b - complex_view(dv))) / (2 * h)
            g = complex_view(g)
        nrm = np.linalg.norm(g)
        if nrm < 1e-12:
            raise GeometryError("vanishing gradient at boundary point")
        return g / nrm

    @property
    def base_point(self) -> np.ndarray:
        return self._base


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

    def contains(self, z) -> bool:
        arr = as_carray(z)
        if np.linalg.norm(arr - self.center) >= self.radius:
            return False
        return self.base.contains(arr)

    def boundary_distance(self, z) -> float:
        z = self._interior(z)
        return min(self.base.boundary_distance(z),
                   self.radius - float(np.linalg.norm(z - self.center)))

    def inner_radius_fast(self, z) -> float:
        arr = as_carray(z)
        return min(self.base.inner_radius_fast(arr),
                   self.radius - float(np.linalg.norm(arr - self.center)))

    def directional_distance(self, z, v) -> float:
        z = self._interior(z)
        v = as_carray(v)
        v = v / np.linalg.norm(v)
        w = z - self.center
        wv = abs(np.vdot(v, w))
        nw2 = float(np.vdot(w, w).real)
        t_ball = -wv + math.sqrt(wv * wv + self.radius**2 - nw2)
        return min(self.base.directional_distance(z, v), t_ball)

    def nearest_boundary_point(self, z) -> np.ndarray:
        z = self._interior(z)
        w = z - self.center
        nw = float(np.linalg.norm(w))
        d_ball = self.radius - nw
        d_base = self.base.boundary_distance(z)
        tied = abs(d_ball - d_base) <= 1e-7 * max(1.0, min(d_ball, d_base))
        if (tied or d_ball < d_base) and nw == 0.0:
            raise AmbiguousProjectionError(
                "every direction exits the window sphere at the same distance")
        if tied:
            sphere_pt = self.center + w * (self.radius / nw)
            base_pt = self.base.nearest_boundary_point(z)
            if np.linalg.norm(sphere_pt - base_pt) > 1e-4:
                raise AmbiguousProjectionError("window sphere and base boundary tie")
            return sphere_pt if d_ball <= d_base else base_pt
        if d_ball < d_base:
            return self.center + w * (self.radius / nw)
        return self.base.nearest_boundary_point(z)

    def supporting_normal(self, b) -> np.ndarray:
        b = self._boundary(b)
        if abs(np.linalg.norm(b - self.center) - self.radius) < 1e-6 * self.radius:
            w = b - self.center
            return w / np.linalg.norm(w)
        return self.base.supporting_normal(b)

    @property
    def base_point(self) -> np.ndarray:
        return self.center


# ---------------------------------------------------------------------------
# generic minimal basis via slicing
# ---------------------------------------------------------------------------


class _SliceDomain(Domain):
    """The domain { w in C^k : origin + cols @ w in parent }."""

    def __init__(self, parent: Domain, origin: np.ndarray, cols: np.ndarray):
        self.parent = parent
        self.origin = origin
        self.cols = cols
        self.dim = cols.shape[1]
        self.bounding_radius = parent.bounding_radius + float(np.linalg.norm(origin))

    def contains(self, w) -> bool:
        arr = as_carray(w)
        return self.parent.contains(self.origin + self.cols @ arr)

    def nearest_boundary_point(self, w) -> np.ndarray:
        w = as_carray(w)
        best_r, best_u, _ = _sampled_contact(self, w, 64 if self.dim == 1 else 128)
        return w + best_r * best_u


def _generic_minimal_basis(domain: Domain, z) -> MinimalBasisResult:
    z = domain._interior(z)
    n = domain.dim
    basis = np.zeros((n, n), dtype=complex)
    contacts = np.zeros((n, n), dtype=complex)
    taus = np.zeros(n)
    cols = np.eye(n, dtype=complex)
    for k in range(n):
        if k == 0:
            contact = domain.nearest_boundary_point(z)
            tau = float(np.linalg.norm(contact - z))
        else:
            sub = _SliceDomain(domain, z, cols)
            w = sub.nearest_boundary_point(np.zeros(cols.shape[1], dtype=complex))
            tau = float(np.linalg.norm(w))
            contact = z + cols @ w
        taus[k] = tau
        basis[k] = (contact - z) / tau
        contacts[k] = contact
        if k < n - 1:
            sub_dirs = _null_basis(cols.conj().T @ basis[k])
            cols = cols @ sub_dirs
    return MinimalBasisResult(basis=basis, taus=taus, contacts=contacts)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


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
        return Polydisc(int(obj.get("n", 2)))
    if kind == "ball":
        return Ball(int(obj.get("n", 2)))
    if kind == "ellipsoid":
        return Ellipsoid([float(a) for a in obj["axes"]])
    if kind == "omega_psi":
        psi = PsiSpec.from_json(obj.get("psi", {"form": "exp_neg_c_over_x"}))
        return OmegaPsi(psi,
                        chi1=float(obj.get("chi1", 1.0)),
                        chi2=float(obj.get("chi2", 1.0)),
                        cap_radius=float(obj.get("cap_radius", 3.0)))
    raise GeometryError(f"unknown domain kind {kind!r}")
