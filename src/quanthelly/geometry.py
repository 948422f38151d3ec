"""H-polytopes, ellipsoids and affine maps, plus their elementary queries.

All values are immutable after construction and every operation is a pure
function, so unrestricted sharing across threads is safe.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from .errors import DegenerateInput, DimensionMismatch, Unbounded

# Normals are stored with unit Euclidean norm; ingestion skips the rescale when
# the input is already unit up to this tolerance so round-trips are byte-stable.
NORM_TOL = 1e-12

# A normalized constraint counts as touching the inscribed ellipsoid below this
# absolute slack.  One consistent value is used by the John analysis.
ACTIVE_SLACK_TOL = 1e-6


def unit_ball_volume(d: int) -> float:
    """Volume of the d-dimensional Euclidean unit ball."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclasses.dataclass(frozen=True)
class HPolytope:
    """The polytope {x : A x <= b} in R^d, held as read-only arrays A (m, d)
    and b (m,) with unit rows in A.

    A row within NORM_TOL of unit norm is kept bit for bit, so round trips
    are byte-stable; any other row and its offset are divided by the row's
    norm.  A zero or non-finite row raises DegenerateInput.
    """

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        b = np.array(self.b, dtype=float).reshape(-1)
        if A.ndim != 2 or A.shape[0] != b.shape[0]:
            raise DegenerateInput("constraint arrays have inconsistent shapes")
        if A.shape[0] == 0:
            raise DegenerateInput("a polytope needs at least one half-space")
        # The row rule uses the 1-D norm.  The vectorized norm differs from it
        # by a few ulps, so a row it puts within NORM_TOL / 2 of unit is one
        # the rule keeps, and only the other rows need the rule.
        screen = np.sqrt(np.einsum("ij,ij->i", A, A))
        for i in np.flatnonzero(~(np.abs(screen - 1.0) <= 0.5 * NORM_TOL)):
            nrm = float(np.linalg.norm(A[i]))
            if not np.isfinite(nrm) or nrm == 0.0:
                raise DegenerateInput(
                    "half-space normal must be nonzero and finite")
            if abs(nrm - 1.0) > NORM_TOL:
                A[i] = A[i] / nrm
                b[i] = b[i] / nrm
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @classmethod
    def box(cls, halfwidths, center=None) -> "HPolytope":
        """Axis-aligned box {|x_i - c_i| <= w_i}."""
        w = np.asarray(halfwidths, dtype=float).reshape(-1)
        d = w.shape[0]
        c = np.zeros(d) if center is None else np.asarray(center, dtype=float)
        A = np.vstack([np.eye(d), -np.eye(d)])
        b = np.concatenate([c + w, -(c - w)])
        return cls(A, b)

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    @property
    def n_constraints(self) -> int:
        return self.A.shape[0]

    def contains_points(self, pts: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """Vectorized membership test for an (n, d) array of points."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.all(pts @ self.A.T <= self.b[None, :] + tol, axis=1)


@dataclasses.dataclass(frozen=True)
class Ellipsoid:
    """The set {B u + center : |u| <= 1} with B symmetric positive definite."""

    shape: np.ndarray
    center: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.shape, dtype=float)
        c = np.asarray(self.center, dtype=float).reshape(-1)
        if B.ndim != 2 or B.shape[0] != B.shape[1] or B.shape[0] != c.shape[0]:
            raise DimensionMismatch("ellipsoid shape/center dimensions disagree")
        asym = np.linalg.norm(B - B.T)
        scale = max(np.linalg.norm(B), 1e-300)
        if asym / scale > 1e-10:
            raise DegenerateInput("ellipsoid shape matrix is not symmetric")
        B = 0.5 * (B + B.T)
        try:
            np.linalg.cholesky(B)
        except np.linalg.LinAlgError:
            raise DegenerateInput("ellipsoid shape matrix is not positive definite")
        object.__setattr__(self, "shape", _readonly(B))
        object.__setattr__(self, "center", _readonly(c))

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @classmethod
    def unit_ball(cls, d: int) -> "Ellipsoid":
        return cls(np.eye(d), np.zeros(d))

    @classmethod
    def ball(cls, center, radius: float) -> "Ellipsoid":
        c = np.asarray(center, dtype=float).reshape(-1)
        return cls(radius * np.eye(c.shape[0]), c)


@dataclasses.dataclass(frozen=True)
class AffineMap:
    """x |-> linear @ x + shift with invertible linear part."""

    linear: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        L = np.asarray(self.linear, dtype=float)
        s = np.asarray(self.shift, dtype=float).reshape(-1)
        if L.ndim != 2 or L.shape[0] != L.shape[1] or L.shape[0] != s.shape[0]:
            raise DimensionMismatch("affine map shapes disagree")
        sign, _ = np.linalg.slogdet(L)
        if sign == 0:
            raise DegenerateInput("affine map must be invertible")
        object.__setattr__(self, "linear", _readonly(L))
        object.__setattr__(self, "shift", _readonly(s))

    @property
    def dim(self) -> int:
        return self.shift.shape[0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x @ self.linear.T + self.shift

    def inverse(self) -> "AffineMap":
        Linv = np.linalg.inv(self.linear)
        return AffineMap(Linv, -Linv @ self.shift)


# ---------------------------------------------------------------------------
# Elementary queries


def ellipsoid_volume(E: Ellipsoid) -> float:
    """det(B) times the unit-ball volume."""
    return float(np.linalg.det(E.shape)) * unit_ball_volume(E.dim)


def support_value(E: Ellipsoid, a: np.ndarray) -> float:
    """max over E of a . x, i.e. a . center + |B a|."""
    a = np.asarray(a, dtype=float).reshape(-1)
    if a.shape[0] != E.dim:
        raise DimensionMismatch("direction dimension mismatch")
    if np.linalg.norm(a) == 0.0:
        raise DegenerateInput("support direction must be nonzero")
    return float(a @ E.center + np.linalg.norm(E.shape @ a))


def ellipsoid_height(E: Ellipsoid) -> float:
    """Largest orthogonal projection of E on the last coordinate axis."""
    e_d = np.zeros(E.dim)
    e_d[-1] = 1.0
    return support_value(E, e_d)


def min_semiaxis(E: Ellipsoid) -> float:
    """Smallest eigenvalue of the shape matrix."""
    return float(np.linalg.eigvalsh(E.shape)[0])


def ellipsoid_in_polytope(E: Ellipsoid, P: HPolytope, tol: float = 1e-9) -> bool:
    """True iff every constraint dominates the corresponding support value."""
    if E.dim != P.dim:
        raise DimensionMismatch("ellipsoid/polytope dimension mismatch")
    sup = P.A @ E.center + np.linalg.norm(P.A @ E.shape, axis=1)
    return bool(np.all(sup <= P.b + tol))


def ellipsoid_gap(E1: Ellipsoid, E2: Ellipsoid) -> float:
    """Distance of two ellipsoids: the larger of the Frobenius distance of
    their shapes and the distance of their centers."""
    return max(float(np.linalg.norm(E1.shape - E2.shape)),
               float(np.linalg.norm(E1.center - E2.center)))


def polytope_slacks(E: Ellipsoid, P: HPolytope) -> np.ndarray:
    """Per-constraint slack b_i - (a_i . c + |B a_i|); nonnegative iff E inside."""
    return P.b - (P.A @ E.center + np.linalg.norm(P.A @ E.shape, axis=1))


def _spd_sqrt(M: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(M)
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T


def transform_ellipsoid(T: AffineMap, E: Ellipsoid) -> Ellipsoid:
    """Image of E under T, re-symmetrized through the SPD polar factor."""
    if T.dim != E.dim:
        raise DimensionMismatch("map/ellipsoid dimension mismatch")
    M = T.linear @ E.shape
    return Ellipsoid(_spd_sqrt(M @ M.T), T.linear @ E.center + T.shift)


def transform_polytope(T: AffineMap, P: HPolytope) -> HPolytope:
    """Image of P under T, row for row."""
    if T.dim != P.dim:
        raise DimensionMismatch("map/polytope dimension mismatch")
    Linv_T = np.linalg.inv(T.linear).T
    A_new = P.A @ Linv_T.T
    b_new = P.b + A_new @ T.shift
    return HPolytope(A_new, b_new)


def intersect(P: HPolytope, Q: HPolytope) -> HPolytope:
    """The rows of P followed by the rows of Q."""
    return intersect_all([P, Q])


def intersect_all(polys: Sequence[HPolytope]) -> HPolytope:
    """The rows of every polytope, stacked in order."""
    polys = list(polys)
    if not polys:
        raise DegenerateInput("empty intersection list")
    if any(Q.dim != polys[0].dim for Q in polys):
        raise DimensionMismatch("cannot intersect polytopes of different dimension")
    return HPolytope(np.vstack([Q.A for Q in polys]),
                     np.concatenate([Q.b for Q in polys]))


def is_bounded(P: HPolytope) -> bool:
    """Boundedness via 2d LPs: max of +/- x_i all finite (empty counts as bounded)."""
    d = P.dim
    bounds = [(None, None)] * d
    for i in range(d):
        for sign in (1.0, -1.0):
            c = np.zeros(d)
            c[i] = -sign  # maximize sign * x_i
            res = linprog(c, A_ub=P.A, b_ub=P.b, bounds=bounds,
                          method="highs")
            if res.status == 3:
                return False
            if res.status == 2:  # empty set
                return True
    return True


def chebyshev_center(P: HPolytope):
    """Returns (point, margin): the point maximizing the minimum slack.

    The margin is the radius of the largest inscribed ball (negative when the
    polytope is empty); it is capped at 1e6 so the LP stays bounded.
    """
    d = P.dim
    A = np.hstack([P.A, np.ones((P.n_constraints, 1))])
    c = np.zeros(d + 1)
    c[-1] = -1.0
    bounds = [(None, None)] * d + [(None, 1e6)]
    res = linprog(c, A_ub=A, b_ub=P.b, bounds=bounds, method="highs")
    if res.status != 0:
        raise Unbounded("Chebyshev LP did not solve; polytope likely unbounded")
    return res.x[:d].copy(), float(res.x[d])


def has_interior(P: HPolytope, tol: float = 1e-9) -> bool:
    """Strict feasibility: maximum slack margin exceeds tol.  The margin is
    capped, so the LP always has an optimum, and an LP that does not solve
    raises Unbounded as in ``chebyshev_center``."""
    _, r = chebyshev_center(P)
    return r > tol
