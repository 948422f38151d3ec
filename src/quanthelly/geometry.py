"""H-polytopes, ellipsoids and affine maps, plus their elementary queries.

All values are immutable after construction and every operation is a pure
function, so unrestricted sharing across threads is safe.
"""
from __future__ import annotations

import dataclasses
import math
import threading
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

try:  # private, from scipy 1.15: HiGHS without linprog's per-call wrapper
    from scipy.optimize._highspy import _core as _highs
except ImportError:
    _highs = None

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
    norm.  A zero or non-finite row, or a non-finite offset, raises
    DegenerateInput.
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
        if not np.isfinite(b).all():
            raise DegenerateInput("half-space offset must be finite")
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
    """Largest orthogonal projection of E on the last coordinate axis: the
    support value in direction e_d, c_d + |B e_d|."""
    return float(E.center[-1] + np.linalg.norm(E.shape[:, -1]))


def min_semiaxis(E: Ellipsoid) -> float:
    """Smallest eigenvalue of the shape matrix."""
    return float(np.linalg.eigvalsh(E.shape)[0])


def ellipsoid_in_polytope(E: Ellipsoid, P: HPolytope, tol: float = 1e-9) -> bool:
    """True iff every slack (``polytope_slacks``) is at least -tol."""
    if E.dim != P.dim:
        raise DimensionMismatch("ellipsoid/polytope dimension mismatch")
    return bool(np.all(polytope_slacks(E, P) >= -tol))


# Two solves of one ellipsoid agree when their ``ellipsoid_gap`` is at most this.
AGREEMENT_TOL = 1e-5


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


# ---------------------------------------------------------------------------
# Linear programs

# linprog's post-solve check: an optimum whose bounds or residuals are off by
# more than sqrt(tol) * 10, with its default tol of 1e-9, becomes status 4.
_LP_CHECK_TOL = math.sqrt(1e-9) * 10


def _lp_options():
    """The options linprog(method="highs") passes to HiGHS, built once."""
    opts = _highs.HighsOptions()
    opts.presolve = "on"
    opts.simplex_strategy = \
        _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    opts.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    opts.log_to_console = False
    opts.output_flag = False
    return opts


if _highs is not None:
    _LP_OPTIONS = _lp_options()
    _MS = _highs.HighsModelStatus
    # HiGHS model status to linprog status, as scipy maps it; any other is 4
    _LP_STATUS = {_MS.kOptimal: 0, _MS.kTimeLimit: 1, _MS.kIterationLimit: 1,
                  _MS.kInfeasible: 2, _MS.kModelError: 2, _MS.kUnbounded: 3}
_THREAD = threading.local()


def _solver():
    """This thread's HiGHS object.  passModel clears the previous LP's model,
    basis and solution, so reuse keeps every LP's bits (the LP corpus test
    checks this) and saves building a solver per LP."""
    highs = getattr(_THREAD, "highs", None)
    if highs is None:
        highs = _THREAD.highs = _highs._Highs()
        highs.passOptions(_LP_OPTIONS)
    return highs


def _lp(c, A, b, lb, ub):
    """min c.x subject to A x <= b and lb <= x <= ub (infinite entries are
    free), as (status, x, fun, row_dual) with linprog's status codes; x, fun
    and the row duals (linprog's ``ineqlin.marginals``, nonpositive at an
    optimum) are None unless HiGHS reports an optimum.

    HiGHS is called directly, with the model, options and post-solve check
    of linprog(method="highs"), so status, x, fun and row_dual are bitwise
    linprog's.  Without scipy's private HiGHS module (scipy < 1.15) linprog
    is called.
    """
    if _highs is None:
        res = linprog(c, A_ub=A, b_ub=b, bounds=np.column_stack([lb, ub]),
                      method="highs")
        return res.status, res.x, res.fun, res.ineqlin.marginals
    m, n = A.shape
    lp = _highs.HighsLp()  # kHighsInf is inf, so bounds pass through as is
    lp.num_col_ = n
    lp.num_row_ = m
    lp.col_cost_ = c
    lp.col_lower_ = lb
    lp.col_upper_ = ub
    lp.row_lower_ = np.full(m, -np.inf)
    lp.row_upper_ = b
    # column-wise, nonzeros only, as csc_array stores a dense matrix
    At = A.T
    nonzero = At != 0
    mat = lp.a_matrix_
    mat.num_col_ = n
    mat.num_row_ = m
    mat.format_ = _highs.MatrixFormat.kColwise
    mat.start_ = np.concatenate(([0], np.cumsum(nonzero.sum(axis=1))))
    mat.index_ = np.nonzero(nonzero)[1]
    mat.value_ = At[nonzero]
    highs = _solver()
    if highs.passModel(lp) == _highs.HighsStatus.kError:
        return 2, None, None, None
    failed = highs.run() == _highs.HighsStatus.kError
    model = highs.getModelStatus()
    status = _LP_STATUS.get(model, 4)
    if failed or model != _MS.kOptimal:  # linprog reads no solution then
        return (4 if status == 0 else status), None, None, None
    sol = highs.getSolution()
    x = np.array(sol.col_value)
    fun = highs.getInfo().objective_function_value
    slack = b - np.array(sol.row_value)
    tol = _LP_CHECK_TOL
    if (np.isnan(x).any() or np.isnan(fun) or np.isnan(slack).any()
            or not np.all((x >= lb - tol) & (x <= ub + tol))
            or (slack < -tol).any()):
        status = 4
    return status, x, fun, np.array(sol.row_dual)


# The Chebyshev LP caps its margin here, so it always has an optimum.
_MARGIN_CAP = 1e6


def _chebyshev(P: HPolytope):
    """Solves the Chebyshev LP, max r subject to A x + r <= b and r <= the
    cap, once.  Returns (center, margin, row_dual); raises Unbounded when
    the LP does not solve."""
    d = P.dim
    A = np.hstack([P.A, np.ones((P.n_constraints, 1))])
    c = np.zeros(d + 1)
    c[-1] = -1.0
    ub = np.full(d + 1, np.inf)
    ub[-1] = _MARGIN_CAP
    status, x, _, row_dual = _lp(c, A, P.b, np.full(d + 1, -np.inf), ub)
    if status != 0:
        raise Unbounded("Chebyshev LP did not solve; polytope likely unbounded")
    return x[:d].copy(), float(x[d]), row_dual


def _duals_certify_bounded(A: np.ndarray, margin: float,
                           row_dual: np.ndarray) -> bool:
    """True when the row duals of the Chebyshev LP (``_chebyshev``) of
    P = {x : A x <= b} prove that P's recession cone {v : A v <= 0} is {0}.

    Below the cap an optimum's duals y = -row_dual >= 0 satisfy A^T y = 0
    (stationarity in x).  Let S be the rows with y > 0 and g = A_S^T y_S.
    For a unit v with A v <= 0,
    g . v = y_S . (A_S v) <= -min_S y * |A_S v| <= -min_S y * sigma_min(A_S),
    so |g| >= min_S y * sigma_min(A_S).  The certificate is |S| >= d and
    sigma_min(A_S) * min_S y > sqrt(|S|) * |g| + a rounding allowance, which
    with the factor sqrt(|S|) >= 1 covers the error of computing g and
    sigma_min in floating point.  Degenerate duals (rank A_S < d: an axis
    box, whose duals sit on the two rows of one axis; a slab) and a margin
    at the cap certify nothing.
    """
    d = A.shape[1]
    y = -row_dual
    support = y > 0.0
    n = int(support.sum())
    if margin >= _MARGIN_CAP or n < d or (y < 0.0).any():
        return False
    A_S, y_S = A[support], y[support]
    sigma_min = np.linalg.svd(A_S, compute_uv=False)[d - 1]
    rounding = 16.0 * n * d * np.finfo(float).eps * y_S.sum()
    return bool(sigma_min * y_S.min()
                > math.sqrt(n) * np.linalg.norm(y_S @ A_S) + rounding)


def _recession_cone_is_zero(P: HPolytope) -> bool:
    """True iff the recession cone {y : A y <= 0} is {0}, decided by 2d LPs:
    max +/- y_i over the cone cut by the box |y_i| <= 1.  Each LP is feasible
    (y = 0) and bounded; a nonzero cone direction scaled to the box gives
    some optimum 1, and the cone {0} gives every optimum 0.  An LP that does
    not solve raises Unbounded.
    """
    d = P.dim
    zeros, box = np.zeros(P.n_constraints), np.ones(d)
    for i in range(d):
        for sign in (1.0, -1.0):
            c = np.zeros(d)
            c[i] = -sign  # maximize sign * y_i
            status, _, fun, _ = _lp(c, P.A, zeros, -box, box)
            if status != 0:
                raise Unbounded(f"boundedness LP did not solve (status "
                                f"{status})")
            if -fun > 0.5:
                return False
    return True


def _bounded_margin(P: HPolytope):
    """(bounded, center, margin): whether P's recession cone is {0}, and
    P's Chebyshev center and margin (``chebyshev_center``).  The one
    Chebyshev LP decides all three when its duals certify boundedness
    (``_duals_certify_bounded``); otherwise the 2d recession-cone LPs decide
    boundedness.  A nonempty P is bounded iff its cone is {0}; an empty P is
    judged by its cone as well.  When the Chebyshev LP does not solve, an
    unbounded cone gives (False, None, None) and a bounded one raises
    Unbounded; a cone LP that does not solve raises Unbounded.
    """
    try:
        center, margin, row_dual = _chebyshev(P)
    except Unbounded:
        if _recession_cone_is_zero(P):
            raise
        return False, None, None
    return (_duals_certify_bounded(P.A, margin, row_dual)
            or _recession_cone_is_zero(P)), center, margin


def is_bounded(P: HPolytope) -> bool:
    """True iff the recession cone {y : A y <= 0} is {0}: the first item of
    ``_bounded_margin``.  It costs one LP when the Chebyshev LP's duals
    certify boundedness and 1 + 2d LPs otherwise."""
    return _bounded_margin(P)[0]


def chebyshev_center(P: HPolytope):
    """Returns (point, margin): the point maximizing the minimum slack.

    The margin is the radius of the largest inscribed ball (negative when the
    polytope is empty); it is capped at 1e6 so the LP stays bounded.
    """
    return _chebyshev(P)[:2]


# A polytope has an interior when its Chebyshev margin exceeds this.
INTERIOR_TOL = 1e-9
