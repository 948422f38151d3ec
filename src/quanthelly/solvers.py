"""Log-det convex programs on H-polytopes: maximum-volume inscribed ellipsoid,
lowest ellipsoid of prescribed volume, LP feasibility, exact 2-D area.

Both ellipsoid programs are solved by a log-barrier Newton scheme on the
self-concordant formulation over (B, c) with B symmetric positive definite.
Solvers are deterministic pure functions of (input, settings).
"""
from __future__ import annotations

import dataclasses
import functools
import math
from typing import Optional

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import (CertificateFailed, DimensionMismatch, EmptyInterior,
                     MaxIterations, Unbounded, VolumeInfeasible)
from .geometry import (ACTIVE_SLACK_TOL, Ellipsoid, HalfSpace, HPolytope,
                       chebyshev_center, ellipsoid_volume, is_bounded,
                       unit_ball_volume)

# Duality-gap target for the barrier path; well below the volume-gap contract.
_GAP_TARGET = 1e-8
# Newton decrement threshold for an (approximately) centered point.
_CENTER_TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class SolverSettings:
    feasibility_tol: float = 1e-9
    kkt_tol: float = 1e-7
    max_iterations: int = 200
    barrier_decrease: float = 0.1
    gap_target: float = _GAP_TARGET
    # Engineering knobs (not part of the numeric contract): skip the
    # boundedness/interior prechecks when the caller has already validated
    # them, and toggle the lowest-ellipsoid MVIE cross-check.
    check_preconditions: bool = True
    cross_check: bool = True

    def __post_init__(self):
        if not (self.feasibility_tol > 0 and self.kkt_tol > 0
                and self.max_iterations > 0
                and 0.0 < self.barrier_decrease < 1.0
                and self.gap_target > 0):
            raise ValueError("invalid solver settings")


DEFAULT_SETTINGS = SolverSettings()


@dataclasses.dataclass(frozen=True)
class SolveOutcome:
    ellipsoid: Ellipsoid
    objective: float
    kkt_residual: float
    active_constraints: tuple

    @property
    def volume(self) -> float:
        return ellipsoid_volume(self.ellipsoid)


# ---------------------------------------------------------------------------
# Symmetric-matrix coordinates


class _SymSpace:
    """Coordinates on symmetric d x d matrices: one entry per (i, j), i <= j.

    Off-diagonal coordinates move both B_ij and B_ji, i.e. the basis matrices
    are e_i e_j^T + e_j e_i^T.  Every map is a gather over index arrays built
    once per d; each float expression keeps the term order of the defining
    sums, so results do not depend on how they are vectorized.
    """

    def __init__(self, d: int):
        self.d = d
        i, j = np.triu_indices(d)
        self.p = len(i)
        self._flat = i * d + j                 # coordinate k -> flat index
        self._full = np.empty((d, d), dtype=int)
        self._full[i, j] = self._full[j, i] = np.arange(self.p)
        self._vec_scale = np.where(i == j, 1.0, 2.0)
        i, j = i[:, None], j[:, None]
        # (E_k a)_c = a[src[k, c]], where index d reads an appended zero.
        col = np.arange(d)[None, :]
        self._src = np.where(col == i, j, np.where(col == j, i, d))
        # logdet_hess: H[k, l] = (T1 + T2) + (T3 + T4) for k = (i, j) and
        # l = (r, s), with T1 = P[r,i] P[j,s], T2 = P[r,j] P[i,s],
        # T3 = P[s,i] P[j,r], T4 = P[s,j] P[i,r].  T2 exists only for i < j,
        # T3 only for r < s.  An absent term is 0.0 * -0.0 = -0.0 from the
        # two slots appended after P, and x + -0.0 == x for every x, signed
        # zeros included, so the sums equal the loops they replace bitwise.
        r, s = i.T, j.T
        k_off, l_off = i != j, r != s
        present = np.stack(np.broadcast_arrays(True, k_off, l_off,
                                               k_off & l_off))
        a = np.stack(np.broadcast_arrays(r * d + i, r * d + j,
                                         s * d + i, s * d + j))
        b = np.stack(np.broadcast_arrays(j * d + s, i * d + s,
                                         j * d + r, i * d + r))
        self._ha = np.where(present, a, d * d)
        self._hb = np.where(present, b, d * d + 1)

    def mat(self, xb: np.ndarray) -> np.ndarray:
        return xb[self._full]

    def vec(self, M: np.ndarray) -> np.ndarray:
        """Gradient mapping tr(E_k M) for symmetric M."""
        return self._vec_scale * M.take(self._flat)

    def coords(self, B: np.ndarray) -> np.ndarray:
        """Coordinates of a symmetric matrix (inverse of ``mat``)."""
        return B.take(self._flat)

    def basis_apply(self, A: np.ndarray) -> np.ndarray:
        """Tensor W with W[k, i] = E_k @ a_i for rows a_i of A; shape (p, m, d)."""
        A0 = np.hstack([A, np.zeros((A.shape[0], 1))])
        return np.ascontiguousarray(A0[:, self._src].transpose(1, 0, 2))

    def logdet_hess(self, Binv: np.ndarray) -> np.ndarray:
        """H[k, l] = tr(Binv E_k Binv E_l) (the negated log-det Hessian)."""
        P = np.append(Binv.ravel(), (0.0, -0.0))
        T = P[self._ha] * P[self._hb]
        return (T[0] + T[1]) + (T[2] + T[3])


_sym_space = functools.lru_cache(maxsize=None)(_SymSpace)


def _solve_newton_system(H: np.ndarray, g: np.ndarray) -> Optional[np.ndarray]:
    jitter = 0.0
    scale = max(float(np.trace(H)) / H.shape[0], 1e-12)
    for _ in range(6):
        try:
            L = np.linalg.cholesky(H + jitter * np.eye(H.shape[0]))
            y = np.linalg.solve(L, -g)
            return np.linalg.solve(L.T, y)
        except np.linalg.LinAlgError:
            jitter = scale * 1e-12 if jitter == 0.0 else jitter * 100.0
    return None


def _newton_centering(problem, x, t, budget, tol=_CENTER_TOL):
    """Damped Newton to the analytic center of f_t; returns (x, steps_used)."""
    steps = 0
    cache = problem.eval(x)
    if cache is None:
        raise MaxIterations("barrier start point left the domain")
    prev_lam2 = np.inf
    while steps < budget:
        g, H = problem.grad_hess(cache, t)
        delta = _solve_newton_system(H, g)
        if delta is None:
            break
        lam2 = float(-g @ delta)
        if lam2 / 2.0 <= tol:
            break
        # Rounding floor: for huge t the decrement stops improving while the
        # point is already essentially centered.
        if lam2 < 1e-5 and lam2 >= 0.99 * prev_lam2:
            break
        prev_lam2 = lam2
        f0 = problem.value(cache, t)
        step = 1.0
        accepted = False
        while step >= 1e-12:
            cand = x + step * delta
            cand_cache = problem.eval(cand)
            if cand_cache is not None and \
                    problem.value(cand_cache, t) <= f0 + 0.25 * step * (g @ delta):
                x, cache = cand, cand_cache
                accepted = True
                break
            step *= 0.5
        steps += 1
        if not accepted:
            break
    return x, cache, steps


def _barrier_path(problem, x0, settings: SolverSettings):
    """Follows the central path until the duality-gap bound reaches the target."""
    t = 1.0
    mu = 1.0 / settings.barrier_decrease
    budget = settings.max_iterations
    x = x0
    used = 0
    while True:
        # Intermediate centerings only need to stay in the region of quadratic
        # convergence; the tight tolerance is reserved for the final t.
        final = problem.n_barrier_terms / t <= settings.gap_target
        tol = _CENTER_TOL if final else 1e-3
        x, cache, steps = _newton_centering(problem, x, t, budget - used, tol)
        used += steps
        if final:
            g, _ = problem.grad_hess(cache, t)
            gap = problem.n_barrier_terms / t
            return x, cache, gap + float(np.linalg.norm(g)) / t
        if used >= budget:
            raise MaxIterations(
                f"barrier solver exceeded {settings.max_iterations} Newton steps")
        t *= mu


# ---------------------------------------------------------------------------
# Barrier engine


class _Barrier:
    """f_t(B, c) = objective_t(B, c) - sum_i log s_i over x = (coords(B), c),
    with containment slacks s_i = b_i - a_i.c - |B a_i|.

    The objective term supplies its own state (None outside its domain),
    value, (B, c) gradient, B-block Hessian and number of barrier terms;
    this class owns the containment term shared by every objective.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, objective):
        self.A = A
        self.b = b
        self.objective = objective
        m, d = A.shape
        self.sym = _sym_space(d)
        self.W = self.sym.basis_apply(A)
        self.p = self.sym.p + d
        self.n_barrier_terms = m + objective.n_terms

    def eval(self, x):
        """Returns None when x is outside the domain, else a cache object."""
        B = self.sym.mat(x[:self.sym.p])
        c = x[self.sym.p:]
        try:
            np.linalg.cholesky(B)
        except np.linalg.LinAlgError:
            return None
        V = self.A @ B
        n = np.linalg.norm(V, axis=1)
        if np.any(n <= 0.0):
            return None
        s = self.b - self.A @ c - n
        if np.any(s <= 0.0):
            return None
        _, logdet = np.linalg.slogdet(B)
        state = self.objective.state(B, c, logdet)
        if state is None:
            return None
        return (B, V, n, s, logdet, state)

    def value(self, cache, t):
        _, _, _, s, _, state = cache
        return self.objective.value(state, t) - float(np.sum(np.log(s)))

    def grad_hess(self, cache, t):
        B, V, n, s, _, state = cache
        pB = self.sym.p
        Binv = np.linalg.inv(B)
        g, HB = self.objective.grad_hess(state, Binv, t)
        q = np.einsum('kmd,md->km', self.W, V) / n[None, :]
        G = np.vstack([q, self.A.T])                      # (p, m) grads of phi_i
        g += G @ (1.0 / s)
        H = np.zeros((self.p, self.p))
        H[:pB, :pB] += HB
        Gs = G / s[None, :]
        H += Gs @ Gs.T
        w = 1.0 / (n * s)
        Ws = (self.W * np.sqrt(w)[None, :, None]).reshape(pB, -1)
        qw = q * np.sqrt(w)[None, :]
        H[:pB, :pB] += Ws @ Ws.T - qw @ qw.T
        return g, H


class _LogDet:
    """MVIE objective -t log det B; its state is log det B."""

    n_terms = 0

    def __init__(self, d: int):
        self.sym = _sym_space(d)

    def state(self, B, c, logdet):
        return logdet

    def value(self, logdet, t):
        return -t * logdet

    def grad_hess(self, logdet, Binv, t):
        g = np.concatenate([-t * self.sym.vec(Binv), np.zeros(self.sym.d)])
        return g, t * self.sym.logdet_hess(Binv)


class _Height:
    """Lowest-ellipsoid objective t (c_d + |B e_d|) - log(log det B - log v0)."""

    n_terms = 1

    def __init__(self, d: int, log_v0: float):
        self.sym = _sym_space(d)
        self.log_v0 = log_v0
        e_d = np.zeros((1, d))
        e_d[0, -1] = 1.0
        self.We = self.sym.basis_apply(e_d)[:, 0, :]      # (p_B, d)

    def state(self, B, c, logdet):
        u = logdet - self.log_v0
        if u <= 0.0:
            return None
        ve = B[:, -1]
        return (u, ve, float(np.linalg.norm(ve)), c)

    def value(self, state, t):
        u, _, ne, c = state
        return t * (c[-1] + ne) - math.log(u)

    def grad_hess(self, state, Binv, t):
        u, ve, ne, _ = state
        sym, pB = self.sym, self.sym.p
        binv_vec = sym.vec(Binv)

        # height objective
        qe = self.We @ ve / ne                            # (p_B,)
        g = np.zeros(pB + sym.d)
        g[:pB] += t * qe
        g[-1] += t
        He = (self.We @ self.We.T - np.outer(qe, qe)) / ne

        # volume barrier
        g[:pB] += -binv_vec / u
        Hu = np.outer(binv_vec, binv_vec) / (u * u) + sym.logdet_hess(Binv) / u
        return g, t * He + Hu


def _barrier_solve(P: HPolytope, objective, B0: np.ndarray, c0: np.ndarray,
                   settings: SolverSettings) -> SolveOutcome:
    """Follows the barrier path of objective on P from (B0, c0); the outcome's
    objective is log det B and its active set the near-zero slacks."""
    prob = _Barrier(P.A, P.b, objective)
    x0 = np.concatenate([prob.sym.coords(B0), c0])
    x, cache, kkt = _barrier_path(prob, x0, settings)
    B, _, _, s, logdet, _ = cache
    active = tuple(int(i) for i in np.nonzero(s <= ACTIVE_SLACK_TOL)[0])
    return SolveOutcome(Ellipsoid(B, x[prob.sym.p:]), float(logdet), kkt,
                        active)


# ---------------------------------------------------------------------------
# MVIE


def _interior_start(P: HPolytope, settings: SolverSettings):
    c0, r = chebyshev_center(P)
    if r <= settings.feasibility_tol:
        raise EmptyInterior("polytope has empty interior (Chebyshev margin "
                            f"{r:.3e})")
    return c0, r


def mvie(P: HPolytope, settings: SolverSettings = DEFAULT_SETTINGS) -> SolveOutcome:
    """Maximum-volume inscribed ellipsoid of a bounded full-dimensional polytope."""
    if settings.check_preconditions and not is_bounded(P):
        raise Unbounded("mvie requires a bounded polytope")
    c0, r = _interior_start(P, settings)
    return _barrier_solve(P, _LogDet(P.dim), 0.9 * r * np.eye(P.dim), c0,
                          settings)


# ---------------------------------------------------------------------------
# Lowest ellipsoid


def height_halfspace(d: int, tau: float) -> HalfSpace:
    """The half-space {x : x_d <= tau}."""
    e_d = np.zeros(d)
    e_d[-1] = 1.0
    return HalfSpace(e_d, tau)


def slice_below(P: HPolytope, tau: float) -> HPolytope:
    """P intersected with the height half-space at tau."""
    hs = height_halfspace(P.dim, tau)
    prov = None if P.provenance is None else P.provenance + (None,)
    return HPolytope(P.dim, P.halfspaces + (hs,), prov)


def lowest_ellipsoid(P: HPolytope, target_volume: float,
                     settings: SolverSettings = DEFAULT_SETTINGS) -> SolveOutcome:
    """Among ellipsoids of the given volume inside P, the one of minimal height.

    The optimum is also the MVIE of P cut below its own height (the defining
    property of the lowest ellipsoid); when ``settings.cross_check`` is set the
    two routes are compared and a disagreement beyond 1e-5 raises
    CertificateFailed.
    """
    if target_volume <= 0.0:
        raise VolumeInfeasible("target volume must be positive")
    base = mvie(P, settings)
    v_max = base.volume
    if v_max < target_volume * (1.0 - max(1e-7, settings.feasibility_tol)):
        raise VolumeInfeasible(
            f"MVIE volume {v_max:.12g} below target {target_volume:.12g}")

    inner = dataclasses.replace(settings, check_preconditions=False)
    if v_max <= target_volume * (1.0 + 1e-7):
        # The MVIE is the only inscribed ellipsoid of the target volume.
        out = base
    else:
        d = P.dim
        log_v0 = math.log(target_volume / unit_ball_volume(d))
        rho = (target_volume / v_max) ** (1.0 / d)
        sigma = min(0.05, 0.5 * (1.0 - rho))
        B0 = (1.0 - sigma) * base.ellipsoid.shape
        out = _barrier_solve(P, _Height(d, log_v0), B0,
                             base.ellipsoid.center, settings)

    tau = _height(out.ellipsoid)
    if settings.cross_check:
        check = mvie(slice_below(P, tau), inner)
        gap = max(
            float(np.linalg.norm(check.ellipsoid.shape - out.ellipsoid.shape)),
            float(np.linalg.norm(check.ellipsoid.center - out.ellipsoid.center)))
        if gap > 1e-5:
            raise CertificateFailed(
                f"lowest ellipsoid disagrees with MVIE of the slab (gap {gap:.3e})")
    return SolveOutcome(out.ellipsoid, tau, out.kkt_residual,
                        out.active_constraints)


def _height(E: Ellipsoid) -> float:
    return float(E.center[-1] + np.linalg.norm(E.shape[:, -1]))


# ---------------------------------------------------------------------------
# LP feasibility and 2-D volume


def lp_feasible(P: HPolytope,
                settings: SolverSettings = DEFAULT_SETTINGS) -> Optional[np.ndarray]:
    """A point satisfying all constraints within feasibility_tol, or None."""
    x, r = chebyshev_center(P)
    if r < -settings.feasibility_tol:
        return None
    return x


def polytope_vertices_2d(P: HPolytope, tol: float = 1e-9) -> np.ndarray:
    """Vertices of a bounded 2-D polytope via pairwise line intersection."""
    if P.dim != 2:
        raise DimensionMismatch("vertex enumeration implemented for d=2 only")
    A, b = P.A, P.b
    m = A.shape[0]
    pts = []
    for i in range(m):
        for j in range(i + 1, m):
            M = np.array([A[i], A[j]])
            det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
            if abs(det) < 1e-12:
                continue
            p = np.linalg.solve(M, np.array([b[i], b[j]]))
            if np.all(A @ p <= b + tol):
                pts.append(p)
    if not pts:
        return np.empty((0, 2))
    return np.array(pts)


def polytope_volume_2d(P: HPolytope,
                       settings: SolverSettings = DEFAULT_SETTINGS) -> float:
    """Exact area of a bounded 2-D polytope (vertex enumeration + hull)."""
    if P.dim != 2:
        raise DimensionMismatch("polytope_volume_2d requires d=2")
    if settings.check_preconditions and not is_bounded(P):
        raise Unbounded("polytope_volume_2d requires a bounded polytope")
    pts = polytope_vertices_2d(P)
    if pts.shape[0] < 3:
        return 0.0
    try:
        hull = ConvexHull(pts)
    except QhullError:
        return 0.0
    return float(hull.volume)
