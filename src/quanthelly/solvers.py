"""Log-det convex programs on H-polytopes: maximum-volume inscribed ellipsoid
and lowest ellipsoid of prescribed volume.

Both ellipsoid programs are solved by a log-barrier Newton scheme on the
self-concordant formulation over (B, c) with B symmetric positive definite
(Boyd & Vandenberghe, Convex Optimization, section 11).  One engine solves a
stack of problems at once: ``_solve_stacked`` takes each stack from its
start points through the t schedule, retiring problems that fail, to its
outcomes.  ``mvie_batch`` takes a sequence of polytopes and
``lift_to_target`` lifts its outcomes to lowest ellipsoids.  ``mvie`` is a
stack of one behind a boundedness check read from the Chebyshev LP that also
starts it, and ``lowest_ellipsoid`` lifts its own ``mvie`` (see
``SolverSettings``).  Per-problem masks stand in for the control flow of a
lone solve, and every row of a stacked computation makes the float
operations of a lone solve, so each outcome is bitwise independent of the
batch it was solved in.  Solvers are deterministic pure functions of (input,
settings).
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import numbers

import numpy as np
from numpy.linalg import _umath_linalg as _lapack

from .errors import (CertificateFailed, EmptyInterior, MaxIterations,
                     Unbounded, VolumeInfeasible)
from .geometry import (ACTIVE_SLACK_TOL, AGREEMENT_TOL, Ellipsoid, HPolytope,
                       _bounded_margin, chebyshev_center, ellipsoid_gap,
                       ellipsoid_height, ellipsoid_volume, unit_ball_volume)

# Duality-gap target for the barrier path; well below the volume-gap contract.
_GAP_TARGET = 1e-8
# Newton decrement threshold for an (approximately) centered point.
_CENTER_TOL = 1e-9
# Factor by which the barrier parameter t grows between centerings.
_T_GROWTH = 10.0
# Relative shortfall a volume may have and still reach its target.
_VOLUME_SLACK = 1e-6


@dataclasses.dataclass(frozen=True)
class SolverSettings:
    """Tolerances and budgets of a solve.

    Which checks run is decided by the entry point, not by a setting: ``mvie``
    checks that the polytope is bounded from the one Chebyshev LP that also
    starts its barrier, ``lowest_ellipsoid`` lifts that checked MVIE and
    cross-checks its optimum against the MVIE of the slab below it, and
    ``mvie_batch`` and ``lift_to_target`` do neither.
    ``feasibility_tol`` is a constraint and margin slack; it plays no part in
    deciding whether a volume reaches its target (``reaches_target``).
    ``max_iterations``, the Newton-step budget of each problem, is an
    integer >= 1.
    """

    feasibility_tol: float = 1e-9
    kkt_tol: float = 1e-7
    max_iterations: int = 200
    gap_target: float = _GAP_TARGET

    def __post_init__(self):
        tols = (self.feasibility_tol, self.kkt_tol, self.gap_target)
        budget = self.max_iterations
        if not (all(math.isfinite(x) and x > 0 for x in tols)
                and isinstance(budget, numbers.Integral)
                and not isinstance(budget, bool) and budget >= 1):
            raise ValueError("invalid solver settings")


DEFAULT_SETTINGS = SolverSettings()


def reaches_target(volume: float, target_volume: float) -> bool:
    """Whether a volume reaches its target: at least target (1 - 1e-6).  The
    one test of the hypothesis check and of the lowest ellipsoid."""
    return volume >= target_volume * (1.0 - _VOLUME_SLACK)


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
    once per d and takes one matrix or a stack of them (leading axes); each
    float expression keeps the term order of the defining sums, so results
    do not depend on how they are vectorized.
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
        return xb[..., self._full]

    def vec(self, M: np.ndarray) -> np.ndarray:
        """Gradient mapping tr(E_k M) for symmetric M."""
        return self._vec_scale * self.coords(M)

    def coords(self, B: np.ndarray) -> np.ndarray:
        """Coordinates of a symmetric matrix (inverse of ``mat``)."""
        return B.reshape(B.shape[:-2] + (-1,))[..., self._flat]

    def basis_apply(self, A: np.ndarray) -> np.ndarray:
        """Tensor W with W[..., k, i, :] = E_k @ a_i for rows a_i of A;
        shape (..., p, m, d)."""
        A0 = np.concatenate([A, np.zeros(A.shape[:-1] + (1,))], axis=-1)
        return np.ascontiguousarray(np.swapaxes(A0[..., self._src], -3, -2))

    def logdet_hess(self, Binv: np.ndarray) -> np.ndarray:
        """H[k, l] = tr(Binv E_k Binv E_l) (the negated log-det Hessian)."""
        lead = Binv.shape[:-2]
        P = np.empty((math.prod(lead), self.d * self.d + 2))
        P[:, :-2] = Binv.reshape(len(P), -1)
        P[:, -2:] = (0.0, -0.0)
        T = P[:, self._ha] * P[:, self._hb]
        H = (T[:, 0] + T[:, 1]) + (T[:, 2] + T[:, 3])
        return H.reshape(lead + H.shape[1:])


_sym_space = functools.lru_cache(maxsize=None)(_SymSpace)


# ---------------------------------------------------------------------------
# Row-wise kernels over a stack of problems.  Each one makes, per row, the
# BLAS/LAPACK call or the last-axis reduction a lone problem makes, so the
# numbers of a row do not depend on the rows beside it.  The LAPACK calls are
# the gufuncs behind np.linalg, with its bits; a row that LAPACK cannot
# factor shows as a NaN factor in that row, not as an exception for the
# stack.  Per-problem control values (decrements, step counts, Armijo tests)
# are Python floats: the same IEEE operations as NumPy scalars, without a
# NumPy call per decision.


def _take(cache: tuple, rows) -> tuple:
    return tuple(a[rows] for a in cache)


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise A_n @ x_n: one BLAS gemv per row, as a lone ``A @ x``."""
    return (A @ x[..., None])[..., 0]


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a_n . b_n: one BLAS dot per row, as a lone ``a @ b``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _cholesky(M: np.ndarray) -> np.ndarray:
    """Row-wise lower Cholesky factors.  A matrix without one gets a factor
    that is NaN throughout, and a NaN entry of a symmetric matrix reaches
    its factor's last diagonal entry, so ``isnan(L[:, -1, -1])`` marks the
    rows that have no factor."""
    with np.errstate(invalid="ignore"):
        return _lapack.cholesky_lo(M)


def _cholesky_solve(L: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Row-wise solutions of L L^T delta = -g."""
    y = _lapack.solve(L, -g[:, :, None])
    return _lapack.solve(L.transpose(0, 2, 1), y)[:, :, 0]


def _newton_directions(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Solutions of H delta = -g by Cholesky for a stack.  A row whose
    factorization fails is solved again on its own with growing diagonal
    jitter, while the other rows keep their stacked solution; a row whose
    retries all fail gets delta = 0, whose zero Newton decrement ends its
    centering."""
    L = _cholesky(H)
    failed = np.isnan(L[:, -1, -1])
    if not failed.any():
        return _cholesky_solve(L, g)
    delta = np.zeros_like(g)
    delta[~failed] = _cholesky_solve(L[~failed], g[~failed])
    p = H.shape[1]
    for i in np.flatnonzero(failed).tolist():
        jitter = max(float(np.trace(H[i])) / p, 1e-12) * 1e-12
        for _ in range(5):
            L = _cholesky(H[i:i + 1] + jitter * np.eye(p))
            if not np.isnan(L[0, -1, -1]):
                delta[i] = _cholesky_solve(L, g[i:i + 1])[0]
                break
            jitter *= 100.0
    return delta


# ---------------------------------------------------------------------------
# Barrier engine


class _Barrier:
    """f_t(B, c) = objective_t(B, c) - sum_i log s_i over x = (coords(B), c),
    with containment slacks s_i = b_i - a_i.c - |B a_i|, for a stack of
    problems with one row count: x (N, p), A (N, m, d), b (N, m).

    The objective term supplies its own state, value, (B, c) gradient,
    B-block Hessian and number of barrier terms, row by row; this class owns
    the containment term shared by every objective.  An eval cache is a
    tuple of row-stacked arrays (B, V, n, s, sum log s, *objective state),
    where the objective state starts with log det B.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, objective):
        self.A = A
        self.b = b
        self.objective = objective
        _, m, d = A.shape
        self.sym = _sym_space(d)
        self.At = A.transpose(0, 2, 1)
        self.p = self.sym.p + d
        self.n_barrier_terms = m + objective.n_terms

    @functools.cached_property
    def W(self) -> np.ndarray:
        return self.sym.basis_apply(self.A)

    def take(self, rows) -> "_Barrier":
        """The problems at ``rows``, with their rows of a built ``W``."""
        sub = _Barrier(self.A[rows], self.b[rows], self.objective)
        if "W" in self.__dict__:
            sub.W = self.W[rows]
        return sub

    def eval(self, x, rows=slice(None)):
        """Returns (ok, cache) for x at the problems ``rows`` (every problem
        by default): ok lists which rows of x lie inside the domain and the
        cache holds those rows.  A row is inside when every slack and
        |B a_i| is positive, B has a Cholesky factor, and the objective's
        own domain test passes; the last runs on the rows that pass the
        others."""
        A, b = self.A[rows], self.b[rows]
        pB = self.sym.p
        B = self.sym.mat(x[:, :pB])
        c = x[:, pB:]
        V = A @ B
        # np.linalg.norm(V, axis=2), without its dispatch
        n = np.sqrt(np.add.reduce(V * V, axis=2))
        s = b - _matvec(A, c) - n
        # no n_i <= 0 and no s_i <= 0 (fmin skips a NaN as the comparisons
        # do), and no NaN factor
        ok = ~((np.fmin(n, s) <= 0.0).any(axis=1)
               | np.isnan(_cholesky(B)[:, -1, -1]))
        # the row tests run on lists: a NumPy reduction costs more at this size
        okl = ok.tolist()
        if not all(okl):
            if not any(okl):
                return okl, ()
            B, c, V, n, s = B[ok], c[ok], V[ok], n[ok], s[ok]
        _, logdet = _lapack.slogdet(B)
        state, in_domain = self.objective.state(B, c, logdet)
        cache = (B, V, n, s) + state
        if in_domain is not None and not all(in_domain.tolist()):
            ok[ok] = in_domain
            okl = ok.tolist()
            cache = _take(cache, in_domain)
        slog = np.add.reduce(np.log(cache[3]), axis=1)
        return okl, cache[:4] + (slog,) + cache[4:]

    def value(self, cache, t):
        return self.objective.value(cache[5:], t) - cache[4]

    def grad_hess(self, cache, t):
        B, V, n, s = cache[:4]
        N, pB = len(s), self.sym.p
        Binv = _lapack.inv(B)
        g, HB = self.objective.grad_hess(B, cache[5:], Binv, t)
        q = np.einsum('nkmd,nmd->nkm', self.W, V) / n[:, None, :]
        G = np.concatenate([q, self.At], axis=1)
        g += _matvec(G, 1.0 / s)
        H = np.zeros((N, self.p, self.p))
        H[:, :pB, :pB] += HB
        Gs = G / s[:, None, :]
        H += Gs @ Gs.transpose(0, 2, 1)
        rw = np.sqrt(1.0 / (n * s))
        Ws = (self.W * rw[:, None, :, None]).reshape(N, pB, -1)
        qw = q * rw[:, None, :]
        H[:, :pB, :pB] += (Ws @ Ws.transpose(0, 2, 1)
                           - qw @ qw.transpose(0, 2, 1))
        return g, H


class _LogDet:
    """MVIE objective -t log det B; its state is (log det B,)."""

    n_terms = 0

    def __init__(self, d: int):
        self.sym = _sym_space(d)

    def state(self, B, c, logdet):
        return (logdet,), None

    def value(self, state, t):
        return -t * state[0]

    def grad_hess(self, B, state, Binv, t):
        g = np.concatenate([-t * self.sym.vec(Binv),
                            np.zeros((len(Binv), self.sym.d))], axis=1)
        return g, t * self.sym.logdet_hess(Binv)


class _Height:
    """Lowest-ellipsoid objective t (c_d + |B e_d|) - log(log det B - log v0);
    its state is (log det B, u = log det B - log v0, |B e_d|, c_d + |B e_d|)."""

    n_terms = 1

    def __init__(self, d: int, log_v0: float):
        self.sym = _sym_space(d)
        self.log_v0 = log_v0
        e_d = np.zeros((1, d))
        e_d[0, -1] = 1.0
        self.We = self.sym.basis_apply(e_d)[:, 0, :]      # (p_B, d)
        self.WeWe = self.We @ self.We.T

    def state(self, B, c, logdet):
        u = logdet - self.log_v0
        # |B e_d| as np.linalg.norm of the column: a BLAS dot of a copy
        ve = np.ascontiguousarray(B[:, :, -1])
        ne = np.sqrt(_rowdot(ve, ve))
        return (logdet, u, ne, c[:, -1] + ne), ~(u <= 0.0)

    def value(self, state, t):
        _, u, _, height = state
        # math.log, not np.log: the two differ in the last bit for some u
        return t * height - np.array([math.log(v) for v in u.tolist()])

    def grad_hess(self, B, state, Binv, t):
        _, u, ne, _ = state
        sym, pB = self.sym, self.sym.p
        binv_vec = sym.vec(Binv)

        # height objective
        qe = _matvec(self.We, B[:, :, -1]) / ne[:, None]
        g = np.zeros((len(u), pB + sym.d))
        g[:, :pB] += t * qe
        g[:, -1] += t
        He = (self.WeWe - qe[:, :, None] * qe[:, None, :]) / ne[:, None, None]

        # volume barrier
        g[:, :pB] += -binv_vec / u[:, None]
        Hu = (binv_vec[:, :, None] * binv_vec[:, None, :]
              / (u * u)[:, None, None]
              + sym.logdet_hess(Binv) / u[:, None, None])
        return g, t * He + Hu


def _line_search(prob: _Barrier, x, cache, f, gd, delta, t, look):
    """Backtracking line search (Armijo, step halving) along delta from the
    rows ``look`` of x, where f[i] = f_t(x_i) and gd[i] = g_i . delta_i.  The
    rows start at step 1 and halve together, so the rows still backtracking
    share one step.  Returns (x, cache, moved) with the accepted rows moved
    and their f updated in place; the only code that moves an iterate."""
    moved = [False] * len(x)
    step = 1.0
    while look and step >= 1e-12:
        cand = x[look] + step * delta[look]
        ok, cc = prob.eval(cand, look if len(look) < len(x) else slice(None))
        vals = iter(prob.value(cc, t).tolist() if cc else ())
        fc = [next(vals) if o else None for o in ok]
        good = [v is not None and v <= f[i] + 0.25 * step * gd[i]
                for v, i in zip(fc, look)]
        pos = [j for j, gj in enumerate(good) if gj]
        if len(pos) == len(x):                # every row, at the full step
            f[:] = fc
            return cand, cc, [True] * len(x)
        if pos:
            hit = [look[j] for j in pos]
            rank = list(itertools.accumulate(ok))  # cc holds the ok rows
            x[hit] = cand[pos]
            for a, v in zip(cache, cc):
                a[hit] = v[[rank[j] - 1 for j in pos]]
            for j, i in zip(pos, hit):
                moved[i] = True
                f[i] = fc[j]
            look = [i for i, gi in zip(look, good) if not gi]
        step *= 0.5
    return x, cache, moved


def _newton_centering(prob: _Barrier, x, cache, t, budget, tol=_CENTER_TOL):
    """Damped Newton to the analytic centers of f_t from the rows of x (with
    their eval cache); problem i takes at most budget[i] >= 1 steps.
    Returns (x, cache, steps).

    Each problem follows the iterates it follows alone: it leaves the working
    rows ``ws`` when its Newton decrement is small or stalls, its Newton
    system fails, its line search fails or its budget is spent, and the
    others go on; only the line search moves rows of x and cache.
    """
    n = len(x)
    f = prob.value(cache, t).tolist()
    prev_lam2 = [math.inf] * n
    steps = [0] * n
    delta, gd = np.empty_like(x), [0.0] * n
    ws = list(range(n))
    while ws:
        sub, cw = ((prob, cache) if len(ws) == n
                   else (prob.take(ws), _take(cache, ws)))
        g, H = sub.grad_hess(cw, t)
        dw = _newton_directions(H, g)
        delta[ws] = dw
        look = []
        for i, v in zip(ws, _rowdot(g, dw).tolist()):
            gd[i] = v
            # (-g).delta is exactly -(g.delta): negation commutes with
            # rounding.  Rounding floor: for huge t the decrement stops
            # improving while the point is already essentially centered.
            lam2 = -v
            if not (lam2 / 2.0 <= tol
                    or (lam2 < 1e-5 and lam2 >= 0.99 * prev_lam2[i])):
                look.append(i)
            prev_lam2[i] = lam2
        x, cache, moved = _line_search(prob, x, cache, f, gd, delta, t, look)
        for i in look:
            steps[i] += 1
        ws = [i for i in ws if moved[i] and steps[i] < budget[i]]
    return x, cache, steps


def _solve_stacked(polytopes, objective, starts, settings):
    """Barrier solves of objective(d) on each polytope from its start (B0, c0),
    one stack per constraint-matrix shape.  Returns (outcomes, error): the
    outcomes in input order up to the first problem that failed, and that
    problem's error (None when every problem was solved).

    A stack's problems share m, hence one t schedule: each centering runs
    on the problems still live, until the duality-gap bound reaches the
    target.  A problem retires with MaxIterations when its start lies outside
    the domain or its budget of Newton steps is spent, and the others go on.
    An outcome's objective is log det B, its KKT bound is the gap plus
    |grad f_t| / t at the final t, and its active set is the near-zero
    slacks."""
    out = [None] * len(polytopes)
    errors = [None] * len(polytopes)
    groups = {}
    for i, P in enumerate(polytopes):
        groups.setdefault(P.A.shape, []).append(i)
    for (_, d), live in groups.items():
        prob = _Barrier(np.stack([polytopes[i].A for i in live]),
                        np.stack([polytopes[i].b for i in live]), objective(d))
        B0 = np.stack([starts[i][0] for i in live])
        c0 = np.stack([starts[i][1] for i in live])
        x = np.concatenate([prob.sym.coords(B0), c0], axis=1)
        ok, cache = prob.eval(x)
        gone, why = [not o for o in ok], "barrier start point left the domain"
        left = [settings.max_iterations] * len(live)
        t, final = 1.0, False
        while True:
            if any(gone):
                for i, gk in zip(live, gone):
                    if gk:
                        errors[i] = MaxIterations(why)
                keep = [k for k, gk in enumerate(gone) if not gk]
                live, left = [live[k] for k in keep], [left[k] for k in keep]
                if not live:
                    break
                # the start's cache already holds only the rows inside
                if len(cache[0]) > len(keep):
                    cache = _take(cache, keep)
                x, prob = x[keep], prob.take(keep)
            if final:
                g, _ = prob.grad_hess(cache, t)
                kkt = prob.n_barrier_terms / t + np.sqrt(_rowdot(g, g)) / t
                for j, i in enumerate(live):
                    B, s, logdet = cache[0][j], cache[3][j], cache[5][j]
                    active = tuple(
                        int(a) for a in np.nonzero(s <= ACTIVE_SLACK_TOL)[0])
                    out[i] = SolveOutcome(Ellipsoid(B, x[j, prob.sym.p:]),
                                          float(logdet), float(kkt[j]), active)
                break
            # Intermediate centerings only need to stay in the region of
            # quadratic convergence; the tight tolerance is reserved for the
            # final t.
            final = prob.n_barrier_terms / t <= settings.gap_target
            x, cache, steps = _newton_centering(
                prob, x, cache, t, left, _CENTER_TOL if final else 1e-3)
            left = [n - s for n, s in zip(left, steps)]
            # A problem whose budget is spent ended its centering without a
            # decrement test at its last iterate, at the final t as at any
            # other.
            gone = [n == 0 for n in left]
            why = (f"barrier solver exceeded {settings.max_iterations} "
                   "Newton steps")
            if not final:
                t *= _T_GROWTH
    for i, e in enumerate(errors):
        if e is not None:
            return out[:i], e
    return out, None


def single_outcome(batch) -> SolveOutcome:
    """The outcome of a batch of one, or its error raised."""
    outcomes, error = batch
    if error is not None:
        raise error
    return outcomes[0]


# ---------------------------------------------------------------------------
# MVIE


def _start(center, margin: float, settings: SolverSettings):
    """The MVIE barrier's start (0.9 margin I, center) from a polytope's
    Chebyshev center and margin; raises EmptyInterior for a margin at most
    ``feasibility_tol``."""
    if margin <= settings.feasibility_tol:
        raise EmptyInterior("polytope has empty interior (Chebyshev "
                            f"margin {margin:.3e})")
    return 0.9 * margin * np.eye(len(center)), center


def mvie_batch(polytopes, settings: SolverSettings = DEFAULT_SETTINGS):
    """Maximum-volume inscribed ellipsoids of a sequence of full-dimensional
    polytopes, one stacked barrier solve per constraint count.

    The polytopes must be bounded: no boundedness check runs, only one
    start-point LP per polytope.  Returns (outcomes, error): the outcomes in
    input order up to the first polytope that fails, and its error
    (EmptyInterior, MaxIterations, or Unbounded when its start LP fails), or
    None.  The start-point LPs run in input order, and neither they nor the
    iteration of ``polytopes`` go past the first that fails.  Every outcome
    is bitwise the one ``mvie`` returns on its polytope alone.
    """
    solvable, starts, error = [], [], None
    for P in polytopes:
        try:
            starts.append(_start(*chebyshev_center(P), settings))
        except (Unbounded, EmptyInterior) as exc:
            error = exc
            break
        solvable.append(P)
    outcomes, failed = _solve_stacked(solvable, _LogDet, starts, settings)
    return outcomes, error if failed is None else failed


def mvie(P: HPolytope, settings: SolverSettings = DEFAULT_SETTINGS) -> SolveOutcome:
    """Maximum-volume inscribed ellipsoid of a bounded full-dimensional
    polytope.  One Chebyshev LP certifies boundedness by its duals (or with
    2d recession-cone LPs, ``_bounded_margin``) and starts the barrier;
    Unbounded is raised before EmptyInterior."""
    bounded, center, margin = _bounded_margin(P)
    if not bounded:
        raise Unbounded("mvie requires a bounded polytope")
    start = _start(center, margin, settings)
    return single_outcome(_solve_stacked([P], _LogDet, [start], settings))


# ---------------------------------------------------------------------------
# Lowest ellipsoid


def slice_below(P: HPolytope, tau: float) -> HPolytope:
    """P intersected with the half-space {x : x_d <= tau}."""
    e_d = np.zeros((1, P.dim))
    e_d[0, -1] = 1.0
    return HPolytope(np.vstack([P.A, e_d]), np.append(P.b, tau))


def lift_to_target(polytopes, batch, target_volume: float,
                   settings: SolverSettings = DEFAULT_SETTINGS):
    """Lowest ellipsoids of one target volume, started from the MVIEs
    ``batch`` that ``mvie_batch`` returned as (outcomes, error) for
    ``polytopes`` (of which only the first ``len(outcomes)`` are read), with
    no slab cross-check.  A nonpositive target fails with VolumeInfeasible
    unless the batch is empty, and so does a polytope whose MVIE volume does
    not reach the target (``reaches_target``, as in the hypothesis check).
    Returns (outcomes, error) like ``mvie_batch``; the height problems
    before the first failure so far are solved as stacks, so an error among
    them comes earlier and replaces it.
    """
    out, error = list(batch[0]), batch[1]
    if target_volume <= 0.0:
        return [], (VolumeInfeasible("target volume must be positive")
                    if out or error is not None else None)
    lift, starts = [], []
    for i, base in enumerate(out):
        v_max = base.volume
        if not reaches_target(v_max, target_volume):
            out, error = out[:i], VolumeInfeasible(
                f"MVIE volume {v_max:.12g} below target {target_volume:.12g}")
            break
        # At the target volume the MVIE is the only inscribed ellipsoid of
        # that volume and is the outcome; above it, the height problem
        # starts from the MVIE shrunk slightly.
        if v_max > target_volume * (1.0 + 1e-7):
            d = polytopes[i].dim
            rho = (target_volume / v_max) ** (1.0 / d)
            sigma = min(0.05, 0.5 * (1.0 - rho))
            lift.append(i)
            starts.append(((1.0 - sigma) * base.ellipsoid.shape,
                           base.ellipsoid.center))

    def height(d):
        return _Height(d, math.log(target_volume / unit_ball_volume(d)))

    lifted, failed = _solve_stacked([polytopes[i] for i in lift], height,
                                    starts, settings)
    for i, low in zip(lift, lifted):
        out[i] = low
    if failed is not None:
        out, error = out[:lift[len(lifted)]], failed
    return [SolveOutcome(o.ellipsoid, ellipsoid_height(o.ellipsoid),
                         o.kkt_residual, o.active_constraints)
            for o in out], error


def lowest_ellipsoid(P: HPolytope, target_volume: float,
                     settings: SolverSettings = DEFAULT_SETTINGS) -> SolveOutcome:
    """Among ellipsoids of the given volume inside P, the one of minimal height.

    Raises VolumeInfeasible for a nonpositive target before any LP, then
    lifts ``mvie`` of P to the target.  The optimum is also the MVIE of P
    cut below its own height (the defining property of the lowest
    ellipsoid); the two routes are compared and a gap beyond AGREEMENT_TOL
    raises CertificateFailed.
    """
    if target_volume <= 0.0:
        raise VolumeInfeasible("target volume must be positive")
    out = single_outcome(lift_to_target(
        [P], ([mvie(P, settings)], None), target_volume, settings))
    check = single_outcome(mvie_batch([slice_below(P, out.objective)],
                                      settings))
    gap = ellipsoid_gap(check.ellipsoid, out.ellipsoid)
    if gap > AGREEMENT_TOL:
        raise CertificateFailed("lowest ellipsoid disagrees with MVIE of the "
                                f"slab (gap {gap:.3e})")
    return out
