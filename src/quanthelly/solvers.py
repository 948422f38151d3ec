"""Log-det convex programs on H-polytopes: maximum-volume inscribed ellipsoid,
lowest ellipsoid of prescribed volume, exact 2-D area.

Both ellipsoid programs are solved by a log-barrier Newton scheme on the
self-concordant formulation over (B, c) with B symmetric positive definite
(Boyd & Vandenberghe, Convex Optimization, section 11).  One engine solves a
stack of problems at once: ``mvie_batch`` and ``lowest_ellipsoid_batch``
take a sequence of polytopes, and ``mvie`` and ``lowest_ellipsoid`` are
their batches of one, behind the checks only a lone solve runs (see
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

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import (CertificateFailed, DimensionMismatch, EmptyInterior,
                     MaxIterations, Unbounded, VolumeInfeasible)
from .geometry import (ACTIVE_SLACK_TOL, Ellipsoid, HPolytope,
                       chebyshev_center, ellipsoid_gap, ellipsoid_volume,
                       is_bounded, unit_ball_volume)

# Duality-gap target for the barrier path; well below the volume-gap contract.
_GAP_TARGET = 1e-8
# Newton decrement threshold for an (approximately) centered point.
_CENTER_TOL = 1e-9
# Factor by which the barrier parameter t grows between centerings.
_T_GROWTH = 10.0


@dataclasses.dataclass(frozen=True)
class SolverSettings:
    """Tolerances and budgets of a solve.

    Which checks run is decided by the entry point, not by a setting: ``mvie``
    and ``lowest_ellipsoid`` check that the polytope is bounded, and
    ``lowest_ellipsoid`` cross-checks its optimum against the MVIE of the
    slab below it; ``mvie_batch`` and ``lowest_ellipsoid_batch`` do neither.
    """

    feasibility_tol: float = 1e-9
    kkt_tol: float = 1e-7
    max_iterations: int = 200
    gap_target: float = _GAP_TARGET

    def __post_init__(self):
        tols = (self.feasibility_tol, self.kkt_tol, self.gap_target)
        if not (all(math.isfinite(x) and x > 0 for x in tols)
                and self.max_iterations > 0):
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
# numbers of a row do not depend on the rows beside it.  Per-problem control
# values (decrements, step counts, Armijo tests) are Python floats: the same
# IEEE operations as NumPy scalars, without a NumPy call per decision.


def _take(cache: tuple, rows) -> tuple:
    return tuple(a[rows] for a in cache)


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise A_n @ x_n: one BLAS gemv per row, as a lone ``A @ x``."""
    return (A @ x[..., None])[..., 0]


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a_n . b_n: one BLAS dot per row, as a lone ``a @ b``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _factorable(B: np.ndarray) -> np.ndarray:
    """Row mask: which matrices of the stack have a Cholesky factor, one
    factorization at a time (a stacked one raises if any matrix fails)."""
    ok = np.ones(len(B), dtype=bool)
    for i, Bi in enumerate(B):
        try:
            np.linalg.cholesky(Bi)
        except np.linalg.LinAlgError:
            ok[i] = False
    return ok


def _newton_directions(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Solutions of H delta = -g by Cholesky for a stack.  When a
    factorization fails, each row is solved on its own and retries with
    growing diagonal jitter; a row whose retries all fail gets delta = 0,
    whose zero Newton decrement ends its centering.  H holds no -0.0 (it
    is summed onto +0.0), so H is bitwise the H + 0 I a retry starts from."""
    try:
        L = np.linalg.cholesky(H)
        y = np.linalg.solve(L, -g[:, :, None])
        return np.linalg.solve(L.transpose(0, 2, 1), y)[:, :, 0]
    except np.linalg.LinAlgError:
        pass
    p = H.shape[1]
    delta = np.zeros_like(g)
    for i in range(len(g)):
        jitter = 0.0
        scale = max(float(np.trace(H[i])) / p, 1e-12)
        for _ in range(6):
            try:
                L = np.linalg.cholesky(H[i] + jitter * np.eye(p))
                y = np.linalg.solve(L, -g[i])
                delta[i] = np.linalg.solve(L.T, y)
                break
            except np.linalg.LinAlgError:
                jitter = scale * 1e-12 if jitter == 0.0 else jitter * 100.0
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
        """The problems at ``rows``."""
        return _Barrier(self.A[rows], self.b[rows], self.objective)

    def eval(self, x):
        """Returns (ok, cache): ok lists which rows of x lie inside the domain
        and the cache holds those rows."""
        A, b = self.A, self.b
        pB = self.sym.p
        B = self.sym.mat(x[:, :pB])
        c = x[:, pB:]
        try:
            np.linalg.cholesky(B)
            pd = None
        except np.linalg.LinAlgError:
            pd = _factorable(B)
        V = A @ B
        # np.linalg.norm(V, axis=2), without its dispatch
        n = np.sqrt(np.add.reduce(V * V, axis=2))
        s = b - _matvec(A, c) - n
        # no n_i <= 0 and no s_i <= 0 (fmin skips a NaN as the comparisons do)
        ok = ~(np.fmin(n, s) <= 0.0).any(axis=1)
        if pd is not None:
            ok &= pd
        okl = ok.tolist()
        if not all(okl):
            if not any(okl):
                return okl, ()
            B, c, V, n, s = B[ok], c[ok], V[ok], n[ok], s[ok]
        _, logdet = np.linalg.slogdet(B)
        state, in_domain = self.objective.state(B, c, logdet)
        cache = (B, V, n, s) + state
        if in_domain is not None:
            inl = in_domain.tolist()
            if not all(inl):
                cache = _take(cache, in_domain)
                it = iter(inl)
                okl = [o and next(it) for o in okl]
                if not any(inl):
                    return okl, ()
        slog = np.add.reduce(np.log(cache[3]), axis=1)
        return okl, cache[:4] + (slog,) + cache[4:]

    def value(self, cache, t):
        return self.objective.value(cache[5:], t) - cache[4]

    def grad_hess(self, cache, t):
        B, V, n, s = cache[:4]
        N, pB = len(s), self.sym.p
        Binv = np.linalg.inv(B)
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
    rows ``look`` of x, where f[k] = f_t(x_k) and gd[k] = g_k . delta_k.  The
    rows start at step 1 and halve together, so the rows still backtracking
    share one step.  Returns (x, cache, moved) with the accepted rows moved
    and their f updated in place."""
    moved = [False] * len(x)
    step = 1.0
    while look and step >= 1e-12:
        if len(look) == len(x):
            cand = x + step * delta
            ok, cc = prob.eval(cand)
        else:
            cand = x[look] + step * delta[look]
            ok, cc = prob.take(look).eval(cand)
        vals = iter(prob.value(cc, t).tolist() if cc else ())
        fc = [next(vals) if o else None for o in ok]
        good = [v is not None and v <= f[k] + 0.25 * step * gd[k]
                for v, k in zip(fc, look)]
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
            for j, k in zip(pos, hit):
                moved[k] = True
                f[k] = fc[j]
            look = [k for k, gk in zip(look, good) if not gk]
        step *= 0.5
    return x, cache, moved


def _newton_centering(prob: _Barrier, x, cache, t, budget, tol=_CENTER_TOL):
    """Damped Newton to the analytic centers of f_t from the rows of x (with
    their eval cache); problem i takes at most budget[i] >= 1 steps.
    Returns (x, cache, steps).

    Each problem follows the iterates it follows alone: it leaves the working
    set when its Newton decrement is small or stalls, its Newton system
    fails, its line search fails or its budget is spent, and the others go
    on.  A problem's last iterate is written back to x and cache when it
    leaves.  Control state (f_t, previous decrement, steps) is kept per
    problem; only the working rows are filtered.
    """
    n = len(x)
    f = prob.value(cache, t).tolist()
    prev_lam2 = [math.inf] * n
    steps = [0] * n
    ws = list(range(n))                       # problem of each working row
    sub, xw, cw = prob, x, cache
    while ws:
        g, H = sub.grad_hess(cw, t)
        delta = _newton_directions(H, g)
        gd = _rowdot(g, delta).tolist()
        look = []
        for k, (i, v) in enumerate(zip(ws, gd)):
            # (-g).delta is exactly -(g.delta): negation commutes with
            # rounding.  Rounding floor: for huge t the decrement stops
            # improving while the point is already essentially centered.
            lam2 = -v
            if not (lam2 / 2.0 <= tol
                    or (lam2 < 1e-5 and lam2 >= 0.99 * prev_lam2[i])):
                look.append(k)
            prev_lam2[i] = lam2
        fw = [f[i] for i in ws]
        xw, cw, moved = _line_search(sub, xw, cw, fw, gd, delta, t, look)
        for k in look:
            steps[ws[k]] += 1
        keep, out = [], []
        for k, (i, m) in enumerate(zip(ws, moved)):
            f[i] = fw[k]
            (keep if m and steps[i] < budget[i] else out).append(k)
        if not out:
            continue
        if not keep and len(ws) == n:         # nothing written back yet
            return xw, cw, steps
        rows = [ws[k] for k in out]
        x[rows] = xw[out]
        for a, v in zip(cache, cw):
            a[rows] = v[out]
        ws = [ws[k] for k in keep]
        if ws:
            sub, xw, cw = sub.take(keep), xw[keep], _take(cw, keep)
    return x, cache, steps


def _barrier_path(prob: _Barrier, x, settings: SolverSettings):
    """Follows the central path of every problem from the rows of x until the
    duality-gap bound reaches the target.  All problems share m, hence the
    t schedule.  Returns (live, x, cache, kkt, errors): the problems ``live``
    finished with those iterates, eval caches and KKT bounds; errors[i] is
    the MaxIterations that stopped problem i, or None."""
    errors = [None] * len(x)
    ok, cache = prob.eval(x)
    live = [i for i, o in enumerate(ok) if o]
    if len(live) < len(x):
        for i, o in enumerate(ok):
            if not o:
                errors[i] = MaxIterations("barrier start point left the domain")
        if not live:
            return live, x, cache, None, errors
        x, prob = x[live], prob.take(live)
    t = 1.0
    budget = settings.max_iterations
    used = [0] * len(live)
    while True:
        # Intermediate centerings only need to stay in the region of quadratic
        # convergence; the tight tolerance is reserved for the final t.
        final = prob.n_barrier_terms / t <= settings.gap_target
        tol = _CENTER_TOL if final else 1e-3
        x, cache, steps = _newton_centering(
            prob, x, cache, t, [budget - u for u in used], tol)
        used = [u + s for u, s in zip(used, steps)]
        # A problem that spent its budget left its centering without a
        # decrement test at its last iterate, at the final t as at any other.
        keep = [k for k, u in enumerate(used) if u < budget]
        if len(keep) < len(used):
            for k, u in enumerate(used):
                if u >= budget:
                    errors[live[k]] = MaxIterations(
                        f"barrier solver exceeded {budget} Newton steps")
            if not keep:
                return [], x, cache, None, errors
            live, used = [live[k] for k in keep], [used[k] for k in keep]
            x, cache, prob = x[keep], _take(cache, keep), prob.take(keep)
        if final:
            g, _ = prob.grad_hess(cache, t)
            gap = prob.n_barrier_terms / t
            return live, x, cache, gap + np.sqrt(_rowdot(g, g)) / t, errors
        t *= _T_GROWTH


def _barrier_solve(A, b, objective, B0, c0, settings: SolverSettings):
    """Follows the barrier path of objective on the stacked problems (A, b)
    from (B0, c0).  Returns (outcomes, errors): problem i's outcome, whose
    objective is log det B and whose active set is the near-zero slacks, or
    None, and the error that stopped it, or None."""
    prob = _Barrier(A, b, objective)
    x0 = np.concatenate([prob.sym.coords(B0), c0], axis=1)
    live, x, cache, kkt, errors = _barrier_path(prob, x0, settings)
    out = [None] * len(x0)
    pB = prob.sym.p
    for j, i in enumerate(live):
        B, s, logdet = cache[0][j], cache[3][j], cache[5][j]
        active = tuple(int(k) for k in np.nonzero(s <= ACTIVE_SLACK_TOL)[0])
        out[i] = SolveOutcome(Ellipsoid(B, x[j, pB:]), float(logdet),
                              float(kkt[j]), active)
    return out, errors


def _solve_stacked(polytopes, objective, starts, settings):
    """Barrier solves of objective(d) on each polytope from its start (B0, c0),
    one stack per constraint-matrix shape.  Returns (outcomes, error): the
    outcomes in input order up to the first problem that failed, and that
    problem's error (None when every problem was solved)."""
    out = [None] * len(polytopes)
    errors = [None] * len(polytopes)
    groups = {}
    for i, P in enumerate(polytopes):
        groups.setdefault(P.A.shape, []).append(i)
    for (_, d), idx in groups.items():
        res, err = _barrier_solve(np.stack([polytopes[i].A for i in idx]),
                                  np.stack([polytopes[i].b for i in idx]),
                                  objective(d),
                                  np.stack([starts[i][0] for i in idx]),
                                  np.stack([starts[i][1] for i in idx]),
                                  settings)
        for i, r, e in zip(idx, res, err):
            out[i], errors[i] = r, e
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


def _interior_start(P: HPolytope, settings: SolverSettings):
    c0, r = chebyshev_center(P)
    if r <= settings.feasibility_tol:
        raise EmptyInterior("polytope has empty interior (Chebyshev margin "
                            f"{r:.3e})")
    return c0, r


def _check_bounded(P: HPolytope):
    if not is_bounded(P):
        raise Unbounded("mvie requires a bounded polytope")


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
            c0, r = _interior_start(P, settings)
        except (Unbounded, EmptyInterior) as exc:
            error = exc
            break
        solvable.append(P)
        starts.append((0.9 * r * np.eye(P.dim), c0))
    outcomes, failed = _solve_stacked(solvable, _LogDet, starts, settings)
    return outcomes, error if failed is None else failed


def mvie(P: HPolytope, settings: SolverSettings = DEFAULT_SETTINGS) -> SolveOutcome:
    """Maximum-volume inscribed ellipsoid of a bounded full-dimensional
    polytope.  Raises Unbounded, found by 2d LPs before the start LP, when P
    is not bounded."""
    _check_bounded(P)
    return single_outcome(mvie_batch([P], settings))


# ---------------------------------------------------------------------------
# Lowest ellipsoid


def slice_below(P: HPolytope, tau: float) -> HPolytope:
    """P intersected with the half-space {x : x_d <= tau}."""
    e_d = np.zeros((1, P.dim))
    e_d[0, -1] = 1.0
    return HPolytope(np.vstack([P.A, e_d]), np.append(P.b, tau))


def lowest_ellipsoid_batch(polytopes, target_volume: float,
                           settings: SolverSettings = DEFAULT_SETTINGS):
    """Lowest ellipsoids of one target volume in a sequence of polytopes,
    solved as stacks: the MVIEs first, then the height problems.

    The polytopes must be bounded: as in ``mvie_batch`` no boundedness check
    runs, and no outcome is cross-checked against the MVIE of its slab.
    Returns (outcomes, error) like ``mvie_batch``; every outcome is bitwise
    the one a batch of one gives.  The height stage runs on the problems
    before the first failure so far, so an error it finds comes earlier and
    replaces it.
    """
    polytopes = list(polytopes)
    if target_volume <= 0.0:
        return [], (VolumeInfeasible("target volume must be positive")
                    if polytopes else None)
    out, error = mvie_batch(polytopes, settings)
    lift, starts = [], []
    for i, base in enumerate(out):
        v_max = base.volume
        if v_max < target_volume * (1.0 - max(1e-7, settings.feasibility_tol)):
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
    return [SolveOutcome(o.ellipsoid, _height(o.ellipsoid), o.kkt_residual,
                         o.active_constraints)
            for o in out], error


def lowest_ellipsoid(P: HPolytope, target_volume: float,
                     settings: SolverSettings = DEFAULT_SETTINGS) -> SolveOutcome:
    """Among ellipsoids of the given volume inside P, the one of minimal height.

    Raises VolumeInfeasible for a nonpositive target, then Unbounded when P
    is not bounded, before any solve.  The optimum is also the MVIE of P cut below its own height (the defining
    property of the lowest ellipsoid); the two routes are compared and a
    disagreement beyond 1e-5 raises CertificateFailed.
    """
    if target_volume <= 0.0:
        raise VolumeInfeasible("target volume must be positive")
    _check_bounded(P)
    out = single_outcome(lowest_ellipsoid_batch([P], target_volume, settings))
    check = single_outcome(mvie_batch([slice_below(P, out.objective)],
                                      settings))
    gap = ellipsoid_gap(check.ellipsoid, out.ellipsoid)
    if gap > 1e-5:
        raise CertificateFailed("lowest ellipsoid disagrees with MVIE of the "
                                f"slab (gap {gap:.3e})")
    return out


def _height(E: Ellipsoid) -> float:
    return float(E.center[-1] + np.linalg.norm(E.shape[:, -1]))


# ---------------------------------------------------------------------------
# 2-D volume


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


def polytope_volume_2d(P: HPolytope) -> float:
    """Exact area of a bounded 2-D polytope (vertex enumeration + hull)."""
    if P.dim != 2:
        raise DimensionMismatch("polytope_volume_2d requires d=2")
    if not is_bounded(P):
        raise Unbounded("polytope_volume_2d requires a bounded polytope")
    pts = polytope_vertices_2d(P)
    if pts.shape[0] < 3:
        return 0.0
    try:
        hull = ConvexHull(pts)
    except QhullError:
        return 0.0
    return float(hull.volume)
