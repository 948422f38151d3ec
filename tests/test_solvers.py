import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quanthelly import (AffineMap, HPolytope, SolverSettings,
                        ellipsoid_in_polytope, ellipsoid_volume, is_bounded,
                        lowest_ellipsoid, mvie, transform_ellipsoid,
                        transform_polytope)
from quanthelly import geometry, solvers
from quanthelly.errors import (CertificateFailed, EmptyInterior,
                               MaxIterations, Unbounded, VolumeInfeasible)
from quanthelly.geometry import chebyshev_center, intersect
from quanthelly.solvers import (DEFAULT_SETTINGS, _Barrier, _Height, _LogDet,
                                _SymSpace, lift_to_target, mvie_batch,
                                slice_below)

from _oracles import lowest_oracle, mvie_oracle

from conftest import bounded_random_polytope


def triangle_polytope():
    s = 1.0 / math.sqrt(2.0)
    A = np.array([[0.0, -1.0], [-1.0, 0.0], [s, s]])
    b = np.array([0.0, 0.0, s])
    return HPolytope(A, b)


# ---------------------------------------------------------------------------
# Barrier calculus: finite-difference checks of the analytic derivatives


def _fd_check(problem, x, t, h=1e-6):
    """problem is a stack of one problem and x its iterate."""
    def cache_at(x):
        ok, cache = problem.eval(x[None])
        assert ok == [True]
        return cache

    def value(x):
        return problem.value(cache_at(x), t)[0]

    def grad_hess(x):
        g, H = problem.grad_hess(cache_at(x), t)
        return g[0], H[0]

    g, H = grad_hess(x)
    n = x.shape[0]
    g_fd = np.empty(n)
    for k in range(n):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        g_fd[k] = (value(xp) - value(xm)) / (2.0 * h)
    assert np.allclose(g, g_fd, rtol=5e-4, atol=5e-4)
    H_fd = np.empty((n, n))
    for k in range(n):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        H_fd[:, k] = (grad_hess(xp)[0] - grad_hess(xm)[0]) / (2.0 * h)
    scale = max(np.abs(H).max(), 1.0)
    assert np.abs(H - H_fd).max() / scale < 1e-3


def _barrier_point(d, diag0):
    """A small interior iterate: B has diagonal diag0, diag0 + 0.05, ... and
    off-diagonal 0.01; the center is (0.03, -0.02, 0.01)[:d]."""
    B = np.diag(diag0 + 0.05 * np.arange(d)) + 0.01 * (1.0 - np.eye(d))
    c = np.array([0.03, -0.02, 0.01])[:d]
    return np.concatenate([_SymSpace(d).coords(B), c])


# d=3 is needed too: at d=2 there is a single off-diagonal coordinate, so a
# mix-up in the coordinate order would not show.
@pytest.mark.parametrize("d", [2, 3])
def test_mvie_barrier_derivatives(rng, d):
    P = bounded_random_polytope(rng, d)
    x = _barrier_point(d, 0.2)
    _fd_check(_Barrier(P.A[None], P.b[None], _LogDet(d)), x, t=3.0)


@pytest.mark.parametrize("d", [2, 3])
def test_lowest_barrier_derivatives(rng, d):
    P = bounded_random_polytope(rng, d)
    x = _barrier_point(d, 0.25)
    _fd_check(_Barrier(P.A[None], P.b[None], _Height(d, math.log(0.02))), x,
              t=3.0)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_sym_space_maps_match_basis_matrices(rng, d):
    sym = _SymSpace(d)
    idx = [(i, j) for i in range(d) for j in range(i, d)]
    assert sym.p == len(idx)
    E = np.zeros((sym.p, d, d))
    for k, (i, j) in enumerate(idx):
        E[k, i, j] = E[k, j, i] = 1.0
    R = rng.normal(size=(d, d))
    M = R + R.T
    P = np.linalg.inv(R @ R.T + d * np.eye(d))
    A = rng.normal(size=(5, d))
    assert np.array_equal(sym.mat(sym.coords(M)), M)
    assert np.array_equal([sym.mat(e) for e in np.eye(sym.p)], E)
    assert np.allclose(sym.vec(M), [np.trace(Ek @ M) for Ek in E],
                       rtol=1e-14, atol=1e-14)
    H = [[np.trace(P @ Ek @ P @ El) for El in E] for Ek in E]
    assert np.allclose(sym.logdet_hess(P), H, rtol=1e-12, atol=1e-14)
    assert np.array_equal(sym.basis_apply(A),
                          np.einsum('kcd,md->kmc', E, A))


@pytest.mark.parametrize("built", [False, True])
def test_barrier_take_gathers_the_basis_tensor(rng, built):
    # taking rows hands the sub-stack its rows of a built W; both routes
    # give the bits of the tensor built on the rows' own constraints
    d, rows = 3, [4, 1, 1]
    A, b = rng.normal(size=(5, 7, d)), rng.uniform(1.0, 2.0, size=(5, 7))
    prob = _Barrier(A, b, _LogDet(d))
    if built:
        prob.W
    W = prob.take(rows).W
    expected = solvers._sym_space(d).basis_apply(A[rows])
    assert ("W" in vars(prob)) == built
    assert W.shape == expected.shape
    assert W.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# MVIE fixtures and oracle agreement


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_mvie_cube_is_unit_ball(d):
    out = mvie(HPolytope.box(np.ones(d)))
    assert np.linalg.norm(out.ellipsoid.shape - np.eye(d)) < 1e-6
    assert np.linalg.norm(out.ellipsoid.center) < 1e-6
    assert len(out.active_constraints) == 2 * d


def test_mvie_triangle_volume_oracle():
    P = triangle_polytope()
    out = mvie(P)
    assert out.volume == pytest.approx(math.pi / (6.0 * math.sqrt(3.0)),
                                       abs=1e-8)
    B, c = mvie_oracle(P.A, P.b, x0=np.array([0.25, 0.25]))
    assert out.volume == pytest.approx(math.pi * np.linalg.det(B), abs=1e-6)


def test_mvie_matches_oracle_on_random_polytopes(rng):
    for _ in range(3):
        P = bounded_random_polytope(rng, 2)
        out = mvie(P)
        B, c = mvie_oracle(P.A, P.b)
        assert out.volume >= math.pi * np.linalg.det(B) - 1e-6
        assert np.linalg.norm(out.ellipsoid.center - c) < 1e-3
        assert ellipsoid_in_polytope(out.ellipsoid, P, tol=1e-8)


def test_mvie_offcenter_box():
    out = mvie(HPolytope.box([2.0, 1.0], center=[5.0, -3.0]))
    assert np.allclose(out.ellipsoid.shape, np.diag([2.0, 1.0]), atol=1e-7)
    assert np.allclose(out.ellipsoid.center, [5.0, -3.0], atol=1e-7)


def test_mvie_rejects_unbounded():
    half = HPolytope(np.array([[1.0, 0.0]]), np.array([1.0]))
    with pytest.raises(Unbounded, match="^mvie requires a bounded polytope$"):
        mvie(half)
    # empty (x <= 0 and x >= 1) and unbounded along y: Unbounded comes first
    strip = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                      np.array([0.0, -1.0]))
    with pytest.raises(Unbounded, match="^mvie requires a bounded polytope$"):
        mvie(strip)


def test_mvie_rejects_empty_interior():
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.array([1.0, -1.0, 1.0, 1.0])
    with pytest.raises(EmptyInterior):
        mvie(HPolytope(A, b))


# ---------------------------------------------------------------------------
# Batched engine: every problem of a stack follows its lone iterates


def _same_outcome(a, b):
    return (np.array_equal(a.ellipsoid.shape, b.ellipsoid.shape)
            and np.array_equal(a.ellipsoid.center, b.ellipsoid.center)
            and a.objective == b.objective
            and a.kkt_residual == b.kkt_residual
            and a.active_constraints == b.active_constraints)


def _solve(objective, polytopes, settings, target=None):
    """(outcomes, error) of a batch."""
    if objective == "mvie":
        return mvie_batch(polytopes, settings)
    return lift_to_target(polytopes, mvie_batch(polytopes, settings), target,
                          settings)


@pytest.mark.parametrize("objective", ["mvie", "lowest"])
@pytest.mark.parametrize("d", [2, 3])
def test_batch_outcomes_equal_lone_solves(rng, monkeypatch, d, objective):
    polytopes = [bounded_random_polytope(rng, d, extra=e)
                 for e in (4, 12, 8, 4, 12, 8, 8, 8)]
    target = 0.5 * min(o.volume for o in mvie_batch(polytopes)[0])
    alone = [_solve(objective, [P], DEFAULT_SETTINGS, target)[0][0]
             for P in polytopes]
    left_domain = []
    eval_ = _Barrier.eval

    def watching_eval(self, x, *rows):
        ok, cache = eval_(self, x, *rows)
        left_domain.append(not all(ok))
        return ok, cache

    monkeypatch.setattr(_Barrier, "eval", watching_eval)
    for order in (range(len(polytopes)), rng.permutation(len(polytopes))):
        out, error = _solve(objective, [polytopes[i] for i in order],
                            DEFAULT_SETTINGS, target)
        assert error is None and len(out) == len(polytopes)
        for i, o in zip(order, out):
            assert _same_outcome(o, alone[i])
    # some line search of the stack stepped outside the domain
    assert any(left_domain)


@pytest.mark.parametrize("objective", ["mvie", "lowest"])
@pytest.mark.parametrize("d", [2, 3])
def test_batch_ends_at_first_empty_polytope(rng, d, objective):
    far = [3.0] + [0.0] * (d - 1)
    empty = intersect(HPolytope.box([1.0] * d),
                      HPolytope.box([1.0] * d, center=far))
    polytopes = [bounded_random_polytope(rng, d) for _ in range(2)]
    polytopes += [empty, bounded_random_polytope(rng, d)]
    out, error = _solve(objective, polytopes, DEFAULT_SETTINGS, 0.1)
    assert len(out) == 2
    for P, o in zip(polytopes[:2], out):
        assert _same_outcome(
            o, _solve(objective, [P], DEFAULT_SETTINGS, 0.1)[0][0])
    assert isinstance(error, EmptyInterior)


@pytest.mark.parametrize("objective", ["mvie", "lowest"])
@pytest.mark.parametrize("d", [2, 3])
def test_batch_step_budget_matches_lone_solves(rng, d, objective):
    # A budget that some problems need more Newton steps than: each problem
    # counts its own steps while the others leave the stack around it.
    polytopes = [bounded_random_polytope(rng, d, extra=e)
                 for e in (4, 12, 8, 4, 12, 8, 8, 8)]
    target = 0.5 * min(o.volume for o in mvie_batch(polytopes)[0])
    settings = SolverSettings(max_iterations=52)
    alone = [_solve(objective, [P], settings, target) for P in polytopes]
    failing = [error is not None for _, error in alone]
    assert any(failing) and not all(failing)
    n = len(polytopes)
    for order in (range(n), range(n - 1, -1, -1), rng.permutation(n)):
        out, error = _solve(objective, [polytopes[i] for i in order],
                            settings, target)
        first = next(j for j, i in enumerate(order) if failing[i])
        assert len(out) == first
        for i, o in zip(order, out):
            assert _same_outcome(o, alone[i][0][0])
        lone_error = alone[order[first]][1]
        assert (type(error), str(error)) == (type(lone_error), str(lone_error))


def test_budget_spent_in_final_centering_raises():
    # 40 steps run out in the centering at the final t (44 do not): the
    # problem never passed its decrement test there, so it has no value.
    P = HPolytope.box([1.0, 2.0], center=[0.3, -0.2])
    out, error = mvie_batch([P], SolverSettings(max_iterations=40))
    assert out == [] and isinstance(error, MaxIterations)
    out, error = mvie_batch([P], SolverSettings(max_iterations=44))
    assert error is None and out[0].kkt_residual < 1e-6


@pytest.mark.parametrize("objective", ["mvie", "lowest"])
def test_batch_max_iterations_at_first_position(rng, objective):
    polytopes = [bounded_random_polytope(rng, 2) for _ in range(3)]
    out, error = _solve(objective, polytopes,
                        SolverSettings(max_iterations=1), 0.1)
    assert out == []
    assert isinstance(error, MaxIterations)


def test_start_outside_the_domain_retires_with_max_iterations():
    # The larger box's MVIE is no start for a height problem on the smaller
    # box: that problem retires at its start, and the problems stacked with
    # it keep the bits of their lone solves.
    b1, b2 = HPolytope.box([1, 1]), HPolytope.box([2, 2])
    lone, error = lift_to_target([b1], mvie_batch([b1]), 1.0)
    assert error is None and len(lone) == 1
    out, error = lift_to_target([b1, b1, b1], mvie_batch([b1, b2, b1]), 1.0)
    assert len(out) == 1 and _same_outcome(out[0], lone[0])
    assert isinstance(error, MaxIterations)
    assert str(error) == "barrier start point left the domain"
    out, error = lift_to_target([b1, b1], mvie_batch([b2, b1]), 1.0)
    assert out == [] and isinstance(error, MaxIterations)
    assert str(error) == "barrier start point left the domain"


# ---------------------------------------------------------------------------
# Lowest ellipsoid


def test_lowest_box_fixture():
    out = lowest_ellipsoid(HPolytope.box([2.0, 2.0]), math.pi)
    assert np.allclose(out.ellipsoid.shape, np.diag([2.0, 0.5]), atol=1e-5)
    assert np.allclose(out.ellipsoid.center, [0.0, -1.5], atol=1e-5)
    assert out.objective == pytest.approx(-1.0, abs=1e-5)


def test_lowest_box_matches_slsqp_oracle():
    P = HPolytope.box([2.0, 2.0])
    B, c, h = lowest_oracle(P.A, P.b, math.pi)
    out = lowest_ellipsoid(P, math.pi)
    assert out.objective == pytest.approx(h, abs=1e-6)
    assert np.allclose(out.ellipsoid.center, c, atol=1e-5)


def test_lowest_at_full_volume_returns_mvie():
    P = HPolytope.box([1.0, 1.0])
    out = lowest_ellipsoid(P, math.pi)
    assert np.allclose(out.ellipsoid.shape, np.eye(2), atol=1e-6)
    assert out.objective == pytest.approx(1.0, abs=1e-6)


def test_lowest_tall_box_slides_down():
    P = HPolytope.box([1.0, 2.0], center=[0.0, -1.0])  # [-1,1] x [-3,1]
    out = lowest_ellipsoid(P, math.pi)
    assert np.allclose(out.ellipsoid.shape, np.eye(2), atol=1e-5)
    assert np.allclose(out.ellipsoid.center, [0.0, -2.0], atol=1e-5)
    assert out.objective == pytest.approx(-1.0, abs=1e-5)


def test_lowest_volume_infeasible():
    with pytest.raises(VolumeInfeasible):
        lowest_ellipsoid(HPolytope.box([1.0, 1.0]), 10.0)
    with pytest.raises(VolumeInfeasible):
        lowest_ellipsoid(HPolytope.box([1.0, 1.0]), -1.0)
    # The hypothesis check's volume rule: an MVIE volume within 1e-6 of the
    # target reaches it, and the MVIE is then the lowest ellipsoid.
    box = HPolytope.box([0.5641894425] * 2)     # MVIE volume 1 - 5e-7
    out = lowest_ellipsoid(box, 1.0)
    E = mvie(box).ellipsoid
    assert np.array_equal(out.ellipsoid.shape, E.shape)
    assert np.array_equal(out.ellipsoid.center, E.center)
    w = math.sqrt((1.0 - 2e-6) / math.pi)        # MVIE volume 1 - 2e-6
    with pytest.raises(VolumeInfeasible):
        lowest_ellipsoid(HPolytope.box([w, w]), 1.0)


def test_newton_direction_fallback_rows():
    # Beside rows whose Cholesky factor fails, a positive definite row keeps
    # its stacked solution, as in a batch of one; a rank-one row is solved
    # after a jitter retry, as in a batch of one, and an indefinite row,
    # whose retries all fail, as zero.
    rng = np.random.default_rng(3)
    p = 5
    M = rng.normal(size=(p, p))
    v = rng.normal(size=p)
    H = np.stack([M @ M.T + np.eye(p), np.outer(v, v),
                  np.diag([1.0, 1.0, 1.0, 1.0, -5.0])])
    g = rng.normal(size=(3, p))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(H[1])
    delta = solvers._newton_directions(H, g)
    alone = solvers._newton_directions(H[:1], g[:1])
    assert delta[0].tobytes() == alone[0].tobytes()
    assert np.isfinite(delta[1]).all() and delta[1].any()
    jittered = solvers._newton_directions(H[1:2], g[1:2])
    assert delta[1].tobytes() == jittered[0].tobytes()
    assert delta[2].tobytes() == np.zeros(p).tobytes()


@pytest.mark.parametrize("objective", [_LogDet(2), _Height(2, -5.0)],
                         ids=["mvie", "lowest"])
def test_eval_row_mask_matches_lone_evals(objective):
    # One stack: a row inside the domain, a row whose B is indefinite while
    # its slacks and |B a_i| are positive (only the factor test rejects it),
    # a row outside by slack, and a row whose B holds a NaN.  Each row's
    # verdict and cache are those of its lone eval, bit for bit.
    box = HPolytope.box([1.0, 1.0])
    indefinite = np.diag([0.5, -0.5])
    rows = [(0.5 * np.eye(2), [0.1, -0.2]), (indefinite, [0.0, 0.0]),
            (0.5 * np.eye(2), [0.9, 0.0]),
            (np.array([[0.5, np.nan], [np.nan, 0.5]]), [0.0, 0.0])]
    sym = solvers._sym_space(2)
    x = np.stack([np.concatenate([sym.coords(B), c]) for B, c in rows])
    prob = _Barrier(np.stack([box.A] * 4), np.stack([box.b] * 4), objective)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(indefinite)
    n = np.linalg.norm(box.A @ indefinite, axis=1)      # slacks b - n
    assert ((0.0 < n) & (n < box.b)).all()
    ok, cache = prob.eval(x)
    assert ok == [True, False, False, False]
    lone = [prob.take([i]).eval(x[i:i + 1]) for i in range(4)]
    assert [o for o, _ in lone] == [[True], [False], [False], [False]]
    assert all(c == () for _, c in lone[1:])
    assert len(cache) == len(lone[0][1])
    for a, b in zip(cache, lone[0][1]):
        assert a.tobytes() == b.tobytes()
    # the rows of a parent read as a stack of those rows
    ok_rows, cache_rows = prob.eval(x[[2, 0]], [2, 0])
    assert ok_rows == [False, True]
    for a, b in zip(cache_rows, cache):
        assert a.tobytes() == b.tobytes()


def test_lowest_checks_target_then_boundedness():
    half = HPolytope(np.array([[1.0, 0.0]]), np.array([1.0]))
    with pytest.raises(VolumeInfeasible):
        lowest_ellipsoid(half, -1.0)
    with pytest.raises(Unbounded, match="^mvie requires a bounded polytope$"):
        lowest_ellipsoid(half, 1.0)
    strip = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                      np.array([0.0, -1.0]))
    with pytest.raises(VolumeInfeasible):
        lowest_ellipsoid(strip, 0.0)
    with pytest.raises(Unbounded, match="^mvie requires a bounded polytope$"):
        lowest_ellipsoid(strip, 1.0)


def test_lowest_is_mvie_of_slab(rng):
    # Defining property: the lowest ellipsoid is the MVIE of P cut at its
    # own height (checked here explicitly, not only by the cross-check).
    for _ in range(3):
        P = bounded_random_polytope(rng, 2)
        vmax = mvie(P).volume
        out = lowest_ellipsoid(P, 0.5 * vmax)
        check = mvie(slice_below(P, out.objective))
        assert np.linalg.norm(check.ellipsoid.shape - out.ellipsoid.shape) < 1e-5
        assert np.linalg.norm(check.ellipsoid.center - out.ellipsoid.center) < 1e-5


def test_lowest_minimality_cut_below_height():
    P = HPolytope.box([2.0, 2.0])
    out = lowest_ellipsoid(P, math.pi)
    cut = mvie(slice_below(P, out.objective - 1e-3))
    assert cut.volume < math.pi


def test_lowest_preserves_target_volume(rng):
    for _ in range(3):
        P = bounded_random_polytope(rng, 2)
        vmax = mvie(P).volume
        target = 0.4 * vmax
        out = lowest_ellipsoid(P, target)
        assert ellipsoid_volume(out.ellipsoid) == pytest.approx(target, rel=1e-5)
        assert ellipsoid_in_polytope(out.ellipsoid, P, tol=1e-7)


# ---------------------------------------------------------------------------
# Equivariance and monotonicity (full 50-map suites run in acceptance)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=10)
def test_mvie_affine_equivariance(seed):
    rng = np.random.default_rng(seed)
    P = bounded_random_polytope(rng, 2)
    L = rng.normal(size=(2, 2)) + 2.5 * np.eye(2)
    T = AffineMap(L, rng.normal(size=2))
    direct = mvie(transform_polytope(T, P)).ellipsoid
    mapped = transform_ellipsoid(T, mvie(P).ellipsoid)
    assert np.linalg.norm(direct.shape - mapped.shape) < 1e-5
    assert np.linalg.norm(direct.center - mapped.center) < 1e-5


@given(st.integers(0, 10 ** 6))
@settings(max_examples=10)
def test_mvie_monotone_under_added_constraint(seed):
    rng = np.random.default_rng(seed)
    P = bounded_random_polytope(rng, 2)
    base = mvie(P).volume
    a = rng.normal(size=2)
    a /= np.linalg.norm(a)
    Q = HPolytope(np.vstack([P.A, a]),
                  np.concatenate([P.b, [rng.uniform(0.5, 2.0)]]))
    if chebyshev_center(Q)[1] < -DEFAULT_SETTINGS.feasibility_tol:
        return
    try:
        smaller = mvie(Q).volume
    except EmptyInterior:
        return
    assert smaller <= base * (1.0 + 1e-8)


# ---------------------------------------------------------------------------
# Chebyshev margin


def test_chebyshev_margin_signals_feasibility():
    x, margin = chebyshev_center(HPolytope.box([1.0, 1.0]))
    assert margin >= 0.0 and np.all(np.abs(x) <= 1.0 + 1e-9)
    empty = HPolytope(
        np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-1.0, -1.0]))
    assert chebyshev_center(empty)[1] < -DEFAULT_SETTINGS.feasibility_tol


def test_slice_below_appends_height_row():
    P = HPolytope.box([1.0, 1.0, 1.0])
    S = slice_below(P, 2.5)
    assert np.array_equal(S.A[:6], P.A) and np.array_equal(S.b[:6], P.b)
    assert np.array_equal(S.A[6], [0.0, 0.0, 1.0])
    assert S.b[6] == 2.5


def test_lowest_raises_when_slab_mvie_disagrees(monkeypatch):
    # The cross-check solves the MVIE of the slab below the optimum; a slab
    # cut lower than the optimum's height has another MVIE.
    P = HPolytope.box([2.0, 2.0])
    cut = solvers.slice_below
    monkeypatch.setattr(solvers, "slice_below",
                        lambda Q, tau: cut(Q, tau - 0.5))
    with pytest.raises(CertificateFailed):
        lowest_ellipsoid(P, math.pi)


@pytest.mark.parametrize("d", [2, 3])
def test_lp_count_per_entry_point(rng, monkeypatch, d):
    # A lone solve reads boundedness and its start from one Chebyshev LP
    # whose duals certify boundedness, and adds 2d recession-cone LPs when
    # they do not.  lowest_ellipsoid adds the start LP of its slab
    # cross-check; the batch solvers run one start LP per polytope and
    # nothing else.
    polytopes = [bounded_random_polytope(rng, d) for _ in range(3)]
    target = 0.5 * min(o.volume for o in mvie_batch(polytopes)[0])
    calls = []
    lp = geometry._lp

    def counted(*args):
        calls.append(1)
        return lp(*args)

    monkeypatch.setattr(geometry, "_lp", counted)

    def count(solve):
        calls.clear()
        solve()
        return len(calls)

    assert count(lambda: mvie_batch(polytopes)) == 3
    assert count(lambda: lift_to_target(polytopes, mvie_batch(polytopes),
                                        target)) == 3
    assert count(lambda: mvie(polytopes[0])) == 1
    assert count(lambda: lowest_ellipsoid(polytopes[0], target)) == 2
    assert count(lambda: is_bounded(polytopes[0])) == 1
    # a box of unequal half-widths: its optimal duals sit on the two rows of
    # the narrowest axis, rank 1, and certify nothing
    box = HPolytope.box(np.arange(d, 0, -1.0))
    assert count(lambda: is_bounded(box)) == 1 + 2 * d
    assert count(lambda: mvie(box)) == 1 + 2 * d


@pytest.mark.parametrize("field", ["feasibility_tol", "kkt_tol",
                                   "gap_target"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_settings_reject_nonpositive_and_nonfinite_tolerances(field, value):
    with pytest.raises(ValueError):
        SolverSettings(**{field: value})


@pytest.mark.parametrize("value", [2.5, 0.5, 3.0, True, "3"])
def test_settings_reject_a_step_budget_that_is_not_an_integer(value):
    # a budget of 2.5 never counts down to 0, so a problem whose budget is
    # spent would not be retired with MaxIterations
    with pytest.raises(ValueError):
        SolverSettings(max_iterations=value)
