import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quanthelly import (AffineMap, Ellipsoid, HPolytope,
                        ellipsoid_height, ellipsoid_in_polytope,
                        ellipsoid_volume, intersect, is_bounded, min_semiaxis,
                        support_value, transform_ellipsoid, transform_polytope,
                        unit_ball_volume)
from quanthelly import geometry
from quanthelly.errors import DegenerateInput, DimensionMismatch, Unbounded
from quanthelly.geometry import (INTERIOR_TOL, NORM_TOL, chebyshev_center,
                                 intersect_all, polytope_slacks)

from _oracles import sample_ellipsoid_points, support_oracle

from conftest import PRESOLVE_QUIRK_BODY, bounded_random_polytope


# ---------------------------------------------------------------------------
# Polytopes


def _row_rule(a, b):
    """The row scaling rule, one row at a time with the 1-D norm."""
    nrm = float(np.linalg.norm(a))
    if abs(nrm - 1.0) > NORM_TOL:
        return a / nrm, b / nrm
    return a, b


def test_halfspace_normalizes_to_unit_normal():
    P = HPolytope([[3.0, 4.0], [0.0, -2.0]], [10.0, 1.0])
    assert np.allclose(P.A, [[0.6, 0.8], [0.0, -1.0]])
    assert np.allclose(P.b, [2.0, 0.5])
    assert (P.dim, P.n_constraints) == (2, 2)
    assert not P.A.flags.writeable and not P.b.flags.writeable


def test_halfspace_rejects_zero_normal():
    for a in ([0.0, 0.0], [np.inf, 1.0], [np.nan, 1.0]):
        with pytest.raises(DegenerateInput):
            HPolytope([[1.0, 0.0], a], [1.0, 1.0])
    with pytest.raises(DegenerateInput):
        HPolytope(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(DegenerateInput):
        HPolytope([[1.0, 0.0]], [1.0, 2.0])


@pytest.mark.parametrize("offset", [np.nan, np.inf, -np.inf])
def test_halfspace_rejects_non_finite_offset(offset):
    with pytest.raises(DegenerateInput, match="offset"):
        HPolytope([[1.0, 0.0], [-1.0, 0.0]], [1.0, offset])
    # an offset that a row's normalization divides is checked as given
    with pytest.raises(DegenerateInput, match="offset"):
        HPolytope([[2.0, 0.0]], [offset])


def test_already_unit_normal_is_preserved_exactly():
    P = HPolytope([[1.0, 0.0]], [0.5])
    assert P.A[0, 0] == 1.0 and P.A[0, 1] == 0.0
    assert P.b[0] == 0.5


def test_rows_near_unit_follow_the_row_rule_bitwise(rng):
    # Rows whose norms sit on both sides of NORM_TOL: the vectorized screen
    # must leave exactly the rows the 1-D rule keeps.
    U = rng.normal(size=(400, 3))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    scale = 1.0 + NORM_TOL * rng.uniform(-3.0, 3.0, size=400)
    A, b = U * scale[:, None], rng.normal(size=400)
    P = HPolytope(A, b)
    for i in range(400):
        a, c = _row_rule(A[i], b[i])
        assert np.array_equal(P.A[i], a) and P.b[i] == c
    assert 0 < int(np.sum(np.any(P.A != A, axis=1))) < 400


def test_box_contains_points():
    P = HPolytope.box([1.0, 2.0])
    inside = np.array([[0.0, 0.0], [0.99, -1.99]])
    outside = np.array([[1.01, 0.0], [0.0, -2.5]])
    assert np.all(P.contains_points(inside))
    assert not np.any(P.contains_points(outside))


def test_polytope_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        intersect(HPolytope.box([1.0, 1.0]), HPolytope.box([1.0, 1.0, 1.0]))


def test_polytope_slacks_signs():
    P = HPolytope.box([1.0, 1.0])
    s = polytope_slacks(Ellipsoid.ball(np.zeros(2), 0.5), P)
    assert np.allclose(s, 0.5)
    s = polytope_slacks(Ellipsoid.ball(np.array([2.0, 0.0]), 0.5), P)
    assert s.min() == pytest.approx(-1.5)


# ---------------------------------------------------------------------------
# Ellipsoids


def test_ellipsoid_requires_spd_shape():
    with pytest.raises(DegenerateInput):
        Ellipsoid(np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros(2))
    with pytest.raises(DegenerateInput):
        Ellipsoid(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))


def test_unit_ball_volume_values():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    assert unit_ball_volume(4) == pytest.approx(math.pi ** 2 / 2.0)


def test_ellipsoid_volume_det_formula():
    B = np.array([[2.0, 0.0], [0.0, 0.5]])
    E = Ellipsoid(B, np.zeros(2))
    assert ellipsoid_volume(E) == pytest.approx(math.pi)


def test_ellipsoid_height_and_min_semiaxis():
    E = Ellipsoid(np.diag([2.0, 0.5]), np.array([0.0, -1.5]))
    assert ellipsoid_height(E) == pytest.approx(-1.0)
    assert min_semiaxis(E) == pytest.approx(0.5)


def test_support_value_matches_sampling(rng):
    B = np.array([[1.5, 0.3], [0.3, 0.7]])
    E = Ellipsoid(B, np.array([0.2, -0.1]))
    for _ in range(5):
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        exact = support_value(E, u)
        sampled = support_oracle(rng, B, E.center, u)
        assert sampled <= exact + 1e-12
        assert exact - sampled <= 1e-3


def test_ellipsoid_in_polytope_fixture(rng):
    P = HPolytope.box([1.0, 1.0])
    assert ellipsoid_in_polytope(Ellipsoid.unit_ball(2), P)
    assert not ellipsoid_in_polytope(Ellipsoid.ball(np.array([0.5, 0.0]), 0.7), P)


# ---------------------------------------------------------------------------
# Affine maps and transforms


def test_affine_map_inverse_compose(rng):
    L = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    T = AffineMap(L, rng.normal(size=3))
    x = rng.normal(size=3)
    assert np.allclose(T.inverse()(T(x)), x, atol=1e-10)
    assert np.allclose(T(T.inverse()(x)), x, atol=1e-9)


def test_transform_ellipsoid_matches_pointwise(rng):
    E = Ellipsoid(np.array([[1.2, 0.4], [0.4, 0.9]]), np.array([0.3, -0.2]))
    L = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
    T = AffineMap(L, np.array([1.0, -1.0]))
    TE = transform_ellipsoid(T, E)
    pts = sample_ellipsoid_points(rng, E.shape, E.center, 500, surface=True)
    img = pts @ L.T + T.shift
    u = np.linalg.solve(TE.shape, (img - TE.center).T)
    assert np.allclose(np.linalg.norm(u, axis=0), 1.0, atol=1e-9)


def test_transform_polytope_preserves_membership(rng):
    P = bounded_random_polytope(rng, 2)
    L = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
    T = AffineMap(L, rng.normal(size=2))
    TP = transform_polytope(T, P)
    pts = rng.uniform(-2.0, 2.0, size=(300, 2))
    assert np.array_equal(P.contains_points(pts),
                          TP.contains_points(pts @ L.T + T.shift))


def test_transform_volume_scaling(rng):
    E = Ellipsoid.unit_ball(2)
    L = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
    T = AffineMap(L, np.zeros(2))
    assert ellipsoid_volume(transform_ellipsoid(T, E)) == pytest.approx(
        abs(np.linalg.det(L)) * math.pi, rel=1e-10)


# ---------------------------------------------------------------------------
# Intersection, boundedness, interior


def test_intersect_concatenates_rows():
    P = HPolytope.box([1.0, 1.0])
    Q = HPolytope.box([2.0, 0.5])
    R = intersect(P, Q)
    assert R.n_constraints == 8
    assert np.array_equal(R.A, np.vstack([P.A, Q.A]))
    assert np.array_equal(R.b, np.concatenate([P.b, Q.b]))
    R3 = intersect_all([P, Q, P])
    assert R3.n_constraints == 12
    assert np.array_equal(R3.A[8:], P.A) and np.array_equal(R3.b[8:], P.b)


def test_is_bounded():
    assert is_bounded(HPolytope.box([1.0, 1.0]))
    half = HPolytope(np.array([[1.0, 0.0]]), np.array([1.0]))
    assert not is_bounded(half)


def test_is_bounded_when_presolve_calls_the_lp_infeasible():
    P = HPolytope(*PRESOLVE_QUIRK_BODY)
    assert chebyshev_center(P)[1] == 1e6
    assert not is_bounded(P)


def test_is_bounded_judges_an_empty_polytope_by_its_recession_cone():
    # both are empty (x_0 <= 0 and x_0 >= 1); the slab in R^2 recedes along x_1
    assert is_bounded(HPolytope([[1.0], [-1.0]], [0.0, -1.0]))
    assert not is_bounded(HPolytope([[1.0, 0.0], [-1.0, 0.0]], [0.0, -1.0]))


def _bounded_with_fallback_checked(P):
    """is_bounded(P), required to agree with the 2d recession-cone LPs, which
    it must run exactly when the Chebyshev LP's duals certify nothing.
    Returns (bounded, certified)."""
    cone = geometry._recession_cone_is_zero
    _, margin, row_dual = geometry._chebyshev(P)
    certified = geometry._duals_certify_bounded(P.A, margin, row_dual)
    runs = []

    def counted(Q):
        runs.append(Q)
        return cone(Q)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(geometry, "_recession_cone_is_zero", counted)
        bounded = is_bounded(P)
    assert bounded == cone(P)
    assert len(runs) == (0 if certified else 1)
    return bounded, certified


def _wedge(turn):
    """Normals at angles 0, pi/2 and pi + turn: they positively span R^2 for
    turn > 0, with the largest angular gap between them pi - turn, and leave
    the recession cone a ray-thin wedge of angle -turn for turn < 0."""
    t = math.pi + turn
    return HPolytope([[1.0, 0.0], [0.0, 1.0], [math.cos(t), math.sin(t)]],
                     [1.0, 1.0, 1.0])


# name: (polytope, bounded, certified by the duals)
BOUNDEDNESS_FIXTURES = {
    "box 2x1": (HPolytope.box([2.0, 1.0]), True, False),
    "slab": (HPolytope([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0]), False, False),
    "half-plane": (HPolytope([[1.0, 0.0]], [1.0]), False, False),
    "presolve quirk": (HPolytope(*PRESOLVE_QUIRK_BODY), False, False),
    "empty, R^1": (HPolytope([[1.0], [-1.0]], [0.0, -1.0]), True, True),
    "empty, R^2": (HPolytope([[1.0, 0.0], [-1.0, 0.0]], [0.0, -1.0]), False,
                   False),
    "wedge, spanning by 1e-7": (_wedge(1e-7), True, True),
    "wedge, missing by 1e-7": (_wedge(-1e-7), False, False),
}


@pytest.mark.parametrize("name", BOUNDEDNESS_FIXTURES)
def test_dual_certificate_agrees_with_the_cone_lps(name):
    P, bounded, certified = BOUNDEDNESS_FIXTURES[name]
    assert _bounded_with_fallback_checked(P) == (bounded, certified)


@given(st.integers(2, 4), st.integers(0, 10 ** 6),
       st.sampled_from(["spanning", "half-space", "half-cylinder"]))
def test_dual_certificate_agrees_with_the_cone_lps_on_random_polytopes(
        d, seed, kind):
    # "spanning": random normals and minus their sum, which positively span
    # R^d.  Otherwise every normal u has u . w <= 0, so w recedes; a
    # half-cylinder adds the rows +-p for a basis p of w's complement, which
    # keeps the Chebyshev margin below its cap.
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(int(rng.integers(d, 3 * d + 1)), d))
    w = rng.normal(size=d)
    w /= np.linalg.norm(w)
    if kind == "spanning":
        A = np.vstack([U, -U.sum(axis=0)])
    else:
        A = U - 2.0 * np.maximum(U @ w, 0.0)[:, None] * w
        if kind == "half-cylinder":
            basis = np.linalg.qr(np.column_stack(
                [w, rng.normal(size=(d, d - 1))]))[0][:, 1:].T
            A = np.vstack([A, basis, -basis])
    z = rng.uniform(-1.0, 1.0, size=d)
    P = HPolytope(A, A @ z + rng.uniform(0.1, 2.0, size=A.shape[0]))
    bounded, certified = _bounded_with_fallback_checked(P)
    assert bounded == (kind == "spanning")


def test_chebyshev_center_of_box():
    c, r = chebyshev_center(HPolytope.box([2.0, 1.0]))
    assert np.allclose(c[1], 0.0, atol=1e-9)
    assert r == pytest.approx(1.0, abs=1e-9)


def test_chebyshev_margin_detects_degenerate_slab():
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.array([1.0, -1.0, 1.0, 1.0])  # x == 1 slab
    P = HPolytope(A, b)
    assert not chebyshev_center(P)[1] > INTERIOR_TOL
    assert chebyshev_center(HPolytope.box([1.0, 1.0]))[1] > INTERIOR_TOL


def test_chebyshev_center_raises_when_lp_fails(monkeypatch):
    # The Chebyshev LP caps the radius, so it always has an optimum; a status
    # other than 0 is a solver failure, not evidence of an interior.
    lp = geometry._lp

    def failed(*args):
        return (4,) + lp(*args)[1:]

    monkeypatch.setattr(geometry, "_lp", failed)
    with pytest.raises(Unbounded):
        chebyshev_center(HPolytope.box([1.0, 1.0]))


# ---------------------------------------------------------------------------
# Property tests


@given(st.integers(2, 5), st.integers(0, 10 ** 6))
def test_random_ellipsoid_volume_consistency(d, seed):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(d, d))
    B = M @ M.T + np.eye(d)
    E = Ellipsoid(B, rng.normal(size=d))
    assert ellipsoid_volume(E) == pytest.approx(
        unit_ball_volume(d) * np.linalg.det(B), rel=1e-10)


@given(st.integers(0, 10 ** 6))
def test_halfspace_canonicalization_idempotent(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=3)
    if np.linalg.norm(a) < 1e-6:
        return
    P = HPolytope([a, 3.0 * a], [float(rng.normal()), 1.0])
    P2 = HPolytope(P.A.copy(), P.b.copy())
    assert np.array_equal(P.A, P2.A)
    assert np.array_equal(P.b, P2.b)
