import math

import numpy as np
import pytest

from quanthelly import (Ellipsoid, HPolytope, contact_points,
                        critical_subfamily, inscribed_ball_in_ellipsoid,
                        john_decomposition, mvie, normalize_to_john_position)
from quanthelly.errors import DecompositionInfeasible, NotInJohnPosition
from quanthelly.geometry import intersect_all
from quanthelly.instances import tangent_halfplane_family

from conftest import bounded_random_polytope


def test_square_decomposition_weights_are_half():
    square = HPolytope.box([1.0, 1.0])
    contacts = contact_points(square)
    assert len(contacts) == 4
    dec = john_decomposition([u for u, _ in contacts])
    assert np.allclose(np.sort(dec.weights), 0.5)
    assert dec.residual_balance <= 1e-10
    assert dec.residual_identity <= 1e-10
    assert dec.weight_sum == pytest.approx(2.0, abs=1e-10)


def test_equilateral_triangle_weights_two_thirds():
    # Unit-ball-inscribed equilateral triangle: tangent lines at three
    # equally spaced unit normals; John weights are d/m = 2/3 each.
    angles = [math.pi / 2, math.pi / 2 + 2 * math.pi / 3,
              math.pi / 2 + 4 * math.pi / 3]
    U = np.array([[math.cos(t), math.sin(t)] for t in angles])
    dec = john_decomposition(U)
    assert np.allclose(dec.weights, 2.0 / 3.0, atol=1e-10)
    assert dec.support_size == 3
    assert dec.weight_sum == pytest.approx(2.0, abs=1e-10)


def test_weight_sum_equals_dimension_in_3d():
    cube = HPolytope.box(np.ones(3))
    dec = john_decomposition([u for u, _ in contact_points(cube)])
    assert dec.weight_sum == pytest.approx(3.0, abs=1e-9)
    assert 4 <= dec.support_size <= 9


def test_decomposition_drops_redundant_contacts():
    # 8 tangent directions of the square plus diagonals at distance sqrt(2):
    # only the 4 axis contacts are needed; diagonal contacts are not touching
    # the ball at radius sqrt(2), so feed axis contacts duplicated instead.
    U = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0],
                  [1.0, 0.0]])
    dec = john_decomposition(U)
    assert dec.support_size <= 5
    assert dec.weight_sum == pytest.approx(2.0, abs=1e-9)
    assert dec.residual_identity <= 1e-10


def test_decomposition_needs_enough_points():
    with pytest.raises(DecompositionInfeasible):
        john_decomposition(np.array([[1.0, 0.0], [-1.0, 0.0]]))


def test_decomposition_rejects_nonunit_points():
    U = np.array([[2.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(DecompositionInfeasible):
        john_decomposition(U)


def test_one_sided_contacts_are_infeasible():
    # All normals in a half-space cannot balance to zero.
    angles = np.linspace(-0.4, 0.4, 5)
    U = np.column_stack([np.cos(angles), np.sin(angles)])
    with pytest.raises(DecompositionInfeasible):
        john_decomposition(U)


def test_normalize_to_john_position_roundtrip(rng):
    P = bounded_random_polytope(rng, 2)
    T, Q = normalize_to_john_position(P)
    out = mvie(Q)
    assert np.linalg.norm(out.ellipsoid.shape - np.eye(2)) < 1e-6
    assert np.linalg.norm(out.ellipsoid.center) < 1e-6
    contacts = contact_points(Q)
    assert len(contacts) >= 3


def test_contact_points_requires_john_position():
    with pytest.raises(NotInJohnPosition):
        contact_points(HPolytope.box([0.5, 0.5]))  # ball pokes out
    with pytest.raises(NotInJohnPosition):
        contact_points(HPolytope.box([1.0, 2.0]))  # too few touching


def test_critical_subfamily_tangent_halfplanes():
    family = tangent_halfplane_family(7, 12, 2)
    cert = critical_subfamily(family)
    assert len(cert.selected_indices) <= 5
    assert cert.volume_gap <= 1e-5
    assert cert.decomposition.weight_sum == pytest.approx(2.0, abs=1e-6)
    # the selected sub-intersection's MVIE really matches the global one
    P = intersect_all(family)
    sub = intersect_all([family[k] for k in cert.selected_indices])
    assert mvie(sub).volume == pytest.approx(mvie(P).volume, rel=1e-5)


def test_critical_subfamily_duplicate_members():
    square = HPolytope.box([1.0, 1.0])
    cert = critical_subfamily([square, square, square])
    assert len(cert.selected_indices) >= 1
    assert cert.volume_gap <= 1e-6


def test_critical_subfamily_maps_contact_rows_to_members():
    # Members of 4, 2 and 3 rows: the contacts are the rows |x| <= 1 of
    # member 1 and |y| <= 1 of member 2 (its rows 1 and 2, not its first).
    family = [HPolytope.box([5.0, 5.0]),
              HPolytope([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0]),
              HPolytope([[1.0, 1.0], [0.0, 1.0], [0.0, -1.0]],
                        [10.0, 1.0, 1.0])]
    cert = critical_subfamily(family)
    assert cert.selected_indices == (1, 2)
    assert cert.volume_gap <= 1e-6


def test_inscribed_ball_in_ellipsoid():
    E = Ellipsoid(np.diag([2.0, 0.5]), np.array([1.0, 1.0]))
    ball = inscribed_ball_in_ellipsoid(E, 0.5)
    assert ball is not None
    assert np.allclose(ball.center, E.center)
    assert inscribed_ball_in_ellipsoid(E, 0.6) is None
    with pytest.raises(ValueError):
        inscribed_ball_in_ellipsoid(E, 0.0)


def test_hellyklee_min_semiaxis_bound(rng):
    # In John position K is inside d * B^d, so an inscribed ellipsoid of
    # volume delta * omega_d has min semi-axis at least delta / d^(d-1).
    from quanthelly import lowest_ellipsoid, min_semiaxis, unit_ball_volume
    d = 2
    P = bounded_random_polytope(rng, d)
    _, Q = normalize_to_john_position(P)
    delta = 0.5
    out = lowest_ellipsoid(Q, delta * unit_ball_volume(d))
    assert min_semiaxis(out.ellipsoid) >= delta / d ** (d - 1) - 1e-9
