import math

import numpy as np
import pytest

from quanthelly import (ColorClasses, ColorfulSelection, Ellipsoid, HPolytope,
                        SolverSettings, colell_pipeline,
                        colorful_helly_witness, colorful_selections,
                        contains_translate, ellipsoid_in_polytope,
                        lowest_ellipsoid, minkowski_difference, mvie,
                        saxuso_scenario, theorem1_pipeline,
                        verify_colorful_hypothesis)
from quanthelly import solvers
from quanthelly.errors import (HypothesisViolated, InstanceError,
                               MaxIterations, NoWitness)
from quanthelly.geometry import chebyshev_center
from quanthelly.helly import (selection_count, selection_intersection,
                              translate_margin)
from quanthelly.instances import GeneratorSpec, generate

from _oracles import (count_selections_oracle, enumerate_selections_oracle,
                      sample_ellipsoid_points)


def classes_of_boxes(*halfwidth_lists):
    """One class per argument; each argument is a list of (halfwidths, center)."""
    members = []
    for spec in halfwidth_lists:
        members.append(tuple(HPolytope.box(w, center=c) for w, c in spec))
    d = len(halfwidth_lists[0][0][0])
    return ColorClasses(d, tuple(members))


def uniform_classes(body, n):
    return ColorClasses(body.dim, ((body,),) * n)


# ---------------------------------------------------------------------------
# Selection enumeration


def test_selection_enumeration_matches_oracle():
    cc = classes_of_boxes(
        [([1.0, 1.0], None)],
        [([1.0, 1.0], None), ([2.0, 2.0], None)],
        [([1.0, 1.0], None)],
        [([1.0, 1.0], None), ([2.0, 2.0], None), ([3.0, 3.0], None)])
    for k in (1, 2, 3, 4):
        got = [s.picks for s in colorful_selections(cc, k)]
        want = enumerate_selections_oracle(cc.sizes(), k)
        assert got == want
        assert selection_count(cc, k) == count_selections_oracle(cc.sizes(), k)


def test_selection_count_six_classes_one_double():
    # sizes (1,1,1,1,1,2), k=4: C(5,4)*1 + C(5,3)*2 = 25
    sizes = (1, 1, 1, 1, 1, 2)
    cc = ColorClasses(2, tuple(
        tuple(HPolytope.box([1.0, 1.0]) for _ in range(s)) for s in sizes))
    assert selection_count(cc, 4) == 25
    assert len(list(colorful_selections(cc, 4))) == 25
    assert count_selections_oracle(sizes, 4) == 25


def test_selection_requires_increasing_classes():
    with pytest.raises(InstanceError):
        ColorfulSelection(((1, 0), (1, 1)))
    with pytest.raises(InstanceError):
        ColorfulSelection(((2, 0), (1, 0)))


def test_selection_oversized_k_rejected():
    cc = uniform_classes(HPolytope.box([1.0, 1.0]), 3)
    with pytest.raises(InstanceError):
        list(colorful_selections(cc, 4))


def test_selection_intersection_stacks_rows():
    cc = classes_of_boxes([([1.0, 1.0], None)], [([2.0, 2.0], None)])
    sel = ColorfulSelection(((0, 0), (1, 0)))
    P = selection_intersection(cc, sel)
    assert np.array_equal(P.A[:4], cc.body(0, 0).A)
    assert np.array_equal(P.b[:4], cc.body(0, 0).b)
    assert np.array_equal(P.A[4:], cc.body(1, 0).A)
    assert np.array_equal(P.b[4:], cc.body(1, 0).b)


# ---------------------------------------------------------------------------
# Minkowski difference and translates


def test_minkowski_box_minus_disk():
    P = HPolytope.box([2.0, 2.0])
    D = minkowski_difference(P, Ellipsoid.unit_ball(2))
    assert np.allclose(D.b, 1.0)
    assert np.array_equal(D.A, P.A)


def test_minkowski_box_minus_box():
    P = HPolytope.box([2.0, 2.0])
    L = HPolytope.box([0.5, 1.5])
    D = minkowski_difference(P, L)
    assert np.allclose(D.b, [1.5, 0.5, 1.5, 0.5])


def test_minkowski_minus_point_is_translation():
    P = HPolytope.box([1.0, 1.0])
    p = np.array([0.25, -0.5])
    point = HPolytope(
        np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
        np.array([p[0], -p[0], p[1], -p[1]]))
    D = minkowski_difference(P, point)
    assert np.allclose(D.b, P.b - P.A @ p, atol=1e-12)


def test_contains_translate_and_margin(rng):
    P = HPolytope.box([2.0, 1.0])
    ball = Ellipsoid.ball(np.array([5.0, 5.0]), 0.8)  # off-center L is fine
    t = contains_translate(P, ball)
    assert t is not None
    pts = sample_ellipsoid_points(rng, ball.shape, ball.center, 500,
                                  surface=True) + t
    assert np.all(P.contains_points(pts, tol=1e-8))
    big = Ellipsoid.ball(np.zeros(2), 1.2)
    assert contains_translate(P, big) is None
    _, margin = translate_margin(P, big)
    assert margin < 0


# ---------------------------------------------------------------------------
# Hypothesis verification


def test_hypothesis_passes_with_common_ball():
    inst = generate(GeneratorSpec("common-ball", 11, 2, 5, 2,
                                  target_volume=1.0))
    rep = verify_colorful_hypothesis(inst.classes, 4, 1.0)
    assert rep.passed
    assert rep.min_volume >= 1.0 - 1e-6
    assert rep.selections_checked == selection_count(inst.classes, 4)


def far_member_classes():
    # class 2's second member sits far from the common core
    return classes_of_boxes(
        [([2.0, 2.0], None)],
        [([2.0, 2.0], None)],
        [([2.0, 2.0], None), ([0.2, 0.2], [1.8, 1.8])])


def test_hypothesis_fails_and_identifies_selection():
    rep = verify_colorful_hypothesis(far_member_classes(), 3, math.pi)
    assert not rep.passed
    assert (2, 1) in rep.failure.picks


def test_hypothesis_stops_at_first_failure(monkeypatch):
    # (a) The report names the first failing selection in lexicographic
    # order, with the minimum over the selections before it; these are the
    # fields of a selection-by-selection check that stops at the failure.
    want = {
        2: {"passed": False, "selections_checked": 5,
            "min_volume": 0.12566369860376986,
            "min_selection": [[0, 0], [2, 1]],
            "failure": [[0, 0], [2, 1]],
            "failure_reason": "ellipsoid volume 0.125663698604 below target "
                              "3.14159265359"},
        3: {"passed": False, "selections_checked": 2,
            "min_volume": 0.125663705138282,
            "min_selection": [[0, 0], [1, 0], [2, 1]],
            "failure": [[0, 0], [1, 0], [2, 1]],
            "failure_reason": "ellipsoid volume 0.125663705138 below target "
                              "3.14159265359"},
    }
    for k, fields in want.items():
        rep = verify_colorful_hypothesis(far_member_classes(), k, math.pi)
        assert rep.to_dict() == fields

    # (b) No start LP runs after the first empty intersection.
    cc = classes_of_boxes(
        [([2.0, 2.0], None)],
        [([2.0, 2.0], None), ([0.5, 0.5], [8.5, 8.5])],
        [([2.0, 2.0], None)])
    sels = list(colorful_selections(cc, 2))
    j = sels.index(ColorfulSelection(((0, 0), (1, 1))))
    lps = []

    def counting_center(P):
        lps.append(P)
        return chebyshev_center(P)

    monkeypatch.setattr(solvers, "chebyshev_center", counting_center)
    rep = verify_colorful_hypothesis(cc, 2, 1.0)
    assert rep.failure == sels[j]
    assert rep.failure_reason.startswith("EmptyInterior")
    assert len(lps) == j + 1 < len(sels)


def test_hypothesis_numerical_failure_propagates():
    # Only an empty intersection is a violation; a solver that runs out of
    # Newton steps is a numerical failure, not a verdict on the selection.
    cc = classes_of_boxes([([1.0, 1.0], None)], [([1.0, 1.0], None)])
    with pytest.raises(MaxIterations):
        verify_colorful_hypothesis(cc, 2, 1.0, SolverSettings(max_iterations=1))


def test_hypothesis_k1_singletons_reduces_to_per_body_mvie():
    cc = classes_of_boxes([([1.0, 1.0], None)], [([0.5, 0.5], None)])
    assert verify_colorful_hypothesis(cc, 1, 0.7).passed
    rep = verify_colorful_hypothesis(cc, 1, 1.0)
    assert not rep.passed
    assert rep.failure.picks == ((1, 0),)


# ---------------------------------------------------------------------------
# Colorful Helly witness


def test_witness_first_class_for_identical_boxes():
    cc = uniform_classes(HPolytope.box([2.0, 2.0]), 3)
    j, t = colorful_helly_witness(cc, Ellipsoid.unit_ball(2))
    assert j == 0
    assert np.linalg.norm(t) < 1e-6


def test_witness_only_third_class_works():
    thin_pair = [([2.0, 0.3], [0.0, 1.0]), ([2.0, 0.3], [0.0, -1.0])]
    cc = classes_of_boxes(thin_pair, thin_pair, [([3.0, 3.0], None)])
    j, t = colorful_helly_witness(cc, Ellipsoid.unit_ball(2))
    assert j == 2
    full = selection_intersection(cc, ColorfulSelection(((2, 0),)))
    assert contains_translate(full, Ellipsoid.unit_ball(2)) is not None


def test_witness_none_raises_with_margins():
    thin_pair = [([2.0, 0.3], [0.0, 1.0]), ([2.0, 0.3], [0.0, -1.0])]
    cc = classes_of_boxes(thin_pair, thin_pair, thin_pair)
    with pytest.raises(NoWitness) as exc:
        colorful_helly_witness(cc, Ellipsoid.unit_ball(2))
    assert len(exc.value.margins) == 3
    assert all(m < 0 for m in exc.value.margins)


def test_witness_needs_d_plus_one_classes():
    cc = uniform_classes(HPolytope.box([2.0, 2.0]), 4)
    with pytest.raises(InstanceError):
        colorful_helly_witness(cc, Ellipsoid.unit_ball(2))


# ---------------------------------------------------------------------------
# colell pipeline


def test_colell_identical_box_classes():
    cc = uniform_classes(HPolytope.box([2.0, 2.0]), 5)
    rep = colell_pipeline(cc, math.pi)
    E = rep.witness_ellipsoid
    assert np.allclose(E.shape, np.diag([2.0, 0.5]), atol=1e-5)
    assert np.allclose(E.center, [0.0, -1.5], atol=1e-5)
    assert rep.witness_volume == pytest.approx(math.pi, rel=1e-6)
    for body in cc.classes[rep.witness_class]:
        assert ellipsoid_in_polytope(E, body, tol=1e-6)


def test_colell_nested_squares():
    sides = [2.0, 1.8, 1.6, 1.4, 1.2]
    cc = classes_of_boxes(*[[([s, s], None)] for s in sides])
    rep = colell_pipeline(cc, math.pi)
    # The witness ellipsoid is the smallest square's lowest ellipsoid and must
    # lie inside every member of the witness class.
    smallest = HPolytope.box([1.2, 1.2])
    direct = lowest_ellipsoid(smallest, math.pi)
    assert np.allclose(rep.witness_ellipsoid.shape, direct.ellipsoid.shape,
                       atol=1e-5)
    assert np.allclose(rep.witness_ellipsoid.center, direct.ellipsoid.center,
                       atol=1e-5)
    for body in cc.classes[rep.witness_class]:
        assert ellipsoid_in_polytope(rep.witness_ellipsoid, body, tol=1e-6)
    assert min(rep.certificates["drop_one_gaps"]) <= 1e-5


def test_colell_detects_hypothesis_violation():
    bad = classes_of_boxes(
        [([2.0, 2.0], None)], [([2.0, 2.0], None)], [([2.0, 2.0], None)],
        [([2.0, 2.0], None)], [([0.3, 0.3], [1.7, 1.7])])
    with pytest.raises(HypothesisViolated):
        colell_pipeline(bad, math.pi)


def test_colell_extremality_of_e_max():
    inst = generate(GeneratorSpec("common-ball", 5, 2, 5, 2))
    rep = colell_pipeline(inst.classes, 1.0)
    h_max = rep.certificates["e_max_height"]
    for h in rep.certificates["selection_heights"]:
        assert h <= h_max + 1e-7


def test_colell_needs_right_class_count():
    cc = uniform_classes(HPolytope.box([2.0, 2.0]), 4)
    with pytest.raises(InstanceError):
        colell_pipeline(cc, math.pi)


def test_step3_standalone_on_generated_instance():
    # Lemma-style property: dropping some class from the defining selection
    # preserves the lowest ellipsoid.
    inst = generate(GeneratorSpec("common-ball", 17, 2, 5, 1))
    rep = colell_pipeline(inst.classes, 1.0)
    gaps = rep.certificates["drop_one_gaps"]
    assert min(gaps) <= 1e-5


def test_colell_thread_determinism():
    # Sweeps are serial; two runs must give the same report apart from
    # wall_time (criterion 10 checks the CLI's --threads byte-for-byte).
    inst = generate(GeneratorSpec("common-ball", 23, 2, 5, 2))
    d1 = colell_pipeline(inst.classes, 1.0).to_dict()
    d2 = colell_pipeline(inst.classes, 1.0).to_dict()
    d1.pop("wall_time")
    d2.pop("wall_time")
    assert d1 == d2


# ---------------------------------------------------------------------------
# theorem1 pipeline


def test_theorem1_identical_squares():
    cc = uniform_classes(HPolytope.box([1.0, 1.0]), 6)
    rep = theorem1_pipeline(cc, math.pi)
    assert rep.certificates["cut_mvie_gap"] <= 1e-5
    assert rep.certificates["common_radius"] == pytest.approx(1.0, abs=1e-5)
    assert rep.witness_volume == pytest.approx(math.pi, rel=1e-4)
    for body in cc.classes[rep.witness_class]:
        assert ellipsoid_in_polytope(rep.witness_ellipsoid, body, tol=1e-6)


def test_theorem1_identical_boxes():
    cc = uniform_classes(HPolytope.box([2.0, 2.0]), 6)
    rep = theorem1_pipeline(cc, math.pi)
    e_star = rep.certificates["e_star"]
    assert np.allclose(e_star.shape, np.diag([2.0, 0.5]), atol=1e-4)
    assert np.allclose(e_star.center, [0.0, -1.5], atol=1e-4)
    assert rep.certificates["common_radius"] > 0
    for body in cc.classes[rep.witness_class]:
        assert ellipsoid_in_polytope(rep.witness_ellipsoid, body, tol=1e-6)


def test_theorem1_random_instance_with_rotated_e_star():
    # Random instances exercise the Householder step of the normalization
    # (the highest lowest-ellipsoid is generically not axis-aligned).
    inst = generate(GeneratorSpec("common-ball", 101, 2, 6, 2))
    rep = theorem1_pipeline(inst.classes, 1.0)
    assert rep.certificates["cut_mvie_gap"] <= 1e-5
    assert rep.witness_volume > 0
    for body in inst.classes.classes[rep.witness_class]:
        assert ellipsoid_in_polytope(rep.witness_ellipsoid, body, tol=1e-6)


def test_theorem1_detects_hypothesis_violation():
    bad = classes_of_boxes(
        [([2.0, 2.0], None)], [([2.0, 2.0], None)], [([2.0, 2.0], None)],
        [([2.0, 2.0], None)], [([2.0, 2.0], None)],
        [([0.3, 0.3], [1.7, 1.7])])
    with pytest.raises(HypothesisViolated):
        theorem1_pipeline(bad, math.pi)


def test_theorem1_needs_3d_classes():
    cc = uniform_classes(HPolytope.box([2.0, 2.0]), 5)
    with pytest.raises(InstanceError):
        theorem1_pipeline(cc, math.pi)


# ---------------------------------------------------------------------------
# saxuso scenario


def test_saxuso_singleton_classes():
    cc = uniform_classes(HPolytope.box([1.5, 1.5]), 5)
    rep = saxuso_scenario(cc)
    v = rep.certificates["worst_selection_volume"]
    assert v == pytest.approx(mvie(HPolytope.box([1.5, 1.5])).volume, rel=1e-6)
    assert rep.witness_volume == pytest.approx(v, rel=1e-6)
    for body in cc.classes[rep.witness_class]:
        assert ellipsoid_in_polytope(rep.witness_ellipsoid, body, tol=1e-6)


def test_saxuso_common_ball_instance():
    inst = generate(GeneratorSpec("common-ball", 31, 2, 5, 1))
    rep = saxuso_scenario(inst.classes)
    assert rep.certificates["worst_selection_volume"] >= 1.0 - 1e-6
    assert rep.witness_volume > 0


def test_saxuso_violated_hypothesis():
    bad = classes_of_boxes(
        [([0.1, 0.1], None)], [([2.0, 2.0], None)], [([2.0, 2.0], None)],
        [([2.0, 2.0], None)], [([2.0, 2.0], None)])
    with pytest.raises(HypothesisViolated):
        saxuso_scenario(bad)


def test_saxuso_skip_hypothesis_check():
    bad = classes_of_boxes(
        [([0.1, 0.1], None)], [([2.0, 2.0], None)], [([2.0, 2.0], None)],
        [([2.0, 2.0], None)], [([2.0, 2.0], None)])
    rep = saxuso_scenario(bad, check_hypothesis=False)
    assert rep.certificates["hypothesis_min_volume"] is None
    v = rep.certificates["worst_selection_volume"]
    assert v == pytest.approx(mvie(HPolytope.box([0.1, 0.1])).volume,
                              rel=1e-6)
    for body in bad.classes[rep.witness_class]:
        assert ellipsoid_in_polytope(rep.witness_ellipsoid, body, tol=1e-6)
