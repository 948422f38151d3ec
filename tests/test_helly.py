import functools
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
from quanthelly import geometry, helly, solvers
from quanthelly.errors import (HypothesisViolated, InstanceError,
                               MaxIterations, NoWitness, VolumeInfeasible)
from quanthelly.geometry import chebyshev_center
from quanthelly.helly import (selection_count, selection_intersection,
                              translate_margin)
from quanthelly.instances import GeneratorSpec, generate

from _oracles import (count_selections_oracle, enumerate_selections_oracle,
                      sample_ellipsoid_points)
from report_digests import NUMERIC_RTOL


def classes_of_boxes(*halfwidth_lists):
    """One class per argument; each argument is a list of (halfwidths, center)."""
    members = []
    for spec in halfwidth_lists:
        members.append(tuple(HPolytope.box(w, center=c) for w, c in spec))
    d = len(halfwidth_lists[0][0][0])
    return ColorClasses(d, tuple(members))


def uniform_classes(body, n):
    return ColorClasses(body.dim, ((body,),) * n)


@pytest.fixture
def start_lps(monkeypatch):
    """The polytopes of the start-point LPs the batch solvers run, in order."""
    lps = []

    def counting_center(P):
        lps.append(P)
        return chebyshev_center(P)

    monkeypatch.setattr(solvers, "chebyshev_center", counting_center)
    return lps


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
    for k in (4, 0, -1):
        with pytest.raises(InstanceError):
            list(colorful_selections(cc, k))
        with pytest.raises(InstanceError):
            verify_colorful_hypothesis(cc, k, 1.0)


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


def test_hypothesis_stops_at_first_failure(start_lps):
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
    start_lps.clear()
    rep = verify_colorful_hypothesis(cc, 2, 1.0)
    assert rep.failure == sels[j]
    assert rep.failure_reason.startswith("EmptyInterior")
    assert len(start_lps) == j + 1 < len(sels)


def test_hypothesis_numerical_failure_propagates():
    # Only an empty intersection is a violation; a solver that runs out of
    # Newton steps is a numerical failure, not a verdict on the selection.
    cc = classes_of_boxes([([1.0, 1.0], None)], [([1.0, 1.0], None)])
    with pytest.raises(MaxIterations):
        verify_colorful_hypothesis(cc, 2, 1.0, SolverSettings(max_iterations=1))


def split_member_classes():
    # five 4x4 squares and a class of two 4x4 squares shifted apart: each
    # selection holds a 3x4 box (MVIE volume 3 pi), the whole family only a
    # 2x4 box (2 pi)
    square = [([2.0, 2.0], None)]
    split = [([2.0, 2.0], [-1.0, 0.0]), ([2.0, 2.0], [1.0, 0.0])]
    return classes_of_boxes(*[square] * 5, split)


def box_copies(volume, n=6):
    """n classes of one square each, whose MVIE (a disc) has the volume."""
    w = math.sqrt(volume / math.pi)
    return uniform_classes(HPolytope.box([w, w]), n)


def _generated(*spec):
    inst = generate(GeneratorSpec(*spec))
    return inst.classes, inst.target_volume


# name -> (classes, target, k, whether the whole family's cover settles)
VERDICT_CORPUS = {
    "common-ball-1": lambda: (*_generated("common-ball", 1, 2, 6, 3), 4, True),
    "common-ball-2": lambda: (*_generated("common-ball", 2, 2, 6, 3), 4, True),
    "common-ball-3": lambda: (*_generated("common-ball", 3, 2, 6, 2), 4, True),
    "tie": lambda: (*_generated("common-ball", 1365155147, 2, 6, 3), 4,
                    True),
    "far-member-2": lambda: (far_member_classes(), math.pi, 2, False),
    # split_member_classes: every selection passes, the whole family's
    # cover does not settle
    "block-covers": lambda: (split_member_classes(), 8.0, 4, False),
    "far-member-3": lambda: (far_member_classes(), math.pi, 3, False),
    "adversarial": lambda: (*_generated("adversarial", 2, 2, 5, 2), 4, False),
    # below the threshold target (1 - 1e-6)(1 + 2e-6): the cover does not
    # settle, and the full check passes as within the slack of 1e-6
    "near-target": lambda: (box_copies(1.0 - 5e-7), 1.0, 4, False),
    "above-target": lambda: (box_copies(1.0 + 1e-5), 1.0, 4, True),
}


@pytest.mark.parametrize("name", sorted(VERDICT_CORPUS))
def test_theorem1_check_gives_the_full_checks_verdict(name):
    # theorem1's check passes when the whole family's cover settles and is
    # the full check otherwise, so it gives the full check's verdict as
    # long as a settled cover is sound: its ellipsoid lies in every member,
    # clears the target, and the full check passes.
    cc, target, k, settles = VERDICT_CORPUS[name]()
    settings = SolverSettings()
    whole = helly._whole_cover(cc, target, settings)
    assert (whole is not None) == settles
    if whole is not None:
        assert whole.objective >= solvers.settle_threshold(
            target, cc.dim, helly._inner(settings))
        assert all(ellipsoid_in_polytope(whole.ellipsoid, body, tol=0.0)
                   for members in cc.classes for body in members)
        assert verify_colorful_hypothesis(cc, k, target).passed


def test_theorem1_check_sweeps_every_selection_without_a_whole_cover(
        monkeypatch, start_lps):
    # The whole family's cover holds only a 2x4 box, below the target, so
    # theorem1's check solves the cover and then every 4-selection in full.
    class Checked(Exception):
        pass

    def after_the_check(*_):
        raise Checked

    monkeypatch.setattr(helly, "_highest_lowest", after_the_check)
    start_lps.clear()
    with pytest.raises(Checked):
        theorem1_pipeline(split_member_classes(), 8.0)
    assert len(start_lps) == 1 + 25


@pytest.mark.parametrize("name", ["squares", "long-or-square"])
def test_whole_cover_settles_what_the_full_check_cannot(name):
    # squares: each selection's MVIE takes more than 30 Newton steps, but
    # the whole family's cover, the one square, clears the target before
    # that.  long-or-square: a selection of the four 2000x2 boxes takes more
    # than 13 Newton steps, while the whole family's cover, the 2x2 square,
    # settles within them.  Either way theorem1's check passes where the
    # full check raises.
    if name == "squares":
        cc = uniform_classes(HPolytope.box([1.0, 1.0]), 6)
        target, settings = 0.95 * math.pi, SolverSettings(max_iterations=30)
    else:
        long_or_square = [([1000.0, 1.0], None), ([1.0, 1.0], None)]
        cc = classes_of_boxes(*[long_or_square] * 6)
        target, settings = 2.8, SolverSettings(max_iterations=13)
    with pytest.raises(MaxIterations):
        verify_colorful_hypothesis(cc, 4, target, settings)
    assert helly._whole_cover(cc, target, settings) is not None


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


def test_colell_exact_tie_goes_to_first_selection():
    # Two full selections of this instance reach the greatest height bit for
    # bit; the first of them in selection order defines the pipeline.
    inst = generate(GeneratorSpec("common-ball", 7, 2, 5, 2))
    rep = colell_pipeline(inst.classes, inst.target_volume)
    heights = rep.certificates["selection_heights"]
    tied = [sel for sel, h in zip(colorful_selections(inst.classes, 5),
                                  heights) if h == max(heights)]
    assert len(tied) >= 2
    assert rep.certificates["defining_selection"] == tied[0]
    assert rep.witness_class == 1


@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize("target", [0.0, -1.0])
def test_colell_rejects_nonpositive_target(target, check):
    cc = uniform_classes(HPolytope.box([2.0, 2.0]), 5)
    with pytest.raises(VolumeInfeasible) as exc:
        colell_pipeline(cc, target, check_hypothesis=check)
    assert type(exc.value) is VolumeInfeasible
    assert str(exc.value) == "target volume must be positive"


def test_each_full_selection_solved_once(start_lps):
    # One MVIE sweep of the full selections serves the hypothesis check (or
    # saxuso's worst volume) and starts the lowest ellipsoids, so each full
    # selection costs one start LP; each drop-one solve costs one more, and
    # saxuso's check sweeps the 2d-selections.
    inst = generate(GeneratorSpec("common-ball", 7, 2, 5, 2))
    cc = inst.classes
    full, half = selection_count(cc, 5), selection_count(cc, 4)
    want = {}
    for check in (True, False):
        start_lps.clear()
        rep = colell_pipeline(cc, inst.target_volume, check_hypothesis=check)
        gaps = len(rep.certificates["drop_one_gaps"])
        assert len(start_lps) == full + gaps
        want["colell", check] = len(start_lps)
        start_lps.clear()
        rep = saxuso_scenario(cc, check_hypothesis=check)
        gaps = len(rep.certificates["drop_one_gaps"])
        assert len(start_lps) == (half if check else 0) + full + gaps
        want["saxuso", check] = len(start_lps)
    assert want == {("colell", True): 10, ("colell", False): 10,
                    ("saxuso", True): 40, ("saxuso", False): 12}


# ---------------------------------------------------------------------------
# theorem1 pipeline


# name -> (classes, target) of theorem1's (2d-1)-selection stage
HIGHEST_CORPUS = {
    "common-ball-1": lambda: _generated("common-ball", 1, 2, 6, 3),
    "common-ball-2": lambda: _generated("common-ball", 2, 2, 6, 3),
    "common-ball-3": lambda: _generated("common-ball", 3, 2, 6, 3),
    "tie": lambda: _generated("common-ball", 1365155147, 2, 6, 3),
    # the whole family's cover does not settle, so no selection is pruned
    "near-target": lambda: (box_copies(1.0 - 5e-7), 1.0),
    "d3": lambda: _generated("common-ball", 3, 3, 9, 2),
    # the top block's lowest ellipsoid slides down inside every selection
    # of its block, so no selection's bound comes near that block's bound
    "slide": lambda: _generated("common-ball", 1574170570, 2, 6, 3),
}


@functools.cache
def _full_stage(name):
    """The corpus case's classes, target, k and the full stage's
    (selection, lowest outcome) pairs, each lifted from its MVIE."""
    cc, target = HIGHEST_CORPUS[name]()
    k = 2 * cc.dim - 1
    settings = SolverSettings()
    return cc, target, k, helly._lowest(helly._sweep(
        cc, colorful_selections(cc, k), settings), target, settings)


@functools.cache
def _cover_stage(name):
    """The full stage's (selection, lowest outcome) pairs of the corpus
    case, each lifted from the whole family's settled ellipsoid
    (``_whole_cover``), as the pruned stage lifts the selections it bounds
    by their heights; None where that cover does not settle."""
    cc, target, k, outs = _full_stage(name)
    settings = SolverSettings()
    whole = helly._whole_cover(cc, target, settings)
    if whole is None:
        return None
    sels = [sel for sel, _ in outs]
    return list(zip(sels, solvers.solved(solvers.lift_to_target(
        [selection_intersection(cc, sel) for sel in sels],
        ([whole] * len(sels), None), target, helly._inner(settings)))))


@pytest.fixture
def recorded_stage(monkeypatch):
    """A call that runs ``_highest_lowest`` and gives its pair, the
    selections it lifted from the whole family's settled ellipsoid and
    those it swept from their MVIEs, each in order: (pair, lifted, swept)."""
    built, swept = [], []
    intersection, sweep = helly.selection_intersection, helly._sweep

    def building(classes, sel):
        built.append(sel)
        return intersection(classes, sel)

    def sweeping(*args):
        out = sweep(*args)
        swept.extend(out[0])
        return out

    monkeypatch.setattr(helly, "selection_intersection", building)
    monkeypatch.setattr(helly, "_sweep", sweeping)

    def run(*args):
        built.clear()
        swept.clear()
        pair = helly._highest_lowest(*args)
        # the sweep, if any, builds its intersections last
        lifted = built[:len(built) - len(swept)]
        assert built[len(lifted):] == swept
        return pair, lifted, list(swept)
    return run


@pytest.mark.parametrize("name", sorted(HIGHEST_CORPUS))
def test_pruned_stage_gives_the_full_stages_pair_bitwise(recorded_stage,
                                                         name):
    # The pruned stage picks the MVIE-started full sweep's selection.  Its
    # ellipsoid is, bit for bit, that sweep's where it swept near-tied
    # selections from their MVIEs, and otherwise the selection's lift from
    # the whole family's settled ellipsoid.
    cc, target, k, outs = _full_stage(name)
    settings = SolverSettings()
    want_sel, want = helly._highest(outs)
    whole = helly._whole_cover(cc, target, settings)
    (sel, got), lifted, swept = recorded_stage(cc, k, target, settings, whole)
    assert sel == want_sel
    if not swept:
        want = dict(_cover_stage(name))[sel]
    for a, b in ((got.ellipsoid.shape, want.ellipsoid.shape),
                 (got.ellipsoid.center, want.ellipsoid.center)):
        assert a.tobytes() == b.tobytes()
    assert got.objective == want.objective
    assert len(set(lifted)) == len(lifted)
    assert len(set(swept)) == len(swept)
    if name == "near-target":
        assert whole is None and lifted == []
        assert swept == list(colorful_selections(cc, k))
        return
    assert whole is not None and set(swept) <= set(lifted)
    if name == "tie":
        # eight selections lie within 1e-12 of the greatest height, the
        # next 5.5e-3 below it
        near = [s for s, o in outs if o.objective >= want.objective - 1e-12]
        assert len(near) == 8 and set(near) <= set(swept)
    elif name == "slide":
        # a first round of the selections whose bound lies near the top
        # block's bound would be empty; the top heights are near ties
        blocks, bound = helly._height_bounds(cc, k, target, settings, whole)
        margin = helly._PRUNE_GAPS * helly._inner(settings).gap_target
        assert bound.max() < max(blocks.values()) - 2.0 * margin
    # the selections within the prune margin of the best height: eight near
    # ties on tie and slide, two heights 1.3e-6 apart on common-ball-1
    assert len(swept) == {"tie": 8, "slide": 8,
                          "common-ball-1": 2}.get(name, 0)
    if name.startswith("common-ball"):
        # the selection bounds prune at least what their blocks' bounds
        # would; on seed 3 only the top block is left, and each of its six
        # selections has a bound within 4e-5 of the best height
        blocks, _ = helly._height_bounds(cc, k, target, settings, whole)
        margin = helly._PRUNE_GAPS * helly._inner(settings).gap_target
        unpruned = [s for s, _ in outs
                    if blocks[s.class_indices()] + margin >= want.objective]
        assert len(unpruned) < selection_count(cc, k)
        assert len(lifted) < len(unpruned) or name == "common-ball-3"
        assert len(lifted) <= len(unpruned)


@pytest.mark.parametrize("name", sorted(set(HIGHEST_CORPUS) - {"near-target"}))
def test_cover_started_lifts_agree_with_the_mvie_started_ones(name):
    # Lifted from the whole family's settled ellipsoid, every selection's
    # lowest ellipsoid and height agree with its MVIE-started lift within
    # the numeric report tolerance, relative to max(1, |x|), and the
    # selections whose height lies within the pruning margin of the
    # highest, those the stage sweeps from their MVIEs, hold the full
    # sweep's pick.  The cover-started heights pick that selection
    # themselves except on ``tie`` and ``slide``, where the lowest
    # ellipsoids of several selections rest on the same members: their
    # heights, equal within 1e-12, order differently in the last bits.
    cc, target, k, outs = _full_stage(name)
    want_sel, want = helly._highest(outs)
    lifts = _cover_stage(name)
    for (sel, a), (_, b) in zip(lifts, outs):
        for x, y in ((a.ellipsoid.shape, b.ellipsoid.shape),
                     (a.ellipsoid.center, b.ellipsoid.center),
                     (a.objective, b.objective)):
            assert np.all(np.abs(np.subtract(x, y))
                          <= NUMERIC_RTOL * np.maximum(1.0, np.abs(y)))
    margin = helly._PRUNE_GAPS * helly._inner(SolverSettings()).gap_target
    best = max(out.objective for _, out in lifts)
    assert want_sel in [sel for sel, out in lifts
                        if out.objective + margin >= best]
    near_ties = name in ("tie", "slide")
    assert (helly._highest(lifts)[0] == want_sel) != near_ties
    assert abs(helly._highest(lifts)[1].objective - want.objective) < 1e-12


@pytest.mark.parametrize("name", ["common-ball-1", "common-ball-2",
                                  "common-ball-3", "d3", "slide"])
def test_selection_bounds_hold_the_full_stages_heights(name):
    cc, target, k, outs = _full_stage(name)
    settings = SolverSettings()
    whole = helly._whole_cover(cc, target, settings)
    blocks, bound = helly._height_bounds(cc, k, target, settings, whole)
    margin = helly._PRUNE_GAPS * helly._inner(settings).gap_target
    assert len(bound) == len(outs)
    assert np.isfinite(list(blocks.values())).all()
    # the heights lifted from each selection's MVIE and from the settled
    # ellipsoid
    for stage in (outs, _cover_stage(name)):
        for (sel, out), b in zip(stage, bound):
            assert out.objective <= b + margin
            assert b <= blocks[sel.class_indices()]


def test_a_settled_whole_cover_is_reused_without_cover_solves(
        monkeypatch, recorded_stage):
    # With the whole family's cover settled, the (2d-1) stage lifts every
    # block cover and every selection it has not pruned from that cover's
    # ellipsoid; with no near ties left to sweep, it runs no LP and no MVIE.
    cc, target = HIGHEST_CORPUS["common-ball-2"]()
    settings = SolverSettings()
    whole = helly._whole_cover(cc, target, settings)
    assert whole is not None
    lps, mvies = [], []
    lp, batch = geometry._lp, helly.mvie_batch

    def counting_lp(*args):
        lps.append(args)
        return lp(*args)

    def recording_batch(polytopes, *args):
        mvies.extend(polytopes)
        return batch(polytopes, *args)

    monkeypatch.setattr(geometry, "_lp", counting_lp)
    monkeypatch.setattr(helly, "mvie_batch", recording_batch)
    (sel, out), lifted, swept = recorded_stage(cc, 3, target, settings,
                                               whole)
    assert len(lifted) > 0 and swept == lps == mvies == []
    monkeypatch.undo()
    # the full sweep picks the same selection, and lifted from the same
    # ellipsoid it gives the same outcome
    sel_b, out_b = helly._highest_lowest(cc, 3, target, settings, None)
    assert sel == sel_b
    assert out.ellipsoid.center.tobytes() == \
        dict(_cover_stage("common-ball-2"))[sel].ellipsoid.center.tobytes()
    checked, unchecked = (
        theorem1_pipeline(cc, target, check_hypothesis=check).to_dict()
        for check in (True, False))
    checked.pop("wall_time")
    unchecked.pop("wall_time")
    assert checked == unchecked


def test_a_failed_block_lift_hands_the_stage_to_the_full_sweep(
        monkeypatch, recorded_stage):
    # With an error in the block stack's lifts no selection is bounded, so
    # the stage lifts nothing from the settled ellipsoid and is the
    # MVIE-started full sweep, bit for bit, although common-ball-2 has no
    # near ties to sweep.
    cc, target, k, outs = _full_stage("common-ball-2")
    settings = SolverSettings()
    whole = helly._whole_cover(cc, target, settings)
    assert whole is not None
    lift, sizes = helly.lift_to_target, []

    def failing_first_lift(polytopes, *args):
        sizes.append(len(polytopes))
        outcomes, error = lift(polytopes, *args)
        if len(sizes) == 1:
            return outcomes[:1], MaxIterations("injected")
        return outcomes, error

    monkeypatch.setattr(helly, "lift_to_target", failing_first_lift)
    (sel, got), lifted, swept = recorded_stage(cc, k, target, settings,
                                               whole)
    assert sizes[0] == len(helly._class_blocks(cc, k))
    want_sel, want = helly._highest(outs)
    assert sel == want_sel
    for a, b in ((got.ellipsoid.shape, want.ellipsoid.shape),
                 (got.ellipsoid.center, want.ellipsoid.center)):
        assert a.tobytes() == b.tobytes()
    assert got.objective == want.objective
    assert lifted == [] and swept == [s for s, _ in outs]


def test_a_loose_gap_target_settles_no_cover(monkeypatch):
    # Above a gap target of 1e-7 the settle headroom does not cover a
    # solve's gap, so there is no threshold and no settled cover: theorem1
    # checks every 2d-selection and sweeps every (2d-1)-selection in full.
    cc, target = HIGHEST_CORPUS["common-ball-2"]()
    settings = SolverSettings(gap_target=1e-6)
    assert solvers.settle_threshold(target, cc.dim,
                                    helly._inner(settings)) is None
    assert helly._whole_cover(cc, target, settings) is None
    swept, sweep = [], helly._sweep

    def sweeping(*args):
        out = sweep(*args)
        swept.append(out[0])
        return out

    monkeypatch.setattr(helly, "_sweep", sweeping)
    theorem1_pipeline(cc, target, settings)
    # the 4-selection check, the 3-selection stage and the (d+2) sweep
    assert len(swept) == 3
    assert swept[:2] == [list(colorful_selections(cc, 4)),
                         list(colorful_selections(cc, 3))]


def test_pruned_stage_skips_a_block_whose_lifts_run_out():
    # The three low classes' block holds 400x2 boxes, whose solves take
    # more than 55 Newton steps.  Its cover, the 2x2
    # square, bounds their heights below the high classes' best, so the
    # block is pruned and the stage returns where the full sweep raises.
    high = [([1.0, 1.0], [0.0, 1.0])]
    low = [([200.0, 1.0], None), ([1.0, 1.0], None)]
    cc = classes_of_boxes(high, high, high, low, low, low)
    settings = SolverSettings(max_iterations=55)
    with pytest.raises(MaxIterations):
        helly._lowest(helly._sweep(cc, colorful_selections(cc, 3), settings),
                      1.0, settings)
    whole = helly._whole_cover(cc, 1.0, settings)
    sel, _ = helly._highest_lowest(cc, 3, 1.0, settings, whole)
    assert sel == helly._highest_lowest(cc, 3, 1.0, SolverSettings(), None)[0]


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
    # theorem1 names the full check's first failing selection
    square = classes_of_boxes(
        [([2.0, 2.0], None)], [([2.0, 2.0], None)], [([2.0, 2.0], None)],
        [([2.0, 2.0], None)], [([2.0, 2.0], None)],
        [([0.3, 0.3], [1.7, 1.7])])
    for cc, target in ((square, math.pi),
                       _generated("adversarial", 1, 2, 6, 2)):
        with pytest.raises(HypothesisViolated) as exc:
            theorem1_pipeline(cc, target)
        want = verify_colorful_hypothesis(cc, 4, target).failure
        assert want is not None and exc.value.failure == want


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


def test_saxuso_sweep_failure_propagates():
    # Five Newton steps solve no selection: the sweep's MaxIterations is
    # raised, not read as a volume.
    inst = generate(GeneratorSpec("common-ball", 1, 2, 5, 1))
    with pytest.raises(MaxIterations):
        saxuso_scenario(inst.classes, SolverSettings(max_iterations=5),
                        check_hypothesis=False)


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
