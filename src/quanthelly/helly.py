"""Colorful selection combinatorics, Minkowski differences, hypothesis
verification, and the constructive theorem pipelines.

Every pipeline stage that visits colorful selections runs the one sweep
``_sweep``, three aligned values: the selections it is given, in
lexicographic order, their intersections, and the (outcomes, error) batch of
one ``mvie_batch`` over them, the shape ``lift_to_target`` takes and
returns.  ``mvie_batch`` runs the start-point LPs in selection order up to
the first that fails and solves the rest as stacked Newton problems, so each
outcome is bitwise the one a lone solve gives and the first failure in
selection order is the one raised (``solved``).  The hypothesis check reads
the MVIEs; ``colell``, ``saxuso`` and theorem1's (2d-1)-selection stage lift
them to lowest ellipsoids (``_lowest``) and read each one's height from the
lift, which stores it as the outcome's objective.  When several lowest
ellipsoids reach the greatest height exactly, the first selection in order
defines the pipeline, so a report depends only on the instance and settings.

theorem1 reads only a verdict and an argmax from its sweeps, so it solves
the whole family's cover first (``_whole_cover``).  When that settles, it
passes the hypothesis check and starts every lift of the (2d-1)-selection
stage, which bounds and prunes the selections (``_height_bounds``,
``_highest_lowest``).  Otherwise both stages are full sweeps, and the
(2d-1) stage is one too when any lift from the cover fails.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import time
from typing import Optional, Union

import numpy as np

from .errors import (DimensionMismatch, EmptyInterior, HypothesisViolated,
                     InstanceError, NormalizationFailed, NoWitness,
                     Step3Failed, Unbounded, WitnessContainmentFailed)
from .geometry import (AGREEMENT_TOL, INTERIOR_TOL, AffineMap, Ellipsoid,
                       HPolytope, _bounded_margin, _lp, chebyshev_center,
                       ellipsoid_gap, ellipsoid_in_polytope, ellipsoid_volume,
                       intersect_all, min_semiaxis, polytope_slacks,
                       transform_ellipsoid, transform_polytope)
from .solvers import (DEFAULT_SETTINGS, SolveOutcome, SolverSettings,
                      lift_to_target, mvie_batch, reaches_target,
                      settle_threshold, single_outcome, slice_below, solved)

# Safety shrink applied to the computed common radius before the translate
# search, absorbing solver noise in the feasibility LPs.
_RADIUS_SHRINK = 1e-6
# A (2d-1)-selection of theorem1 is pruned when its height bound, or its
# height lifted from the whole family's settled ellipsoid, plus this many
# height-gap targets lies below a computed height.  A lift ends centered at
# a height gap of (m+1)/t of at most its gap target, and its final iterate
# is feasible, so a selection's computed height exceeds its lowest height,
# at most its bound, by at most about one gap target from any start;
# twenty leave room for the last Newton decrement and for rounding.  The
# margin is absolute, like the other height tolerances.
_PRUNE_GAPS = 20.0
# A selection's height bound slides its block's lowest ellipsoid this
# fraction short of the first wall it meets, so that rounding leaves every
# slack of the translate nonnegative.
_SLIDE_SHORT = 1e-9


@dataclasses.dataclass(frozen=True)
class ColorClasses:
    """Indexed finite families of bounded full-dimensional H-polytopes."""

    dim: int
    classes: tuple

    def __post_init__(self):
        classes = tuple(tuple(members) for members in self.classes)
        if not classes:
            raise InstanceError("at least one color class is required")
        for ci, members in enumerate(classes):
            if not members:
                raise InstanceError(f"class {ci} is empty")
            for mi, body in enumerate(members):
                if body.dim != self.dim:
                    raise InstanceError(
                        f"class {ci} member {mi} has dimension {body.dim}, "
                        f"expected {self.dim}")
        object.__setattr__(self, "classes", classes)

    @classmethod
    def validated(cls, dim, classes) -> "ColorClasses":
        """Construct and check every member is bounded with nonempty interior
        (Chebyshev margin above INTERIOR_TOL).  Both come from one Chebyshev
        LP per member when its duals certify boundedness, and from that LP
        and the 2d recession-cone LPs otherwise (``_bounded_margin``).  An
        unbounded member is reported before an empty interior; an LP that
        does not solve on a bounded member raises Unbounded."""
        obj = cls(dim, classes)
        for ci, members in enumerate(obj.classes):
            for mi, body in enumerate(members):
                bounded, _, margin = _bounded_margin(body)
                if not bounded:
                    raise InstanceError(
                        f"class {ci} member {mi} is unbounded")
                if not margin > INTERIOR_TOL:
                    raise InstanceError(
                        f"class {ci} member {mi} has empty interior")
        return obj

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def sizes(self) -> tuple:
        return tuple(len(m) for m in self.classes)

    def body(self, ci: int, mi: int) -> HPolytope:
        return self.classes[ci][mi]


@dataclasses.dataclass(frozen=True)
class ColorfulSelection:
    """One member from each of k distinct classes, class indices increasing."""

    picks: tuple  # ((class index, member index), ...)

    def __post_init__(self):
        picks = tuple((int(c), int(m)) for c, m in self.picks)
        cs = [c for c, _ in picks]
        if any(b <= a for a, b in zip(cs, cs[1:])):
            raise InstanceError("class indices must be strictly increasing")
        object.__setattr__(self, "picks", picks)

    def class_indices(self) -> tuple:
        return tuple(c for c, _ in self.picks)


@dataclasses.dataclass(frozen=True)
class PipelineReport:
    witness_class: int
    witness_ellipsoid: Ellipsoid
    witness_volume: float
    normalization: Optional[AffineMap]
    certificates: dict
    wall_time: float

    def to_dict(self) -> dict:
        return _plain({k: v for k, v in vars(self).items() if v is not None})


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Ellipsoid):
        return {"shape": obj.shape.tolist(), "center": obj.center.tolist()}
    if isinstance(obj, AffineMap):
        return {"linear": obj.linear.tolist(), "shift": obj.shift.tolist()}
    if isinstance(obj, ColorfulSelection):
        return [list(p) for p in obj.picks]
    return obj


# ---------------------------------------------------------------------------
# Selection enumeration


def colorful_selections(classes: ColorClasses, k: int):
    """All choices of k classes and one member per chosen class, lexicographic.
    Raises InstanceError unless 1 <= k <= the number of classes."""
    n = classes.n_classes
    if not 1 <= k <= n:
        raise InstanceError(f"cannot select {k} classes out of {n}")
    sizes = classes.sizes()
    for subset in itertools.combinations(range(n), k):
        for members in itertools.product(*(range(sizes[c]) for c in subset)):
            yield ColorfulSelection(tuple(zip(subset, members)))


def selection_count(classes: ColorClasses, k: int) -> int:
    sizes = classes.sizes()
    total = 0
    for subset in itertools.combinations(range(classes.n_classes), k):
        prod = 1
        for c in subset:
            prod *= sizes[c]
        total += prod
    return total


def selection_intersection(classes: ColorClasses,
                           sel: ColorfulSelection) -> HPolytope:
    return intersect_all([classes.body(ci, mi) for ci, mi in sel.picks])


def _sweep(classes: ColorClasses, selections, settings: SolverSettings):
    """The MVIE sweep of some colorful selections, the one sweep every
    pipeline stage runs.  Returns (selections, intersections, batch): the
    selections as a list, in the order given, their intersections, and the
    (outcomes, error) that one ``mvie_batch`` at ``_inner`` settings returns
    for the intersections.  The outcomes belong to the first
    ``len(outcomes)`` selections; the error, if any, to the next one."""
    sels = list(selections)
    polytopes = [selection_intersection(classes, sel) for sel in sels]
    return sels, polytopes, mvie_batch(polytopes, _inner(settings))


def _class_blocks(classes: ColorClasses, k: int) -> dict:
    """Each k-subset T of the classes, in lexicographic order, mapped to its
    cover K_T, the intersection of every member of every class in T.  The
    colorful k-selections drawn from T's classes (T's block) are contiguous
    in selection order, and K_T lies inside each of their intersections.
    A cover keeps the first of each exactly repeated (a, b) row, then
    repeats its last row up to the largest row count; neither changes the
    set, and the covers solve as one stack."""
    # each class's (a, b) rows, its members' stacked in order
    rows = [np.vstack([np.column_stack([P.A, P.b]) for P in members])
            for members in classes.classes]
    covers = {}
    for T in itertools.combinations(range(classes.n_classes), k):
        R = np.vstack([rows[c] for c in T])
        _, first = np.unique(R, axis=0, return_index=True)
        covers[T] = R[np.sort(first)]
    m = max(len(R) for R in covers.values())
    padded = {T: np.pad(R, ((0, m - len(R)), (0, 0)), "edge")
              for T, R in covers.items()}
    return {T: HPolytope(R[:, :-1], R[:, -1]) for T, R in padded.items()}


def _lowest(sweep, target_volume: float, settings: SolverSettings) -> list:
    """The lowest ellipsoids of the target volume in a sweep's
    intersections, lifted from their MVIEs (``lift_to_target``), as
    (selection, outcome) pairs; each outcome's objective is its height.
    Raises the sweep's error, or the lift's when it comes first in
    selection order."""
    sels, polytopes, batch = sweep
    return list(zip(sels, solved(lift_to_target(
        polytopes, batch, target_volume, _inner(settings)))))


def _inner(settings: SolverSettings) -> SolverSettings:
    """Settings for the batch solves inside a pipeline: a duality-gap target
    no tighter than 1e-7."""
    return dataclasses.replace(settings,
                               gap_target=max(settings.gap_target, 1e-7))


# ---------------------------------------------------------------------------
# Minkowski difference and translate search


def _support(L: HPolytope, a: np.ndarray) -> float:
    free = np.full(L.dim, np.inf)
    status, _, fun, _ = _lp(-a, L.A, L.b, -free, free)
    if status == 3:
        raise Unbounded("support LP unbounded; Minkowski difference needs a "
                        "bounded subtrahend")
    if status != 0:  # L is a validated member, so this is numerical
        raise Unbounded(f"support LP did not solve (status {status})")
    return float(-fun)


def minkowski_difference(P: HPolytope,
                         L: Union[Ellipsoid, HPolytope]) -> HPolytope:
    """The erosion {t : L + t is contained in P}: offsets shrink by h_L(a)."""
    if P.dim != L.dim:
        raise DimensionMismatch("Minkowski difference dimension mismatch")
    if isinstance(L, Ellipsoid):
        return HPolytope(P.A, polytope_slacks(L, P))
    return HPolytope(P.A, P.b - np.array([_support(L, a) for a in P.A]))


def translate_margin(P: HPolytope, L: Union[Ellipsoid, HPolytope]):
    """Best translate of L into P plus its slack margin (negative: impossible)."""
    diff = minkowski_difference(P, L)
    return chebyshev_center(diff)


def contains_translate(P: HPolytope, L: Union[Ellipsoid, HPolytope],
                       settings: SolverSettings = DEFAULT_SETTINGS
                       ) -> Optional[np.ndarray]:
    """A vector t with L + t inside P (within feasibility_tol), or None when
    no translate fits."""
    t, margin = translate_margin(P, L)
    return None if margin < -settings.feasibility_tol else t


# ---------------------------------------------------------------------------
# Hypothesis verification


@dataclasses.dataclass(frozen=True)
class HypothesisReport:
    passed: bool
    selections_checked: int
    min_volume: Optional[float]
    min_selection: Optional[ColorfulSelection]
    failure: Optional[ColorfulSelection]
    failure_reason: Optional[str]

    def to_dict(self) -> dict:
        return _plain(vars(self))


def verify_colorful_hypothesis(classes: ColorClasses, k: int,
                               target_volume: float,
                               settings: SolverSettings = DEFAULT_SETTINGS
                               ) -> HypothesisReport:
    """Checks every colorful k-selection's intersection for an inscribed
    ellipsoid of the target volume and reports the first failure in
    lexicographic order.  A selection passes when its MVIE volume reaches the
    target (``reaches_target``, the test the lowest ellipsoid applies).

    The start-point LPs run in selection order and stop at the first empty
    intersection; the selections before it are solved as one batch and
    scanned in order, so the report is the one a selection-by-selection
    check that stops at the first failure gives.  An empty intersection
    (EmptyInterior) is a violation; any other solver error is a numerical
    failure and propagates.
    """
    return _hypothesis_report(
        _sweep(classes, colorful_selections(classes, k), settings),
        target_volume)


def _hypothesis_report(sweep, target_volume: float) -> HypothesisReport:
    """The hypothesis report of an MVIE sweep (``_sweep``), the scan of
    ``verify_colorful_hypothesis``: every selection is counted, and the
    selections are scanned in order up to the one whose error ends the
    sweep."""
    sels, _, (outcomes, error) = sweep
    total = len(sels)
    min_volume = None
    min_sel = None
    for sel, out in zip(sels, outcomes):
        vol = out.volume
        if min_volume is None or vol < min_volume:
            min_volume, min_sel = vol, sel
        if not reaches_target(vol, target_volume):
            return HypothesisReport(
                False, total, min_volume, min_sel, sel,
                f"ellipsoid volume {vol:.12g} below target {target_volume:.12g}")
    if error is None:
        return HypothesisReport(True, total, min_volume, min_sel, None, None)
    if not isinstance(error, EmptyInterior):
        raise error
    return HypothesisReport(False, total, min_volume, min_sel,
                            sels[len(outcomes)],
                            f"{type(error).__name__}: {error}")


def _whole_cover(classes: ColorClasses, target_volume: float,
                 settings: SolverSettings) -> Optional[SolveOutcome]:
    """The outcome of an inscribed ellipsoid of the whole family's cover,
    the one block of every class (``_class_blocks``), whose log det B
    reaches ``settle_threshold``: its MVIE solve stops there.  The cover
    lies inside every selection's intersection, so that ellipsoid settles
    that every selection's MVIE reaches the target.  None when the cover
    does not settle, its solve fails or the threshold is None."""
    inner = _inner(settings)
    stop = settle_threshold(target_volume, classes.dim, inner)
    if stop is None:
        return None
    cover, = _class_blocks(classes, classes.n_classes).values()
    outcomes, _ = mvie_batch([cover], inner, stop)
    return outcomes[0] if outcomes and outcomes[0].objective >= stop else None


def _require_classes(classes: ColorClasses, n: int, what: str):
    if classes.n_classes != n:
        raise InstanceError(
            f"{what} needs exactly {n} classes for d={classes.dim}, "
            f"got {classes.n_classes}")


def _require_hypothesis(rep: HypothesisReport, what: str) -> HypothesisReport:
    """The hypothesis report; raises HypothesisViolated when it fails."""
    if not rep.passed:
        raise HypothesisViolated(
            f"{what} hypothesis fails: {rep.failure_reason}",
            failure=rep.failure)
    return rep


# ---------------------------------------------------------------------------
# Colorful Helly witness via Minkowski differences


def colorful_helly_witness(classes: ColorClasses, L: Ellipsoid,
                           settings: SolverSettings = DEFAULT_SETTINGS):
    """First class whose full intersection contains a translate of L.

    Requires d+1 classes.  When the colorful hypothesis holds (every colorful
    selection of d+1 sets contains a translate of L), a witness class exists;
    NoWitness therefore signals a hypothesis violation or tolerance breakdown.
    """
    _require_classes(classes, classes.dim + 1, "translate witness search")
    margins = []
    for j in range(classes.n_classes):
        Pj = intersect_all(classes.classes[j])
        t, margin = translate_margin(Pj, L)
        margins.append(margin)
        if margin >= -settings.feasibility_tol:
            return j, t
    raise NoWitness("no class intersection contains a translate of L",
                    margins=margins)


# ---------------------------------------------------------------------------
# Pipelines


def _highest(outs):
    """The (selection, outcome) pair of ``_lowest`` whose ellipsoid is
    highest; of several at exactly that height, the first in selection
    order."""
    return max(outs, key=lambda so: so[1].objective)


def _slide_directions(d: int) -> np.ndarray:
    """The unit directions, as rows, along which ``_height_bounds`` slides a
    lowest ellipsoid down: -e_d, and -e_d tilted toward +e_j and toward -e_j
    by 10, 20, ..., 80 degrees for each j < d.  Each has v_d < 0."""
    tilt = np.arange(1, 9) * (math.pi / 18)
    dirs = [-np.eye(d)[-1:]]
    for j in range(d - 1):
        for sign in (1.0, -1.0):
            v = np.zeros((len(tilt), d))
            v[:, j] = sign * np.sin(tilt)
            v[:, -1] = -np.cos(tilt)
            dirs.append(v)
    return np.vstack(dirs)


def _height_bounds(classes: ColorClasses, k: int, target_volume: float,
                   settings: SolverSettings, whole: SolveOutcome):
    """Upper bounds on the lowest heights of the colorful k-selections, as
    (a dict from each k-block's class set T to its bound, an array of each
    selection's bound in selection order).

    T's bound h_T is the height of a lowest ellipsoid E_T lifted in its
    cover K_T (``_class_blocks``), which lies inside every selection of
    T's block.  Every lift starts from the whole family's settled ellipsoid
    ``whole`` (``_whole_cover``), which lies inside every K_T, so no cover
    is solved.  Every selection holds that settled ellipsoid, so it is
    lifted and its computed height exceeds its lowest height by at most its
    gap.

    For a unit direction v with v_d < 0, E_T + s v stays inside a member P
    of T's classes up to the step s_P(v), the least slack(E_T) / (a . v)
    over P's rows with a . v > 0.  A selection S therefore holds
    E_T + s_S(v) v, s_S(v) the least s_P(v) over its members, an ellipsoid
    of the target volume at height h_T + s_S(v) v_d.  S's bound is the
    least of these over ``_slide_directions``, each step taken a hair short
    so that every translated slack stays nonnegative; it is at most h_T.
    None when a block's lift fails."""
    blocks = _class_blocks(classes, k)
    lifts, error = lift_to_target(list(blocks.values()),
                                  ([whole] * len(blocks), None),
                                  target_volume, _inner(settings))
    if error is not None:
        return None
    dirs = _slide_directions(classes.dim)
    # per class: its members' rows stacked, their rates a . v, and where
    # each member's rows start
    walls = []
    for members in classes.classes:
        P = intersect_all(members)
        walls.append((P, P.A @ dirs.T,
                     np.cumsum([0] + [len(Q.b) for Q in members[:-1]])))
    block_bounds, bounds = {}, []
    for T, low in zip(blocks, lifts):
        E, h = low.ellipsoid, low.objective
        # the steps of every selection of T's block, built class by class
        # in itertools.product order, one row per selection
        steps = np.full((1, len(dirs)), math.inf)
        for P, rate, starts in (walls[c] for c in T):
            slack = np.maximum(polytope_slacks(E, P), 0.0)[:, None]
            member = np.minimum.reduceat(
                np.divide(slack, rate, out=np.full(rate.shape, math.inf),
                          where=rate > 0.0), starts, axis=0)
            steps = np.minimum(steps[:, None], member).reshape(-1, len(dirs))
        block_bounds[T] = h
        bounds.append(h + (steps * (1.0 - _SLIDE_SHORT)
                           * dirs[:, -1]).min(axis=1))
    return block_bounds, np.concatenate(bounds)


def _highest_lowest(classes: ColorClasses, k: int, target_volume: float,
                    settings: SolverSettings, whole: Optional[SolveOutcome]):
    """The selection of ``_highest(_lowest(_sweep(...)))`` over the colorful
    k-selections, with its lowest ellipsoid, solving from an MVIE only the
    selections whose height can still decide it.

    Each selection's bound (``_height_bounds``, from the whole family's
    settled ellipsoid ``whole``) lies above its lowest height.  A lift ends
    feasible and centered, so its computed height exceeds that lowest
    height by at most about one gap target, whatever its start.  Two rounds
    lift selections from ``whole``, which lies inside every selection, so
    with no start LP and no MVIE: first those whose bound lies within two
    ``_PRUNE_GAPS`` height-gap targets of the highest bound, then those
    whose bound plus ``_PRUNE_GAPS`` gap targets does not lie below the
    best height lifted; the others can be neither the highest selection nor
    one tied with it.  By the same margin, only the lifted selections whose
    height lies within ``_PRUNE_GAPS`` gap targets of the best can be the
    full sweep's pick.  When that is one selection, it is the pick,
    returned with its lift from ``whole``, which agrees with its lift from
    its MVIE to the lift's gap target.  When it is several, near ties whose
    last bits order them differently from one start to another, the sweep
    runs on them alone, each with the bits of its lone solve, so the pair,
    and the first of exact ties in selection order, are the full sweep's.
    With no settled ellipsoid (``whole`` None), or when any lift from it
    fails, a block's included, the sweep runs on every selection.  The
    sweep raises its first error."""
    sels = list(colorful_selections(classes, k))
    bounds = (None if whole is None
              else _height_bounds(classes, k, target_volume, settings, whole))
    if bounds is not None:
        inner = _inner(settings)
        margin = _PRUNE_GAPS * inner.gap_target
        _, bound = bounds
        lifted = {}
        chosen = bound >= bound.max() - 2.0 * margin
        for _ in range(2):
            idx = np.flatnonzero(chosen).tolist()
            outcomes, error = lift_to_target(
                [selection_intersection(classes, sels[i]) for i in idx],
                ([whole] * len(idx), None), target_volume, inner)
            if error is not None:
                break
            lifted.update(zip(idx, outcomes))
            top = max(out.objective for out in lifted.values())
            # the selections neither lifted nor pruned
            chosen = ~(bound + margin < top)
            chosen[list(lifted)] = False
        else:
            near = [i for i in sorted(lifted)
                    if lifted[i].objective + margin >= top]
            if len(near) == 1:
                return sels[near[0]], lifted[near[0]]
            sels = [sels[i] for i in near]
    return _highest(_lowest(_sweep(classes, sels, settings), target_volume,
                            settings))


def _check_witness_containment(E: Ellipsoid, members, tol: float = 1e-6):
    for mi, body in enumerate(members):
        if not ellipsoid_in_polytope(E, body, tol):
            raise WitnessContainmentFailed(
                f"witness ellipsoid leaves member {mi} of the witness class")


def colell_pipeline(classes: ColorClasses, target_volume: float,
                    settings: SolverSettings = DEFAULT_SETTINGS,
                    check_hypothesis: bool = True) -> PipelineReport:
    """Many-color-classes pipeline: with d(d+3)/2 classes whose colorful
    selections all contain an ellipsoid of the target volume, produce a class
    whose full intersection contains one.

    Steps: take the lowest ellipsoid of every colorful selection, keep the
    highest of them, find the class whose removal leaves that ellipsoid
    lowest, and certify containment in every member of that class.  One MVIE
    sweep of the full selections gives the hypothesis report (when checked)
    and the starts of their lowest ellipsoids.
    """
    t_start = time.perf_counter()
    nc = classes.dim * (classes.dim + 3) // 2
    _require_classes(classes, nc, "pipeline")
    sweep = _sweep(classes, colorful_selections(classes, nc), settings)
    if check_hypothesis:
        _require_hypothesis(_hypothesis_report(sweep, target_volume),
                            "colorful")
    return _colell(classes, target_volume, sweep, settings, t_start)


def _colell(classes: ColorClasses, target_volume: float, sweep,
            settings: SolverSettings, t_start: float) -> PipelineReport:
    """colell after its hypothesis check: the lowest ellipsoids start from
    the MVIE sweep of the full selections; its error, if any, is raised."""
    nc = classes.n_classes
    inner = _inner(settings)
    outs = _lowest(sweep, target_volume, settings)
    sel_max, best = _highest(outs)
    e_max = best.ellipsoid

    # Drop one body at a time from the defining selection; some class's removal
    # must leave e_max lowest.
    bodies = [classes.body(ci, mi) for ci, mi in sel_max.picks]
    gaps = []
    witness = None
    for pos in range(nc):
        K_j = intersect_all(bodies[:pos] + bodies[pos + 1:])
        out_j = single_outcome(lift_to_target(
            [K_j], mvie_batch([K_j], inner), target_volume, inner))
        gap = ellipsoid_gap(out_j.ellipsoid, e_max)
        gaps.append(gap)
        if gap <= AGREEMENT_TOL:
            witness = sel_max.picks[pos][0]
            break
    if witness is None:
        raise Step3Failed("no class removal preserves the lowest ellipsoid",
                          gaps=gaps)
    _check_witness_containment(e_max, classes.classes[witness])
    return PipelineReport(
        witness_class=witness,
        witness_ellipsoid=e_max,
        witness_volume=ellipsoid_volume(e_max),
        normalization=None,
        certificates={
            "target_volume": target_volume,
            "defining_selection": sel_max,
            "e_max_height": best.objective,
            "selection_heights": [o.objective for _, o in outs],
            "drop_one_gaps": gaps,
        },
        wall_time=time.perf_counter() - t_start)


def theorem1_pipeline(classes: ColorClasses, target_volume: float,
                      settings: SolverSettings = DEFAULT_SETTINGS,
                      check_hypothesis: bool = True) -> PipelineReport:
    """Few-color-classes pipeline: 3d classes, colorful selections of 2d sets.

    Solves the whole family's cover once (``_whole_cover``), also when the
    hypothesis check is skipped.  The 2d-selection hypothesis check passes
    when that cover settles, and is otherwise ``verify_colorful_hypothesis``.
    Then constructs the highest lowest-ellipsoid over (2d-1)-selections,
    pruning, where the cover settled, the selections whose height bound,
    slid down from their block's lowest ellipsoid, lies below one already
    computed, and lifting the rest from the cover's ellipsoid
    (``_highest_lowest``), normalizes it to the unit ball, cuts
    with the height-1 half-space, extracts a common inscribed-ball radius
    over the remaining d+1 families, and finds the witness class by the
    translate search.
    """
    t_start = time.perf_counter()
    d = classes.dim
    _require_classes(classes, 3 * d, "pipeline")
    whole = _whole_cover(classes, target_volume, settings)
    if check_hypothesis and whole is None:
        _require_hypothesis(verify_colorful_hypothesis(
            classes, 2 * d, target_volume, settings), "colorful")

    # (1) highest of the lowest ellipsoids over (2d-1)-selections
    sel_star, best = _highest_lowest(classes, 2 * d - 1, target_volume,
                                     settings, whole)
    e_star = best.ellipsoid

    # (2) normalize so the chosen ellipsoid becomes the unit ball and its
    # supporting height half-space {x_d <= height} becomes {x_d <= 1}.  The
    # half-space's image under B^{-1} has normal B e_d / |B e_d|; a Householder
    # reflection carries that normal back to e_d.
    try:
        Binv = np.linalg.inv(e_star.shape)
    except np.linalg.LinAlgError as exc:
        raise NormalizationFailed(f"singular normalization: {exc}")
    u = e_star.shape[:, -1]
    u = u / np.linalg.norm(u)
    e_d = np.zeros(d)
    e_d[-1] = 1.0
    v = u - e_d
    if np.linalg.norm(v) < 1e-12:
        R = np.eye(d)
    else:
        R = np.eye(d) - 2.0 * np.outer(v, v) / float(v @ v)
    lin = R @ Binv
    T = AffineMap(lin, -lin @ e_star.center)

    defining = set(sel_star.class_indices())
    remaining = [ci for ci in range(classes.n_classes) if ci not in defining]

    # (3) the cut body M and its MVIE certificate
    imgs = [transform_polytope(T, classes.body(ci, mi))
            for ci, mi in sel_star.picks]
    M = slice_below(intersect_all(imgs), 1.0)
    m_out = single_outcome(mvie_batch([M], _inner(settings)))
    ball = Ellipsoid.unit_ball(d)
    m_gap = ellipsoid_gap(m_out.ellipsoid, ball)
    if m_gap > AGREEMENT_TOL:
        raise NormalizationFailed(
            f"MVIE of the cut body is not the unit ball (gap {m_gap:.3e})")

    # (4) common inscribed-ball radius over the remaining families, each
    # selection cut by M: M is the one member of one more class
    rem_classes = ColorClasses(
        d, tuple(tuple(transform_polytope(T, C) for C in classes.classes[ci])
                 for ci in remaining))
    with_cut = ColorClasses(d, rem_classes.classes + ((M,),))
    sweep = _sweep(with_cut, colorful_selections(with_cut, d + 2), settings)
    minima = [min_semiaxis(out.ellipsoid) for out in solved(sweep[2])]
    r = min(minima)
    if r <= 0.0:
        raise NoWitness(f"common inscribed radius collapsed (r={r:.3e})",
                        margins=minima)
    r_eff = r * (1.0 - _RADIUS_SHRINK)

    # (5) translate witness among the remaining families
    L = Ellipsoid.ball(np.zeros(d), r_eff)
    j_local, t_vec = colorful_helly_witness(rem_classes, L, settings)
    witness = remaining[j_local]

    # (6) map the ball back through the normalization
    E_w = transform_ellipsoid(T.inverse(), Ellipsoid.ball(t_vec, r_eff))
    _check_witness_containment(E_w, classes.classes[witness])
    return PipelineReport(
        witness_class=witness,
        witness_ellipsoid=E_w,
        witness_volume=ellipsoid_volume(E_w),
        normalization=T,
        certificates={
            "target_volume": target_volume,
            "defining_selection": sel_star,
            "e_star": e_star,
            "e_star_height": best.objective,
            "cut_mvie_gap": m_gap,
            "common_radius": r,
            "selection_min_semiaxes": minima,
            "witness_translate": t_vec,
            "remaining_classes": remaining,
        },
        wall_time=time.perf_counter() - t_start)


def saxuso_scenario(classes: ColorClasses,
                    settings: SolverSettings = DEFAULT_SETTINGS,
                    check_hypothesis: bool = True) -> PipelineReport:
    """d(d+3)/2 classes with 2d-selection hypothesis at volume 1: measure the
    worst full-selection MVIE volume and run the many-classes pipeline at it,
    without its hypothesis check, from the same MVIE sweep.  With the
    hypothesis check skipped, the ``hypothesis_min_volume`` certificate is
    None."""
    t_start = time.perf_counter()
    nc = classes.dim * (classes.dim + 3) // 2
    _require_classes(classes, nc, "scenario")
    rep = _require_hypothesis(verify_colorful_hypothesis(
        classes, 2 * classes.dim, 1.0, settings),
        "2d-selection") if check_hypothesis else None
    sweep = _sweep(classes, colorful_selections(classes, nc), settings)
    v = min(out.volume for out in solved(sweep[2]))
    report = _colell(classes, v * (1.0 - 1e-9), sweep, settings, t_start)
    certs = dict(report.certificates, worst_selection_volume=v,
                 hypothesis_min_volume=None if rep is None
                 else rep.min_volume)
    return dataclasses.replace(report, certificates=certs,
                               wall_time=time.perf_counter() - t_start)
