"""Colorful selection combinatorics, Minkowski differences, hypothesis
verification, and the constructive theorem pipelines.

Every pipeline stage that visits colorful selections runs the one sweep
``_sweep``: the selections in lexicographic order, their intersections handed
to a batched solver (``mvie_batch`` or ``lowest_ellipsoid_batch``) that runs
the start-point LPs in that order and then solves the whole sweep as stacked
Newton problems.  Each outcome is bitwise the one a lone solve gives, and the
first failure in selection order is the one raised.  Ties between selections
are broken by a deterministic order (height, then center, then shape
entries), so a report depends only on the instance and settings.
"""
from __future__ import annotations

import dataclasses
import itertools
import time
from typing import Optional, Union

import numpy as np
from scipy.optimize import linprog

from .errors import (DimensionMismatch, EmptyInterior, HypothesisViolated,
                     InstanceError, NormalizationFailed, NoWitness,
                     Step3Failed, Unbounded, WitnessContainmentFailed)
from .geometry import (AffineMap, Ellipsoid, HPolytope, chebyshev_center,
                       ellipsoid_gap, ellipsoid_in_polytope, ellipsoid_height,
                       ellipsoid_volume, has_interior, intersect_all,
                       is_bounded, min_semiaxis, support_value,
                       transform_ellipsoid, transform_polytope)
from .solvers import (DEFAULT_SETTINGS, SolverSettings, lowest_ellipsoid_batch,
                      mvie_batch, single_outcome, slice_below)

# How closely two ellipsoids must agree (max of shape Frobenius distance and
# center distance) to count as equal in the drop-one-body comparison.
_STEP3_TOL = 1e-5
# Safety shrink applied to the computed common radius before the translate
# search, absorbing solver noise in the feasibility LPs.
_RADIUS_SHRINK = 1e-6


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
        """Construct and check every member is bounded with nonempty interior."""
        obj = cls(dim, classes)
        for ci, members in enumerate(obj.classes):
            for mi, body in enumerate(members):
                if not is_bounded(body):
                    raise InstanceError(
                        f"class {ci} member {mi} is unbounded")
                if not has_interior(body):
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
        out = {
            "witness_class": self.witness_class,
            "witness_ellipsoid": _ellipsoid_dict(self.witness_ellipsoid),
            "witness_volume": self.witness_volume,
            "certificates": _plain(self.certificates),
            "wall_time": self.wall_time,
        }
        if self.normalization is not None:
            out["normalization"] = {
                "linear": self.normalization.linear.tolist(),
                "shift": self.normalization.shift.tolist(),
            }
        return out


def _ellipsoid_dict(E: Ellipsoid) -> dict:
    return {"shape": E.shape.tolist(), "center": E.center.tolist()}


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Ellipsoid):
        return _ellipsoid_dict(obj)
    if isinstance(obj, ColorfulSelection):
        return [list(p) for p in obj.picks]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


# ---------------------------------------------------------------------------
# Selection enumeration


def colorful_selections(classes: ColorClasses, k: int):
    """All choices of k classes and one member per chosen class, lexicographic."""
    n = classes.n_classes
    if k > n:
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


def _sweep(classes: ColorClasses, k: int, solve_batch):
    """Solves the colorful k-selections in lexicographic order.
    ``solve_batch`` receives their intersections as a lazy iterable and
    returns (outcomes, error) as ``mvie_batch`` does.  ``mvie_batch`` stops
    iterating at a failing start LP, so the selections past it are never
    enumerated; ``lowest_ellipsoid_batch`` lists its whole input first, so
    a lowest sweep builds every intersection.  Returns (pairs, failure):
    the (selection, outcome) pairs before the first failure, and
    (selection, error) of that failure, or None."""
    sels = []

    def intersections():
        for sel in colorful_selections(classes, k):
            sels.append(sel)
            yield selection_intersection(classes, sel)

    outcomes, error = solve_batch(intersections())
    pairs = list(zip(sels, outcomes))
    return pairs, None if error is None else (sels[len(pairs)], error)


def _solved(sweep) -> list:
    """The pairs of a sweep; raises the error that ends it, if any."""
    pairs, failure = sweep
    if failure is not None:
        raise failure[1]
    return pairs


def _inner(settings: SolverSettings) -> SolverSettings:
    """Settings for the batch solves inside a pipeline: a duality-gap target
    no tighter than 1e-7."""
    return dataclasses.replace(settings,
                               gap_target=max(settings.gap_target, 1e-7))


# ---------------------------------------------------------------------------
# Minkowski difference and translate search


def _support(L: Union[Ellipsoid, HPolytope], a: np.ndarray) -> float:
    if isinstance(L, Ellipsoid):
        return support_value(L, a)
    res = linprog(-a, A_ub=L.A, b_ub=L.b, bounds=[(None, None)] * L.dim,
                  method="highs")
    if res.status == 3:
        raise Unbounded("support LP unbounded; Minkowski difference needs a "
                        "bounded subtrahend")
    if res.status != 0:
        raise InstanceError("support LP failed")
    return float(-res.fun)


def minkowski_difference(P: HPolytope,
                         L: Union[Ellipsoid, HPolytope]) -> HPolytope:
    """The erosion {t : L + t is contained in P}: offsets shrink by h_L(a)."""
    if P.dim != L.dim:
        raise DimensionMismatch("Minkowski difference dimension mismatch")
    if isinstance(L, Ellipsoid):
        shrink = P.A @ L.center + np.linalg.norm(P.A @ L.shape, axis=1)
    else:
        shrink = np.array([_support(L, a) for a in P.A])
    return HPolytope(P.A, P.b - shrink)


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
        return _plain({
            "passed": self.passed,
            "selections_checked": self.selections_checked,
            "min_volume": self.min_volume,
            "min_selection": self.min_selection,
            "failure": self.failure,
            "failure_reason": self.failure_reason,
        })


def verify_colorful_hypothesis(classes: ColorClasses, k: int,
                               target_volume: float,
                               settings: SolverSettings = DEFAULT_SETTINGS
                               ) -> HypothesisReport:
    """Checks every colorful k-selection's intersection for an inscribed
    ellipsoid of the target volume and reports the first failure in
    lexicographic order.

    The start-point LPs run in selection order and stop at the first empty
    intersection; the selections before it are solved as one batch and
    scanned in order, so the report is the one a selection-by-selection
    check that stops at the first failure gives.  An empty intersection
    (EmptyInterior) is a violation; any other solver error is a numerical
    failure and propagates.
    """
    inner = _inner(settings)
    total = selection_count(classes, k)
    min_volume = None
    min_sel = None
    pairs, failure = _sweep(classes, k, lambda Ps: mvie_batch(Ps, inner))
    for sel, out in pairs:
        vol = out.volume
        if min_volume is None or vol < min_volume:
            min_volume, min_sel = vol, sel
        if vol < target_volume * (1.0 - 1e-6):
            return HypothesisReport(
                False, total, min_volume, min_sel, sel,
                f"ellipsoid volume {vol:.12g} below target {target_volume:.12g}")
    if failure is None:
        return HypothesisReport(True, total, min_volume, min_sel, None, None)
    sel, error = failure
    if not isinstance(error, EmptyInterior):
        raise error
    return HypothesisReport(False, total, min_volume, min_sel, sel,
                            f"{type(error).__name__}: {error}")


def _require_classes(classes: ColorClasses, n: int, what: str):
    if classes.n_classes != n:
        raise InstanceError(
            f"{what} needs exactly {n} classes for d={classes.dim}, "
            f"got {classes.n_classes}")


def _require_hypothesis(classes: ColorClasses, k: int, volume: float,
                        settings: SolverSettings,
                        what: str) -> HypothesisReport:
    """The hypothesis report of the k-selections at volume; raises
    HypothesisViolated when it fails."""
    rep = verify_colorful_hypothesis(classes, k, volume, settings)
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
    d = classes.dim
    if classes.n_classes != d + 1:
        raise InstanceError(
            f"translate witness search needs exactly {d + 1} classes, "
            f"got {classes.n_classes}")
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


def _ellipsoid_sort_key(E: Ellipsoid):
    return (ellipsoid_height(E), tuple(E.center), tuple(E.shape.ravel()))


def _highest_lowest(classes: ColorClasses, k: int, target_volume: float,
                    inner: SolverSettings):
    """The lowest ellipsoid of every colorful k-selection as (selection,
    outcome) pairs, and the pair whose ellipsoid is highest (first on ties)."""
    outs = _solved(_sweep(classes, k, lambda Ps: lowest_ellipsoid_batch(
        Ps, target_volume, inner)))
    return outs, max(outs, key=lambda so: _ellipsoid_sort_key(so[1].ellipsoid))


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
    lowest, and certify containment in every member of that class.
    """
    t_start = time.perf_counter()
    d = classes.dim
    nc = d * (d + 3) // 2
    _require_classes(classes, nc, "pipeline")
    if check_hypothesis:
        _require_hypothesis(classes, nc, target_volume, settings, "colorful")
    inner = _inner(settings)
    outs, (sel_max, best) = _highest_lowest(classes, nc, target_volume, inner)
    e_max = best.ellipsoid

    # Drop one body at a time from the defining selection; some class's removal
    # must leave e_max lowest.
    bodies = [classes.body(ci, mi) for ci, mi in sel_max.picks]
    gaps = []
    witness = None
    for pos in range(nc):
        K_j = intersect_all(bodies[:pos] + bodies[pos + 1:])
        out_j = single_outcome(lowest_ellipsoid_batch([K_j], target_volume,
                                                      inner))
        gap = ellipsoid_gap(out_j.ellipsoid, e_max)
        gaps.append(gap)
        if gap <= _STEP3_TOL:
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
            "e_max_height": ellipsoid_height(e_max),
            "selection_heights": [ellipsoid_height(o.ellipsoid)
                                  for _, o in outs],
            "drop_one_gaps": gaps,
        },
        wall_time=time.perf_counter() - t_start)


def theorem1_pipeline(classes: ColorClasses, target_volume: float,
                      settings: SolverSettings = DEFAULT_SETTINGS,
                      check_hypothesis: bool = True) -> PipelineReport:
    """Few-color-classes pipeline: 3d classes, colorful selections of 2d sets.

    Constructs the highest lowest-ellipsoid over (2d-1)-selections, normalizes
    it to the unit ball, cuts with the height-1 half-space, extracts a common
    inscribed-ball radius over the remaining d+1 families, and finds the
    witness class by the translate search.
    """
    t_start = time.perf_counter()
    d = classes.dim
    _require_classes(classes, 3 * d, "pipeline")
    if check_hypothesis:
        _require_hypothesis(classes, 2 * d, target_volume, settings,
                            "colorful")
    inner = _inner(settings)

    # (1) highest of the lowest ellipsoids over (2d-1)-selections
    _, (sel_star, best) = _highest_lowest(classes, 2 * d - 1, target_volume,
                                          inner)
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
    m_out = single_outcome(mvie_batch([M], inner))
    ball = Ellipsoid.unit_ball(d)
    m_gap = ellipsoid_gap(m_out.ellipsoid, ball)
    if m_gap > _STEP3_TOL:
        raise NormalizationFailed(
            f"MVIE of the cut body is not the unit ball (gap {m_gap:.3e})")

    # (4) common inscribed-ball radius over the remaining families
    rem_classes = ColorClasses(
        d, tuple(tuple(transform_polytope(T, C) for C in classes.classes[ci])
                 for ci in remaining))

    def cut_mvies(Ps):
        return mvie_batch((intersect_all([P, M]) for P in Ps), inner)

    minima = [min_semiaxis(out.ellipsoid)
              for _, out in _solved(_sweep(rem_classes, d + 1, cut_mvies))]
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
            "e_star_height": ellipsoid_height(e_star),
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
    worst full-selection MVIE volume and run the many-classes pipeline at it.
    With the hypothesis check skipped, the ``hypothesis_min_volume``
    certificate is None."""
    t_start = time.perf_counter()
    d = classes.dim
    nc = d * (d + 3) // 2
    _require_classes(classes, nc, "scenario")
    rep = _require_hypothesis(classes, 2 * d, 1.0, settings,
                              "2d-selection") if check_hypothesis else None
    inner = _inner(settings)
    v = min(out.volume for _, out in _solved(
        _sweep(classes, nc, lambda Ps: mvie_batch(Ps, inner))))
    report = colell_pipeline(classes, v * (1.0 - 1e-9), settings,
                             check_hypothesis=False)
    certs = dict(report.certificates, worst_selection_volume=v,
                 hypothesis_min_volume=None if rep is None
                 else rep.min_volume)
    return dataclasses.replace(report, certificates=certs,
                               wall_time=time.perf_counter() - t_start)
