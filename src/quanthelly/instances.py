"""Instance files, deterministic generators, and canonical report emission.

Instances are JSON documents with explicit dimension and one constraint list
per body; all numeric output is printed with 12 significant digits so fixtures
are diffable and golden tests can compare bytes.
"""
from __future__ import annotations

import dataclasses
import json
import math
import numbers
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import InstanceError
from .geometry import HPolytope, is_bounded, unit_ball_volume
from .helly import ColorClasses, verify_colorful_hypothesis


@dataclasses.dataclass(frozen=True)
class InstanceFile:
    dimension: int
    target_volume: float
    classes: ColorClasses


# ---------------------------------------------------------------------------
# Canonical JSON


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist())
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def canonical_json(obj) -> str:
    """Deterministic serialization: sorted keys, 12 significant digits."""
    return json.dumps(_round_floats(obj), sort_keys=True, indent=2) + "\n"


def emit_report(report: dict, path: Optional[Union[str, Path]] = None) -> str:
    text = canonical_json(report)
    if path is not None:
        Path(path).write_text(text)
    return text


# ---------------------------------------------------------------------------
# Instance parsing and emission


def instance_to_dict(inst: InstanceFile) -> dict:
    return {
        "dimension": inst.dimension,
        "target_volume": inst.target_volume,
        "classes": [
            [
                [{"a": a, "b": b}
                 for a, b in zip(body.A.tolist(), body.b.tolist())]
                for body in members
            ]
            for members in inst.classes.classes
        ],
    }


def emit_instance(inst: InstanceFile,
                  path: Optional[Union[str, Path]] = None) -> str:
    text = canonical_json(instance_to_dict(inst))
    if path is not None:
        Path(path).write_text(text)
    return text


def _number(value, what: str) -> float:
    """A JSON number (not true or false) as a float, or InstanceError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceError(f"{what} must be a number")
    try:
        return float(value)
    except OverflowError:                   # an integer beyond float range
        raise InstanceError(f"{what} is out of range")


def _parse_body(raw, d, ci, mi) -> HPolytope:
    where = f"classes[{ci}][{mi}]"
    if not isinstance(raw, list) or not raw:
        raise InstanceError(f"{where} must be a non-empty list of constraints")
    A, b = [], []
    for hi, item in enumerate(raw):
        if not isinstance(item, dict):
            raise InstanceError(f"{where}[{hi}] must be an object")
        if "a" not in item:
            raise InstanceError(f"{where}[{hi}] is missing field 'a'")
        if "b" not in item:
            raise InstanceError(f"{where}[{hi}] is missing field 'b'")
        a = item["a"]
        if not isinstance(a, list) or len(a) != d:
            raise InstanceError(
                f"{where}[{hi}].a must be a list of {d} numbers")
        A.append([_number(v, f"{where}[{hi}].a[{j}]")
                  for j, v in enumerate(a)])
        b.append(_number(item["b"], f"{where}[{hi}].b"))
    return HPolytope(A, b)


def parse_instance(path: Union[str, Path]) -> InstanceFile:
    """Parses and validates an instance file.

    Parsing succeeds iff every body is bounded with non-empty interior
    (``ColorClasses.validated``: one Chebyshev LP per body when its duals
    certify boundedness, 1 + 2d LPs otherwise); violations are reported
    with their (class, member) indices.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        # a ValueError when the text is not UTF-8 or not JSON, a
        # RecursionError when it nests deeper than the parser's stack
        raise InstanceError(f"not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise InstanceError("top-level document must be an object")
    for field in ("dimension", "classes"):
        if field not in raw:
            raise InstanceError(f"missing top-level field '{field}'")
    d = raw["dimension"]
    if not isinstance(d, int) or isinstance(d, bool):
        raise InstanceError("'dimension' must be an integer")
    if d < 1:
        raise InstanceError("'dimension' must be positive")
    target = _number(raw.get("target_volume", 1.0), "'target_volume'")
    if not (math.isfinite(target) and target > 0.0):
        raise InstanceError("'target_volume' must be positive and finite")
    if not isinstance(raw["classes"], list) or not raw["classes"]:
        raise InstanceError("'classes' must be a non-empty list")
    classes = []
    for ci, members in enumerate(raw["classes"]):
        if not isinstance(members, list) or not members:
            raise InstanceError(f"classes[{ci}] must be a non-empty list")
        classes.append(tuple(_parse_body(body, d, ci, mi)
                             for mi, body in enumerate(members)))
    cc = ColorClasses.validated(d, tuple(classes))
    return InstanceFile(d, target, cc)


# ---------------------------------------------------------------------------
# Generators

# Attempts the adversarial generator makes to violate the hypothesis.
_RETRY_BUDGET = 200

@dataclasses.dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic instance generator: same spec and seed give identical files."""

    kind: str
    seed: int
    dimension: int
    class_count: int
    members_per_class: int
    target_volume: float = 1.0
    halfspaces_per_body: int = 8

    def __post_init__(self):
        if self.kind not in ("common-ball", "tangent-halfspaces",
                             "nested-boxes", "adversarial"):
            raise InstanceError(f"unknown generator kind '{self.kind}'")
        for name, least in (("seed", 0), ("dimension", 1), ("class_count", 1),
                            ("members_per_class", 1),
                            ("halfspaces_per_body", 0)):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral)
                    and not isinstance(value, bool) and value >= least):
                raise InstanceError(f"{name} must be an integer >= {least}, "
                                    f"got {value!r}")
        v = self.target_volume
        if not (isinstance(v, numbers.Real) and not isinstance(v, bool)
                and math.isfinite(v) and v > 0.0):
            raise InstanceError(f"target volume must be a positive finite "
                                f"number, got {v!r}")
        object.__setattr__(self, "target_volume", float(v))


def _ball_radius(target_volume: float, d: int) -> float:
    return (target_volume / unit_ball_volume(d)) ** (1.0 / d)


def _unit_vectors(rng, n, d):
    u = rng.normal(size=(n, d))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def _ball_body(rng, d, z, r, k, offsets) -> HPolytope:
    """The axis box of half-width max|z| + r + 1 cut by k half-spaces with
    random unit normals U, drawn from rng; their offsets are
    ``offsets(rng, U @ z)``, drawn after U."""
    R = float(np.max(np.abs(z)) + r + 1.0)
    U = _unit_vectors(rng, k, d)
    A = np.vstack([np.eye(d), -np.eye(d), U])
    b = np.concatenate([np.full(2 * d, R), offsets(rng, U @ z)])
    return HPolytope(A, b)


def _tangent_body(rng, d, z, r, k) -> HPolytope:
    U = _unit_vectors(rng, k, d)
    body = HPolytope(U, U @ z + r)
    if not is_bounded(body):
        # Fall back to appending axis-aligned tangent half-spaces; these keep
        # every constraint tangent to the reference ball.
        axes = np.vstack([np.eye(d), -np.eye(d)])
        A = np.vstack([U, axes])
        b = np.concatenate([U @ z + r, axes @ z + r])
        body = HPolytope(A, b)
    return body


def _class_sizes(rng, spec) -> np.ndarray:
    return rng.integers(1, spec.members_per_class + 1, size=spec.class_count)


def generate(spec: GeneratorSpec) -> InstanceFile:
    rng = np.random.default_rng(spec.seed)
    d = spec.dimension
    r = _ball_radius(spec.target_volume, d)

    k = spec.halfspaces_per_body
    if spec.kind == "common-ball":
        z = rng.uniform(-0.5, 0.5, size=d)
        sizes = _class_sizes(rng, spec)
        classes = tuple(
            tuple(_ball_body(rng, d, z, r, k, lambda rng, h:
                             h + r + rng.exponential(0.5, size=k))
                  for _ in range(sizes[ci]))
            for ci in range(spec.class_count))
    elif spec.kind == "tangent-halfspaces":
        z = rng.uniform(-0.25, 0.25, size=d)
        sizes = _class_sizes(rng, spec)
        classes = tuple(
            tuple(_tangent_body(rng, d, z, r, k)
                  for _ in range(sizes[ci]))
            for ci in range(spec.class_count))
    elif spec.kind == "nested-boxes":
        # Singleton classes of shrinking boxes around the target ball; class 0
        # is the largest, the last class the smallest.
        n = spec.class_count
        widths = [r * (1.0 + 0.25 * (n - ci) + 0.05 * rng.uniform())
                  for ci in range(n)]
        classes = tuple(
            (HPolytope(np.vstack([np.eye(d), -np.eye(d)]),
                       np.full(2 * d, widths[ci])),)
            for ci in range(n))
    else:  # adversarial: the 2d-selection hypothesis (or all classes') fails
        for _ in range(_RETRY_BUDGET):
            z = rng.uniform(-0.5, 0.5, size=d)
            sizes = _class_sizes(rng, spec)
            cc = ColorClasses(d, tuple(
                tuple(_ball_body(rng, d, z, r, k, lambda rng, h:
                                 h + r * rng.uniform(0.1, 1.2, k))
                      for _ in range(sizes[ci]))
                for ci in range(spec.class_count)))
            rep = verify_colorful_hypothesis(
                cc, min(2 * d, spec.class_count), spec.target_volume)
            if not rep.passed:
                return InstanceFile(d, spec.target_volume, cc)
        raise InstanceError(
            f"adversarial generation exhausted {_RETRY_BUDGET} attempts "
            "without violating the hypothesis")

    return InstanceFile(d, spec.target_volume,
                        ColorClasses(d, classes))


def tangent_halfplane_family(seed: int, count: int, d: int,
                             radius: float = 1.0):
    """Single-half-space members tangent to the radius ball at the origin,
    resampled until their intersection is bounded.  Used for the
    critical-subfamily analysis where members need not be bounded."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        U = _unit_vectors(rng, count, d)
        combined = HPolytope(U, np.full(count, radius))
        if is_bounded(combined):
            return [HPolytope(U[i:i + 1], [radius]) for i in range(count)]
    raise InstanceError("could not draw a bounded tangent family")
