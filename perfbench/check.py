"""Independent checks of CLI reports, recomputed with numpy from the
instance file and the report alone (no program code is used here)."""
from __future__ import annotations

import hashlib
import json
import math

import numpy as np

VOLUME_RTOL = 1e-6
SLACK_TOL = 1e-6
GAP_TOL = 1e-5


def unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def _without_wall_time(obj):
    if isinstance(obj, dict):
        return {k: _without_wall_time(v) for k, v in obj.items()
                if k != "wall_time"}
    if isinstance(obj, list):
        return [_without_wall_time(v) for v in obj]
    return obj


def report_digest(report: dict) -> str:
    """SHA-256 of the report with every ``wall_time`` field removed."""
    text = json.dumps(_without_wall_time(report), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def witness_class(report: dict):
    return report["report"].get("witness_class")


def _pipeline_problems(pipeline: str, instance: dict, body: dict) -> list:
    """The acceptance checks of the two pipelines: colell's witness reaches
    the target volume; theorem1 guarantees only a smaller, non-degenerate
    witness and certifies its cut body's MVIE.  Both witnesses must lie in
    every member of the witness class."""
    problems = []
    d = int(instance["dimension"])
    target = float(instance.get("target_volume", 1.0))
    classes = instance["classes"]
    wc = body["witness_class"]
    if not (isinstance(wc, int) and 0 <= wc < len(classes)):
        return [f"witness class {wc!r} out of range"]
    B = np.array(body["witness_ellipsoid"]["shape"], dtype=float)
    c = np.array(body["witness_ellipsoid"]["center"], dtype=float)
    volume = unit_ball_volume(d) * abs(float(np.linalg.det(B)))
    if pipeline == "colell" and volume < target * (1.0 - VOLUME_RTOL):
        problems.append(f"witness volume {volume:.12g} below target {target:.12g}")
    semiaxis = float(np.linalg.svd(B, compute_uv=False).min())
    if not semiaxis > 0.0:
        problems.append(f"witness ellipsoid is flat (min semiaxis {semiaxis:.3e})")
    if abs(volume - float(body["witness_volume"])) > VOLUME_RTOL * volume:
        problems.append(f"reported witness volume {body['witness_volume']!r} "
                        f"differs from det-based {volume:.12g}")
    for mi, member in enumerate(classes[wc]):
        A = np.array([h["a"] for h in member], dtype=float)
        b = np.array([h["b"] for h in member], dtype=float)
        slack = b - A @ c - np.linalg.norm(A @ B, axis=1)
        if float(slack.min()) < -SLACK_TOL:
            problems.append(f"witness ellipsoid leaves member {mi} of class "
                            f"{wc} (slack {float(slack.min()):.3e})")
    if pipeline == "theorem1":
        gap = float(body["certificates"]["cut_mvie_gap"])
        if not gap <= GAP_TOL:
            problems.append(f"cut_mvie_gap {gap:.3e} above {GAP_TOL}")
    return problems


def _ell_problems(instance: dict, body: dict) -> list:
    problems = []
    d = int(instance["dimension"])
    members = sum(len(c) for c in instance["classes"])
    selected = body["selected_members"]
    if len(selected) > d * (d + 3) // 2:
        problems.append(f"{len(selected)} members selected, more than "
                        f"d(d+3)/2 = {d * (d + 3) // 2}")
    if len(set(selected)) != len(selected) or not all(
            isinstance(i, int) and 0 <= i < members for i in selected):
        problems.append(f"selected members {selected} are not distinct "
                        f"indices below {members}")
    gap = float(body["volume_gap"])
    if not gap <= GAP_TOL:
        problems.append(f"volume_gap {gap:.3e} above {GAP_TOL}")
    return problems


def report_problems(pipeline: str, instance: dict, report: dict) -> list:
    """Reasons the report fails its independent check; empty when it passes."""
    body = report.get("report")
    if report.get("command") != "run" or not isinstance(body, dict):
        return ["not a pipeline report"]
    try:
        if pipeline == "ell":
            return _ell_problems(instance, body)
        return _pipeline_problems(pipeline, instance, body)
    except (KeyError, TypeError, ValueError, IndexError,
            np.linalg.LinAlgError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
