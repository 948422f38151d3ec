"""Command-line interface: instance ingestion, generators, solver and
pipeline subcommands, machine-readable reports.

Exit codes: 0 success / witness found; 2 hypothesis violated; 3 numerical
failure (any library error that is not 2 or 4); 4 input error (bad usage,
InstanceError, DimensionMismatch, DegenerateInput, any OSError).
"""
from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import __version__
from .errors import (DegenerateInput, DimensionMismatch, HypothesisViolated,
                     InstanceError, QuantHellyError)
from .geometry import ellipsoid_volume
from .helly import (colell_pipeline, saxuso_scenario, theorem1_pipeline,
                    verify_colorful_hypothesis)
from .instances import (GeneratorSpec, emit_instance, emit_report, generate,
                        parse_instance)
from .john import critical_subfamily
from .solvers import SolverSettings, lowest_ellipsoid, mvie

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_NUMERICAL = 3
EXIT_INPUT = 4


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {text}")
    return value


def _thread_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-feas", type=_tolerance, default=1e-9,
                        help="feasibility tolerance")
    common.add_argument("--tol-kkt", type=_tolerance, default=1e-7,
                        help="KKT residual tolerance (recorded in reports, "
                             "not yet enforced)")
    common.add_argument("--skip-hypothesis-check", action="store_true",
                        help="skip the combinatorial hypothesis verification")
    common.add_argument("--threads", type=_thread_count, default=1,
                        help="accepted for compatibility; selection sweeps "
                             "run serially and reports never depend on it")
    common.add_argument("--out", type=str, default=None,
                        help="path for the report file")

    p = argparse.ArgumentParser(
        prog="quanthelly",
        description="Inscribed-ellipsoid solvers and colorful quantitative "
                    "Helly pipelines on H-polytopes")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("mvie", parents=[common],
                        help="maximum-volume inscribed ellipsoid of one body")
    sp.add_argument("instance")
    sp.add_argument("--class", dest="class_index", type=int, default=0)
    sp.add_argument("--member", type=int, default=0)

    sp = sub.add_parser("lowest", parents=[common],
                        help="lowest ellipsoid of one body at a volume")
    sp.add_argument("instance")
    sp.add_argument("--class", dest="class_index", type=int, default=0)
    sp.add_argument("--member", type=int, default=0)
    sp.add_argument("--volume", type=float, default=None,
                    help="target volume (default: the instance's)")

    sp = sub.add_parser("verify-hypothesis", parents=[common],
                        help="check every colorful k-selection")
    sp.add_argument("instance")
    sp.add_argument("--k", type=int, default=None,
                    help="selection size (default: number of classes)")

    sp = sub.add_parser("run", parents=[common],
                        help="run a theorem pipeline")
    sp.add_argument("pipeline",
                    choices=["ell", "colell", "theorem1", "saxuso"])
    sp.add_argument("instance")

    sp = sub.add_parser("generate", parents=[common],
                        help="emit a deterministic instance")
    sp.add_argument("--kind", required=True,
                    choices=["common-ball", "tangent-halfspaces",
                             "nested-boxes", "adversarial"])
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--dimension", type=int, default=2)
    sp.add_argument("--classes", dest="class_count", type=int, default=5)
    sp.add_argument("--members", dest="members_per_class", type=int, default=1)
    sp.add_argument("--target", type=float, default=1.0)
    sp.add_argument("--halfspaces", type=int, default=8)
    return p


def _settings(args) -> SolverSettings:
    return SolverSettings(feasibility_tol=args.tol_feas, kkt_tol=args.tol_kkt)


def _report_envelope(args, body: dict) -> dict:
    return {
        "tool": "quanthelly",
        "version": __version__,
        "command": args.command,
        "tolerances": {"feasibility": args.tol_feas, "kkt": args.tol_kkt},
        "report": body,
    }


def _emit(args, env: dict):
    text = emit_report(env, args.out)
    if args.out is None:
        sys.stdout.write(text)


def _solve_outcome_dict(out) -> dict:
    E = out.ellipsoid
    return {
        "ellipsoid": {"shape": E.shape.tolist(), "center": E.center.tolist()},
        "volume": ellipsoid_volume(E),
        "objective": out.objective,
        "kkt_residual": out.kkt_residual,
        "active_constraints": list(out.active_constraints),
    }


def _selected_body(args, classes):
    """The --class/--member body; an index out of range is an input error."""
    ci, mi = args.class_index, args.member
    if not 0 <= ci < classes.n_classes:
        raise InstanceError(f"--class {ci} is out of range: the instance has "
                            f"{classes.n_classes} classes")
    members = classes.classes[ci]
    if not 0 <= mi < len(members):
        raise InstanceError(f"--member {mi} is out of range: class {ci} has "
                            f"{len(members)} members")
    return members[mi]


def _cmd_mvie(args) -> int:
    inst = parse_instance(args.instance)
    body = _selected_body(args, inst.classes)
    out = mvie(body, _settings(args))
    print(f"mvie class={args.class_index} member={args.member} "
          f"volume={_fmt(ellipsoid_volume(out.ellipsoid))} "
          f"kkt={_fmt(out.kkt_residual)}")
    _emit(args, _report_envelope(args, _solve_outcome_dict(out)))
    return EXIT_OK


def _cmd_lowest(args) -> int:
    inst = parse_instance(args.instance)
    body = _selected_body(args, inst.classes)
    target = inst.target_volume if args.volume is None else args.volume
    if not (math.isfinite(target) and target > 0.0):
        raise InstanceError(f"target volume must be positive and finite, "
                            f"got {target}")
    out = lowest_ellipsoid(body, target, _settings(args))
    print(f"lowest class={args.class_index} member={args.member} "
          f"height={_fmt(out.objective)} "
          f"volume={_fmt(ellipsoid_volume(out.ellipsoid))}")
    doc = _solve_outcome_dict(out)
    doc["target_volume"] = target
    doc["height"] = out.objective
    _emit(args, _report_envelope(args, doc))
    return EXIT_OK


def _cmd_verify(args) -> int:
    inst = parse_instance(args.instance)
    k = args.k if args.k is not None else inst.classes.n_classes
    if not 1 <= k <= inst.classes.n_classes:
        raise InstanceError(f"--k must lie in 1..{inst.classes.n_classes}, "
                            f"got {k}")
    rep = verify_colorful_hypothesis(inst.classes, k, inst.target_volume,
                                     _settings(args))
    doc = rep.to_dict()
    doc["k"] = k
    doc["target_volume"] = inst.target_volume
    _emit(args, _report_envelope(args, doc))
    if rep.passed:
        print(f"hypothesis holds for k={k} "
              f"(min volume {_fmt(rep.min_volume)})")
        return EXIT_OK
    print(f"hypothesis violated for k={k}: {rep.failure_reason}")
    return EXIT_HYPOTHESIS


def _cmd_run(args) -> int:
    inst = parse_instance(args.instance)
    settings = _settings(args)
    check = not args.skip_hypothesis_check
    if args.pipeline == "ell":
        family = [body for members in inst.classes.classes for body in members]
        cert = critical_subfamily(family, settings)
        doc = {
            "selected_members": list(cert.selected_indices),
            "volume_gap": cert.volume_gap,
            "support_size": cert.decomposition.support_size,
            "residual_balance": cert.decomposition.residual_balance,
            "residual_identity": cert.decomposition.residual_identity,
            "weight_sum": cert.decomposition.weight_sum,
        }
        print(f"ell selected={len(cert.selected_indices)} members "
              f"gap={_fmt(cert.volume_gap)}")
        _emit(args, _report_envelope(args, doc))
        return EXIT_OK
    if args.pipeline == "colell":
        rep = colell_pipeline(inst.classes, inst.target_volume, settings,
                              check_hypothesis=check)
    elif args.pipeline == "theorem1":
        rep = theorem1_pipeline(inst.classes, inst.target_volume, settings,
                                check_hypothesis=check)
    else:
        rep = saxuso_scenario(inst.classes, settings,
                              check_hypothesis=check)
    print(f"{args.pipeline} witness_class={rep.witness_class} "
          f"witness_volume={_fmt(rep.witness_volume)}")
    _emit(args, _report_envelope(args, rep.to_dict()))
    return EXIT_OK


def _cmd_generate(args) -> int:
    spec = GeneratorSpec(kind=args.kind, seed=args.seed,
                         dimension=args.dimension,
                         class_count=args.class_count,
                         members_per_class=args.members_per_class,
                         target_volume=args.target,
                         halfspaces_per_body=args.halfspaces)
    inst = generate(spec)
    text = emit_instance(inst, args.out)
    if args.out is None:
        sys.stdout.write(text)
    print(f"generated kind={args.kind} seed={args.seed} d={args.dimension} "
          f"classes={args.class_count}", file=sys.stderr)
    return EXIT_OK


_DISPATCH = {
    "mvie": _cmd_mvie,
    "lowest": _cmd_lowest,
    "verify-hypothesis": _cmd_verify,
    "run": _cmd_run,
    "generate": _cmd_generate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; that is an input error here
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return _DISPATCH[args.command](args)
    except HypothesisViolated as exc:
        print(f"hypothesis violated: {exc}")
        if getattr(exc, "failure", None) is not None:
            print(f"failing selection: {list(exc.failure.picks)}",
                  file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (InstanceError, DimensionMismatch, DegenerateInput,
            OSError) as exc:
        print(f"input error: {exc}")
        return EXIT_INPUT
    except QuantHellyError as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}")
        for attr in ("gaps", "margins"):
            detail = getattr(exc, attr, None)
            if detail is not None:
                print(f"{attr}: {[f'{g:.3e}' for g in np.atleast_1d(detail)]}",
                      file=sys.stderr)
        return EXIT_NUMERICAL


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
