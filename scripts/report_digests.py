#!/usr/bin/env python3
"""Digests of the CLI's reports over a fixed set of invocations.

    python3 scripts/report_digests.py > digests.txt
    python3 scripts/report_digests.py --src /path/to/other/checkout/src > other.txt
    python3 scripts/report_digests.py --against /path/to/other/checkout/src

``--against SRC`` runs the script twice, in two subprocesses, on ``--src``
(this checkout's ``src/`` by default) and on SRC; it prints
``identical (N lines)``, or a unified diff of the lines that differ and
exits 1.

Runs ``mvie``, ``lowest``, ``verify-hypothesis`` (at the instance's class
count and at k=2) and ``run colell/theorem1/saxuso/ell`` in-process on six
input sets, written here from fixed seeds or fixed data:

* the five criterion-10 fixtures of ``tests/test_acceptance.py``;
* one adversarial instance, whose hypothesis fails at k=4, with the pipelines
  also run under ``--skip-hypothesis-check`` (exit 2 and exit 3 paths);
* three instances of each benchmark workload's generator spec
  (``perfbench/workloads.py``).  At d=3, ``run saxuso`` is left out: its
  6-selection hypothesis sweep holds 377-1002 selections per instance and
  would take most of the run time.  ``run theorem1`` runs there too: the
  whole family's cover settles its 6-selection check and bounds the heights
  that prune its 5-selection sweep, so it solves only a fraction of those
  selections;
* one instance of five copies of a box whose MVIE volume lies 5e-7 below
  the target, within the relative slack of 1e-6 by which a volume reaches
  its target (``near-target``), so that the hypothesis check and the
  lowest-ellipsoid stages must apply the same volume rule, and one of six
  copies (``near-target-6``), the class count ``run theorem1`` takes at
  d=2, on which the whole family's cover, the one box, does not clear the
  target with headroom, so that theorem1 must solve every selection of both
  its stages in full and still pass its hypothesis check;
* two instances with tied selections: ``ties``, whose colell has two full
  selections at the greatest height bit for bit, also after the instance is
  emitted and parsed, so that a change in which selection wins a tie shows;
  and ``theorem1-tie``, whose theorem1 has eight (2d-1)-selections within
  1e-12 of the greatest height, so that a change in the last bits of their
  heights shows;
* two instances run with ``run theorem1`` alone: ``theorem1-slide``, on
  which the top block's lowest ellipsoid slides down inside every selection
  of its block, so that no (2d-1)-selection's height bound lies near that
  block's bound; and ``theorem1-split``, five 4x4 squares and a class of
  two 4x4 squares shifted apart at target 8, on which every selection holds
  a 3x4 box but the whole family's cover only a 2x4 box, so that theorem1
  passes its hypothesis check by the full check.

Each input first prints one line with the sha256 of its emitted instance
text and of that text parsed and emitted again.  Each invocation then prints
one line: its label, the exit code, the sha256 of the report with every
``wall_time`` key removed ("-" when no report was written) and the sha256 of
its standard output.  Two checkouts that generate, parse and emit the same
instance bytes, and whose reports are byte-identical apart from
``wall_time``, print identical files.  On the ``colell-d3`` inputs, each
``run colell`` or ``run theorem1`` line, on the ``ell-d2`` inputs each
``run ell`` line, and on the ``theorem1-d2``, ``near-target-6``,
``theorem1-slide`` and ``theorem1-split`` inputs each ``run theorem1``
line, is followed by a
``work`` line with the number of LPs the invocation solved (parsing
included) and of the stacked Newton systems the barrier engine solved,
with their total rows (calls of ``solvers._newton_directions``), so that a
change in the work a pipeline does shows beside reports that do not move.

Reports round to 12 significant digits, so a last section digests the
solvers' bits: ``mvie_batch`` and its lift to lowest ellipsoids
(``lift_to_target``, labelled ``lowest_ellipsoid_batch``) over two fixed
sweep stacks (the colorful selections of one instance at d=2 and at d=3),
at the default step budget and at one that fails mid-stack; the lift of
each stack's MVIEs onto the same stack with every 4th polytope replaced by
its successor (``lift_to_target mismatched``), whose 4th problem starts
outside its domain; and the lone ``mvie`` and ``lowest_ellipsoid`` of the
first 8 polytopes of each stack, one at a time, up to the first that
raises.  Each prints one line with the number of outcomes, the error type
and the sha256 of the raw float64 bytes of every outcome (shape, center,
objective, KKT bound) and its active set.  Then one ``lp`` line per stack
digests its start LPs, the Chebyshev-center LP of each polytope: the sha256
of every LP's status and the raw float64 bytes of its solution and
objective, read at the one LP call site, ``geometry._lp``.  A last
``work`` line per stack counts the LPs and Newton systems of its ``bits``
lines.
"""
import argparse
import contextlib
import difflib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

CRITERION_10 = [("common-ball", 1, 2, 5, 2), ("common-ball", 2, 2, 5, 3),
                ("common-ball", 3, 2, 5, 1), ("nested-boxes", 4, 2, 5, 1),
                ("tangent-halfspaces", 5, 2, 5, 1)]
# (name, kind, dimension, classes, members) of each benchmark workload
WORKLOAD_SPECS = [("theorem1-d2", "common-ball", 2, 6, 3),
                  ("colell-d3", "common-ball", 3, 9, 2),
                  ("ell-d2", "tangent-halfspaces", 2, 6, 2)]
WORKLOAD_SEEDS = (1, 2, 3)
# (input label prefix, command) of the invocations that print a ``work`` line
WORK = (("colell-d3-", ["run", "colell"]),
        ("colell-d3-", ["run", "theorem1"]), ("ell-d2-", ["run", "ell"]),
        ("theorem1-d2-", ["run", "theorem1"]),
        ("near-target-6", ["run", "theorem1"]),
        ("theorem1-slide", ["run", "theorem1"]),
        ("theorem1-split", ["run", "theorem1"]))
# (kind, seed, dimension, classes, members, k) of each solver-bit stack: the
# colorful k-selections of that instance, 63 problems each
SOLVER_STACKS = [("common-ball", 7, 2, 6, 2, 3), ("common-ball", 7, 3, 9, 2, 2)]
# fails after 44 of the d=2 problems and 7 of the d=3 ones, in both solvers
FAILING_BUDGET = 64
# how many polytopes of each stack the lone solvers solve
LONE_SOLVES = 8
# (label, generator spec) of each instance with tied selections
TIES = [("ties", ("common-ball", 8, 2, 5, 2)),
        ("theorem1-tie", ("common-ball", 1365155147, 2, 6, 3))]
_W = 0.5641894425   # half-width of the near-target box: pi w^2 = 1 - 5.0e-7
NEAR_TARGET = {"dimension": 2, "target_volume": 1.0, "classes": [[[
    {"a": [1.0, 0.0], "b": _W}, {"a": [-1.0, 0.0], "b": _W},
    {"a": [0.0, 1.0], "b": _W}, {"a": [0.0, -1.0], "b": _W}]]] * 5}
NEAR_TARGET_6 = dict(NEAR_TARGET, classes=NEAR_TARGET["classes"][:1] * 6)


def _square(x):
    """The rows of the 4x4 square centered at (x, 0), in HPolytope.box's
    order."""
    return [{"a": a, "b": b} for a, b in zip(
        ([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]),
        (2.0 + x, 2.0, 2.0 - x, 2.0))]


SPLIT = {"dimension": 2, "target_volume": 8.0,
         "classes": [[_square(0.0)]] * 5 + [[_square(-1.0), _square(1.0)]]}
# (label, generator spec or instance document, commands) of each input run
# with some commands only
ONLY = [("theorem1-slide", ("common-ball", 1574170570, 2, 6, 3),
         [["run", "theorem1"]]),
        ("theorem1-split", SPLIT, [["run", "theorem1"]])]


def _without_wall_time(obj):
    if isinstance(obj, dict):
        return {k: _without_wall_time(v) for k, v in obj.items()
                if k != "wall_time"}
    if isinstance(obj, list):
        return [_without_wall_time(v) for v in obj]
    return obj


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _invoke(main, argv, report: Path) -> str:
    if report.exists():
        report.unlink()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = str(main(argv + ["--out", str(report)]))
        except Exception as exc:  # an uncaught error is a result too
            code = f"raised:{type(exc).__name__}"
    digest = "-"
    if report.exists():
        doc = _without_wall_time(json.loads(report.read_text()))
        digest = _sha(json.dumps(doc, sort_keys=True).encode())
    return f"exit={code} report={digest} stdout={_sha(out.getvalue().encode())}"


def _commands(d: int, adversarial: bool):
    cmds = [["mvie"], ["lowest"], ["verify-hypothesis"],
            ["verify-hypothesis", "--k", "2"], ["run", "ell"],
            ["run", "colell"], ["run", "theorem1"]]
    if d < 3:
        cmds += [["run", "saxuso"]]
    if adversarial:
        cmds += [c + ["--skip-hypothesis-check"]
                 for c in cmds if c[0] == "run" and c[1] != "ell"]
    return cmds


def _outcome_digest(outcomes, error) -> str:
    h = hashlib.sha256()
    for out in outcomes:
        E = out.ellipsoid
        for arr in (E.shape, E.center, [out.objective, out.kkt_residual]):
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        active = np.asarray(out.active_constraints, dtype=np.int64)
        h.update(np.int64(active.size).tobytes() + active.tobytes())
    name = "-" if error is None else type(error).__name__
    h.update(name.encode())
    return f"outcomes={len(outcomes)} error={name} bits={h.hexdigest()}"


@contextlib.contextmanager
def _recorded(module, name, record):
    """Calls record(result) on every call of module.name."""
    call = getattr(module, name)

    def recorded(*args):
        out = call(*args)
        record(out)
        return out

    setattr(module, name, recorded)
    try:
        yield
    finally:
        setattr(module, name, call)


def _recorded_lps(geometry, record):
    """Calls record(status, x, fun) on every LP that geometry solves."""
    # the row duals, where returned, are not read
    return _recorded(geometry, "_lp", lambda out: record(*out[:3]))


@contextlib.contextmanager
def _counted_work():
    """Counts the LPs and the stacked Newton systems, with their total rows,
    solved inside the block; yields the counts as a dict."""
    from quanthelly import geometry, solvers

    work = {"lps": 0, "newton_systems": 0, "newton_rows": 0}

    def lp(*_):
        work["lps"] += 1

    def newton(delta):
        work["newton_systems"] += 1
        work["newton_rows"] += len(delta)

    with _recorded_lps(geometry, lp), \
            _recorded(solvers, "_newton_directions", newton):
        yield work


def _work_line(work) -> str:
    return " ".join(f"{key}={count}" for key, count in work.items())


def _lp_digest(stack) -> str:
    from quanthelly import geometry

    h = hashlib.sha256()
    count = 0

    def record(status, x, fun):
        nonlocal count
        count += 1
        h.update(np.int64(status).tobytes())
        for value in (x, fun):
            h.update(b"-" if value is None else
                     np.ascontiguousarray(value, dtype=np.float64).tobytes())

    with _recorded_lps(geometry, record):
        for P in stack:
            geometry.chebyshev_center(P)
    return f"lps={count} bits={h.hexdigest()}"


def _lone_solves(solve, polytopes):
    """(outcomes, error) of solve on each polytope in turn, up to the first
    that raises."""
    from quanthelly.errors import QuantHellyError

    outcomes = []
    for P in polytopes:
        try:
            outcomes.append(solve(P))
        except QuantHellyError as exc:
            return outcomes, exc
    return outcomes, None


def _stack_bits(inst, stack):
    """The ``bits`` lines of one solver-bit stack."""
    from quanthelly.solvers import (SolverSettings, lift_to_target,
                                    lowest_ellipsoid, mvie, mvie_batch)

    for budget in ("default", FAILING_BUDGET):
        settings = SolverSettings() if budget == "default" \
            else SolverSettings(max_iterations=budget)
        mvies = mvie_batch(stack, settings)
        for name, batch in (
                ("mvie_batch", mvies),
                ("lowest_ellipsoid_batch", lift_to_target(
                    stack, mvies, inst.target_volume, settings))):
            print(f"bits {name} d={inst.dimension} n={len(stack)} "
                  f"budget={budget}: {_outcome_digest(*batch)}",
                  flush=True)
    mismatched = list(stack)    # every 4th polytope by its successor
    for i in range(3, len(stack) - 1, 4):
        mismatched[i] = stack[i + 1]
    batch = lift_to_target(mismatched, mvie_batch(stack),
                           inst.target_volume)
    print(f"bits lift_to_target mismatched d={inst.dimension} "
          f"n={len(stack)}: {_outcome_digest(*batch)}", flush=True)
    lone = stack[:LONE_SOLVES]
    for name, solve in (
            ("mvie", mvie),
            ("lowest_ellipsoid",
             lambda P: lowest_ellipsoid(P, inst.target_volume))):
        print(f"bits {name} d={inst.dimension} n={len(lone)}: "
              f"{_outcome_digest(*_lone_solves(solve, lone))}", flush=True)


def _solver_bits():
    from quanthelly.helly import colorful_selections, selection_intersection
    from quanthelly.instances import GeneratorSpec, generate

    for *spec, k in SOLVER_STACKS:
        inst = generate(GeneratorSpec(*spec))
        stack = [selection_intersection(inst.classes, sel)
                 for sel in colorful_selections(inst.classes, k)]
        print(f"lp chebyshev_center d={inst.dimension} n={len(stack)}: "
              f"{_lp_digest(stack)}", flush=True)
        with _counted_work() as work:
            _stack_bits(inst, stack)
        print(f"work solver stack d={inst.dimension} n={len(stack)}: "
              f"{_work_line(work)}", flush=True)


def _compare(src: str, other: str) -> int:
    """Runs the script on src and on other side by side and prints whether
    their outputs are identical; 1 when they differ or a run fails."""
    runs = [subprocess.Popen([sys.executable, __file__, "--src", path],
                             stdout=subprocess.PIPE, text=True)
            for path in (src, other)]
    outputs = [run.communicate()[0].splitlines() for run in runs]
    failed = [path for path, run in zip((src, other), runs) if run.returncode]
    if failed:
        print(f"failed on {', '.join(failed)}")
        return 1
    ours, theirs = outputs
    if ours == theirs:
        print(f"identical ({len(ours)} lines)")
        return 0
    for line in difflib.unified_diff(ours, theirs, src, other, lineterm=""):
        print(line)
    return 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--src", default=str(ROOT / "src"),
                   help="source directory the quanthelly package is "
                        "imported from (default: this checkout's src/)")
    p.add_argument("--against", metavar="SRC",
                   help="compare this script's output on --src with its "
                        "output on SRC, another checkout's src/ directory")
    args = p.parse_args(argv)
    if args.against is not None:
        return _compare(args.src, args.against)
    sys.path.insert(0, args.src)
    from quanthelly.cli import main as cli_main
    from quanthelly.instances import (GeneratorSpec, emit_instance, generate,
                                      parse_instance)

    inputs = [(f"c10-{i}", GeneratorSpec(*spec), False)
              for i, spec in enumerate(CRITERION_10)]
    inputs.append(("adversarial",
                   GeneratorSpec("adversarial", 2, 2, 5, 2), True))
    inputs += [(f"{name}-s{seed}", GeneratorSpec(kind, seed, d, nc, mm), False)
               for name, kind, d, nc, mm in WORKLOAD_SPECS
               for seed in WORKLOAD_SEEDS]
    inputs += [("near-target", NEAR_TARGET, False),
               ("near-target-6", NEAR_TARGET_6, False)]
    inputs += [(label, GeneratorSpec(*spec), False) for label, spec in TIES]
    inputs += [(label, spec if isinstance(spec, dict) else GeneratorSpec(*spec),
                False) for label, spec, _ in ONLY]
    only = {label: cmds for label, _, cmds in ONLY}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for label, spec, adversarial in inputs:
            path = tmp / f"{label}.json"
            if isinstance(spec, dict):      # an instance document as is
                path.write_text(json.dumps(spec))
                inst = parse_instance(path)
            else:
                inst = generate(spec)
            text = emit_instance(inst, path)
            again = emit_instance(parse_instance(path))
            print(f"{label} instance: emit={_sha(text.encode())} "
                  f"roundtrip={_sha(again.encode())}", flush=True)
            for cmd in only.get(label) or _commands(inst.dimension,
                                                    adversarial):
                argv = cmd[:2] + [str(path)] + cmd[2:] if cmd[0] == "run" \
                    else cmd[:1] + [str(path)] + cmd[1:]
                with _counted_work() as work:
                    line = _invoke(cli_main, argv, tmp / "report.json")
                print(f"{label} {' '.join(cmd)}: {line}", flush=True)
                if any(label.startswith(prefix) and cmd == counted
                       for prefix, counted in WORK):
                    print(f"{label} {' '.join(cmd)} work: {_work_line(work)}",
                          flush=True)
    _solver_bits()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
