#!/usr/bin/env python3
"""Digests of the CLI's reports over a fixed set of invocations.

    python3 scripts/report_digests.py > digests.txt
    python3 scripts/report_digests.py --src /path/to/other/checkout/src > other.txt
    diff digests.txt other.txt

Runs ``mvie``, ``lowest``, ``verify-hypothesis`` (at the instance's class
count and at k=2) and ``run colell/theorem1/saxuso/ell`` in-process on three
input sets, generated here from fixed seeds:

* the five criterion-10 fixtures of ``tests/test_acceptance.py``;
* one adversarial instance, whose hypothesis fails at k=4, with the pipelines
  also run under ``--skip-hypothesis-check`` (exit 2 and exit 3 paths);
* three instances of each benchmark workload's generator spec
  (``perfbench/workloads.py``).  At d=3, ``run theorem1`` and ``run saxuso``
  are left out: their 6-selection sweeps hold 377-1002 selections per
  instance and would take most of the run time.

Each input first prints one line with the sha256 of its emitted instance
text and of that text parsed and emitted again.  Each invocation then prints
one line: its label, the exit code, the sha256 of the report with every
``wall_time`` key removed ("-" when no report was written) and the sha256 of
its standard output.  Two checkouts that generate, parse and emit the same
instance bytes, and whose reports are byte-identical apart from
``wall_time``, print identical files.
"""
import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CRITERION_10 = [("common-ball", 1, 2, 5, 2), ("common-ball", 2, 2, 5, 3),
                ("common-ball", 3, 2, 5, 1), ("nested-boxes", 4, 2, 5, 1),
                ("tangent-halfspaces", 5, 2, 5, 1)]
# (name, kind, dimension, classes, members) of each benchmark workload
WORKLOAD_SPECS = [("theorem1-d2", "common-ball", 2, 6, 3),
                  ("colell-d3", "common-ball", 3, 9, 2),
                  ("ell-d2", "tangent-halfspaces", 2, 6, 2)]
WORKLOAD_SEEDS = (1, 2, 3)


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
            ["run", "colell"]]
    if d < 3:
        cmds += [["run", "theorem1"], ["run", "saxuso"]]
    if adversarial:
        cmds += [c + ["--skip-hypothesis-check"]
                 for c in cmds if c[0] == "run" and c[1] != "ell"]
    return cmds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--src", default=str(ROOT / "src"),
                   help="source directory the quanthelly package is "
                        "imported from (default: this checkout's src/)")
    args = p.parse_args(argv)
    sys.path.insert(0, args.src)
    from quanthelly.cli import main as cli_main
    from quanthelly.instances import (GeneratorSpec, emit_instance, generate,
                                      parse_instance)

    inputs = [(f"c10-{i}", GeneratorSpec(*spec), False)
              for i, spec in enumerate(CRITERION_10)]
    inputs.append(("adversarial",
                   GeneratorSpec("adversarial", 2, 2, 5, 2, check_k=4), True))
    inputs += [(f"{name}-s{seed}", GeneratorSpec(kind, seed, d, nc, mm), False)
               for name, kind, d, nc, mm in WORKLOAD_SPECS
               for seed in WORKLOAD_SEEDS]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for label, spec, adversarial in inputs:
            inst = generate(spec)
            path = tmp / f"{label}.json"
            text = emit_instance(inst, path)
            again = emit_instance(parse_instance(path))
            print(f"{label} instance: emit={_sha(text.encode())} "
                  f"roundtrip={_sha(again.encode())}", flush=True)
            for cmd in _commands(spec.dimension, adversarial):
                argv = cmd[:2] + [str(path)] + cmd[2:] if cmd[0] == "run" \
                    else cmd[:1] + [str(path)] + cmd[1:]
                line = _invoke(cli_main, argv, tmp / "report.json")
                print(f"{label} {' '.join(cmd)}: {line}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
