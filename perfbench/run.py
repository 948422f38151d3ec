#!/usr/bin/env python3
"""Benchmark of the quanthelly command-line pipelines.

    python3 perfbench/run.py --workload colell-d3 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Set-up generates the workload's instance files from ``--seed``
(see ``workloads.py``) and warms the process up.  The run is one closed-loop
client in one process: it calls ``quanthelly.cli.main(["run", pipeline,
instance, "--out", report])`` on one instance after another, with the
default ``--threads 1``, until the program has run for ``--seconds``, and
checks every report independently (``check.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
instance untraced and then traced (``spans.py``) and prints per-layer metrics
per traced run.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
starting with ``detail`` holds the environment record, the instance seeds,
the failing instances, and per-run digests, witness classes and exact work
counts; ``compare.py`` diffs two such outputs.
"""
import time

_T0 = time.perf_counter()  # set-up time starts before the heavy imports

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import check
import metrics
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
# Extra set-ups in fresh interpreters; set-up time is the median of these
# and the main process's own set-up.
SETUP_PROBES = 2
# No untimed repeat starts once the process has run this long, so a run
# stays well inside its time limit.
REPEAT_DEADLINE_S = 120.0


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time one set-up and print it (used by the "
                        "set-up measurement)")
    return p.parse_args(argv)


def _import_program():
    sys.path.insert(0, str(SRC))
    try:
        import quanthelly.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import quanthelly from {SRC}: {exc}")
    import quanthelly
    if SRC.resolve() not in Path(quanthelly.__file__).resolve().parents:
        raise SystemExit(f"perfbench: quanthelly imported from "
                         f"{quanthelly.__file__}, not from {SRC}")


class Bench:
    """One benchmark process: the instance pool, runs and their checks."""

    def __init__(self, workload, seed, directory):
        import quanthelly.cli
        import workloads
        self.cli = quanthelly.cli
        self.workloads = workloads
        self.workload = workload
        self.directory = directory
        self.pool = workloads.build_pool(workload, seed, directory)
        self.instance_docs = {i.seed: json.loads(i.path.read_text())
                              for i in self.pool}
        self.first = {}  # seed -> digest and counts of its first run
        self._warm_up()

    def _call(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                # looked up on the module so a traced run sees the wrapper
                return self.cli.main(argv), None, buf.getvalue()
            except Exception as exc:  # the run failed; record it and go on
                return None, f"{type(exc).__name__}: {exc}", buf.getvalue()

    def _warm_up(self):
        """Loads what the first CLI call loads lazily (LP and barrier code,
        argparse, canonical JSON) with the solver subcommands, not a pipeline
        run, so that no instance of the timed loop has run before."""
        path = str(self.pool[0].path)
        out = str(self.directory / "warm-up.json")
        for cmd in ("mvie", "lowest"):
            rc, error, text = self._call([cmd, path, "--out", out])
            if rc != 0:
                raise RuntimeError(f"warm-up '{cmd}' failed: rc={rc} "
                                   f"{error or ''} {text.strip()}")

    def run(self, inst, traced=False):
        """Runs one instance and checks it; returns its record."""
        out = self.directory / f"report-{inst.seed}.json"
        argv = ["run", self.workload.pipeline, str(inst.path), "--out", str(out)]
        tracer = Tracer() if traced else contextlib.nullcontext()
        with tracer:
            start = time.perf_counter()
            rc, error, text = self._call(argv)
            seconds = time.perf_counter() - start
        rec = {"seed": inst.seed, "seconds": seconds,
               "selections": inst.selections, "digest": None, "witness": None}
        problems = []
        if rc == 0 and error is None:
            try:
                report = json.loads(out.read_text())
            except (OSError, ValueError) as exc:
                problems = [f"unreadable report: {exc}"]
            else:
                problems = check.report_problems(
                    self.workload.pipeline, self.instance_docs[inst.seed], report)
                rec["digest"] = check.report_digest(report)
                rec["witness"] = check.witness_class(report)
                if not problems:
                    rec["selections"] += self.workloads.result_selections(
                        self.workload, inst.sizes, report)
        if traced and error is None:
            rec["layers"] = metrics.layer_metrics(tracer, seconds)
            rec["counts"] = {k: rec["layers"][k] for k in metrics.EXACT_COUNTS}
        first = self.first.setdefault(inst.seed, {})
        drift = []
        for field in ("digest", "counts"):
            if rec.get(field) is not None:
                if first.setdefault(field, rec[field]) != rec[field]:
                    drift.append(field)
        rec["failure"] = metrics.failure_reason(rc, error, problems, drift)
        if rec["failure"] is not None and rc not in (0, None):
            rec["output"] = text.strip()[-400:]
        return rec

    def cycle(self, seconds, step):
        """Calls step(instance) on the pool in order, round and round, until
        the program has run for ``seconds``; step returns the seconds it ran
        the program, so the benchmark's own checks are not counted."""
        busy = 0.0
        i = 0
        while busy < seconds:
            busy += step(self.pool[i % len(self.pool)])
            i += 1

    def repeat_quickest(self, records, traced=False):
        """Runs the quickest successful instance once more, untimed, when no
        instance came round twice in the window, so that every run checks
        that an instance gives the same report (and counts) twice."""
        ok = [r for r in records if r["failure"] is None
              and (not traced or "counts" in r)]
        seeds = [r["seed"] for r in ok]
        if not ok or len(set(seeds)) < len(seeds):
            return []
        quick = min(ok, key=lambda r: r["seconds"])
        if time.perf_counter() - _T0 + quick["seconds"] > REPEAT_DEADLINE_S:
            return []
        inst = next(i for i in self.pool if i.seed == quick["seed"])
        return [self.run(inst, traced)]


def _untraced(bench, seconds):
    records, rss_mb = [], []

    def one(inst):
        records.append(bench.run(inst))
        if not rss_mb:
            # peak so far: set-up plus the pool's first (median-size) slot,
            # the same work in every run however many instances it completes
            rss_mb.append(resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        return records[-1]["seconds"]

    bench.cycle(seconds, one)
    values, latency = metrics.end_to_end(records, seconds)
    values["peak_rss_mb"] = rss_mb[0]
    return records + bench.repeat_quickest(records), values, latency


def _traced(bench, seconds):
    records = []

    def pair(inst):
        plain, traced = bench.run(inst), bench.run(inst, traced=True)
        records.extend([plain, traced])
        if traced["failure"] is None:
            traced["untraced_s"] = plain["seconds"]
        return plain["seconds"] + traced["seconds"]

    bench.cycle(seconds, pair)
    traced = [r for r in records if "untraced_s" in r]
    records += bench.repeat_quickest(traced, traced=True)
    if not traced:
        return records, {}, {}
    values = metrics.per_layer([r["layers"] for r in traced])
    values["trace.overhead_frac"] = (sum(r["seconds"] for r in traced)
                                     / sum(r["untraced_s"] for r in traced)
                                     - 1.0)
    return records, values, {"traced_runs": len(traced)}


def _environment(workload_seed, pool):
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "quanthelly").rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0")
        src.update(path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                   "NUMEXPR_NUM_THREADS")
    return {
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "workload_seed": workload_seed,
        "instance_seeds": [i.seed for i in pool],
    }


def _setup_seconds(args, own):
    """Median of this process's set-up and SETUP_PROBES fresh ones."""
    samples = [own]
    for _ in range(SETUP_PROBES):
        res = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"],
            capture_output=True, text=True, timeout=170, check=True)
        samples.append(json.loads(res.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples), samples


def _units(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload '{args.workload}'; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    directory = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    directory.mkdir(parents=True)
    try:
        bench = Bench(workload, args.seed, directory)
        setup_own = time.perf_counter() - _T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_own}))
            return 0
        units = _units(args.trace)
        if args.trace:
            runs, values, info = _traced(bench, args.seconds)
        else:
            setup_s, setup_samples = _setup_seconds(args, setup_own)
            runs, values, info = _untraced(bench, args.seconds)
            info["setup_samples_s"] = setup_samples
        failed = [r for r in runs if r["failure"] is not None]
        attempted = len(runs)
        if not args.trace:
            values["certified_frac"] = (attempted - len(failed)) / attempted
            values["setup_s"] = setup_s
        if set(values) != set(units) and not failed:
            print(f"perfbench: metrics {sorted(values)} do not match "
                  f"BENCHMARK.json {sorted(units)}", file=sys.stderr)
        detail = {
            "workload": workload.name, "trace": args.trace,
            "environment": _environment(args.seed, bench.pool), **info,
            "failing": [{k: r.get(k) for k in ("seed", "failure", "output")}
                        for r in failed],
            "instances": [{k: r.get(k) for k in
                           ("seed", "seconds", "selections", "witness",
                            "digest", "counts")} for r in runs],
        }
        print("detail " + json.dumps(detail, sort_keys=True))
        for name in sorted(values):
            print(f"metric {name} = {values[name]:.6g} {units.get(name, '?')}")
        if not args.trace:
            print(f"info instance_s_p50 = {info['instance_s_p50']:.6g} s, "
                  f"instance_s_tail = {info['instance_s_tail']:.6g} s at "
                  f"p{info['instance_tail']['percentile']:g} of "
                  f"{info['samples']} instances")
        print(f"attempted {attempted} failed {len(failed)} "
              f"failed_frac {len(failed) / attempted:.6g}")
        print(json.dumps({
            "correct": not failed and set(values) == set(units),
            "attempted": attempted, "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units.get(k, "?")}
                        for k, v in sorted(values.items())}}))
        return 0
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it


if __name__ == "__main__":
    sys.exit(main())
