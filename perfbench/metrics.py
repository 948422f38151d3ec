"""Turning per-instance records and spans into the benchmark's metrics."""
from __future__ import annotations

import math
import statistics

# Percentiles the tail metric may report, lowest first.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10


def tail_percentile(samples) -> tuple:
    """(value, percentile, samples beyond it, rule met) for the highest
    ladder percentile with at least TAIL_BEYOND samples ranked above it.

    Percentiles use the nearest-rank definition.  When even the median has
    fewer than TAIL_BEYOND samples above it, the median is returned with the
    rule marked as not met, so the tail then equals the p50 metric.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    best = None
    for q in TAIL_LADDER:
        rank = max(1, math.ceil(n * q / 100.0))
        beyond = n - rank
        if beyond >= TAIL_BEYOND:
            best = (xs[rank - 1], q, beyond, True)
    if best is None:
        best = (statistics.median(xs), 50.0, n - math.ceil(n * 0.5), False)
    return best


def failure_reason(rc, error, problems, drift):
    """Why one run of an instance failed, or None when it succeeded.

    A run fails on an exception, a non-zero exit code, a failed independent
    check, or a report digest or exact work count (``drift`` names them)
    that differs from the first run of the same instance.
    """
    if error is not None:
        return f"exception: {error}"
    if rc != 0:
        return f"exit code {rc}"
    if problems:
        return "check failed: " + "; ".join(problems)
    if drift:
        return f"{' and '.join(drift)} differ from the instance's first run"
    return None


def end_to_end(records, seconds: float) -> tuple:
    """Metrics of the untraced run from the records of its timed window,
    and the instance-latency figures that are printed but not gated.

    The window is the first ``seconds`` of program time.  The instance that
    straddles its end counts for the share of its run inside the window, so
    throughput does not jump when a speed-up moves a long instance across
    the end of the window.

    Latency is gated per selection (instance time over the selections it
    swept): a pipeline run holds only 5 to 15 instances whose sweeps differ
    many-fold, too few for a steady median of instance time.
    """
    done = 0.0
    instances = selections = 0.0
    for r in records:
        share = min(1.0, max(0.0, (seconds - done) / r["seconds"]))
        done += r["seconds"]
        if r["failure"] is None:
            instances += share
            selections += share * r["selections"]
    per_selection = [1e3 * r["seconds"] / r["selections"] for r in records]
    sel_tail, sel_q, sel_beyond, sel_met = tail_percentile(per_selection)
    inst_tail, q, beyond, met = tail_percentile([r["seconds"] for r in records])
    return {
        "instances_per_s": instances / seconds,
        "selections_per_s": selections / seconds,
        "selection_ms_p50": statistics.median(per_selection),
        "selection_ms_tail": sel_tail,
    }, {
        "samples": len(records),
        "selection_tail": {"percentile": sel_q, "beyond": sel_beyond,
                           "rule_met": sel_met},
        "instance_s_p50": statistics.median(r["seconds"] for r in records),
        "instance_s_tail": inst_tail,
        "instance_tail": {"percentile": q, "beyond": beyond, "rule_met": met},
    }


# Exact per-instance work counts; two runs of one instance must agree on them.
EXACT_COUNTS = ("solvers.mvie.calls", "solvers.lowest.calls",
                "geometry.lp.calls", "helly.sweep.selections",
                "solvers.mvie.repeat_frac")


def layer_metrics(tracer, wall: float) -> dict:
    """Per-layer metrics of one traced instance run."""
    t = tracer.layer_times()

    def get(label, field):
        return t.get(label, {}).get(field, 0)

    def self_of(prefix):
        return sum(row["self_s"] for label, row in t.items()
                   if label.startswith(prefix))

    mvie_calls = get("solvers.mvie", "calls")
    return {
        "solvers.mvie.calls": mvie_calls,
        "solvers.mvie.self_s": get("solvers.mvie", "self_s"),
        "solvers.mvie.repeat_frac": (tracer.mvie_repeats / mvie_calls
                                     if mvie_calls else 0.0),
        "solvers.lowest.calls": get("solvers.lowest_ellipsoid", "calls"),
        "solvers.lowest.self_s": get("solvers.lowest_ellipsoid", "self_s"),
        "geometry.lp.calls": get("geometry.lp", "calls"),
        "geometry.lp.s": get("geometry.lp", "incl_s"),
        "helly.hypothesis.s": get("helly.verify_colorful_hypothesis", "incl_s"),
        "helly.sweep.selections": tracer.yields.get(
            "helly.colorful_selections", 0),
        "helly.self_s": self_of("helly."),
        "helly.translate.s": get("helly.colorful_helly_witness", "incl_s"),
        "john.critical.self_s": get("john.critical_subfamily", "self_s"),
        "john.decomposition.s": get("john.john_decomposition", "incl_s"),
        "instances.parse.s": get("instances.parse_instance", "incl_s"),
        "instances.emit.s": get("instances.emit_report", "incl_s"),
        "cli.self_s": self_of("cli."),
        "trace.unattributed_s": wall - tracer.root_seconds(),
    }


def per_layer(runs) -> dict:
    """Per-layer metrics per traced run, from the runs' layer_metrics."""
    totals = {k: sum(m[k] for m in runs) for k in runs[0]}
    values = {k: v / len(runs) for k, v in totals.items()}
    mvie_calls = totals["solvers.mvie.calls"]
    values["solvers.mvie.repeat_frac"] = sum(
        m["solvers.mvie.repeat_frac"] * m["solvers.mvie.calls"]
        for m in runs) / mvie_calls if mvie_calls else 0.0
    for layer, seconds in (("solvers.mvie", "solvers.mvie.self_s"),
                           ("solvers.lowest", "solvers.lowest.self_s"),
                           ("geometry.lp", "geometry.lp.s")):
        calls = totals[f"{layer}.calls"]
        values[f"{layer}.ms_per_call"] = (1e3 * totals[seconds] / calls
                                          if calls else 0.0)
    return values
