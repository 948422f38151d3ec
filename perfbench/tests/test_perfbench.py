"""Tests of the benchmark's own code (run: python3 -m pytest perfbench/tests)."""
import contextlib
import dataclasses
import io
import json
import sys
import types
from pathlib import Path

import pytest

import check
import metrics
import spans
import workloads
from quanthelly import GeneratorSpec, emit_instance, generate
from quanthelly import cli

ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# tail percentile


@pytest.mark.parametrize("n, expected", [
    (250, (238, 95.0, 12, True)),   # p99 would leave only 2 beyond
    (100, (90, 90.0, 10, True)),
    (20, (10, 50.0, 10, True)),
    (15, (8, 50.0, 7, False)),      # too few samples: median, rule not met
    (4, (2.5, 50.0, 2, False)),
    (1, (1, 50.0, 0, False)),
])
def test_tail_percentile_rule(n, expected):
    samples = list(range(n, 0, -1))  # order must not matter
    assert metrics.tail_percentile(samples) == expected


# ---------------------------------------------------------------------------
# spans and self time


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t

    def advance(self, dt):
        self.t += dt


@pytest.fixture
def fake_layer():
    module = types.ModuleType("quanthelly.benchfake")
    exec(
        "def outer(clock):\n"
        "    clock.advance(1.0)\n"
        "    inner(clock)\n"
        "    inner(clock)\n"
        "    clock.advance(0.5)\n"
        "def inner(clock):\n"
        "    clock.advance(2.0)\n"
        "def recursive(clock, n):\n"
        "    clock.advance(1.0)\n"
        "    if n:\n"
        "        recursive(clock, n - 1)\n",
        module.__dict__)
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_self_time_subtracts_nested_children(fake_layer):
    clock = FakeClock()
    tracer = spans.Tracer(layers=("benchfake",), extra={}, clock=clock.now)
    with tracer:
        fake_layer.outer(clock)
        fake_layer.recursive(clock, 2)
    t = tracer.layer_times()
    assert t["benchfake.outer"] == {"calls": 1, "incl_s": 5.5, "self_s": 1.5}
    assert t["benchfake.inner"] == {"calls": 2, "incl_s": 4.0, "self_s": 4.0}
    # nested calls of one label count their time once
    assert t["benchfake.recursive"] == {"calls": 3, "incl_s": 3.0, "self_s": 3.0}
    assert tracer.root_seconds() == 8.5
    parents = [tracer.spans[p][0] if p >= 0 else None
               for _, _, _, p in tracer.spans]
    assert parents == [None, "benchfake.outer", "benchfake.outer",
                       None, "benchfake.recursive", "benchfake.recursive"]


def _namespaces():
    return {name: dict(vars(m)) for name, m in sys.modules.items()
            if name == "quanthelly" or name.startswith("quanthelly.")}


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    import quanthelly
    from quanthelly import helly, john, solvers, geometry
    from scipy.optimize import linprog
    original_mvie = solvers.mvie
    before = _namespaces()
    tracer = spans.Tracer()
    with tracer:
        for module in (quanthelly, solvers, helly, john, cli):
            assert module.mvie is not original_mvie
            assert module.mvie.__wrapped__ is original_mvie
        for module in (geometry, helly):
            assert module.linprog.__wrapped__ is linprog
        for name, namespace in _namespaces().items():
            for value in namespace.values():
                assert value is not original_mvie, name
    after = _namespaces()
    assert after.keys() == before.keys()
    for name in before:
        assert after[name].keys() == before[name].keys()
        for key, value in before[name].items():
            assert after[name][key] is value, (name, key)

    # an untraced run after a traced one records nothing and gives the
    # same report
    inst = tmp_path / "inst.json"
    emit_instance(generate(GeneratorSpec("common-ball", 3, 2, 5, 1)), inst)
    digests = []
    for traced in (True, False):
        out = tmp_path / f"report-{traced}.json"
        argv = ["run", "colell", str(inst), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            if traced:
                with tracer:
                    assert cli.main(argv) == 0
            else:
                n_spans = len(tracer.spans)
                assert cli.main(argv) == 0
                assert len(tracer.spans) == n_spans
        digests.append(check.report_digest(json.loads(out.read_text())))
    assert digests[0] == digests[1]
    t = tracer.layer_times()
    assert t["solvers.mvie"]["calls"] >= 1 and t["geometry.lp"]["calls"] >= 1
    assert t["cli.main"]["calls"] == 1


# ---------------------------------------------------------------------------
# failure counting


def test_failure_reasons():
    ok = dict(rc=0, error=None, problems=[], drift=[])
    assert metrics.failure_reason(**ok) is None
    assert "exception" in metrics.failure_reason(**dict(ok, error="Boom: x"))
    assert "exit code 3" in metrics.failure_reason(**dict(ok, rc=3))
    assert "check failed" in metrics.failure_reason(
        **dict(ok, problems=["witness volume too small"]))
    assert "digest" in metrics.failure_reason(**dict(ok, drift=["digest"]))


def test_failed_instances_count_against_throughput_not_latency():
    records = [
        {"seconds": 1.0, "selections": 10, "failure": None},
        {"seconds": 3.0, "selections": 30, "failure": "exit code 2"},
        {"seconds": 2.0, "selections": 20, "failure": None},
    ]
    values, latency = metrics.end_to_end(records, seconds=6.0)
    assert values["instances_per_s"] == pytest.approx(2 / 6.0)
    assert values["selections_per_s"] == pytest.approx(30 / 6.0)
    assert values["selection_ms_p50"] == pytest.approx(100.0)
    assert latency["instance_s_p50"] == 2.0
    assert latency["samples"] == 3
    assert not latency["instance_tail"]["rule_met"]
    # the instance straddling the end of the window counts for its share
    values, _ = metrics.end_to_end(records, seconds=5.0)
    assert values["instances_per_s"] == pytest.approx(1.5 / 5.0)
    assert values["selections_per_s"] == pytest.approx(20 / 5.0)


# ---------------------------------------------------------------------------
# independent report checks


def _run(tmp_path, pipeline, spec):
    inst_path = tmp_path / "inst.json"
    emit_instance(generate(spec), inst_path)
    out = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", pipeline, str(inst_path), "--out", str(out)]) == 0
    return json.loads(inst_path.read_text()), json.loads(out.read_text())


def test_check_accepts_colell_report_and_rejects_tampering(tmp_path):
    inst, report = _run(tmp_path, "colell",
                        GeneratorSpec("common-ball", 3, 2, 5, 1))
    assert check.report_problems("colell", inst, report) == []

    moved = json.loads(json.dumps(report))
    moved["report"]["witness_ellipsoid"]["center"][0] += 10.0
    assert any("leaves member" in p
               for p in check.report_problems("colell", inst, moved))

    shrunk = json.loads(json.dumps(report))
    shape = shrunk["report"]["witness_ellipsoid"]["shape"]
    shrunk["report"]["witness_ellipsoid"]["shape"] = [
        [0.5 * x for x in row] for row in shape]
    problems = check.report_problems("colell", inst, shrunk)
    assert any("below target" in p for p in problems)
    assert any("differs from det-based" in p for p in problems)

    del shrunk["report"]["witness_volume"]
    assert check.report_problems("colell", inst, shrunk)[0].startswith(
        "malformed report")

    # the digest ignores wall_time only
    timed = json.loads(json.dumps(report))
    timed["report"]["wall_time"] = 123.0
    assert check.report_digest(timed) == check.report_digest(report)
    assert check.report_digest(moved) != check.report_digest(report)


def test_check_ell_report(tmp_path):
    inst, report = _run(tmp_path, "ell",
                        GeneratorSpec("tangent-halfspaces", 1, 2, 6, 2))
    assert check.report_problems("ell", inst, report) == []
    bad = json.loads(json.dumps(report))
    bad["report"]["selected_members"] = list(range(6))
    bad["report"]["volume_gap"] = 1e-3
    problems = check.report_problems("ell", inst, bad)
    assert any("more than" in p for p in problems)
    assert any("volume_gap" in p for p in problems)


# ---------------------------------------------------------------------------
# instance pools


def test_pool_is_seeded_and_stratified(tmp_path):
    small = dataclasses.replace(workloads.WORKLOADS["colell-d3"], pool_size=8)
    a = workloads.build_pool(small, 5, tmp_path)
    again = workloads.build_pool(small, 5, tmp_path)
    other = workloads.build_pool(small, 6, tmp_path)
    assert [i.seed for i in a] == [i.seed for i in again]
    assert [i.seed for i in a] != [i.seed for i in other]
    # every seed gets the same sequence of class-size profiles
    assert ([sorted(i.sizes) for i in a] == [sorted(i.sizes) for i in other]
            == [list(p) for p in workloads.size_schedule(small, 8)])
    assert all(i.path.exists() for i in a)
    assert workloads.van_der_corput(1) == 0.5
    assert workloads.van_der_corput(6) == 0.375


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layer = {m["name"] for m in spec["per_layer"]}
    printed = set(metrics.per_layer([metrics.layer_metrics(spans.Tracer(), 0.0)]))
    printed.add("trace.overhead_frac")
    assert printed == layer
    predicted = json.loads((ROOT / "perfbench" / "design.json").read_text())
    named = {name for p in predicted["predictions"] for name in p["layer_metrics"]}
    assert named == layer
    e2e = {m["name"] for m in spec["end_to_end"]}
    for p in predicted["predictions"]:
        assert set(p["moves"]) <= e2e
        assert set(p["a_lot_on"] + p["little_on"]) <= set(workloads.WORKLOADS)
