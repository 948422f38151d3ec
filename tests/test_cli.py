import contextlib
import io
import json
import math

import pytest

from quanthelly import GeneratorSpec, emit_instance, generate
from quanthelly import cli
from quanthelly.cli import (EXIT_HYPOTHESIS, EXIT_INPUT, EXIT_NUMERICAL,
                            EXIT_OK, main)
from quanthelly.errors import (DegenerateInput, DimensionMismatch,
                               HypothesisViolated, InstanceError,
                               QuantHellyError)


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture
def square_instance(tmp_path):
    doc = {"dimension": 2, "target_volume": math.pi, "classes": [[[
        {"a": [1.0, 0.0], "b": 1.0}, {"a": [-1.0, 0.0], "b": 1.0},
        {"a": [0.0, 1.0], "b": 1.0}, {"a": [0.0, -1.0], "b": 1.0}]]]}
    path = tmp_path / "square.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def adversarial_instance(tmp_path):
    inst = generate(GeneratorSpec("adversarial", 2, 2, 5, 2, check_k=4))
    path = tmp_path / "adv.json"
    emit_instance(inst, path)
    return str(path)


@pytest.fixture
def nested_instance(tmp_path):
    inst = generate(GeneratorSpec("nested-boxes", 3, 2, 5, 1))
    path = tmp_path / "nested.json"
    emit_instance(inst, path)
    return str(path)


def test_mvie_subcommand(square_instance, tmp_path):
    out_path = tmp_path / "rep.json"
    code, out = run_cli(["mvie", square_instance, "--out", str(out_path)])
    assert code == EXIT_OK
    assert "volume=3.14159" in out
    rep = json.loads(out_path.read_text())
    assert rep["tool"] == "quanthelly"
    assert rep["command"] == "mvie"
    assert rep["report"]["volume"] == pytest.approx(math.pi, rel=1e-6)


def test_lowest_subcommand(square_instance):
    code, out = run_cli(["lowest", square_instance, "--volume", "1.0"])
    assert code == EXIT_OK
    assert "height=" in out


def test_verify_hypothesis_pass(square_instance):
    code, out = run_cli(["verify-hypothesis", square_instance, "--k", "1",
                         "--out", "/dev/null"])
    assert code == EXIT_OK
    assert "hypothesis holds" in out


def test_verify_hypothesis_violated(adversarial_instance):
    code, out = run_cli(["verify-hypothesis", adversarial_instance,
                         "--k", "4", "--out", "/dev/null"])
    assert code == EXIT_HYPOTHESIS
    assert "violated" in out


def test_run_colell_nested_boxes(nested_instance, tmp_path):
    out_path = tmp_path / "colell.json"
    code, out = run_cli(["run", "colell", nested_instance,
                         "--out", str(out_path)])
    assert code == EXIT_OK
    rep = json.loads(out_path.read_text())
    assert rep["report"]["witness_volume"] >= 1.0 - 1e-6


def test_run_ell_flattens_family(nested_instance):
    code, out = run_cli(["run", "ell", nested_instance, "--out", "/dev/null"])
    assert code == EXIT_OK
    assert "ell selected=" in out


def test_run_colell_hypothesis_violation_exit_2(tmp_path):
    # the last class is disjoint from the others' common core
    doc = {"dimension": 2, "target_volume": 1.0, "classes": []}
    big = [{"a": [1.0, 0.0], "b": 2.0}, {"a": [-1.0, 0.0], "b": 2.0},
           {"a": [0.0, 1.0], "b": 2.0}, {"a": [0.0, -1.0], "b": 2.0}]
    far = [{"a": [1.0, 0.0], "b": 9.0}, {"a": [-1.0, 0.0], "b": -8.0},
           {"a": [0.0, 1.0], "b": 9.0}, {"a": [0.0, -1.0], "b": -8.0}]
    doc["classes"] = [[big]] * 4 + [[far]]
    path = tmp_path / "viol.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["run", "colell", str(path)])
    assert code == EXIT_HYPOTHESIS
    assert "hypothesis violated" in out


def test_run_skip_hypothesis_check_numerical_failure(tmp_path):
    # With the check skipped, the empty-interior selection surfaces as a
    # numerical failure (exit 3) instead of a hypothesis violation.
    doc = {"dimension": 2, "target_volume": 1.0, "classes": []}
    big = [{"a": [1.0, 0.0], "b": 2.0}, {"a": [-1.0, 0.0], "b": 2.0},
           {"a": [0.0, 1.0], "b": 2.0}, {"a": [0.0, -1.0], "b": 2.0}]
    far = [{"a": [1.0, 0.0], "b": 9.0}, {"a": [-1.0, 0.0], "b": -8.0},
           {"a": [0.0, 1.0], "b": 9.0}, {"a": [0.0, -1.0], "b": -8.0}]
    doc["classes"] = [[big]] * 5 + [[far]]
    path = tmp_path / "viol6.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["run", "theorem1", str(path),
                         "--skip-hypothesis-check"])
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in out


def test_run_saxuso_honours_skip_hypothesis_check(adversarial_instance,
                                                  tmp_path):
    # the 2d-selection hypothesis fails on this instance (k=4)
    code, out = run_cli(["run", "saxuso", adversarial_instance,
                         "--out", "/dev/null"])
    assert code == EXIT_HYPOTHESIS
    out_path = tmp_path / "saxuso.json"
    code, out = run_cli(["run", "saxuso", adversarial_instance,
                         "--skip-hypothesis-check", "--out", str(out_path)])
    assert code == EXIT_OK
    assert out.startswith("saxuso witness_class=")
    certs = json.loads(out_path.read_text())["report"]["certificates"]
    assert certs["hypothesis_min_volume"] is None
    assert certs["worst_selection_volume"] > 0.0


def test_input_errors_exit_4(tmp_path):
    code, out = run_cli(["mvie", str(tmp_path / "missing.json")])
    assert code == EXIT_INPUT
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, out = run_cli(["mvie", str(bad)])
    assert code == EXIT_INPUT
    assert "input error" in out


@pytest.mark.parametrize("argv", [
    ["mvie", "--member", "5"], ["mvie", "--class", "7"],
    ["mvie", "--member", "-1"], ["mvie", "--class", "-1"],
    ["lowest", "--member", "5"], ["lowest", "--class", "-1"],
    ["lowest", "--volume", "-1"], ["lowest", "--volume", "0"],
    ["verify-hypothesis", "--k", "-1"], ["verify-hypothesis", "--k", "0"],
    ["verify-hypothesis", "--k", "2"],
])
def test_out_of_range_arguments_exit_4(square_instance, argv):
    code, out = run_cli(argv[:1] + [square_instance] + argv[1:]
                        + ["--out", "/dev/null"])
    assert code == EXIT_INPUT
    assert "input error" in out


@pytest.mark.parametrize("flag,value", [
    ("--tol-feas", "0"), ("--tol-feas", "-1"), ("--tol-feas", "nan"),
    ("--tol-feas", "inf"), ("--tol-feas", "x"), ("--tol-kkt", "-1"),
    ("--tol-kkt", "0"), ("--tol-kkt", "nan"), ("--tol-kkt", "inf"),
])
def test_invalid_tolerance_exit_4(nested_instance, flag, value):
    code, out = run_cli(["run", "colell", nested_instance, flag, value,
                         "--out", "/dev/null"])
    assert code == EXIT_INPUT


def test_path_through_a_file_exit_4(square_instance):
    code, out = run_cli(["mvie", square_instance + "/x.json"])
    assert code == EXIT_INPUT
    assert "input error" in out
    code, out = run_cli(["mvie", square_instance,
                         "--out", square_instance + "/r.json"])
    assert code == EXIT_INPUT
    assert "input error" in out


def _library_errors():
    seen, todo = [], [QuantHellyError]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


@pytest.mark.parametrize("error", _library_errors(),
                         ids=lambda cls: cls.__name__)
def test_every_library_error_has_an_exit_code(monkeypatch, square_instance,
                                              error):
    def fail(args):
        raise error("injected")

    monkeypatch.setitem(cli._DISPATCH, "mvie", fail)
    code, out = run_cli(["mvie", square_instance])
    if error is HypothesisViolated:
        assert code == EXIT_HYPOTHESIS
    elif error in (InstanceError, DimensionMismatch, DegenerateInput):
        assert code == EXIT_INPUT
    else:
        assert code == EXIT_NUMERICAL
    assert "injected" in out


def test_bad_usage_exit_4():
    code, _ = run_cli(["mvie"])  # missing instance argument
    assert code == EXIT_INPUT
    code, _ = run_cli(["frobnicate"])
    assert code == EXIT_INPUT


def test_generate_subcommand_deterministic(tmp_path):
    p1, p2 = tmp_path / "g1.json", tmp_path / "g2.json"
    for p in (p1, p2):
        code, _ = run_cli(["generate", "--kind", "common-ball", "--seed", "7",
                           "--classes", "4", "--members", "2", "--out", str(p)])
        assert code == EXIT_OK
    assert p1.read_bytes() == p2.read_bytes()
    # generated files are themselves valid instances
    code, _ = run_cli(["verify-hypothesis", str(p1), "--k", "2",
                       "--out", "/dev/null"])
    assert code == EXIT_OK


def test_version_flag_exits_zero():
    code, _ = run_cli(["--version"])
    assert code == EXIT_OK
