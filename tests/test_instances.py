import json
import math

import numpy as np
import pytest

from quanthelly import (GeneratorSpec, emit_instance, generate,
                        parse_instance, unit_ball_volume,
                        verify_colorful_hypothesis)
from quanthelly.errors import InstanceError
from quanthelly.instances import (canonical_json, emit_report,
                                  tangent_halfplane_family)


def minimal_instance_text():
    square = [{"a": [1.0, 0.0], "b": 1.0}, {"a": [-1.0, 0.0], "b": 1.0},
              {"a": [0.0, 1.0], "b": 1.0}, {"a": [0.0, -1.0], "b": 1.0}]
    return json.dumps({"dimension": 2, "target_volume": math.pi,
                       "classes": [[square]]})


# ---------------------------------------------------------------------------
# Parsing


def test_minimal_instance_parses(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(minimal_instance_text())
    inst = parse_instance(path)
    assert inst.dimension == 2
    assert inst.target_volume == pytest.approx(math.pi)
    assert inst.classes.sizes() == (1,)
    assert inst.classes.body(0, 0).n_constraints == 4


def test_missing_b_field_names_element(tmp_path):
    doc = json.loads(minimal_instance_text())
    del doc["classes"][0][0][2]["b"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceError, match=r"classes\[0\]\[0\]\[2\].*'b'"):
        parse_instance(path)


def test_unbounded_body_names_indices(tmp_path):
    doc = json.loads(minimal_instance_text())
    doc["classes"].append([[{"a": [1.0, 0.0], "b": 1.0}]])
    path = tmp_path / "unb.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceError, match="class 1 member 0 is unbounded"):
        parse_instance(path)


def test_empty_interior_body_rejected(tmp_path):
    doc = json.loads(minimal_instance_text())
    doc["classes"][0][0].append({"a": [1.0, 0.0], "b": -1.0})
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceError, match="empty interior"):
        parse_instance(path)


def test_invalid_json_and_missing_fields(tmp_path):
    path = tmp_path / "nojson.json"
    path.write_text("{nope")
    with pytest.raises(InstanceError, match="not valid JSON"):
        parse_instance(path)
    path.write_text(json.dumps({"classes": []}))
    with pytest.raises(InstanceError, match="dimension"):
        parse_instance(path)


@pytest.mark.parametrize("target", [-1.0, 0.0, math.inf, "large"])
def test_target_volume_must_be_positive(tmp_path, target):
    doc = json.loads(minimal_instance_text())
    doc["target_volume"] = target
    path = tmp_path / "target.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceError, match="target_volume"):
        parse_instance(path)


def test_roundtrip_emit_parse(tmp_path):
    inst = generate(GeneratorSpec("common-ball", 3, 2, 4, 2))
    p1 = tmp_path / "a.json"
    emit_instance(inst, p1)
    back = parse_instance(p1)
    p2 = tmp_path / "b.json"
    emit_instance(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert back.dimension == inst.dimension
    assert back.classes.sizes() == inst.classes.sizes()


# ---------------------------------------------------------------------------
# Canonical serialization


def test_canonical_json_rounds_and_sorts():
    text = canonical_json({"b": 0.1234567890123456789, "a": np.float64(1.0)})
    doc = json.loads(text)
    assert list(doc.keys()) == ["a", "b"]
    assert doc["b"] == 0.123456789012
    assert text.endswith("\n")


def test_emit_report_writes_file(tmp_path):
    path = tmp_path / "rep.json"
    text = emit_report({"x": 1.0}, path)
    assert path.read_text() == text


# ---------------------------------------------------------------------------
# Generators


def test_generator_determinism():
    a = emit_instance(generate(GeneratorSpec("common-ball", 42, 2, 5, 3)))
    b = emit_instance(generate(GeneratorSpec("common-ball", 42, 2, 5, 3)))
    c = emit_instance(generate(GeneratorSpec("common-ball", 43, 2, 5, 3)))
    assert a == b
    assert a != c


def test_common_ball_bodies_contain_target_ball():
    spec = GeneratorSpec("common-ball", 9, 2, 5, 3, target_volume=math.pi)
    inst = generate(spec)
    r = (math.pi / unit_ball_volume(2)) ** 0.5  # = 1
    # recover the ball center from the construction: every body must contain
    # a common ball of radius 1; verify via per-constraint support slack
    # against a Chebyshev-style witness of the full intersection.
    from quanthelly.geometry import chebyshev_center, intersect_all
    all_bodies = [b for ms in inst.classes.classes for b in ms]
    z, rad = chebyshev_center(intersect_all(all_bodies))
    assert rad >= r - 1e-9
    for members in inst.classes.classes:
        for body in members:
            assert np.all(body.b - body.A @ z >= r - 1e-9)


def test_common_ball_hypothesis_holds():
    inst = generate(GeneratorSpec("common-ball", 13, 2, 5, 2))
    for k in (1, 3, 5):
        assert verify_colorful_hypothesis(inst.classes, k, 1.0).passed


def test_tangent_halfspaces_offsets_at_tangency():
    spec = GeneratorSpec("tangent-halfspaces", 21, 2, 4, 1,
                         target_volume=math.pi)
    inst = generate(spec)
    # all offsets equal a.z + 1 for the common center z: the slab widths from
    # opposite normals reveal tangency radius 1
    for members in inst.classes.classes:
        for body in members:
            # every constraint is at distance exactly 1 from the common center
            # recover z by least squares: a_i . z = b_i - 1
            z, *_ = np.linalg.lstsq(body.A, body.b - 1.0, rcond=None)
            assert np.allclose(body.A @ z, body.b - 1.0, atol=1e-8)


def test_nested_boxes_monotone():
    inst = generate(GeneratorSpec("nested-boxes", 5, 2, 5, 1))
    widths = [members[0].b[0] for members in inst.classes.classes]
    assert all(a > b for a, b in zip(widths, widths[1:]))
    assert inst.classes.sizes() == (1, 1, 1, 1, 1)


def test_adversarial_violates_hypothesis():
    spec = GeneratorSpec("adversarial", 2, 2, 5, 2, check_k=4)
    inst = generate(spec)
    rep = verify_colorful_hypothesis(inst.classes, 4, 1.0)
    assert not rep.passed


def test_generator_rejects_bad_kind_and_params():
    with pytest.raises(InstanceError):
        GeneratorSpec("mystery", 1, 2, 5, 1)
    with pytest.raises(InstanceError):
        GeneratorSpec("common-ball", 1, 0, 5, 1)
    with pytest.raises(InstanceError):
        GeneratorSpec("common-ball", 1, 2, 5, 1, target_volume=-1.0)


def test_tangent_halfplane_family_members_are_tangent():
    family = tangent_halfplane_family(7, 12, 2)
    assert len(family) == 12
    for member in family:
        assert member.n_constraints == 1
        assert member.b[0] == pytest.approx(1.0)
