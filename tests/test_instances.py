import json
import math

import numpy as np
import pytest

from quanthelly import (ColorClasses, GeneratorSpec, HPolytope,
                        emit_instance, generate, geometry, parse_instance,
                        unit_ball_volume, verify_colorful_hypothesis)
from quanthelly.errors import InstanceError, Unbounded
from quanthelly.geometry import chebyshev_center, is_bounded
from quanthelly.instances import (_ball_radius, canonical_json, emit_report,
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


def test_validation_order_and_chebyshev_lp_failure(monkeypatch):
    # One Chebyshev LP gives both checks; "unbounded" still comes first for
    # a body that is also empty, and a failed LP raises Unbounded unless the
    # cone LPs find the body unbounded.
    box = HPolytope.box([1.0, 1.0])
    empty_slab = HPolytope([[1.0, 0.0], [-1.0, 0.0]], [0.0, -1.0])
    half = HPolytope([[1.0, 0.0]], [1.0])
    with pytest.raises(InstanceError, match="class 1 member 0 is unbounded"):
        ColorClasses.validated(2, [[box], [empty_slab]])

    def failed(P):
        raise Unbounded("Chebyshev LP did not solve")

    monkeypatch.setattr(geometry, "_chebyshev", failed)
    with pytest.raises(InstanceError, match="class 0 member 0 is unbounded"):
        ColorClasses.validated(2, [[half]])
    with pytest.raises(Unbounded):
        ColorClasses.validated(2, [[box]])


def test_invalid_json_and_missing_fields(tmp_path):
    path = tmp_path / "nojson.json"
    path.write_text("{nope")
    with pytest.raises(InstanceError, match="not valid JSON"):
        parse_instance(path)
    path.write_text(json.dumps({"classes": []}))
    with pytest.raises(InstanceError, match="dimension"):
        parse_instance(path)


def _with_classes(classes):
    doc = json.loads(minimal_instance_text())
    doc["classes"] = classes
    return doc


@pytest.mark.parametrize("doc,message", [
    ([], "top-level document must be an object"),
    (dict(json.loads(minimal_instance_text()), dimension=0),
     "'dimension' must be positive"),
    (_with_classes([]), "'classes' must be a non-empty list"),
    (_with_classes({}), "'classes' must be a non-empty list"),
    (_with_classes([[]]), "classes[0] must be a non-empty list"),
    (_with_classes([[[]]]),
     "classes[0][0] must be a non-empty list of constraints"),
    (_with_classes([[{}]]),
     "classes[0][0] must be a non-empty list of constraints"),
    (_with_classes([[[1]]]), "classes[0][0][0] must be an object"),
    (_with_classes([[[{"b": 1.0}]]]), "classes[0][0][0] is missing field 'a'"),
    (_with_classes([[[{"a": [1.0, 0.0, 0.0], "b": 1.0}]]]),
     "classes[0][0][0].a must be a list of 2 numbers"),
], ids=["top-level-list", "dimension-zero", "classes-empty-list",
        "classes-object", "class-empty", "body-empty-list", "body-object",
        "constraint-number", "constraint-without-a", "a-too-long"])
def test_malformed_documents_are_rejected(tmp_path, doc, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceError) as info:
        parse_instance(path)
    assert str(info.value) == message


@pytest.mark.parametrize("dimension", [2.7, True, "2"])
def test_dimension_must_be_a_json_integer(tmp_path, dimension):
    doc = json.loads(minimal_instance_text())
    doc["dimension"] = dimension
    path = tmp_path / "dimension.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceError, match="'dimension' must be an integer"):
        parse_instance(path)


@pytest.mark.parametrize("field,value", [
    ("a", [True, False]), ("a", [[1], [0]]), ("a", ["1", "0"]),
    ("b", True), ("b", "1"), ("b", 10 ** 400),
    ("target_volume", True), ("target_volume", "1"),
], ids=["a-bools", "a-nested", "a-strings", "b-bool", "b-string",
        "b-huge-integer", "target-bool", "target-string"])
def test_numbers_must_be_json_numbers(tmp_path, field, value):
    doc = json.loads(minimal_instance_text())
    if field == "target_volume":
        doc[field] = value
    else:
        doc["classes"][0][0][0][field] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceError,
                       match=f"{field}.* must be a number|is out of range"):
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
    spec = GeneratorSpec("adversarial", 2, 2, 5, 2)
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


@pytest.mark.parametrize("field,value", [
    ("dimension", 2.5), ("dimension", True), ("dimension", "2"),
    ("class_count", 5.0), ("members_per_class", 1.5),
    ("members_per_class", True), ("seed", True), ("seed", -1),
    ("halfspaces_per_body", 8.0), ("class_count", 0),
])
def test_generator_counts_must_be_integers(field, value):
    args = {"kind": "common-ball", "seed": 1, "dimension": 2,
            "class_count": 5, "members_per_class": 1}
    args[field] = value
    with pytest.raises(InstanceError, match=f"^{field} must be an integer"):
        GeneratorSpec(**args)


@pytest.mark.parametrize("value", [True, "1", None, [1.0], 0, -2.0,
                                   math.inf, math.nan])
def test_generator_target_volume_must_be_a_positive_number(value):
    with pytest.raises(InstanceError, match="^target volume must be"):
        GeneratorSpec("common-ball", 1, 2, 5, 1, target_volume=value)


def test_generator_target_volume_is_stored_as_float():
    spec = GeneratorSpec("common-ball", 1, 2, 5, 1, target_volume=2)
    assert type(spec.target_volume) is float
    assert emit_instance(generate(spec)) == emit_instance(generate(
        GeneratorSpec("common-ball", 1, 2, 5, 1, target_volume=2.0)))


def test_tangent_halfspaces_fall_back_to_axis_tangents():
    # Two half-planes never bound a body in R^2, so every body gets the 2d
    # axis-aligned tangent half-spaces, which leave the reference ball its
    # largest inscribed ball.
    spec = GeneratorSpec("tangent-halfspaces", 3, 2, 3, 1,
                         halfspaces_per_body=2)
    inst = generate(spec)
    bodies = [body for members in inst.classes.classes for body in members]
    assert len(bodies) == 3
    for body in bodies:
        assert body.n_constraints == 2 + 2 * 2
        assert is_bounded(body)
        assert chebyshev_center(body)[1] == pytest.approx(
            _ball_radius(1.0, 2), abs=1e-9)


def test_tangent_halfplane_family_members_are_tangent():
    family = tangent_halfplane_family(7, 12, 2)
    assert len(family) == 12
    for member in family:
        assert member.n_constraints == 1
        assert member.b[0] == pytest.approx(1.0)
