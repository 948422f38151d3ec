"""The field-by-field report comparison of ``report_digests.py --numeric``,
on hand-made records of one invocation run on two source trees."""
import copy

import pytest

from report_digests import NUMERIC_RTOL, numeric_differences


def theorem1_record():
    return {
        "label": "in run theorem1", "command": ["run", "theorem1"], "dim": 2,
        "exit": "0",
        "report": {
            "command": "run", "tolerances": {"feasibility": 1e-9},
            "report": {
                "witness_class": 1, "witness_volume": 3.14159265359,
                "certificates": {
                    "defining_selection": [[0, 0], [1, 1], [3, 0]],
                    "remaining_classes": [2, 4, 5],
                    "e_star": {"center": [0.0, 0.25],
                               "shape": [[1.5, 0.0], [0.0, 250.0]]},
                    "cut_mvie_gap": 2e-7,
                }}},
        "stdout": "theorem1 witness_class=1 witness_volume=3.14159265359\n",
    }


def ell_record(members):
    return {
        "label": "in run ell", "command": ["run", "ell"], "dim": 2,
        "exit": "0",
        "report": {"command": "run", "report": {
            "selected_members": members, "volume_gap": 3e-9,
            "residual_balance": 1e-12, "residual_identity": 2e-12,
            "support_size": len(members), "weight_sum": 2.0}},
        "stdout": f"ell selected={len(members)} members gap=3e-09\n",
    }


def breaches(ours, theirs):
    return {field for field, _, breach in numeric_differences(ours, theirs)
            if breach}


def changed(record, edit):
    out = copy.deepcopy(record)
    edit(out)
    return out


def test_identical_records_differ_nowhere():
    rec = theorem1_record()
    assert all(diff == 0.0 for _, diff, _ in
               numeric_differences(rec, theorem1_record()))
    assert breaches(rec, theorem1_record()) == set()


def test_floats_within_the_tolerance_pass_and_report_their_difference():
    theirs = theorem1_record()

    def edit(rec):
        cert = rec["report"]["report"]["certificates"]
        cert["e_star"]["shape"][1][1] *= 1.0 + 0.5 * NUMERIC_RTOL
        cert["e_star"]["center"][0] = 1e-13     # relative to max(1, |x|)
        rec["stdout"] = rec["stdout"].replace("3.14159265359", "3.1415926536")

    ours = changed(theirs, edit)
    assert breaches(ours, theirs) == set()
    worst = {}
    for field, diff, _ in numeric_differences(ours, theirs):
        worst[field] = max(diff, worst.get(field, 0.0))
    shape = "report.report.certificates.e_star.shape"
    assert 0.4 * NUMERIC_RTOL < worst[shape] < 0.6 * NUMERIC_RTOL
    assert worst["report.report.certificates.e_star.center"] == 1e-13
    assert 0.0 < worst["stdout"] <= NUMERIC_RTOL


@pytest.mark.parametrize("field, edit", [
    ("report.report.witness_class",
     lambda rec: rec["report"]["report"].update(witness_class=2)),
    ("report.report.certificates.defining_selection",
     lambda rec: rec["report"]["report"]["certificates"][
         "defining_selection"][2].__setitem__(0, 4)),
    ("report.report.certificates.e_star.shape",
     lambda rec: rec["report"]["report"]["certificates"]["e_star"][
         "shape"][1].__setitem__(1, 250.0 * (1.0 + 3.0 * NUMERIC_RTOL))),
    ("report.report.certificates.cut_mvie_gap",
     lambda rec: rec["report"]["report"]["certificates"].update(
         cut_mvie_gap=2e-5)),
    ("exit", lambda rec: rec.update(exit="3")),
    ("stdout", lambda rec: rec.update(stdout=rec["stdout"].replace(
        "witness_class=1", "witness_class=2"))),
])
def test_a_changed_exact_field_or_a_float_beyond_its_tolerance_breaches(
        field, edit):
    assert breaches(changed(theorem1_record(), edit),
                    theorem1_record()) == {field}


def test_a_gap_within_its_bound_on_both_sides_passes():
    ours = changed(theorem1_record(), lambda rec: rec["report"]["report"][
        "certificates"].update(cut_mvie_gap=5e-6))
    assert breaches(ours, theirs=theorem1_record()) == set()


def test_ell_reports_are_compared_by_validity():
    # other members, a support of d(d+3)/2 = 5 and a changed gap: valid
    theirs = ell_record([0, 2, 3])
    ours = changed(ell_record([1, 2, 3, 4, 5]), lambda rec: rec["report"][
        "report"].update(volume_gap=4e-6))
    assert breaches(ours, theirs) == set()
    # six distinct members are more than d(d+3)/2
    assert breaches(ell_record([0, 1, 2, 3, 4, 5]), theirs) == {
        "report.report.selected_members (distinct)"}
    residual = changed(theirs, lambda rec: rec["report"]["report"].update(
        residual_identity=2e-6))
    assert breaches(theirs, residual) == {
        "report.report.residual_identity (value)"}
