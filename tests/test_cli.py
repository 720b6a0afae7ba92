import errno
import gc
import io
import json
import math
import os
import select
import signal
import tracemalloc
import weakref
from fractions import Fraction as F

import pytest

import orbeuler.cli
import orbeuler.local
import orbeuler.pairs
from orbeuler import (
    ComponentData,
    PairDescription,
    SurfaceData,
    euler_orbifold_global,
    format_rational,
    pair_kd_squared,
    pair_to_dict,
    parse_rational,
)
from orbeuler.cli import main

from fixtures import (
    concurrent_lines_pair,
    cuspidal_cubic_with_line_pair,
    lc_effective_corpus,
    nodal_cubic_pair,
    nine_cusp_sextic_pair,
    quadric_pair,
    quadrilateral_pair,
    quotient_point_pair,
    refused_germ_pair,
    smooth_plane_curve_pair,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_machine(capsys, *argv):
    code, out, err = run(capsys, "--format", "machine", *argv)
    payload = json.loads(out) if out.strip() else None
    return code, payload, err


def assert_rationals_reparse(node):
    if isinstance(node, dict):
        for value in node.values():
            assert_rationals_reparse(value)
    elif isinstance(node, list):
        for value in node:
            assert_rationals_reparse(value)
    elif isinstance(node, str):
        try:
            parsed = parse_rational(node)
        except ValueError:
            return
        assert parse_rational(format_rational(parsed)) == parsed


# Marks a document field left out.
ABSENT = object()

# A star whose first arm lacks its weight.
SHORT_ARM_STAR = {"type": "star", "b": 1, "arms": [[2, 1], [3, 1, 0], [1, 0, "1/2"]]}


class TestLocal:
    def test_ordinary_shorthand_text(self, capsys):
        code, out, _ = run(capsys, "local", "--ordinary", "1/2,1/2,1/2")
        assert code == 0
        assert "value=1/16" in out
        assert "kind=exact" in out
        assert "lc=lc" in out

    def test_ordinary_machine(self, capsys):
        code, payload, _ = run_machine(capsys, "local", "--ordinary", "1/2,1/2,1/2")
        assert code == 0
        assert payload["verdict"] == "computed"
        assert payload["values"]["value"] == "1/16"
        assert payload["paper_refs"] == ["ordinary-point-formula"]
        assert_rationals_reparse(payload["values"])

    def test_star_shorthand(self, capsys):
        code, payload, _ = run_machine(capsys, "local", "--star", "1;2,1,0;3,1,0;1,0,1/2")
        assert code == 0
        assert payload["values"]["value"] == "1/6"

    def test_empty_arm_star_prints_its_chain(self, capsys):
        # The star [7, 2, 7] with an empty arm is the chain <84, 13>.
        star = run(capsys, "local", "--star", "2;7,1,0;7,1,0;1,0,0")
        assert star == run(capsys, "local", "--cyclic", "84,13,0,0")
        assert star == (0, "value=1/84 (~0.01190476) kind=exact lc=lc\n", "")

    @pytest.mark.parametrize(
        "star, value, lc",
        [
            ("1;3,2,0;7,2,0;1,0,3/10", "1369/8400", "lc"),
            ("1;2,1,0;3,1,0;7,1,0", "0", "non-lc"),
            ("2;2,1,0;3,1,0;6,1,0", "0", "lc"),
            ("2;2,1,0;4,1,0;4,1,0", "0", "lc"),
            ("2;3,1,0;3,1,0;3,1,0", "0", "lc"),
        ],
        ids=["E12", "2-3-7", "2-3-6", "2-4-4", "3-3-3"],
    )
    def test_star_beyond_the_quotients(self, capsys, star, value, lc):
        code, payload, err = run_machine(capsys, "local", "--star", star)
        assert (code, payload["values"], err) == (0, {"value": value, "kind": "exact", "lc": lc}, "")

    def test_cyclic_and_germ_shorthands(self, capsys):
        code, payload, _ = run_machine(capsys, "local", "--cyclic", "3,1,0,0")
        assert code == 0 and payload["values"]["value"] == "1/3"
        code, payload, _ = run_machine(capsys, "local", "--germ-mu-tau", "12,11")
        assert code == 0 and payload["values"]["value"] == "1"

    def test_document_and_flag_is_ambiguous(self, capsys):
        doc = json.dumps({"type": "ordinary", "coeffs": ["1/2"]})
        code, _, err = run(capsys, "local", doc, "--ordinary", "1/2")
        assert code == 2
        assert "ambiguous" in err

    def test_batch_with_jobs(self, capsys):
        docs = json.dumps(
            [
                {"type": "ordinary", "coeffs": ["1/2", "1/2", "1/2"]},
                {"type": "cyclic", "n": 3, "q": 1, "d1": "0", "d2": "0"},
            ]
        )
        code, payload, _ = run_machine(capsys, "local", docs, "--jobs", "2")
        assert code == 0
        assert [item["value"] for item in payload["values"]["items"]] == ["1/16", "1/3"]
        # 320 docs give the pool chunks of several items each.
        docs = json.dumps(
            [
                {"type": "ordinary", "coeffs": [f"1/{2 + i % 7}", f"1/{2 + i % 5}", "1/2"]}
                if i % 2
                else {"type": "cyclic", "n": 2 + i % 13, "q": 1, "d1": f"1/{1 + i % 3}", "d2": "0"}
                for i in range(320)
            ]
        )
        _, serial, _ = run_machine(capsys, "local", docs, "--jobs", "1")
        code, parallel, _ = run_machine(capsys, "local", docs, "--jobs", "2")
        assert code == 0
        assert len(parallel["values"]["items"]) == 320
        assert parallel == serial

    def test_short_star_arm_is_exit_2(self, capsys):
        code, out, err = run(capsys, "local", json.dumps(SHORT_ARM_STAR))
        assert (code, out) == (2, "")
        assert "is not an (n, q, d) triple" in err

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"type": "ordinary", "coeffs": "11"}, "coeffs"),
            ({"type": "ordinary", "coeffs": {"1/2": 0, "1/3": 1}}, "coeffs"),
            ({"type": "star", "b": 1, "arms": {"a": 1}}, "arms"),
        ],
    )
    def test_non_list_field_is_exit_2(self, capsys, doc, field):
        code, out, err = run(capsys, "local", json.dumps(doc))
        assert (code, out) == (2, "")
        assert f"field {field!r} must be a list" in err

    def test_invalid_weight_is_exit_2(self, capsys):
        code, _, err = run(capsys, "local", "--ordinary", "3/2")
        assert code == 2
        assert "error" in err

    def test_non_ascii_weight_is_exit_2(self, capsys):
        code, out, err = run(capsys, "local", "--ordinary", "\u0663/\u0664")
        assert (code, out, err) == (2, "", "error: not a rational literal: '\u0663/\u0664'\n")

    def test_non_lc_reports_zero(self, capsys):
        code, payload, _ = run_machine(capsys, "local", "--ordinary", "1,1,1")
        assert code == 0
        assert payload["values"] == {"value": "0", "kind": "exact", "lc": "non-lc"}

    @pytest.mark.parametrize(
        "flag, text, shape",
        [
            ("--cyclic", "1,2", "n,q,d1,d2"),
            ("--cyclic", "5,x,0,0", "n,q,d1,d2"),
            ("--star", "1;2,1;3,1,0;5,1,0", "b;n,q,d;n,q,d;n,q,d"),
            ("--germ-mu-tau", "3", "mu,tau"),
            # int() reads each of these entries as an integer.
            ("--cyclic", "\u0663,1,0,0", "n,q,d1,d2"),
            ("--star", "1;2,1,0;3, 1,0;5,1,0", "b;n,q,d;n,q,d;n,q,d"),
            ("--germ-mu-tau", "1_0,3", "mu,tau"),
        ],
        ids=[
            "cyclic-short",
            "cyclic-not-an-integer",
            "star-short-arm",
            "germ-mu-tau-short",
            "cyclic-non-ascii-digit",
            "star-padded-entry",
            "germ-mu-tau-underscore",
        ],
    )
    def test_malformed_flag_is_named(self, capsys, flag, text, shape):
        code, out, err = run(capsys, "local", flag, text)
        assert (code, out, err) == (2, "", f"error: {flag} needs {shape}, got {text!r}\n")


class TestGerm:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "germ", "x^2+y^3")
        assert code == 0
        assert "mu=2 tau=2 e_orb=0 lct=no-obstruction" in out

    def test_machine_output(self, capsys):
        code, payload, _ = run_machine(capsys, "germ", "x^4+y^5+x^2y^3")
        assert code == 0
        assert payload["verdict"] == "LCT-fails"
        assert payload["values"]["mu"] == "12"
        assert payload["values"]["tau"] == "11"

    def test_non_ascii_exponent_is_exit_2(self, capsys):
        code, out, err = run(capsys, "germ", "x^\u0662+y^\uff13")
        assert (code, out, err) == (2, "", "error: cannot parse monomial '+x^\u0662'\n")

    def test_smooth_germ(self, capsys):
        code, payload, _ = run_machine(capsys, "germ", "x+y^2")
        assert code == 0
        assert payload == {
            "verdict": "no-obstruction",
            "values": {"mu": "0", "tau": "0", "e_orb": "0", "lct": "no-obstruction", "truncation": "1"},
            "paper_refs": ["milnor-tjurina-truncation", "comparison-theorem-obstruction"],
        }

    def test_document_input(self, capsys, tmp_path):
        path = tmp_path / "germ.json"
        path.write_text(json.dumps({"terms": [[2, 0, "1"], [0, 3, "1"]]}))
        code, payload, _ = run_machine(capsys, "germ", str(path))
        assert code == 0
        assert payload["values"]["mu"] == "2"

    def test_small_cap_is_exit_2(self, capsys):
        code, _, err = run(capsys, "germ", "x^4+y^5", "--cap", "2")
        assert code == 2
        assert "stabilisation" in err

    def test_refusal_names_the_cap_after_a_failed_first_truncation(self, capsys):
        # (x - y)^2 fails below its intercepts' a + b = 4 first, then at the cap.
        assert run(capsys, "germ", "x^2-2xy+y^2", "--cap", "12") == (
            2,
            "",
            "error: no stabilisation up to truncation 12: "
            "non-isolated singularity (possibly a non-reduced germ) or cap too small\n",
        )

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "germ", "z^2")
        assert code == 2
        assert err

    @pytest.mark.parametrize(
        "terms, message",
        [
            (3, "germ field 'terms' must be a list, got int"),
            ({"a": 1}, "germ field 'terms' must be a list, got dict"),
            ([3], "term 3 is not an (i, j, coefficient) triple"),
            ([[2, 0]], "term [2, 0] is not an (i, j, coefficient) triple"),
        ],
    )
    def test_malformed_terms_are_exit_2(self, capsys, terms, message):
        # These used to exit 2 only as a TypeError from tuple(), naming no field.
        code, out, err = run(capsys, "germ", json.dumps([{"terms": terms}]))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_batch_list(self, capsys):
        docs = json.dumps(
            [
                {"terms": [[1, 1, "1"]]},
                {"terms": [[2, 0, "1"], [0, 3, "1"]]},
            ]
        )
        code, payload, _ = run_machine(capsys, "germ", docs, "--jobs", "2")
        assert code == 0
        assert [item["mu"] for item in payload["values"]["items"]] == ["1", "2"]
        code, out, _ = run(capsys, "germ", docs, "--jobs", "2")
        assert code == 0
        assert out.splitlines() == [
            "mu=1 tau=1 e_orb=0 lct=no-obstruction",
            "mu=2 tau=2 e_orb=0 lct=no-obstruction",
        ]


class TestGlobal:
    def test_quadrilateral(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(pair_to_dict(quadrilateral_pair())))
        code, payload, _ = run_machine(capsys, "global", str(path))
        assert code == 0
        assert payload["verdict"] == "proved"
        assert payload["values"]["e_orb"] == "1/3"
        assert payload["values"]["bmy_equality"] is True
        assert payload["values"]["mult_verdict"] == "proved"
        assert_rationals_reparse(payload["values"])

    def test_three_lines_precondition(self, capsys):
        doc = json.dumps(pair_to_dict(concurrent_lines_pair(3, F(2, 3))))
        code, payload, _ = run_machine(capsys, "global", doc)
        assert code == 1
        assert payload["verdict"] == "precondition-failed"

    def test_nine_cusp_sextic_text(self, capsys):
        doc = json.dumps(pair_to_dict(nine_cusp_sextic_pair()))
        code, out, _ = run(capsys, "global", doc)
        assert code == 0
        assert "verdict=proved equality" in out

    def test_bad_document(self, capsys):
        code, _, err = run(capsys, "global", '{"surface": {"mode": "plane"}, "points": [{}]}')
        assert code == 2
        assert "missing field" in err

    def test_short_star_arm_is_exit_2(self, capsys):
        doc = pair_to_dict(quotient_point_pair())
        doc["points"][0]["local"] = SHORT_ARM_STAR
        code, out, err = run(capsys, "global", json.dumps(doc))
        assert (code, out) == (2, "")
        assert "is not an (n, q, d) triple" in err

    @pytest.mark.parametrize("coeffs", ["11", {"1": 0, "1/1": 0}], ids=["string", "object"])
    def test_non_list_coeffs_is_exit_2(self, capsys, coeffs):
        doc = pair_to_dict(concurrent_lines_pair(2, 1))
        doc["points"][0]["local"]["coeffs"] = coeffs
        code, out, err = run(capsys, "global", json.dumps(doc))
        assert (code, out) == (2, "")
        assert "field 'coeffs' must be a list" in err

    @pytest.mark.parametrize(
        "incident, message",
        [
            ({"C": 1}, "field 'incident' must be a list, got dict"),
            ("C1", "field 'incident' must be a list, got str"),
            ({}, "field 'incident' must be a list, got dict"),
            ("", "field 'incident' must be a list, got str"),
            (["C", 1], "each entry of field 'incident' must be a [component, branches] list, got str"),
            ([{"C": 1}], "each entry of field 'incident' must be a [component, branches] list, got dict"),
        ],
        ids=["object", "string", "empty-object", "empty-string", "flat-list", "list-of-objects"],
    )
    def test_non_list_incident_is_exit_2(self, capsys, incident, message):
        # The empty object and string used to pass as a point on no component.
        doc = pair_to_dict(quotient_point_pair())
        doc["points"][0]["incident"] = incident
        code, out, err = run(capsys, "global", json.dumps(doc))
        assert (code, out, err) == (2, "", f"error: point Q: {message}\n")

    @pytest.mark.parametrize(
        "pairings, named",
        [
            ({"K": True, "D": 32}, "pairing 'K'"),
            ({"K": -16, "D": 32.0}, "pairing 'D'"),
            ({"K": "-16", "D": 32}, "pairing 'K'"),
            ({"K": -16, "D": 32, "E": 0}, "pairing key 'E'"),
            ({"K": -16, "D": 32, "": 0}, "pairing key ''"),
        ],
    )
    def test_invalid_pairing_is_exit_2(self, capsys, pairings, named):
        doc = pair_to_dict(quadric_pair())
        doc["components"][0]["pairings"] = pairings
        code, out, err = run(capsys, "global", json.dumps(doc))
        assert (code, out) == (2, "")
        assert f"component D: {named}" in err

    def test_off_boundary_quotient_point_is_silent(self, capsys):
        doc = json.dumps(pair_to_dict(quotient_point_pair()))
        code, out, err = run(capsys, "global", doc)
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "e_orb=5/2 (~2.5) kind=exact lc=lc",
            "(K+D)^2=8",
            "bmy: lhs=15/2 rhs=8 verdict=precondition-failed",
            "multiplicities: lhs=8 rhs=9 verdict=precondition-failed",
            "note: effectivity of a multiple of K+D was not asserted",
        ]
        code, payload, err = run_machine(capsys, "global", doc)
        assert (code, err, payload["verdict"]) == (1, "", "precondition-failed")
        assert (payload["values"]["e_orb"], payload["values"]["mult_rhs"]) == ("5/2", "9")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("local", {"type": "ordinary", "coeffs": ["1/2"]}),
            ("local", {"type": "cyclic", "n": 2, "q": 1, "d1": "1/3", "d2": "0"}),
            ("local", {"type": "star", "b": 1, "arms": [[2, 1, "0"], [3, 1, "0"], [1, 0, "1/2"]]}),
            ("local", {"type": "germ_mu_tau", "mu": 2, "tau": 2}),
            ("m_P", "1"),
        ],
        ids=["ordinary", "cyclic", "star", "germ_mu_tau", "m_P"],
    )
    def test_inconsistent_off_boundary_point_is_exit_2(self, capsys, field, value):
        doc = pair_to_dict(quotient_point_pair())
        doc["points"][0][field] = value
        for fmt in ("text", "machine"):
            code, out, err = run(capsys, "--format", fmt, "global", json.dumps(doc))
            assert (code, out) == (2, "")
            assert err.startswith("error: point Q lies on no component")

    def test_refused_germ_is_exit_2(self, capsys):
        code, out, err = run(capsys, "global", json.dumps(pair_to_dict(refused_germ_pair())))
        assert code == 2
        assert out == ""
        assert "not log canonical" in err

    def test_shared_note_printed_once(self, capsys):
        doc = json.dumps(pair_to_dict(smooth_plane_curve_pair(1, F(1, 2))))
        note = "K+D has total degree -5/2 < 0 on the plane: no multiple is effective"
        code, out, _ = run(capsys, "global", doc)
        assert code == 1
        assert out.count(note) == 1
        code, payload, _ = run_machine(capsys, "global", doc)
        assert code == 1
        assert payload["values"]["notes"] == [note]

    def test_assembles_once(self, capsys, monkeypatch):
        calls = {"global": 0, "kd_sq": 0, "local": 0}

        def counted(name, function):
            def wrapper(pair):
                calls[name] += 1
                return function(pair)
            return wrapper

        assemble = counted("global", orbeuler.pairs.euler_orbifold_global)
        monkeypatch.setattr(orbeuler.pairs, "euler_orbifold_global", assemble)
        # Also catch a direct call, should the command import the function again.
        monkeypatch.setattr(orbeuler.cli, "euler_orbifold_global", assemble, raising=False)
        monkeypatch.setattr(
            orbeuler.pairs, "pair_kd_squared", counted("kd_sq", orbeuler.pairs.pair_kd_squared)
        )
        monkeypatch.setattr(
            orbeuler.pairs, "euler_local", counted("local", orbeuler.pairs.euler_local)
        )
        pair = quadrilateral_pair()
        distinct = len({point.local for point in pair.points})
        assert (distinct, len(pair.points)) == (2, 7)
        code, _, _ = run_machine(capsys, "global", json.dumps(pair_to_dict(pair)))
        assert code == 0
        # one assembly, one (K+D)^2, and each distinct germ evaluated once for both forms
        assert calls == {"global": 1, "kd_sq": 1, "local": distinct}

    @pytest.mark.parametrize(
        "field, shared, last",
        [
            (
                "local",
                {"type": "ordinary", "coeffs": ["1/2", "1/2"]},
                {"type": "ordinary", "coeffs": ["1/2", 0.5]},
            ),
            ("local", {"type": "ordinary", "coeffs": ["1/2"]}, {"type": "ordinary", "coeffs": "1/2"}),
            (
                "local",
                {"type": "germ_mu_tau", "mu": 1, "tau": 0},
                {"type": "germ_mu_tau", "mu": True, "tau": 0},
            ),
            ("m_P", "1", 1.0),
            ("m_P", 1, True),
        ],
    )
    def test_parse_shares_only_documents_of_equal_json_type(self, capsys, field, shared, last):
        # Every point carries the same document but the last, which differs
        # from it only in JSON type and must still be refused as input.
        doc = pair_to_dict(quadrilateral_pair(F(1, 2)))
        for point in doc["points"]:
            point[field] = shared
        code, _, _ = run(capsys, "global", json.dumps(doc))
        assert code in (0, 1)
        doc["points"][-1][field] = last
        code, out, err = run(capsys, "global", json.dumps(doc))
        assert (code, out) == (2, "")
        assert err

    def test_values_match_direct_calls(self, capsys):
        for name, pair in lc_effective_corpus():
            direct = euler_orbifold_global(pair)
            _, payload, _ = run_machine(capsys, "global", json.dumps(pair_to_dict(pair)))
            values = payload["values"]
            assert parse_rational(values["e_orb"]) == direct.value, name
            assert values["kind"] == direct.exactness.value, name
            assert values["lc"] == ("lc" if direct.lc else "non-lc"), name
            assert parse_rational(values["kd_sq"]) == pair_kd_squared(pair), name


    @pytest.mark.parametrize(
        "effective, outcome",
        [
            ("false", None),
            ("no", None),
            (1, None),
            (0, None),
            ([0], None),
            (True, (0, "proved")),
            (False, (1, "precondition-failed")),
            (ABSENT, (1, "precondition-failed")),
        ],
    )
    def test_effective_must_be_a_boolean(self, capsys, effective, outcome):
        # outcome None: refused as input; else the exit code and verdict.
        extra = {} if effective is ABSENT else {"effective": effective}
        component = ComponentData(id="A", coeff=F(1, 2), genus=0, pairings={"K": -2, "A": 0})
        parts = (SurfaceData(4, 8), (component,), ())
        doc = {
            "surface": {"mode": "generic", "e_top": 4, "c1_sq": 8},
            "components": [{"id": "A", "a": "1/2", "genus": 0, "pairings": {"K": -2, "A": 0}}],
            "points": [],
            **extra,
        }
        code, out, err = run(capsys, "--format", "machine", "global", json.dumps(doc))
        if outcome is None:
            with pytest.raises(ValueError, match="effective must be true, false or absent"):
                PairDescription(*parts, **extra)
            assert (code, out) == (2, "")
            assert err.startswith("error: effective must be")
        else:
            assert PairDescription(*parts, **extra).effective == extra.get("effective")
            assert (code, json.loads(out)["verdict"]) == outcome

    def test_bug_in_own_code_is_not_invalid_input(self, capsys, monkeypatch):
        # Only malformed input maps to exit 2; a KeyError or a TypeError from
        # the library itself is a bug and must surface as one.
        for error in (KeyError, TypeError):

            def broken(pair):
                raise error("internal")

            monkeypatch.setattr(orbeuler.pairs, "check_bmy", broken)
            with pytest.raises(error):
                main(["global", json.dumps(pair_to_dict(quadrilateral_pair()))])
            assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("field", ["components", "points"])
    def test_object_for_a_list_is_exit_2(self, capsys, field):
        # An empty object used to pass as an empty list.
        doc = pair_to_dict(nodal_cubic_pair())
        doc[field] = {}
        code, out, err = run(capsys, "global", json.dumps(doc))
        assert (code, out, err) == (2, "", f"error: pair field {field!r} must be a list, got dict\n")

    def test_list_form_pairings_is_exit_2(self, capsys):
        # A list of [key, value] pairs used to pass as the object it lists.
        doc = pair_to_dict(quadric_pair())
        doc["components"][0]["pairings"] = [["K", -16], ["D", 32]]
        code, out, err = run(capsys, "global", json.dumps(doc))
        assert (code, out, err) == (2, "", "error: component D: pairings must be an object\n")


def run_global_three_ways(capsys, monkeypatch, tmp_path, doc):
    """``global`` on ``doc`` read from a file, inline and from standard
    input; the three must agree."""
    text = json.dumps(doc)
    path = tmp_path / "pair.json"
    path.write_text(text, encoding="utf-8")
    outcomes = [run(capsys, "global", str(path)), run(capsys, "global", text)]
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    outcomes.append(run(capsys, "global", "-"))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    return outcomes[0]


def generic_arrangement_doc(lines: int) -> dict:
    """A plane pair of ``lines`` lines of weight 1/2 in general position:
    one double point per pair of lines."""
    return {
        "surface": {"mode": "plane"},
        "components": [{"id": f"L{i}", "a": "1/2", "genus": 0, "degree": 1} for i in range(lines)],
        "points": [
            {
                "id": f"P{i}.{j}",
                "local": {"type": "ordinary", "coeffs": ["1/2", "1/2"]},
                "incident": [[f"L{i}", 1], [f"L{j}", 1]],
                "m_P": "1",
            }
            for i in range(lines)
            for j in range(i + 1, lines)
        ],
    }


class TestPointsBuiltWhileDecoded:
    """``global`` builds each point entry while the document is decoded; it
    answers and refuses as pair_from_dict does on the decoded document."""

    def test_surface_is_refused_before_a_bad_point(self, capsys, monkeypatch, tmp_path):
        doc = pair_to_dict(quadrilateral_pair())
        doc["surface"]["mode"] = "sphere"
        doc["points"][0]["m_P"] = "-1"
        outcome = run_global_three_ways(capsys, monkeypatch, tmp_path, doc)
        assert outcome == (2, "", "error: unknown surface mode: 'sphere'\n")

    def test_component_is_refused_before_a_bad_point(self, capsys, monkeypatch, tmp_path):
        doc = pair_to_dict(quadrilateral_pair())
        doc["components"][-1]["genus"] = -1
        doc["points"][0]["m_P"] = "-1"
        outcome = run_global_three_ways(capsys, monkeypatch, tmp_path, doc)
        assert outcome == (2, "", "error: component L34: genus must be a nonnegative integer, got -1\n")

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("local", {"type": "ordinary", "coeffs": ["3/2", "2/3", "2/3"]}, "boundary weight 3/2 outside [0, 1]"),
            ("local", {"type": "cyclic", "n": 3, "q": 3, "d1": "0", "d2": "0"}, "need 0 <= q < n, got (3, 3)"),
            ("incident", [["L12", 0]], "point T1: branch count must be a positive integer, got 0"),
            ("incident", [["L12", 1], ["L12", 1]], "point T1: component 'L12' listed twice"),
            ("m_P", "-1", "point T1: multiplicity must be nonnegative"),
            ("m_P", 2.0, "expected an exact rational, got float"),
        ],
    )
    def test_first_bad_point_keeps_its_refusal(self, capsys, monkeypatch, tmp_path, field, value, message):
        # The last point is refused too; the first bad point is reported.
        doc = pair_to_dict(quadrilateral_pair())
        doc["points"][0][field] = value
        doc["points"][-1]["m_P"] = "x"
        outcome = run_global_three_ways(capsys, monkeypatch, tmp_path, doc)
        assert outcome == (2, "", f"error: {message}\n")

    def test_entry_with_an_extra_key_is_read_as_before(self, capsys, monkeypatch, tmp_path):
        doc = pair_to_dict(quadrilateral_pair())
        expected = run_global_three_ways(capsys, monkeypatch, tmp_path, doc)
        assert expected[0] == 0
        for point in doc["points"][::2]:
            point["note"] = "read by no one"
        assert run_global_three_ways(capsys, monkeypatch, tmp_path, doc) == expected

    @pytest.mark.parametrize("m_p", ["1", "-1"], ids=["valid", "refused"])
    def test_point_under_an_ignored_key_changes_nothing(self, capsys, monkeypatch, tmp_path, m_p):
        doc = pair_to_dict(quadrilateral_pair())
        expected = run_global_three_ways(capsys, monkeypatch, tmp_path, doc)
        doc["extra"] = {"id": "Z", "local": {"type": "ordinary", "coeffs": ["1/2"]}, "incident": [], "m_P": m_p}
        assert run_global_three_ways(capsys, monkeypatch, tmp_path, doc) == expected

    def test_decoding_into_points_peaks_below_the_json_tree(self, tmp_path):
        # No RSS is read: tracemalloc counts what Python allocates.  Reading
        # the file holds its whole text, which plain json.loads is spared.
        text = json.dumps(generic_arrangement_doc(64))  # 2016 points
        path = tmp_path / "pair.json"
        path.write_text(text, encoding="utf-8")
        tracemalloc.start()
        try:
            tree = json.loads(text)
            plain_peak = tracemalloc.get_traced_memory()[1]
            del tree
            tracemalloc.reset_peak()
            doc = orbeuler.cli._load_document(str(path), orbeuler.pairs.point_hook())
            pair = orbeuler.pairs.pair_from_dict(doc)
            built_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(type(point) is orbeuler.pairs.SingularPointData for point in doc["points"])
        assert len(pair.points) == 2016
        assert built_peak < plain_peak


BIG = 10**400


class TestBeyondFloatRange:
    """Decimal annotations of values past float range must not crash."""

    def huge_pair(self):
        doc = pair_to_dict(quadric_pair())
        doc["surface"]["e_top"] = BIG
        return json.dumps(doc)

    def test_global_machine(self, capsys):
        code, payload, _ = run_machine(capsys, "global", self.huge_pair())
        assert code == 0
        assert payload["verdict"] == "proved"
        assert payload["values"]["e_orb"] == str(BIG + 16)
        assert payload["values"]["bmy_lhs"] == str(3 * BIG + 48)
        assert payload["values"]["bmy_rhs"] == "8"

    def test_global_text(self, capsys):
        code, out, _ = run(capsys, "global", self.huge_pair())
        assert code == 0
        assert out.startswith(f"e_orb={BIG + 16} (~1e+400) kind=exact lc=lc\n")
        assert "verdict=proved" in out

    def test_bound_machine(self, capsys):
        code, payload, _ = run_machine(
            capsys, "bound", "--c1-sq", str(BIG), "--c2", "3", "--genus", "2"
        )
        assert code == 0
        expected = F((9 - BIG) * (BIG + 3) + 18, BIG - 6)
        assert payload["values"]["bound"] == format_rational(expected)
        assert payload["values"]["c1_sq"] == str(BIG)

    def test_bound_text(self, capsys):
        code, out, _ = run(capsys, "bound", "--c1-sq", str(BIG), "--c2", "3", "--genus", "2")
        assert code == 0
        expected = F((9 - BIG) * (BIG + 3) + 18, BIG - 6)
        assert out == f"K.C <= {format_rational(expected)} (~-1e+400)\n"

    @pytest.mark.parametrize(
        "x, text",
        [
            (F(29, 2), "14.5"),
            (F(1, 3), "0.3333333"),
            (F(10**300, 7), "1.428571e+299"),
            (F(-29 * BIG, 2), "-1.45e+401"),
            (F(BIG, 3), "3.333333e+399"),
            (F(1, BIG), "1e-400"),
            (F(-3, BIG), "-3e-400"),
            # subnormal: float() keeps only about 4 digits here
            (F(1234567, 10**326), "1.234567e-320"),
            (F(0), "0"),
        ],
    )
    def test_annotation(self, x, text):
        # Past float range, at either end, the annotation keeps the same
        # 7-digit %g style.
        assert orbeuler.cli._decimal(x) == text


class TestArrangement:
    def test_fermat_equality(self, capsys):
        code, out, _ = run(capsys, "arrangement", "--k", "6", "--t", "2:3,3:4")
        assert code == 0
        assert "equality" in out

    def test_near_pencil(self, capsys):
        code, out, _ = run(capsys, "arrangement", "--k", "5", "--t", "4:1,2:4")
        assert code == 1
        assert "hypothesis-not-met" in out

    def test_invalid_identity(self, capsys):
        code, _, err = run(capsys, "arrangement", "--k", "4", "--t", "2:5")
        assert code == 2
        assert "pair-count identity" in err

    def test_fano_violation(self, capsys):
        code, out, _ = run(capsys, "arrangement", "--k", "7", "--t", "3:7")
        assert code == 1
        assert out.splitlines() == [
            "verdict=violation",
            "sum r*t_r = 21 >= 24 (slack -3)",
            "sum r^2*t_r = 63 >= 66 (slack -3)",
        ]

    def test_document_form(self, capsys):
        doc = json.dumps({"k": 4, "t": {"2": 6}})
        code, payload, _ = run_machine(capsys, "arrangement", doc)
        assert code == 0
        assert payload["values"]["incidence_sum"] == "12"

    def test_document_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"k": 4, "t": {"2": 6}}\n'))
        code, payload, _ = run_machine(capsys, "arrangement", "-")
        assert (code, payload["verdict"]) == (0, "holds")

    @pytest.mark.parametrize(
        "argv",
        [("--k", "4", "--t", "2:1,2:6"), ('{"k": 4, "t": {"2": 6, "02": 1}}',)],
        ids=["flags", "document"],
    )
    def test_duplicate_r_is_exit_2(self, capsys, argv):
        # The flag form used to keep only the last count given for r.
        code, out, err = run(capsys, "arrangement", *argv)
        assert (code, out, err) == (2, "", "error: duplicate entry for r = 2\n")

    @pytest.mark.parametrize("key", ["0_2", " +2 ", "2 ", "\uff12", "\u0662"])
    def test_key_not_an_ascii_integer_is_exit_2(self, capsys, key):
        # int() reads each of these as 2, and "k": 3 with t_2 = 3 holds.
        code, out, err = run(capsys, "arrangement", json.dumps({"k": 3, "t": {key: 3}}))
        assert (code, out, err) == (2, "", f"error: point order r must be an integer >= 2, got {key!r}\n")

    @pytest.mark.parametrize("key", ["2", "+2", "02"])
    def test_ascii_integer_keys_read_as_before(self, capsys, key):
        code, out, _ = run(capsys, "arrangement", json.dumps({"k": 3, "t": {key: 3}}))
        assert (code, out.splitlines()[0]) == (0, "verdict=holds")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (('{"k": 4, "t": {"x": 6}}',), "point order r must be an integer >= 2, got 'x'"),
            (("--k", "4", "--t", "2"), "--t needs r:t_r,r:t_r,..., got '2'"),
            (("--k", "4", "--t", "2:x"), "--t needs r:t_r,r:t_r,..., got '2:x'"),
            # int() reads the count as 3, and k = 3 with t_2 = 3 holds.
            (("--k", "3", "--t", "2:\u0663"), "--t needs r:t_r,r:t_r,..., got '2:\u0663'"),
        ],
        ids=["document-key", "flag-without-count", "flag-count", "flag-count-non-ascii"],
    )
    def test_malformed_count_is_named(self, capsys, argv, message):
        code, out, err = run(capsys, "arrangement", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_t_not_an_object_is_exit_2(self, capsys):
        code, out, err = run(capsys, "arrangement", '{"k": 4, "t": [1]}')
        assert (code, out) == (2, "")
        assert err == "error: t must map r to t_r, got list\n"


class TestCollector:
    """A command runs with the cyclic collector off and leaves no cycles behind."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_main_restores_the_callers_setting(self, capsys, monkeypatch, collector):
        assert run(capsys, "local", "--ordinary", "1/2")[0] == 0
        assert gc.isenabled() is collector
        assert run(capsys, "local", "--ordinary", "3/2")[0] == 2
        assert gc.isenabled() is collector
        seen = []

        def broken(germ):
            seen.append(gc.isenabled())
            raise TypeError("internal")

        monkeypatch.setattr(orbeuler.local, "euler_local", broken)
        with pytest.raises(TypeError, match="internal"):
            main(["local", "--ordinary", "1/2"])
        assert (seen, gc.isenabled()) == ([False], collector)

    @pytest.mark.parametrize("form", ["text", "machine"])
    @pytest.mark.parametrize("collector", [False], indirect=True, ids=["disabled"])
    def test_garbage_does_not_grow_with_the_batch(self, capsys, form, collector):
        # The same cycles (the argument parser's) after 1 document as after
        # 2000: a command that made a cycle per item would fail here.  The
        # collector stays off between runs, so only gc.collect() finds them.
        classes = [
            lambda i: {"type": "ordinary", "coeffs": [f"1/{2 + i % 5}", f"1/{3 + i % 7}", "1/2"]},
            lambda i: {"type": "cyclic", "n": 2 + i % 11, "q": 1, "d1": f"1/{1 + i % 4}", "d2": "0"},
            lambda i: {"type": "star", "b": 2 + i % 3, "arms": [[2, 1, f"1/{1 + i % 6}"], [3, 1, 0], [5, 1, 0]]},
            lambda i: {"type": "germ_mu_tau", "mu": 1 + i, "tau": i},
        ]

        def garbage_after(count):
            docs = json.dumps([classes[i % 4](i) for i in range(count)])
            gc.collect()
            assert run(capsys, "--format", form, "local", docs)[0] == 0
            return gc.collect()

        garbage_after(1)  # the first run may import, and fill caches
        assert garbage_after(1) == garbage_after(2000)


class TestCusps:
    def test_count(self, capsys):
        code, payload, _ = run_machine(capsys, "cusps", "--degree", "6", "--alpha", "1/2")
        assert code == 0
        assert payload["values"]["max_cusps"] == "9"

    def test_optimize(self, capsys):
        code, payload, _ = run_machine(capsys, "cusps", "--optimize", "--grid", "48")
        assert code == 0
        assert payload["values"]["alpha_star"] == "5/16"

    def test_optimize_huge_grid(self, capsys):
        # Two probes around alpha* = (sqrt(73) - 1)/24, whatever the grid size.
        grid = 10**12
        code, payload, _ = run_machine(capsys, "cusps", "--optimize", "--grid", str(grid))
        assert code == 0
        alpha_star = parse_rational(payload["values"]["alpha_star"])
        assert grid % alpha_star.denominator == 0
        assert abs(float(alpha_star) - (math.sqrt(73) - 1) / 24) < F(1, grid)

    def test_invalid_query(self, capsys):
        code, _, err = run(capsys, "cusps", "--degree", "4", "--alpha", "1/2")
        assert code == 2

    def test_conflicting_flags(self, capsys):
        code, _, err = run(capsys, "cusps", "--optimize", "--degree", "6", "--alpha", "1/2")
        assert code == 2


class TestBoundAndCheck:
    def test_bound(self, capsys):
        code, payload, _ = run_machine(
            capsys, "bound", "--c1-sq", "8", "--c2", "3", "--genus", "2"
        )
        assert code == 0
        assert payload["values"]["bound"] == "29/2"

    def test_bound_hypothesis_failure(self, capsys):
        code, _, err = run(capsys, "bound", "--c1-sq", "6", "--c2", "3", "--genus", "0")
        assert code == 2

    def test_check_equality(self, capsys):
        doc = json.dumps(
            {
                "c1_sq": 9,
                "c2": 3,
                "alpha": "1/2",
                "k_dot_c": -18,
                "c_sq": 36,
                "points": [{"mu": 2, "e_orb": "1/6"}] * 9,
            }
        )
        code, payload, _ = run_machine(capsys, "check", doc)
        assert code == 0
        assert payload["verdict"] == "holds"
        assert payload["values"]["equality"] is True

    def test_check_violation_exit(self, capsys):
        doc = json.dumps(
            {
                "c1_sq": 9,
                "c2": 3,
                "alpha": "1/2",
                "k_dot_c": -18,
                "c_sq": 36,
                "points": [[2, "1/6"]] * 10,
            }
        )
        code, payload, _ = run_machine(capsys, "check", doc)
        assert code == 1
        assert payload["verdict"] == "violation"

    @pytest.mark.parametrize(
        "points, message",
        [
            ({}, "check field 'points' must be a list, got dict"),
            ([[2]], "point [2] is not a (mu, e_orb) pair"),
            ([3], "point 3 is not a (mu, e_orb) pair"),
        ],
    )
    def test_malformed_points_are_exit_2(self, capsys, points, message):
        doc = {"c1_sq": 9, "c2": 3, "alpha": "1/2", "k_dot_c": -18, "c_sq": 36, "points": points}
        code, out, err = run(capsys, "check", json.dumps(doc))
        assert (code, out, err) == (2, "", f"error: {message}\n")


def global_doc(surface, components=(), points=()):
    return json.dumps({"surface": surface, "components": list(components), "points": list(points)})


PLANE = {"mode": "plane"}
QUARTIC = {"id": "C", "a": "1", "genus": 2, "degree": 4}
ON_C = {"id": "P", "local": {"type": "germ_mu_tau", "mu": 3, "tau": 1}, "incident": [["C", 1]], "m_P": "2"}
OFF_D = {"id": "R", "local": {"type": "ordinary", "coeffs": ["1/2"]}, "incident": [], "m_P": "0"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (("global", "[]"), "pair document must be an object, got list"),
        (("global", global_doc({"mode": "plane", "e_top": 3.0, "c1_sq": 9.0})), "e_top must be an integer, got 3.0"),
        (("global", global_doc({"mode": "plane", "e_top": True})), "e_top must be an integer, got True"),
        (("global", global_doc({"mode": "plane", "c1_sq": "9"})), "c1_sq must be an integer, got '9'"),
        (("global", global_doc(PLANE, [QUARTIC], [ON_C, ON_C])), "point ids must be unique"),
        (("global", global_doc(PLANE, [QUARTIC], [{**ON_C, "m_P": "-2"}])), "multiplicity must be nonnegative"),
        (
            (
                "global",
                global_doc(
                    {"mode": "generic", "e_top": 4, "c1_sq": 8},
                    [{"id": "C", "a": "1", "genus": 2, "pairings": {"K": -4, "C": 2}},
                     {"id": "E", "a": "1", "genus": 0, "pairings": {"K": -2, "E": 0}}],
                ),
            ),
            "missing pairing entry between C and E",
        ),
        # Plane mode reads degrees, so pairings would only ever be ignored.
        (
            ("global", global_doc(PLANE, [{**QUARTIC, "pairings": {"K": 999, "C": 5}}])),
            "component C: plane mode reads no pairings",
        ),
        # The germ at P is refused at evaluation, but R is refused when the
        # pair is built, wherever it stands.
        (("global", global_doc(PLANE, [QUARTIC], [ON_C, OFF_D])), "point R lies on no component"),
        (("local", "--jobs", "0", "--ordinary", "1/2"), "--jobs must be >= 1"),
        (("local", "--ordinary", "1/2", "--cyclic", "2,1,0,0"), "several inline flags"),
        (("local", "--star", "1;2,1,0;3,1,0"), "--star needs"),
        (("local",), "no input"),
        (("arrangement", '{"k": 4}'), "arrangement document missing field 't'"),
        (("arrangement", "--k", "4"), "give --k and --t"),
        (("arrangement", '{"k": 4, "t": {"2": 6}}', "--k", "4"), "both a document and inline"),
        (("cusps",), "give --degree and --alpha"),
        (
            ("check", '{"c1_sq": 9, "alpha": "1/2", "k_dot_c": -18, "c_sq": 36, "points": []}'),
            "missing field 'c2'",
        ),
        (
            (
                "check",
                '{"c1_sq": 9, "c2": 3, "alpha": "1/2", "k_dot_c": -18, "c_sq": 36, '
                '"points": [{"e_orb": "1/6"}]}',
            ),
            "point entry missing field 'mu'",
        ),
        # json decodes recursively, and running out of stack is invalid
        # input, not a violation (exit 1) with a traceback.
        *(
            ((command, "[" * 100000 + "]" * 100000), "document nested too deeply")
            for command in ("local", "germ", "global")
        ),
    ],
)
def test_invalid_input_is_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


# Each field of these documents is replaced by each of JSON_VALUES.
MUTATED_DOCUMENTS = [
    ("global", pair_to_dict(nodal_cubic_pair())),
    ("global", pair_to_dict(cuspidal_cubic_with_line_pair())),
    ("global", pair_to_dict(quadric_pair())),
    ("global", pair_to_dict(quotient_point_pair())),
    ("global", pair_to_dict(refused_germ_pair())),
    ("local", {"type": "ordinary", "coeffs": ["1/2", "1/3"]}),
    ("local", {"type": "cyclic", "n": 5, "q": 2, "d1": "1/2", "d2": "0"}),
    ("local", {"type": "star", "b": 2, "arms": [[2, 1, "0"], [3, 1, "1/2"], [3, 2, "0"]]}),
    ("local", [{"type": "germ_mu_tau", "mu": 3, "tau": 2}]),
    ("germ", [{"terms": [[2, 0, "1"], [0, 3, "-1/2"]]}, "x^2+y^5"]),
    ("arrangement", {"k": 6, "t": {"2": 3, "3": 4}}),
    ("check", {"c1_sq": 9, "c2": 3, "alpha": "1/2", "k_dot_c": -18, "c_sq": 36,
               "points": [{"mu": 2, "e_orb": "1/6"}, [2, "1/6"]]}),
]
JSON_VALUES = [None, True, 0.5, 3, "x", [], [3], {}, {"a": 1}]
# What a TypeError or ValueError from Python itself says, naming no field.
RAW_MESSAGES = ("is not iterable", "unhashable type", "values to unpack", "dictionary update sequence")


def field_paths(node, path=()):
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from field_paths(value, path + (key,))


@pytest.mark.parametrize(
    "command, doc",
    MUTATED_DOCUMENTS,
    ids=[f"{command}-{i}" for i, (command, _) in enumerate(MUTATED_DOCUMENTS)],
)
def test_every_mutated_field_is_answered_or_refused(capsys, command, doc):
    # Whatever a field holds, the CLI answers (exit 0 or 1) or refuses the
    # document on one line that names its fault (exit 2); it never raises,
    # since only a bug in the library may.
    for path in field_paths(doc):
        for value in JSON_VALUES:
            mutated = json.loads(json.dumps(doc))
            parent = mutated
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            code, out, err = run(capsys, command, json.dumps(mutated))
            assert code in (0, 1, 2), (path, value)
            if code == 2:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (path, value)
                assert not any(text in err for text in RAW_MESSAGES), (path, value, err)


@pytest.mark.parametrize("command", ["arrangement", "check"])
@pytest.mark.parametrize("doc, kind", [("3", "int"), ('"k t"', "str"), ("null", "NoneType"), ("[6]", "list")])
def test_document_not_an_object_is_exit_2(capsys, monkeypatch, command, doc, kind):
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, err = run(capsys, command, "-")
    assert (code, out, err) == (2, "", f"error: {command} document must be an object, got {kind}\n")


@pytest.mark.parametrize("text", ["\u0663\u0660", "3_0", " 30", "30 "])
@pytest.mark.parametrize(
    "argv, flag",
    [
        (("local", "--ordinary", "1/2", "--jobs", "{}"), "--jobs"),
        (("germ", "x^2+y^3", "--cap", "{}"), "--cap"),
        (("germ", "x^2+y^3", "--jobs", "{}"), "--jobs"),
        (("arrangement", "--k", "{}", "--t", "2:435"), "--k"),
        (("cusps", "--degree", "{}", "--alpha", "1/2"), "--degree"),
        (("cusps", "--optimize", "--grid", "{}"), "--grid"),
        (("bound", "--c1-sq", "{}", "--c2", "10", "--genus", "3"), "--c1-sq"),
        (("bound", "--c1-sq", "9", "--c2", "{}", "--genus", "3"), "--c2"),
        (("bound", "--c1-sq", "9", "--c2", "3", "--genus", "{}"), "--genus"),
    ],
)
def test_integer_option_takes_ascii_digits_only(capsys, argv, flag, text):
    # int() reads each text as 30, which every one of these commands accepts
    # or refuses by its value.
    with pytest.raises(SystemExit) as stop:
        main([arg.format(text) for arg in argv])
    out, err = capsys.readouterr()
    assert (stop.value.code, out) == (2, "")
    assert f"argument {flag}: invalid" in err


def test_verdict_exit_map_is_total():
    from orbeuler.cli import _EXIT_BY_VERDICT

    assert set(_EXIT_BY_VERDICT.values()) <= {0, 1}
    for verdict in (
        "computed",
        "proved",
        "consistent-upper-bound",
        "holds",
        "no-obstruction",
        "LCT-fails",
        "violation",
        "hypothesis-not-met",
        "precondition-failed",
    ):
        assert verdict in _EXIT_BY_VERDICT


# Batches for the --jobs tests: a heavy germ among light ones, and one
# document of each local class.
JOBS_GERMS = json.dumps(["x^2+y^3", "x^2y+y^9", "x^3+y^5", "x^2+y^4", "x^4+y^5", "xy"])
JOBS_LOCAL_DOCS = json.dumps(
    [
        {"type": "ordinary", "coeffs": ["1/2", "1/2", "1/2"]},
        {"type": "cyclic", "n": 5, "q": 2, "d1": "1/2", "d2": "1/3"},
        {"type": "star", "b": 2, "arms": [[2, 1, "1/2"], [3, 1, 0], [5, 1, "1/3"]]},
        {"type": "germ_mu_tau", "mu": 4, "tau": 3},
    ]
)
# Two invalid entries per subcommand, each with its own message.
BAD = {
    "germ": (("1+x", "must vanish at the origin"), ("0", "identically zero")),
    "local": (
        ({"type": "bogus"}, "unknown singularity type"),
        ({"type": "ordinary", "coeffs": []}, "needs at least one branch"),
    ),
}


class TestJobs:
    """``--jobs`` changes who evaluates a batch, never what is printed."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Sets the CPU count the CLI sees, so that a test forks the same
        number of workers on any machine."""
        return lambda count: monkeypatch.setattr(orbeuler.cli.os, "cpu_count", lambda: count)

    @pytest.mark.parametrize("argv", [("germ", JOBS_GERMS), ("local", JOBS_LOCAL_DOCS)], ids=["germ", "local"])
    @pytest.mark.parametrize("jobs", ["2", "3"])
    def test_parallel_is_serial(self, capsys, cpus, argv, jobs):
        cpus(int(jobs))
        serial = run(capsys, *argv, "--jobs", "1")
        assert serial[0] == 0 and len(serial[1].splitlines()) > 1
        assert run(capsys, *argv, "--jobs", jobs) == serial
        with pytest.raises(ChildProcessError):  # every worker has been reaped
            os.waitpid(-1, os.WNOHANG)

    def test_workers_are_capped_by_cpus(self, capsys, cpus, monkeypatch):
        cpus(2)
        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(os.getpid())
            return fork()

        batch = json.dumps(["x^2+y^3", "x^3+y^5", "x^2y+y^4", "x^2+y^9"])
        serial = run(capsys, "germ", batch, "--jobs", "1")
        monkeypatch.setattr(orbeuler.cli.os, "fork", counted_fork)
        assert run(capsys, "germ", batch, "--jobs", "64") == serial
        assert forks == [os.getpid()]

    @pytest.mark.parametrize("argv", [("germ", JOBS_GERMS), ("local", JOBS_LOCAL_DOCS)], ids=["germ", "local"])
    def test_failed_fork_is_serial(self, capsys, cpus, monkeypatch, argv):
        cpus(3)
        serial = run(capsys, *argv, "--jobs", "1")

        def no_fork():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(orbeuler.cli.os, "fork", no_fork)
        assert run(capsys, *argv, "--jobs", "3") == serial

    def test_dead_worker_is_serial(self, capsys, cpus, monkeypatch):
        cpus(2)
        serial = run(capsys, "germ", JOBS_GERMS, "--jobs", "1")
        evaluate = orbeuler.cli._eval_germ_docs
        parent = os.getpid()
        dying, died = os.pipe()
        seen = []

        def killed_in_child(payloads):
            # The child dies on the first chunk it claims; the parent waits on
            # its own first chunk until then, so the child surely claims one.
            if payloads and os.getpid() != parent:
                os.write(died, b"!")
                os.kill(os.getpid(), signal.SIGKILL)
            if payloads and not seen:
                seen.append(select.select([dying], [], [], 60)[0])
            return evaluate(payloads)

        monkeypatch.setattr(orbeuler.cli, "_eval_germ_docs", killed_in_child)
        try:
            assert run(capsys, "germ", JOBS_GERMS, "--jobs", "2") == serial
        finally:
            os.close(dying)
            os.close(died)
        assert seen == [[dying]]

    @pytest.mark.parametrize("form", ["text", "machine"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_local_drops_its_documents_before_output(self, capsys, cpus, monkeypatch, form, jobs):
        cpus(2)
        argv = ("--format", form, "local", JOBS_LOCAL_DOCS, "--jobs", jobs)
        expected = run(capsys, *argv)

        class Weak(list):
            pass

        refs = {}

        def kept(name, function):
            def call(*args):
                value = Weak(function(*args))
                refs[name] = weakref.ref(value)
                return value

            return call

        calls = []

        def watched(name, function):
            def call(*args, **kwargs):
                calls.append((name, sorted(key for key, ref in refs.items() if ref() is not None)))
                return function(*args, **kwargs)

            return call

        cli = orbeuler.cli
        monkeypatch.setattr(cli, "_local_inputs", kept("documents", cli._local_inputs))
        monkeypatch.setattr(cli, "_parallel_map", kept("results", cli._parallel_map))
        monkeypatch.setattr(cli, "_rat", watched("_rat", cli._rat))
        monkeypatch.setattr(cli, "_decimal", watched("_decimal", cli._decimal))
        monkeypatch.setattr(cli.json, "dumps", watched("json.dumps", json.dumps))
        assert run(capsys, *argv) == expected
        # Each value is formatted after the documents are gone, and the
        # output is written after the results are gone too.
        written = [("json.dumps", [])] if form == "machine" else [("_decimal", [])] * 4
        assert calls == [("_rat", ["results"])] * 4 + written

    @pytest.mark.parametrize("command", ["germ", "local"])
    @pytest.mark.parametrize("jobs", ["2", "3"])
    @pytest.mark.parametrize("first, second", [(0, 1), (1, 6), (4, 5), (2, 7)])
    @pytest.mark.parametrize("swap", [False, True], ids=["in-order", "swapped"])
    def test_first_error_is_serial_first_error(self, capsys, cpus, command, jobs, first, second, swap):
        cpus(int(jobs))
        good = json.loads(JOBS_GERMS if command == "germ" else JOBS_LOCAL_DOCS)
        batch = [good[k % len(good)] for k in range(8)]
        (bad, message), (later, _) = BAD[command][::-1] if swap else BAD[command]
        batch[first], batch[second] = bad, later
        serial = run(capsys, command, json.dumps(batch), "--jobs", "1")
        assert serial[:2] == (2, "") and message in serial[2]
        assert run(capsys, command, json.dumps(batch), "--jobs", jobs) == serial
