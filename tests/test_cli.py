import json
from fractions import Fraction as F

import orbeuler.cli
import orbeuler.pairs
from orbeuler import (
    euler_orbifold_global,
    format_rational,
    pair_kd_squared,
    pair_to_dict,
    parse_rational,
)
from orbeuler.cli import main

from fixtures import (
    concurrent_lines_pair,
    lc_effective_corpus,
    nine_cusp_sextic_pair,
    quadrilateral_pair,
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

    def test_invalid_weight_is_exit_2(self, capsys):
        code, _, err = run(capsys, "local", "--ordinary", "3/2")
        assert code == 2
        assert "error" in err

    def test_non_lc_reports_zero(self, capsys):
        code, payload, _ = run_machine(capsys, "local", "--ordinary", "1,1,1")
        assert code == 0
        assert payload["values"] == {"value": "0", "kind": "exact", "lc": "non-lc"}


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

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "germ", "z^2")
        assert code == 2
        assert err

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
        code, _, _ = run_machine(capsys, "global", json.dumps(pair_to_dict(pair)))
        assert code == 0
        # one assembly, one (K+D)^2, and each point evaluated once for both forms
        assert calls == {"global": 1, "kd_sq": 1, "local": len(pair.points)}

    def test_values_match_direct_calls(self, capsys):
        for name, pair in lc_effective_corpus():
            direct = euler_orbifold_global(pair)
            _, payload, _ = run_machine(capsys, "global", json.dumps(pair_to_dict(pair)))
            values = payload["values"]
            assert parse_rational(values["e_orb"]) == direct.value, name
            assert values["kind"] == direct.exactness.value, name
            assert values["lc"] == ("lc" if direct.lc else "non-lc"), name
            assert parse_rational(values["kd_sq"]) == pair_kd_squared(pair), name


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

    def test_document_form(self, capsys):
        doc = json.dumps({"k": 4, "t": {"2": 6}})
        code, payload, _ = run_machine(capsys, "arrangement", doc)
        assert code == 0
        assert payload["values"]["incidence_sum"] == "12"


class TestCusps:
    def test_count(self, capsys):
        code, payload, _ = run_machine(capsys, "cusps", "--degree", "6", "--alpha", "1/2")
        assert code == 0
        assert payload["values"]["max_cusps"] == "9"

    def test_optimize(self, capsys):
        code, payload, _ = run_machine(capsys, "cusps", "--optimize", "--grid", "48")
        assert code == 0
        assert payload["values"]["alpha_star"] == "5/16"

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
