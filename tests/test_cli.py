"""The talex command line: text output, JSON output, exit codes."""

import json

import pytest

from talex.cli import main


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


@pytest.fixture
def trefoil_slice(tmp_path):
    path = tmp_path / "slice.cons"
    path.write_text("trace a = 2.1 0\ntrace b = 2.1 0\ntrace ab = 1 0\n")
    return str(path)


class TestAlexanderCommand:
    def test_packaged_fixture_fallback(self, run):
        code, out, err = run("alexander", "--pres", "fixtures/9_35.pres")
        assert code == 0
        assert out == "7*t^2 - 13*t + 7\n"
        assert err == ""

    def test_pd_input(self, run):
        code, out, _ = run("alexander", "--pd", "fixtures/8_20.pd")
        assert code == 0
        assert out == "t^4 - 2*t^3 + 3*t^2 - 2*t + 1\n"

    def test_real_path_input(self, run, tmp_path):
        path = tmp_path / "knot.pres"
        path.write_text("gens: a b\nrel: abaBAB\n")
        code, out, _ = run("alexander", "--pres", str(path))
        assert code == 0
        assert out == "t^2 - t + 1\n"

    def test_json_output(self, run):
        code, out, _ = run("alexander", "--pres", "fixtures/9_35.pres", "--json")
        data = json.loads(out)
        assert data["text"] == "7*t^2 - 13*t + 7"
        assert data["alexander"]["coeffs"] == {"0": "7", "1": "-13", "2": "7"}

    def test_report_file(self, run, tmp_path):
        report = tmp_path / "out.json"
        code, out, _ = run("alexander", "--pres", "fixtures/9_35.pres",
                           "--report", str(report))
        assert code == 0
        assert "report written to %s" % report in out
        data = json.loads(report.read_text())
        assert data["text"] == "7*t^2 - 13*t + 7"

    def test_missing_file_is_parse_error(self, run):
        code, out, err = run("alexander", "--pres", "no_such_file.pres")
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "ParseError"

    def test_presentation_required(self, run):
        code, _, err = run("alexander")
        assert code == 2
        assert json.loads(err)["error"] == "ParseError"

    def test_negative_tolerance_rejected(self, run):
        code, _, err = run("alexander", "--pres", "fixtures/3_1.pres",
                           "--tol-clean=-1")
        assert code == 2
        assert json.loads(err)["error"] == "ParseError"


class TestTwistedCommand:
    def test_constraint_solve_is_monic(self, run, trefoil_slice):
        code, out, _ = run("twisted", "--pres", "fixtures/3_1.pres",
                           "--constraints", trefoil_slice)
        assert code == 0
        assert "degree span 2" in out
        assert "monic yes" in out

    def test_abelian_lambda_is_not_polynomial(self, run):
        code, out, _ = run("twisted", "--pres", "fixtures/3_1.pres",
                           "--lambda=2,0")
        assert code == 0
        assert out.startswith("not a polynomial; numerator")

    def test_rep_file_round_trip(self, run, tmp_path, trefoil_irr):
        rep = tmp_path / "rho.json"
        rep.write_text(json.dumps(trefoil_irr.to_json_dict()))
        code, out, _ = run("twisted", "--pres", "fixtures/3_1.pres",
                           "--rep", str(rep))
        assert code == 0
        assert "monic yes" in out

    def test_exactly_one_source_required(self, run, trefoil_slice):
        code, _, err = run("twisted", "--pres", "fixtures/3_1.pres")
        assert code == 2
        code2, _, err2 = run("twisted", "--pres", "fixtures/3_1.pres",
                             "--constraints", trefoil_slice, "--lambda=2,0")
        assert code2 == 2

    def test_unsatisfiable_constraints_exit_five(self, run, tmp_path):
        cons = tmp_path / "bad.cons"
        cons.write_text("trace a = 9 0\ntrace b = 9 0\ntrace ab = 0 0\n")
        code, _, err = run("twisted", "--pres", "fixtures/3_1.pres",
                           "--constraints", str(cons))
        assert code == 5
        assert json.loads(err)["error"] == "SolveError"


class TestMonicScanCommand:
    def test_sweep_rows(self, run, tmp_path):
        sweep = tmp_path / "scan.sweep"
        sweep.write_text("trace a = 2.2 0\ntrace b = 2.2 0\n"
                         "sweep ab = 0 0 .. 2 0 steps 5\n")
        code, out, _ = run("monic-scan", "--pres", "fixtures/3_1.pres",
                           "--constraints", str(sweep), "--json")
        assert code == 0
        data = json.loads(out)
        assert data["steps"] == 5
        assert data["sweep_word"] == "ab"
        assert data["monic_count"] == 1
        assert data["monic_steps"] == [2]
        assert len(data["rows"]) == 5
        solved = [r for r in data["rows"] if r["solved"]]
        assert len(solved) == 1 and solved[0]["step"] == 2
        assert solved[0]["monic"]

    def test_text_output(self, run, tmp_path):
        sweep = tmp_path / "scan.sweep"
        sweep.write_text("trace a = 2.2 0\ntrace b = 2.2 0\n"
                         "sweep ab = 0.9 0 .. 1.1 0 steps 3\n")
        code, out, _ = run("monic-scan", "--pres", "fixtures/3_1.pres",
                           "--constraints", str(sweep))
        assert code == 0
        assert "sweep ab over 3 steps" in out
        assert "MONIC" in out

    def test_sweep_line_required(self, run, tmp_path, trefoil_slice):
        code, _, err = run("monic-scan", "--pres", "fixtures/3_1.pres",
                           "--constraints", trefoil_slice)
        assert code == 2
        assert json.loads(err)["error"] == "ParseError"

    def test_byte_determinism(self, run, tmp_path):
        sweep = tmp_path / "scan.sweep"
        sweep.write_text("trace a = 2.2 0\ntrace b = 2.2 0\n"
                         "sweep ab = 0 0 .. 2 0 steps 5\n")
        outputs = []
        for _ in range(2):
            code, out, _ = run("monic-scan", "--pres", "fixtures/3_1.pres",
                               "--constraints", str(sweep), "--json")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestGenusCommand:
    def test_meets_bound(self, run, trefoil_slice):
        code, out, _ = run("genus", "--pres", "fixtures/3_1.pres",
                           "--constraints", trefoil_slice,
                           "--seifert", "fixtures/3_1.seifert")
        assert code == 0
        assert "degree span 2" in out
        assert "genus lower bound 1" in out
        assert "degree meets the bound" in out

    def test_without_seifert(self, run, trefoil_slice):
        code, out, _ = run("genus", "--pres", "fixtures/3_1.pres",
                           "--constraints", trefoil_slice)
        assert code == 0
        assert "genus lower bound 1" in out


class TestSignatureCommand:
    def test_jump_listing(self, run):
        code, out, _ = run("signature", "--seifert", "fixtures/3_1.seifert")
        assert code == 0
        assert "det(V - tV^T) = t^2 - t + 1" in out
        assert "jumps: 1.047198 -> -2, 5.235988 -> +2" in out
        assert "identically zero: no" in out

    def test_identically_zero_fixture(self, run):
        code, out, _ = run("signature", "--seifert", "fixtures/8_20.seifert")
        assert code == 0
        assert "jumps: none" in out
        assert "identically zero: yes" in out

    def test_lambda_evaluation(self, run):
        code, out, _ = run("signature", "--seifert", "fixtures/3_1.seifert",
                           "--lambda=-1,0")
        assert code == 0
        assert "sigma(-1) = -2" in out
        assert "averaged -2" in out

    def test_off_circle_lambda_exit_three(self, run):
        code, _, err = run("signature", "--seifert", "fixtures/3_1.seifert",
                           "--lambda=0.5,0")
        assert code == 3
        assert json.loads(err)["error"] == "AlgebraError"

    def test_seifert_required(self, run):
        code, _, err = run("signature")
        assert code == 2


class TestSatelliteCommand:
    def test_zero_winding(self, run):
        code, out, _ = run("satellite", "--pattern", "fixtures/9_35.alex",
                           "--companion", "fixtures/3_1.alex", "--winding", "0")
        assert code == 0
        assert out == "7*t^2 - 13*t + 7\n"

    def test_winding_two(self, run):
        code, out, _ = run("satellite", "--pattern", "fixtures/9_35.alex",
                           "--companion", "fixtures/3_1.alex", "--winding", "2")
        assert code == 0
        assert out == "7*t^6 - 13*t^5 + 13*t^3 - 13*t + 7\n"


class TestPretzelCommand:
    def test_full_payload(self, run):
        code, out, _ = run("pretzel935", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["curves"]["C"] == "y^2 - z - 1"
        assert data["curves"]["Cprime"] == ("y^4*z - 2*y^4 - 2*y^2*z^2 + "
                                            "5*y^2*z - 2*y^2 + z^3 - 3*z^2 "
                                            "+ 3*z - 1")
        assert data["psi2"] == "x^3 + 6*x^2 + 6*x + 5"
        assert data["censuses"]["monic"]["count"] == 6
        assert data["censuses"]["non_genus"]["count"] == 2
        assert data["censuses"]["C"] == "identically 18"
        assert data["certification"]["ok"] is True
        assert len(data["monic_loop"]) == 6
        assert all(row["monic"] for row in data["monic_loop"])

    def test_determinism(self, run):
        a = run("pretzel935", "--json")
        b = run("pretzel935", "--json")
        assert a == b


class TestDispatch:
    def test_unknown_command(self, run):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_deterministic_byte_output(self, run):
        a = run("alexander", "--pres", "fixtures/9_35.pres", "--json")
        b = run("alexander", "--pres", "fixtures/9_35.pres", "--json")
        assert a == b
