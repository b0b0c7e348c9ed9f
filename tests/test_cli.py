"""The talex command line: text output, JSON output, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import talex
from talex import cli
from talex.cli import _build_parser, main
from talex.fixtures import fixture_path
from talex.representations import Representation
from talex.signature import SeifertMatrix

from conftest import block_sum, load_fixture_text, torus_seifert


SUBCOMMANDS = ("alexander", "twisted", "monic-scan", "genus", "signature",
               "satellite", "pretzel935")
SEEDED = {"twisted", "monic-scan", "genus", "pretzel935"}


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

    def test_text_output_serializes_no_json(self, run, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("json.dumps called without --json/--report")

        monkeypatch.setattr(json, "dumps", refuse)
        code, out, _ = run("alexander", "--pd", "fixtures/8_20.pd")
        assert (code, out) == (0, "t^4 - 2*t^3 + 3*t^2 - 2*t + 1\n")

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

    @pytest.mark.parametrize("flag", ["--tol-clean=1e-9", "--tol-cluster=1e-9",
                                      "--tol-residual=1e-9", "--seed=1"])
    def test_reads_no_tolerance_or_seed(self, flag, capsys):
        with pytest.raises(SystemExit):
            main(["alexander", "--pres", "fixtures/3_1.pres", flag])
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("flag", ["clean", "cluster", "residual"])
    def test_negative_tolerance_rejected(self, flag, value, capsys):
        # a nan or infinite bound would make every "val > bound" test
        # false; the bounds are library constants, so no subcommand takes
        # a tolerance flag at any value
        for command in SUBCOMMANDS:
            with pytest.raises(SystemExit) as exc:
                main([command, "--tol-%s=%s" % (flag, value)])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_seed_only_where_sampled(self):
        for command in SUBCOMMANDS:
            _, extra = _build_parser().parse_known_args([command, "--seed=1"])
            assert (extra == []) == (command in SEEDED)


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

    def test_residual_is_computed_once_per_solve(self, run, monkeypatch):
        # each closed-form solve evaluates the solver's rows once, and the
        # solved rows report the residual of that pass's relator rows, so
        # neither the solve nor the command computes it again
        real = talex.representations._rows
        passes = []

        def counting(eq, imgs):
            passes.append(real(eq, imgs))
            return passes[-1]

        def again(rho):
            raise AssertionError("relator_residual was called")

        monkeypatch.setattr(talex.representations, "_rows", counting)
        monkeypatch.setattr(Representation, "relator_residual", again)
        code, out, _ = run("monic-scan", "--pres", "fixtures/3_1.pres",
                           "--constraints", BENCH_SWEEP, "--json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(passes) == len(rows) == 5
        assert sum(r["solved"] for r in rows) == 1
        for r, f in zip(rows, passes):
            if r["solved"]:
                assert r["residual"] == max(map(abs, f[:4]))

    def test_bench_sweep_json_bytes_are_pinned(self, run):
        code, out, err = run("monic-scan", "--pres", "fixtures/3_1.pres",
                             "--constraints", BENCH_SWEEP, "--json")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "301c6fbd5bc13fa820349c0e1c00d427b905eb43d8c5b976765e4ecc030144c0")

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


BENCH_SWEEP = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "trefoil_sweep.txt")

# twisted --constraints on 9_35 at (y, z) = (2.5, 5.25): every generator
# is pinned (c by its trace and the rows bc and ca, linear in c), so the
# closed form builds the representation.  Without ca the set goes to the
# Newton solver.
P935_CONSTRAINTS = "".join("trace %s = %s 0\n" % (w, v) for w, v in (
    ("a", 2.5), ("b", 2.5), ("c", 2.5), ("ab", 5.25), ("bc", 5.25),
    ("ca", 5.25)))
P935_TWISTED = (
    "(18-1.3200903934e-14j)*t^2 + (-45+4.86834816536e-14j)*t "
    "+ (18-2.27373675443e-14j)\n"
    "degree span 2, leading 18-1.3200903934e-14j, monic no\n")
P935_WITHOUT_CA = P935_CONSTRAINTS.rsplit("trace ca", 1)[0]
# The same set with tr(ab) swept over one value: every step goes to the
# Newton solver, and each solved row carries the relator residual of the
# images its judge accepted.
P935_NEWTON_SWEEP = (P935_WITHOUT_CA.replace("trace ab = 5.25 0\n", "")
                     + "sweep ab = 5.25 0 .. 5.25 0 steps 4\n")
P935_NEWTON_SWEEP_SHA256 = {
    0: "f16bc7d1904915fd88dac99a1e079429f90408061d211fc216f8f85c430febb6",
    7: "6d0f69d87b09be9bdf8fc57292b057577525ae8eaf389b8f49f86c1bf24e138a"}
P935_WITHOUT_CA_TWISTED = (
    "(18+3.96027118021e-15j)*t^2 + (-45-1.62278272179e-14j)*t "
    "+ (18+2.27373675443e-14j)\n"
    "degree span 2, leading 18+3.96027118021e-15j, monic no\n")
# tr(cA) = tr c tr a - tr(ca): the rows of ca and cA are dependent with
# that of c for every A, so this set goes to the solver too.
P935_CA_AND_CA_INVERSE = "".join("trace %s = %s 0\n" % (w, v) for w, v in (
    ("a", 2.5), ("b", 2.5), ("ab", 5.25), ("c", 2.5), ("ca", 5.25),
    ("cA", 1.0)))
P935_CA_AND_CA_INVERSE_TWISTED = (
    "(18-5.28036157361e-15j)*t^2 - 45*t + 18\n"
    "degree span 2, leading 18-5.28036157361e-15j, monic no\n")


def _replace_solver(monkeypatch, fn):
    """Bind fn wherever a talex module binds solve_representation."""
    solve = talex.representations.solve_representation
    for name, mod in list(sys.modules.items()):
        if (name == "talex" or name.startswith("talex.")) and \
                getattr(mod, "solve_representation", None) is solve:
            monkeypatch.setattr(mod, "solve_representation", fn)
    return solve


def _no_solver(*args, **kwargs):
    raise AssertionError("solve_representation was called")


class TestClosedFormRouting:
    def test_monic_scan_runs_no_newton_solve(self, run, monkeypatch):
        _replace_solver(monkeypatch, _no_solver)
        code, out, err = run("monic-scan", "--pres", "fixtures/3_1.pres",
                             "--constraints", BENCH_SWEEP, "--json")
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["monic_steps"] == [2]
        for row in data["rows"]:
            if row["solved"]:
                assert row["residual"] <= 1e-13
            else:
                assert row["reason"].startswith(
                    "no irreducible representation has these traces")
                assert "max|f|" in row["reason"]

    def test_pinned_three_generator_set_runs_no_newton_solve(
            self, run, tmp_path, monkeypatch):
        _replace_solver(monkeypatch, _no_solver)
        path = tmp_path / "p935.cons"
        path.write_text(P935_CONSTRAINTS)
        code, out, err = run("twisted", "--pres", "fixtures/9_35.pres",
                             "--constraints", str(path))
        assert (code, out, err) == (0, P935_TWISTED, "")

    def test_pinned_sets_call_no_lstsq_or_svd(self, run, tmp_path,
                                              monkeypatch):
        # the third generator of the closed form is solved in plain complex
        def no_lapack(*args, **kwargs):
            raise AssertionError("a LAPACK least-squares or SVD was called")

        monkeypatch.setattr(np.linalg, "lstsq", no_lapack)
        monkeypatch.setattr(np.linalg, "svd", no_lapack)
        for y0, z0 in ((2.5, 5.25), (2.2 + 0.3j, (2.2 + 0.3j) ** 2 - 1)):
            assert talex.solve_on_curve(y0, z0).residual <= 1e-10
        path = tmp_path / "p935.cons"
        path.write_text(P935_CONSTRAINTS)
        code, out, err = run("twisted", "--pres", "fixtures/9_35.pres",
                             "--constraints", str(path))
        assert (code, out, err) == (0, P935_TWISTED, "")

    def test_other_constraint_sets_go_to_the_solver(self, run, tmp_path,
                                                    monkeypatch):
        self._assert_solved_by_seed_0(run, tmp_path, monkeypatch,
                                      P935_WITHOUT_CA, P935_WITHOUT_CA_TWISTED)

    def test_dependent_rows_linear_in_c_go_to_the_solver(
            self, run, tmp_path, monkeypatch):
        self._assert_solved_by_seed_0(run, tmp_path, monkeypatch,
                                      P935_CA_AND_CA_INVERSE,
                                      P935_CA_AND_CA_INVERSE_TWISTED)

    @pytest.mark.parametrize("seed", sorted(P935_NEWTON_SWEEP_SHA256))
    def test_newton_sweep_json_bytes_are_pinned(self, run, tmp_path,
                                                monkeypatch, seed):
        calls = []

        def spy(p, cons, seed=0):
            calls.append(seed)
            return solve(p, cons, seed=seed)

        solve = _replace_solver(monkeypatch, spy)
        path = tmp_path / "p935.sweep"
        path.write_text(P935_NEWTON_SWEEP)
        code, out, err = run("monic-scan", "--pres", "fixtures/9_35.pres",
                             "--constraints", str(path), "--json",
                             "--seed", str(seed))
        assert (code, err) == (0, "")
        assert calls == [seed + k for k in range(4)]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            P935_NEWTON_SWEEP_SHA256[seed])

    @staticmethod
    def _assert_solved_by_seed_0(run, tmp_path, monkeypatch, text, expected):
        calls = []

        def spy(p, cons, seed=0):
            calls.append(seed)
            return solve(p, cons, seed=seed)

        solve = _replace_solver(monkeypatch, spy)
        path = tmp_path / "p935.cons"
        path.write_text(text)
        code, out, err = run("twisted", "--pres", "fixtures/9_35.pres",
                             "--constraints", str(path))
        assert (code, calls) == (0, [0])
        assert (out, err) == (expected, "")

    def test_diagram_presentations_go_to_the_solver(self, p820, monkeypatch):
        calls = []

        def spy(p, cons, seed=0):
            calls.append((p.num_generators, seed))
            raise talex.SolveError("spy")

        _replace_solver(monkeypatch, spy)
        cons = {w: 2.5 for w in ("a", "b", "c", "ab", "bc", "ca")}
        with pytest.raises(talex.SolveError, match="spy"):
            talex.representation_from_traces(p820, cons, seed=4)
        assert calls == [(p820.num_generators, 4)]
        with pytest.raises(talex.AlgebraError):
            talex.closed_form_representation(p820, cons)

    def test_closed_form_needs_rows_linear_in_c(self, p935):
        pair = {"a": 2.5, "b": 2.5, "ab": 5.25}
        for cons in ({**pair, "bc": 5.25, "ca": 5.25},
                     {**pair, "c": 2.5, "bc": 5.25},
                     {**pair, "c": 2.5, "bc": 5.25, "cc": 2.0},
                     {**pair, "c": 2.5, "ca": 5.25, "cA": 1.0}):
            with pytest.raises(talex.AlgebraError):
                talex.closed_form_representation(p935, cons)

    def test_four_rows_linear_in_c(self, p935):
        # tr(cA) = tr c tr a - tr(ca) = 1 adds a fourth row, dependent on
        # the rows of tr c and tr(ca)
        cons = {"a": 2.5, "b": 2.5, "c": 2.5, "ab": 5.25, "bc": 5.25,
                "ca": 5.25, "cA": 1.0}
        rho = talex.closed_form_representation(p935, cons)
        assert rho.residual <= 1e-10
        assert not rho.is_reducible()
        assert abs(rho.trace(p935.word("cA")) - 1.0) <= 1e-12

    def test_burde_de_rham_point_exits_five(self, run, tmp_path):
        # y = m + 1/m, tr ab = y^2 - 2 at m = e^{i pi/6}, where the trefoil's
        # reducible characters meet its irreducible ones
        y = 2 * math.cos(math.pi / 6)
        path = tmp_path / "bdr.cons"
        path.write_text("trace a = %r 0\ntrace b = %r 0\ntrace ab = %r 0\n"
                        % (y, y, y * y - 2))
        code, out, err = run("twisted", "--pres", "fixtures/3_1.pres",
                             "--constraints", str(path))
        assert (code, out) == (5, "")
        payload = json.loads(err)
        assert payload["error"] == "SolveError"
        assert payload["reason"].startswith("only reducible representations")


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


# 3_1 at trace a = trace b = T and trace ab = 1, a point of the curve
# tr ab = 1: the twist is exactly t^2 + 1, while the denominator
# t^2 - T t + 1 grows with T.
@pytest.mark.parametrize("trace", ["10", "1e2", "1e3", "1e5", "1e7"])
class TestLargeTraceSlice:
    @pytest.fixture
    def cons(self, tmp_path, trace):
        path = tmp_path / "slice.cons"
        path.write_text("trace a = %s 0\ntrace b = %s 0\ntrace ab = 1 0\n"
                        % (trace, trace))
        return str(path)

    def test_twisted_is_t_squared_plus_one(self, run, cons):
        code, out, err = run("twisted", "--pres", "fixtures/3_1.pres",
                             "--constraints", cons, "--json")
        assert (code, err) == (0, "")
        coeffs = json.loads(out)["twisted"]["polynomial"]["coeffs"]
        got = {int(k): complex(*v) for k, v in coeffs.items()}
        assert set(got) <= {0, 1, 2}
        for k, want in ((0, 1), (1, 0), (2, 1)):
            assert abs(got.get(k, 0) - want) <= 1e-12

    def test_genus_span_two(self, run, cons):
        code, out, err = run("genus", "--pres", "fixtures/3_1.pres",
                             "--constraints", cons,
                             "--seifert", "fixtures/3_1.seifert")
        assert (code, err) == (0, "")
        assert "degree span 2" in out


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


# sha256 of `signature --json` per matrix, with no --lambda and then at each
# of SIGNATURE_LAMBDAS in order: -1, i, e^(0.5i), 1 and e^(2 pi i/3).
SIGNATURE_LAMBDAS = (None, "-1", "0,1",
                     "0.8775825618903728,0.479425538604203", "1",
                     "-0.4999999999999998,0.8660254037844387")
SIGNATURE_JSON_SHA256 = {
    'T2_3': (
        "aaab35a2ea971233106bc82ebef37e4033d88dccac339fb7c6aff4e68e66952d",
        "e961a9a7cbb4637a24b75e21841863db492264af1c3d87e8885c5735aea019fb",
        "99be1e9bc76bdc13db2317826a6b8af9f8b543d93f6d3ba759a9a526fcc57a85",
        "7c0ac2737803e0e0f44c65a7a469249c0b80a9e5cc78ae6918b48d18d1068f2c",
        "c34ffc42d5f9342ab85c16015ea68969577cbe4caeaa4720101fc33137beb654",
        "f6da54fa133784235862709f810a04a162d6a82589a3ea6cc0519939eff9646e",
    ),
    'T2_5': (
        "6e1cbbf273261c01e411d16791f83980fe4e64bb2949d25aa466c985cc346352",
        "2e43625b6e25c7e7f2a93b3b27104b12ff35c5077268fdff2f71c0089314c292",
        "db870c2e1d11c521c28bffecb11d2148ddc63d49be7924d543ecf60fd6d8400f",
        "c80e95174e09c57417fe41d4dd0fac0f97290b95e58cc4f8b49518134f515684",
        "f76dbd99780f2bf26a45497334feae74524bbf93050cf0884b010a2648de5e25",
        "3d589ed35559c8c6868af7b95360d4003cd69b24e96b7b61c323d0139d9988f9",
    ),
    'T2_7': (
        "27e44858cb2a620d2f6c1045c8f13645c094f7f2f4a224b4e5a16c5ee631a92d",
        "abe665f10536c35bd699bbd79570f53848e14ebb5770b5e585c1d28c748e2233",
        "9d9333c9fe554790f20926298919564d1b1f21af7e8a38504d31962cac322b85",
        "17817b2b5230cdfb6e547e248f4adbe302820c50b2181370245b76ec7f8e8de1",
        "60f3fb25afe22e233b0ade6b9ee0ea5f58f48a165643078194d2dd502ee1db9e",
        "570821150b59c0a5ffa241771f3c5e22b746d3565f9376af11d7fcf17f47a67c",
    ),
    'T2_9': (
        "d669529fedf66d6a80fa201b80225c452e18b135c40bb3d6c9cdc44daae9cd4a",
        "695b7b2c3bc43dd2e5f4f540d2666a1c6f420dec06e50c66f492e2493b6f9c89",
        "f979be2747f8ad1041cba08a0e5f9725e8b7692e0e4742931040abb151e3ccb7",
        "83390c8a6df037ea9c8937af83e0a19982dc4345622e60a6f08e272cc6812c8c",
        "fcc6690d1e102cd44e8b4b191e9a0c4a80888bd000fa58865b6693a77e70e65a",
        "ba956e9f04da7c091bdff87af88a7a03d00c2e27a1750d19de7623fc6f504f87",
    ),
    'T2_11': (
        "fd06948c2f384bfb8fc6c27a2cfbb9fcebc9bde6f9ab0ce02cc4289de8b0cb58",
        "64bbcac33a3a55700c37b86aa4acde376270bfd73cdd0d0797870883d7c4ba7b",
        "2e80cdf670f20f3c46917a5e0c9fb3a8757d58340112ef34015a72051929d448",
        "f0a2e78b31a75163e62f45590eaacebbdc1da9587daa740fa5e12b9d26defdb5",
        "42a6956b3dae269ba378ed6390cb6df67201c82c926429a3b30250c1610f5a2d",
        "6b3c323507eef85ec64a8f12ab7af1b25cd4ce0fbc9d6ed4920b7c455a669e85",
    ),
    'T2_13': (
        "3c880f51284aa4ae64d61716af4b8fe5f4746295a466df7a05aee2096f02f904",
        "ae9f4cd2d107cac4219f179947e68d30401ad66913568d58850d53ec58bdda10",
        "1ea0c94f60d050630d26070d22a099f825d45dd1e07336d8851fcbaf17b85118",
        "0fc519a6bb8f0c5dead0ea5090b90535351cfda09f5d86da6c62ffc78010d253",
        "852a7968448f2e684e50fc83dd44190971bb7cce663bcc28614ec1cf90c40519",
        "74dca698f2aca3883282bb4cd2cd5fb43463a35fffb748f469efe9b2394d3d28",
    ),
    'T2_15': (
        "6164b547eb1debe8b664d3476880d4b1822876d5a0e241eb5bc512dac2d12669",
        "fe0847e3b1a66f912a619adbd8579fc203806dd1871392caf5ca04f680bc6806",
        "2ce8fa34f46bcc250e040ad2327fa68d2df5693fa9eb136df7d3a6cf7fd18463",
        "ac5c6602050eff86640bb456f99e4eb7fdd45c01b82170c23a040aa2cb2cdece",
        "0244f0fca45d5d6298ac0ed82a6e2b8f0e25cb5048be1bb13869dc659c45c4a2",
        "c68f216ce3024eeaa45d70ead94613095428aa869a6e0b88cbdd576e4007adff",
    ),
    'T2_17': (
        "78d1c4840629592273655a3d19b8478306eeb8a91919221c0d1795164d62ad83",
        "b6e1baffdf0bfacdb16ed25997a38694c348be8d562975bec962af0c9f5764ff",
        "b32c173fe760748cce7928ecc14888a30a752aa82ffaf6637c3d11023656e7ce",
        "2ca70e1ef25adda8ecfe712d43397fac918312603bf04bd1e2aa32c0d1beef39",
        "5d344b048d86659a2fa89e437108347736753a436649456686a881de28abb776",
        "a2842a5fe2ba41b99ec16a7e8f1cdee3ad3a5e01063a92e935a982b41f47606f",
    ),
    'T2_19': (
        "22b9e3094c77b644600619475826fee962eb3a5bc4be8020edf5679a7514e667",
        "e43f9043999a25223ef6b9c66307b96aa562ffb69e2c538b3b3426176046ac9e",
        "12680241e17c9d1c2f3973eea89a4e758863e4cdc4d25dc59253f6ef30b474f8",
        "e93c1d48c1bc8dfe5f4a944d612562497fbb44c1bbfee9217e44ffd900ca5053",
        "139ca318763cf2de31ee654cfa144f1782d6f24728fcc3bb539f4ad38d6bed2a",
        "561df230ecd7bdf13cb57b3b6651d23ba18c654c472433b4224de7852d844108",
    ),
    'T2_21': (
        "cf06f07bf7f0bb507923baca9af10a913a4d1115c25aa07a968927d3f615c871",
        "b2d075b8022221318f245f1dba691e9a63b83f3e359f6720ed9df535a0ff1c6d",
        "960e6c47aa06ce1380a87203e8db9be0bd7b29d20cfb3f399f35fa7677c9f027",
        "f27438555156008106aef14c8c0e3df4a1150a4db0869d66d6898ef0e74be008",
        "0a292e3882bd909e005357429dfc9b660460c0541dd3976db3c1c3284774d372",
        "4bdd50fc4f32e8d368d9d97657cc6a302b0be5c1a9faa2ac9ccf718c232c22ba",
    ),
    'T2_23': (
        "0e521816772379b8ba791d7b7af41bc7749baa52d644d47b9b0fe5a520a5cf2f",
        "e59373811a78b5d231e9a613a3b8c2f005005323e88bbaa617ba435daa6e4531",
        "7f09276018f8975ee865df88589a97f0b54602cbfa37d1ad6a7f4ed5de644e91",
        "3f9422db59e7b21d73b15e532d82610bfb2fcc2988da6e6aac62fbe54a3aad7b",
        "d46eba40445342667b41fa8514f24df7764a8e83a22cb4a15ebe6852b96de192",
        "9c0bc97e2e1c768f099334d3232c6833e0cd0681831be7c8d8d8a49d3b8b427b",
    ),
    'T2_25': (
        "fa135b6b37b7d4f0d37288e0a5393f38e993781c370ad1aba16a9ef24e4cb860",
        "613df9c023f754a43d1efe25d1a92009634f6c1ba656fa25408765e6c01d09b9",
        "1656ef64d9be73b6b1c6dccbba1f9b5f470c075a22b2c06b1f9105b39bcdc5de",
        "baf72d8d57880ad6a0abebf86ae53796f749030650c8425b2017e3b09027bc51",
        "5b2a47a10d771879039c6b4409d29205fe210a54d57bd253bbb807dd68b8cf10",
        "68d22f96c412f05a7364e6ae79f93fd3bc5b436be48f4515f3d9ebde45b4bff7",
    ),
    'T2_27': (
        "0549d96982d7c637629fd4f479478d229ca01808037c528ddbd8aa735e3dfc7b",
        "e822dce743fa154bad4043717742b1174083d3a3d62cb6be688bd5091550f39a",
        "3b9fb55b02f82a73c2dc9523874f9ba100aba84663cd50f014e3d3fc23d6f2f4",
        "0f69d6e9e6e3e160ca62ac4767695347f6f9fa2bf12f918e4b3af4e40cf4eadd",
        "b8184fe250a4f82a6fad0123ae0543eb48d01c6b2e20ce187f65a1603ad68067",
        "1cd1ba0921041b926c4ec4348d0873ca59c8f0a08278572afdae02caef798a3e",
    ),
    'T2_29': (
        "72b94fb7ef1a326180785d04beffe47ff50353ed5cc7377bd0ff9214cfe8dfe8",
        "28698849e7f90bccae8d5422ab9b13bc93e7aa772294ab003f67de563cb60411",
        "72e00890df416dc50e2ae23d298ae1ca42ce9a80b746c1cd42fcd7548a68502f",
        "2c62e3fa81cd4ff5ac574a26f264e18befe8c29d109af1dd74b7d09fe28cb4a2",
        "fd539ddc5ac05f882366baba3667e603096ac27f51ffa5a12dc16a8f5b77bac5",
        "c4ff01cfd9ef80c6817837f42fa7bed9201386cf47a20ce24716216b855bea0f",
    ),
    'T2_31': (
        "fa777997fecae2fd45ec30e30c83f4875197d05d01bf76f9b41ff293fecbd0d7",
        "b237ca22fecc0efe56d479bf4d1f8049f486d6973c5708aeedac71695eebf3e2",
        "6dc0f9293f77456cb6506dae83eb2c034edfb8f176aed603994a2ab93069c7f9",
        "989a03577598fb30795016c2f59d0321fc109dc7f57f50fc5e08d27aa33aa94e",
        "76bef0d54dfe35c34b2d2b039d4091248b3f4e727babd48743c11791c7b2802e",
        "8d9f87be6c10f9ee62bcd0e246e40ccb494ef2e14bcefe7d112c3c5d0c77247a",
    ),
    'T2_33': (
        "79b5b80a518bb75257ffbf01bbf30283201c28bd860580ee7389165836b51a67",
        "113797d9c31202355acec75c5aa45ef8b74f1767a75e07e5ac4120e10f56bb7e",
        "5d202013965ed4b0f355025bc2b071b80a905e294c0d5e87990ece5e3cb2d9b0",
        "fa605abacfe6e65bfc1f6fd0bcb35d7b1ed664425d5c034a04c3985727d09e09",
        "f003896ded5890819f372742bda0d531ee4a597a39e3cbd6b7b7da04b111f379",
        "deff272ef471f4e83457f94aad746432ba2c665f8600e1826bdd014f7399f00f",
    ),
    'T2_35': (
        "4eeb7149ead39e5689772d3fc3a50e43ce579af3d6d092aa99edefe868f65e19",
        "a110fb268610e71adc26e0d110aa075f2d21c22249c1af7645cfcb6d1ee52279",
        "202caca57d3ef924a4a9307607b6e0e32cd8bf62ed366f6dbaac1e12fbbaf88e",
        "2653d5148e91feea39389af1c2c053f78691e1c576314b1fcc7c03ad5a62d149",
        "24783946695a6dc82f78b65f04bdcde9d1da5a443e0257edb399fa72527aaa19",
        "6565bea1c655a6d602b30fb1eb77d4060396ac9672a6a10dff9a21c85f9a9113",
    ),
    'T2_37': (
        "7930878dcea8c019df723ba6427aadc7b4b6fc7cfa2bf65ee5bdc18efb27ea0e",
        "821386120416931e9c7f10157cc27b854b4248a49198ec06276d508288996b76",
        "629bf36a03f2552b85bebcb5b2d24fa0056d74c13ad7ea1778ee06366dc22056",
        "15ccd087b8c8d4e045da3af5c632849e619c987973713b0fcdcfe6b352b12149",
        "b5edafb55cd8c5ef92227b3b8759279f03cd22dfe679b9e38c003b0ef95fbdef",
        "64ba70648f92c8653cc8f67735f900223c53d3fe455b3d28b7f39b1c0f63f70b",
    ),
    'T2_39': (
        "f6767f2bf842a5f12ba19da52a8dd3787f5cb051e338510eb3c28a240ba1313a",
        "9ae8769239760d4f6db04c29481c3ea37b332ba7f3fb6ea36dfa6a9ac4249a2d",
        "16846eadeee51010e5e2032a762dd93ef45847858919c1faa8356613863ed29d",
        "bd846c69cf4866b618657a0ee11f109cb36c3dac1dbf27297d489a853fd0bc4f",
        "a55795d38a5273e90955e860ea45cecdd8f80af659964298c53d7423efb4c1c8",
        "2ad508aee5602f550105c288debb5ab2a6967c4b35f4ef747809a8e832169aa6",
    ),
    'T2_41': (
        "5d0e552687983db0220926f95cbdf6a7221a5b5afa7dd5782ce0a25d55b61676",
        "5db925d8bc4a9dac5f8972840eb81a3383688d32a57e4725e7bf2b16c2f24b0e",
        "17342316ae9743a174896f45f3b7f35f69bf7b1607f00d3ee755bd021bdcfea3",
        "cbddaf64a8132cb15359952601ae355a1a6a9935439c9d3fc2e022bf1d13c9a3",
        "c836d6e0a58368fbc919eb4fa91a916d411977db479479767773f4526a6d99fe",
        "f2367824e6cdf178e36d66462b40bb7b31fbc9f4538efbf2f4040b4c2b7492a5",
    ),
    '3_1': (
        "aaab35a2ea971233106bc82ebef37e4033d88dccac339fb7c6aff4e68e66952d",
        "e961a9a7cbb4637a24b75e21841863db492264af1c3d87e8885c5735aea019fb",
        "99be1e9bc76bdc13db2317826a6b8af9f8b543d93f6d3ba759a9a526fcc57a85",
        "7c0ac2737803e0e0f44c65a7a469249c0b80a9e5cc78ae6918b48d18d1068f2c",
        "c34ffc42d5f9342ab85c16015ea68969577cbe4caeaa4720101fc33137beb654",
        "f6da54fa133784235862709f810a04a162d6a82589a3ea6cc0519939eff9646e",
    ),
    '8_20': (
        "e96f9b58c5f64dddc110bb2b646b5b1b3a5e8da382608ab1d40cc61b68f4630b",
        "29682b5e57eff9640b517c33f71a95035836dacefee2a94bb1d7e261e473a9d9",
        "f359798ad1f2778d8524c1a789046b671cad49f724cebd16a771c3b937397c17",
        "397b08812541ec781ed72ac085cd4d5c5764f4341420edc47cbff35854b17b85",
        "479c767dac1608151883e2ee93c1a9a56410162f0845d15bc4bbe92db573e9e9",
        "a3bc49e306e7bae2c47e43c814a649b0c5e81143e601b77a2bdcc45f14651735",
    ),
    '9_35': (
        "4a2e114889aa1d254d2225fe0e14fb86ad1e8b358cb90c8b90567752e24d0880",
        "3355efc8ac04ab4e31a1e20ea648c75ecef5db79ea8e91da0d61994c0fd4e1a8",
        "7de32029515ef3159e767c81019d7ba1ac63c75cb0ae7c24f9b08163b2656ffc",
        "30ee60aeb8dff108d14af4710135bee628849a725bb5d74d740cf449ef943749",
        "47f0cb30537f70b595e380c4cb526a17be9d8a773d06b6251dea093142ed18a0",
        "1bae9c55efa54c2ad93f3b2303846e627d46f49f3b218fd6eaa7abdd2026ef52",
    ),
    '3_1#T25': (
        "8c76784fe05b53587cd573b706cbce982151defae95e3d26b045f3cea00b4ad3",
        "17dcddb1631800eec6578cd24144442463eaabd6d144d27152444ffcebfd31a0",
        "b804a1d5a291b70d290045989df4f604dc5973d3cafeba8098bcc73fc8b8a5a1",
        "78a603040c0c1bec6e0c23cb39de3b49c46830de2fbbad4377c4266e5c1c97fb",
        "792511bd622b77527d59abbb9d431c21abd24670e6a1adf2fb156886b59949b2",
        "d727ee203948d2d7b0b01e99cd052cd13eabb5855a12573531d1259311369440",
    ),
    'square': (
        "fa733a17fb5231838ea6a7ad610d9ff32497d93e8484989bda89a324f24c9681",
        "7e8e6602e67751abb0841128dadc896922e87a640f53c517e3fe60f25834a346",
        "0df3beba009ed0d1c72d714692fd0478b5b255de01808403c3d3f58192ed60a2",
        "bb2a9c138544c8cd872c69ed750e1f7217f64f967837f221f0625f9eefb29481",
        "ed7f416401c9326ecb214281f83e10e8726a27efb33fbeddb3c33159a5512b77",
        "c3d6555d70c9acad2fdba73a3ea777b733d9361d9cba354480b45072749153d9",
    ),
}


def _signature_rows(name):
    """T(2, n) as "T2_n", a packaged fixture by name, or a block sum."""
    if name.startswith("T2_"):
        return torus_seifert(int(name[3:]))
    if name in ("3_1#T25", "square"):
        v = _signature_rows("3_1")
        mirror = [[-x for x in col] for col in zip(*v)]
        return block_sum(v, torus_seifert(5) if name == "3_1#T25" else mirror)
    return SeifertMatrix.from_text(load_fixture_text(name + ".seifert")).rows


# the digests are looked up, not parameters, so that re-recording one keeps
# the test ids
@pytest.mark.parametrize("name", sorted(SIGNATURE_JSON_SHA256))
def test_signature_json_bytes_are_pinned(capsys, tmp_path, name):
    path = tmp_path / (name + ".seifert")
    path.write_text("".join(" ".join(map(str, row)) + "\n"
                            for row in _signature_rows(name)))
    got = []
    for lam in SIGNATURE_LAMBDAS:
        assert cli.run(cli.RunConfig(command="signature", seifert=str(path),
                                     lam=lam, json_out=True)) == 0
        got.append(hashlib.sha256(
            capsys.readouterr().out.encode()).hexdigest())
    assert tuple(got) == SIGNATURE_JSON_SHA256[name]


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


# sha256 of the full-precision `pretzel935 --json` payload at seeds 0-3:
# the floating census, certificate and monic loop are pinned bit for bit.
P935_JSON_SHA256 = (
    "bb87ca387d159e37a5b9b5ad7a1e63ff5584538dc083aec663d4c7c1b3779444",
    "60e6b627bacba9139452e5672654f55933ed0c9927ecc5d4cc617721f430ece6",
    "7534e3f1da8ed0321539e5d441dc4bf7c910335cced0ab0e01402fd8a1b36112",
    "df4bd5afeb20c8d6e4b56c5bf67fda08078dfc58561e97c86e062ed6738c2391",
)


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

    def test_cached_constants_never_change_the_output(self, run):
        # each seed cold, with every talex cache cleared, then warm
        def clear_caches():
            for name, mod in list(sys.modules.items()):
                if name == "talex" or name.startswith("talex."):
                    for fn in vars(mod).values():
                        if hasattr(fn, "cache_clear"):
                            fn.cache_clear()

        cold = []
        for seed in range(4):
            clear_caches()
            cold.append(run("pretzel935", "--json", "--seed", str(seed)))
        warm = [run("pretzel935", "--json", "--seed", str(seed))
                for seed in range(4)]
        assert all(code == 0 for code, _, _ in cold)
        assert warm == cold

    # the digest is looked up, not a parameter, so that re-recording one
    # keeps the test ids
    @pytest.mark.parametrize("seed", range(len(P935_JSON_SHA256)))
    def test_json_bytes_are_pinned(self, run, seed):
        code, out, err = run("pretzel935", "--json", "--seed", str(seed))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == \
            P935_JSON_SHA256[seed]


def _readme_examples():
    """The README's example blocks, the ```sh blocks of "$ " lines: the
    files their `cat` lines print, {name: contents}, and the talex commands
    of each block, split into words, with the output printed after each,
    keyed by the subcommand of the block's last command."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    files, examples = {}, {}
    for block in readme.read_text(encoding="utf-8").split("```sh\n")[1:]:
        block = block.split("```", 1)[0]
        if not block.startswith("$ "):
            continue
        steps = []
        for line in block.splitlines(keepends=True):
            if line.startswith("$ "):
                steps.append([line[2:].split(), ""])
            else:
                steps[-1][1] += line
        for argv, out in steps:
            if argv[0] == "cat":
                files[argv[1]] = out
        runs = [(argv, out) for argv, out in steps if argv[0] == "talex"]
        examples[runs[-1][0][1]] = runs
    return files, examples


class TestReadmeExamples:
    def test_every_subcommand_has_an_example(self):
        files, examples = _readme_examples()
        assert set(examples) == set(SUBCOMMANDS)
        assert set(files) == {"slice.txt", "sweep.txt"}

    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    def test_stdout_matches_the_readme(self, subcommand, run, tmp_path,
                                       monkeypatch):
        # in tmp_path, with the files of the README's `cat` lines and the
        # packaged fixtures
        files, examples = _readme_examples()
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        for argv, want in examples[subcommand]:
            code, out, _ = run(*argv[1:])
            assert code == 0
            assert out == want


_SLICE_WITH = "trace a = %s 0\ntrace b = 2.1 0\ntrace ab = 1 0\n"
_SWEEP = "trace a = 2.1 0\ntrace b = 2.1 0\nsweep ab = 0.8 0 .. 1.2 0 steps 3\n"

_REP_WITH_RESIDUAL = ('{"generators": [[[2, 0], [0, 0], [0, 0], [0.5, 0]], '
                      '[[2, 0], [0, 0], [0, 0], [0.5, 0]]], "residual": %s}')

# (case id, {file name: contents}, argv); every case must exit 2.
MALFORMED = [
    ("twisted-inf-trace", {"c": _SLICE_WITH % "inf"},
     ["twisted", "--pres", "fixtures/3_1.pres", "--constraints", "c"]),
    ("genus-nan-trace", {"c": _SLICE_WITH % "nan"},
     ["genus", "--pres", "fixtures/3_1.pres", "--constraints", "c"]),
    ("monic-scan-nan-sweep",
     {"c": "trace a = 2.1 0\ntrace b = 2.1 0\nsweep ab = nan 0 .. 1 0 steps 3\n"},
     ["monic-scan", "--pres", "fixtures/3_1.pres", "--constraints", "c"]),
    ("signature-nan-lambda", {},
     ["signature", "--seifert", "fixtures/3_1.seifert", "--lambda=nan"]),
    ("signature-overflowing-lambda", {},
     ["signature", "--seifert", "fixtures/3_1.seifert", "--lambda=1e999"]),
    ("twisted-nan-lambda", {},
     ["twisted", "--pres", "fixtures/3_1.pres", "--lambda=nan"]),
    ("twisted-inf-lambda-pair", {},
     ["twisted", "--pres", "fixtures/3_1.pres", "--lambda=1,inf"]),
    ("satellite-bad-coefficient", {"p": '{"coeffs": {"0": "x"}}'},
     ["satellite", "--pattern", "p", "--companion", "fixtures/3_1.alex"]),
    ("satellite-bad-exponent", {"p": '{"coeffs": {"q": 1}}'},
     ["satellite", "--pattern", "p", "--companion", "fixtures/3_1.alex"]),
    ("satellite-not-a-mapping", {"p": "5"},
     ["satellite", "--pattern", "p", "--companion", "fixtures/3_1.alex"]),
    ("satellite-nan-coefficient", {"p": '{"coeffs": {"0": NaN, "1": 1}}'},
     ["satellite", "--pattern", "p", "--companion", "fixtures/3_1.alex"]),
    ("satellite-boolean-coefficient", {"p": '{"coeffs": {"0": true}}'},
     ["satellite", "--pattern", "p", "--companion", "fixtures/3_1.alex"]),
    ("satellite-zero-denominator", {"p": '{"coeffs": {"0": "1/0"}}'},
     ["satellite", "--pattern", "fixtures/3_1.alex", "--companion", "p"]),
    ("twisted-nan-rep-entry",
     {"r": '{"generators": [[[NaN, 0], [0, 0], [0, 0], [0.5, 0]], '
           '[[2, 0], [0, 0], [0, 0], [0.5, 0]]]}'},
     ["twisted", "--pres", "fixtures/3_1.pres", "--rep", "r"]),
    ("twisted-boolean-rep-entry",
     {"r": '{"generators": [[[true, 0], [0, 0], [0, 0], [1, 0]], '
           '[[2, 0], [0, 0], [0, 0], [0.5, 0]]]}'},
     ["twisted", "--pres", "fixtures/3_1.pres", "--rep", "r"]),
    ("twisted-short-rep-generator", {"r": '{"generators": [[[1, 0]]]}'},
     ["twisted", "--pres", "fixtures/3_1.pres", "--rep", "r"]),
    ("twisted-rep-generator-count",
     {"r": '{"generators": [[[2, 0], [0, 0], [0, 0], [0.5, 0]]]}'},
     ["twisted", "--pres", "fixtures/3_1.pres", "--rep", "r"]),
    ("twisted-inf-rep-residual", {"r": _REP_WITH_RESIDUAL % "1e999"},
     ["twisted", "--pres", "fixtures/3_1.pres", "--rep", "r"]),
    ("twisted-nan-rep-residual", {"r": _REP_WITH_RESIDUAL % "NaN"},
     ["twisted", "--pres", "fixtures/3_1.pres", "--rep", "r"]),
    ("twisted-boolean-rep-residual", {"r": _REP_WITH_RESIDUAL % "true"},
     ["twisted", "--pres", "fixtures/3_1.pres", "--rep", "r"]),
    ("monic-scan-rep", {"c": _SWEEP, "r": "{}"},
     ["monic-scan", "--pres", "fixtures/3_1.pres", "--constraints", "c",
      "--rep", "r"]),
    ("monic-scan-lambda", {"c": _SWEEP},
     ["monic-scan", "--pres", "fixtures/3_1.pres", "--constraints", "c",
      "--lambda=1"]),
    ("report-in-missing-directory", {},
     ["alexander", "--pres", "fixtures/3_1.pres", "--report",
      "/nonexistent/dir/x.json"]),
    ("report-to-a-directory", {},
     ["alexander", "--pres", "fixtures/3_1.pres", "--report", "."]),
    ("pretzel935-negative-seed", {}, ["pretzel935", "--seed", "-1"]),
    ("twisted-negative-seed", {"c": "trace a = 2.1 0\ntrace b = 2.1 0\n"},
     ["twisted", "--pres", "fixtures/3_1.pres", "--constraints", "c",
      "--seed", "-3"]),
    ("monic-scan-negative-seed", {"c": _SWEEP},
     ["monic-scan", "--pres", "fixtures/3_1.pres", "--constraints", "c",
      "--seed=-5"]),
]

_HUGE = "trace a = 1e150 0\ntrace b = 1e150 0\n"

# (case id, {file name: contents}, argv); finite traces so large that the
# solver's or the closed form's floats overflow.  Every case must exit 5.
OVERFLOWING = [
    ("twisted-trefoil-solver", {"c": _HUGE},
     ["twisted", "--pres", "fixtures/3_1.pres", "--constraints", "c"]),
    ("twisted-8_20-solver", {"c": _HUGE},
     ["twisted", "--pd", "fixtures/8_20.pd", "--constraints", "c"]),
    ("genus-one-trace", {"c": "trace a = 1e200 0\n"},
     ["genus", "--pres", "fixtures/3_1.pres", "--constraints", "c"]),
    ("twisted-9_35-closed-form",
     {"c": "".join("trace %s = %s 0\n" % wv for wv in (
         ("a", "1e200"), ("b", "1e200"), ("c", "1e200"),
         ("ab", 1), ("bc", 1), ("ca", 1)))},
     ["twisted", "--pres", "fixtures/9_35.pres", "--constraints", "c"]),
]

# The same, for a one-generator diagram or presentation with no
# constraints: the solver's equations have no rows, and every
# representation is reducible, so every case must exit 5 as well.
ONE_GENERATOR = [
    ("%s-one-generator-%s" % (cmd, kind), {"k": text, "c": ""},
     [cmd, "--" + kind, "k", "--constraints", "c"])
    for cmd in ("twisted", "genus")
    for kind, text in (("pd", "1, 2, 2, 1\n"), ("pres", "gens: a\n"))
]
EXIT_FIVE = OVERFLOWING + ONE_GENERATOR


class TestMalformedInputs:
    @pytest.mark.parametrize("files, argv", [case[1:] for case in MALFORMED],
                             ids=[case[0] for case in MALFORMED])
    def test_exit_two_with_one_json_reason(self, run, tmp_path, files, argv):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / a) if a in files else a for a in argv]
        code, out, err = run(*argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ParseError"


# Structured random input files: the fixtures' PD codes and Seifert
# matrices with up to two entries replaced, and presentations and
# constraint files of the right shape.  Entries are mostly small integers,
# and otherwise huge (1e308, 10^20), non-finite, floats or not numbers.
_FUZZ_INT = st.integers(-1, 8).map(str)
_FUZZ_ENTRY = st.one_of(
    _FUZZ_INT, _FUZZ_INT, _FUZZ_INT,
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["1e308", "-1e308", "nan", "inf", "1" + "0" * 20,
                     "1/2", "x", ""]))


def _spike(text, spikes, sep):
    rows = [line.split(sep) for line in text.split("\n") if line]
    cells = [(i, j) for i, row in enumerate(rows) for j in range(len(row))]
    for pos, entry in spikes:
        i, j = cells[pos % len(cells)]
        rows[i][j] = entry
    return "\n".join(sep.join(row) for row in rows)


def _spiked_fixtures(suffix, sep):
    texts = [Path(fixture_path(k + suffix)).read_text()
             for k in ("3_1", "8_20", "9_35")]
    return st.builds(_spike, st.sampled_from(texts),
                     st.lists(st.tuples(st.integers(0, 99), _FUZZ_ENTRY),
                              max_size=2), st.just(sep))


_FUZZ_FILES = st.fixed_dictionaries({
    "pd": _spiked_fixtures(".pd", ","),
    "pres": st.builds(
        lambda gens, rels: "gens: %s\n" % " ".join(gens)
        + "".join("rel: %s\n" % r for r in rels),
        st.lists(st.sampled_from("abcx"), min_size=1, max_size=3,
                 unique=True),
        st.lists(st.text("abcABx1", min_size=1, max_size=8), max_size=3)),
    "seifert": _spiked_fixtures(".seifert", " "),
    "cons": st.lists(st.builds(
        "trace {} = {} {}".format,
        st.sampled_from(["a", "b", "ab", "aB", "c", "abAB"]),
        _FUZZ_ENTRY, _FUZZ_ENTRY), max_size=3).map("\n".join),
})
_FUZZ_ARGV = [
    ["alexander", "--pd", "pd"],
    ["alexander", "--pres", "pres"],
    ["twisted", "--pd", "pd", "--lambda=3/2"],
    ["twisted", "--pres", "pres", "--constraints", "cons"],
    ["twisted", "--pres", "fixtures/3_1.pres", "--constraints", "cons"],
    ["genus", "--pres", "fixtures/3_1.pres", "--constraints", "cons",
     "--seifert", "seifert"],
    ["signature", "--seifert", "seifert"],
]


class TestParserFuzz:
    @settings(max_examples=40, deadline=None)
    @given(_FUZZ_FILES, st.sampled_from(_FUZZ_ARGV))
    def test_every_input_ends_in_an_exit_code(self, files, argv):
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in files.items():
                Path(tmp, name).write_text(text)
            argv = [os.path.join(tmp, a) if a in files else a for a in argv]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 2, 3, 4, 5, 6, 7)
        if code:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and "error" in json.loads(lines[0])


class TestLinkDiagrams:
    # Two-component codes whose crossings each look valid: the strands close
    # up into two loops, so no command may treat them as a knot.
    @pytest.mark.parametrize("code_text", ["1,3,2,4\n3,1,4,2\n",
                                           "1,4,2,3\n4,1,3,2\n"],
                             ids=["hopf", "hopf-reversed-crossing"])
    @pytest.mark.parametrize("argv", [
        ["alexander"], ["twisted", "--lambda", "3/2"],
        ["genus", "--lambda", "3/2"]], ids=lambda a: a[0])
    def test_exit_two_naming_the_missing_step(self, run, tmp_path, code_text,
                                              argv):
        path = tmp_path / "link.pd"
        path.write_text(code_text)
        code, out, err = run(*argv, "--pd", str(path))
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1
        reason = json.loads(lines[0])
        assert reason["error"] == "ParseError"
        assert reason["reason"] == ("PD code is not one closed strand: no "
                                    "strand runs from edge 2 to edge 3")


def _run_in_subprocess(tmp_path, argv):
    """talex argv in a fresh interpreter, so that numpy's warnings and
    LAPACK's own messages would reach the stderr a test checks."""
    src = os.path.dirname(os.path.dirname(talex.__file__))
    return subprocess.run([sys.executable, "-m", "talex", *argv],
                          cwd=tmp_path, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=False)


class TestOverflowingTraces:
    @pytest.mark.parametrize("files, argv", [case[1:] for case in EXIT_FIVE],
                             ids=[case[0] for case in EXIT_FIVE])
    def test_exit_five_with_one_json_reason(self, tmp_path, files, argv):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        proc = _run_in_subprocess(tmp_path, argv)
        assert (proc.returncode, proc.stdout) == (5, "")
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "SolveError"


class TestOverflowingLambda:
    def test_exit_three_naming_the_overflow(self, tmp_path):
        proc = _run_in_subprocess(tmp_path, ["twisted", "--pres",
                                             "fixtures/3_1.pres",
                                             "--lambda=1e200,0"])
        assert (proc.returncode, proc.stdout) == (3, "")
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        reason = json.loads(lines[0])
        assert reason["error"] == "AlgebraError"
        assert "overflows" in reason["reason"]


class TestDispatch:
    def test_unknown_command(self, run):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_deterministic_byte_output(self, run):
        a = run("alexander", "--pres", "fixtures/9_35.pres", "--json")
        b = run("alexander", "--pres", "fixtures/9_35.pres", "--json")
        assert a == b

    def test_python_dash_m(self, run):
        pd = fixture_path("3_1.pd")
        src = os.path.dirname(os.path.dirname(talex.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "talex", "alexander",
                               "--pd", pd], capture_output=True, text=True,
                              env=env, check=False)
        assert proc.returncode == 0
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            run("alexander", "--pd", pd)
