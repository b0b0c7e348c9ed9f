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
from talex.cli import _build_parser, main
from talex.fixtures import fixture_path
from talex.representations import Representation


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
            "c4fd22e8e2767a2fbb1723e8c87ca8170ad6c9ba6546caee89a50285b20e7437")

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
