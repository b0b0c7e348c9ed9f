"""Seifert matrices and Levine-Tristram signatures."""

from fractions import Fraction

import numpy as np
import pytest

import talex.signature as signature
from talex.errors import AlgebraError, ParseError
from talex.laurent import LaurentPoly
from talex.presentations import pd_to_wirtinger
from talex.signature import (
    SeifertMatrix,
    averaged_signature,
    is_identically_zero,
    lt_signature,
    lt_signature_detail,
    signature_jumps,
)
from talex.twisted import alexander

from conftest import (P, TREFOIL_V, block_sum, load_fixture_text, normalized,
                      torus_pd, torus_seifert)

W6 = np.pi / 3  # angle of the first trefoil circle root


def trefoil_v():
    return SeifertMatrix(TREFOIL_V)


def v935():
    return SeifertMatrix.from_text(load_fixture_text("9_35.seifert"))


def v820():
    return SeifertMatrix.from_text(load_fixture_text("8_20.seifert"))


@pytest.fixture
def solves(monkeypatch):
    """The number of forms in each signature._signatures call, in order."""
    calls = []
    real_signatures = signature._signatures

    def counting_signatures(v, omegas):
        calls.append(len(omegas))
        return real_signatures(v, omegas)

    monkeypatch.setattr(signature, "_signatures", counting_signatures)
    return calls


class TestSeifertMatrix:
    def test_from_text(self):
        v = SeifertMatrix.from_text("# comment\n-1 1\n0 -1\n")
        assert v.rows == [[-1, 1], [0, -1]]
        assert v.genus() == 1

    def test_validation(self):
        with pytest.raises(ParseError):
            SeifertMatrix([[1, 2], [3, 4], [5, 6]])  # not square
        with pytest.raises(ParseError):
            SeifertMatrix([[0.5, 1], [0, 1]])  # not integral
        with pytest.raises(ParseError):
            SeifertMatrix([[1]])  # odd size
        with pytest.raises(ParseError):
            SeifertMatrix([[1, 1], [1, 1]])  # det(V - V^T) != +-1

    def test_empty_matrix_is_the_unknot(self):
        v = SeifertMatrix([])
        assert v.genus() == 0
        assert v.alexander() == P(1)
        assert lt_signature(v, -1.0) == 0
        assert averaged_signature(v, 1.0) == 0
        assert signature_jumps(v) == []
        assert is_identically_zero(v)

    def test_alexander_is_raw_determinant(self):
        assert trefoil_v().alexander() == P(1, -1, 1)
        assert v935().alexander() == P(7, -13, 7)
        # the 6x6 matrix carries a t-unit in its raw determinant
        raw = v820().alexander()
        assert normalized(raw) == P(1, -2, 3, -2, 1)

    def test_fixture_determinants_match_reference_polynomials(self):
        import json
        for seif, alex in (("3_1.seifert", "3_1.alex"),
                           ("9_35.seifert", "9_35.alex"),
                           ("8_20.seifert", "8_20.alex")):
            v = SeifertMatrix.from_text(load_fixture_text(seif))
            want = LaurentPoly.from_json_dict(json.loads(load_fixture_text(alex)))
            assert normalized(v.alexander()) == normalized(want)

    def test_genus_is_half_rank(self):
        assert trefoil_v().genus() == 1
        assert v820().genus() == 3

    def test_one_determinant_per_matrix(self, monkeypatch):
        calls = []
        real_bareiss = signature._zt.bareiss

        def counting_bareiss(m):
            calls.append(len(m))
            return real_bareiss(m)

        monkeypatch.setattr(signature._zt, "bareiss", counting_bareiss)
        v = v935()
        v.alexander()
        signature_jumps(v)
        is_identically_zero(v)
        averaged_signature(v, -1.0)
        assert calls == [2]

    def test_unit_circle_roots_once_per_matrix(self, monkeypatch):
        calls = []
        real_roots = signature.unit_circle_roots

        def counting_roots(p):
            calls.append(p)
            return real_roots(p)

        monkeypatch.setattr(signature, "unit_circle_roots", counting_roots)
        v = v820()
        jumps = signature_jumps(v)
        assert is_identically_zero(v)
        averaged_signature(v, -1.0)
        assert calls == [v.alexander()]
        assert jumps == signature_jumps(v)
        assert v.unit_roots() is v.unit_roots()

    def test_jumps_once_per_matrix(self, solves):
        v = v820()
        jumps = signature_jumps(v)
        assert solves == [2]            # one solve, one omega per arc
        assert is_identically_zero(v)
        assert signature_jumps(v) == jumps
        assert solves == [2]            # the verdict reads the kept arcs

    def test_point_read_and_jumps_share_one_solve(self, solves):
        v = SeifertMatrix(torus_seifert(21))
        assert lt_signature(v, -1) == -20
        assert len(signature_jumps(v)) == 20
        assert solves == [11]           # m/2 + 1 forms for m = 20 roots

    def test_construction_evaluates_no_polynomial(self, monkeypatch):
        def refuse(self, x):
            raise AssertionError("LaurentPoly.evaluate called")

        monkeypatch.setattr(LaurentPoly, "evaluate", refuse)
        for rows in (TREFOIL_V, torus_seifert(21), []):
            SeifertMatrix(rows)
        with pytest.raises(ParseError, match="det\\(V - V\\^T\\) = 0"):
            SeifertMatrix([[1, 0], [0, 1]])
        with pytest.raises(ParseError, match="det\\(V - V\\^T\\) = 4"):
            SeifertMatrix([[0, 2], [0, 0]])


class TestLtSignature:
    def test_trefoil_values(self):
        v = trefoil_v()
        assert lt_signature(v, -1.0) == -2
        assert lt_signature(v, 1.0) == 0

    def test_eigenvalue_cross_check(self):
        # at omega = -1 the form is 2(V + V^T); eigenvalues -2 and -6
        form = 2 * (np.array(TREFOIL_V) + np.array(TREFOIL_V).T)
        eig = np.linalg.eigvalsh(form)
        assert sum(1 for e in eig if e > 0) - sum(1 for e in eig if e < 0) == -2

    def test_zero_eigenvalues_excluded_at_roots(self):
        v = trefoil_v()
        sig, zeros = lt_signature_detail(v, np.exp(1j * W6))
        assert (sig, zeros) == (-1, 1)
        sig2, zeros2 = lt_signature_detail(v, np.exp(1.5j))
        assert (sig2, zeros2) == (-2, 0)

    def test_off_circle_rejected(self):
        with pytest.raises(AlgebraError):
            lt_signature(trefoil_v(), 0.5)

    def test_nan_rejected(self):
        with pytest.raises(AlgebraError):
            lt_signature(trefoil_v(), complex("nan"))

    def test_solves_alone_only_within_the_margin(self, solves):
        v = trefoil_v()
        signature_jumps(v)              # the arc table, kept
        margin = signature._ARC_MARGIN
        # on the root H(omega) has one zero eigenvalue; the arcs carry none
        assert lt_signature(v, np.exp(1j * W6)) == -1
        assert lt_signature(v, np.exp(1j * (W6 + margin / 2))) == -2
        assert solves == [2, 1, 1]
        assert lt_signature(v, np.exp(1j * (W6 + 2 * margin))) == -2
        assert lt_signature(v, np.exp(1j * (W6 - 2 * margin))) == 0
        assert lt_signature(v, 1.0) == 0
        assert solves == [2, 1, 1]

    def test_conjugation_symmetry(self):
        v = v935()
        rng = np.random.default_rng(3)
        for _ in range(50):
            theta = float(rng.uniform(0, np.pi))
            w = np.exp(1j * theta)
            assert lt_signature(v, w) == lt_signature(v, np.conj(w))

    def test_even_where_alexander_nonzero(self):
        rng = np.random.default_rng(5)
        for v in (trefoil_v(), v935(), v820()):
            delta = v.alexander()
            count = 0
            while count < 100:
                w = np.exp(1j * float(rng.uniform(0, 2 * np.pi)))
                if abs(complex(delta.evaluate(w))) < 1e-9:
                    continue
                assert lt_signature(v, w) % 2 == 0
                count += 1

    def test_locally_constant_between_roots(self):
        v = trefoil_v()
        angles = [0.0, W6, 5 * np.pi / 3, 2 * np.pi]
        for lo, hi in zip(angles, angles[1:]):
            samples = np.linspace(lo, hi, 7)[1:-1]
            vals = {lt_signature(v, np.exp(1j * a)) for a in samples}
            assert len(vals) == 1


class TestAveragedSignature:
    def test_at_roots_and_midpoints(self):
        v = trefoil_v()
        assert averaged_signature(v, np.exp(1j * W6)) == Fraction(-1)
        assert averaged_signature(v, -1.0) == Fraction(-2)
        assert averaged_signature(v, 1.0) == Fraction(0)

    def test_agrees_with_signature_off_roots(self):
        v = v935()
        for theta in (0.3, 1.0, 2.0, 3.0, 4.5, 6.0):
            w = np.exp(1j * theta)
            assert averaged_signature(v, w) == lt_signature(v, w)

    def test_off_circle_rejected(self):
        with pytest.raises(AlgebraError):
            averaged_signature(trefoil_v(), 2.0)

    def test_nan_rejected(self):
        with pytest.raises(AlgebraError):
            averaged_signature(trefoil_v(), complex("nan"))

    @pytest.mark.parametrize("rows", [
        TREFOIL_V, torus_seifert(9), block_sum(TREFOIL_V, TREFOIL_V),
    ], ids=["3_1", "T2_9", "3_1#3_1"])
    def test_reads_the_arc_table(self, monkeypatch, rows):
        v = SeifertMatrix(rows)
        arcs = signature._arc_signatures(v)

        def refuse(v, omegas):
            raise AssertionError("_signatures called")

        monkeypatch.setattr(signature, "_signatures", refuse)
        for i, (theta, _) in enumerate(v.unit_roots()):
            assert averaged_signature(v, np.exp(1j * theta)) == \
                Fraction(arcs[i - 1] + arcs[i], 2)
        for arc, w in zip(arcs, _arc_midpoints(v)):
            assert averaged_signature(v, w) == arc

    def test_half_integer_average_near_step(self):
        v = trefoil_v()
        just_above = np.exp(1j * (W6 + 1e-3))
        just_below = np.exp(1j * (W6 - 1e-3))
        assert averaged_signature(v, just_above) == Fraction(-2)
        assert averaged_signature(v, just_below) == Fraction(0)


class TestSignatureJumps:
    def test_trefoil_jump_pair(self):
        jumps = signature_jumps(trefoil_v())
        assert len(jumps) == 2
        (a1, j1), (a2, j2) = jumps
        assert abs(a1 - W6) < 1e-9
        assert abs(a2 - 5 * np.pi / 3) < 1e-9
        assert (j1, j2) == (-2, 2)

    def test_nine_crossing_jumps(self):
        jumps = signature_jumps(v935())
        assert len(jumps) == 2
        assert jumps[0][1] + jumps[1][1] == 0

    def test_no_jumps_for_eight_crossing_fixture(self):
        assert signature_jumps(v820()) == []

    def test_eight_twenty_double_roots_make_no_jumps(self):
        v = v820()
        assert [m for _, m in v.unit_roots()] == [2, 2]
        assert signature_jumps(v) == []

    def test_jumps_need_no_complex_roots(self, monkeypatch):
        import talex.roots as roots

        def refuse(*args, **kwargs):
            raise AssertionError("complex_roots called")

        monkeypatch.setattr(roots, "complex_roots", refuse)
        assert [j for _, j in signature_jumps(trefoil_v())] == [-2, 2]
        assert [j for _, j in signature_jumps(v935())] == [-2, 2]
        assert signature_jumps(v820()) == []

    def test_no_circle_roots_means_no_jumps(self):
        v = SeifertMatrix([[0, 1], [0, 0]])
        assert v.alexander().degree() == 0
        assert signature_jumps(v) == []


class TestIsIdenticallyZero:
    def test_fixture_classification(self):
        assert not is_identically_zero(trefoil_v())
        assert not is_identically_zero(v935())
        assert is_identically_zero(v820())

    def test_unknot_style_matrices(self):
        assert is_identically_zero(SeifertMatrix([[0, 1], [0, 0]]))
        assert is_identically_zero(SeifertMatrix([]))


@pytest.mark.parametrize("n", range(3, 14, 2))
class TestTorusKnotsT2n:
    def test_alexander_closed_form(self, n):
        closed = LaurentPoly({k: Fraction((-1) ** k) for k in range(n)})
        delta = normalized(SeifertMatrix(torus_seifert(n)).alexander())
        assert delta in (closed, -closed)
        assert alexander(pd_to_wirtinger(torus_pd(n))) == closed

    def test_signature_and_jumps(self, n):
        v = SeifertMatrix(torus_seifert(n))
        assert lt_signature(v, -1.0) == -(n - 1)
        assert len(signature_jumps(v)) == n - 1


def _arc_midpoints(v):
    angles = [a for a, _ in v.unit_roots()]
    ends = angles[1:] + [a + 2.0 * np.pi for a in angles[:1]]
    return [np.exp(0.5j * (a + b)) for a, b in zip(angles, ends)]


def _one_omega(v, omega):
    """(signature, near-zero count) from one Hermitian form at omega alone."""
    V = np.array(v.rows, dtype=complex).reshape(v.n, v.n)
    eig = np.linalg.eigvalsh((1 - omega) * V + (1 - np.conj(omega)) * V.T)
    tol = signature._ZERO_TOL
    return (int(np.sum(eig > tol)) - int(np.sum(eig < -tol)),
            int(np.sum(np.abs(eig) <= tol)))


def _fixture_rows(name):
    return SeifertMatrix.from_text(load_fixture_text(name + ".seifert")).rows


@pytest.mark.parametrize("knot", ["3_1", "8_20", "9_35", *range(5, 42, 2)])
def test_stacked_solve_matches_one_omega_reads(knot):
    """Fixtures by name, T(2, n) by n."""
    v = SeifertMatrix(torus_seifert(knot) if isinstance(knot, int)
                      else _fixture_rows(knot))
    omegas = _arc_midpoints(v) + [np.exp(1j * a) for a, _ in v.unit_roots()]
    assert signature._signatures(v, omegas) == [_one_omega(v, complex(w))
                                                for w in omegas]


def _mirror(rows):
    """-V^T, a Seifert matrix of the mirror image."""
    return [[-x for x in col] for col in zip(*rows)]


class TestConnectedSumAndMirror:
    @pytest.mark.parametrize("a, b", [
        (TREFOIL_V, TREFOIL_V),
        (torus_seifert(3), torus_seifert(5)),
        (torus_seifert(5), _fixture_rows("8_20")),
        (TREFOIL_V, _mirror(TREFOIL_V)),
    ], ids=["3_1#3_1", "T23#T25", "T25#8_20", "square"])
    def test_delta_multiplies_and_sigma_adds(self, a, b):
        v1, v2 = SeifertMatrix(a), SeifertMatrix(b)
        v = SeifertMatrix(block_sum(a, b))
        assert v.alexander() == v1.alexander() * v2.alexander()
        for w in _arc_midpoints(v):
            assert (lt_signature(v, w)
                    == lt_signature(v1, w) + lt_signature(v2, w))
        for theta, jump in signature_jumps(v):
            assert jump == sum(j for part in (v1, v2)
                               for a, j in signature_jumps(part)
                               if abs(a - theta) < 1e-9)

    def test_square_knot_signature_vanishes(self):
        v = SeifertMatrix(block_sum(TREFOIL_V, _mirror(TREFOIL_V)))
        assert [m for _, m in v.unit_roots()] == [2, 2]
        assert signature_jumps(v) == []
        assert is_identically_zero(v)

    @pytest.mark.parametrize("rows", [
        TREFOIL_V, torus_seifert(5), _fixture_rows("8_20"),
        _fixture_rows("9_35"), block_sum(TREFOIL_V, torus_seifert(5)),
    ], ids=["3_1", "T25", "8_20", "9_35", "3_1#T25"])
    def test_mirror_negates_sigma_and_jumps(self, rows):
        v, m = SeifertMatrix(rows), SeifertMatrix(_mirror(rows))
        assert m.alexander() == v.alexander()
        for w in _arc_midpoints(v) + [-1.0]:
            assert lt_signature(m, w) == -lt_signature(v, w)
        assert signature_jumps(m) == [(a, -j) for a, j in signature_jumps(v)]


ARC_FAMILIES = pytest.mark.parametrize("rows", [
    *[_fixture_rows(name) for name in ("3_1", "8_20", "9_35")],
    *[torus_seifert(n) for n in range(5, 42, 2)],
    block_sum(TREFOIL_V, torus_seifert(5)),
    block_sum(torus_seifert(5), _fixture_rows("8_20")),
    block_sum(TREFOIL_V, _mirror(TREFOIL_V)),
    _mirror(_fixture_rows("9_35")),
    _mirror(block_sum(TREFOIL_V, torus_seifert(7))),
], ids=["3_1", "8_20", "9_35", *("T2_%d" % n for n in range(5, 42, 2)),
        "3_1#T25", "T25#8_20", "square", "mirror-9_35", "mirror-3_1#T27"])


@ARC_FAMILIES
def test_mirrored_arcs_match_one_omega_reads(rows):
    """Every arc, the copied lower half too, against its own midpoint."""
    v = SeifertMatrix(rows)
    assert signature._arc_signatures(v) == [_one_omega(v, complex(w))[0]
                                            for w in _arc_midpoints(v)]


@ARC_FAMILIES
def test_arc_reads_match_one_omega_reads(rows):
    """lt_signature off the roots, read from the arc table, against a form
    solved at omega alone: every arc midpoint and omega = -1."""
    v = SeifertMatrix(rows)
    for w in _arc_midpoints(v) + [-1.0]:
        assert lt_signature(v, w) == _one_omega(v, complex(w))[0]


@pytest.mark.parametrize("rows, roots", [
    (torus_seifert(21), 20), (_fixture_rows("8_20"), 2), ([[0, 1], [0, 0]], 0),
], ids=["T2_21", "8_20", "no-roots"])
def test_half_the_arcs_are_solved(solves, rows, roots):
    v = SeifertMatrix(rows)
    assert len(signature._arc_signatures(v)) == len(v.unit_roots()) == roots
    # m/2 + 1 forms in one solve; none with no roots
    assert solves == [roots // 2 + 1 if roots else 0]


@pytest.mark.parametrize("read", [lt_signature, lt_signature_detail,
                                  averaged_signature])
@pytest.mark.parametrize("omega", [0.5, 2j, complex("nan")])
def test_one_unit_circle_check(read, omega):
    with pytest.raises(AlgebraError,
                       match="omega must lie on the unit circle, got"):
        read(trefoil_v(), omega)
