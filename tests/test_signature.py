"""Seifert matrices and Levine-Tristram signatures."""

from fractions import Fraction

import numpy as np
import pytest

import talex.signature as signature
from talex.errors import AlgebraError, CertificationError, ParseError
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

from conftest import P, TREFOIL_V, load_fixture_text, normalized

W6 = np.pi / 3  # angle of the first trefoil circle root


def trefoil_v():
    return SeifertMatrix(TREFOIL_V)


def v935():
    return SeifertMatrix.from_text(load_fixture_text("9_35.seifert"))


def v820():
    return SeifertMatrix.from_text(load_fixture_text("8_20.seifert"))


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
        real_det = signature.det

        def counting_det(rows):
            calls.append(len(rows))
            return real_det(rows)

        monkeypatch.setattr(signature, "det", counting_det)
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

    def test_explicit_radius_validation(self):
        v = trefoil_v()
        with pytest.raises(AlgebraError):
            averaged_signature(v, np.exp(1j * W6), eps=2.2)
        with pytest.raises(AlgebraError):
            averaged_signature(v, np.exp(1j * W6), eps=0.0)
        assert averaged_signature(v, np.exp(1j * W6), eps=0.05) == Fraction(-1)

    def test_off_circle_rejected(self):
        with pytest.raises(AlgebraError):
            averaged_signature(trefoil_v(), 2.0)

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

    def test_no_circle_roots_means_no_jumps(self):
        v = SeifertMatrix([[0, 1], [0, 0]])
        assert v.alexander().degree() == 0
        assert signature_jumps(v) == []

    def test_supplied_delta_checked_against_matrix(self):
        with pytest.raises(CertificationError):
            signature_jumps(trefoil_v(), delta=P(1, -3, 1))

    def test_supplied_delta_up_to_units_accepted(self):
        jumps = signature_jumps(trefoil_v(), delta=P(1, -1, 1).shift(-1).scale(-1))
        assert len(jumps) == 2


class TestIsIdenticallyZero:
    def test_fixture_classification(self):
        assert not is_identically_zero(trefoil_v())
        assert not is_identically_zero(v935())
        assert is_identically_zero(v820())

    def test_unknot_style_matrices(self):
        assert is_identically_zero(SeifertMatrix([[0, 1], [0, 0]]))
        assert is_identically_zero(SeifertMatrix([]))


def torus_seifert(n):
    """Seifert matrix of T(2, n): -I plus ones on the superdiagonal."""
    return [[-1 if j == i else 1 if j == i + 1 else 0 for j in range(n - 1)]
            for i in range(n - 1)]


def torus_pd(n):
    """PD code of T(2, n): X[2k+1, 2k+1+n, 2k+2, 2k+2+n], edges mod 2n."""
    def edge(e):
        return (e - 1) % (2 * n) + 1
    return [(edge(2 * k + 1), edge(2 * k + 1 + n), edge(2 * k + 2),
             edge(2 * k + 2 + n)) for k in range(n)]


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
