"""Free words and the free differential calculus."""

import numpy as np
import pytest

import talex.words
from talex import (
    FreeWord,
    ParseError,
    fox_derivative,
    fundamental_identity_holds,
    parse_presentation,
)

from conftest import load_fixture_text, random_word

NAMES = ["a", "b", "c", "d"]


def W(text):
    return FreeWord.from_string(text, NAMES)


class TestFreeWord:
    def test_reduction_on_construction(self):
        assert FreeWord([1, -1]).is_identity()
        assert FreeWord([1, 2, -2, -1]).is_identity()
        assert FreeWord([1, 2, -2, 3]).tietze == (1, 3)

    def test_reduction_is_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            w = random_word(rng, 4, 20)
            assert FreeWord(w.tietze) == w

    def test_string_round_trip(self):
        w = W("aBcA")
        assert w.tietze == (1, -2, 3, -1)
        assert w.to_string(NAMES) == "aBcA"
        assert w.to_string(["x0", "x1", "x2"]) == "x0 X1 x2 X0"
        assert W("").is_identity()
        assert FreeWord().to_string(NAMES) == ""

    def test_from_string_rejects_unknown_letters(self):
        with pytest.raises(ParseError):
            W("axb")
        with pytest.raises(ParseError):
            W("a1b")

    def test_group_operations(self):
        u, v = W("ab"), W("Ba")
        assert (u * v).tietze == (1, 1)
        assert u * u.inverse() == FreeWord()
        assert u.inverse().tietze == (-2, -1)
        assert (W("ab") ** 3).tietze == (1, 2, 1, 2, 1, 2)
        assert (W("ab") ** -1) == W("BA")
        assert (W("ab") ** 0).is_identity()

    def test_concatenation_is_associative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            u, v, w = (random_word(rng, 4, 8) for _ in range(3))
            assert (u * v) * w == u * (v * w)

    def test_exponent_sums(self):
        w = W("aaBc")
        assert w.exponent_sum() == 2
        assert w.max_generator() == 2
        assert FreeWord().max_generator() == -1

    def test_exponent_sum_is_a_homomorphism(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            u, v = random_word(rng, 3, 10), random_word(rng, 3, 10)
            assert (u * v).exponent_sum() == u.exponent_sum() + v.exponent_sum()

    def test_hash_and_len(self):
        assert len(W("aBc")) == 3
        assert hash(W("ab")) == hash(FreeWord([1, 2]))
        assert list(W("aB")) == [1, -2]


class TestFoxDerivative:
    def test_generator_rules(self):
        assert fox_derivative(W("a"), 0) == {FreeWord(): 1}
        assert fox_derivative(W("A"), 0) == {W("A"): -1}
        assert fox_derivative(W("b"), 0) == {}

    def test_product_word(self):
        # d(ab)/da = 1, d(ab)/db = a
        assert fox_derivative(W("ab"), 0) == {FreeWord(): 1}
        assert fox_derivative(W("ab"), 1) == {W("a"): 1}

    def test_commutator(self):
        # d(abAB)/da = 1 - abA
        assert fox_derivative(W("abAB"), 0) == {FreeWord(): 1, W("abA"): -1}

    def test_derivative_of_word_without_generator_vanishes(self):
        assert fox_derivative(W("bcB"), 0) == {}

    def test_nine_crossing_fixture_relator_derivatives(self):
        p = parse_presentation(load_fixture_text("9_35.pres"))
        r1 = p.relators[0]
        assert r1.to_string(p.names) == "aBabAbCbCBcB"

        da = fox_derivative(r1, 0)
        expect_da = {p.word(""): 1, p.word("aB"): 1, p.word("aBabA"): -1}
        assert list(da.items()) == list(expect_da.items())

        db = fox_derivative(r1, 1)
        expect_db = {
            p.word("aB"): -1,
            p.word("aBa"): 1,
            p.word("aBabA"): 1,
            p.word("aBabAbC"): 1,
            p.word("aBabAbCbCB"): -1,
            p.word("aBabAbCbCBcB"): -1,
        }
        assert list(db.items()) == list(expect_db.items())

    def test_product_rule(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            u, v = random_word(rng, 4, 10), random_word(rng, 4, 10)
            for j in range(4):
                rhs = dict(fox_derivative(u, j))
                u_dv = {u * w: c for w, c in fox_derivative(v, j).items()}
                for w, c in u_dv.items():
                    rhs[w] = rhs.get(w, 0) + c
                rhs = {w: c for w, c in rhs.items() if c}
                assert fox_derivative(u * v, j) == rhs

    def test_fundamental_identity_on_fixture_relators(self):
        for name in ("3_1.pres", "9_35.pres"):
            p = parse_presentation(load_fixture_text(name))
            for r in p.relators:
                assert fundamental_identity_holds(r, p.num_generators)

    def test_fundamental_identity_on_random_words(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            w = random_word(rng, 4, 20)
            assert fundamental_identity_holds(w, 4)

    def test_fundamental_identity_fails_on_a_dropped_term(self, monkeypatch):
        real = talex.words.fox_derivative

        def drop_last_term_of_da(word, g):
            d = real(word, g)
            return dict(list(d.items())[:-1]) if g == 0 else d

        assert fundamental_identity_holds(W("abAB"), 2)
        monkeypatch.setattr(talex.words, "fox_derivative", drop_last_term_of_da)
        assert not fundamental_identity_holds(W("abAB"), 2)


class TestAbelianization:
    def test_examples(self):
        assert FreeWord().exponent_sum() == 0
        assert W("aab").exponent_sum() == 3
        assert W("aBc").exponent_sum() == 1

    def test_wirtinger_relators_abelianize_to_zero(self):
        p = parse_presentation(load_fixture_text("9_35.pres"))
        for r in p.relators:
            assert r.exponent_sum() == 0

    def test_homomorphism_property(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            u, v = random_word(rng, 4, 12), random_word(rng, 4, 12)
            assert ((u * v).exponent_sum()
                    == u.exponent_sum() + v.exponent_sum())
