"""Presentation parsing, PD codes, and Wirtinger presentations."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talex import (
    ParseError,
    Presentation,
    alexander,
    parse_pd,
    parse_presentation,
    pd_to_wirtinger,
    simplify,
)

from talex.presentations import _substitute
from talex.words import _reduce

from conftest import P, load_fixture_text, normalized, torus_pd

TREFOIL_PD = "1,4,2,5\n3,6,4,1\n5,2,6,3\n"


class TestParsePresentation:
    def test_basic_example_keeps_unreduced_relator_letters(self):
        p = parse_presentation("gens: a b\nrel: aabABB\n")
        assert p.num_generators == 2
        assert p.names == ["a", "b"]
        assert len(p.relators) == 1
        assert p.relators[0].tietze == (1, 1, 2, -1, -2, -2)

    def test_comments_and_blank_lines(self):
        p = parse_presentation("# header\n\ngens: a b\n# note\nrel: abAB\n")
        assert p.num_generators == 2

    def test_fixture_9_35(self):
        p = parse_presentation(load_fixture_text("9_35.pres"))
        assert p.num_generators == 3
        assert len(p.relators) == 2
        assert p.wirtinger
        assert p.deficiency_one

    def test_identity_relator_rejected(self):
        with pytest.raises(ParseError):
            parse_presentation("gens: a\nrel: aA\n")

    def test_error_cases(self):
        with pytest.raises(ParseError):
            parse_presentation("rel: ab\ngens: a b\n")
        with pytest.raises(ParseError):
            parse_presentation("gens: a b\ngens: c\n")
        with pytest.raises(ParseError):
            parse_presentation("gens: ab\nrel: a\n")
        with pytest.raises(ParseError):
            parse_presentation("gens: A\n")
        with pytest.raises(ParseError):
            parse_presentation("gens: a\nbogus line\n")
        with pytest.raises(ParseError):
            parse_presentation("")
        with pytest.raises(ParseError):
            parse_presentation("gens:\n")

    def test_relator_outside_generator_range(self):
        with pytest.raises(ParseError):
            parse_presentation("gens: a\nrel: ab\n")

    def test_round_trip(self):
        text = "gens: a b c\nrel: aBabAbCbCBcB\nrel: cAbBc\n"
        p = parse_presentation(text)
        again = parse_presentation(
            "gens: %s\n" % " ".join(p.names)
            + "".join("rel: %s\n" % r.to_string(p.names) for r in p.relators))
        assert again.names == p.names
        assert again.relators == p.relators

    def test_word_helper(self):
        p = parse_presentation("gens: a b\nrel: abAB\n")
        assert p.word("aB").tietze == (1, -2)

    def test_word_repeated_parse_is_equal(self):
        p = parse_presentation("gens: a b\nrel: abAB\n")
        first = p.word("aB")
        assert p.word("aB") == first

    def test_word_unknown_letter_fails_on_every_call(self):
        p = parse_presentation("gens: a b\nrel: abAB\n")
        for _ in range(2):
            with pytest.raises(ParseError):
                p.word("ac")
        assert p.word("ab").tietze == (1, 2)

    def test_word_depends_on_the_names(self):
        ab = Presentation(2, [], names=["a", "b"])
        ba = Presentation(2, [], names=["b", "a"])
        assert ab.word("aB").tietze == (1, -2)
        assert ba.word("aB").tietze == (2, -1)
        assert ab.word("aB").tietze == (1, -2)

    def test_deficiency_one_enforcement(self):
        p = Presentation(2, [])
        assert not p.deficiency_one
        with pytest.raises(ParseError):
            p.require_deficiency_one()

    def test_duplicate_names_rejected(self):
        with pytest.raises(ParseError):
            Presentation(2, [], names=["a", "a"])


class TestParsePd:
    def test_trefoil_pd_parses(self):
        pd = parse_pd(TREFOIL_PD)
        assert pd == [(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)]

    def test_whitespace_and_comments_tolerated(self):
        pd = parse_pd("# trefoil\n 1, 4, 2, 5 \n3,6,4,1\n\n5,2,6,3\n")
        assert len(pd) == 3

    def test_error_cases(self):
        with pytest.raises(ParseError):
            parse_pd("1,2,3\n")
        with pytest.raises(ParseError):
            parse_pd("1,2,3,x\n")
        with pytest.raises(ParseError):
            parse_pd("")
        # semantic validation happens when building the presentation
        with pytest.raises(ParseError):
            # edge label 9 out of range for 3 crossings
            pd_to_wirtinger(parse_pd("1,4,2,5\n3,6,4,1\n5,2,9,3\n"))
        with pytest.raises(ParseError):
            # edge 1 appears three times
            pd_to_wirtinger(parse_pd("1,1,2,1\n3,6,4,1\n5,2,6,3\n"))


class TestPdToWirtinger:
    def test_trefoil_shape(self):
        p = pd_to_wirtinger(parse_pd(TREFOIL_PD))
        assert p.wirtinger
        assert p.deficiency_one
        assert p.num_generators == 3
        assert len(p.relators) == 2
        for r in p.relators:
            t = r.tietze
            # conjugation shape x z X Y (possibly with x inverted)
            assert len(t) == 4
            assert t[0] == -t[2]
            assert r.exponent_sum() == 0

    def test_trefoil_alexander(self):
        p = pd_to_wirtinger(parse_pd(TREFOIL_PD))
        assert alexander(p) == P(1, -1, 1)

    @pytest.mark.parametrize("text", ["1,3,2,4\n3,1,4,2\n",
                                      "1,4,2,3\n4,1,3,2\n"])
    def test_two_component_codes_rejected(self, text):
        # each crossing's strands are consecutive, but they close up into
        # two loops 1 -> 2 -> 1 and 3 -> 4 -> 3, not one knot
        with pytest.raises(ParseError, match="from edge 2 to edge 3"):
            pd_to_wirtinger(parse_pd(text))

    def test_torus_knot_codes_are_one_strand(self):
        for n in range(3, 82, 2):
            assert pd_to_wirtinger(torus_pd(n)).num_generators == n

    def test_one_crossing_unknots(self):
        for text in ("1,2,2,1\n", "1,1,2,2\n"):
            p = pd_to_wirtinger(parse_pd(text))
            assert p.num_generators == 1
            assert p.relators == []
            assert alexander(p) == P(1)

    def test_repr_past_twenty_six_generators(self):
        # from 27 generators on the names are x0, x1, ..., not letters
        p = pd_to_wirtinger(torus_pd(27))
        text = repr(p)
        assert text.startswith("<Presentation gens=x0 x1 x2 ")
        assert " x26 rels=[X14 x0 x14 X1, X15 x1 x15 X2, " in text
        assert text.count(",") == len(p.relators) - 1

    def test_fixture_diagrams_match_reference_polynomials(self):
        for pd_name, alex_name in (("3_1.pd", "3_1.alex"),
                                   ("9_35.pd", "9_35.alex"),
                                   ("8_20.pd", "8_20.alex")):
            p = pd_to_wirtinger(parse_pd(load_fixture_text(pd_name)))
            want = normalized(_parse_alex(load_fixture_text(alex_name)))
            assert alexander(p) == want

    def test_pres_and_pd_routes_agree(self):
        for pres_name, pd_name in (("3_1.pres", "3_1.pd"),
                                   ("9_35.pres", "9_35.pd")):
            a = alexander(parse_presentation(load_fixture_text(pres_name)))
            b = alexander(pd_to_wirtinger(parse_pd(load_fixture_text(pd_name))))
            assert a == b


class TestSimplify:
    @pytest.mark.parametrize("n", range(3, 32, 2))
    def test_torus_knots_reach_two_generators(self, n):
        p = pd_to_wirtinger(torus_pd(n))
        q, kept, _ = simplify(p, n - 1)
        assert q.num_generators == 2 and n - 1 in kept
        assert [len(r) for r in q.relators] == [2 * n]
        assert q.relators[0].exponent_sum() == 0

    def test_fixture_diagram_counts(self):
        for name, count in (("3_1.pd", 2), ("8_20.pd", 3), ("9_35.pd", 3)):
            p = pd_to_wirtinger(parse_pd(load_fixture_text(name)))
            last = p.num_generators - 1
            assert simplify(p, last)[0].num_generators == count
            for keep in range(p.num_generators):
                q, kept, _ = simplify(p, keep)
                assert keep in kept and q.deficiency_one and q.wirtinger
                assert q.names == [p.names[k] for k in kept]

    def test_presentation_fixtures_are_left_alone(self):
        for name in ("3_1.pres", "9_35.pres"):
            p = parse_presentation(load_fixture_text(name))
            assert simplify(p, 0) == (p, list(range(p.num_generators)), 0)

    def test_passes_over_relators_it_cannot_use(self):
        # a nonzero exponent sum, and a substitution that would trivialize
        # the other relator: the presentation stays as given
        for text in ("gens: a b\nrel: abb\n", "gens: a b c\nrel: aB\nrel: aB\n"):
            p = parse_presentation(text)
            assert simplify(p, p.num_generators - 1)[0] is p


def _digest(p, keeps):
    """A short hash of simplify's (relators, kept, shift) at each keep."""
    out = []
    for keep in keeps:
        q, kept, shift = simplify(p, keep)
        out.append(([r.tietze for r in q.relators], kept, shift))
    return hashlib.sha256(repr(out).encode()).hexdigest()[:16]


# _digest of T(2, n) at every keep column.  The values pin the steps the
# pass takes, and with them every complex --pd output: a faster pass must
# take the same steps.
TORUS_DIGESTS = {
    3: "95a84e29f404e3d9", 5: "8aa88ed43c066e97", 7: "4f4576250499a122",
    9: "d47a27e795348ca5", 11: "f3e45f53677a3009", 13: "d268389c3cf2e417",
    15: "aecd07a41420495c", 17: "d78e04f5909e6c96", 19: "d0a85ce754cd7ccf",
    21: "d4edbae0fbaceb4a", 23: "27bd7e2064daa068", 25: "786c445ce81dc1f0",
    27: "3881646d85f06d29", 29: "a92e4ad853881d6c", 31: "2016e5f322ef97c5",
    33: "defb92c6fa64f76c", 35: "1aabfaa3635cfc6f", 37: "6f2b4887c0b144e8",
    39: "4e0483722fe5a989", 41: "2f54d323d5e550e6",
}
FIXTURE_DIGESTS = {"3_1.pd": "95a84e29f404e3d9", "8_20.pd": "000c7d5fd28b6d6b",
                   "9_35.pd": "f85f75db45bfb043"}


class TestPinnedReductions:
    @pytest.mark.parametrize("n", sorted(TORUS_DIGESTS))
    def test_torus_knots(self, n):
        assert _digest(pd_to_wirtinger(torus_pd(n)), range(n)) == TORUS_DIGESTS[n]

    @pytest.mark.parametrize("name", sorted(FIXTURE_DIGESTS))
    def test_fixture_diagrams(self, name):
        p = pd_to_wirtinger(parse_pd(load_fixture_text(name)))
        assert _digest(p, range(p.num_generators)) == FIXTURE_DIGESTS[name]


def naive_substitute(r, g, w, w_inv):
    """Substitute, then freely reduce with words._reduce, then strip the
    conjugator letter by letter: the reference for _substitute."""
    out = _reduce([y for x in r
                   for y in (w if x == g else w_inv if x == -g else (x,))])
    conjugator = []
    while len(out) > 1 and out[0] == -out[-1]:
        conjugator.append(out[0])
        out = out[1:-1]
    return out, sum(1 if x > 0 else -1 for x in conjugator)


_letters = st.lists(st.integers(-4, 4).filter(bool), max_size=12)


class TestSubstitute:
    @settings(max_examples=300, deadline=None)
    @given(_letters, st.integers(1, 4), _letters)
    def test_matches_naive_substitution(self, r, g, w):
        w = tuple(w)
        w_inv = tuple(-x for x in reversed(w))
        assert _substitute(tuple(r), g, w, w_inv) == \
            naive_substitute(r, g, w, w_inv)


def _parse_alex(text):
    """Read a reference polynomial file (serialized coefficient map)."""
    import json

    from talex.laurent import LaurentPoly

    return LaurentPoly.from_json_dict(json.loads(text))
