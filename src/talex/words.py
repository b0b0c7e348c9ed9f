"""Words in a free group and the integral group ring.

A word is stored as a Tietze sequence: a tuple of nonzero signed integers,
where +k stands for the generator of index k-1 and -k for its inverse.
Words are freely reduced on construction, so equality of FreeWord objects
is equality in the free group.  The trivial word is the empty tuple.

GroupRingElement is a finitely supported integer combination of reduced
words, the ambient ring for Fox derivatives: the free derivative d/dx obeys

    d(x)/dx = 1,   d(x^-1)/dx = -x^-1,   d(uv)/dx = du/dx + u * dv/dx,

which forces the prefix-scan implementation in fox_derivative below.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def _reduce(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a Tietze sequence by stack cancellation."""
    stack: list[int] = []
    for x in letters:
        if x == 0:
            raise ValueError("Tietze letters must be nonzero")
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


class FreeWord:
    """A freely reduced word in a free group of unbounded rank."""

    __slots__ = ("tietze",)

    def __init__(self, letters: Iterable[int] = ()):
        object.__setattr__(self, "tietze", _reduce(letters))

    def __setattr__(self, name, value):
        raise AttributeError("FreeWord is immutable")

    @classmethod
    def from_string(cls, text: str, names: list[str]) -> "FreeWord":
        """Parse a word over single-letter generator names.

        Lowercase letters are generators, uppercase letters their inverses.
        """
        from .errors import ParseError

        index = {nm: i + 1 for i, nm in enumerate(names)}
        letters = []
        for ch in text.strip():
            if ch.isspace():
                continue
            low = ch.lower()
            if low not in index:
                raise ParseError("unknown generator letter %r in word %r" % (ch, text))
            letters.append(index[low] if ch == low else -index[low])
        return cls(letters)

    def to_string(self, names: list[str]) -> str:
        """The word with inverses in uppercase; over single-letter names
        this is the form from_string reads, longer names are spaced."""
        sep = "" if all(len(nm) == 1 for nm in names) else " "
        return sep.join(names[x - 1] if x > 0 else names[-x - 1].upper()
                        for x in self.tietze)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return FreeWord(self.tietze + other.tietze)

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple(-x for x in reversed(self.tietze)))

    def __pow__(self, n: int) -> "FreeWord":
        if n < 0:
            return self.inverse() ** (-n)
        w = FreeWord()
        for _ in range(n):
            w = w * self
        return w

    def exponent_sum(self) -> int:
        """Total exponent sum over all generators (weight-one abelianization)."""
        return sum(1 if x > 0 else -1 for x in self.tietze)

    def max_generator(self) -> int:
        """Largest generator index occurring, or -1 for the empty word."""
        return max((abs(x) - 1 for x in self.tietze), default=-1)

    def is_identity(self) -> bool:
        return not self.tietze

    def __len__(self) -> int:
        return len(self.tietze)

    def __iter__(self) -> Iterator[int]:
        return iter(self.tietze)

    def __hash__(self) -> int:
        return hash(self.tietze)

    def __eq__(self, other) -> bool:
        return isinstance(other, FreeWord) and self.tietze == other.tietze

    def __repr__(self) -> str:
        return "FreeWord(%r)" % (list(self.tietze),)


class GroupRingElement:
    """An element of the integral group ring of the free group.

    Stored as a dict mapping FreeWord to a nonzero integer coefficient.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[FreeWord, int] | None = None):
        clean = {}
        if terms:
            for w, c in terms.items():
                assert isinstance(w, FreeWord)
                if c:
                    clean[w] = c
        self.terms = clean

    @classmethod
    def zero(cls) -> "GroupRingElement":
        return cls()

    @classmethod
    def one(cls) -> "GroupRingElement":
        return cls({FreeWord(): 1})

    @classmethod
    def from_word(cls, w: FreeWord, coeff: int = 1) -> "GroupRingElement":
        return cls({w: coeff})

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0) + c
        return GroupRingElement(terms)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        terms: dict[FreeWord, int] = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                w = u * v
                terms[w] = terms.get(w, 0) + cu * cv
        return GroupRingElement(terms)

    def scale(self, k: int) -> "GroupRingElement":
        return GroupRingElement({w: k * c for w, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "GroupRingElement(0)"
        bits = ["%+d*%r" % (c, list(w.tietze)) for w, c in sorted(
            self.terms.items(), key=lambda item: item[0].tietze)]
        return "GroupRingElement(%s)" % " ".join(bits)


def fox_derivative(word: FreeWord, g: int) -> GroupRingElement:
    """Free (Fox) derivative of a word with respect to generator index g.

    Scans the word left to right keeping the prefix p read so far: a letter
    x_g contributes +p, a letter x_g^-1 contributes -(p * x_g^-1), i.e. the
    prefix including the inverse letter itself.
    """
    terms: dict[FreeWord, int] = {}
    prefix = FreeWord()
    for x in word:
        letter = FreeWord([x])
        if abs(x) - 1 == g:
            if x > 0:
                contrib, sign = prefix, 1
            else:
                contrib, sign = prefix * letter, -1
            terms[contrib] = terms.get(contrib, 0) + sign
        prefix = prefix * letter
    return GroupRingElement(terms)


def fundamental_identity_holds(word: FreeWord, num_generators: int) -> bool:
    """Check sum_g d(w)/dg * (g - 1) == w - 1 in the group ring."""
    total = GroupRingElement.zero()
    for g in range(num_generators):
        gen = GroupRingElement.from_word(FreeWord([g + 1]))
        total = total + fox_derivative(word, g) * (gen - GroupRingElement.one())
    target = GroupRingElement.from_word(word) - GroupRingElement.one()
    return total == target
