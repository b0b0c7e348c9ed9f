"""Words in a free group and their Fox derivatives.

A word is stored as a Tietze sequence: a tuple of nonzero signed integers,
where +k stands for the generator of index k-1 and -k for its inverse.
Words are freely reduced on construction, so equality of FreeWord objects
is equality in the free group.  The trivial word is the empty tuple.

An element of the integral group ring is a {FreeWord: int} map with no
zero values.  The free derivative d/dx, one such map per word, obeys

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


def fox_derivative(word: FreeWord, g: int) -> dict[FreeWord, int]:
    """Free (Fox) derivative of a word with respect to generator index g,
    as {word: coefficient} in order of first occurrence.

    Scans the word left to right: a letter x_g contributes +p for the
    prefix p before it, a letter x_g^-1 contributes -(p * x_g^-1), i.e. the
    prefix including the inverse letter itself.  The prefixes of a reduced
    word are distinct words, so no two terms meet and none sums to zero.
    """
    letters = word.tietze
    terms: dict[FreeWord, int] = {}
    for i, x in enumerate(letters):
        if x == g + 1:
            terms[FreeWord(letters[:i])] = 1
        elif x == -g - 1:
            terms[FreeWord(letters[:i + 1])] = -1
    return terms


def fundamental_identity_holds(word: FreeWord, num_generators: int) -> bool:
    """Check sum_g d(w)/dg * (g - 1) == w - 1 in the group ring: starting
    from -(w - 1), add u * x_g and -u for each term u of d(w)/dg, then
    every coefficient must be 0."""
    total = {word: -1}
    total[FreeWord()] = total.get(FreeWord(), 0) + 1
    for g in range(num_generators):
        gen = FreeWord([g + 1])
        for u, c in fox_derivative(word, g).items():
            for v, k in ((u * gen, c), (u, -c)):
                total[v] = total.get(v, 0) + k
    return not any(total.values())
