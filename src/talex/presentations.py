"""Finite group presentations and Wirtinger presentations from diagrams.

The presentations handled here are deficiency-one presentations of knot
groups: n generators, n-1 relators.  Wirtinger presentations arise from a
planar diagram, with one meridional generator per arc and one conjugation
relator per crossing (one crossing's relator is redundant and dropped).

PD codes follow the edge-numbering convention: a diagram with n crossings
has 2n edges numbered 1..2n along the orientation, and each crossing is a
4-tuple (a, b, c, d) listing the edges counterclockwise starting from the
incoming under-edge a.  The under-strand runs a -> c; edges b and d carry
the over-strand, and which of them is incoming is decided by edge
succession mod 2n.  The handedness convention is certified downstream by
Alexander polynomial fixtures, not by the labeling itself (the mirror
convention would produce the mirror knot's group, with the same Alexander
polynomial).
"""

from __future__ import annotations

import string

from .errors import ParseError
from .words import FreeWord

_DEFAULT_NAMES = string.ascii_lowercase


class Presentation:
    """A finite presentation with named generators.

    wirtinger is recorded metadata only: it asserts that every generator is
    conjugate to every other (true for presentations built from diagrams).
    Parsed presentations infer it from relator exponent sums vanishing,
    which is the homological shadow of the property, not a proof of it.

    A presentation is not mutated after it is built, so simplify keeps
    each reduction it computes on the presentation, keyed by the kept
    column, and returns it again on later calls; word keeps each word it
    parses the same way, keyed by its text.
    """

    def __init__(self, num_generators: int, relators: list[FreeWord],
                 names: list[str] | None = None, wirtinger: bool = False):
        if names is None:
            if num_generators > len(_DEFAULT_NAMES):
                names = ["x%d" % i for i in range(num_generators)]
            else:
                names = list(_DEFAULT_NAMES[:num_generators])
        if len(names) != num_generators:
            raise ParseError("need %d generator names, got %d"
                             % (num_generators, len(names)))
        if len(set(names)) != num_generators:
            raise ParseError("duplicate generator names")
        for r in relators:
            if r.max_generator() >= num_generators:
                raise ParseError("relator uses a generator outside the list")
            if r.is_identity():
                raise ParseError("relator freely reduces to the identity")
        self.num_generators = num_generators
        self.relators = list(relators)
        self.names = list(names)
        self.wirtinger = wirtinger
        self._reductions: dict[int, tuple[Presentation, list[int], int]] = {}
        self._words: dict[str, FreeWord] = {}

    @property
    def deficiency_one(self) -> bool:
        return len(self.relators) == self.num_generators - 1

    def require_deficiency_one(self):
        if not self.deficiency_one:
            raise ParseError(
                "presentation has %d generators and %d relators; "
                "deficiency one required" % (self.num_generators, len(self.relators)))

    def word(self, text: str) -> FreeWord:
        """Parse a word over this presentation's generator names.  Parsed
        words are kept by text (a FreeWord is immutable); a text that fails
        to parse is not kept."""
        w = self._words.get(text)
        if w is None:
            w = self._words[text] = FreeWord.from_string(text, self.names)
        return w

    def __repr__(self) -> str:
        rels = ", ".join(r.to_string(self.names) for r in self.relators)
        return "<Presentation gens=%s rels=[%s]>" % (" ".join(self.names), rels)


def parse_presentation(text: str) -> Presentation:
    """Parse the presentation file format.

    One line "gens: <name> <name> ..." (single-letter lowercase names),
    then one line "rel: <word>" per relator, where uppercase letters denote
    inverse generators.  Blank lines and lines starting with '#' are skipped.
    """
    names: list[str] | None = None
    relators: list[FreeWord] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("gens:"):
            if names is not None:
                raise ParseError("line %d: duplicate gens: line" % lineno)
            names = line[len("gens:"):].split()
            for nm in names:
                if len(nm) != 1 or not nm.islower() or not nm.isalpha():
                    raise ParseError("line %d: generator names must be single "
                                     "lowercase letters, got %r" % (lineno, nm))
            if not names:
                raise ParseError("line %d: empty generator list" % lineno)
        elif line.startswith("rel:"):
            if names is None:
                raise ParseError("line %d: rel: before gens:" % lineno)
            body = line[len("rel:"):].strip()
            w = FreeWord.from_string(body, names)
            if w.is_identity():
                raise ParseError("line %d: relator %r freely reduces to the "
                                 "identity" % (lineno, body))
            relators.append(w)
        else:
            raise ParseError("line %d: expected 'gens:' or 'rel:', got %r"
                             % (lineno, line))
    if names is None:
        raise ParseError("no gens: line found")
    wirtinger = all(r.exponent_sum() == 0 for r in relators) and bool(relators)
    return Presentation(len(names), relators, names, wirtinger=wirtinger)


def parse_pd(text: str) -> list[tuple[int, int, int, int]]:
    """Parse a PD file: one crossing per line, four comma-separated integers."""
    crossings = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [s.strip() for s in line.split(",")]
        if len(parts) != 4:
            raise ParseError("line %d: PD crossing needs 4 entries, got %d"
                             % (lineno, len(parts)))
        try:
            a, b, c, d = (int(s) for s in parts)
        except ValueError:
            raise ParseError("line %d: non-integer PD entry" % lineno) from None
        crossings.append((a, b, c, d))
    if not crossings:
        raise ParseError("empty PD code")
    return crossings


def pd_to_wirtinger(pd: list[tuple[int, int, int, int]]) -> Presentation:
    """Build the Wirtinger presentation of the knot group from a PD code.

    Arcs are the over-strands: edges b and d of every crossing are merged.
    Each crossing contributes the relator  o^e u o^-e v^-1  where u is the
    arc of the incoming under-edge, v the arc of the outgoing under-edge,
    o the over-arc, and e = +-1 by the over-strand's travel direction.
    The strands must chain the edges into one cycle; a code that does not,
    such as a link's, raises ParseError.
    One relator (the last crossing's) is redundant and dropped, so the
    result has deficiency one.  A one-crossing diagram therefore yields the
    free presentation of Z on a single generator.
    """
    n = len(pd)
    if n == 0:
        raise ParseError("empty PD code")
    nedges = 2 * n
    seen: dict[int, int] = {}
    for a, b, c, d in pd:
        for e in (a, b, c, d):
            if not 1 <= e <= nedges:
                raise ParseError("PD edge label %d out of range 1..%d" % (e, nedges))
            seen[e] = seen.get(e, 0) + 1
    bad = [e for e in range(1, nedges + 1) if seen.get(e, 0) != 2]
    if bad:
        raise ParseError("PD edge labels %s do not appear exactly twice" % bad)

    # Union-find over edges; merging b,d at every crossing glues edges into arcs.
    parent = list(range(nedges + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int):
        parent[find(x)] = find(y)

    for a, b, c, d in pd:
        # Under-strand continuity: c must be the successor edge of a.
        if c != a % nedges + 1 and a != c % nedges + 1:
            raise ParseError("crossing %s: under-edges %d,%d are not "
                             "consecutive" % ((a, b, c, d), a, c))
        union(b, d)

    arcs = sorted({find(e) for e in range(1, nedges + 1)})
    if len(arcs) != n:
        raise ParseError("PD code yields %d arcs for %d crossings; "
                         "not a knot diagram" % (len(arcs), n))
    arc_index = {root: i for i, root in enumerate(arcs)}

    def gen(edge: int) -> int:
        return arc_index[find(edge)] + 1   # 1-based Tietze letter

    relators, starts = [], []
    for a, b, c, d in pd:
        # Over-strand travel: exactly one of b,d is the other's successor.
        if d == b % nedges + 1:
            sign = -1          # over-strand runs b -> d
        elif b == d % nedges + 1:
            sign = 1           # over-strand runs d -> b
        else:
            raise ParseError("crossing %s: over-edges %d,%d are not "
                             "consecutive" % ((a, b, c, d), b, d))
        starts += a if c == a % nedges + 1 else 0, b if sign < 0 else d
        o, u, v = gen(b), gen(a), gen(c)
        w = FreeWord([sign * o, u, -sign * o, -v])
        if not w.is_identity():       # kinks relate an arc to itself
            relators.append(w)

    # Each step e -> e + 1 of the one cycle 1 -> 2 -> ... -> 2n -> 1 must be
    # taken by a strand (a backward under-strand takes none, and counts as
    # 0); with two edges the direction is ambiguous, and a kink passes.
    missing = set(range(1, nedges + 1)).difference(starts)
    if missing and n > 1:
        e = min(missing)
        raise ParseError("PD code is not one closed strand: no strand runs "
                         "from edge %d to edge %d" % (e, e % nedges + 1))

    # Any single Wirtinger relator is a consequence of the others; drop one
    # unless a trivial kink relator already served as the drop.
    if len(relators) == n:
        relators = relators[:-1]
    if len(relators) != n - 1:
        raise ParseError("PD code yields %d independent relators for %d "
                         "arcs; cannot form a deficiency-one presentation"
                         % (len(relators), n))
    return Presentation(n, relators, wirtinger=True)


def _substitute(r: tuple[int, ...], g: int, w: tuple[int, ...],
                w_inv: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Replace letter g of r by the word w and g^-1 by w_inv, freely
    reducing on a stack as the letters come, then cyclically reduce.
    Returns the result and the exponent sum of the conjugator removed."""
    out = [0]                        # a sentinel that matches no letter
    for x in r:
        if x == g or x == -g:
            for y in w if x == g else w_inv:
                if out[-1] == -y:
                    out.pop()
                else:
                    out.append(y)
        elif out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    i, n = 1, len(out)
    while 2 * i < n and out[i] == -out[n - i]:
        i += 1
    return tuple(out[i:n - i + 1]), sum(1 if x > 0 else -1 for x in out[1:i])


def simplify(p: Presentation, keep: int
             ) -> tuple[Presentation, list[int], int]:
    """Tietze-reduce p by eliminating generators other than keep.

    Each step takes a relator r = u g^e v, with exponent sum zero, in which
    the generator g occurs once, solves it for g (g = (vu)^-e), substitutes
    that word into the other relators and freely and cyclically reduces
    them.  Of all such (r, g) pairs the step takes the one that leaves the
    least total relator length, ties going to the first relator, then the
    lowest generator.  A pair that would reduce a relator to the identity
    is passed over; the steps stop when no pair is left.  Only the pairs
    whose relators a step changed are evaluated again, each reading the
    relators that hold its generator from an index kept up to date for
    the changed relators, and substituting and reducing in one stack pass.

    Returns (q, kept, E): q's generators are those of p at the indices in
    kept, in order, and for every representation rho of p with det 1,
    restricted to q, det Phi(M_keep) = t^E det Phi(M'_keep') for the Fox
    matrices of p and q with their keep column removed (Wada 1994).  E sums
    2 ab(prefix) over the eliminations, the prefix being the word whose
    image is the Fox derivative dr/dg, and 2 ab(c) over the conjugators c
    removed by cyclic reduction.

    The reduction is computed once per presentation and keep column, and
    kept on p (see Presentation).
    """
    if keep not in p._reductions:
        p._reductions[keep] = _tietze(p, keep)
    return p._reductions[keep]


def _tietze(p: Presentation, keep: int
            ) -> tuple[Presentation, list[int], int]:
    """The reduction of simplify, computed afresh."""
    def singles(r: tuple[int, ...]) -> list[int]:
        counts: dict[int, int] = {}
        for x in r:
            counts[abs(x)] = counts.get(abs(x), 0) + 1
        return [g for g, c in counts.items() if c == 1 and g != keep + 1]

    def elimination(i: int, g: int):
        # (growth, Fox prefix exponent sum, {j: (new relator j, conjugator
        # exponent sum)}), or None when a relator would become the identity
        r = rels[i]
        pos = r.index(g) if g in r else r.index(-g)
        w = r[pos + 1:] + r[:pos]
        w_inv = tuple(-x for x in reversed(w))
        if r[pos] > 0:
            w, w_inv = w_inv, w
        growth, others = -len(r), {}
        for j in holds[g]:
            if j != i:
                s, c = others[j] = _substitute(rels[j], g, w, w_inv)
                if not s:
                    return None
                growth += len(s) - len(rels[j])
        prefix = sum(1 if x > 0 else -1 for x in r[:pos]) - (r[pos] < 0)
        return growth, prefix, others

    rels = dict(enumerate(r.tietze for r in p.relators))
    holds: dict[int, set[int]] = {}     # generator -> relators holding it
    for i, r in rels.items():
        for x in r:
            holds.setdefault(abs(x), set()).add(i)
    # Substitution keeps exponent sums, so the usable relators stay usable.
    usable = {i: singles(r.tietze) for i, r in enumerate(p.relators)
              if r.exponent_sum() == 0}
    steps: dict[tuple[int, int], tuple | None] = {}
    gone: set[int] = set()
    shift = 0
    while True:
        for i, gens in usable.items():
            for g in gens:
                if (i, g) not in steps:
                    steps[(i, g)] = elimination(i, g)
        options = [(s[0], i, g) for (i, g), s in steps.items() if s is not None]
        if not options:
            break
        _, i, g = min(options)
        _, prefix, others = steps[(i, g)]
        shift += 2 * prefix
        changed = {abs(x) for j in (i, *others) for x in rels[j]}
        for j in (i, *others):
            for x in rels[j]:
                holds[abs(x)].discard(j)
        del rels[i], usable[i]
        for j, (s, c) in others.items():
            rels[j] = s
            shift += 2 * c
            for x in s:
                holds[abs(x)].add(j)
                changed.add(abs(x))
            if j in usable:
                usable[j] = singles(s)
        gone.add(g)
        steps = {(j, h): s for (j, h), s in steps.items()
                 if j != i and j not in others and h not in changed}
    if not gone:
        return p, list(range(p.num_generators)), 0
    kept = [k for k in range(p.num_generators) if k + 1 not in gone]
    index = {k + 1: i + 1 for i, k in enumerate(kept)}
    relators = [FreeWord([index[x] if x > 0 else -index[-x] for x in r])
                for r in rels.values()]
    q = Presentation(len(kept), relators, [p.names[k] for k in kept],
                     wirtinger=p.wirtinger)
    return q, kept, shift
