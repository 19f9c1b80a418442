"""Free Lie superalgebras on ordered Z/2-graded alphabets.

The bracket satisfies [x, y] = -(-1)^{|x||y|} [y, x] and the Koszul-signed
Jacobi identity; in particular [x, x] = 0 for even x while [x, x] is a
nonzero basis element for odd x.  The Lyndon basis consists of the standard
bracketings B(w) of Lyndon words together with the squares [B(w), B(w)] for
odd-degree Lyndon words w.  Dimensions are a closed-form count by Möbius
inversion, checked against the enumerations `lyndon_words` and the oracle.

Arbitrary bracket expressions are normalized into this basis by the
classical bottom-up rewriting, one memoized bracket of two basis elements
under four rules.  Write <w> for the square [B(w), B(w)], which is even.

- Antisymmetry puts a word before a square and the smaller of two words
  first.
- The Jacobi step on the standard factorization: for words m < n,
  [B(m), B(n)] is B(mn) outright when m is a letter or n is not larger
  than the standard right factor v of m = uv, and otherwise
  [B(u), [B(v), B(n)]] - (-1)^{|u||v|} [B(v), [B(u), B(n)]].
- A word and a square: [B(w), <u>] = -2 [B(u), [B(u), B(w)]], which is 0
  for w = u.
- Two squares: [<w1>, <w2>] = 2 [B(w1), [B(w1), <w2>]].

The engine is validated elsewhere against an independent oracle: the span
of all full bracketings inside the free associative superalgebra,
row-reduced with exact integer arithmetic.  The oracle builds that span by
bilinearity, from the commutators of the spans of smaller multidegrees; it
is the same span as that of every bracketing expanded one by one, which the
tests keep as the reference.

Words are tuples of alphabet indices internally; the public surface speaks
strings of single-character letters.  Bracket expressions are nested pairs,
e.g. ``(("a", "b"), ("a", "a"))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, gcd, lcm
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import (FormatError, MixedMultidegree, NotLyndon, OutOfRange,
                     TooLarge, UnknownLetter)

BracketExpr = Union[str, tuple]
_Key = tuple  # ("w", word) or ("sq", word); word = tuple of letter indices
# lyndon_words writes out and filters every multiset permutation of its
# counts, so it is bounded by the letters written, words times length:
# (10, 10) writes 3.7e6 in 0.8 s, (11, 11) 1.6e7 in 2.7 s, (4, 60) 4.1e7 in
# 4.3 s; (12, 12) would write 6.5e7.  A bound on words alone would accept
# (1, 999999), 10^6 words of 10^6 letters.
MAX_LETTERS = 5 * 10 ** 7
# normalize (and serialize.parse_bracket_expr) recurse once per level of a
# bracket expression, and the rewriting recurses along the words it builds,
# so an expression is bounded by its letters, which bound its depth.  The
# chains [[a,b],b]... and [a^k b, b] of 128 letters take 0.001 s and 0.6 s
# on a shared 2-CPU machine and need about 140 and 270 of the interpreter's
# 1,000 frames; a chain 1,200 deep ended in RecursionError.  Cost grows with
# the words of the multidegree, not with the letters: [a,e], [e,b] nested to
# 25 letters took 28 s.  standard_bracketing and associative_expansion
# recurse the same way along a word or an expression, so the same bound
# holds for them and for the oracle's membership test.
MAX_EXPR_LETTERS = 128
# oracle_component row-reduces inside the span of the words of its
# multidegree.  On the letters a, b each component of total 12 takes at most
# 0.4 s (1.3 s for all 13, 19 MB max RSS) on a shared 2-CPU machine, and
# total 13 would take 1.4 s (4.3 s).  More distinct letters have more words
# at one total: the 7- and 8-letter multilinear components take 0.9 s and
# 23 s.
MAX_ORACLE_TOTAL = 12


class GradedAlphabet:
    """An ordered alphabet of single-character letters with Z/2 degrees:
    each letter's degree is an int, not a bool, taken mod 2."""

    __slots__ = ("letters", "degrees", "_index")

    def __init__(self, letters: Sequence[str], degree: Mapping[str, int]):
        self.letters = tuple(letters)
        if len(set(self.letters)) != len(self.letters):
            raise FormatError("letters must be distinct")
        for x in self.letters:
            if not (isinstance(x, str) and len(x) == 1):
                raise FormatError("letters must be single characters")
            if type(degree.get(x)) is not int:
                raise OutOfRange(f"letter {x!r} needs an int degree, got "
                                 f"{degree.get(x)!r}")
        self.degrees = tuple(degree[x] % 2 for x in self.letters)
        self._index = {x: i for i, x in enumerate(self.letters)}

    def __len__(self) -> int:
        return len(self.letters)

    def index(self, letter) -> int:
        """The index of a letter, given as its character or as an int in
        0..len-1; anything else, a bool included, raises UnknownLetter."""
        if type(letter) is int and 0 <= letter < len(self.letters):
            return letter
        try:
            return self._index[letter]
        except (KeyError, TypeError):
            raise UnknownLetter(f"letter {letter!r} is not in the alphabet "
                                f"{''.join(self.letters)!r}") from None

    def key(self, word) -> tuple[int, ...]:
        """Convert a word (string or letter sequence) to an index tuple."""
        return tuple(map(self.index, word))

    def text(self, word_key: tuple[int, ...]) -> str:
        return "".join(self.letters[i] for i in word_key)

    def __repr__(self) -> str:
        spec = ",".join(f"{x}:{'odd' if d else 'even'}"
                        for x, d in zip(self.letters, self.degrees))
        return f"GradedAlphabet({spec})"


def _key_multidegree(nletters: int, key: _Key) -> tuple[int, ...]:
    kind, w = key
    counts = [0] * nletters
    for i in w:
        counts[i] += 1
    if kind == "sq":
        counts = [2 * c for c in counts]
    return tuple(counts)


class LieVector:
    """A sparse exact-rational combination of Lyndon-basis elements.

    All keys share one multidegree; zero coefficients are never stored.
    Keys are ("w", word) for B(word) and ("sq", word) for [B(word), B(word)].
    Coefficients are Fractions here and in the vector arithmetic below.
    The rewriting engine works in integers: `bracket`, `normalize` and
    `spectral.d1` take their inputs over one common denominator
    (`_integer_terms`) and divide each output coefficient by it once
    (`_fraction_terms`).
    """

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: GradedAlphabet, terms: Mapping[_Key, Fraction]):
        self.alphabet = alphabet
        clean = {}
        mdeg = None
        for key, coeff in terms.items():
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if not coeff:
                continue
            md = _key_multidegree(len(alphabet), key)
            if mdeg is None:
                mdeg = md
            elif md != mdeg:
                raise MixedMultidegree(f"{md} vs {mdeg}")
            clean[key] = coeff
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def multidegree(self) -> tuple[int, ...] | None:
        for key in self.terms:
            return _key_multidegree(len(self.alphabet), key)
        return None

    def items(self) -> list[tuple[_Key, Fraction]]:
        return sorted(self.terms.items())

    def coefficient(self, word) -> Fraction:
        return self.terms.get(("w", self.alphabet.key(word)), Fraction(0))

    def scale(self, c) -> "LieVector":
        c = Fraction(c)
        return LieVector(self.alphabet,
                         {k: v * c for k, v in self.terms.items()})

    def __add__(self, other: "LieVector") -> "LieVector":
        acc = dict(self.terms)
        for k, v in other.terms.items():
            acc[k] = acc.get(k, Fraction(0)) + v
        return LieVector(self.alphabet, acc)

    def __sub__(self, other: "LieVector") -> "LieVector":
        return self + other.scale(-1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LieVector)
                and self.alphabet.letters == other.alphabet.letters
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.alphabet.letters, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        if not self.terms:
            return "LieVector(0)"
        bits = []
        for (kind, w), c in self.items():
            word = self.alphabet.text(w)
            bits.append(f"{c}*{word}" if kind == "w" else f"{c}*({word})^[2]")
        return "LieVector(" + " + ".join(bits) + ")"


def _integer_terms(terms: Mapping) -> tuple[dict, int]:
    """The coefficients of a Fraction-valued term dict as integer numerators
    over their least common denominator, and that denominator."""
    den = lcm(*(c.denominator for c in terms.values()))
    return ({k: c.numerator * (den // c.denominator)
             for k, c in terms.items()}, den)


def _fraction_terms(terms: dict, den: int) -> dict:
    """Divide the integer coefficients of terms by den, in place, so that no
    second dict of the result's size is built."""
    for k, c in terms.items():
        terms[k] = Fraction(c, den)
    return terms


# --------------------------------------------------------------------------
# Lyndon words.
# --------------------------------------------------------------------------

def _is_lyndon_key(w: tuple[int, ...]) -> bool:
    """Duval's linear test: a nonempty word is Lyndon iff it is its own
    first factor in the Lyndon factorization.  w[:j] is a prefix of a
    power of the Lyndon word w[:j - k]; a letter below its match ends the
    factor early, and a word ending with k > 0 is not its own factor."""
    if not w:
        return False
    k = 0
    for j in range(1, len(w)):
        if w[k] < w[j]:
            k = 0
        elif w[k] == w[j]:
            k += 1
        else:
            return False
    return k == 0


def _bound_letters(letters: int, what: str) -> None:
    """Refuse an input of more than MAX_EXPR_LETTERS letters before
    anything recurses on it."""
    if letters > MAX_EXPR_LETTERS:
        raise TooLarge(f"{what} of {letters} letters exceeds "
                       f"{MAX_EXPR_LETTERS}")


def is_lyndon(word, alphabet: GradedAlphabet) -> bool:
    """True iff the word is strictly smaller than all its proper rotations."""
    return _is_lyndon_key(alphabet.key(word))


def _multiset_permutations(counts: list[int]) -> Iterable[tuple[int, ...]]:
    """Every word with the given letter counts, in lex order: next
    permutation from the sorted word, without recursion."""
    word = [i for i, c in enumerate(counts) for _ in range(c)]
    last = len(word) - 1
    while True:
        yield tuple(word)
        i = last - 1
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1:] = word[:i:-1]


def _as_counts(alphabet: GradedAlphabet, multidegree) -> list[int]:
    """The letter counts of a multidegree, given as a sequence or as a
    mapping from letters; each count must be an int, not a bool."""
    if isinstance(multidegree, Mapping):
        for x in multidegree:
            if x not in alphabet.letters:
                raise UnknownLetter(f"letter {x!r} is not in the alphabet "
                                    f"{''.join(alphabet.letters)!r}")
        counts = [multidegree.get(x, 0) for x in alphabet.letters]
    else:
        counts = list(multidegree)
    if len(counts) != len(alphabet) or any(
            type(c) is not int or c < 0 for c in counts):
        raise OutOfRange(f"multidegree {tuple(counts)} needs one nonnegative "
                         f"count per letter of the {len(alphabet)}-letter "
                         "alphabet")
    return counts


def lyndon_words(alphabet: GradedAlphabet, multidegree) -> list[str]:
    """All Lyndon words with exactly the given letter counts, in lex order."""
    counts = _as_counts(alphabet, multidegree)
    total = sum(counts)
    if total < 1:
        raise OutOfRange("multidegree total must be at least 1")
    # Letters written: the length times the multinomial, a running product
    # of binomials over the letters used, refused at its first factor past
    # the bound, so a huge degree is refused at once.
    if total > MAX_LETTERS:
        raise TooLarge(f"a word of {total} letters exceeds {MAX_LETTERS}")
    used = [c for c in counts if c]
    letters, placed = total, used[0]
    for c in used[1:]:
        for j in range(1, c + 1):
            placed += 1
            letters = letters * placed // j
            if letters > MAX_LETTERS:
                raise TooLarge(f"{tuple(counts)}: permutations exceed "
                               f"{MAX_LETTERS} letters")
    return [alphabet.text(w) for w in _multiset_permutations(counts)
            if _is_lyndon_key(w)]


def _square_half(alphabet: GradedAlphabet, counts) -> list[int] | None:
    """The half multidegree whose Lyndon words enter the basis of counts as
    squares, or None: squares occur when every letter count is even and the
    half has odd degree."""
    if not sum(counts) or any(c % 2 for c in counts):
        return None
    half = [c // 2 for c in counts]
    if sum(c * d for c, d in zip(half, alphabet.degrees)) % 2 == 0:
        return None
    return half


def _lyndon_count(counts) -> int:
    """Number of Lyndon words with the given letter counts, by Möbius
    inversion of multinomial(c) = sum_{d | gcd(c)} (N/d) L(c/d), N = sum(c)
    (Reutenauer, *Free Lie Algebras*, 1993), solved for the d = 1 term."""
    n, g = sum(counts), gcd(*counts)
    words = factorial(n)
    for c in counts:
        words //= factorial(c)
    for d in range(2, g + 1):
        if g % d == 0:
            words -= n // d * _lyndon_count([c // d for c in counts])
    return words // n if n else 0


def dimension(alphabet: GradedAlphabet, multidegree) -> int:
    """Number of Lyndon-basis elements of the multidegree.

    Counts the Lyndon words plus, when every letter count is even and the
    halved word has odd degree, the squares of the half-multidegree words,
    both in closed form by Möbius inversion (Kang & Kim, J. Algebra 183,
    1996). `lyndon_words` and `oracle_component` are the enumeration checks.
    """
    counts = _as_counts(alphabet, multidegree)
    half = _square_half(alphabet, counts)
    return _lyndon_count(counts) + (0 if half is None else _lyndon_count(half))


# --------------------------------------------------------------------------
# Standard bracketing and the rewriting engine.
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _std_split(w: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Standard factorization of a Lyndon word of length >= 2: the right
    factor is the lexicographically smallest proper suffix."""
    best = 1
    for i in range(2, len(w)):
        if w[i:] < w[best:]:
            best = i
    return w[:best], w[best:]


def _std_tree(w: tuple[int, ...]):
    if len(w) == 1:
        return w[0]
    u, v = _std_split(w)
    return (_std_tree(u), _std_tree(v))


def standard_bracketing(word, alphabet: GradedAlphabet) -> BracketExpr:
    """The recursive bracketing of a Lyndon word; single letters map to
    themselves.  A word of more than MAX_EXPR_LETTERS letters raises
    TooLarge."""
    key = alphabet.key(word)
    _bound_letters(len(key), "a word")
    if not _is_lyndon_key(key):
        raise NotLyndon(f"{alphabet.text(key)} is not a Lyndon word")

    def to_public(node):
        if isinstance(node, int):
            return alphabet.letters[node]
        return (to_public(node[0]), to_public(node[1]))

    return to_public(_std_tree(key))


def _wdeg(degrees: tuple[int, ...], w: tuple[int, ...]) -> int:
    # One C-level count per odd letter, not one step per letter of w.
    return sum(w.count(i) for i, d in enumerate(degrees) if d) % 2


_active_squares: set = set()


@lru_cache(maxsize=None)
def _bracket_words(degrees: tuple[int, ...], k1: _Key, k2: _Key) -> tuple:
    """[k1, k2] for two basis elements, words or squares, in the Lyndon
    basis, as a sorted tuple of (key, int) pairs with no zero, by the four
    rules of the module docstring: antisymmetry, then the two square
    identities, then B(mn) or the Jacobi step for words m < n."""
    (kind1, m), (kind2, n) = k1, k2
    if k1 == k2:
        return ((("sq", m), 1),) if kind1 == "w" and _wdeg(degrees, m) else ()
    if kind1 == "sq" and kind2 == "w" or kind1 == kind2 == "w" and m > n:
        # antisymmetry; squares are even
        sign = (1 if kind1 == "w" and _wdeg(degrees, m) and _wdeg(degrees, n)
                else -1)
        return tuple((k, sign * c) for k, c in _bracket_words(degrees, k2, k1))
    acc: dict[_Key, int] = {}
    if kind1 == "sq":
        # two squares
        wm = ("w", m)
        _accumulate(acc, degrees, 2, wm, _bracket_words(degrees, wm, k2))
    elif kind2 == "sq":
        # a word and a square, guarded against a cycle
        if m == n:
            return ()
        token = (degrees, k1, k2)
        if token in _active_squares:
            raise RuntimeError("cyclic square reduction; rewriting order broken")
        _active_squares.add(token)
        try:
            wn = ("w", n)
            _accumulate(acc, degrees, -2, wn, _bracket_words(degrees, wn, k1))
        finally:
            _active_squares.discard(token)
    else:
        # words m < n: mn is Lyndon, and (m, n) is its standard factorization
        # exactly when m is a letter or the standard right factor of m is >= n
        if len(m) == 1:
            return ((("w", m + n), 1),)
        u, v = _std_split(m)
        if v >= n:
            return ((("w", m + n), 1),)
        # the Jacobi step
        wu, wv = ("w", u), ("w", v)
        sign = 1 if _wdeg(degrees, u) and _wdeg(degrees, v) else -1
        _accumulate(acc, degrees, 1, wu, _bracket_words(degrees, wv, k2))
        _accumulate(acc, degrees, sign, wv, _bracket_words(degrees, wu, k2))
    return tuple(sorted((k, c) for k, c in acc.items() if c))


def _accumulate(acc: dict, degrees: tuple[int, ...], scale: int, k1: _Key,
                terms: Iterable) -> None:
    """acc += scale * c * [k1, k] over the (k, c) pairs of terms; zero
    coefficients stay in acc."""
    for k, c in terms:
        c *= scale
        for key, c2 in _bracket_words(degrees, k1, k):
            acc[key] = acc.get(key, 0) + c * c2


def _bracket_terms(degrees: tuple[int, ...], x: Mapping, y: Mapping) -> dict:
    """[x, y] for combinations of basis keys given as key -> integer
    coefficient; zero coefficients are dropped."""
    acc: dict = {}
    for k1, c1 in x.items():
        _accumulate(acc, degrees, c1, k1, y.items())
    return {k: c for k, c in acc.items() if c}


# --------------------------------------------------------------------------
# Normalization of bracket expressions.
# --------------------------------------------------------------------------

def _to_internal(expr: BracketExpr, alphabet: GradedAlphabet):
    if isinstance(expr, tuple) and len(expr) == 2:
        return (_to_internal(expr[0], alphabet), _to_internal(expr[1], alphabet))
    if isinstance(expr, str) and len(expr) != 1:
        raise ValueError(f"expression leaves must be single letters: {expr!r}")
    if isinstance(expr, (str, int)):
        return alphabet.index(expr)
    raise ValueError(f"not a bracket expression: {expr!r}")


def _leaves(expr) -> list:
    """The leaves of a bracket expression, found without recursion."""
    out, stack = [], [expr]
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            stack.extend(x)
        else:
            out.append(x)
    return out


def _normalize_node(degrees: tuple[int, ...], node) -> dict[_Key, int]:
    if isinstance(node, int):
        return {("w", (node,)): 1}
    return _bracket_terms(degrees, _normalize_node(degrees, node[0]),
                          _normalize_node(degrees, node[1]))


def normalize(expr, alphabet: GradedAlphabet) -> LieVector:
    """Expand a bracket expression (or a linear combination of them, given
    as (coefficient, expression) pairs) in the Lyndon basis.

    All terms must share one multidegree; raises MixedMultidegree otherwise.
    A single expression is a string or a pair; a combination is any other
    iterable of (coefficient, expression) pairs.  An expression of more than
    MAX_EXPR_LETTERS letters raises TooLarge before any recursion.
    """
    if isinstance(expr, (str, tuple)):
        terms = [(1, expr)]
    else:
        terms = list(expr)
    coeffs, den = _integer_terms({i: Fraction(c)
                                  for i, (c, _) in enumerate(terms)})
    for _, e in terms:
        _bound_letters(len(_leaves(e)), "a bracket expression")
    internal = [_to_internal(e, alphabet) for _, e in terms]
    mdeg = None
    for node in internal:
        md = tuple(map(_leaves(node).count, range(len(alphabet))))
        if mdeg is None:
            mdeg = md
        elif md != mdeg:
            raise MixedMultidegree(f"{md} vs {mdeg}")
    acc: dict[_Key, int] = {}
    for i, node in enumerate(internal):
        for key, c in _normalize_node(alphabet.degrees, node).items():
            acc[key] = acc.get(key, 0) + coeffs[i] * c
    return LieVector(alphabet, _fraction_terms(acc, den))


def basis_vector(word, alphabet: GradedAlphabet, square: bool = False
                 ) -> LieVector:
    """The basis element B(word), or its square [B(word), B(word)]."""
    key = alphabet.key(word)
    if not _is_lyndon_key(key):
        raise NotLyndon(f"{alphabet.text(key)} is not a Lyndon word")
    kind = "sq" if square else "w"
    if square and _wdeg(alphabet.degrees, key) != 1:
        raise ValueError("squares exist only for odd-degree words")
    return LieVector(alphabet, {(kind, key): Fraction(1)})


def bracket(x: LieVector, y: LieVector) -> LieVector:
    """Bilinear extension of the basis bracket."""
    if x.alphabet.letters != y.alphabet.letters:
        raise ValueError("vectors live over different alphabets")
    (xs, dx), (ys, dy) = _integer_terms(x.terms), _integer_terms(y.terms)
    terms = _bracket_terms(x.alphabet.degrees, xs, ys)
    return LieVector(x.alphabet, _fraction_terms(terms, dx * dy))


# --------------------------------------------------------------------------
# Brute-force oracle: exact rank of the span of all full bracketings inside
# the free associative superalgebra (the universal envelope), which the free
# Lie superalgebra embeds into in characteristic zero.
# --------------------------------------------------------------------------

def _commutator(degrees: tuple[int, ...], x: dict, y: dict) -> dict:
    """[x, y] = xy - (-1)^{|x||y|} yx for homogeneous x, y by word."""
    if not (x and y):
        return {}
    odd = _wdeg(degrees, next(iter(x))) and _wdeg(degrees, next(iter(y)))
    out: dict[tuple[int, ...], int] = {}
    for wa, ca in x.items():
        for wb, cb in y.items():
            out[wa + wb] = out.get(wa + wb, 0) + ca * cb
            out[wb + wa] = out.get(wb + wa, 0) + (ca * cb if odd else -ca * cb)
    return {w: c for w, c in out.items() if c}


def _assoc_expand(degrees: tuple[int, ...], node) -> dict:
    """Expansion of a bracket expression in the free associative
    superalgebra, as coefficients by word."""
    if isinstance(node, int):
        return {(node,): 1}
    return _commutator(degrees, _assoc_expand(degrees, node[0]),
                       _assoc_expand(degrees, node[1]))


def _key_to_node(key: _Key):
    kind, w = key
    tree = _std_tree(w)
    return (tree, tree) if kind == "sq" else tree


def associative_expansion(obj, alphabet: GradedAlphabet) -> dict[str, Fraction]:
    """Image in the free associative superalgebra, keyed by plain words.

    Accepts a bracket expression or a LieVector (whose basis keys expand
    through their standard bracketings).  An expression, or a basis key's
    bracketing, of more than MAX_EXPR_LETTERS letters raises TooLarge."""
    degrees = alphabet.degrees
    acc: dict[tuple[int, ...], Fraction] = {}
    if isinstance(obj, LieVector):
        for kind, w in obj.terms:
            _bound_letters(len(w) * (2 if kind == "sq" else 1),
                           "a basis element")
        pairs = [(c, _key_to_node(k)) for k, c in obj.terms.items()]
    else:
        _bound_letters(len(_leaves(obj)), "a bracket expression")
        pairs = [(Fraction(1), _to_internal(obj, alphabet))]
    for coeff, node in pairs:
        for w, c in _assoc_expand(degrees, node).items():
            acc[w] = acc.get(w, Fraction(0)) + coeff * c
    return {alphabet.text(w): c for w, c in acc.items() if c}


class _IntEchelon:
    """Incremental integer row echelon over sparse rows (exact rank)."""

    def __init__(self):
        self.pivots: dict = {}  # pivot word -> normalized row dict

    @staticmethod
    def _normalize(row: dict) -> dict:
        g = 0
        for c in row.values():
            g = gcd(g, c)
        lead = min(row)
        if row[lead] < 0:
            g = -g
        return {w: c // g for w, c in row.items()}

    def reduce(self, row: dict) -> dict:
        row = dict(row)
        while row:
            lead = min(row)
            piv = self.pivots.get(lead)
            if piv is None:
                return row
            a, b = piv[lead], row[lead]
            new = {}
            for w in set(row) | set(piv):
                c = a * row.get(w, 0) - b * piv.get(w, 0)
                if c:
                    new[w] = c
            row = new
        return row

    def insert(self, row: dict) -> bool:
        row = self.reduce(row)
        if not row:
            return False
        self.pivots[min(row)] = self._normalize(row)
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)


@dataclass(frozen=True)
class OracleComponent:
    """Exact dimension of one multidegree component, with a membership test
    for the span of all full bracketings."""

    multidegree: tuple[int, ...]
    dimension: int
    contains: Callable[[object], bool]


def oracle_component(alphabet: GradedAlphabet, multidegree) -> OracleComponent:
    """Row-reduce the span of all full bracketings of all words of the
    multidegree inside the free associative superalgebra.  That span is
    built by bilinearity: the span of m is spanned by [x, y] for x, y in the
    spans of m1 and m2 over the splits m1 + m2 = m, with m1 <= m2 since
    [y, x] = +-[x, y]; a single letter spans its own component."""
    counts = tuple(_as_counts(alphabet, multidegree))
    if not 1 <= sum(counts) <= MAX_ORACLE_TOTAL:
        raise TooLarge(f"oracle supports total degree 1..{MAX_ORACLE_TOTAL}, "
                       f"got {sum(counts)}")
    degrees = alphabet.degrees
    spans: dict[tuple[int, ...], _IntEchelon] = {}
    for m in sorted(product(*(range(c + 1) for c in counts)), key=sum)[1:]:
        ech = spans[m] = _IntEchelon()
        if sum(m) == 1:
            ech.insert({(m.index(1),): 1})
        for m1 in product(*(range(c + 1) for c in m)):
            m2 = tuple(c - c1 for c, c1 in zip(m, m1))
            if any(m1) and m1 <= m2:
                for x in spans[m1].pivots.values():
                    for y in spans[m2].pivots.values():
                        ech.insert(_commutator(degrees, x, y))
    ech = spans[counts]

    def contains(obj) -> bool:
        """Membership of a bracket expression or LieVector, bounded in
        letters as by associative_expansion."""
        row, _ = _integer_terms(associative_expansion(obj, alphabet))
        return not ech.reduce({alphabet.key(w): c for w, c in row.items()})

    return OracleComponent(counts, ech.rank, contains)
