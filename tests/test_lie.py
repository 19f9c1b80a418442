from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from hyperstrata import lie
from hyperstrata.errors import (FormatError, MixedMultidegree, NotLyndon,
                                OutOfRange, TooLarge, UnknownLetter)
from hyperstrata.lie import (
    MAX_EXPR_LETTERS,
    MAX_ORACLE_TOTAL,
    GradedAlphabet,
    LieVector,
    associative_expansion,
    basis_vector,
    bracket,
    dimension,
    is_lyndon,
    lyndon_words,
    normalize,
    oracle_component,
    standard_bracketing,
)

AB = GradedAlphabet(("a", "b"), {"a": 1, "b": 0})
AB_ODD = GradedAlphabet(("a", "b"), {"a": 1, "b": 1})
ODD3 = GradedAlphabet(("a", "b", "c"), {"a": 1, "b": 1, "c": 1})
MIXED = GradedAlphabet(("a", "b", "c"), {"a": 1, "b": 0, "c": 1})


def test_is_lyndon_basics():
    assert is_lyndon("ab", AB)
    assert is_lyndon("aab", AB)
    assert not is_lyndon("aba", AB)
    assert not is_lyndon("baa", AB)
    assert not is_lyndon("abab", AB)    # equal to its rotation by two
    assert is_lyndon("a", AB)


def test_lyndon_words_examples():
    for g in (2, 3, 5):
        assert lyndon_words(AB, (1, g)) == ["a" + "b" * g]
    assert lyndon_words(AB, (3, 1)) == ["aaab"]
    assert lyndon_words(AB, (2, 2)) == ["aabb"]
    assert lyndon_words(AB, (3, 2)) == ["aaabb", "aabab"]


def test_lyndon_words_refuse_before_enumerating():
    # 2,704,156 permutations for (12, 12), about 10^21 words for (40, 40)
    for md in ((12, 12), (40, 40)):
        with pytest.raises(TooLarge, match="permutations exceed"):
            lyndon_words(AB, md)


def test_lyndon_words_bound_the_letters_written():
    # one a and 999,999 b's: 10^6 words of 10^6 letters, refused at once
    with pytest.raises(TooLarge, match="permutations exceed"):
        lyndon_words(AB, (1, 999_999))
    with pytest.raises(TooLarge, match="a word of"):
        lyndon_words(AB, (0, 10 ** 9))


def test_multiset_permutations_in_lex_order():
    from hyperstrata.lie import _multiset_permutations

    for letters in (1, 2, 3):
        for counts in itertools.product(range(8), repeat=letters):
            if sum(counts) > 7:
                continue
            word = [i for i, c in enumerate(counts) for _ in range(c)]
            assert list(_multiset_permutations(list(counts))) == \
                sorted(set(itertools.permutations(word)))


def _rotation_lyndon(w: tuple[int, ...]) -> bool:
    """The definition: strictly smaller than every proper rotation."""
    return bool(w) and all(w < w[i:] + w[:i] for i in range(1, len(w)))


def duval_words(n_letters: int, max_length: int) -> list[tuple[int, ...]]:
    """All Lyndon words of length <= max_length over 0..n_letters-1, in lex
    order, generated by Duval's iteration (an independent check of the
    Lyndon test)."""
    out = []
    w = [0]
    while True:
        out.append(tuple(w))
        period = len(w)
        while len(w) < max_length:
            w.append(w[len(w) - period])
        while w and w[-1] == n_letters - 1:
            w.pop()
        if not w:
            return out
        w[-1] += 1


def test_duval_agrees_with_rotation_filter():
    for n_letters in (2, 3):
        got = sorted(duval_words(n_letters, 8))
        brute = sorted(
            w for length in range(1, 9)
            for w in itertools.product(range(n_letters), repeat=length)
            if _rotation_lyndon(w))
        assert got == brute


def test_lyndon_test_matches_the_rotation_definition():
    # Every word of up to 12 letters over two and three letters.
    from hyperstrata.lie import _is_lyndon_key

    assert not _is_lyndon_key(())
    for n_letters in (2, 3):
        for length in range(1, 13):
            words = itertools.product(range(n_letters), repeat=length)
            again = itertools.product(range(n_letters), repeat=length)
            assert list(filter(_is_lyndon_key, words)) == \
                list(filter(_rotation_lyndon, again)), (n_letters, length)


def test_standard_bracketing():
    assert standard_bracketing("ab", AB) == ("a", "b")
    assert standard_bracketing("abbb", AB) == ((("a", "b"), "b"), "b")
    assert standard_bracketing("aabab", AB) == (("a", ("a", "b")), ("a", "b"))
    assert standard_bracketing("a", AB) == "a"
    with pytest.raises(NotLyndon):
        standard_bracketing("aba", AB)


def test_normalize_swap_and_squares():
    # [b, a] = -[a, b] because |a||b| = 0
    assert normalize(("b", "a"), AB) == basis_vector("ab", AB).scale(-1)
    # odd squares are basis elements; even squares vanish
    assert normalize(("a", "a"), AB) == basis_vector("a", AB, square=True)
    assert normalize(("b", "b"), AB).is_zero()
    # [a, [a, a]] = 0 by the Jacobi identity
    assert normalize(("a", ("a", "a")), AB).is_zero()
    # [[a, a], [a, b]] = 2[a, [a, [a, b]]] = 2 B(aaab)
    assert normalize((("a", "a"), ("a", "b")), AB) == \
        basis_vector("aaab", AB).scale(2)


def test_normalize_linear_combinations():
    combo = [(2, ("a", "b")), (Fraction(-1), ("a", "b"))]
    assert normalize(combo, AB) == basis_vector("ab", AB)
    with pytest.raises(MixedMultidegree):
        normalize([(1, ("a", "b")), (1, ("a", "a"))], AB)


# Mixed denominators and signs: a common denominator that is dropped or
# applied twice changes every result below.
RATIONALS = (Fraction(1, 3), Fraction(-2, 5), Fraction(7, 6))


def _combination(terms) -> LieVector:
    total = LieVector(AB, {})
    for c, v in terms:
        total = total + v.scale(c)
    return total


def test_normalize_takes_rational_coefficients():
    exprs = [(("a", "a"), ("a", "b")), ("a", ("a", ("a", "b"))),
             ((("a", "b"), "a"), "a")]
    got = normalize(list(zip(RATIONALS, exprs)), AB)
    assert got == _combination((c, normalize(e, AB))
                               for c, e in zip(RATIONALS, exprs))
    assert any(c.denominator > 1 for c in got.terms.values())


def test_bracket_takes_rational_coefficients():
    x_words, y_words = lyndon_words(AB, (3, 2)), lyndon_words(AB, (2, 2))
    x = _combination(zip(RATIONALS, [basis_vector(w, AB) for w in x_words]))
    ys = [basis_vector(w, AB) for w in y_words] + \
        [basis_vector("ab", AB, square=True)]
    y = _combination(zip(RATIONALS[::-1], ys))
    assert len(x.terms) == 2 and len(y.terms) == 2
    got = bracket(x, y)
    assert got == _combination(
        (cx * cy, bracket(basis_vector(w, AB), v))
        for cx, w in zip(RATIONALS, x_words)
        for cy, v in zip(RATIONALS[::-1], ys))
    assert any(c.denominator > 1 for c in got.terms.values())
    p, q = Fraction(3, 4), Fraction(-5, 9)
    assert bracket(x.scale(p), y.scale(q)) == got.scale(p * q)
    assert bracket(x.scale(p), basis_vector("a", AB)) == \
        bracket(x, basis_vector("a", AB)).scale(p)


def chain(letters):
    """[[[a, b], b], ... b] with the given number of letters, the standard
    bracketing of a b^(letters - 1), built without recursion."""
    expr = "a"
    for _ in range(letters - 1):
        expr = (expr, "b")
    return expr


def test_normalize_refuses_an_expression_past_the_bound():
    word = "a" + "b" * (MAX_EXPR_LETTERS - 1)
    assert normalize(chain(MAX_EXPR_LETTERS), AB) == basis_vector(word, AB)
    for letters in (MAX_EXPR_LETTERS + 1, 1200):
        with pytest.raises(TooLarge, match=f"{letters} letters"):
            normalize(chain(letters), AB)
        with pytest.raises(TooLarge):
            normalize([(1, chain(2)), (1, ("a", chain(letters)))], AB)


def test_bracketing_and_expansion_refuse_a_long_word_before_recursing():
    # A chain 1,200 deep ended in RecursionError in each of these.
    long_word = "a" + "b" * 1200
    word = "a" + "b" * (MAX_EXPR_LETTERS - 1)
    component = oracle_component(AB, (1, 3))
    with pytest.raises(TooLarge, match="1201 letters"):
        standard_bracketing(long_word, AB)
    for obj in (chain(1201), basis_vector(long_word, AB)):
        with pytest.raises(TooLarge, match="1201 letters"):
            associative_expansion(obj, AB)
        with pytest.raises(TooLarge, match="1201 letters"):
            component.contains(obj)

    assert standard_bracketing(word, AB) == chain(MAX_EXPR_LETTERS)
    # ad_b^127(a), b even: sum over i of (-1)^i C(127, i) b^i a b^(127-i)
    expansion = associative_expansion(chain(MAX_EXPR_LETTERS), AB)
    assert expansion == associative_expansion(basis_vector(word, AB), AB)
    assert len(expansion) == MAX_EXPR_LETTERS
    assert expansion["b" + "a" + "b" * 126] == -127
    assert component.contains(chain(4))
    assert not component.contains(chain(MAX_EXPR_LETTERS))
    assert not component.contains(basis_vector(word, AB))

    # A square counts its letters twice.
    half = "a" + "b" * (MAX_EXPR_LETTERS // 2 - 1)
    assert associative_expansion(basis_vector(half, AB, square=True), AB)
    with pytest.raises(TooLarge, match="130 letters"):
        associative_expansion(basis_vector(half + "b", AB, square=True), AB)


def test_integer_letters_must_index_the_alphabet():
    # An int letter is an index in 0..len-1; a bool is not a letter.
    assert basis_vector([0, 1], AB) == basis_vector("ab", AB)
    assert normalize((0, "b"), AB) == basis_vector("ab", AB)
    for word in ([-2, -1], [0, -1], [0, 7], [True, 1], [0, False]):
        for call in (AB.key, lambda w: basis_vector(w, AB),
                     lambda w: is_lyndon(w, AB),
                     lambda w: normalize(tuple(w), AB),
                     lambda w: associative_expansion(tuple(w), AB)):
            with pytest.raises(UnknownLetter):
                call(word)


def test_multidegree_counts_must_be_ints_over_the_letters():
    # A count is an int, not a bool, a float or a string; a mapping names
    # letters of the alphabet only.
    assert lyndon_words(AB, {"b": 2, "a": 1}) == lyndon_words(AB, (1, 2))
    assert dimension(AB, {"b": 2}) == dimension(AB, [0, 2]) == 0
    assert oracle_component(AB, {"a": 1, "b": 2}).dimension == 1
    calls = (dimension, lyndon_words, oracle_component)
    for md in ((1.5, 2), (1.9, 2), (True, 2), ("1", "2"), (1, -1),
               {"a": 1.0, "b": 2}):
        for f in calls:
            with pytest.raises(OutOfRange):
                f(AB, md)
    for md in ({"a": 1, "z": 5, "b": 2}, {0: 1, "b": 2}):
        for f in calls:
            with pytest.raises(UnknownLetter):
                f(AB, md)


def test_alphabet_degrees_must_be_ints_and_letters_well_formed():
    # A degree is an int, not a bool, a float, a string or missing, and is
    # taken mod 2.  Repeated letters and letters that are not single
    # characters are a FormatError, as in the CLI's alphabet spec.
    assert GradedAlphabet(("a", "b"), {"a": -1, "b": 4}).degrees == (1, 0)
    for d in (1.5, 2.7, True, "3", None):
        with pytest.raises(OutOfRange):
            GradedAlphabet(("a", "b"), {"a": d, "b": 0})
    with pytest.raises(OutOfRange):
        GradedAlphabet(("a", "b"), {"a": 1})
    for letters in (("a", "a"), ("a", "bc"), ("a", 1)):
        with pytest.raises(FormatError):
            GradedAlphabet(letters, {"a": 1, "bc": 0, 1: 0})


def _basis_elements(alphabet: GradedAlphabet, most: int) -> list:
    """(letters, degree, vector) for every word and square of at most most
    letters; squares are even."""
    out = []
    for md in itertools.product(range(most + 1), repeat=len(alphabet)):
        if 1 <= sum(md) <= most:
            degree = sum(c * d for c, d in zip(md, alphabet.degrees)) % 2
            for w in lyndon_words(alphabet, md):
                out.append((len(w), degree, basis_vector(w, alphabet)))
                if degree and 2 * len(w) <= most:
                    out.append((2 * len(w), 0,
                                basis_vector(w, alphabet, square=True)))
    return out


def _super_commutator(x: dict, y: dict, odd: bool) -> dict:
    """xy - (-1)^{|x||y|} yx for words keyed by strings; odd when both are."""
    out: dict = {}
    for u, c in x.items():
        for v, d in y.items():
            out[u + v] = out.get(u + v, 0) + c * d
            out[v + u] = out.get(v + u, 0) + (c * d if odd else -c * d)
    return {w: c for w, c in out.items() if c}


def test_every_basis_pair_brackets_as_in_the_envelope():
    # Words and squares, both orders, at most `most` letters between them:
    # the rewriting must agree with the super-commutator of the expansions.
    pairs = 0
    for alphabet, most in ((AB_ODD, 8), (AB, 8), (MIXED, 6)):
        elements = [(n, d, x, associative_expansion(x, alphabet))
                    for n, d, x in _basis_elements(alphabet, most - 1)]
        for (n, dx, x, ex), (m, dy, y, ey) in itertools.product(elements,
                                                                repeat=2):
            if n + m > most:
                continue
            assert associative_expansion(bracket(x, y), alphabet) == \
                _super_commutator(ex, ey, dx and dy), (x, y)
            pairs += 1
    assert pairs == 1554


def test_direct_products_compute_no_parity(monkeypatch):
    # [B(m), B(n)] needs the parity of a word only for its sign
    calls = []
    wdeg = lie._wdeg
    monkeypatch.setattr(lie, "_wdeg",
                        lambda degrees, w: calls.append(w) or wdeg(degrees, w))
    lie._bracket_words.cache_clear()
    word = "aababb"
    assert normalize(standard_bracketing(word, AB), AB) == \
        basis_vector(word, AB)
    assert calls == []
    # m > n: b is even, so the sign needs no parity of a
    assert normalize(("b", "a"), AB) == basis_vector("ab", AB).scale(-1)
    assert calls == [(1,)]


def test_normalize_idempotent_on_basis():
    for md in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (1, 4)]:
        for w in lyndon_words(AB, md):
            v = normalize(standard_bracketing(w, AB), AB)
            assert v == basis_vector(w, AB)


def test_bracket_examples():
    assert bracket(basis_vector("a", AB), basis_vector("b", AB)) == \
        basis_vector("ab", AB)
    # even-degree elements bracket to zero with themselves; odd-degree
    # elements square to the square basis element itself
    x = basis_vector("ab", AB)    # |ab| odd
    y = basis_vector("aab", AB)   # |aab| even
    assert bracket(y, y).is_zero()
    assert bracket(x, x) == basis_vector("ab", AB, square=True)


def test_triangularity():
    # [B(m), B(n)] = B(mn) + terms on strictly larger words, for all Lyndon
    # m < n with |mn| <= 6 (squares count as the doubled word)
    words = [AB.key(w) for total in range(1, 6)
             for i in range(total + 1)
             for w in lyndon_words(AB, (i, total - i))]
    for m in words:
        for n in words:
            if not (m < n and len(m) + len(n) <= 6):
                continue
            expansion = bracket(
                LieVector(AB, {("w", m): Fraction(1)}),
                LieVector(AB, {("w", n): Fraction(1)}))
            mn = m + n
            assert expansion.terms.get(("w", mn)) == 1, (m, n)
            for (kind, w), coeff in expansion.terms.items():
                word = w if kind == "w" else w + w
                assert word >= mn


def test_dimension_examples():
    for g in (2, 3, 4, 5, 6):
        assert dimension(AB, (1, g)) == 1
    for n in range(2, 8):
        letters = tuple("abcdefg"[:n])
        alpha = GradedAlphabet(letters, {c: 1 for c in letters})
        assert dimension(alpha, (1,) * n) == factorial(n - 1)
    single = GradedAlphabet(("a",), {"a": 1})
    assert dimension(single, (2,)) == 1     # the square of the letter
    assert dimension(single, (3,)) == 0


def _enumerated_dimension(alphabet, md):
    """Lyndon words of md plus those of the half multidegree when its
    squares enter the basis, each listed by the enumeration."""
    words = len(lyndon_words(alphabet, md))
    if all(c % 2 == 0 for c in md):
        half = tuple(c // 2 for c in md)
        if sum(c * d for c, d in zip(half, alphabet.degrees)) % 2:
            words += len(lyndon_words(alphabet, half))
    return words


def test_dimension_formula_matches_enumeration():
    for degrees in ((1, 0), (1, 1), (0, 0)):
        alpha = GradedAlphabet(("a", "b"), dict(zip("ab", degrees)))
        for total in range(1, 15):
            for i in range(total + 1):
                md = (i, total - i)
                assert dimension(alpha, md) == _enumerated_dimension(alpha, md)
    for total in range(1, 10):
        for md in itertools.product(range(total + 1), repeat=3):
            if sum(md) == total:
                assert dimension(MIXED, md) == _enumerated_dimension(MIXED, md)
    assert dimension(AB, (0, 0)) == 0
    assert dimension(AB, (13, 8)) == 9690
    big = dimension(AB, (200, 100))
    assert isinstance(big, int) and big > 0


def test_oracle_matches_dimensions_small():
    for total in range(1, MAX_ORACLE_TOTAL + 1):
        for i in range(total + 1):
            md = (i, total - i)
            assert oracle_component(AB, md).dimension == dimension(AB, md)
    for total in range(1, 7):
        for md in itertools.product(range(total + 1), repeat=3):
            if sum(md) == total:
                assert oracle_component(MIXED, md).dimension == \
                    dimension(MIXED, md)
    assert oracle_component(ODD3, (1, 1, 1)).dimension == 2
    four = GradedAlphabet(tuple("abcd"), {c: 1 for c in "abcd"})
    assert oracle_component(four, (1, 1, 1, 1)).dimension == 6
    for md in ((7, 6), (10 ** 9, 1), (0, 0)):
        with pytest.raises(TooLarge):
            oracle_component(AB, md)


def _every_bracketing(word):
    if len(word) == 1:
        yield word[0]
        return
    for i in range(1, len(word)):
        for left in _every_bracketing(word[:i]):
            for right in _every_bracketing(word[i:]):
                yield (left, right)


@pytest.mark.parametrize("alphabet, md", [
    *((AB, (i, total - i)) for total in range(1, 7) for i in range(total + 1)),
    (ODD3, (1, 1, 1)),
    (GradedAlphabet(tuple("abcd"), {c: 1 for c in "abcd"}), (1, 1, 1, 1)),
    (GradedAlphabet(tuple("abcd"), {"a": 1, "b": 0, "c": 1, "d": 0}),
     (1, 1, 1, 1)),
    (MIXED, (2, 1, 2)),
])
def test_oracle_spans_every_full_bracketing(alphabet, md):
    # the span built from smaller multidegrees equals the row space of every
    # full bracketing of every word, expanded and row-reduced one by one
    from hyperstrata.lie import (_IntEchelon, _assoc_expand,
                                 _multiset_permutations)

    brute = _IntEchelon()
    for word in _multiset_permutations(list(md)):
        for node in _every_bracketing(word):
            brute.insert(_assoc_expand(alphabet.degrees, node))
    orc = oracle_component(alphabet, md)
    built, = (cell.cell_contents for cell in orc.contains.__closure__
              if isinstance(cell.cell_contents, _IntEchelon))
    assert orc.dimension == built.rank == brute.rank
    assert not any(brute.reduce(row) for row in built.pivots.values())
    assert not any(built.reduce(row) for row in brute.pivots.values())


def test_oracle_membership_and_coordinates():
    orc = oracle_component(AB, (2, 2))
    assert orc.contains(basis_vector("aabb", AB))
    assert orc.contains(basis_vector("ab", AB, square=True))
    assert orc.contains((("a", "b"), ("b", "a")))


def test_normalize_matches_associative_expansion_random():
    rng = random.Random(20240118)

    def random_expr(leaves):
        if len(leaves) == 1:
            return leaves[0]
        k = rng.randint(1, len(leaves) - 1)
        return (random_expr(leaves[:k]), random_expr(leaves[k:]))

    for _ in range(100):
        total = rng.randint(2, 6)
        i = rng.randint(0, total)
        leaves = ["a"] * i + ["b"] * (total - i)
        rng.shuffle(leaves)
        expr = random_expr(leaves)
        vec = normalize(expr, AB)
        assert associative_expansion(expr, AB) == \
            associative_expansion(vec, AB)


# --------------------------------------------------------------------------
# Property tests.
# --------------------------------------------------------------------------

def _expr_strategy(alphabet: GradedAlphabet, max_leaves: int = 5):
    letter = st.sampled_from(alphabet.letters)
    return st.recursive(letter,
                        lambda children: st.tuples(children, children),
                        max_leaves=max_leaves)


def _degree(expr, alphabet) -> int:
    if isinstance(expr, str):
        return alphabet.degrees[alphabet.index(expr)]
    return (_degree(expr[0], alphabet) + _degree(expr[1], alphabet)) % 2


@settings(max_examples=150, deadline=None)
@given(x=_expr_strategy(AB), y=_expr_strategy(AB))
def test_super_antisymmetry(x, y):
    sign = -1 if (_degree(x, AB) and _degree(y, AB)) else 1
    lhs = normalize((x, y), AB)
    rhs = normalize((y, x), AB).scale(sign)
    assert (lhs + rhs).is_zero()


@settings(max_examples=100, deadline=None)
@given(a=_expr_strategy(AB, 3), b=_expr_strategy(AB, 3), c=_expr_strategy(AB, 3))
def test_super_jacobi(a, b, c):
    da, db, dc = (_degree(e, AB) for e in (a, b, c))

    def k(d1, d2):
        return -1 if (d1 and d2) else 1

    combo = [
        (k(da, dc), (a, (b, c))),
        (k(dc, db), (c, (a, b))),
        (k(db, da), (b, (c, a))),
    ]
    assert normalize(combo, AB).is_zero()


@settings(max_examples=100, deadline=None)
@given(x=_expr_strategy(ODD3, 4))
def test_normalize_faithful_in_envelope_odd_letters(x):
    vec = normalize(x, ODD3)
    assert associative_expansion(x, ODD3) == associative_expansion(vec, ODD3)
