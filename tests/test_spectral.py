from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import comb, factorial

import pytest

from hyperstrata.errors import LevelZero, OutOfRange, TooLarge
from hyperstrata.graphs import automorphism_count
from hyperstrata.lie import (LieVector, associative_expansion, basis_vector,
                             lyndon_words, normalize, standard_bracketing)
from hyperstrata.serialize import table_to_csv
from hyperstrata.spectral import (
    AB,
    AB_ODD,
    MAX_D1_GENUS,
    Certificate,
    VSpaceElement,
    _poly_mul,
    _table_from_classes,
    betti_m0n,
    certify_nonvanishing,
    d1,
    e1_table,
    f1_table,
    omega,
    stratification_epoly_check,
    v_space_dimension,
    verify_leading_terms,
)
from hyperstrata.trees import build_T_lg, is_good, unnumbered_classes


def test_omega():
    w2 = omega(2)
    assert w2.l == 2 and w2.vector == basis_vector("abb", AB)
    assert v_space_dimension(2, 2) == 1
    for g in (2, 3, 4, 5, 6, 7, 8):
        assert v_space_dimension(g, g) == 1
    with pytest.raises(OutOfRange):
        omega(1)


def test_d1_base_cases_exact():
    assert d1(omega(2)).vector == basis_vector("aaab", AB).scale(2)
    assert d1(omega(3)).vector == basis_vector("aabab", AB).scale(2)


def test_d1_multidegree_shift():
    x = d1(omega(4))
    assert x.l == 3 and x.vector.multidegree() == (3, 3)
    bottom = d1(d1(omega(2)))     # level 0, necessarily zero
    assert bottom.l == 0 and bottom.is_zero()
    with pytest.raises(LevelZero):
        d1(bottom)


def test_d1_squares_to_zero_on_all_components():
    for g in range(2, 9):
        for l in range(2, g + 1):
            md = (2 * g - 2 * l + 1, l)
            for w in lyndon_words(AB, md):
                x = VSpaceElement(g, l, basis_vector(w, AB))
                assert d1(d1(x)).is_zero(), (g, l, w)
    assert d1(d1(omega(40))).is_zero()


def _replace_leaf(expr, target: int):
    """expr with its target-th leaf (left to right) replaced by [a, a]."""
    leaves = count()

    def walk(node):
        if isinstance(node, str):
            return ("a", "a") if next(leaves) == target else node
        return (walk(node[0]), walk(node[1]))

    return walk(expr)


def test_d1_matches_the_substitution_definition():
    # Independent of the derivation: substitute [a, a] for one b at a time
    # in the standard bracketing, sign -(-1)^p, normalize in the odd model.
    words = 0
    for g in range(2, 9):
        for l in range(1, g + 1):
            for w in lyndon_words(AB, (2 * g - 2 * l + 1, l)):
                tree = standard_bracketing(w, AB)
                expected = normalize([(-(-1) ** p, _replace_leaf(tree, p))
                                      for p, x in enumerate(w) if x == "b"],
                                     AB_ODD)
                got = d1(VSpaceElement(g, l, basis_vector(w, AB))).vector
                assert got.terms == expected.terms, (g, l, w)
                words += 1
    assert words == 372


def test_d1_matches_the_associative_route():
    # No Lyndon rewriting on this side: in the all-odd envelope omega(g) is
    # [...[a, b], ..., b], and D sends the b at 0-indexed position p of a
    # word to -2aa with sign (-1)^p.
    for g in (*range(2, 19), 20, 24):
        top = {"a": 1}
        for k in range(1, g + 1):
            sign = 1 if k % 2 else -1     # -(-1)^{|x||b|}, x has k letters
            nxt: dict = {}
            for w, c in top.items():
                nxt[w + "b"] = nxt.get(w + "b", 0) + c
                nxt["b" + w] = nxt.get("b" + w, 0) + sign * c
            top = {w: c for w, c in nxt.items() if c}
        expected: dict = {}
        for w, c in top.items():
            for p, x in enumerate(w):
                if x == "b":
                    v = w[:p] + "aa" + w[p + 1:]
                    expected[v] = expected.get(v, 0) - 2 * (-1) ** p * c
        image = LieVector(AB_ODD, d1(omega(g)).vector.terms)
        assert associative_expansion(image, AB_ODD) == \
            {w: c for w, c in expected.items() if c}, g


def test_d1_takes_rational_coefficients():
    # The term-by-term reference: sum of c_i d1(B(w_i)), built with
    # LieVector.scale and +.  Mixed denominators and signs, so that a common
    # denominator that is dropped or applied twice changes the image.
    g, l = 4, 2
    words = lyndon_words(AB, (2 * g - 2 * l + 1, l))
    coeffs = (Fraction(1, 3), Fraction(-2, 5), Fraction(7, 6))
    assert len(words) == len(coeffs)
    x, expected = LieVector(AB, {}), LieVector(AB, {})
    for c, w in zip(coeffs, words):
        b = basis_vector(w, AB)
        x = x + b.scale(c)
        expected = expected + d1(VSpaceElement(g, l, b)).vector.scale(c)
    got = d1(VSpaceElement(g, l, x)).vector
    assert got == expected
    assert any(c.denominator > 1 for c in got.terms.values())
    assert d1(VSpaceElement(g, l, x.scale(Fraction(-9, 4)))).vector == \
        expected.scale(Fraction(-9, 4))


def test_leading_terms_follow_parity_split():
    for g in range(2, 9):
        rep = verify_leading_terms(g)
        assert rep.ok
        if g == 2:
            assert dict(rep.expansion.terms) == \
                {("w", AB.key("aaab")): Fraction(2)}
        elif g % 2 == 0:
            assert rep.coefficient_a3 == 2
            assert rep.coefficient_a2bab == g - 2
        else:
            assert rep.coefficient_a3 == 0
            assert rep.coefficient_a2bab == g - 1
        assert all(c.denominator == 1 for c in rep.expansion.terms.values())


def test_leading_terms_specific_values():
    g4 = verify_leading_terms(4)
    assert g4.coefficient_a3 == 2 and g4.coefficient_a2bab == 2
    g5 = verify_leading_terms(5)
    assert g5.coefficient_a3 == 0 and g5.coefficient_a2bab == 4


def test_leading_terms_at_large_genus():
    for g in (16, 24):
        rep = verify_leading_terms(g)
        assert rep.ok, g
        assert rep.coefficient_a3 == 2 and rep.coefficient_a2bab == g - 2
    assert verify_leading_terms(40).ok


def test_leading_terms_run_to_omegas_bound():
    # omega's bounds are the only ones: the law holds at MAX_D1_GENUS = 60.
    rep = verify_leading_terms(MAX_D1_GENUS)
    assert rep.ok and rep.coefficient_a2bab == MAX_D1_GENUS - 2
    with pytest.raises(TooLarge):
        verify_leading_terms(MAX_D1_GENUS + 1)
    with pytest.raises(OutOfRange):
        verify_leading_terms(1)


def test_certificate_structure():
    cert = certify_nonvanishing(2)
    assert isinstance(cert, Certificate) and cert.passed
    assert cert.d1_omega.vector == basis_vector("aaab", AB).scale(2)
    assert cert.d1_d1_omega.is_zero()
    names = [c.name for c in cert.checks]
    assert names == ["top_level_is_a_line", "d1_omega_nonzero",
                     "d1_d1_omega_zero", "target_stratum_good",
                     "no_good_trees_with_g_edges"]
    cert3 = certify_nonvanishing(3)
    assert cert3.d1_omega.vector == basis_vector("aabab", AB).scale(2)
    with pytest.raises(OutOfRange):
        certify_nonvanishing(1)


def test_betti_numbers():
    assert betti_m0n(3) == [1]
    assert betti_m0n(4) == [1, 2]
    assert betti_m0n(5) == [1, 5, 6]
    for n in range(3, 10):
        assert betti_m0n(n)[-1] == factorial(n - 2)
        assert betti_m0n(n)[0] == 1
    # at t = 1 the product of the (1 + k t) is (n-1)!/2; n runs to 22, as
    # f1_table(10) needs
    for n in range(3, 23):
        assert sum(betti_m0n(n)) == factorial(n - 1) // 2


def test_e1_table_four_points():
    # thrice-punctured sphere: H^0 = 1, H^1 = 2, so compact supports give
    # H^1_c = 2 and H^2_c = 1; the three boundary points sit in cell (-1, 1)
    table = e1_table(4)
    assert table.nonzero_cells() == [(-1, 1, 3), (0, 1, 2), (0, 2, 1)]


def test_e1_weight_bound_and_corner():
    for m in (4, 5, 6, 7):
        table = e1_table(m)
        for p, q, dim in table.nonzero_cells():
            assert q - p <= 2 * (m - 3)
            assert q >= m - 3
        # the most degenerate strata are points; their count fills the
        # corner cell (p, q) = (-(m-3), m-3)
        from hyperstrata.trees import enumerate_trees
        corner = table.dim(-(m - 3), m - 3)
        assert corner == len(enumerate_trees(m, m - 3))
    with pytest.raises(OutOfRange):
        e1_table(3)


def _keel(m: int) -> tuple[int, ...]:
    """The Betti numbers b_0, b_2, ... of the compact m-pointed space, as the
    coefficients of Keel's polynomial (Trans. AMS 330, 1992): P_3 = 1,
    P_{n+1} = (1 + q) P_n + (q/2) sum_{j=2}^{n-2} C(n, j) P_{j+1} P_{n-j+1}."""
    polys = {3: [1]}
    for n in range(3, m):
        pairs = [0] * (n - 3)
        for j in range(2, n - 1):
            for i, c in enumerate(_poly_mul(polys[j + 1], polys[n - j + 1])):
                pairs[i] += comb(n, j) * c
        nxt = _poly_mul([1, 1], polys[n])
        for i, c in enumerate(pairs):
            nxt[i + 1] += c // 2  # exact: the sum is symmetric in j, n - j
        polys[n + 1] = nxt
    return tuple(polys[m])


def _assert_page_matches_keel(m: int) -> None:
    # The folded polynomial is Keel's, and row q = m-3+k of the first page
    # has alternating sum (-1)^q b_2k along p (signs and weights in the
    # spectral module docstring).
    keel = _keel(m)
    assert stratification_epoly_check(m).coefficients == keel, m
    table = e1_table(m)
    for k in range(m - 2):
        q = m - 3 + k
        total = sum((-1) ** p * table.dim(p, q) for p in range(-(m - 3), 1))
        assert total == (-1) ** q * keel[k], (m, k)


def test_e1_euler_characteristic_matches_epoly():
    for m in range(4, 11):
        _assert_page_matches_keel(m)


def test_e1_table_to_max_leaves():
    # the same comparison at the sizes the table reaches beyond m = 10; one
    # leaf more is out of range
    for m in (11, 12):
        _assert_page_matches_keel(m)
    with pytest.raises(OutOfRange):
        e1_table(13)


def test_f1_tables_respect_bounds():
    for g in (2, 3, 4):
        table = f1_table(g)
        cells = table.nonzero_cells()
        assert cells
        for p, q, dim in cells:
            assert 1 - g <= p <= 0
            assert 2 * g - 1 <= q <= 4 * g - 2
            assert p + q >= g
    with pytest.raises(OutOfRange):
        f1_table(11)


def test_f1_table_five_matches_the_unpruned_classes():
    # The pruned good-class search against a filter over all (0, 12)
    # classes, which prunes nothing.
    good = [c for c in unnumbered_classes(12) if is_good(c.annotated())]
    assert table_to_csv(f1_table(5)) == \
        table_to_csv(_table_from_classes("F", 5, good))


def test_f1_two_realizes_both_p_columns():
    table = f1_table(2)
    ps = {p for p, q, d in table.nonzero_cells()}
    assert ps == {-1, 0}
    # the good one-edge classes of type (0,6) are the 2|4 and 3|3 splits,
    # with orbits 15 and 10; cell (-1, 3) collects their bottom compact
    # degrees: 15*6 + 10*4
    assert table.dim(-1, 3) == 130


def test_epoly_known_values():
    assert stratification_epoly_check(4).coefficients == (1, 1)
    assert stratification_epoly_check(5).coefficients == (1, 5, 1)
    assert stratification_epoly_check(6).coefficients == (1, 16, 16, 1)
    assert stratification_epoly_check(7).coefficients == (1, 42, 127, 42, 1)
    assert stratification_epoly_check(8).coefficients == (
        1, 99, 715, 715, 99, 1)
    for m in range(4, 13):
        rep = stratification_epoly_check(m)
        assert rep.ok
        assert rep.coefficients == rep.coefficients[::-1]
        assert rep.coefficients[0] == 1
        assert len(rep.coefficients) == m - 2
    for m in (3, 13):
        with pytest.raises(OutOfRange):
            stratification_epoly_check(m)


def test_epoly_matches_the_numbered_strata():
    # Independent slow route: one product of point counts per numbered
    # stratum, |M_{0,k}| = prod_{j=2}^{k-2} (q - j) at each vertex.
    from hyperstrata.trees import enumerate_trees

    def times_linear(poly, root):
        out = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            out[i] -= root * c
            out[i + 1] += c
        return out

    for m in (4, 5, 6, 7):
        total = [0] * (m - 2)
        for tree in enumerate_trees(m):
            poly = [1]
            for part in tree.graph.vertices:
                for j in range(2, len(part) - 1):
                    poly = times_linear(poly, j)
            for i, c in enumerate(poly):
                total[i] += c
        assert tuple(total) == stratification_epoly_check(m).coefficients, m


def test_star_tree_automorphism_orders():
    for g in range(2, 5):
        for l in range(0, g + 1):
            t = build_T_lg(l, g)
            root = next(f for f, n in t.tree.numbering.items()
                        if n == 2 * g + 2)
            expected = factorial(2 * g - 2 * l + 1) * factorial(l) * 2 ** l
            assert automorphism_count(t.graph, [root]) == expected


def test_v_space_rows_beyond_the_enumeration():
    assert [v_space_dimension(l, 10) for l in range(11)] == [
        0, 1, 9, 45, 140, 273, 333, 245, 99, 18, 1]
    # The row is part of the free resolution (Lie(a, b), D b = -[a, a]) of a
    # one-dimensional algebra, so it is exact: its Euler characteristic is 0.
    for g in range(2, 81):
        assert sum((-1) ** l * v_space_dimension(l, g)
                   for l in range(g + 1)) == 0
