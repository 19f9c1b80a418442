"""First-page spectral data and the nonvanishing certificate.

The weight-(l) piece of the top compactly-supported row over the star-tree
strata is modelled by the multidegree (2g-2l+1, l) component of the free Lie
superalgebra on one odd letter a and one even letter b.  The first-page
differential is computed in the companion model where both letters are odd:
there it is the odd derivation D with D b = -[a, a] and D a = 0.  Its
square is the derivation D^2 = [D, D]/2, which vanishes on both letters,
so D^2 = 0.  The a-degree of these components is odd, hence both models
share the same Lyndon words and coefficients transfer through the
word-indexed bases.  Being a derivation, D is determined on the Lyndon
basis by the standard factorization w = uv (Reutenauer, *Free Lie
Algebras*, 1993):

    D B(uv) = [D B(u), B(v)] + (-1)^len(u) [B(u), D B(v)].

Expanded letter by letter, D replaces one occurrence of b at a time by
[a, a] with the Koszul sign -(-1)^p of its 0-indexed position p.  On the
top generator B(ab^g) this gives the alternating sum over the g
occurrences of b with signs (-1)^(i-1).

The certificate for genus g checks, with witnesses: the top space is a line
spanned by B(ab^g); its differential is nonzero; applying the differential
twice gives zero; the receiving star stratum is a good tree with g-1 edges;
and no good tree has g edges, so nothing maps onto the receiving cell.
Together these exhibit a nonzero second-page class in bidegree
(-g+1, 2g-1).

Dimension tables for the full and good-tree first pages are orbit-weighted
sums over unnumbered stratum classes of one product over the vertex sizes
of each class: the compactly supported cohomology of the open strata.  A
stratum with k edges of the m-pointed space has dimension d = m - 3 - k and
puts its H^j_c in cell (p, q) = (-k, j + k).  Its open factors M_{0,n} have
Tate-type cohomology, pure of weight 2i in degree i (Getzler 1995), so its
point count is sum_j (-1)^j dim H^j_c q^(j-d).  Hence cell (p, q) carries
weight q - m + 3 and sign (-1)^(p+q), and the counting polynomial of the
compact space is the first page folded along these: its coefficient of
q^w is the sum of (-1)^(p+q) dim E1^{p,q} over the cells of weight w.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .errors import FailedCertificate, LevelZero, OutOfRange, TooLarge
from .lie import (
    GradedAlphabet,
    LieVector,
    _accumulate,
    _bracket_terms,
    _fraction_terms,
    _integer_terms,
    _std_split,
    dimension,
)
from .trees import (
    MAX_LEAVES,
    StratumClass,
    build_T_lg,
    good_classes,
    is_good,
    unnumbered_classes,
)

AB = GradedAlphabet(("a", "b"), {"a": 1, "b": 0})
# Sign model for the differential: with both letters odd it is an odd
# derivation (see the module docstring).
AB_ODD = GradedAlphabet(("a", "b"), {"a": 1, "b": 1})
_A = AB.index("a")
_B = AB.index("b")
# d1 derives every factor of the standard factorization of its words, and the
# top generator costs the most of its genus: d1(omega(g)) takes 0.1 s at
# g = 40, 0.6 s and 36 MB at g = 60, 1.9 s and 71 MB at g = 80 and 4.3 s and
# 134 MB at g = 100 on a shared 2-CPU machine.  Elements of a larger genus
# are refused before any Lie work.
MAX_D1_GENUS = 60


def _check_genus(g: int) -> None:
    if g > MAX_D1_GENUS:
        raise TooLarge(f"genus {g} exceeds {MAX_D1_GENUS}")


@dataclass(frozen=True)
class VSpaceElement:
    """An element of the level-l weight space for genus g: a Lie vector of
    multidegree (2g-2l+1, l) over {a odd, b even}."""

    g: int
    l: int
    vector: LieVector

    def __post_init__(self):
        if self.g < 2 or not 0 <= self.l <= self.g:
            raise OutOfRange(f"level {self.l} outside 0..{self.g}")
        _check_genus(self.g)
        expected = (2 * self.g - 2 * self.l + 1, self.l)
        md = self.vector.multidegree()
        if md is not None and md != expected:
            raise OutOfRange(f"multidegree {md}, expected {expected}")

    def is_zero(self) -> bool:
        return self.vector.is_zero()

    def __repr__(self) -> str:
        return f"VSpaceElement(g={self.g}, l={self.l}, {self.vector!r})"


def v_space_dimension(l: int, g: int) -> int:
    """dim of the level-l space: Lyndon count in multidegree (2g-2l+1, l)."""
    if g < 2 or not 0 <= l <= g:
        raise OutOfRange(f"level {l} outside 0..{g}")
    return dimension(AB, (2 * g - 2 * l + 1, l))


def omega(g: int) -> VSpaceElement:
    """The generator B(ab^g) of the one-dimensional top level."""
    if g < 2:
        raise OutOfRange("need g >= 2")
    _check_genus(g)
    word = (_A,) + (_B,) * g
    vec = LieVector(AB, {("w", word): Fraction(1)})
    return VSpaceElement(g, g, vec)


def d1(x: VSpaceElement) -> VSpaceElement:
    """The first-page differential B(w) -> D B(w), for the odd derivation D
    of the all-odd model (see the module docstring), computed over the
    standard factorization w = uv as
    D B(uv) = [D B(u), B(v)] + (-1)^len(u) [B(u), D B(v)]
    with integer coefficients, each factor derived once per call.  The
    input is taken over the common denominator of its coefficients, and
    each output coefficient is divided by it once."""
    if x.l == 0:
        raise LevelZero("no even letters left to substitute")
    degrees = AB_ODD.degrees
    # D a = 0 and D b = -[a, a], the square of the odd letter a.
    memo: dict = {(_A,): {}, (_B,): {("sq", (_A,)): -1}}

    def derive(w: tuple[int, ...]) -> dict:
        if w not in memo:
            u, v = _std_split(w)
            sign = -1 if len(u) % 2 else 1
            terms = _bracket_terms(degrees, derive(u), {("w", v): 1})
            _accumulate(terms, degrees, sign, ("w", u), derive(v).items())
            memo[w] = {k: c for k, c in terms.items() if c}
        return memo[w]

    coeffs, den = _integer_terms(x.vector.terms)
    acc: dict = {}
    for (kind, word), coeff in coeffs.items():
        if kind != "w":
            raise OutOfRange("square basis keys cannot occur at odd a-degree")
        for key, c in derive(word).items():
            acc[key] = acc.get(key, 0) + coeff * c
    image = LieVector(AB, _fraction_terms(acc, den))
    return VSpaceElement(x.g, x.l - 1, image)


@dataclass(frozen=True)
class LeadingTermReport:
    """Expansion of d1 applied to the top generator, with the expected
    leading coefficients on a^3 b^(g-1) and a^2 b a b^(g-2)."""

    g: int
    expansion: LieVector
    coefficient_a3: Fraction      # on a^3 b^(g-1)
    coefficient_a2bab: Fraction   # on a^2 b a b^(g-2)
    ok: bool


def verify_leading_terms(g: int) -> LeadingTermReport:
    """Check the closed-form leading behaviour of d1 on the top generator:
    coefficients (2, g-2) for even g and (0, g-1) for odd g, with every
    further term on a lexicographically greater Lyndon word; omega bounds g."""
    image = d1(omega(g)).vector
    key_a3 = (_A, _A, _A) + (_B,) * (g - 1)
    c_a3 = image.terms.get(("w", key_a3), Fraction(0))
    if g == 2:
        ok = dict(image.terms) == {("w", key_a3): Fraction(2)}
        return LeadingTermReport(g, image, c_a3, Fraction(0), ok)
    key_mid = (_A, _A, _B, _A) + (_B,) * (g - 2)
    c_mid = image.terms.get(("w", key_mid), Fraction(0))
    if g % 2 == 0:
        ok = c_a3 == 2 and c_mid == g - 2
    else:
        ok = c_a3 == 0 and c_mid == g - 1
    for (kind, w), c in image.terms.items():
        if kind != "w":
            ok = False
        elif w not in (key_a3, key_mid) and w <= key_mid:
            ok = False
        if c.denominator != 1:
            ok = False
    return LeadingTermReport(g, image, c_a3, c_mid, ok)


@dataclass(frozen=True)
class CertificateCheck:
    name: str
    passed: bool
    witness: str


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable evidence that the second page is nonzero in
    bidegree (-g+1, 2g-1), i.e. the compactly supported cohomology of the
    good-tree locus is nonzero in degree g.

    The paper's degree is 3g-2.  The hyperelliptic locus has complex
    dimension 2g-1, and for a local system L on a smooth orbifold X of
    dimension d, Poincare-Verdier duality gives H^k_c(X, L) = H^(2d-k)(X,
    L^v)^v; with d = 2g-1 and k = g, 2d - k = 3g-2.  This duality step, and
    the match of the good-tree spectral sequence with the paper's sheaf,
    are not checked here: the checks cover the combinatorial side only."""

    g: int
    omega: VSpaceElement
    d1_omega: VSpaceElement
    d1_d1_omega: VSpaceElement
    checks: tuple[CertificateCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def certify_nonvanishing(g: int) -> Certificate:
    """Run the five certificate checks; raise FailedCertificate (carrying
    the partial certificate) if any fails."""
    # First, so that good_classes refuses too large a g before any Lie work.
    offenders = good_classes(g, edge_count=g)
    w = omega(g)
    dw = d1(w)
    ddw = d1(dw)
    checks = []

    dim_top = v_space_dimension(g, g)
    checks.append(CertificateCheck(
        "top_level_is_a_line", dim_top == 1,
        f"dim of multidegree (1,{g}) component = {dim_top}"))

    checks.append(CertificateCheck(
        "d1_omega_nonzero", not dw.is_zero(),
        f"d1(omega_{g}) has {len(dw.vector.terms)} terms"))

    checks.append(CertificateCheck(
        "d1_d1_omega_zero", ddw.is_zero(),
        f"d1(d1(omega_{g})) has {len(ddw.vector.terms)} terms"))

    target = build_T_lg(g - 1, g)
    target_ok = is_good(target) and target.edge_count == g - 1
    checks.append(CertificateCheck(
        "target_stratum_good", target_ok,
        f"star tree at level {g - 1}: good={is_good(target)}, "
        f"edges={target.edge_count} (bound {g - 1})"))

    checks.append(CertificateCheck(
        "no_good_trees_with_g_edges", not offenders,
        f"exhaustive search found {len(offenders)} good trees "
        f"with {g} edges"))

    cert = Certificate(g, w, dw, ddw, tuple(checks))
    if not cert.passed:
        failed = [c.name for c in checks if not c.passed]
        raise FailedCertificate(f"checks failed: {', '.join(failed)}", cert)
    return cert


# --------------------------------------------------------------------------
# Betti numbers and dimension tables.
# --------------------------------------------------------------------------

def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def betti_m0n(n: int) -> list[int]:
    """Betti numbers of the moduli space of n distinct points on a line
    (n >= 3): coefficients of prod_{k=2}^{n-2} (1 + k t)."""
    if n < 3:
        raise OutOfRange("need n >= 3")
    poly = [1]
    for k in range(2, n - 1):
        poly = _poly_mul(poly, [1, k])
    return poly


def _hc_poly(k: int) -> list[int]:
    """Compactly supported Betti numbers of the open k-pointed stratum
    factor, as coefficients by degree: dim H^j_c = dim H^(2(k-3)-j)."""
    betti = betti_m0n(k)
    d = k - 3
    out = [0] * (2 * d + 1)
    for j in range(d, 2 * d + 1):
        out[j] = betti[2 * d - j]
    return out


@dataclass(frozen=True)
class SpectralCell:
    dimension: int
    strata: tuple[tuple[StratumClass, int], ...]  # (class, dim contributed)


@dataclass(frozen=True)
class SpectralTable:
    """Dimensions of first-page cells indexed by (p, q), with stratum
    provenance.  kind "E" is the full page for n-pointed rational curves;
    kind "F" restricts to good trees."""

    kind: str
    parameter: int
    cells: dict

    def dim(self, p: int, q: int) -> int:
        cell = self.cells.get((p, q))
        return cell.dimension if cell else 0

    def nonzero_cells(self) -> list[tuple[int, int, int]]:
        return sorted((p, q, c.dimension) for (p, q), c in self.cells.items())


def _table_from_classes(kind: str, parameter: int,
                        classes: list[StratumClass]) -> SpectralTable:
    cells: dict[tuple[int, int], dict] = {}
    # One product of _hc_poly(k) over the vertices, k the number of flags
    # at the vertex, per vertex profile.
    products: dict[tuple[int, ...], list[int]] = {}
    for cls in classes:
        profile = cls.profile()
        if profile not in products:
            products[profile] = reduce(_poly_mul, map(_hc_poly, profile), [1])
        k = cls.edge_count
        for j, coeff in enumerate(products[profile]):
            if not coeff:
                continue
            p, q = -k, j + k
            cell = cells.setdefault((p, q), {"dim": 0, "strata": []})
            contributed = cls.orbit_size * coeff
            cell["dim"] += contributed
            cell["strata"].append((cls, contributed))
    packed = {pq: SpectralCell(c["dim"], tuple(c["strata"]))
              for pq, c in cells.items()}
    return SpectralTable(kind, parameter, packed)


def e1_table(m: int) -> SpectralTable:
    """First page of the stratification spectral sequence for m-pointed
    rational curves: cell (p, q) collects degree p+q compactly supported
    cohomology over the numbered strata with -p edges."""
    if not 4 <= m <= MAX_LEAVES:
        raise OutOfRange(f"supported range is 4 <= m <= {MAX_LEAVES}")
    table = _table_from_classes("E", m, unnumbered_classes(m))
    for (p, q), cell in table.cells.items():
        if cell.dimension and q - p > 2 * (m - 3):
            raise OutOfRange(f"cell ({p},{q}) violates the weight bound")
    return table


def f1_table(g: int) -> SpectralTable:
    """Good-tree truncation of the first page for 2g+2 marked points.

    Nonzero cells are confined to 1-g <= p <= 0, 2g-1 <= q <= 4g-2, and
    vanish when p + q < g."""
    if g < 2:
        raise OutOfRange("need g >= 2")
    table = _table_from_classes("F", g, good_classes(g))
    for (p, q), cell in table.cells.items():
        if not cell.dimension:
            continue
        if not (1 - g <= p <= 0 and 2 * g - 1 <= q <= 4 * g - 2):
            raise OutOfRange(f"cell ({p},{q}) violates the good-tree bounds")
        if p + q < g:
            raise OutOfRange(f"cell ({p},{q}) below total degree {g}")
    return table


@dataclass(frozen=True)
class EPolyReport:
    """The counting polynomial of the compact m-pointed space, folded from
    the first page as the module docstring states; it must be palindromic
    with nonnegative coefficients and constant term 1."""

    m: int
    coefficients: tuple[int, ...]
    ok: bool


def stratification_epoly_check(m: int) -> EPolyReport:
    """Fold e1_table(m) into the counting polynomial of the compact space,
    with the signs and weights of the module docstring, and check
    positivity, palindromy, and constant term 1."""
    table = e1_table(m)
    total = [0] * (m - 2)
    for (p, q), cell in table.cells.items():
        total[q - m + 3] += (-1) ** (p + q) * cell.dimension
    while len(total) > 1 and total[-1] == 0:
        total.pop()
    coeffs = tuple(total)
    ok = (all(c >= 0 for c in coeffs)
          and coeffs == coeffs[::-1]
          and coeffs[0] == 1
          and len(coeffs) == m - 2)
    return EPolyReport(m, coeffs, ok)
