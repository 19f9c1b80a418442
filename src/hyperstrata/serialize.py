"""JSON, text, and CSV codecs.

Every structured payload carries ``format: 1``.  Canonical serialization
sorts all arrays, so equal graphs produce byte-identical files.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import FormatError, NotLyndon, TooLarge, UnknownLetter
from .graphs import Graph, NumberedGraph, _edge_pairs
from .lie import MAX_EXPR_LETTERS, GradedAlphabet, LieVector, basis_vector
from .spectral import Certificate, SpectralTable
from .trees import AnnotatedTree, annotate

FORMAT = 1


def _sorted_vertex_order(g: Graph) -> list[int]:
    return sorted(range(len(g.vertices)), key=g.vertices.__getitem__)


def graph_to_json(g) -> dict:
    numbered = isinstance(g, NumberedGraph)
    graph = g.graph if numbered else g
    order = _sorted_vertex_order(graph)
    payload = {
        "format": FORMAT,
        "flags": sorted(graph.sigma),
        "involution": [[a, b] for a, b in _edge_pairs(graph)],
        "vertices": [list(graph.vertices[i]) for i in order],
        "genus": [graph.genus_labels[i] for i in order],
    }
    if numbered:
        payload["leaf_numbering"] = {str(f): n
                                     for f, n in sorted(g.numbering.items())}
    return payload


def _ints(values, what: str) -> list[int]:
    """values, if it is a list of JSON integers (no bools or floats)."""
    if type(values) is not list or any(type(x) is not int for x in values):
        raise FormatError(f"{what} must be a list of integers")
    return values


def graph_from_json(payload: dict):
    """Read graph_to_json's form, repairing nothing: numbers are JSON ints,
    flags unique and paired only with flags, numbering keys decimal."""
    if not isinstance(payload, dict):
        raise FormatError("a graph payload is a JSON object, not "
                          f"{type(payload).__name__}")
    try:
        fmt = payload.get("format")
        if type(fmt) is not int or fmt != FORMAT:
            raise FormatError(f"unsupported format {fmt!r}")
        flags = _ints(payload["flags"], "flags")
        sigma = dict(zip(flags, flags))
        for pair in payload["involution"]:
            a, b = _ints(pair, "an involution pair")
            sigma[a], sigma[b] = b, a
        vertices = [_ints(p, "a vertex part") for p in payload["vertices"]]
        genus_labels = _ints(payload["genus"], "genus labels")
        numbering = payload.get("leaf_numbering", {})
        _ints(list(numbering.values()), "leaf numbers")
        if any(str(int(f)) != f for f in numbering):
            raise FormatError("leaf numbering keys must be decimal flags")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed graph payload: {exc}") from exc
    graph = Graph(flags, sigma, vertices, genus_labels)
    # The constructor drops a repeated flag and a pair off the flags.
    if {len(flags), len(sigma), sum(map(len, vertices))} != {len(graph.sigma)}:
        raise FormatError("a flag is repeated, or paired but not in flags")
    if "leaf_numbering" in payload:
        return NumberedGraph(graph, numbering)
    return graph


def annotated_to_json(t: AnnotatedTree) -> dict:
    payload = graph_to_json(t.tree)
    order = _sorted_vertex_order(t.graph)
    payload["parity"] = {str(i): x for i, x in enumerate(t.parity)}
    payload["rho"] = [t.rho[i] for i in order]
    payload["nu"] = [t.nu[i] for i in order]
    payload["internal"] = [t.nu[i] > 1 for i in order]
    return payload


def annotated_from_json(payload: dict) -> AnnotatedTree:
    tree = graph_from_json(payload)
    if not isinstance(tree, NumberedGraph):
        raise FormatError("annotated trees need a leaf numbering")
    t = annotate(tree)
    check = annotated_to_json(t)
    for field in ("parity", "rho", "nu", "internal"):
        if field in payload and payload[field] != check[field]:
            raise FormatError(f"stored {field} disagrees with the tree")
    return t


def _coeff_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def lie_vector_to_text(v: LieVector) -> str:
    """Terms ``c·w`` (squares as ``c·(w)^[2]``) sorted by key, joined by
    spaces; the zero vector prints as ``0``."""
    if v.is_zero():
        return "0"
    bits = []
    for (kind, w), c in v.items():
        word = v.alphabet.text(w)
        body = word if kind == "w" else f"({word})^[2]"
        bits.append(f"{_coeff_str(c)}·{body}")
    return " ".join(bits)


def lie_vector_from_text(text: str, alphabet: GradedAlphabet) -> LieVector:
    """Read lie_vector_to_text's form; basis_vector builds each term, so
    an unknown letter, a non-Lyndon word or an even square is refused."""
    text = text.strip()
    if text == "0":
        return LieVector(alphabet, {})
    terms = {}
    for piece in text.split():
        try:
            coeff_s, body = piece.split("·", 1)
            square = body.startswith("(") and body.endswith(")^[2]")
            key, = basis_vector(body[1:-5] if square else body, alphabet,
                                square).terms
            coeff = Fraction(coeff_s)
        except (NotLyndon, UnknownLetter, ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad term {piece!r}: {exc}") from None
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return LieVector(alphabet, terms)


def parse_bracket_expr(text: str):
    """Parse ``[[a,b],[a,a]]`` into nested pairs of letters.  The parser
    recurses once per bracket, so more than ``lie.MAX_EXPR_LETTERS`` - 1
    brackets raise TooLarge before it starts."""
    pos = [0]
    s = text.strip()
    if s.count("[") >= MAX_EXPR_LETTERS:
        raise TooLarge(f"a bracket expression of {s.count('[') + 1} letters "
                       f"exceeds {MAX_EXPR_LETTERS}")

    def parse():
        if pos[0] >= len(s):
            raise FormatError("unexpected end of expression")
        ch = s[pos[0]]
        if ch == "[":
            pos[0] += 1
            left = parse()
            if pos[0] >= len(s) or s[pos[0]] != ",":
                raise FormatError(f"expected ',' at offset {pos[0]}")
            pos[0] += 1
            right = parse()
            if pos[0] >= len(s) or s[pos[0]] != "]":
                raise FormatError(f"expected ']' at offset {pos[0]}")
            pos[0] += 1
            return (left, right)
        if ch.isalnum():
            pos[0] += 1
            return ch
        raise FormatError(f"unexpected character {ch!r} at offset {pos[0]}")

    expr = parse()
    if pos[0] != len(s):
        raise FormatError(f"trailing input at offset {pos[0]}")
    return expr


def parse_alphabet(spec: str) -> GradedAlphabet:
    """Parse ``a:odd,b:even`` into a graded alphabet (order as listed)."""
    letters, degree = [], {}
    for item in spec.split(","):
        if ":" not in item:
            raise FormatError(f"bad alphabet item {item!r}")
        name, par = item.split(":", 1)
        name = name.strip()
        par = par.strip().lower()
        if par not in ("odd", "even", "0", "1"):
            raise FormatError(f"bad parity {par!r}")
        letters.append(name)
        degree[name] = 1 if par in ("odd", "1") else 0
    try:
        return GradedAlphabet(tuple(letters), degree)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def table_to_csv(table: SpectralTable) -> str:
    lines = ["p,q,dim,strata"]
    for (p, q) in sorted(table.cells):
        cell = table.cells[(p, q)]
        strata = ";".join(
            f"{cls.orbit_size}x[{'+'.join(map(str, cls.profile()))}]={contrib}"
            for cls, contrib in sorted(
                cell.strata, key=lambda t: (t[0].canonical_key,)))
        lines.append(f"{p},{q},{cell.dimension},{strata}")
    return "\n".join(lines) + "\n"


def certificate_to_json(cert: Certificate) -> dict:
    named = {c.name: c for c in cert.checks}
    return {
        "format": FORMAT,
        "genus": cert.g,
        "omega": lie_vector_to_text(cert.omega.vector),
        "d1_omega": lie_vector_to_text(cert.d1_omega.vector),
        "d1d1_zero": cert.d1_d1_omega.is_zero(),
        "leading_terms": {
            "a3_power": _coeff_str(cert.d1_omega.vector.coefficient(
                "aaa" + "b" * (cert.g - 1))),
            "a2bab_power": _coeff_str(cert.d1_omega.vector.coefficient(
                "aab" + "a" + "b" * (cert.g - 2))) if cert.g >= 3 else "0",
        },
        "good_stratum_check": named["target_stratum_good"].passed,
        "f1_cell_empty": named["no_good_trees_with_g_edges"].passed,
        "checks": [{"name": c.name, "passed": c.passed, "witness": c.witness}
                   for c in cert.checks],
        "passed": cert.passed,
    }


def dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def dump_listing(out, payload: dict, key: str, items) -> None:
    """Write ``dumps(payload | {key: list(items)})`` to out, making and
    writing one item at a time, so the list is never held whole.  payload
    must be nonempty, and key must sort before each of its keys."""
    out.write(f"{{\n  {json.dumps(key)}: [")
    sep = "\n"
    for item in items:
        text = json.dumps(item, indent=2, sort_keys=True)
        out.write(sep + "    " + text.replace("\n", "\n    "))
        sep = ",\n"
    out.write("]," if sep == "\n" else "\n  ],")
    out.write(json.dumps(payload, indent=2, sort_keys=True)[1:] + "\n")
