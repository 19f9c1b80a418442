"""Command-line surface.

Subcommands: enumerate, annotate, pushforward, lyndon, normalize, d1,
certify, tables, check.  Structured output is JSON (CSV for tables); all
output is deterministic.  Exit codes: 0 success, 1 failed certificate or
check, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from . import checks as checks_mod
from . import serialize as ser
from .covers import pushforward, pushforward_trace
from .errors import FailedCertificate, FormatError, HyperstrataError
from .graphs import NumberedGraph, genus
from .lie import _square_half, basis_vector, lyndon_words, normalize
from .spectral import (
    AB,
    certify_nonvanishing,
    d1,
    e1_table,
    f1_table,
    omega,
    VSpaceElement,
)
from .serialize import (
    dumps,
    graph_to_json,
    lie_vector_to_text,
    parse_alphabet,
    parse_bracket_expr,
    table_to_csv,
)
from .trees import (
    annotate,
    build_T_lg,
    enumerate_trees,
    unnumbered_classes,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        print(f"hint: run '{self.prog} --help' for flag descriptions",
              file=sys.stderr)
        sys.exit(2)


@contextmanager
def _output(out_path: str | None):
    """The --out file, open for writing, or stdout."""
    if not out_path:
        yield sys.stdout
        return
    with open(out_path, "w", encoding="utf-8") as fh:
        yield fh


def _emit(text: str, out_path: str | None) -> None:
    with _output(out_path) as fh:
        fh.write(text)


def _int_list(text: str, flag: str, count: int | None = None) -> list[int]:
    """The comma-separated integers of a flag value."""
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        values = []
    if not values or count not in (None, len(values)):
        size = "" if count is None else f"{count} "
        raise FormatError(f"{flag} takes {size}comma-separated integers, "
                          f"got {text!r}")
    return values


def _load_tree(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"{path} is not JSON: {exc}") from None
    tree = ser.graph_from_json(payload)
    if not isinstance(tree, NumberedGraph):
        raise HyperstrataError("input file must carry a leaf numbering")
    return tree


def _cmd_enumerate(args) -> int:
    orbits = args.orbits or args.good
    if orbits:
        classes = unnumbered_classes(args.n, args.edges,
                                     only_good=bool(args.good))
        items = ({
            "graph": graph_to_json(c.representative),
            "edge_count": c.edge_count,
            "orbit_size": c.orbit_size,
        } for c in classes)
    else:
        trees = enumerate_trees(args.n, args.edges)
        items = ({"graph": graph_to_json(t)} for t in trees)
    # Each class is serialized as it is written: n = 9 has 660,032 of them.
    payload = {"format": ser.FORMAT, "n": args.n, "orbits": orbits}
    with _output(args.out) as fh:
        ser.dump_listing(fh, payload, "classes", items)
    return 0


def _cmd_annotate(args) -> int:
    t = annotate(_load_tree(args.tree))
    _emit(dumps(ser.annotated_to_json(t)), args.out)
    return 0


def _cmd_pushforward(args) -> int:
    if args.tlg:
        t = build_T_lg(*_int_list(args.tlg, "--tlg", 2))
    elif args.tree:
        t = annotate(_load_tree(args.tree))
    else:
        raise HyperstrataError("pushforward needs --tree or --tlg")
    image = pushforward(t)
    trace = pushforward_trace(t, image)
    payload = graph_to_json(image)
    payload["graph_genus"] = genus(image)
    payload["trace"] = trace
    for line in trace:
        print(line, file=sys.stderr)
    _emit(dumps(payload), args.out)
    return 0


def _cmd_lyndon(args) -> int:
    alphabet = parse_alphabet(args.alphabet) if args.alphabet else AB
    md = tuple(_int_list(args.degree, "--degree"))
    lines = lyndon_words(alphabet, md)
    half = _square_half(alphabet, md)
    if half is not None:
        lines += [f"({w})^[2]" for w in lyndon_words(alphabet, half)]
    _emit("\n".join(lines) + f"\n# dimension {len(lines)}\n", args.out)
    return 0


def _cmd_normalize(args) -> int:
    alphabet = parse_alphabet(args.alphabet) if args.alphabet else AB
    expr = parse_bracket_expr(args.expr)
    vec = normalize(expr, alphabet)
    _emit(lie_vector_to_text(vec) + "\n", args.out)
    return 0


def _cmd_d1(args) -> int:
    # omega refuses a genus past spectral.MAX_D1_GENUS before any Lie work
    x = omega(args.genus)
    if args.word:
        x = VSpaceElement(x.g, args.word.count("b"),
                          basis_vector(args.word, AB))
    image = d1(x)
    _emit(lie_vector_to_text(image.vector) + "\n", args.out)
    return 0


def _cmd_certify(args) -> int:
    try:
        cert = certify_nonvanishing(args.genus)
        code = 0
    except FailedCertificate as exc:
        cert = exc.certificate
        code = 1
    log = [f"certificate for genus {cert.g}"]
    for c in cert.checks:
        log.append(f"  [{'ok' if c.passed else 'FAIL'}] {c.name}: {c.witness}")
    log.append(f"  conclusion: {'nonvanishing certified' if cert.passed else 'FAILED'}")
    print("\n".join(log), file=sys.stderr)
    _emit(dumps(ser.certificate_to_json(cert)), args.out)
    return code


def _cmd_tables(args) -> int:
    if args.kind == "e1":
        if args.n is None:
            raise HyperstrataError("tables --kind e1 needs --n")
        table = e1_table(args.n)
    else:
        if args.genus is None:
            raise HyperstrataError("tables --kind f1 needs --genus")
        table = f1_table(args.genus)
    _emit(table_to_csv(table), args.out)
    return 0


def _cmd_check(args) -> int:
    results = checks_mod.run_checks(args.level)
    width = max(len(r.name) for r in results)
    ok = True
    lines = []
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        ok = ok and r.ok
        lines.append(f"{status} {r.name:<{width}} {r.detail}")
        # Timings vary from run to run, so they stay off the results.
        print(f"{r.name:<{width}} {r.seconds:6.2f}s", file=sys.stderr)
    lines.append(f"{'PASS' if ok else 'FAIL'} overall: "
                 f"{sum(r.ok for r in results)}/{len(results)} checks")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="hyperstrata",
                     description="Exact combinatorics of stable-curve strata")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stable tree classes of type (0,n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--edges", type=int, default=None)
    p.add_argument("--orbits", action="store_true",
                   help="group into leaf-renumbering orbits")
    p.add_argument("--good", action="store_true",
                   help="only good trees (implies --orbits)")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("annotate", help="edge parities and vertex counts")
    p.add_argument("--tree", required=True, help="graph JSON file")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_annotate)

    p = sub.add_parser("pushforward",
                       help="stable dual graph of the double cover")
    p.add_argument("--tree", help="graph JSON file")
    p.add_argument("--tlg", help="star tree parameters 'l,g'")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_pushforward)

    p = sub.add_parser("lyndon", help="Lyndon basis of one multidegree")
    p.add_argument("--alphabet", help="e.g. a:odd,b:even (the default)")
    p.add_argument("--degree", required=True, help="letter counts, e.g. 3,2")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_lyndon)

    p = sub.add_parser("normalize", help="expand a bracket expression")
    p.add_argument("--expr", required=True, help='e.g. "[[a,b],[a,a]]"')
    p.add_argument("--alphabet", help="e.g. a:odd,b:even (the default)")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_normalize)

    p = sub.add_parser("d1", help="first-page differential")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--word", help="basis word (default: the top generator)")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_d1)

    p = sub.add_parser("certify", help="nonvanishing certificate")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("tables", help="first-page dimension tables (CSV)")
    p.add_argument("--kind", choices=("e1", "f1"), required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--genus", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_tables)

    p = sub.add_parser("check", help="run the invariant battery")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (HyperstrataError, OSError) as exc:
        print(f"hyperstrata: error: {exc}", file=sys.stderr)
        print("hint: see 'hyperstrata <command> --help' for usage",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
