"""The benchmark workloads.

Each workload is three functions: ``setup(rng)`` builds the seeded inputs as
plain data, ``run(inputs, tracer)`` is the timed job list, and
``check(inputs, out, checker)`` checks every output.  The seed drives flag
relabellings, sample choice, random bracket expressions and random
differential inputs; the library sees only the generated inputs.

Why these three (see README.md for the layer map):

* numbered-sweep: one large uniform batch over the numbered-tree route and
  the tree path of the graph kernel, memory-heavy; never calls ``lie``.
* strata-battery: many small distinct jobs (class generation, good-tree
  pruning, the multigraph search on interchangeable pendants, tables,
  certificates, the ``check --level full`` battery, the CLI, random Lie
  rewriting with little cache reuse).
* differential-row: a deep chain of differentials with heavy cache reuse;
  never calls ``graphs``, ``trees`` or ``covers``.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from math import factorial
from typing import Callable, NamedTuple

from hyperstrata import (
    AB,
    GradedAlphabet,
    Graph,
    LieVector,
    NumberedGraph,
    VSpaceElement,
    annotate,
    automorphism_count,
    bracket,
    canonical_form,
    certify_nonvanishing,
    d1,
    dimension,
    e1_table,
    enumerate_trees,
    f1_table,
    genus,
    good_classes,
    is_good,
    is_stable,
    node_bound_report,
    normalize,
    omega,
    pushforward,
    stratification_epoly_check,
    unnumbered_classes,
    verify_injectivity,
    verify_leading_terms,
)
from hyperstrata import checks as checks_mod
from hyperstrata import cli
from hyperstrata.serialize import (
    certificate_to_json,
    dumps,
    graph_from_json,
    graph_to_json,
    table_to_csv,
)

# Relabelling permutations act on flag ranks and vertex positions; every
# graph the workloads relabel has fewer flags than this.
FLAG_SPACE = 64


def _perm(rng) -> list[int]:
    p = list(range(FLAG_SPACE))
    rng.shuffle(p)
    return p


def relabel(g: Graph, perm: list[int]) -> Graph:
    """An isomorphic copy with flags renamed and vertices reordered."""
    new = {f: perm[i] + 1 for i, f in enumerate(sorted(g.flags))}
    order = sorted(range(len(g.vertices)), key=perm.__getitem__)
    return Graph(new.values(), {new[f]: new[p] for f, p in g.sigma.items()},
                 [[new[f] for f in g.vertices[i]] for i in order],
                 [g.genus_labels[i] for i in order])


def canon(tr, g: Graph) -> bytes:
    """canonical_form of a connected graph, traced by the path it takes
    (the library dispatches on the first Betti number)."""
    if len(g.edges) == len(g.vertices) - 1:
        return tr.call("graphs.canonical_form_tree", canonical_form, g)
    key = tr.call("graphs.canonical_form_multigraph", canonical_form, g)
    tr.see("graphs.canonical_form_multigraph", key)
    return key


def image_ok(img: Graph, g: int) -> bool:
    """The image of a (0, 2g+2) tree: genus g, stable, no leaves."""
    return genus(img) == g and is_stable(img) and not img.leaves


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def graph_text(g: Graph) -> str:
    return dumps(graph_to_json(g))


def certificate_text(cert) -> str:
    return dumps(certificate_to_json(cert))


# --------------------------------------------------------------------------
# numbered-sweep: every numbered (0, 8) tree through annotate and
# pushforward, cross-checked against the unnumbered classes; seeded samples
# through the tree and multigraph paths of canonical_form.
# --------------------------------------------------------------------------

SWEEP_N = 8
SWEEP_TREES = 39208   # numbered (0, 8) classes; samples index into them
SWEEP_SAMPLE = 1000


def sweep_setup(rng) -> dict:
    return {
        "tree_sample": rng.sample(range(SWEEP_TREES), SWEEP_SAMPLE),
        "tree_perms": [_perm(rng) for _ in range(SWEEP_SAMPLE)],
        "image_sample": rng.sample(range(SWEEP_TREES), SWEEP_SAMPLE),
        "image_perms": [_perm(rng) for _ in range(SWEEP_SAMPLE)],
    }


def sweep_run(inp: dict, tr) -> dict:
    with tr.span("bench.enumerate"):
        trees = tr.call("trees.enumerate_trees", enumerate_trees, SWEEP_N)
        tr.add("trees.enumerate_trees_items", len(trees))
    with tr.span("bench.annotate_pushforward"):
        annotated = [tr.call("trees.annotate", annotate, t) for t in trees]
        images = [tr.call("covers.pushforward", pushforward, a)
                  for a in annotated]
    with tr.span("bench.orbits"):
        classes = tr.call("trees.unnumbered_classes", unnumbered_classes,
                          SWEEP_N)
        tr.add("trees.unnumbered_classes_items", len(classes))
        class_images = [tr.call("covers.pushforward", pushforward,
                                tr.call("trees.annotate", annotate,
                                        c.representative)) for c in classes]
        class_image_forms = [canon(tr, img) for img in class_images]
        class_image_auts = [tr.call("graphs.automorphism_count",
                                    automorphism_count, img)
                            for img in class_images]
    with tr.span("bench.relabel"):
        tree_forms = [(canon(tr, trees[i].graph),
                       canon(tr, relabel(trees[i].graph, p)))
                      for i, p in zip(inp["tree_sample"], inp["tree_perms"])]
        image_forms = [(canon(tr, images[i]), canon(tr, relabel(images[i], p)))
                       for i, p in zip(inp["image_sample"], inp["image_perms"])]
    with tr.span("bench.serialize"):
        texts = [tr.call("serialize.graph_to_json", graph_text, images[i])
                 for i in inp["image_sample"]]
        tr.add("serialize.graph_to_json_bytes", sum(map(len, texts)))
    return {"trees": trees, "annotated": annotated, "images": images,
            "classes": classes, "class_images": class_images,
            "class_image_forms": class_image_forms,
            "class_image_auts": class_image_auts, "tree_forms": tree_forms,
            "image_forms": image_forms, "texts": texts}


def sweep_check(inp: dict, out: dict, chk) -> None:
    g = SWEEP_N // 2 - 1
    good = sum(1 for a in out["annotated"] if is_good(a))
    chk.golden("numbered-sweep/trees_and_good", [len(out["trees"]), good], 1)
    for img in out["images"] + out["class_images"]:
        chk.expect(image_ok(img, g), 2, "annotate+pushforward image")

    classes = out["classes"]
    chk.expect(sum(c.orbit_size for c in classes) == len(out["trees"]), 1,
               "orbit sizes of the unnumbered classes sum to the tree count")
    image_forms = set(out["class_image_forms"])
    chk.expect(len(image_forms) == len(classes), len(classes),
               "distinct classes have distinct images")
    chk.golden("numbered-sweep/orbit_sizes_and_image_auts",
               sorted([c.orbit_size, a] for c, a in zip(classes,
                                                        out["class_image_auts"])),
               len(classes))

    class_keys = {c.canonical_key for c in classes}
    for i, (f, rf) in zip(inp["tree_sample"], out["tree_forms"]):
        chk.expect(f == rf and f in class_keys, 2,
                   f"tree {i}: canonical form relabelled, and its class")
    for i, (f, rf), text in zip(inp["image_sample"], out["image_forms"],
                                out["texts"]):
        chk.expect(f == rf and f in image_forms, 2,
                   f"image {i}: canonical form relabelled, and its class")
        back = canonical_form(graph_from_json(json.loads(text)))
        chk.expect(back == f, 1, f"image {i} JSON round trip")


# --------------------------------------------------------------------------
# strata-battery: many small distinct jobs, shaped like `check --level
# full` and the acceptance suite.
# --------------------------------------------------------------------------

RELABEL_POOL = 97            # seeded permutations shared by the class images
PENDANTS = range(4, 9)
LIE_ABC = GradedAlphabet(("a", "b", "c"), {"a": 1, "b": 0, "c": 1})
LIE_EXPRS = 400              # random [l, r] expressions
LIE_SIDE = (3, 6)            # letters on each side
CLI_CALLS = (("certify", "--genus", "10"),
             ("tables", "--kind", "f1", "--genus", "4"))


def _random_expr(rng, leaves: int):
    if leaves == 1:
        return rng.choice(LIE_ABC.letters)
    k = rng.randint(1, leaves - 1)
    return (_random_expr(rng, k), _random_expr(rng, leaves - k))


def battery_setup(rng) -> dict:
    return {
        "perm_pool": [_perm(rng) for _ in range(RELABEL_POOL)],
        "perm_offset": rng.randrange(RELABEL_POOL),
        "exprs": [(_random_expr(rng, rng.randint(*LIE_SIDE)),
                   _random_expr(rng, rng.randint(*LIE_SIDE)))
                  for _ in range(LIE_EXPRS)],
    }


def pendant_tree(k: int) -> NumberedGraph:
    """A centre with k three-leaf satellites, one two-leaf satellite and
    k mod 2 leaves of its own, so that the leaf count is even.  Its image is
    one loop with k interchangeable genus-1 pendants."""
    sizes = [3] * k + [2]
    n = sum(sizes) + k % 2
    centre = set(range(n - k % 2 + 1, n + 1))
    parts, sigma = [centre], {}
    leaf, flag = 1, n + 1
    for size in sizes:
        sigma[flag], sigma[flag + 1] = flag + 1, flag
        centre.add(flag)
        parts.append(set(range(leaf, leaf + size)) | {flag + 1})
        leaf, flag = leaf + size, flag + 2
    graph = Graph(set().union(*parts), sigma, parts, [0] * len(parts))
    return NumberedGraph(graph, {i: i for i in range(1, n + 1)})


def _run_cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def battery_run(inp: dict, tr) -> dict:
    o: dict = {}
    with tr.span("bench.classes"):
        o["classes"] = {n: tr.call("trees.unnumbered_classes",
                                   unnumbered_classes, n)
                        for n in range(4, 13)}
        o["good"] = {g: tr.call("trees.good_classes", good_classes, g)
                     for g in range(2, 8)}
        o["good"]["10e9"] = tr.call("trees.good_classes", good_classes, 10,
                                    edge_count=9)
        tr.add("trees.unnumbered_classes_items",
               sum(map(len, o["classes"].values())))
        tr.add("trees.good_classes_items", sum(map(len, o["good"].values())))

    with tr.span("bench.class_images"):
        pool, i = inp["perm_pool"], inp["perm_offset"]
        o["images"] = {}
        for g in range(2, 6):
            rows = []
            for cls in o["classes"][2 * g + 2]:
                a = tr.call("trees.annotate", annotate, cls.representative)
                img = tr.call("covers.pushforward", pushforward, a)
                form = canon(tr, img)
                rform = canon(tr, relabel(img, pool[i % RELABEL_POOL]))
                aut = tr.call("graphs.automorphism_count", automorphism_count,
                              img)
                rows.append((img, form, rform, aut))
                i += 1
            o["images"][g] = rows

    with tr.span("bench.pendants"):
        o["pendants"] = {}
        for k in PENDANTS:
            a = tr.call("trees.annotate", annotate, pendant_tree(k))
            img = tr.call("covers.pushforward", pushforward, a)
            o["pendants"][k] = (
                img, canon(tr, img),
                tr.call("graphs.automorphism_count", automorphism_count, img))

    with tr.span("bench.covers"):
        o["injective"] = [tr.call("covers.verify_injectivity",
                                  verify_injectivity, g) for g in (2, 3)]
        o["node_bound"] = [tr.call("covers.node_bound_report",
                                   node_bound_report, g, k)
                           for g in (2, 3, 4) for k in (0, 1)]

    with tr.span("bench.tables"):
        tables = ([tr.call("spectral.tables", e1_table, m)
                   for m in range(4, 11)]
                  + [tr.call("spectral.tables", f1_table, g)
                     for g in range(2, 5)])
        o["csv"] = [tr.call("serialize.table_to_csv", table_to_csv, t)
                    for t in tables]
        o["epoly"] = [tr.call("spectral.tables", stratification_epoly_check,
                              m) for m in range(4, 9)]
        certs = [tr.call("spectral.certify_nonvanishing",
                         certify_nonvanishing, g) for g in range(2, 11)]
        o["certs"] = certs
        o["cert_json"] = [tr.call("serialize.certificate_to_json",
                                  certificate_text, c) for c in certs]

    with tr.span("bench.checks"):
        o["checks"] = tr.call("checks.run_checks", checks_mod.run_checks,
                              "full")
        for r in o["checks"]:
            tr.add(f"checks.{r.name}_s", r.seconds)

    with tr.span("bench.cli"):
        o["cli"] = [tr.call("cli.main", _run_cli, argv) for argv in CLI_CALLS]
        tr.add("cli.main_stdout_bytes",
               sum(len(text.encode()) for _, text in o["cli"]))

    with tr.span("bench.lie"):
        norm = [(tr.call("lie.normalize", normalize, left, LIE_ABC),
                 tr.call("lie.normalize", normalize, right, LIE_ABC),
                 tr.call("lie.normalize", normalize, (left, right), LIE_ABC))
                for left, right in inp["exprs"]]
        tr.add("lie.normalize_terms",
               sum(len(v.terms) for row in norm for v in row))
        o["norm"] = [(x, y, e, tr.call("lie.bracket", bracket, x, y))
                     for x, y, e in norm]
        o["jacobi"] = []
        for j in range(0, len(norm) - 2, 3):
            x, y, z = norm[j][0], norm[j + 1][0], norm[j + 2][0]
            xy, yx, yz, zx = (tr.call("lie.bracket", bracket, *p)
                              for p in ((x, y), (y, x), (y, z), (z, x)))
            o["jacobi"].append((
                x, y, z, xy, yx,
                tr.call("lie.bracket", bracket, x, yz),
                tr.call("lie.bracket", bracket, y, zx),
                tr.call("lie.bracket", bracket, z, xy)))
    return o


def _parity(v: LieVector) -> int:
    md = v.multidegree() or (0,) * len(v.alphabet)
    return sum(c * d for c, d in zip(md, v.alphabet.degrees)) % 2


def battery_check(inp: dict, out: dict, chk) -> None:
    chk.golden("strata-battery/unnumbered_classes",
               {n: [len(c), sum(x.orbit_size for x in c)]
                for n, c in out["classes"].items()}, len(out["classes"]))
    chk.golden("strata-battery/good_classes",
               {g: len(c) for g, c in out["good"].items()}, len(out["good"]))

    for g, rows in out["images"].items():
        for img, form, rform, _ in rows:
            chk.expect(image_ok(img, g), 2, f"class image of genus {g}")
            chk.expect(rform == form, 1, f"class image of genus {g} relabelled")
        chk.expect(len({form for _, form, _, _ in rows}) == len(rows),
                   len(rows), f"class images of genus {g} are distinct")
        chk.golden(f"strata-battery/image_auts_g{g}",
                   sha(repr(sorted(aut for *_, aut in rows))), len(rows))

    pendants = out["pendants"]
    for k, (img, _, aut) in pendants.items():
        chk.expect(image_ok(img, (3 * k + k % 2) // 2), 2, f"pendant {k} image")
        chk.expect(aut == 2 * factorial(k), 1, f"pendant {k} automorphisms")
    chk.golden("strata-battery/pendant_canonical_sha",
               [hashlib.sha256(form).hexdigest() for _, form, _ in
                pendants.values()], len(pendants))

    for ok in out["injective"]:
        chk.expect(ok is True, 1, "verify_injectivity")
    for rep in out["node_bound"]:
        chk.expect(rep.ok, 1, f"node_bound_report({rep.g}, {rep.k})")
    chk.golden("strata-battery/table_csv_sha", [sha(t) for t in out["csv"]],
               2 * len(out["csv"]))
    chk.golden("strata-battery/epoly",
               [[r.ok, r.coefficients] for r in out["epoly"]],
               len(out["epoly"]))
    chk.golden("strata-battery/certificate_json_sha",
               [[c.passed, sha(t)] for c, t in zip(out["certs"],
                                                   out["cert_json"])],
               2 * len(out["cert_json"]))
    chk.golden("strata-battery/run_checks_full",
               [[r.name, r.ok] for r in out["checks"]], 1)
    chk.golden("strata-battery/cli_sha",
               [[code, sha(text)] for code, text in out["cli"]],
               len(out["cli"]))

    for x, y, e, xy in out["norm"]:
        chk.expect(e == xy, 4, "normalize([l, r]) == bracket(l, r)")
    for x, y, z, xy, yx, x_yz, y_zx, z_xy in out["jacobi"]:
        px, py, pz = _parity(x), _parity(y), _parity(z)
        sign = -1 if px and py else 1
        chk.expect(xy == yx.scale(-sign), 2, "graded antisymmetry")
        jac = (x_yz.scale((-1) ** (px * pz)) + y_zx.scale((-1) ** (py * px))
               + z_xy.scale((-1) ** (pz * py)))
        chk.expect(jac.is_zero(), 5, "graded Jacobi identity")


# --------------------------------------------------------------------------
# differential-row: d1 and d1∘d1 on the top generators, d1 on seeded random
# elements, the leading-term law and the dimensions of one row.
# --------------------------------------------------------------------------

OMEGA_GENERA = range(2, 25)
RANDOM_ELEMENTS = 12
RANDOM_GENERA = (4, 10)
ROW_GENUS = 12


def _random_lyndon(rng, na: int, nb: int) -> tuple[int, ...]:
    """A uniformly shuffled word rotated to its Lyndon conjugate; periodic
    shuffles, which have none, are redrawn."""
    while True:
        w = [0] * na + [1] * nb
        rng.shuffle(w)
        rots = sorted(tuple(w[i:] + w[:i]) for i in range(len(w)))
        if rots[0] != rots[1]:
            return rots[0]


def row_setup(rng) -> dict:
    elements = []
    for _ in range(RANDOM_ELEMENTS):
        g = rng.randint(*RANDOM_GENERA)
        level = rng.randint(2, g)
        words = {_random_lyndon(rng, 2 * g - 2 * level + 1, level): 0
                 for _ in range(3)}
        elements.append((g, level, [(w, rng.randint(1, 3)) for w in words]))
    return {"elements": elements}


def _element(g: int, level: int, terms) -> VSpaceElement:
    return VSpaceElement(g, level, LieVector(AB, {("w", w): c
                                                  for w, c in terms}))


def row_run(inp: dict, tr) -> dict:
    def diff(x):
        y = tr.call("spectral.d1", d1, x)
        tr.add("spectral.d1_terms", len(y.vector.terms))
        return y

    with tr.span("bench.omega_chain"):
        chain = []
        for g in OMEGA_GENERA:
            dw = diff(omega(g))
            chain.append((dw, diff(dw)))
    with tr.span("bench.random_elements"):
        rand = []
        for g, level, terms in inp["elements"]:
            parts = [(c, diff(_element(g, level, [(w, 1)]))) for w, c in terms]
            dx = diff(_element(g, level, terms))
            rand.append((parts, dx, diff(dx)))
    with tr.span("bench.leading_terms"):
        leading = [tr.call("spectral.verify_leading_terms",
                           verify_leading_terms, g) for g in range(2, 11)]
    with tr.span("bench.dimensions"):
        dims = [tr.call("lie.dimension", dimension, AB,
                        (2 * ROW_GENUS - 2 * level + 1, level))
                for level in range(ROW_GENUS + 1)]
    return {"chain": chain, "random": rand, "leading": leading, "dims": dims}


def row_check(inp: dict, out: dict, chk) -> None:
    chk.golden("differential-row/d1_omega_terms",
               [len(dw.vector.terms) for dw, _ in out["chain"]],
               len(out["chain"]))
    for g, (_, ddw) in zip(OMEGA_GENERA, out["chain"]):
        chk.expect(ddw.is_zero(), 1, f"d1(d1(omega({g}))) == 0")
    for parts, dx, ddx in out["random"]:
        total = parts[0][1].vector.scale(parts[0][0])
        for c, part in parts[1:]:
            total = total + part.vector.scale(c)
        chk.expect(total == dx.vector, len(parts) + 1, "d1 is linear")
        chk.expect(ddx.is_zero(), 1, "d1 squares to zero")
    for rep in out["leading"]:
        chk.expect(rep.ok, 1, f"verify_leading_terms({rep.g})")
    chk.golden(f"differential-row/dimensions_g{ROW_GENUS}", out["dims"],
               len(out["dims"]))


class Workload(NamedTuple):
    setup: Callable
    run: Callable
    check: Callable


WORKLOADS = {
    "numbered-sweep": Workload(sweep_setup, sweep_run, sweep_check),
    "strata-battery": Workload(battery_setup, battery_run, battery_check),
    "differential-row": Workload(row_setup, row_run, row_check),
}
