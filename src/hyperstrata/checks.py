"""Self-contained invariant audits, used by the ``check`` CLI command.

Each audit returns a CheckResult; ``run_checks`` collects the quick or full
battery.  The acceptance suite runs the full battery: exact expectations,
no tolerances.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import factorial

from .covers import (
    in_filtration,
    node_bound_report,
    pushforward,
    rational_component_count,
    verify_injectivity,
)
from .errors import OutOfRange
from .graphs import automorphism_count, genus, is_stable
from .lie import GradedAlphabet, dimension, oracle_component
from .spectral import (
    AB,
    certify_nonvanishing,
    d1,
    omega,
    stratification_epoly_check,
    verify_leading_terms,
)
from .serialize import lie_vector_to_text
from .trees import build_T_lg, enumerate_trees, is_good, unnumbered_classes


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _timed(name, fn, args) -> CheckResult:
    start = time.perf_counter()
    ok, detail = fn(*args)
    return CheckResult(name, ok, detail, time.perf_counter() - start)


def check_base_case_differentials():
    v2 = lie_vector_to_text(d1(omega(2)).vector)
    v3 = lie_vector_to_text(d1(omega(3)).vector)
    dd = d1(d1(omega(2))).is_zero() and d1(d1(omega(3))).is_zero()
    ok = v2 == "2·aaab" and v3 == "2·aabab" and dd
    return ok, f"d1(omega_2)={v2}, d1(omega_3)={v3}, d1^2=0: {dd}"


def check_leading_terms(gmax: int):
    bad = [g for g in range(2, gmax + 1) if not verify_leading_terms(g).ok]
    return not bad, f"genus 2..{gmax}; failures: {bad or 'none'}"


def check_certificates(gmax: int):
    bad = []
    for g in range(2, gmax + 1):
        try:
            certify_nonvanishing(g)
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            bad.append((g, str(exc)))
    return not bad, f"genus 2..{gmax}; failures: {bad or 'none'}"


def check_lyndon_oracle(total_max: int):
    mismatches = []
    for total in range(1, total_max + 1):
        for i in range(total + 1):
            md = (i, total - i)
            if dimension(AB, md) != oracle_component(AB, md).dimension:
                mismatches.append(md)
    tri = GradedAlphabet(("a", "b", "c"), {"a": 1, "b": 1, "c": 1})
    if dimension(tri, (1, 1, 1)) != oracle_component(tri, (1, 1, 1)).dimension:
        mismatches.append("multilinear-3")
    multi_ok = all(
        dimension(GradedAlphabet(tuple("abcdefg"[:n]),
                                 {c: 1 for c in "abcdefg"[:n]}), (1,) * n)
        == factorial(n - 1)
        for n in range(2, 8))
    ok = not mismatches and multi_ok
    return ok, (f"2-letter totals <= {total_max}, mismatches: "
                f"{mismatches or 'none'}; multilinear (n-1)! n<=7: {multi_ok}")


def filtration_faults(t, image, g: int) -> list[str]:
    """The filtration predicates that one annotated tree with 2g+2 leaves
    and its image fail: level 0 of the filtration is the good trees, the
    image has rational_component_count(t) rational vertices, and a good
    tree has at most g-1 edges."""
    good = is_good(t)
    held = {"filtration": in_filtration(t, 0) == good,
            "rational-count": (rational_component_count(t)
                               == image.genus_labels.count(0)),
            "edge-bound": not good or t.edge_count <= g - 1}
    return [fault for fault, ok in held.items() if not ok]


def genus_preserved(image, g: int) -> bool:
    """The image of a tree with 2g+2 leaves is stable of genus g, no leaves."""
    return genus(image) == g and is_stable(image) and not image.leaves


def check_filtration(gmax: int):
    bad = []
    for g in range(2, gmax + 1):
        for cls in unnumbered_classes(2 * g + 2):
            t = cls.annotated()
            bad += [(g, cls.profile(), fault)
                    for fault in filtration_faults(t, pushforward(t), g)]
    return not bad, f"genus 2..{gmax} exhaustive; failures: {bad or 'none'}"


def check_genus_preservation(gmax: int):
    bad = [(g, cls.profile()) for g in range(2, gmax + 1)
           for cls in unnumbered_classes(2 * g + 2)
           if not genus_preserved(pushforward(cls.annotated()), g)]
    return not bad, f"genus 2..{gmax} exhaustive; failures: {bad or 'none'}"


def check_injectivity(gmax: int):
    bad = [g for g in range(2, gmax + 1) if not verify_injectivity(g)]
    return not bad, f"genus 2..{gmax}; failures: {bad or 'none'}"


def check_epoly(mmax: int):
    known = {4: (1, 1), 5: (1, 5, 1)}
    bad = []
    for m in range(4, mmax + 1):
        rep = stratification_epoly_check(m)
        if not rep.ok or known.get(m, rep.coefficients) != rep.coefficients:
            bad.append(m)
    return not bad, f"m in 4..{mmax}; failures: {bad or 'none'}"


def check_aut_orders(gmax: int):
    bad = []
    for g in range(2, gmax + 1):
        for l in range(0, g + 1):
            t = build_T_lg(l, g)
            root = next(f for f, n in t.tree.numbering.items()
                        if n == 2 * g + 2)
            expected = (factorial(2 * g - 2 * l + 1) * factorial(l) * 2 ** l)
            if automorphism_count(t.graph, [root]) != expected:
                bad.append((l, g))
    return not bad, f"0 <= l <= g <= {gmax}; failures: {bad or 'none'}"


def check_enumeration(nmax: int):
    counts = {3: 1, 4: 4, 5: 26, 6: 236, 7: 2752, 8: 39208}
    bad = []
    for n in range(4, nmax + 1):
        got = len(enumerate_trees(n))
        via_orbits = sum(c.orbit_size for c in unnumbered_classes(n))
        if got != counts[n] or via_orbits != got:
            bad.append((n, got, via_orbits))
    return not bad, f"n in 4..{nmax}; failures: {bad or 'none'}"


def check_node_bound(gmax: int):
    bad = [(g, k) for g in range(2, gmax + 1) for k in (0, 1)
           if not node_bound_report(g, k).ok]
    return not bad, f"genus 2..{gmax}, k in 0..1; failures: {bad or 'none'}"


# Each audit with its arguments in the quick and the full battery, in the
# order they run; None leaves an audit out of a battery.
BATTERY = [
    ("base-case-differentials", check_base_case_differentials, (), ()),
    ("leading-terms", check_leading_terms, (4,), (40,)),
    ("certificates", check_certificates, (3,), (8,)),
    ("lyndon-vs-oracle", check_lyndon_oracle, (4,), (7,)),
    ("filtration-vs-good", check_filtration, (2,), (4,)),
    ("genus-preservation", check_genus_preservation, (2,), (4,)),
    ("injectivity", check_injectivity, (2,), (3,)),
    ("stratification-epoly", check_epoly, (5,), (8,)),
    ("automorphism-orders", check_aut_orders, (3,), (5,)),
    ("enumeration-counts", check_enumeration, (5,), (7,)),
    ("node-bound", check_node_bound, None, (4,)),
]


def run_checks(level: str = "quick") -> list[CheckResult]:
    """Run the quick or the full battery."""
    if level not in ("quick", "full"):
        raise OutOfRange(f"check level {level!r} is not 'quick' or 'full'")
    results = []
    for name, fn, quick, full in BATTERY:
        args = quick if level == "quick" else full
        if args is not None:
            results.append(_timed(name, fn, args))
    return results
