"""Acceptance suite: one test per criterion, exact expectations, stated
time budgets.  Each criterion runs its audit from the ``check --level full``
battery (``checks.BATTERY`` at its full arguments); the test code keeps only
what the battery does not state: the CLI route of criterion 01 and the
numbered sweeps of criteria 05 and 06.  Run with
``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line per
criterion.
"""

from __future__ import annotations

import json
import time

import pytest

from hyperstrata import checks, cli
from hyperstrata.covers import (
    in_filtration,
    pushforward,
    rational_component_count,
)
from hyperstrata.graphs import canonical_form, genus
from hyperstrata.trees import annotate, enumerate_trees, is_good

FULL_BATTERY = {name: (fn, full) for name, fn, _, full in checks.BATTERY}


def _report(name: str, budget: float, elapsed: float, detail: str) -> None:
    assert elapsed < budget, f"{name}: {elapsed:.1f}s exceeds {budget:.0f}s"
    print(f"PASS {name} ({elapsed:.2f}s < {budget:.0f}s) {detail}")


def _audit(name: str) -> None:
    """Run one audit of the battery at its full arguments."""
    fn, args = FULL_BATTERY[name]
    ok, detail = fn(*args)
    assert ok, f"{name}: {detail}"


def _criterion(label: str, budget: float, audit: str, detail: str) -> None:
    start = time.perf_counter()
    _audit(audit)
    _report(label, budget, time.perf_counter() - start, detail)


def test_full_battery_arguments_are_pinned():
    assert {name: full for name, _, _, full in checks.BATTERY} == {
        "base-case-differentials": (), "leading-terms": (40,),
        "certificates": (8,), "lyndon-vs-oracle": (7,),
        "filtration-vs-good": (4,), "genus-preservation": (4,),
        "injectivity": (3,), "stratification-epoly": (8,),
        "automorphism-orders": (5,), "enumeration-counts": (7,),
        "node-bound": (4,)}


def test_check_full_through_the_cli(capsys):
    code = cli.main(["check", "--level", "full"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert [line.split()[:2] for line in lines[:-1]] == \
        [["PASS", name] for name in FULL_BATTERY]
    assert lines[-1] == "PASS overall: 11/11 checks"


def test_criterion_01_base_case_differentials(capsys):
    start = time.perf_counter()
    outputs = {}
    for g in (2, 3):
        code = cli.main(["certify", "--genus", str(g)])
        captured = capsys.readouterr()
        assert code == 0
        outputs[g] = json.loads(captured.out)
    assert outputs[2]["d1_omega"] == "2·aaab"
    assert outputs[3]["d1_omega"] == "2·aabab"
    assert outputs[2]["d1d1_zero"] and outputs[3]["d1d1_zero"]
    _audit("base-case-differentials")
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report("criterion-01 base-case differentials", 1.0, elapsed,
                "d1(omega_2)=2·aaab, d1(omega_3)=2·aabab, d1^2=0")


def test_criterion_02_leading_term_law():
    _criterion("criterion-02 leading-term law", 60.0, "leading-terms",
               "coefficients (2, g-2) even / (g-1) odd for g in 2..40, "
               "remainder on larger keys")


def test_criterion_03_nonvanishing_certificates():
    _criterion("criterion-03 nonvanishing certificates", 300.0,
               "certificates", "all five checks for g in 2..8")


def test_criterion_04_lyndon_vs_oracle():
    _criterion("criterion-04 lyndon basis vs oracle", 120.0,
               "lyndon-vs-oracle",
               "exact rank agreement, totals <= 7, plus multilinear (n-1)!")


@pytest.fixture(scope="module")
def numbered_sweep():
    """One pass over every numbered tree of genus 2 and 3: each is
    enumerated, annotated and pushed forward once, and the predicates of
    criteria 05 and 06 are applied to it."""
    start = time.perf_counter()
    filtration, genus_faults = [], []
    for g in (2, 3):
        for tree in enumerate_trees(2 * g + 2):
            t = annotate(tree)
            image = pushforward(t)
            filtration += [(g, tree, fault) for fault
                           in checks.filtration_faults(t, image, g)]
            if not checks.genus_preserved(image, g):
                genus_faults.append((g, tree))
    return {"filtration": filtration, "genus": genus_faults,
            "seconds": time.perf_counter() - start}


def test_criterion_05_good_tree_bound_and_filtration(numbered_sweep):
    start = time.perf_counter()
    assert not numbered_sweep["filtration"]
    # the three predicates are invariant under leaf renumbering (verified
    # explicitly for genus 2 in test_predicates_factor_through_orbits), so
    # the genus-4 sweep over all 12,818,912 numbered classes reduces to the
    # 190 renumbering orbits of the battery's audit
    _audit("filtration-vs-good")
    _report("criterion-05 filtration vs good trees", 180.0,
            time.perf_counter() - start + numbered_sweep["seconds"],
            "numbered sweep g<=3, orbit sweep g<=4")


def test_predicates_factor_through_orbits():
    # supporting lemma for the orbit reduction in criterion 5
    per_orbit: dict[bytes, set] = {}
    for tree in enumerate_trees(6):
        t = annotate(tree)
        img = pushforward(t)
        data = (is_good(t), in_filtration(t, 0), rational_component_count(t),
                sum(1 for x in img.genus_labels if x == 0), genus(img))
        per_orbit.setdefault(canonical_form(tree.graph), set()).add(data)
    assert all(len(v) == 1 for v in per_orbit.values())


def test_criterion_06_genus_preservation(numbered_sweep):
    start = time.perf_counter()
    assert not numbered_sweep["genus"]
    _audit("genus-preservation")
    _report("criterion-06 genus preservation", 180.0,
            time.perf_counter() - start + numbered_sweep["seconds"],
            "numbered sweep g<=3, orbit sweep g<=4")


def test_criterion_07_injectivity():
    _criterion("criterion-07 pushforward injectivity", 60.0, "injectivity",
               "pairwise-distinct image canonical forms, g <= 3")


def test_criterion_08_stratification_epoly():
    _criterion("criterion-08 stratification counting polynomial", 120.0,
               "stratification-epoly",
               "1+q, 1+5q+q^2, palindromic with constant term 1 up to m=8")


def test_criterion_09_automorphism_orders():
    _criterion("criterion-09 star-tree automorphism orders", 60.0,
               "automorphism-orders",
               "(2g-2l+1)! * l! * 2^l for 0 <= l <= g <= 5")


def test_criterion_10_enumeration_counts():
    _criterion("criterion-10 enumeration counts", 120.0, "enumeration-counts",
               "|classes(0,n)| = 4, 26, 236, 2752 for n = 4..7, equal to "
               "the orbit sums")


def test_node_bound():
    _criterion("node-bound", 60.0, "node-bound",
               "trees at filtration level k <= 1 have at most g+k-1 edges, "
               "g <= 4")
