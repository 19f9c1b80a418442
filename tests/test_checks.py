"""The check battery can fail: a fault planted in one name that ``checks``
imports turns its audit's result to not ok at the quick sizes, and so does
a fault planted in the first page that the counting polynomial is read
from."""

from __future__ import annotations

import dataclasses

import pytest

from hyperstrata import checks, spectral
from hyperstrata.errors import FailedCertificate


def _refuse(g):
    raise FailedCertificate(f"planted failure at genus {g}")


# (audit, name it imports, fault built from the original function)
FAULTS = [
    ("base-case-differentials", "d1", lambda f: lambda x: x),
    ("leading-terms", "verify_leading_terms",
     lambda f: lambda g: dataclasses.replace(f(g), ok=False)),
    ("certificates", "certify_nonvanishing", lambda f: _refuse),
    ("lyndon-vs-oracle", "dimension", lambda f: lambda *a: f(*a) + 1),
    ("filtration-vs-good", "rational_component_count",
     lambda f: lambda t: f(t) + 1),
    ("genus-preservation", "genus", lambda f: lambda g: f(g) + 1),
    ("injectivity", "verify_injectivity", lambda f: lambda g: False),
    ("stratification-epoly", "stratification_epoly_check",
     lambda f: lambda m: dataclasses.replace(f(m), coefficients=(0,))),
    ("automorphism-orders", "automorphism_count",
     lambda f: lambda *a: 2 * f(*a)),
    ("enumeration-counts", "enumerate_trees", lambda f: lambda n: f(n)[1:]),
    ("node-bound", "node_bound_report",
     lambda f: lambda g, k: dataclasses.replace(f(g, k), ok=False)),
]


def test_every_audit_has_a_planted_fault():
    assert [audit for audit, _, _ in FAULTS] == \
        [name for name, *_ in checks.BATTERY]


@pytest.mark.parametrize("audit,name,fault", FAULTS,
                         ids=[audit for audit, _, _ in FAULTS])
def test_each_audit_fails_under_its_planted_fault(monkeypatch, audit, name,
                                                  fault):
    monkeypatch.setattr(checks, name, fault(getattr(checks, name)))
    _, fn, quick, _ = next(e for e in checks.BATTERY if e[0] == audit)
    ok, detail = fn(*(quick if quick is not None else (2,)))
    assert not ok, detail


def test_a_planted_page_fault_fails_the_epoly_audit(monkeypatch):
    # The counting polynomial is folded from the first page, so one wrong
    # compactly supported Betti number of a vertex factor fails the audit.
    hc_poly = spectral._hc_poly

    def planted(k):
        out = hc_poly(k)
        if k == 4:
            out[-1] += 1
        return out

    monkeypatch.setattr(spectral, "_hc_poly", planted)
    _, fn, quick, _ = next(e for e in checks.BATTERY
                           if e[0] == "stratification-epoly")
    ok, detail = fn(*quick)
    assert not ok, detail
