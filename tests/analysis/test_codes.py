"""Diagnostic codes are stable: no two passes share one, and a retired
code is never reused (``ADR2xx`` belonged to the removed simulated-race
detector, ``ADR6xx`` to the removed communication model checker,
``ADR704`` to the shared-memory leak check of the removed multiprocess
backend)."""

from itertools import combinations

from repro.analysis import EFFECTS_CODES, LINT_CODES, VERIFIER_CODES

PASSES = {
    "verifier": VERIFIER_CODES,
    "lint": LINT_CODES,
    "effects": EFFECTS_CODES,
}


def test_passes_own_disjoint_codes():
    for (a, ca), (b, cb) in combinations(PASSES.items(), 2):
        assert not set(ca) & set(cb), (a, b)


def test_retired_codes_stay_retired():
    assert [
        c for codes in PASSES.values() for c in codes
        if c.startswith(("ADR2", "ADR6")) or c == "ADR704"
    ] == []
