"""Pins the seeded instance stream of every theorem.

Each digest covers the theorem's report and, in order, every instance the
campaign runner hands to ``check`` with the verdict it got (or the budget
skip).  A change that shifts any theorem's random stream, reorders its
trials or alters a verdict changes the digest; such a change must say so
and re-record the table.
"""

import hashlib
import json

import pytest

from rootdom import harness
from rootdom.harness import CampaignConfig, TheoremId, run_theorem
from rootdom.solvers import BudgetExceededError

BASE = CampaignConfig(seed=0, trials=12)
SMALL_TREES = CampaignConfig(seed=0, trials=12, tree_min=2, tree_max=5)

#: First 16 hex digits of each case's sha256, keyed by (config name, theorem).
EXPECTED = {
    ("base", "D1"): "527abacf6d716cae",
    ("base", "D2"): "b8a45fef27fb49d6",
    ("base", "R1"): "89b1ab3bd6f2fb34",
    ("base", "R2"): "e294b31298237cf2",
    ("base", "R3"): "fe79977d9b69677a",
    ("base", "R4"): "f4705bfdaa6fde93",
    ("base", "R5"): "ad3e09859d2ce85a",
    ("base", "R6"): "cc164ed841ab3406",
    ("base", "I1"): "dbe9de2ee12d8c5e",
    ("base", "I2"): "60020fd06b24a982",
    ("base", "I3"): "44e1a404d3dbef6f",
    ("base", "I4"): "72e05b6be81db6ee",
    ("base", "I5"): "5fc4a3497d3842f5",
    ("base", "I6"): "a85702b79e352d6f",
    ("base", "I7"): "068d2091443dfaaa",
    ("base", "C1"): "e1bd27fa75437eff",
    ("base", "C2"): "5e00a5c52e6192c4",
    ("base", "C3"): "9d9cfc2ec1c91e43",
    ("base", "C4"): "102f260427428f9b",
    ("base", "X1"): "50f6ed2f4555246d",
    ("base", "X2"): "9192f446bb7b78b4",
    ("base", "W1"): "58f620c635d243b6",
    ("base", "W2"): "4d4fff9a4efa07aa",
    ("base", "W3"): "76253cb8f41e51bc",
    ("base", "S1"): "e6bdafb71846f5db",
    ("base", "S2"): "aa07d61608657489",
    ("base", "S3"): "e27fd6219aabeb17",
    ("small-trees", "C3"): "d6ccfe6c1090e7cc",
    ("small-trees", "C4"): "35d4a90cc25bf0d3",
    ("small-trees", "X2"): "64e52b4434d1d216",
    ("small-trees", "W3"): "a862bf032e636bbd",
    ("small-trees", "S3"): "747948ba64e7215f",
}


def _digest(theorem: TheoremId, config: CampaignConfig, monkeypatch) -> str:
    calls = []
    original = harness.check

    def recording_check(*args, **kwargs):
        try:
            verdict = original(*args, **kwargs)
        except BudgetExceededError:
            calls.append([kwargs.get("instance"), "budget-skip"])
            raise
        calls.append([verdict.instance, verdict.outcome.value, verdict.values])
        return verdict

    monkeypatch.setattr(harness, "check", recording_check)
    report = run_theorem(theorem, config)
    text = json.dumps({"report": report, "calls": calls}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


CASES = [("base", t.value) for t in TheoremId] + [
    ("small-trees", t) for t in ("C3", "C4", "X2", "W3", "S3")
]


@pytest.mark.parametrize("config_name,theorem", CASES)
def test_instance_stream_is_pinned(config_name, theorem, monkeypatch):
    config = BASE if config_name == "base" else SMALL_TREES
    digest = _digest(TheoremId(theorem), config, monkeypatch)
    assert digest == EXPECTED[config_name, theorem], f"recomputed digest {digest}"
