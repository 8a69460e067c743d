"""The golden corpus and its structural diff.

Each scenario is diffed structurally against its committed document
here and byte for byte in ``test_golden_guard.py``; both read one
shared recapture (the ``recapture`` fixture). The other tests cover the
corpus's reach and the diff it prints on a failure.
"""

import copy

import pytest

from repro.observability import golden
from repro.observability.scenarios import SCENARIOS


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_scenario_matches_golden_trace(name, recapture):
    diffs = golden.clip_diffs(
        golden.diff_documents(golden.load(name), recapture(name)))
    assert not diffs, (
        f"scenario {name!r} diverged from its golden trace "
        f"({len(diffs)} differences):\n  " + "\n  ".join(diffs))


def test_corpus_covers_all_domains():
    # The acceptance bar: golden tests cover at least 6 domains.
    domains = set()
    for name in SCENARIOS:
        doc = golden.load(name)
        domains |= {s["domain"] for s in doc["trace"]["spans"]}
    assert len(domains) >= 6, f"only {sorted(domains)}"


class TestStructuralDiff:
    def _doc(self):
        return golden.load("serverless")

    def test_identical_documents_have_no_diff(self):
        doc = self._doc()
        assert golden.diff_documents(doc, copy.deepcopy(doc)) == []

    def test_span_status_change_is_reported(self):
        expected = self._doc()
        actual = copy.deepcopy(expected)
        actual["trace"]["spans"][0]["status"] = "failed"
        diffs = golden.diff_documents(expected, actual)
        assert any("status" in d and "failed" in d for d in diffs)

    def test_dropped_span_is_reported_as_count_mismatch(self):
        expected = self._doc()
        actual = copy.deepcopy(expected)
        del actual["trace"]["spans"][3]
        diffs = golden.diff_documents(expected, actual)
        assert any("span count" in d for d in diffs)

    def test_metric_change_is_reported(self):
        expected = self._doc()
        actual = copy.deepcopy(expected)
        key = next(iter(actual["metrics"]))
        actual["metrics"][key] = {"type": "counter", "total": -1}
        diffs = golden.diff_documents(expected, actual)
        assert any(key in d for d in diffs)

    def test_diff_output_is_clipped(self):
        assert len(golden.clip_diffs([f"d{i}" for i in range(100)])) == 26

    def test_missing_document_names_the_blessing_command(self):
        with pytest.raises(FileNotFoundError, match="--update"):
            golden.load("serverless", directory=golden.GOLDEN_DIR / "nope")


def test_update_writes_checkable_documents(tmp_path):
    golden.update(["mmog"], directory=tmp_path)
    assert golden.check("mmog", directory=tmp_path) == []
