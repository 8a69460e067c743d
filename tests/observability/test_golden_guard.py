"""Golden-trace guard: every scenario re-captures its committed document
byte for byte.

Each test re-runs one canonical scenario from
``repro.observability.scenarios`` against the live kernel and requires
the canonical serialization of the fresh document to equal the committed
file in ``tests/golden/``. That is stricter than the structural diff of
:func:`repro.observability.golden.diff_documents`, and it also requires
every committed file to be canonically serialized. Any change to event
ordering, timestamps, trace content, metrics or serialization fails here;
the failure message carries the structural diff. If the change is
intended, re-bless with ``python -m repro.observability.golden --update``
and commit the diff.
"""

from __future__ import annotations

import pytest

from repro.observability import golden
from repro.observability.scenarios import SCENARIOS


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_recaptured_trace_is_byte_identical(name: str, recapture) -> None:
    path = golden.golden_path(name)
    assert path.exists(), (
        f"missing golden document for {name!r}; bless it with "
        f"`python -m repro.observability.golden --update {name}`"
    )
    doc = recapture(name)
    committed = path.read_text()
    if golden.document_json(doc) != committed:
        diffs = golden.diff_documents(golden.load(name), doc)
        pytest.fail(
            f"scenario {name!r} no longer reproduces its committed golden "
            f"document byte-for-byte ({len(diffs)} structural differences):"
            "\n  " + "\n  ".join(
                golden.clip_diffs(diffs)
                or ["none: the committed file is not canonically "
                    "serialized; re-bless it"]))
