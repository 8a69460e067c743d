"""Fixture-backed tests for every per-file simlint rule."""

import os

import pytest

from repro.analysis import lint_file
from repro.analysis.rules import RULES, lint_source

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

ALL_CODES = [rule.code for rule in RULES]


def codes_in(filename):
    findings = lint_file(os.path.join(FIXTURES, filename))
    return {f.code for f in findings}


def test_rule_registry_is_complete():
    assert ALL_CODES == ["SL001", "SL002", "SL003", "SL004", "SL005", "SL006",
                         "SL011"]
    assert all(rule.summary for rule in RULES)


@pytest.mark.parametrize("code", ALL_CODES)
def test_bad_fixture_triggers_rule(code):
    assert code in codes_in(f"{code.lower()}_bad.py")


@pytest.mark.parametrize("code", ALL_CODES)
def test_good_fixture_is_clean_for_rule(code):
    assert code not in codes_in(f"{code.lower()}_good.py")


@pytest.mark.parametrize("code", ALL_CODES)
def test_good_fixture_is_fully_clean(code):
    # Good fixtures must not trip *any* rule, not just their own.
    assert codes_in(f"{code.lower()}_good.py") == set()


# -- per-rule specifics ----------------------------------------------------

def test_sl001_counts_every_bad_site():
    findings = lint_file(os.path.join(FIXTURES, "sl001_bad.py"))
    assert len([f for f in findings if f.code == "SL001"]) == 5


def test_sl001_seeded_function_scope_construction_allowed():
    src = ("import numpy as np\n"
           "def make(seed):\n"
           "    return np.random.default_rng(seed)\n")
    assert lint_source(src) == []


def test_sl001_module_level_seeded_construction_flagged():
    src = "import numpy as np\nRNG = np.random.default_rng(7)\n"
    assert [f.code for f in lint_source(src)] == ["SL001"]


def test_sl002_import_aliases_resolved():
    src = ("import time as walltime\n"
           "def f():\n"
           "    return walltime.perf_counter()\n")
    assert [f.code for f in lint_source(src)] == ["SL002"]


def test_sl003_requires_sim_process_context():
    # A plain generator yielding literals is not a sim process.
    src = ("def gen(items):\n"
           "    for i in items:\n"
           "        yield i\n"
           "    yield 42\n")
    assert lint_source(src) == []


def test_sl004_with_block_accepted():
    src = ("def f(env, res):\n"
           "    with res.request() as req:\n"
           "        yield req\n")
    assert lint_source(src) == []


def test_sl004_flags_every_bad_site_including_the_handoff():
    findings = lint_file(os.path.join(FIXTURES, "sl004_bad.py"))
    assert [f.snippet for f in findings if f.code == "SL004"] == [
        "req = resource.request()",
        "machine.allocate(task.cores, task.memory_gb)",
        "machine.allocate(task.cores, task.memory_gb)",
    ]


def test_sl005_sorted_wrapper_accepted():
    src = ("def f(xs):\n"
           "    return [x for x in sorted(set(xs))]\n")
    assert lint_source(src) == []


def test_sl006_ordering_comparisons_allowed():
    src = ("def f(env, d):\n"
           "    return env.now >= d\n")
    assert lint_source(src) == []


def test_sl011_flags_each_unread_name():
    findings = lint_file(os.path.join(FIXTURES, "sl011_bad.py"))
    flagged = [f.message.split("'")[1] for f in findings if f.code == "SL011"]
    assert flagged == ["heapq", "os", "field", "Maybe"]


def test_sl011_exempts_future_init_and_dunder_all():
    src = ("from __future__ import annotations\n"
           "import json\n"
           "__all__ = ['json']\n")
    assert lint_source(src, path="pkg/mod.py") == []
    assert lint_source("import json\n", path="pkg/__init__.py") == []
    assert lint_source("import json  # simlint: disable=SL011\n") == []
    assert [f.code for f in lint_source("import json\n")] == ["SL011"]


# -- inline suppression ----------------------------------------------------

def test_inline_disable_suppresses_named_code():
    src = ("import time\n"
           "def f():\n"
           "    return time.time()  # simlint: disable=SL002\n")
    assert lint_source(src) == []


def test_inline_disable_other_code_does_not_suppress():
    src = ("import time\n"
           "def f():\n"
           "    return time.time()  # simlint: disable=SL001\n")
    assert [f.code for f in lint_source(src)] == ["SL002"]


def test_inline_disable_all():
    src = ("import time\n"
           "def f():\n"
           "    return time.time()  # simlint: disable=all\n")
    assert lint_source(src) == []


def test_findings_carry_location_and_snippet():
    src = "import time\nWALL = time.time()\n"
    (finding,) = lint_source(src, path="pkg/mod.py")
    assert finding.path == "pkg/mod.py"
    assert finding.line == 2
    assert finding.snippet == "WALL = time.time()"
    assert "pkg/mod.py:2" in finding.format()
