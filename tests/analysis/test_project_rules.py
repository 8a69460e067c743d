"""Fixture-backed tests for the whole-program rules (SL007–SL010 and
the interprocedural SL001 flow pass)."""

import os

import pytest

from repro.analysis.lint import lint_file, lint_sources
from repro.analysis.project_rules import PROJECT_RULES

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: Fixtures for path-sensitive rules are linted under a synthetic
#: ``src/repro/...`` path so the layer/hot-file manifests apply.
SYNTHETIC_PATHS = {
    "SL008": "src/repro/workload/generator.py",
    "SL009": "src/repro/sim/events.py",
}


def fixture_findings(code, flavor):
    stem = "sl001_chain" if code == "SL001" else code.lower()
    path = os.path.join(FIXTURES, f"{stem}_{flavor}.py")
    synthetic = SYNTHETIC_PATHS.get(code)
    if synthetic is None:
        return lint_file(path)
    with open(path, encoding="utf-8") as fh:
        return lint_sources({synthetic: fh.read()})


ALL_CODES = [rule.code for rule in PROJECT_RULES]


def test_project_rule_registry_is_complete():
    assert ALL_CODES == ["SL001", "SL007", "SL008", "SL009", "SL010"]
    assert all(rule.summary for rule in PROJECT_RULES)


@pytest.mark.parametrize("code", ALL_CODES)
def test_bad_fixture_triggers_rule(code):
    assert code in {f.code for f in fixture_findings(code, "bad")}


@pytest.mark.parametrize("code", ALL_CODES)
def test_good_fixture_is_fully_clean(code):
    assert fixture_findings(code, "good") == []


# -- SL001 flow: interprocedural RNG provenance -----------------------------

def test_sl001_chain_names_the_whole_route():
    findings = [f for f in fixture_findings("SL001", "bad")
                if f.code == "SL001"]
    assert len(findings) == 1
    (finding,) = findings
    assert "make_arrivals -> _make_generator -> numpy.random.default_rng" \
        in finding.message
    assert "make_arrivals()" in finding.snippet


def test_sl001_flow_flags_explicit_none():
    findings = lint_sources({"m.py": (
        "import numpy as np\n"
        "def make(seed=None):\n"
        "    return np.random.default_rng(seed)\n"
        "def scenario():\n"
        "    return make(seed=None)\n")})
    assert [f.code for f in findings] == ["SL001"]
    assert "passes None" in findings[0].message


def test_sl001_flow_flags_implicit_wallclock_ctor():
    findings = lint_sources({"m.py": (
        "import random\n"
        "def make():\n"
        "    return random.Random()\n")})
    assert [f.code for f in findings] == ["SL001"]
    assert "wall-clock-seeded" in findings[0].message


def test_sl001_flow_and_syntactic_do_not_double_report():
    # Literally-unseeded default_rng() belongs to the syntactic pass only.
    findings = lint_sources({"m.py": (
        "import numpy as np\n"
        "def make():\n"
        "    return np.random.default_rng()\n")})
    assert [f.code for f in findings] == ["SL001"]


def test_sl001_flow_ignores_starargs_forwarding():
    # *args forwarding is dynamic: conservative, no finding.
    findings = lint_sources({"m.py": (
        "import numpy as np\n"
        "def make(seed=None):\n"
        "    return np.random.default_rng(seed)\n"
        "def scenario(*args):\n"
        "    return make(*args)\n")})
    assert findings == []


# -- SL007: module-level mutable state --------------------------------------

def test_sl007_write_through_helper_is_flagged():
    findings = lint_sources({"m.py": (
        "TALLY = {}\n"
        "def record(now):\n"
        "    TALLY[now] = 1\n"
        "def run(env):\n"
        "    yield env.timeout(1.0)\n"
        "    record(env.now)\n")})
    assert [f.code for f in findings] == ["SL007"]
    assert "m.TALLY" in findings[0].message


def test_sl007_unreachable_writer_is_not_flagged():
    findings = lint_sources({"m.py": (
        "TALLY = {}\n"
        "def record(now):\n"
        "    TALLY[now] = 1\n"
        "def run(env):\n"
        "    yield env.timeout(1.0)\n")})
    assert findings == []


def test_sl007_dynamic_dispatch_produces_no_finding():
    findings = lint_sources({"m.py": (
        "TALLY = {}\n"
        "def record():\n"
        "    TALLY['n'] = 1\n"
        "HANDLERS = {'r': record}\n"
        "def run(env):\n"
        "    while True:\n"
        "        yield env.timeout(1.0)\n"
        "        HANDLERS['r']()\n")})
    assert findings == []


def test_sl007_cross_module_write_resolved_through_import():
    findings = lint_sources({
        "src/repro/faults/state.py": "FAILED = []\n",
        "src/repro/faults/inject.py": (
            "from repro.faults import state\n"
            "def run(env):\n"
            "    yield env.timeout(1.0)\n"
            "    state.FAILED.append(env.now)\n"),
    })
    assert "SL007" in {f.code for f in findings}


# -- SL008: architecture layering -------------------------------------------

def test_sl008_unknown_package_must_be_placed_in_dag():
    findings = lint_sources({"src/repro/newpkg/mod.py": "X = 1\n"})
    assert [f.code for f in findings] == ["SL008"]
    assert "not in the layer manifest" in findings[0].message


def test_sl008_harness_files_may_import_anything():
    findings = lint_sources({"src/repro/faults/chaos.py": (
        "from repro.scheduling.simulator import ClusterSimulator\n"
        "SIMULATOR = ClusterSimulator\n")})
    assert findings == []


def test_sl008_self_import_allowed():
    findings = lint_sources({"src/repro/workload/mod.py": (
        "from repro.workload.trace import TraceArchive\n"
        "ARCHIVE = TraceArchive\n")})
    assert findings == []


# -- SL009: hot-path performance --------------------------------------------

def test_sl009_event_loop_flags_dotted_load_under_loop():
    findings = lint_sources({"src/repro/sim/environment.py": (
        "class Environment:\n"
        "    __slots__ = ('_queue', '_now')\n"
        "    def __init__(self):\n"
        "        self._queue = []\n"
        "        self._now = 0.0\n"
        "    def run(self, until=None):\n"
        "        while self._queue:\n"
        "            self._now = self._now + 1.0\n")})
    codes = [(f.code, f.message.split(" ")[0]) for f in findings]
    assert ("SL009", "self._queue") in codes
    # self._now is assigned in the function: live state, exempt.
    assert ("SL009", "self._now") not in codes


def test_sl009_prebound_loop_is_clean():
    findings = lint_sources({"src/repro/sim/environment.py": (
        "class Environment:\n"
        "    __slots__ = ('_queue', '_now')\n"
        "    def __init__(self):\n"
        "        self._queue = []\n"
        "        self._now = 0.0\n"
        "    def run(self, until=None):\n"
        "        queue = self._queue\n"
        "        while queue:\n"
        "            self._now = self._now + 1.0\n")})
    assert findings == []


def test_sl009_cold_file_needs_no_slots():
    findings = lint_sources({"src/repro/workload/mod.py": (
        "class Sample:\n"
        "    def __init__(self, t):\n"
        "        self.t = t\n")})
    assert findings == []


# -- SL010: unbounded growth ------------------------------------------------

def test_sl010_bounded_deque_is_clean():
    findings = lint_sources({"m.py": (
        "from collections import deque\n"
        "class S:\n"
        "    def __init__(self, env):\n"
        "        self.env = env\n"
        "        self.samples = deque(maxlen=100)\n"
        "    def run(self):\n"
        "        while True:\n"
        "            yield self.env.timeout(1.0)\n"
        "            self.samples.append(self.env.now)\n")})
    assert findings == []


def test_sl010_flush_method_counts_as_eviction():
    findings = lint_sources({"m.py": (
        "class S:\n"
        "    def __init__(self, env):\n"
        "        self.env = env\n"
        "        self.samples = []\n"
        "    def flush(self):\n"
        "        out = self.samples\n"
        "        self.samples = []\n"
        "        return out\n"
        "    def run(self):\n"
        "        while True:\n"
        "            yield self.env.timeout(1.0)\n"
        "            self.samples.append(self.env.now)\n")})
    assert findings == []


def test_sl010_loop_with_break_is_not_flagged():
    findings = lint_sources({"m.py": (
        "def run(env, log):\n"
        "    while True:\n"
        "        yield env.timeout(1.0)\n"
        "        log.append(env.now)\n"
        "        if env.now > 10:\n"
        "            break\n")})
    assert findings == []


def test_sl010_inline_suppression_honored():
    findings = lint_sources({"m.py": (
        "class S:\n"
        "    def __init__(self, env):\n"
        "        self.env = env\n"
        "        self.samples = []\n"
        "    def run(self):\n"
        "        while True:\n"
        "            yield self.env.timeout(1.0)\n"
        "            self.samples.append(1)  # simlint: disable=SL010\n")})
    assert findings == []
