"""CLI behavior of ``python -m repro.analysis.lint`` and the self-check."""

import json
import os

import pytest

from repro.analysis.lint import lint_paths, main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

BAD_SRC = ("import time\n"
           "def f():\n"
           "    return time.time()\n")


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(BAD_SRC)
    return str(path)


def test_exit_zero_on_clean_file(tmp_path, capsys):
    path = tmp_path / "clean.py"
    path.write_text("def f(env):\n    return env.now + 1\n")
    assert main([str(path)]) == 0
    assert "clean" in capsys.readouterr().out


def test_exit_one_on_findings(bad_file, capsys):
    assert main([bad_file]) == 1
    out = capsys.readouterr().out
    assert "SL002" in out


def test_exit_two_on_missing_path(capsys):
    assert main(["/no/such/path.py"]) == 2


def test_exit_two_on_syntax_error(tmp_path, capsys):
    path = tmp_path / "broken.py"
    path.write_text("def f(:\n")
    assert main([str(path)]) == 2


def test_json_format(bad_file, capsys):
    assert main([bad_file, "--format=json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload) == ["count", "findings", "rules"]
    assert payload["count"] == 1
    (finding,) = payload["findings"]
    assert finding["code"] == "SL002"
    assert finding["line"] == 3
    assert payload["rules"]["SL002"]


def test_rules_filter_selects_codes(tmp_path, capsys):
    path = tmp_path / "mixed.py"
    path.write_text("import time\n"
                    "import numpy as np\n"
                    "def f():\n"
                    "    return time.time()\n"
                    "def g():\n"
                    "    return np.random.default_rng()\n")
    assert main([str(path), "--rules", "SL002"]) == 1
    out = capsys.readouterr().out
    assert "SL002" in out and "SL001" not in out
    # Filtering down to a code the file doesn't trip exits clean.
    assert main([str(path), "--rules", "SL008"]) == 0


def test_rules_filter_rejects_unknown_code(bad_file, capsys):
    assert main([bad_file, "--rules", "SL999"]) == 2
    assert "unknown rule code" in capsys.readouterr().err


def test_directory_walk_skips_caches(tmp_path):
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "junk.py").write_text("import time\ntime.time()\n")
    (tmp_path / "ok.py").write_text("X = 1\n")
    assert lint_paths([str(tmp_path)]) == []


def test_selfcheck_repo_src_is_clean():
    """`simlint src/` must stay clean: fix a finding, or accept it with an
    inline `# simlint: disable=` and a comment giving the reason."""
    findings = lint_paths([os.path.join(REPO_ROOT, "src")], root=REPO_ROOT)
    assert findings == [], "simlint findings:\n" + "\n".join(
        f.format() for f in findings)
