"""Tests for ``tools/reach.py`` on a tiny fixture package."""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

REACH_PATH = Path(__file__).resolve().parents[2] / "tools" / "reach.py"

MODULE = textwrap.dedent('''\
    import functools


    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args):
            return fn(*args)
        return wrapper


    def called():
        def inner():
            return 1
        return inner()


    def never():
        return 0


    @deco
    def decorated():
        return 2


    class Box:
        def used(self):
            return 3

        def unused(self):
            return 4
''')


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach", REACH_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules["reach"] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules["reach"]


@pytest.fixture
def root(tmp_path):
    pkg = tmp_path / "fixpkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "sub" / "__init__.py").write_text("")
    (pkg / "sub" / "mod.py").write_text(MODULE)
    return pkg


def test_lists_nested_functions_and_methods_by_decorator_line(reach, root):
    found = {f.qualname: f for f in reach.list_functions(root)}
    assert sorted(found) == [
        "Box.unused", "Box.used", "called", "called.<locals>.inner",
        "deco", "deco.<locals>.wrapper", "decorated", "never"]
    # A decorated function is keyed by its first decorator line, which is
    # what ``co_firstlineno`` reports.
    assert found["decorated"].line == MODULE.splitlines().index("@deco") + 1
    assert found["never"].body_lines == 2
    assert found["called"].body_lines == 4  # the nested def counts too
    assert {f.package for f in found.values()} == {"sub"}


def test_report_splits_reached_from_unreached(reach, root, tmp_path):
    entries = [
        reach.Entry("auto", "code",
                    "from fixpkg.sub.mod import Box, called, decorated\n"
                    "called(); decorated(); Box().used()\n"),
        reach.Entry("by-hand", "code",
                    "from fixpkg.sub.mod import never\nnever()\n",
                    manual=True),
    ]
    runs = [reach.run_entry(e, root=root, cwd=tmp_path, timeout_s=60)
            for e in entries]
    assert [run["exit"] for run in runs] == [0, 0]
    report = reach.build_report(reach.list_functions(root), runs, root)
    assert set(report) == {"root", "entries", "totals", "packages",
                           "files", "unreached"}
    assert [e["name"] for e in report["entries"]] == ["auto", "by-hand"]
    assert [u["qualname"] for u in report["unreached"]] == ["Box.unused"]
    assert report["totals"]["all"]["unreached"] == 1
    assert report["totals"]["all"]["functions"] == 8
    # The automated total leaves out the hand-run entry.
    assert report["totals"]["automated"]["unreached"] == 2
    assert report["files"]["sub/mod.py"] == {
        "functions": 8, "unreached": 1, "unreached_body_lines": 2}
    assert report["packages"]["sub"]["unreached_body_lines"] == 2
