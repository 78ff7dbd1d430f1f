"""The benchmark's use of the package API still resolves, and its gate still passes.

`perfbench/` calls skeltop as `sk.<name>` and through `from skeltop.<module>
import <name>`. This reads those sources as syntax trees and checks that every
such name exists, so a change that drops or renames a public name the
benchmark needs fails here rather than in a benchmark run. The benchmark's
gate self-test (`perfbench/selftest.py`) runs in a subprocess for the same
reason: a change that breaks the correctness gate fails here too.
"""

import ast
import importlib
import pathlib
import subprocess
import sys

import pytest

import skeltop

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def skeltop_references(path):
    """(line, dotted name) for each skeltop attribute chain and from-import in `path`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    aliases = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "skeltop"}
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "skeltop":
            refs += [(node.lineno, f"{node.module}.{alias.name}") for alias in node.names]
        elif isinstance(node, ast.Attribute):
            chain = [node.attr]
            root = node.value
            while isinstance(root, ast.Attribute):
                chain.append(root.attr)
                root = root.value
            if isinstance(root, ast.Name) and root.id in aliases:
                refs.append((node.lineno, ".".join(["skeltop", *reversed(chain)])))
    return refs


def resolves(dotted):
    """Whether `skeltop.a.b...` names an attribute or a submodule."""
    obj, path = skeltop, "skeltop"
    for part in dotted.split(".")[1:]:
        path += "." + part
        try:
            obj = getattr(obj, part)
        except AttributeError:
            try:
                obj = importlib.import_module(path)
            except ImportError:
                return False
    return True


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_skeltop_name_perfbench_uses_resolves(path):
    missing = [f"{path.name}:{line} {name}" for line, name in skeltop_references(path)
               if not resolves(name)]
    assert not missing, missing


def test_the_walk_finds_both_forms_in_perfbench():
    """With nothing found, the check above would pass vacuously."""
    found = {name for path in SOURCES for _, name in skeltop_references(path)}
    assert {name.count(".") for name in found} >= {1, 2}, found


def test_a_missing_name_is_reported(tmp_path):
    src = tmp_path / "uses.py"
    src.write_text("import skeltop as sk\nfrom skeltop.volume import nope\nsk.esa\nsk.gone\n")
    refs = skeltop_references(src)
    assert sorted(refs) == [(2, "skeltop.volume.nope"), (3, "skeltop.esa"), (4, "skeltop.gone")]
    assert sorted(name for _, name in refs if not resolves(name)) == [
        "skeltop.gone", "skeltop.volume.nope"]


def test_the_benchmark_gate_self_test_passes(tmp_path):
    """perfbench/selftest.py exits 0, run from outside the checkout (about 2 s)."""
    res = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")], cwd=tmp_path,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stdout + res.stderr
