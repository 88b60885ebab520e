"""The code runs on Python 3.9, which CI tests and a 3.11-only machine
does not: every file parses as 3.9 grammar, and none calls a standard
library API that 3.10 or later added.

The denylist is short on purpose - the 3.10+ names this code base has
reached for, or nearly has.  Anything else new shows up in CI's 3.9 job.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
TREES = ("src", "tests", "bench", "benchmarks")

BISECTS = {"bisect", "bisect_left", "bisect_right",
           "insort", "insort_left", "insort_right"}


def _name(node):
    """The called name: ``f`` of ``f(...)`` and of ``m.f(...)``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def newer_than_39(node):
    """What ``node`` uses that Python 3.9 does not have, or None."""
    if isinstance(node, ast.Call):
        called = _name(node.func)
        keywords = {keyword.arg for keyword in node.keywords}
        if called in BISECTS and "key" in keywords:
            return f"{called}(key=) is 3.10+"
        if called == "zip" and "strict" in keywords:
            return "zip(strict=) is 3.10+"
        if called == "dataclass" and keywords & {"slots", "kw_only"}:
            return "dataclass(slots=/kw_only=) is 3.10+"
        if called == "bit_count":
            return "int.bit_count() is 3.10+"
    if isinstance(node, ast.Attribute) and node.attr == "pairwise" \
            and _name(node.value) == "itertools":
        return "itertools.pairwise is 3.10+"
    if isinstance(node, ast.ImportFrom) and node.module == "itertools" \
            and any(alias.name == "pairwise" for alias in node.names):
        return "itertools.pairwise is 3.10+"
    return None


def test_every_file_is_python_39():
    found = []
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            where = path.relative_to(ROOT)
            try:
                module = ast.parse(path.read_text(), str(where),
                                   feature_version=(3, 9))
            except SyntaxError as exc:
                found.append(f"{where}:{exc.lineno}: not 3.9 grammar: "
                             f"{exc.msg}")
                continue
            found += [f"{where}:{node.lineno}: {problem}"
                      for node in ast.walk(module)
                      for problem in [newer_than_39(node)] if problem]
    assert not found, "\n".join(found)


def test_the_guard_sees_each_denied_call():
    for source in ("bisect_right(xs, x, key=f)", "bisect.insort(xs, x, key=f)",
                   "zip(a, b, strict=True)", "itertools.pairwise(xs)",
                   "from itertools import pairwise", "(5).bit_count()",
                   "@dataclass(slots=True)\nclass C: pass",
                   "@dataclasses.dataclass(kw_only=True)\nclass C: pass"):
        assert any(newer_than_39(node)
                   for node in ast.walk(ast.parse(source))), source
    assert not any(newer_than_39(node) for node in ast.walk(ast.parse(
        "bisect_right(xs, x, lo=1); zip(a, b); dataclass(frozen=True)")))
