"""ROADMAP aim 2's two tracked numbers, recomputed from the source.

A settable value is a defaulted function parameter or a ``**kwargs`` under
``src/repro``, or a defaulted field of ``Settings``. ROADMAP.md records the
count as "settable values: N", and the lines of ``src/repro/**/*.py`` as
the first number after "net line count of `src/` ("; a change that moves
either number updates it in the same change.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _settable(tree: ast.AST) -> int:
    n = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            n += len(a.defaults) + sum(d is not None for d in a.kw_defaults)
            n += a.kwarg is not None
        elif isinstance(node, ast.ClassDef) and node.name == "Settings":
            n += sum(
                isinstance(st, ast.AnnAssign)
                and st.value is not None
                and "ClassVar" not in ast.unparse(st.annotation)
                for st in node.body
            )
    return n


def test_counter_sees_each_kind():
    src = (
        "def f(a, b=1, *, c, d=2, **kw): pass\n"
        "g = lambda x=0: x\n"
        "class Settings:\n"
        "    sf: float\n"
        "    days: int = 33\n"
        "    slots: ClassVar[int] = 48\n"
    )
    assert _settable(ast.parse(src)) == 5


def test_count_matches_roadmap():
    count = sum(
        _settable(ast.parse(f.read_text())) for f in (ROOT / "src" / "repro").rglob("*.py")
    )
    recorded = re.search(r"settable values: (\d+)", (ROOT / "ROADMAP.md").read_text())
    assert recorded, "ROADMAP.md records no 'settable values: N'"
    assert count == int(recorded.group(1))


def test_src_line_count_matches_roadmap():
    count = sum(
        len(f.read_text().splitlines()) for f in (ROOT / "src" / "repro").rglob("*.py")
    )
    recorded = re.search(r"net line count of `src/` \((\d+)", (ROOT / "ROADMAP.md").read_text())
    assert recorded, "ROADMAP.md records no 'net line count of `src/` (N'"
    assert count == int(recorded.group(1))
