"""Every `Letter` the library builds comes from the intern helper of
`JetContext`, so no route to a letter bypasses a context's tables.

Letters built elsewhere would still be correct, since letters compare by
value, but they would miss the identity fast path the tables give."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cycvar"
MODULES = sorted(SRC.glob("*.py"))
INTERN = "JetContext._intern"


def letter_calls(tree: ast.Module) -> list[tuple[str, int]]:
    """(qualified name of the enclosing function or class, line) of each
    call of `Letter` or `<module>.Letter`; '' at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "Letter":
                    found.append((scope, child.lineno))
            visit(child, inner)

    visit(tree, "")
    return found


def test_modules_found():
    assert {"jets.py", "operators.py", "words.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_letters_are_built_by_the_intern_helper_only(path):
    calls = letter_calls(ast.parse(path.read_text(), filename=str(path)))
    allowed = {INTERN} if path.name == "jets.py" else set()
    stray = [f"{scope or '<module>'} (line {line})" for scope, line in calls if scope not in allowed]
    assert not stray, f"{path.name}: Letter built outside {INTERN}: {', '.join(stray)}"
    if path.name == "jets.py":
        assert [scope for scope, _ in calls] == [INTERN]


def test_detects_a_stray_call():
    tree = ast.parse(
        "class JetContext:\n"
        "    def _intern(self, odd, index, orders):\n"
        "        return Letter(odd, index, sum(orders), orders)\n"
        "    def shift(self, letter, d):\n"
        "        return words.Letter(letter.odd, letter.index, 1, (1,))\n"
        "SLOT = Letter(False, 0, 0, (0,))\n"
    )
    assert letter_calls(tree) == [(INTERN, 3), ("JetContext.shift", 5), ("", 6)]
