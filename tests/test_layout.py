"""The package holds only code that a run reaches: every name it defines is used outside tests."""

import ast
from collections import Counter

from conftest import REPO_DIR

SRC_DIR = REPO_DIR / "src" / "postop"


def _names_used(tree: ast.AST) -> Counter:
    """Each identifier that code in tree reads or writes, as a name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_src_name_is_reached_outside_tests():
    # a def or class that only tests name belongs with the tests; dunders are Python's to call
    reachers = [*SRC_DIR.glob("*.py"), *(REPO_DIR / "scripts").glob("*.py"),
                *(REPO_DIR / "perfbench").glob("*.py")]
    used = Counter()
    for path in reachers:
        used += _names_used(ast.parse(path.read_text(), str(path)))
    defined = [(path.name, node) for path in sorted(SRC_DIR.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))]
    # a def's own body (a recursive call) does not reach it
    unreached = sorted(f"{module}:{node.name}" for module, node in defined
                       if used[node.name] == _names_used(node)[node.name])
    assert not unreached, f"defined under src/ but named by no code outside tests: {unreached}"
