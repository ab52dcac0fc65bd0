"""Every public name that src/szdl defines is used by src/ or bench/, not only by tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trees(directory):
    return [(path, ast.parse(path.read_text())) for path in sorted((ROOT / directory).glob("*.py"))]


def test_no_public_name_only_tests_use():
    src = _trees("src/szdl")
    defined = []  # (owner, name): module-level functions and classes, and class methods
    for path, tree in src:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{path.stem}.{node.name}", item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef)]
    used = set()
    for _, tree in src + _trees("bench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    unused = [f"{owner}.{name}" for owner, name in defined
              if not name.startswith("_") and name not in used]
    assert not unused, f"public API that only tests call: {unused}"
