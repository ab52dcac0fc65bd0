"""The public surface of src/szdl: every public name is used by src/ or bench/, not only
by tests, every defaulted parameter and every config field is passed by some call there,
and every exception raised is the type of one CLI exit code."""

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


def _passes(call, index, name):
    """Whether a call passes parameter ``name`` (at ``index``, if positional)."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_defaulted_parameter_is_passed():
    """A default that no call in src/ or bench/ overrides is a constant, not a parameter."""
    calls = {}  # called name -> calls
    for _, tree in _trees("src/szdl") + _trees("bench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = []
    for path, tree in _trees("src/szdl"):
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                          if d is not None]
            unpassed += [f"{path.stem}.{fn.name}({name}=)" for index, name in defaulted
                         if not any(_passes(c, index, name) for c in calls.get(fn.name, []))]
    # bench runs the CLI through Run.call(name, cli.main, argv), not a call expression
    assert unpassed == ["cli.main(argv=)"]


def test_every_config_field_is_passed():
    """A config field that no call in src/ or bench/ sets, by keyword to its class or to
    ``replace(...)``, is a constant, not a field."""
    passed = {}  # called name -> keyword names
    for _, tree in _trees("src/szdl") + _trees("bench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                passed.setdefault(name, set()).update(kw.arg for kw in node.keywords)
    unpassed = []
    for path, tree in _trees("src/szdl"):
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef)
                    and any(ast.unparse(base) == "JsonConfig" for base in cls.bases)):
                continue
            fields = [item.target.id for item in cls.body if isinstance(item, ast.AnnAssign)
                      and not ast.unparse(item.annotation).startswith("ClassVar")]
            unpassed += [f"{cls.name}.{name}" for name in fields
                         if not {name, None} & (passed.get(cls.name, set())
                                                | passed.get("replace", set()))]
    assert not unpassed, f"config fields that only take their default: {unpassed}"


def _raised_name(node):
    """Dotted name of the class a ``raise`` statement raises."""
    if node.exc is None:
        return "(re-raise)"
    return ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)


def test_errors_defines_only_the_two_exit_code_types():
    tree = ast.parse((ROOT / "src/szdl/errors.py").read_text())
    assert [n.name for n in tree.body if isinstance(n, ast.ClassDef)] == [
        "DataError", "NumericalError"]


def test_every_raise_names_an_exit_code_type():
    """DataError (exit 2), NumericalError (exit 3) or ValueError (exit 1), bar the listed spots."""
    unexpected = []
    for path, tree in _trees("src/szdl"):
        lines = path.read_text().splitlines()
        owner = {}  # node -> innermost enclosing function; walk visits outer functions first
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise):
                continue
            name = _raised_name(node)
            if name in ("DataError", "NumericalError", "ValueError"):
                continue
            if name == "AssertionError" and lines[node.lineno - 2].endswith("# pragma: no cover"):
                name += " (no cover)"
            unexpected.append((path.stem, owner.get(node, "<module>"), name))
    assert sorted(unexpected) == [
        ("augment", "apply_plan", "AssertionError (no cover)"),
        ("cli", "_out_dir", "argparse.ArgumentTypeError"),
        ("config", "from_dict", "TypeError"),  # both callers turn it into ValueError or DataError
        ("config", "from_dict", "TypeError"),
        ("model", "run", "AssertionError (no cover)"),
    ]
