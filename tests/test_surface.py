"""The public surface of src/szdl: every public name is used by src/ or bench/, not only
by tests, every defaulted parameter and every config field is passed by some call there,
every default is relied on and every CLI option passed by some call, a training value
has one setter, and every exception raised is the type of one CLI exit code."""

import argparse
import ast
from dataclasses import fields
from pathlib import Path

from szdl.cli import build_parser
from szdl.train import TrainConfig

ROOT = Path(__file__).resolve().parents[1]


def _trees(directory):
    return [(path, ast.parse(path.read_text())) for path in sorted((ROOT / directory).glob("*.py"))]


def _calls(*directories):
    """Called name -> the calls of that name in the modules of ``directories``."""
    calls = {}
    for directory in directories:
        for _, tree in _trees(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    calls.setdefault(name, []).append(node)
    return calls


def _public_defaults():
    """(module, function, index if positional else None, name) per default of a public
    module-level function in src/szdl."""
    for path, tree in _trees("src/szdl"):
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            yield from ((path.stem, fn.name, i, a.arg)
                        for i, a in enumerate(positional) if i >= first)
            yield from ((path.stem, fn.name, None, a.arg)
                        for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None)


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


def _passes(call, index, name, starred=True):
    """Whether a call passes parameter ``name`` (at ``index``, if positional); a ``*args``
    counts as passing it unless ``starred`` is false."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or starred and any(isinstance(a, ast.Starred)
                                                     for a in call.args)


def test_every_defaulted_parameter_is_passed():
    """A default that no call in src/ or bench/ overrides is a constant, not a parameter."""
    calls = _calls("src/szdl", "bench")
    unpassed = [f"{module}.{fn}({name}=)" for module, fn, index, name in _public_defaults()
                if not any(_passes(c, index, name) for c in calls.get(fn, []))]
    # bench runs the CLI through Run.call(name, cli.main, argv), not a call expression
    assert unpassed == ["cli.main(argv=)"]


def test_every_default_is_relied_on():
    """A default that every call overrides is a second setter of the value, not a default.
    Tests count as callers here: the ops' ``tape=None`` defaults serve them.  A ``*args``
    is taken to fill the parameters before the defaulted ones."""
    calls = _calls("src/szdl", "bench", "tests", "tools")
    overridden = [f"{module}.{fn}({name}=)" for module, fn, index, name in _public_defaults()
                  if all(_passes(c, index, name, starred=False) for c in calls.get(fn, []))]
    assert not overridden, f"defaults that no call relies on: {overridden}"


def _subcommands():
    """Subcommand name -> its parser."""
    parser = build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_every_cli_option_is_passed():
    """Every option of every subcommand appears in some argv in bench/, tools/ or tests/.

    An argv is a call's arguments, a list or a tuple whose first string names the
    subcommand; the options it passes are its ``--`` strings.  An option that only tests
    pass stays as a user input; one that nothing passes is dead."""
    subcommands = _subcommands()
    passed = {name: set() for name in subcommands}
    for directory in ("bench", "tools", "tests"):
        for _, tree in _trees(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    items = node.args
                elif isinstance(node, (ast.List, ast.Tuple)):
                    items = node.elts
                else:
                    continue
                strings = [item.value for item in items if isinstance(item, ast.Constant)
                           and isinstance(item.value, str)]
                if strings and strings[0] in subcommands:
                    passed[strings[0]].update(s for s in strings if s.startswith("--"))
    unpassed = [f"{name} {option}" for name, parser in subcommands.items()
                for action in parser._actions for option in action.option_strings
                if option.startswith("--") and option != "--help"
                and option not in passed[name]]
    assert not unpassed, f"CLI options that no argv passes: {unpassed}"


def test_no_train_option_sets_a_run_config_field():
    """A training value has one setter, the run config: no option of ``szdl train``
    overrides a ``TrainConfig`` field."""
    dests = {action.dest for action in _subcommands()["train"]._actions}
    assert not dests & {f.name for f in fields(TrainConfig)}


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
