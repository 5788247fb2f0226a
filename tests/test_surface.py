"""The package exports only what the program calls, and the benchmark's
call-time lookups still find their targets.

Every public top-level function and class of every module of `src/prformer`
must be reached from program code in `src/` or `perfbench/` (tests
excluded), other than from inside its own definition. A name counts as
reached when it is read bare inside its module, imported by name from it,
or read as an attribute of the module under an imported alias
(`T.permute`); `np.zeros` does not reach `tensor.zeros`. Public methods and
properties are matched by name only: each must be read as `.name`
somewhere in program code.

`perfbench/` finds its targets by name when it runs and skips a missing
one silently, so moving a name out of `src/` would only drop metrics;
the last test turns that into a failure here.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from prformer import data, training

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "prformer"
CHECKED = tuple(sorted(p.stem for p in PACKAGE.glob("*.py")))


def _perfbench_files():
    return sorted(p for p in (ROOT / "perfbench").glob("*.py")
                  if not p.name.startswith("test_"))


def _program_files():
    return sorted(PACKAGE.glob("*.py")) + _perfbench_files()


def _module_imports(tree):
    """(alias -> module, bare name -> (module, name)) for imports of CHECKED."""
    aliases, names = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if node.level == 1 and not source or source == "prformer":
            for a in node.names:
                if a.name in CHECKED:
                    aliases[a.asname or a.name] = a.name
        else:
            module = source.split(".")[-1]
            if module in CHECKED and (node.level == 1 or source.startswith("prformer.")):
                for a in node.names:
                    names[a.asname or a.name] = (module, a.name)
    return aliases, names


def _references(path):
    """Every (module, name) of CHECKED read in `path`, outside the name's own body."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases, names = _module_imports(tree)
    own = path.stem if path.parent == PACKAGE else None
    found = set()

    def visit(node, inside):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            found.add((aliases[node.value.id], node.attr))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in names:
                found.add(names[node.id])
            elif own is not None and node.id != inside:
                found.add((own, node.id))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for top in tree.body:
        inside = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        visit(top, inside)
    return found


def _public_definitions():
    for module in CHECKED:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) \
                    and not top.name.startswith("_"):
                yield module, top


def test_every_public_name_is_reached_from_program_code():
    reached = set().union(*(_references(p) for p in _program_files()))
    unreached = [f"{module}.{top.name}" for module, top in _public_definitions()
                 if (module, top.name) not in reached]
    assert not unreached, f"called only by tests, delete or move into tests/: {unreached}"


def test_every_public_method_is_read_from_program_code():
    read = {node.attr for path in _program_files()
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{module}.{cls.name}.{fn.name}"
              for module, cls in _public_definitions() if isinstance(cls, ast.ClassDef)
              for fn in cls.body
              if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
              and fn.name not in read]
    assert not unread, f"called only by tests, delete or move into tests/: {unread}"


def test_perfbench_lookups_find_their_targets(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()

    # hostprobe.between_batches swaps this name to probe between batches
    assert getattr(training, "window_iter", None) is data.window_iter

    missing = []
    for path in _perfbench_files():
        tree = ast.parse(path.read_text())
        aliases, names = _module_imports(tree)
        wanted = set(names.values()) | {
            (aliases[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases}
        for module, name in sorted(wanted):
            if not hasattr(importlib.import_module(f"prformer.{module}"), name):
                missing.append(f"{path.name}: {module}.{name}")
    assert not missing, f"perfbench reads names prformer no longer has: {missing}"
