"""The engine and model layers export only what the program calls.

Every public top-level function and class of the modules below must be
reached from program code in `src/` or `perfbench/` (tests excluded), other
than from inside its own definition. A name counts as reached when it is
read bare inside its module, imported by name from it, or read as an
attribute of the module under an imported alias (`T.permute`); `np.zeros`
does not reach `tensor.zeros`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "prformer"
CHECKED = ("tensor", "nn", "pre", "encoder", "revin", "model")
# Tape is the op tape tests build their op-count and flops checks on;
# grad_check is the finite-difference oracle
ALLOWED = {("tensor", "Tape"), ("tensor", "grad_check")}


def _program_files():
    files = sorted(PACKAGE.glob("*.py"))
    files += sorted(p for p in (ROOT / "perfbench").glob("*.py")
                    if not p.name.startswith("test_"))
    return files


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
    own = path.stem if path.parent == PACKAGE and path.stem in CHECKED else None
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
                yield module, top.name


def test_every_public_name_is_reached_from_program_code():
    reached = set().union(*(_references(p) for p in _program_files()))
    unreached = [f"{module}.{name}" for module, name in _public_definitions()
                 if (module, name) not in reached | ALLOWED]
    assert not unreached, f"called only by tests, delete or move into tests/: {unreached}"


def test_allowlist_names_existing_definitions():
    assert ALLOWED <= set(_public_definitions())
