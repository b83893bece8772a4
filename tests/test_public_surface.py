"""Every public module-level name of the engine has a caller, the package's
re-exports resolve, every name an engine module imports is used in it,
every private module-level name of the engine is used in the engine, and no
module-level name is defined in two engine modules.

A public name (a module-level `def`, `class` or assignment in `src/mvli`
not starting with `_`) passes when the engine itself uses it (an identifier
in a `src/mvli` module other than `__init__`, its own module included), when
the benchmark harness under `perfbench/` uses it, or when the README
documents it (in backticks or in its import block).  Re-exporting a name
from `__init__` does not call it.  Identifiers are found with `ast`, so a
word in a docstring or a comment does not count, and neither does the
name's own definition.
"""

import ast
import re
from pathlib import Path

import mvli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mvli"


def referenced_identifiers(paths) -> set[str]:
    """Names read, attributes accessed and names imported in the given files."""
    names: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name.split(".")[-1])
    return names


def readme_names() -> set[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    spans = re.findall(r"`([^`\n]+)`", text)
    spans += re.findall(r"^from mvli import \((.*?)\)", text, re.S | re.M)
    return {word for span in spans for word in re.findall(r"[A-Za-z_]\w*", span)}


def reexported() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return sorted(alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) for alias in node.names)


def test_every_public_name_has_a_caller():
    callers = (referenced_identifiers(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
               | referenced_identifiers((ROOT / "perfbench").rglob("*.py"))
               | readme_names())
    uncalled = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
                for name in module_level_names(ast.parse(path.read_text(encoding="utf-8")))
                if not name.startswith("_") and name not in callers]
    assert uncalled == []


def test_reexports_resolve():
    names = reexported()
    assert names and all(hasattr(mvli, name) for name in names)


def test_every_import_is_used():
    """Each name a `src/mvli` module other than `__init__` binds by an import
    (`__future__` features aside) is read somewhere in that module."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert unused == []


def module_level_names(tree: ast.Module) -> list[str]:
    """Names a module defines at its top level by `def`, `class` or
    assignment, dunders aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def test_every_private_name_is_used():
    """Each private module-level name (`_x`, not a dunder) that a `src/mvli`
    module defines, by `def`, `class` or assignment, is read somewhere in
    `src/mvli`: loaded as a name, accessed as an attribute or imported.  So
    a helper whose last caller is deleted does not stay behind."""
    defined, read = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(path.name, name) for name in module_level_names(tree)
                    if name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.split(".")[-1])
    assert [f"{module}: {name}" for module, name in defined if name not in read] == []


def test_no_name_is_defined_in_two_modules():
    """No module-level function, class or constant name is defined in two
    `src/mvli` modules: a helper or a setting has one home, and any other
    module that needs it imports it from there."""
    homes: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name in set(module_level_names(ast.parse(path.read_text(encoding="utf-8")))):
            homes.setdefault(name, []).append(path.name)
    assert {name: files for name, files in homes.items() if len(files) > 1} == {}


def test_only_core_handles_binary_files():
    """No `src/mvli` module but `core` imports `struct` or `zlib`, opens a
    file in a binary write mode or calls `write_bytes`: the binary framing,
    its checksums and the replace-into-place save live in one module."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                           else [node.module or ""])
                found += [f"{path.name}:{node.lineno} imports {module}" for module in modules
                          if module.split(".")[0] in ("struct", "zlib")]
            elif isinstance(node, ast.Call):
                func = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                modes = [arg.value for arg in node.args + [kw.value for kw in node.keywords]
                         if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                         and set(arg.value) <= set("rwxabt+") and "b" in arg.value
                         and set(arg.value) & set("wxa+")]
                if func == "write_bytes" or (func == "open" and modes):
                    found.append(f"{path.name}:{node.lineno} calls {func}")
    assert found == []
