import ast
from pathlib import Path

import cycloset

# Each module may import only the modules listed before it.
LAYERS = ("arith", "cosets", "system", "tower", "cli")
PACKAGE = Path(cycloset.__file__).parent


def _sibling_imports(path: Path) -> set[str]:
    """Modules of the package imported anywhere in `path`, function bodies
    included; "__init__" stands for the package itself."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                parts = node.module.split(".") if node.module else []
            elif node.module and node.module.split(".")[0] == "cycloset":
                parts = node.module.split(".")[1:]
            else:
                continue
            if parts:
                found.add(parts[0])
            else:
                # `from . import x`: each name is a module or a package export
                found.update(a.name if a.name in LAYERS else "__init__" for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "cycloset":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_imports_follow_the_layers():
    for i, name in enumerate(LAYERS):
        imported = _sibling_imports(PACKAGE / f"{name}.py")
        later = imported - set(LAYERS[:i])
        assert not later, f"{name} imports {sorted(later)}, which are not below it"


def test_import_scan_sees_function_bodies(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from .arith import val\n"
        "def f():\n"
        "    from .tower import enumerate_cosets\n"
        "    import cycloset.cli\n"
        "    from . import system, digits_value\n"
    )
    assert _sibling_imports(src) == {"arith", "tower", "cli", "system", "__init__"}
