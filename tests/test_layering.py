import ast
from pathlib import Path

import cycloset

# Each module may import only the modules listed before it.
LAYERS = ("arith", "orbits", "cosets", "system", "tower", "cli")
PACKAGE = Path(cycloset.__file__).parent
# The orbit oracle checks the structured path, so of `arith` it may use
# only what no structured result comes from: never `mul_order` or
# `carmichael`.
ORBITS_FROM_ARITH = {"CACHE_SIZE", "factorize"}


def _imports(path: Path) -> set[tuple[str, str | None]]:
    """(module, name) for every import of the package anywhere in `path`,
    function bodies included: name None for the module itself, through
    which any of its names is reachable, and module "__init__" for the
    package itself."""
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
                found.update((parts[0], a.name) for a in node.names)
            else:
                # `from . import x`: each name is a module or a package export
                found.update(
                    (a.name, None) if a.name in LAYERS else ("__init__", a.name)
                    for a in node.names
                )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "cycloset":
                    found.add((parts[1] if len(parts) > 1 else "__init__", None))
    return found


def _sibling_imports(path: Path) -> set[str]:
    """Modules of the package imported anywhere in `path`."""
    return {module for module, _ in _imports(path)}


def _forbidden_arith_names(path: Path) -> set[str | None]:
    return {name for module, name in _imports(path) if module == "arith"} - ORBITS_FROM_ARITH


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_imports_follow_the_layers():
    for i, name in enumerate(LAYERS):
        imported = _sibling_imports(PACKAGE / f"{name}.py")
        later = imported - set(LAYERS[:i])
        assert not later, f"{name} imports {sorted(later)}, which are not below it"


def test_orbits_imports_no_structured_result_from_arith():
    forbidden = _forbidden_arith_names(PACKAGE / "orbits.py")
    assert not forbidden, f"orbits imports {forbidden} from arith"


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


def test_arith_rule_sees_function_bodies_and_module_imports(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from .arith import CACHE_SIZE, factorize\n"
        "def f():\n"
        "    from .arith import mul_order\n"
    )
    assert _forbidden_arith_names(src) == {"mul_order"}
    # the whole module reaches every name, `carmichael` included
    src.write_text("def f():\n    from . import arith\n")
    assert _forbidden_arith_names(src) == {None}
