"""Guards on the source tree itself: no production code that only tests call,
no second list of names at the package root, no import up the layers, and
no exception class whose exit code its base leaves open."""

import ast
import importlib
from pathlib import Path

import zicobc

SRC = Path(zicobc.__file__).parent

# perfbench's traced runs read count_macs to turn op times into GMAC/s
READ_FROM_OUTSIDE = {"count_macs"}

# each module's layer: tensor < network < latency, proxy < search,
# correlation < cli; the package root holds only the version
LAYERS = {"__init__": 0, "tensor": 1, "network": 2, "latency": 3, "proxy": 3,
          "search": 4, "correlation": 4, "cli": 5}


def _used_names(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every name read as a value or as an attribute."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, node.lineno))
    return uses


def test_every_top_level_definition_is_named_in_src():
    """Every module-level function and class of src/ is read in src/ outside
    its own body.

    The match is by name alone, so it is approximate: a method, attribute
    or local of the same name counts as a use, and a use through getattr
    or a string is missed. Importing a name is not a use, so a name that
    only a package re-export list names still fails.
    """
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    uses = {name: _used_names(tree) for name, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            own_body = range(node.lineno, node.end_lineno + 1)
            named = any(name == node.name and (other != module or line not in own_body)
                        for other, module_uses in uses.items()
                        for name, line in module_uses)
            if not named and node.name not in READ_FROM_OUTSIDE:
                unused.append(f"{module}:{node.lineno} {node.name}")
    assert not unused, f"defined in src/ but read nowhere there: {unused}"


def test_package_root_binds_only_version():
    """Callers import from the modules; the root keeps no second name list."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    bound = [target.id for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets]
    others = [node for node in tree.body
              if not isinstance(node, (ast.Assign, ast.Expr))]
    assert bound == ["__version__"] and not others


def test_modules_import_only_downward():
    """Every relative import in src/, one under `if TYPE_CHECKING` included,
    names a module of a lower layer than the importing one."""
    paths = sorted(SRC.glob("*.py"))
    assert {path.stem for path in paths} == set(LAYERS)
    upward = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                imported = node.module or "__init__"
                if LAYERS[imported] >= LAYERS[path.stem]:
                    upward.append(f"{path.stem} imports {imported} (line {node.lineno})")
    assert not upward, upward


def test_every_exception_class_is_a_value_or_runtime_error():
    """`cli.main` exits 2 on a ValueError and 3 on a RuntimeError, and holds
    no list of classes, so each exception class of src/ derives from exactly
    one of the two."""
    classes = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"zicobc.{path.stem}".removesuffix(".__init__"))
        classes += [obj for obj in vars(module).values()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__]
    assert classes
    both_or_neither = [cls.__qualname__ for cls in classes
                       if issubclass(cls, ValueError) == issubclass(cls, RuntimeError)]
    assert not both_or_neither, both_or_neither
