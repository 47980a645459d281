"""Where each decision lives: checks of src/moverb's structure, not its behaviour."""

import ast
import pathlib

import moverb

PACKAGE = pathlib.Path(moverb.__file__).parent


def package_imports(tree):
    """The moverb modules a module's imports name ("" for the package itself)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # from . import x, from .x import y
                module = node.module
            elif (node.module or "").split(".")[0] == "moverb":
                module = node.module.partition(".")[2]
            else:
                continue
            if module:
                names.add(module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "moverb":
                    names.add(rest.split(".")[0])
    return names


def defines(tree, name):
    return any(
        isinstance(node, ast.FunctionDef) and node.name == name for node in ast.walk(tree)
    )


def test_the_grid_and_the_bank_each_have_one_home():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    # trajectory places, names and restores the grid nodes on its own
    assert package_imports(trees["trajectory"]) == set()
    # the bank's module states where a delay reads, not the row kernel
    assert "_kernels" not in package_imports(trees["farrow"])
    for name in ("restore_cubic", "_frame_index"):
        homes = [module for module, tree in trees.items() if defines(tree, name)]
        assert homes == ["trajectory"], name
