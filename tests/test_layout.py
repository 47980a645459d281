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


def private_reads(tree, modules):
    """The underscore names of other moverb modules that a module imports,
    or reads as module._name through a module it imports by name.

    Importing a module itself, the package-private _kernels included, is
    not a read.
    """
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "moverb"
        ):
            for alias in node.names:
                if alias.name in modules:
                    bound.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
            and node.attr.startswith("_")
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    found = {
        module: private_reads(tree, set(trees) - {"__init__", "__main__"})
        for module, tree in trees.items()
    }
    assert {module: names for module, names in found.items() if names} == {}


def callee(node):
    """The name a call calls, f for f(...) and m.f(...); None for any other node."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", getattr(node.func, "attr", None))
    return None


def test_the_image_set_and_the_budget_each_have_one_home():
    # every renderer, the static references included, chooses its images
    # and is held to eval_budget through select_images
    homes = {"enumerate_images": set(), "BudgetError": set(), "eval_budget": set()}
    for p in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(p.read_text())):
            if not isinstance(fn, ast.FunctionDef) or fn.name == "__post_init__":
                continue
            where = f"{p.stem}.{fn.name}"
            for node in ast.walk(fn):
                if callee(node) in ("enumerate_images", "BudgetError"):
                    homes[callee(node)].add(where)
                if isinstance(node, ast.Attribute) and node.attr == "eval_budget":
                    homes["eval_budget"].add(where)
    assert homes == {name: {"synth.select_images"} for name in homes}
