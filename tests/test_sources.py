"""Source guards: input validation must survive python -O, no private
helper is left without a caller, and the package has one elimination,
one check loop and one sparse sum."""

import ast
import pathlib

import ainfkit

# Internal post-conditions that may stay asserts, by (module, top-level
# function) with their count; every input check raises instead.
POST_CONDITIONS = {
    ("graded", "split_semisplit"): 3,
    ("homquot", "term_stages"): 1,
    ("homquot", "stages_to_tree"): 1,
}

# The top-level functions and classes that invert a scalar, by (module,
# name): graded.Echelon is the one elimination, and left_unit_homotopy
# inverts the coefficient of a mirrored name.
INVERTERS = {
    ("graded", "Echelon"),
    ("homquot", "left_unit_homotopy"),
}

# The top-level functions and classes that hold an except handler, by
# (module, name): Report.tally is the one check loop, and the only place
# that turns an escaped bound into a skip.
CATCHERS = {
    ("report", "Report"),
}

# The top-level functions and classes that add into a sparse map and
# delete what cancels, by (module, name): graded.accumulate is the one
# sparse sum, Echelon.insert keeps its column index in step with every
# entry, and apply_stage keeps the engine's hottest loop inline.
SUMMERS = {
    ("graded", "accumulate"),
    ("graded", "Echelon"),
    ("quiver", "apply_stage"),
}


def package_trees():
    """(module name, parsed source) for every module of the package."""
    for path in sorted(pathlib.Path(ainfkit.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def assert_counts():
    """(module, top-level function or None) -> asserts in the package."""
    counts = {}
    for module, tree in package_trees():
        for top in tree.body:
            owner = top.name if isinstance(
                top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Assert):
                    key = (module, owner)
                    counts[key] = counts.get(key, 0) + 1
    return counts


def test_no_validation_asserts():
    counts = assert_counts()
    extra = {key: n for key, n in counts.items()
             if n > POST_CONDITIONS.get(key, 0)}
    assert not extra, "asserts outside the post-condition allow-list: %r" % (extra,)


def test_no_unreferenced_private_helpers():
    # a module-level _helper that nothing in the package uses outside its
    # own body is left over from a deletion
    helpers = {}
    used = set()
    for module, tree in package_trees():
        for top in tree.body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = top.name
                if owner.startswith("_") and not owner.startswith("__"):
                    helpers[owner] = module
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    ref = node.id
                elif isinstance(node, ast.Attribute):
                    ref = node.attr
                elif isinstance(node, ast.alias):
                    ref = node.name
                else:
                    continue
                if ref != owner:
                    used.add(ref)
    orphans = sorted("%s.%s" % (mod, name) for name, mod in helpers.items()
                     if name not in used)
    assert not orphans, "private helpers nothing references: %r" % (orphans,)


def top_level_defs():
    """(module, node) for every top-level function or class."""
    for module, tree in package_trees():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                yield module, top


def test_one_elimination():
    found = {(module, top.name) for module, top in top_level_defs()
             if any(isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "inv" for node in ast.walk(top))}
    assert found == INVERTERS, "scalar inverses outside the allow-list"


def test_one_check_loop():
    found = {(module, top.name) for module, top in top_level_defs()
             if any(isinstance(node, ast.ExceptHandler)
                    for node in ast.walk(top))}
    assert found == CATCHERS, "except handlers outside the allow-list: %r" % (
        sorted(found - CATCHERS),)


def _two_arg_call(node, attr):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr and len(node.args) == 2)


def _cancels(node):
    """del d[k], d.pop(k, default), or .add/.sub applied to d.get(k, z)."""
    if isinstance(node, ast.Delete):
        return any(isinstance(t, ast.Subscript) for t in node.targets)
    if _two_arg_call(node, "pop"):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("add", "sub")
            and any(_two_arg_call(x, "get")
                    for x in [node.func.value, *node.args]))


def test_one_sparse_sum():
    found = {(module, top.name) for module, top in top_level_defs()
             if any(_cancels(node) for node in ast.walk(top))}
    assert found == SUMMERS, "add-and-cancel loops outside the allow-list: %r" % (
        sorted(found ^ SUMMERS),)
