"""Source guards: input validation must survive python -O, no private
helper is left without a caller, and the package has one elimination,
one check loop, one sparse sum, one schedule runner, one placement
walk, one context walk and one null-homotopy solve, builds tree
categories only in their constructors, and writes functor and
coderivation components only there too."""

import ast
import pathlib

import ainfkit

# Internal post-conditions that may stay asserts, by (module, top-level
# function) with their count; every input check raises instead.
POST_CONDITIONS = {
    ("homquot", "stages_to_tree"): 1,
}

# The top-level functions and classes that invert a scalar, by (module,
# name): graded.Echelon is the one elimination.
INVERTERS = {
    ("graded", "Echelon"),
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


# The top-level definitions that turn an (offset, arity) schedule into
# engine stages, by (module, name): tree_pipeline is the one schedule
# runner.
UNIT_STAGERS = {
    ("trees", "tree_pipeline"),
}
STAGE_RUNNERS = {
    ("trees", "tree_pipeline"),
}

# The top-level definitions that build a Stage from a list of blocks, by
# (module, name): _padded pads one block list with identities, and
# _chain_into feeds every placement of functor and coderivation blocks,
# from the one placement walk functors._placements, into one operation,
# building one Stage per distinct block list.
STAGE_BUILDERS = {
    ("quiver", "_padded"),
    ("functors", "_chain_into"),
}

# The top-level definitions that call solve_linear, by (module, name):
# in_image solves for a preimage under one stored map, and null_homotopy
# is the one solve against the Hom-complex differential (map_boundary).
SOLVERS = {
    ("graded", "in_image"),
    ("graded", "null_homotopy"),
}

# The top-level definitions that walk chains from or to a given object
# (bounded_tensors with start or end), by (module, name): freecat._contexts
# is the one walk of one-hole contexts, read by the span saturation and by
# check_factorizes.
END_WALKERS = {
    ("freecat", "_contexts"),
}


# The classes whose constructors write a components or r0 attribute, by
# (module, class); nothing else writes one.  A functor's and a
# coderivation's components and r0 are fixed once constructed, which the
# placement plans that functors._chain_into keeps rely on.  QuiverMap
# fills its own per-pair components in its constructor.
COMPONENT_WRITERS = {
    ("functors", "AInfFunctor"),
    ("functors", "Coderivation"),
    ("quiver", "QuiverMap"),
}
FIXED_ATTRS = ("components", "r0")
DICT_MUTATORS = ("update", "pop", "popitem", "setdefault", "clear")


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


def _callers(name):
    """(module, top-level definition) for every definition calling name."""
    return {(module, top.name) for module, top in top_level_defs()
            if any(isinstance(node, ast.Call)
                   and name in (getattr(node.func, "id", None),
                                getattr(node.func, "attr", None))
                   for node in ast.walk(top))}


def test_one_schedule_runner():
    assert _callers("unit_stage") == UNIT_STAGERS, "unit stage outside"
    assert _callers("run_stages") == STAGE_RUNNERS, "stages run outside"


def test_tree_categories_built_only_by_constructors():
    # a tree category comes only from its constructors, never from a
    # check or a homotopy built on another one
    assert _callers("homotopy_quotient") == set(), "a second tree category"
    assert _callers("tree_category") == {("freecat", "free_category")}


def test_one_null_homotopy_solve():
    assert _callers("solve_linear") == SOLVERS, "solves outside"


def test_one_placement_walk():
    assert _callers("Stage") == STAGE_BUILDERS, "stages built outside"


def _walks_from_an_end(node):
    """A bounded_tensors call given start or end, by keyword or position."""
    return (isinstance(node, ast.Call)
            and "bounded_tensors" in (getattr(node.func, "id", None),
                                      getattr(node.func, "attr", None))
            and (len(node.args) > 4
                 or any(kw.arg in ("start", "end") for kw in node.keywords)))


def test_one_context_walk():
    found = {(module, top.name) for module, top in top_level_defs()
             if any(_walks_from_an_end(node) for node in ast.walk(top))}
    assert found == END_WALKERS, "end-anchored walks outside: %r" % (
        sorted(found ^ END_WALKERS),)


def _fixed_attr(node):
    """x.components or x.r0, or an item of one, at any depth."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr in FIXED_ATTRS


def _writes_fixed(node):
    """An assignment to, a del of, or a mutating call on _fixed_attr."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return (node.func.attr in DICT_MUTATORS
                and _fixed_attr(node.func.value))
    else:
        return False
    return any(_fixed_attr(t) for target in targets
               for t in (target.elts if isinstance(target, (ast.Tuple, ast.List))
                         else [target]))


def component_writes(tree, module):
    """(module, class or None, function) for every write of a components
    or r0 attribute in a parsed module."""
    found = set()
    for top in tree.body:
        owners = ([(top.name, item) for item in top.body]
                  if isinstance(top, ast.ClassDef) else [(None, top)])
        for cls, fn in owners:
            if any(_writes_fixed(node) for node in ast.walk(fn)):
                found.add((module, cls, getattr(fn, "name", None)))
    return found


def test_components_written_only_by_constructors():
    found = set()
    for module, tree in package_trees():
        found |= component_writes(tree, module)
    want = {(module, cls, "__init__") for module, cls in COMPONENT_WRITERS}
    assert found == want, "components written outside constructors: %r" % (
        sorted(found ^ want, key=repr),)
    # the guard sees each kind of write
    for line in ("f.components[2] = op", "del r.r0[X]", "f.components = {}",
                 "r.r0.update(more)", "f.components.pop(2, None)",
                 "f.components[2], x = op, 1"):
        tree = ast.parse("def g(f, r, op, X, more):\n    %s\n" % line)
        assert component_writes(tree, "m") == {("m", None, "g")}, line
