"""Source guards: no assert in the package (a stand-in for a lint rule:
python -O strips them), no private helper is left without a caller,
every import is used, and the package has one elimination, one check
loop, one sparse sum, one schedule runner, one placement walk, one
context walk, one null-homotopy solve, one per-pair map and one
per-name commutator, one shape of a complex and one read-back of
elementary-map coordinates, builds tree categories only in their
constructors, writes functor and coderivation components and category
operations only there too, feeds no whole outer stage a middle state
(another stage's output, or a copy of an operation's value), copies no
partial sum in a loop, and has one admissibility filter of tree
shapes."""

import ast
import pathlib

import ainfkit

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


# The top-level classes that define apply, by (module, class): QuiverMap
# is the one linear map of quivers stored per pair, and PartialHomotopy
# is a QuiverMap that adds only apply's refusals (its constructor takes
# the truncated category whose bound apply reads).
APPLIERS = {
    ("quiver", "QuiverMap"),
    ("homquot", "PartialHomotopy"),
}

# The top-level definitions that call QuiverMap.commutator, the one Hom
# differential of a per-pair map taken name by name, by (module, name).
COMMUTATOR_CALLERS = {
    ("quiver", "QuiverMap"),
    ("category", "verify_unit_homotopy"),
    ("barquot", "check_contraction"),
    ("barquot", "check_comparison"),
}

# The top-level definitions that call unflatten_map, the one read-back of
# elementary-map coordinates as a stored map, by (module, name).
UNFLATTENERS = {
    ("graded", "null_homotopy"),
    ("yoneda", "TruncatedTransComplex"),
}

# The top-level definitions that list object chains by _hom_chains, by
# (module, name); the truncated window walks bounded_tensors instead.
CHAIN_LISTERS = {
    ("yoneda", "check_hX"),
    ("yoneda", "check_Y"),
}

# The top-level definitions that read a shape table's rows, by (module,
# name): trees.admissible_rows is the one admissibility filter, and the
# only reader of the rows' needs, which it keeps as row bitsets.
TABLE_READERS = {
    ("trees", "shape_table"),
    ("trees", "tree_shapes"),
    ("trees", "admissible_rows"),
}
# The calls that hand out a shape table or a selection of its rows.
SHAPE_SOURCES = ("shape_table", "tree_shapes", "admissible_rows")

# The names a module imports only for its callers, by (module, name).
RE_EXPORTS = {
    ("freecat", "leaf_count"),
    ("freecat", "vertex_count"),
}

# The classes whose constructors write a components, r0 or ops attribute,
# by (module, class); nothing else writes one.  A functor's and a
# coderivation's components and r0, and a category's operations, are
# fixed once constructed, which the placement plans that
# functors._chain_into keeps, per outer operation, rely on.  QuiverMap
# fills its own per-pair components in its constructor.
COMPONENT_WRITERS = {
    ("category", "AInfCategory"),
    ("functors", "AInfFunctor"),
    ("functors", "Coderivation"),
    ("quiver", "QuiverMap"),
}
FIXED_ATTRS = ("components", "r0", "ops")
DICT_MUTATORS = ("update", "pop", "popitem", "setdefault", "clear")


def package_trees():
    """(module name, parsed source) for every module of the package."""
    for path in sorted(pathlib.Path(ainfkit.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def test_no_assert_in_src():
    # every check in the package raises, so none is lost under python -O
    found = sorted("%s:%d" % (module, node.lineno)
                   for module, tree in package_trees()
                   for node in ast.walk(tree) if isinstance(node, ast.Assert))
    assert not found, "asserts in the package: %r" % (found,)


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


def _methods(top):
    return {item.name for item in top.body if isinstance(item, ast.FunctionDef)}


def _returns(node):
    """The expressions a def or lambda returns, both arms of a condition."""
    values = ([node.body] if isinstance(node, ast.Lambda) else
              [r.value for r in ast.walk(node) if isinstance(r, ast.Return)])
    while any(isinstance(v, ast.IfExp) for v in values):
        values = [arm for v in values for arm in (
            (v.body, v.orelse) if isinstance(v, ast.IfExp) else (v,))]
    return values


def _differential_callable(node):
    """A def or lambda (X, Y, el) returning evaluate(op, (X, Y), (el,)):
    an arity-one operation made into a per-name callable."""
    if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
        return False
    params = [a.arg for a in node.args.args]
    if len(params) != 3:
        return False
    for value in _returns(node):
        if (isinstance(value, ast.Call) and len(value.args) == 3
                and "evaluate" in (getattr(value.func, "id", None),
                                   getattr(value.func, "attr", None))):
            pair, factors = value.args[1], value.args[2]
            names = [getattr(x, "id", None) for x in
                     getattr(pair, "elts", []) + getattr(factors, "elts", [])]
            if names == params:
                return True
    return False


def test_one_per_pair_map_and_one_commutator():
    classes = {(module, top.name): top for module, top in top_level_defs()
               if isinstance(top, ast.ClassDef)}
    found = {key for key, top in classes.items() if "apply" in _methods(top)}
    assert found == APPLIERS, "apply outside the allow-list: %r" % (
        sorted(found ^ APPLIERS),)
    partial = classes[("homquot", "PartialHomotopy")]
    assert [base.id for base in partial.bases] == ["QuiverMap"]
    assert _methods(partial) == {"__init__", "apply"}
    # DGData's differential is a QuiverMap: no d or cleaning loop of its own
    assert "d" not in _methods(classes[("category", "DGData")])
    assert _callers("commutator") == COMMUTATOR_CALLERS, "commutator outside"
    # a differential reaches commutator as an operation, never as a
    # callable of its own
    found = {(module, top.name) for module, top in top_level_defs()
             if any(_differential_callable(node) for node in ast.walk(top))}
    assert not found, "per-name differential callables: %r" % (sorted(found),)
    # the guard sees the forms commutator replaced
    for line in ("return lambda X, Y, el: (el.module.zero(el.degree + 1) if "
                 "op is None else evaluate(op, (X, Y), (el,)))",
                 "def d1(X, Y, el):\n        if b1 is None:\n            "
                 "return zero\n        return evaluate(b1, (X, Y), (el,))"):
        tree = ast.parse("def g(op, b1, zero):\n    %s\n" % line)
        assert any(_differential_callable(node)
                   for node in ast.walk(tree)), line


def test_one_shape_of_a_complex_and_one_read_back():
    defs = dict(((module, top.name), top) for module, top in top_level_defs())
    assert ("graded", "_d_map") not in defs, "a second differential map"
    # a Complex is its module and one stored differential
    cx = defs[("graded", "Complex")]
    assert _methods(cx) == {"__init__", "ring", "apply_d", "__repr__"}
    assert {("graded", "Complex")} <= _callers("ChainMap")
    init = next(item for item in cx.body if getattr(item, "name", None)
                == "__init__")
    for fn in (init, defs[("category", "hom_complex")]):
        assert "check" not in [a.arg for a in fn.args.args], fn.name
    # complexes_dg_data validates through Complex, with no loop of its own
    assert ("category", "complexes_dg_data") in _callers("Complex")
    assert ("category", "complexes_dg_data") not in _callers("accumulate")
    assert _callers("unflatten_map") == UNFLATTENERS, "read-backs outside"
    assert _callers("_hom_chains") == CHAIN_LISTERS, "chain listings outside"


def unused_imports(tree, module):
    """(module, name) for every name the parsed module imports and never
    reads."""
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {(module, name) for name in imported - read}


def test_every_import_is_used():
    found = set()
    for module, tree in package_trees():
        found |= unused_imports(tree, module)
    assert found == RE_EXPORTS, "unused imports: %r" % (
        sorted(found ^ RE_EXPORTS),)
    # the guard sees an unused import of either form, and a used one
    tree = ast.parse("import os.path\nimport random\n"
                     "from .graded import accumulate, shift as sh\n"
                     "def f():\n    return random.random() + sh\n")
    assert unused_imports(tree, "m") == {("m", "os"), ("m", "accumulate")}


def _called(node, name):
    return isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def _whole_insert(node):
    """insert(x, 0, 0): the whole stage of one operation."""
    return (_called(node, "insert") and len(node.args) == 3
            and all(isinstance(a, ast.Constant) and a.value == 0
                    for a in node.args[1:]))


COMPREHENSIONS = (ast.DictComp, ast.ListComp, ast.SetComp, ast.GeneratorExp)


def _reads_a_value(state, readings):
    """A comprehension over an on_basis(...) value, or over a name in
    readings (names assigned one)."""
    return isinstance(state, COMPREHENSIONS) and any(
        _called(n, "on_basis") or getattr(n, "id", None) in readings
        for gen in state.generators for n in ast.walk(gen.iter))


def stage_fed_wholes(tree, module):
    """(module, top-level definition) for every apply_stage of a whole
    stage (insert(x, 0, 0), or a name assigned one) whose input is a
    middle state: another apply_stage's output (that call, a name
    assigned it, or a name some apply_stage adds into), or a
    comprehension over an operation's value (_reads_a_value).  A fed
    stage does that in one call."""
    found = set()
    for top in tree.body:
        nodes = list(ast.walk(top))
        calls = [n for n in nodes if _called(n, "apply_stage")]
        wholes, outputs, readings = set(), set(), set()
        for n in nodes:
            if isinstance(n, ast.Assign):
                names = {t.id for t in n.targets if isinstance(t, ast.Name)}
                if _whole_insert(n.value):
                    wholes |= names
                if _called(n.value, "apply_stage"):
                    outputs |= names
                if _called(n.value, "on_basis"):
                    readings |= names
        outputs |= {c.args[2].id for c in calls
                    if len(c.args) > 2 and isinstance(c.args[2], ast.Name)}
        for c in calls:
            if len(c.args) < 2:
                continue
            stage, state = c.args[:2]
            if not (_whole_insert(stage) or getattr(stage, "id", None) in wholes):
                continue
            if (_called(state, "apply_stage") or _reads_a_value(state, readings)
                    or getattr(state, "id", None) in outputs):
                found.add((module, getattr(top, "name", None)))
    return found


def test_no_whole_stage_reads_a_middle_state():
    found = set()
    for module, tree in package_trees():
        found |= stage_fed_wholes(tree, module)
    assert not found, "whole stages fed a middle state: %r" % (sorted(found),)
    # the guard sees the two-call forms that fed stages replaced
    for body in ("apply_stage(insert(op, 0, 0), apply_stage(ins, base), out)",
                 "state = {}\n    for st in group:\n"
                 "        apply_stage(st, base, state)\n"
                 "    apply_stage(insert(op, 0, 0), state, out)",
                 "mid = apply_stage(ins, base)\n    whole = insert(op, 0, 0)\n"
                 "    apply_stage(whole, mid, out)"):
        tree = ast.parse("def g(op, ins, base, group, out):\n    %s\n" % body)
        assert stage_fed_wholes(tree, "m") == {("m", "g")}, body
    # and the middle state of an operation's value, read directly or
    # through a name, that a fed stage replaced too
    for body in ("db = ins.on_basis(objs, names)\n    apply_stage(insert("
                 "op, 0, 0), {k: -c for k, c in db.items()}, out)",
                 "apply_stage(insert(op, 0, 0), {k: -c for k, c in "
                 "ins.on_basis(objs, names).items()}, out)"):
        tree = ast.parse("def g(op, ins, objs, names, out):\n    %s\n" % body)
        assert stage_fed_wholes(tree, "m") == {("m", "g")}, body
    # and passes a whole stage fed a state built otherwise
    tree = ast.parse("def g(op, db, out):\n    apply_stage(insert(op, 0, 0), "
                     "{k: -c for k, c in db.items()}, out)\n")
    assert not stage_fed_wholes(tree, "m")


def _shallow(nodes):
    """Every node under nodes, not descending into a nested def, lambda
    or class."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _copies_a_sum(node):
    """x = <a value holding x.add(...) or x.sub(...)>: the partial sum x
    copied into a new one."""
    if not isinstance(node, ast.Assign):
        return False
    targets = {t.id for t in node.targets if isinstance(t, ast.Name)}
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and n.func.attr in ("add", "sub")
               and getattr(n.func.value, "id", None) in targets
               for n in _shallow([node.value]))


def partial_sum_copies(tree, module):
    """(module, top-level definition) for every for or while loop whose
    body, nested defs and lambdas aside, copies a partial sum."""
    return {(module, getattr(top, "name", None))
            for top in tree.body for loop in ast.walk(top)
            if isinstance(loop, (ast.For, ast.While))
            and any(_copies_a_sum(n) for n in _shallow(loop.body + loop.orelse))}


def test_no_partial_sum_copies():
    found = set()
    for module, tree in package_trees():
        found |= partial_sum_copies(tree, module)
    assert not found, "loops that copy a partial sum: %r" % (sorted(found),)
    # the guard sees the rebinding, in a conditional expression too
    tree = ast.parse("def g(xs, z):\n    for x in xs:\n"
                     "        z = z.sub(x) if x else z.add(x)\n")
    assert partial_sum_copies(tree, "m") == {("m", "g")}
    # and passes a sum into another name, or inside a nested def or lambda
    tree = ast.parse("def g(xs, z):\n    while xs:\n"
                     "        y = z.add(xs.pop())\n"
                     "        h = lambda z: z.add(y)\n"
                     "        def k(z):\n            z = z.add(y)\n"
                     "            return z\n")
    assert not partial_sum_copies(tree, "m")


def _shape_source(node):
    return any(_called(node, name) for name in SHAPE_SOURCES)


def _shape_loops(nodes, tables):
    """Whether a for loop or a comprehension under nodes iterates a shape
    source call or a name bound to one (in tables)."""
    return any(_shape_source(it) or getattr(it, "id", None) in tables
               for it in _loop_iterables(nodes))


def _loop_iterables(nodes):
    """The iterables of every for loop and comprehension under nodes."""
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, (ast.For, ast.AsyncFor, ast.comprehension)):
                yield sub.iter


def per_tensor_shape_loops(tree, module):
    """(module, top-level definition) for every loop over shapes nested in
    a loop over bounded_tensors: a shape test per label tensor."""
    found = set()
    for top in tree.body:
        tables = {t.id for node in ast.walk(top) if isinstance(node, ast.Assign)
                  and _shape_source(node.value)
                  for target in node.targets
                  for t in (target.elts if isinstance(target, ast.Tuple)
                            else [target]) if isinstance(t, ast.Name)}
        for node in ast.walk(top):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if (_called(node.iter, "bounded_tensors")
                        and _shape_loops(node.body, tables)):
                    found.add((module, getattr(top, "name", None)))
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                gens = node.generators
                for i, gen in enumerate(gens):
                    if (_called(gen.iter, "bounded_tensors")
                            and _shape_loops(gens[i + 1:], tables)):
                        found.add((module, getattr(top, "name", None)))
    return found


def test_one_admissibility_filter():
    # no module but trees reads a shape table's rows (so their needs)
    assert _callers("shape_table") == TABLE_READERS, "shape tables read outside"
    found = set()
    for module, tree in package_trees():
        if module != "trees":
            found |= per_tensor_shape_loops(tree, module)
    assert not found, "shape loops per label tensor: %r" % (sorted(found),)
    # the guard sees a row loop per tensor, over a name or a call, in a
    # statement or a comprehension
    for body in ("table = shape_table(n)\n    for g in bounded_tensors(q, n):"
                 "\n        for t, o, needs in table:\n            pass",
                 "for g in bounded_tensors(q, n):\n"
                 "        keep = [t for t in tree_shapes(n) if t]",
                 "keep = [(g, t) for g in bounded_tensors(q, n)\n"
                 "            for t in tree_shapes(n)]"):
        tree = ast.parse("def g(q, n):\n    %s\n" % body)
        assert per_tensor_shape_loops(tree, "m") == {("m", "g")}, body
    # and passes one selection per tensor consumed in C, or a loop over
    # the shapes outside the tensor walk
    for body in ("for g in bounded_tensors(q, n):\n"
                 "        shapes, offsets = admissible_rows(n, 1, 0, 3)\n"
                 "        out.update(zip(shapes, offsets))",
                 "for t in tree_shapes(n):\n        out[t] = n"):
        tree = ast.parse("def g(q, n, out):\n    %s\n" % body)
        assert not per_tensor_shape_loops(tree, "m"), body
