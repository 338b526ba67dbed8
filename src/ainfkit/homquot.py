"""Tree resolutions of a category relative to a full subcategory.

Basis elements are planar rooted trees that may contain unary vertices,
labeled by a composable chain of arrows.  Vertices of arity two and up
are the operations, unary vertices are contracting homotopies, and a
unary vertex is only allowed where one end of its strand lies in the
chosen subcategory.  Two flavours are built from the same data: the big
category on all such trees, and the reduced one spanned by trees whose
top vertices are all unary, where an operation on purely trivial inputs
contracts to the underlying category's operation.  With no chosen
objects nothing is adjoined and no unary vertex is admissible: the big
category is then the free category of freecat.

Each hom lists its basis in tensor order times shape order: by leaf
count, then by label tensor in the order of an unbounded
quiver.bounded_tensors walk (objects, targets, hom names, depth first),
then by shape in tree_shapes order, keeping the admissible (and, for
the reduced flavour, reduced) shapes.  A name's degree is the flat
degree of its label tensor plus its shape's offset, wide minus unary
vertices; the samplers and enumerators downstream rely on both.

The second half of the module is the calculus of formal operations
(unary homotopies, higher operations, unit insertions) acting on the
tree categories: their differential, the unit-insertion right
derivation, and the right and left unit homotopies.  Each homotopy is
minus the sum of the unit insertions after the last leaf or before the
first, signed by -1 to the path vertices after the fed one (right) or
to the fed stage and all stages after it (left).  All signs come from
the stage engine; a basis element is the value of its own vertex
pipeline, and a formal term carries a canonical schedule, so any other
schedule of the same term is compared through its engine sign.  Every
schedule, of a tree, a formal term or a unit insertion, is evaluated by
trees.tree_pipeline, the one schedule runner; a capped leaf is its
arity-0 unit step.
"""

import random

from .category import AInfCategory, verify_unit_homotopy
from .functors import strict_functor
from .graded import GradedModule, accumulate, linear_combination
from .quiver import (BoundError, GradedQuiver, MultiOp, QuiverMap,
                     apply_stage, bounded_tensors, evaluate, insert,
                     insertion_sum, state_element, tensor_degree)
from .report import Report, unless_zero
from .trees import (LEAF, embed_leaf, interned, leaf_count, name_degree,
                    root_split, shape_counts, shape_table, tree_pipeline,
                    tree_shapes, tree_stages, unary_count, wide_count)

_CAP = "cap"


def valid_tree(t):
    """No two unary vertices may be adjacent."""
    if t == LEAF:
        return True
    if len(t) == 1 and t[0] != LEAF and len(t[0]) == 1:
        return False
    return all(valid_tree(s) for s in t)


def unary_spans(t):
    """Leaf intervals (i, j) covered by each unary vertex, 0-based."""
    strands = [(i, i + 1) for i in range(leaf_count(t))]
    spans = []
    for off, k in tree_stages(t):
        strands[off:off + k] = [(strands[off][0], strands[off + k - 1][1])]
        if k == 1:
            spans.append(strands[off])
    return spans


def admissible(t, gobjs, bobjs):
    """Every unary vertex needs an endpoint of its strand in bobjs."""
    for i, j in unary_spans(t):
        if gobjs[i] not in bobjs and gobjs[j] not in bobjs:
            return False
    return True


def reduced_tree(t):
    """Whether every internal vertex with only leaf children is unary."""
    if t == LEAF:
        return True
    if len(t) > 1 and all(s == LEAF for s in t):
        return False
    return all(reduced_tree(s) for s in t)


def path_flags(t):
    """For each postorder stage, whether its vertex sees the last leaf."""
    flags = []
    _walk_path(t, True, flags)
    return flags


def _walk_path(sub, on_path, flags):
    if sub == LEAF:
        return
    last = len(sub) - 1
    for i, child in enumerate(sub):
        _walk_path(child, on_path and i == last, flags)
    flags.append(on_path)


def _build(C, bobjs, leaf_bound, reduced, name):
    """The tree category of C over bobjs up to leaf_bound leaves, with
    the basis order and degrees the module docstring states.  Shape data
    come once per leaf count from trees.shape_table; per label tensor
    there is one mask of marked positions and one flat degree, and a
    shape is admissible iff the mask meets each of its needs.
    """
    gen = C.quiver
    ring = gen.ring
    bobjs = frozenset(bobjs)
    for X in bobjs:
        if X not in gen.objects:
            raise ValueError("subcategory object %r unknown" % (X,))
    if leaf_bound < 1:
        raise ValueError("the leaf bound must be at least 1, got %r"
                         % (leaf_bound,))

    # With no marked object no unary vertex is admissible: enumerate the
    # shapes without them rather than filter them out.
    unary = bool(bobjs)
    basis = {}
    # Degrees are shared ints, one list per flat degree (most lie below
    # CPython's small ints): ladder[offset] is the degree at an offset,
    # negative offsets indexing from the end.
    for n in range(1, leaf_bound + 1):
        table = shape_table(n, unary, reduced)
        offsets = [row[1] for row in table] or [0]
        steps = list(range(max(offsets) + 1)) + list(range(min(offsets), 0))
        ladders = {}
        for gobjs, gnames in bounded_tensors(gen, n):
            mask = sum(1 << i for i, X in enumerate(gobjs) if X in bobjs)
            flat = tensor_degree(gen, gobjs, gnames)
            ladder = ladders.get(flat)
            if ladder is None:
                ladder = ladders[flat] = [flat + o for o in steps]
            names, degrees = basis.setdefault((gobjs[0], gobjs[-1]), ([], []))
            for t, offset, needs in table:
                for need in needs:
                    if not mask & need:
                        break
                else:
                    names.append((t, gobjs, gnames))
                    degrees.append(ladder[offset])
    # Zipped one pair at a time: no (name, degree) tuple per name is kept.
    homs = {pair: GradedModule(ring, zip(*cols)) for pair, cols in basis.items()}
    squiver = GradedQuiver(ring, list(gen.objects), homs)

    ops = {}

    def graft_rule(objs, names, k):
        total = 0
        for nm in names:
            total += len(nm[2])
        if total > leaf_bound:
            raise BoundError("grafting %d leaves exceeds the bound %d"
                             % (total, leaf_bound))
        pair = (objs[0], objs[-1])
        if reduced and all(nm[0] == LEAF for nm in names):
            inner = C.b(k)
            if inner is None:
                degree = tensor_degree(squiver, objs, names) + 1
                return squiver.hom(*pair).zero(degree)
            val = inner.on_basis(objs, tuple(nm[2][0] for nm in names))
            return embed_leaf(squiver, pair, val)
        tree = interned(tuple([nm[0] for nm in names]))
        gobjs = names[0][1]
        gnames = names[0][2]
        for nm in names[1:]:
            gobjs = gobjs + nm[1][1:]
            gnames = gnames + nm[2]
        # A factor's leaf degrees are its degree minus its operations
        # plus its unary vertices: the parity of degree minus vertices.
        par = 0
        left = 0
        for j in range(k):
            vc = shape_counts(names[j][0])[1]
            if j:
                par += left * (squiver.degree(objs[j], objs[j + 1], names[j]) - vc)
            left += vc
        return squiver.hom(*pair).basis_element(
            (tree, gobjs, gnames), -1 if par % 2 else 1)

    def homotopy_rule(objs, names):
        label = names[0]
        t = label[0]
        X, Y = objs
        if X not in bobjs and Y not in bobjs:
            raise ValueError("homotopy needs an endpoint in the subcategory "
                             "at (%r, %r)" % (X, Y))
        if t != LEAF and len(t) == 1:
            # the basis has no stacked unary vertices: h o h = 0
            return squiver.hom(X, Y).zero(squiver.degree(X, Y, label) - 1)
        return squiver.hom(X, Y).basis_element(
            (interned((t,)), label[1], label[2]))

    hop = MultiOp(squiver, squiver, 1, -1, rule=homotopy_rule, name="homotopy")

    def b1_rule(objs, names):
        label = names[0]
        t = label[0]
        X, Y = objs
        degree = squiver.degree(X, Y, label) + 1
        if t == LEAF:
            inner = C.b(1)
            if inner is None:
                return squiver.hom(X, Y).zero(degree)
            return embed_leaf(squiver, (X, Y),
                              inner.on_basis((X, Y), (label[2][0],)))
        if len(t) == 1:
            inner_label = (t[0], label[1], label[2])
            db = ops[1].on_basis((X, Y), (inner_label,))
            out = {((X, Y), (inner_label,)): ring.one}
            apply_stage(insert(hop, 0, 0),
                        {((X, Y), (nm,)): ring.neg(c) for nm, c in db.items()},
                        out)
            return state_element(squiver, out, (X, Y), degree)
        k, chain, fnames, eps = root_split(gen, label)
        out = insertion_sum(ops.get, ops.get, k,
                            {(chain, fnames): ring.normalize(-eps)}, {},
                            root=False)
        return state_element(squiver, out, (X, Y), degree)

    ops[1] = MultiOp(squiver, squiver, 1, 1, rule=b1_rule, name="tree_b1")
    for k in range(2, leaf_bound + 1):
        ops[k] = MultiOp(squiver, squiver, k, 1,
                         rule=lambda objs, names, k=k: graft_rule(objs, names, k),
                         name="tree_b%d" % k)

    units = {X: embed_leaf(squiver, (X, X), u) for X, u in C.units.items()}
    A = AInfCategory(squiver, ops, leaf_bound, units=units or None,
                     size_of=lambda X, Y, nm: len(nm[2]),
                     size_bound=leaf_bound, name=name)
    A.base = C
    A.bobjs = bobjs
    A.leaf_bound = leaf_bound
    A.reduced = reduced
    A.homotopy = hop
    return A


def tree_category(C, bobjs, leaf_bound=3, name=None):
    """The category of all admissible tree elements over C.

    With no marked objects this is the free category on C's quiver and
    differential (see freecat.free_category): no unary vertex is
    admissible, so the names are the trees of operations alone.
    """
    return _build(C, bobjs, leaf_bound, False, name or (C.name + ".trees"))


def homotopy_quotient(C, bobjs, leaf_bound=3, name=None):
    """The reduced tree category: only trees whose top vertices are all
    unary, with operations on purely trivial inputs contracting to C."""
    return _build(C, bobjs, leaf_bound, True, name or (C.name + ".hq"))


def tree_value(A, t, gobjs, gnames):
    """Evaluate a labeled tree through a tree category's operations.

    On names of the category itself this returns the basis element; on
    the reduced category a non-reduced tree contracts to its image.
    """
    names = tuple((LEAF, (gobjs[i], gobjs[i + 1]), (gnames[i],))
                  for i in range(len(gnames)))
    return tree_pipeline(A, tree_stages(t), gobjs, names)


def composite_defect(C, A, n):
    """Arity-n operation on trivial inputs minus the embedded operation
    of C; the images span what the reduced category divides out."""
    if A.base.quiver is not C.quiver:
        raise ValueError("the tree category is not over %s" % C.name)
    if not 2 <= n <= A.leaf_bound:
        raise ValueError("arity %r outside 2..%d" % (n, A.leaf_bound))

    def rule(objs, names):
        factors = [embed_leaf(A.quiver, (objs[i], objs[i + 1]),
                              C.quiver.hom(objs[i], objs[i + 1]).basis_element(names[i]))
                   for i in range(n)]
        out = evaluate(A.b(n), objs, factors)
        op = C.b(n)
        if op is not None:
            out = out.sub(embed_leaf(A.quiver, (objs[0], objs[-1]),
                                     op.on_basis(objs, names)))
        return out

    return MultiOp(C.quiver, A.quiver, n, 1, rule=rule, name="defect%d" % n)


def defect_images(C, A):
    """Every nonzero composite defect on a basis tensor of C, as
    (X, Y, value), arity by arity from 2 to the leaf bound, each arity
    in bounded_tensors order."""
    gens = []
    for n in range(2, A.leaf_bound + 1):
        dop = composite_defect(C, A, n)
        for objs, names in bounded_tensors(C.quiver, n):
            v = dop.on_basis(objs, names)
            if not v.is_zero:
                gens.append((objs[0], objs[-1], v))
    return gens


def projection_functor(E, D, name="pi"):
    """The strict functor from the full tree category onto the reduced
    one, evaluating every tree through the reduced operations."""
    if E.base is not D.base or E.leaf_bound != D.leaf_bound:
        raise ValueError("the two tree categories differ in base or bound")
    images = {}
    for pair in E.quiver.pairs():
        images[pair] = {nm: tree_value(D, *nm) for nm in E.hom(*pair).names}
    return strict_functor(E, D, lambda X: X, images, name=name)


def check_reduction(C, E, D, samples=20, seed=0):
    """The reduced category really divides by the defect span: defect
    images die under the projection and stay dead under the homotopy
    and under grafting with arbitrary basis elements alongside."""
    rng = random.Random(seed)
    rep = Report("reduction of %s" % E.name)
    p1 = projection_functor(E, D).component(1)

    def dies(X, Y, w):
        return unless_zero(evaluate(p1, (X, Y), (w,)))

    gens = defect_images(C, E)
    rep.tally("defect images die",
              ((v, lambda: dies(X, Y, v)) for X, Y, v in gens), "images")

    def closures():
        for _ in range(samples if gens else 0):
            X, Y, v = gens[rng.randrange(len(gens))]
            vsize = max(len(nm[2]) for nm, _ in v.items())
            if rng.random() < 0.4 and (X in E.bobjs or Y in E.bobjs):
                yield v, lambda: dies(X, Y, evaluate(E.homotopy, (X, Y), (v,)))
                continue
            side = [nm for U, V in E.quiver.pairs() if V == X
                    for nm in E.hom(U, X).names
                    if len(nm[2]) + vsize <= E.leaf_bound]
            if not side:
                yield v, None
                continue
            nm = side[rng.randrange(len(side))]
            U = nm[1][0]
            yield (nm, v), lambda: dies(U, Y, evaluate(
                E.b(2), (U, X, Y), (E.hom(U, X).basis_element(nm), v)))

    return rep.tally("closure stays dead", closures(), "images",
                     exhaustive=False)


# ---------------------------------------------------------------------------
# Formal operations: trees with capped leaves, acting on tree categories.


def staging_sign(stages):
    """Engine sign of a schedule on strands of content degree zero.

    The ratio of the signs of two schedules of the same tree is their
    reordering sign, independent of the actual content degrees.
    """
    degs = []
    sign = 1
    for off, ar in stages:
        while len(degs) < off + ar:
            degs.append(0)
        if ar == 0:
            if sum(degs[off:]) % 2:
                sign = -sign
            degs.insert(off, -1)
            continue
        d = 1 if ar >= 2 else -1
        if (d * sum(degs[off + ar:])) % 2:
            sign = -sign
        degs[off:off + ar] = [sum(degs[off:off + ar]) + d]
    return sign


def stages_to_tree(stages, width):
    """Rebuild (tree, caps) from a schedule on an initial width."""
    strands = [LEAF] * width
    for off, ar in stages:
        if ar == 0:
            strands.insert(off, _CAP)
        elif ar == 1:
            strands[off] = (strands[off],)
        else:
            strands[off:off + ar] = [tuple(strands[off:off + ar])]
    assert len(strands) == 1, "schedule does not close to one strand"
    caps = []
    tree = _strip_caps(strands[0], caps, [0])
    return tree, frozenset(caps)


def _strip_caps(sub, caps, idx):
    # A module-level walker, not a closure that calls itself (a reference
    # cycle per call).  idx[0] counts the leaves seen so far.
    if sub == _CAP:
        caps.append(idx[0])
        idx[0] += 1
        return LEAF
    if sub == LEAF:
        idx[0] += 1
        return LEAF
    return tuple([_strip_caps(child, caps, idx) for child in sub])


class OperadTerm:
    """A formal combination of operations: trees with capped leaves.

    Basis keys are (tree, objects, caps): the tree may stack unary
    vertices freely since formal terms compose without relations, the
    objects label the strand boundaries of the full leaf set, and caps
    is the set of leaf positions fed by a unit insertion instead of an
    input.
    """

    def __init__(self, ring, data=None):
        self.ring = ring
        self.data = {}
        for key, c in (data or {}).items():
            c = ring.normalize(c)
            if c != ring.zero:
                self.data[key] = c

    @classmethod
    def basis(cls, ring, tree, gobjs, caps=(), coeff=1):
        caps = frozenset(caps)
        gobjs = tuple(gobjs)
        if len(gobjs) != leaf_count(tree) + 1:
            raise ValueError("a tree with %d leaves needs %d objects"
                             % (leaf_count(tree), leaf_count(tree) + 1))
        for i in caps:
            if gobjs[i] != gobjs[i + 1]:
                raise ValueError("capped strand must be a loop")
        return cls(ring, {(tree, gobjs, caps): coeff})

    @property
    def is_zero(self):
        return not self.data

    def add(self, other):
        return OperadTerm(self.ring, accumulate(self.ring, dict(self.data),
                                                other.data.items()))

    def scale(self, c):
        return OperadTerm(self.ring, {k: self.ring.mul(self.ring.normalize(c), v)
                                      for k, v in self.data.items()})

    def sub(self, other):
        return self.add(other.scale(-1))

    def __eq__(self, other):
        return isinstance(other, OperadTerm) and self.data == other.data

    def __hash__(self):
        raise TypeError("formal terms are not hashable")

    def __repr__(self):
        if not self.data:
            return "OperadTerm(0)"
        bits = ["%s*%r" % (c, k) for k, c in sorted(self.data.items(), key=repr)]
        return "OperadTerm(%s)" % " + ".join(bits)


def term_degree(key):
    tree, gobjs, caps = key
    return wide_count(tree) - unary_count(tree) - len(caps)


def _collect(ring, pieces):
    """Canonicalize (coeff, stages, width, gobjs) pieces into a term."""
    out = OperadTerm(ring)
    for coeff, stages, width, gobjs in pieces:
        tree, caps = stages_to_tree(stages, width)
        sign = staging_sign(stages) * staging_sign(tree_stages(tree, caps))
        out = out.add(OperadTerm(ring, {(tree, tuple(gobjs), caps):
                                        ring.mul(coeff, sign)}))
    return out


def operad_d(term):
    """The degree 1 differential of the formal operation calculus.

    A unit insertion is closed, a homotopy vertex turns into the
    identity, and an operation vertex expands into minus the sum of its
    proper two-level refinements; the whole extends as a derivation
    with the engine's suffix signs.
    """
    ring = term.ring
    pieces = []
    for (tree, gobjs, caps), coeff in term.data.items():
        stages = tree_stages(tree, caps)
        width = leaf_count(tree) - len(caps)
        for m, (off, ar) in enumerate(stages):
            if ar == 0:
                continue
            sgn = -1 if (len(stages) - m - 1) % 2 else 1
            if ar == 1:
                pieces.append((ring.mul(coeff, sgn),
                               stages[:m] + stages[m + 1:], width, gobjs))
                continue
            for a in range(ar):
                for p in range(2, ar - a + 1):
                    c = ar - a - p
                    if a == 0 and c == 0:
                        continue
                    repl = [(off + a, p), (off, a + 1 + c)]
                    pieces.append((ring.mul(coeff, -sgn),
                                   stages[:m] + repl + stages[m + 1:],
                                   width, gobjs))
    return _collect(ring, pieces)


def _unit_insertions(tree, left):
    """The unit insertions of a cap-free tree as (sign, schedule) pairs.

    A fresh unit leaf after the last leaf, or with left before the first,
    is fed to each vertex on the path from the root to that leaf (on the
    left, the stages at offset 0): an operation gains it as a capped
    input, a homotopy becomes homotopy, capped operation, homotopy.  The
    sign is -1 to the path vertices after the fed one in stage order
    (right), or to the fed stage and all stages after it (left).
    """
    stages = tree_stages(tree)
    on_path = [off == 0 for off, _ in stages] if left else path_flags(tree)
    for m, (off, ar) in enumerate(stages):
        if not on_path[m]:
            continue
        unit = (off if left else off + ar, 0)
        if ar == 1:
            repl = [(off, 1), unit, (off, 2), (off, 1)]
        else:
            repl = [unit, (off, ar + 1)]
        after = len(stages) - m if left else sum(on_path[m + 1:])
        yield -1 if after % 2 else 1, stages[:m] + repl + stages[m + 1:]


def unit_derivation(term):
    """The right derivation that feeds a fresh unit leaf to every vertex
    on the path from the root to the last leaf (_unit_insertions)."""
    ring = term.ring
    pieces = []
    for (tree, gobjs, caps), coeff in term.data.items():
        if caps:
            raise ValueError("the unit derivation acts on cap-free terms")
        ext = gobjs + (gobjs[-1],)
        width = leaf_count(tree)
        pieces.extend((ring.mul(coeff, sign), schedule, width, ext)
                      for sign, schedule in _unit_insertions(tree, False))
    return _collect(ring, pieces)


def compose_terms(inner, outer, slot):
    """Plug one formal operation into an input slot of another, slots
    counted over uncapped leaves from zero."""
    ring = outer.ring
    pieces = []
    for (ti, gi, ci), cin in inner.data.items():
        ni = leaf_count(ti) - len(ci)
        for (to, go, co), cout in outer.data.items():
            uncapped = [i for i in range(leaf_count(to)) if i not in co]
            pos = uncapped[slot]
            if (go[pos], go[pos + 1]) != (gi[0], gi[-1]):
                raise ValueError("slot objects do not match")
            shifted = [(off + slot, ar) for off, ar in tree_stages(ti, ci)]
            # the inner schedule runs first, closing its strands to one
            # at position slot; the outer schedule then applies verbatim
            stages = shifted + tree_stages(to, co)
            width = (len(uncapped) - 1) + ni
            gobjs = go[:pos] + gi + go[pos + 2:]
            pieces.append((ring.mul(cin, cout), stages, width, gobjs))
    return _collect(ring, pieces)


def unit_conjugation(term):
    """Conjugation by the unit composite: the term fed into the first
    slot of a capped operation, minus the capped operation fed into the
    term's last slot."""
    ring = term.ring
    total = OperadTerm(ring)
    for key, coeff in term.data.items():
        tree, gobjs, caps = key
        if caps:
            raise ValueError("conjugation acts on cap-free terms")
        one = OperadTerm(ring, {key: coeff})
        lam_out = OperadTerm.basis(ring, (LEAF, LEAF),
                                   (gobjs[0], gobjs[-1], gobjs[-1]), caps=(1,))
        total = total.add(compose_terms(one, lam_out, 0))
        n = leaf_count(tree)
        lam_in = OperadTerm.basis(ring, (LEAF, LEAF),
                                  (gobjs[n - 1], gobjs[n], gobjs[n]), caps=(1,))
        total = total.sub(compose_terms(lam_in, one, n - 1))
    return total


def strand_objects(gobjs, caps):
    """The objects at the ends of a basis key's uncapped strands."""
    return tuple(X for j, X in enumerate(gobjs) if j - 1 not in caps)


def term_value(A, term, objs, names):
    """Act with a formal operation on a basis tensor of a tree category.

    Caps insert the embedded units of the base category.  Raises like
    the underlying operations on ineligible homotopies and bound
    escapes.  The term must be nonzero; sum values termwise otherwise.
    """
    if term.is_zero:
        raise ValueError("cannot infer the output of an empty term")
    parts = []
    for (tree, gobjs, caps), coeff in term.data.items():
        n = leaf_count(tree) - len(caps)
        if n != len(names):
            raise ValueError("the term takes %d inputs, got %d" % (n, len(names)))
        if tuple(objs) != strand_objects(gobjs, caps):
            raise ValueError("the strands of %r are not %r" % (gobjs, objs))
        val = tree_pipeline(A, tree_stages(tree, caps), objs, names)
        parts.append((val, coeff))
    return linear_combination(A.hom(objs[0], objs[-1]), val.degree, parts)


def random_term(C, bobjs, rng, leaf_bound=3, with_caps=False):
    """A random nontrivial admissible formal operation over C's objects."""
    objects = list(C.objects)
    for _ in range(500):
        n = rng.randrange(1, leaf_bound + 1)
        shapes = tree_shapes(n)
        tree = shapes[rng.randrange(len(shapes))]
        if tree == LEAF:
            continue
        objs = tuple(rng.choice(objects) for _ in range(n + 1))
        if not admissible(tree, objs, bobjs):
            continue
        caps = frozenset()
        if with_caps:
            caps = frozenset(i for i in range(n)
                             if objs[i] == objs[i + 1] and rng.random() < 0.3)
            if len(caps) == n:
                caps = frozenset(sorted(caps)[1:])
        return OperadTerm.basis(C.quiver.ring, tree, objs, caps)
    raise RuntimeError("no admissible term found")


def _first_key(term):
    return sorted(term.data, key=repr)[0]


def check_operad(C, bobjs, samples=40, seed=0):
    """Consistency of the formal calculus as exact symbolic identities:
    the differential squares to zero, its commutator with the unit
    derivation is conjugation by the unit composite, and the derivation
    respects composition the one-sided way."""
    rng = random.Random(seed)
    rep = Report("formal operations over %s" % C.name)

    def drawn(law, with_caps=False):
        for _ in range(samples):
            t = random_term(C, bobjs, rng, with_caps=with_caps)
            yield t, lambda: law(t)

    def square(t):
        return unless_zero(operad_d(operad_d(t)))

    def commutator(t):
        lhs = operad_d(unit_derivation(t)).add(unit_derivation(operad_d(t)))
        return unless_zero(lhs.sub(unit_conjugation(t)))

    def pairs():
        for _ in range(samples):
            f = random_term(C, bobjs, rng)
            picked = _slot_term(C, bobjs, rng, f)
            if picked is None:
                yield f, None
                continue
            g, slot, last = picked

            def run():
                lhs = unit_derivation(compose_terms(g, f, slot))
                rhs = compose_terms(g, unit_derivation(f), slot)
                if last:
                    fdeg = term_degree(_first_key(f))
                    extra = compose_terms(unit_derivation(g), f, slot)
                    rhs = rhs.add(extra.scale(-1 if fdeg % 2 else 1))
                return unless_zero(lhs.sub(rhs))
            yield (f, g, slot), run

    rep.tally("differential squares to zero", drawn(square, True), "terms",
              exhaustive=False)
    rep.tally("commutator is unit conjugation", drawn(commutator), "terms",
              exhaustive=False)
    return rep.tally("right derivation law", pairs(), "pairs",
                     exhaustive=False)


def _slot_term(C, bobjs, rng, f):
    """A random term composable into a random slot of f."""
    tree, gobjs, caps = _first_key(f)
    uncapped = [i for i in range(leaf_count(tree)) if i not in caps]
    if not uncapped:
        return None
    slot = rng.randrange(len(uncapped))
    pos = uncapped[slot]
    X, Y = gobjs[pos], gobjs[pos + 1]
    objects = list(C.objects)
    for _ in range(200):
        n = rng.randrange(1, 3)
        shapes = tree_shapes(n)
        t2 = shapes[rng.randrange(len(shapes))]
        if t2 == LEAF:
            continue
        objs = tuple([X] + [rng.choice(objects) for _ in range(n - 1)] + [Y])
        if admissible(t2, objs, bobjs):
            return (OperadTerm.basis(C.quiver.ring, t2, objs),
                    slot, slot == len(uncapped) - 1)
    return None


def check_action_chain(E, samples=40, seed=0):
    """Acting with formal operations is a chain map: the differential of
    a value equals the value on the differentiated tensor, the term's
    own differential included with the engine's suffix signs.

    Each drawn term has a hom on every uncapped strand, and each leaf
    name is drawn within the leaves the term's caps and its other
    strands leave under the bound; a draw with no such names is skipped.
    A homotopy fed a name whose root is already unary gives zero.
    """
    rng = random.Random(seed)
    q = E.quiver
    ring = q.ring
    rep = Report("action of formal operations on %s" % E.name)
    b1 = E.b(1)

    def draw_term():
        for _ in range(500):
            term = random_term(E.base, E.bobjs, rng, with_caps=True)
            tree, gobjs, caps = key = _first_key(term)
            uncapped = [i for i in range(leaf_count(tree)) if i not in caps]
            mods = [q.homs.get((gobjs[i], gobjs[i + 1])) for i in uncapped]
            if None not in mods:
                return term, key, uncapped, mods
        raise RuntimeError("no term with a hom on every uncapped strand")

    def draw_names(budget, mods):
        names = []
        for j, mod in enumerate(mods):
            room = budget - (len(mods) - 1 - j)  # a leaf per later strand
            fits = [nm for nm in mod.names if len(nm[2]) <= room]
            if not fits:
                return None
            names.append(fits[rng.randrange(len(fits))])
            budget -= len(names[-1][2])
        return tuple(names)

    def cases():
        for _ in range(samples):
            term, key, uncapped, mods = draw_term()
            tree, gobjs, caps = key
            names = draw_names(E.leaf_bound - len(caps), mods)
            if names is None:
                yield key, None
                continue
            objs = strand_objects(gobjs, caps)

            def run():
                val = term_value(E, term, objs, names)
                lhs = evaluate(b1, (objs[0], objs[-1]), (val,))
                rhs = q.hom(objs[0], objs[-1]).zero(lhs.degree)
                dterm = operad_d(term)
                if not dterm.is_zero:
                    rhs = rhs.add(term_value(E, dterm, objs, names))
                degs = [q.degree(objs[i], objs[i + 1], names[i])
                        for i in range(len(names))]
                for i in range(len(names)):
                    img = b1.on_basis((objs[i], objs[i + 1]), (names[i],))
                    suffix = sum(degs[i + 1:]) + term_degree(key)
                    sgn = -1 if suffix % 2 else 1
                    for nm2, c in img.items():
                        piece = term_value(E, term, objs,
                                           names[:i] + (nm2,) + names[i + 1:])
                        rhs = rhs.add(piece.scale(ring.mul(sgn, c)))
                return unless_zero(lhs.sub(rhs))
            yield (term, names), run

    return rep.tally("chain action", cases(), "terms", exhaustive=False)


# ---------------------------------------------------------------------------
# Unit homotopies.


class PartialHomotopy(QuiverMap):
    """Degree -1 endomap of a truncated category A, given per pair on the
    names with room for one more leaf or letter under the size bound:
    the unit homotopies here and the unit contraction of the word model.

    A quiver map on A's quiver but for apply, which refuses with
    ValueError at a pair not given (pairs holds those given) and with
    BoundError on a name whose size plus one leaves A's bound, the rule
    by which its builders leave names out."""

    def __init__(self, A, matrices):
        super().__init__(A.quiver, A.quiver, -1, matrices)
        self.A, self.pairs = A, frozenset(matrices)

    def apply(self, X, Y, el):
        if (X, Y) not in self.pairs:
            raise ValueError("no value at (%r, %r): neither endpoint is "
                             "marked" % (X, Y))
        A = self.A
        for nm, _ in el.items():
            if A.size_of(X, Y, nm) + 1 > A.size_bound:
                raise BoundError("the value on %r needs size %d, bound is %d"
                                 % (nm, A.size_of(X, Y, nm) + 1, A.size_bound))
        return super().apply(X, Y, el)


def unit_homotopy(D):
    """The right unit homotopy of a reduced tree category."""
    return _unit_homotopy(D, False)


def left_unit_homotopy(D):
    """The left unit homotopy of a reduced tree category."""
    return _unit_homotopy(D, True)


def _unit_homotopy(D, left):
    """The unit homotopy on the given side of a reduced tree category.

    The value on a basis tree is minus the signed sum of its unit
    insertions on that side (_unit_insertions), evaluated back in the
    category.  Only names with a spare leaf under the bound have values;
    trivial trees go to zero.
    """
    if not D.units:
        raise ValueError("the unit homotopy needs distinguished units")
    matrices = {}
    for pair in D.quiver.pairs():
        hom = D.hom(*pair)
        mat = {}
        for nm in hom.names:
            t, gobjs, gnames = nm
            if len(gnames) + 1 > D.leaf_bound:
                continue
            seed = tuple((LEAF, (gobjs[i], gobjs[i + 1]), (gnames[i],))
                         for i in range(len(gnames)))
            mat[nm] = linear_combination(
                hom, name_degree(D.base.quiver, *nm) - 1, (
                    (tree_pipeline(D, schedule, gobjs, seed), -sign)
                    for sign, schedule in _unit_insertions(t, left)))
        matrices[pair] = mat
    return PartialHomotopy(D, matrices)


def check_unit_homotopies(D, h, hp, max_size=None):
    """verify_unit_homotopy on the names of at most max_size leaves, by
    default one less than the leaf bound, so that every value the laws
    need stays under the bound."""
    if max_size is None:
        max_size = D.leaf_bound - 1
    return verify_unit_homotopy(D, h, hp, max_size)
