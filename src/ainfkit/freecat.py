"""Free categories on a graded quiver: trees, relation spans, quotients.

Hom modules are spanned by planar rooted trees whose leaves carry a
composable chain of generator arrows.  Operations of arity two and up
graft trees under a new root, the differential expands one root vertex
at a time, and two-sided relation spans cut the result back down.  A
basis element is by definition the value of its own vertex pipeline on
its leaves, so all signs come out of the stage engine and none are
stored with the basis, nor with a relation span: a span row fills the
hole of each one-hole context (_contexts) as one state through the
engine, and the quotient reads each name's image off the rows.

A free category is the tree category of homquot with no marked objects:
nothing is adjoined, so no unary vertex is admissible, and the tree
helpers are the shared ones of the trees module.

Everything is truncated by a leaf bound.  An operation that would need
more leaves than the bound raises BoundError rather than dropping terms.
"""

from .category import AInfCategory
from .functors import (AInfFunctor, Coderivation, resolve_at_root,
                       strict_functor)
from .graded import Echelon, GradedModule, linear_combination
from .homquot import defect_images, tree_category
from .quiver import (GradedQuiver, MultiOp, QuiverMap, apply_stage,
                     bounded_tensors, evaluate, insert, state_element,
                     tensor_degree)
from .report import Report, unless_zero
# leaf_count and vertex_count are re-exported for callers.
from .trees import (LEAF, leaf_count, tree_pipeline, tree_shapes, tree_stages,
                    vertex_count)


def corolla(k):
    """One internal vertex with k leaves directly attached."""
    if k < 2:
        raise ValueError("a corolla needs at least two leaves, got %r" % (k,))
    return (LEAF,) * k


def trees_with_leaf_count(n):
    """All planar rooted trees with n leaves, inner valence at least two."""
    return tree_shapes(n, unary=False)


def free_category(gen, d1=None, leaf_bound=3, name=None):
    """The category freely generated by a quiver, cut off by leaf count.

    gen is the generating quiver of shifted arrows, d1 an optional
    square-zero degree +1 operation on it.  Basis names are triples
    (tree, objects, arrow names); one-leaf names are the generators
    themselves and carry d1 as their differential.  This is the tree
    category over (gen, d1) with no marked objects.
    """
    base = AInfCategory(gen, {} if d1 is None else {1: d1}, 1, name="gen")
    if d1 is not None:
        for X, Y in gen.pairs():
            for nm in gen.hom(X, Y).names:
                img = d1.on_basis((X, Y), (nm,))
                if not evaluate(d1, (X, Y), (img,)).is_zero:
                    raise ValueError("generator differential does not square to zero")
    F = tree_category(base, (), leaf_bound, name=name or "free")
    F.gen = gen
    F.gen_d1 = d1
    return F


def tree_element(F, tree, gobjs, gnames):
    """The basis element of a free category with the given tree and leaves."""
    label = (tree, tuple(gobjs), tuple(gnames))
    return F.hom(gobjs[0], gobjs[-1]).basis_element(label)


def trivial_embedding(F):
    """Generators as one-leaf elements of the free category."""
    gen = F.gen
    comps = {}
    for X, Y in gen.pairs():
        mod = F.hom(X, Y)
        comps[(X, Y)] = {nm: mod.basis_element((LEAF, (X, Y), (nm,)))
                         for nm in gen.hom(X, Y).names}
    return QuiverMap(gen, F.quiver, 0, comps)


def normal_form(D, F, X, Y, el):
    """Rewrite a free element as the matching composite of the generating
    category; the relation generators of structure_relations go to zero."""
    mod = D.hom(X, Y)
    return linear_combination(mod, el.degree, (
        (tree_pipeline(D, tree_stages(t), gobjs, gnames), c)
        for (t, gobjs, gnames), c in el.items()))


def normal_form_map(D, F):
    """The whole normal form as a degree 0 quiver map."""
    comps = {}
    for X, Y in F.quiver.pairs():
        mod = F.hom(X, Y)
        comps[(X, Y)] = {nm: normal_form(D, F, X, Y, mod.basis_element(nm))
                         for nm in mod.names}
    return QuiverMap(F.quiver, D.quiver, 0, comps)



def structure_relations(D, F, name="R"):
    """Relation generators presenting a category inside its free cover,
    one for every arity and every basis tensor of generators."""
    return IdealSpec(F, defect_images(D, F), name=name)


def _col_key(label):
    return (-len(label[2]), repr(label))


def _saturate(F, generators):
    """Close a list of relation generators under single operations with
    one marked slot, arbitrary basis elements elsewhere, within the leaf
    bound.  Returns one Echelon under _col_key per (pair, degree), so the
    rows do not depend on the order in which vectors are pushed or
    chains are walked, and leaves each one's rows in _col_key order of
    their pivots.

    A row in the hole of a context (_contexts) is one state through the
    stage insert(b_k, 0, 0).  Column keys are cached for the call only.
    """
    ring = F.quiver.ring
    if not ring.is_field:
        raise ValueError("relation spans need field coefficients")
    spans = {}
    work = []
    walks, cols = {}, {}

    def col_key(label):
        return cols.get(label) or cols.setdefault(label, _col_key(label))

    def push(X, Y, degree, terms):
        key = ((X, Y), degree)
        span = spans.get(key)
        if span is None:
            span = spans[key] = Echelon(ring, col_key)
        red = span.insert(terms)
        if red is not None:
            work.append((X, Y, degree, dict(red)))

    for X, Y, el in generators:
        push(X, Y, el.degree, dict(el.items()))

    while work:
        X, Y, degree, vec = work.pop()
        budget = F.leaf_bound - max(len(nm[2]) for nm in vec)
        for k in range(2, min(F.max_arity, budget + 1) + 1):
            stage = insert(F.b(k), 0, 0)
            for objs, lnames, rnames, cdeg in _contexts(F, k, X, Y, budget,
                                                         walks):
                out = apply_stage(stage, {(objs, lnames + (n,) + rnames): c
                                          for n, c in vec.items()})
                if out:
                    push(objs[0], objs[-1], cdeg + degree + stage.degree,
                         {names[0]: c for (_, names), c in out.items()})
    for span in spans.values():
        span.key = _col_key
        span.rows = {pivot: span.rows[pivot]
                     for pivot in sorted(span.rows, key=col_key)}
    return spans


class IdealSpec:
    """A two-sided span of relations in a free category.

    Holds the generators; the full span within the leaf bound is
    saturated on first use.  rows() gives {(pair, degree): {pivot: row}},
    the rows of one Echelon under _col_key per bucket, a form unique for
    the span; each bucket lists its rows in _col_key order of their
    pivots.  reduce gives the canonical representative modulo the span;
    contains tests membership.
    """

    def __init__(self, category, generators, name="R"):
        self.category = category
        self.name = name
        self.generators = [(X, Y, el) for X, Y, el in generators if not el.is_zero]
        self._spans = None
        self._rows = None

    def rows(self):
        if self._rows is None:
            self._spans = _saturate(self.category, self.generators)
            self._rows = {key: span.rows for key, span in self._spans.items()}
        return self._rows

    def span_elements(self):
        """The reduced span, one element per row: buckets by the repr of
        their key, rows in bucket order."""
        out = []
        for (pair, degree), bucket in sorted(self.rows().items(),
                                             key=lambda item: repr(item[0])):
            mod = self.category.hom(*pair)
            for row in bucket.values():
                out.append((pair[0], pair[1], mod.element(dict(row), degree)))
        return out

    def reduce(self, X, Y, el):
        self.rows()  # saturates on first use
        span = self._spans.get(((X, Y), el.degree))
        vec = el.terms if span is None else span.reduce(el.terms)
        return self.category.hom(X, Y).element(vec, el.degree)

    def contains(self, X, Y, el):
        return self.reduce(X, Y, el).is_zero

    def __repr__(self):
        return "IdealSpec(%s, %d generators)" % (self.name, len(self.generators))


def check_ideal(R):
    """Differential closure of a relation span: the unary operation sends
    every generator back into the span.  A defect is the image of a
    generator that leaves it."""
    b1 = R.category.b(1)

    def outside(X, Y, v):
        img = evaluate(b1, (X, Y), (v,))
        return None if R.contains(X, Y, img) else img

    return Report("ideal %s" % R.name).tally(
        "differential closure",
        (((X, Y), lambda: outside(X, Y, v)) for X, Y, v in R.generators),
        "generators")


def quotient(F, R, name=None):
    """Divide a free category by a relation span.

    Basis names that lead a span row are eliminated; the others survive
    with the same labels.  Operations act on representatives and reduce.
    Returns the quotient category and the strict projection functor: a
    pivot goes to minus the rest of its row, any other name to itself.
    """
    if R.category is not F:
        raise ValueError("the relation span lives in another category")
    ring = F.quiver.ring
    dead = {}
    for (pair, _), bucket in R.rows().items():
        dead.setdefault(pair, set()).update(bucket)
    homs = {}
    for pair in F.quiver.pairs():
        mod = F.hom(*pair)
        gone = dead.get(pair, ())
        keep = [(nm, mod.degrees[nm]) for nm in mod.names if nm not in gone]
        if keep:
            homs[pair] = GradedModule(ring, keep)
    equiver = GradedQuiver(ring, list(F.objects), homs)

    def project(X, Y, el):
        red = R.reduce(X, Y, el)
        return equiver.hom(X, Y).element(dict(red.items()), el.degree)

    eops = {}
    for n in F.ops:
        eops[n] = MultiOp(
            equiver, equiver, n, 1,
            rule=lambda objs, names, n=n: project(
                objs[0], objs[-1], F.b(n).on_basis(objs, names)),
            name="q_b%d" % n)
    label = name or (F.name + "/" + R.name)
    E = AInfCategory(equiver, eops, F.max_arity,
                     size_of=F.size_of, size_bound=F.size_bound, name=label)
    images = {pair: {nm: mod.basis_element(nm) for nm in mod.names}
              for pair, mod in homs.items()}
    for (pair, degree), bucket in R.rows().items():
        images.setdefault(pair, {}).update(
            (pivot, equiver.hom(*pair).element(
                {nm: ring.neg(c) for nm, c in row.items() if nm != pivot},
                degree)) for pivot, row in bucket.items())
    proj = strict_functor(F, E, lambda X: X, images, name="pi")
    return E, proj


def extend_functor(F, A, gen_images, higher=None, name="f"):
    """Extend a chain map on generators to a functor on the free category.

    gen_images maps the generating quiver into the target and must
    commute with the differentials; higher components of arity two and
    up may be supplied freely.  The arity-one component on tree names is
    forced by the functor equation at the root, so the result always
    satisfies check_functor.
    """
    gen = F.gen
    if gen_images.source is not gen or gen_images.target is not A.quiver:
        raise ValueError("generator images must map the generating quiver "
                         "into the target")
    if gen_images.degree != 0:
        raise ValueError("generator images must have degree 0")
    if not gen_images.is_chain(F.gen_d1, A.b(1)):
        raise ValueError("generator images do not commute with the "
                         "differentials")
    omap = gen_images.obj_map

    def f1_rule(objs, names):
        label = names[0]
        if label[0] != LEAF:
            return resolve_at_root(f, label)
        X, Y = objs
        return gen_images.apply(X, Y, gen.hom(X, Y).basis_element(label[2][0]))

    comps = {1: MultiOp(F.quiver, A.quiver, 1, 0, rule=f1_rule,
                        lmap=omap, rmap=omap, name=name + "1")}
    comps.update(_higher_components(higher, 0))
    f = AInfFunctor(F, A, omap, comps, name=name)
    return f


def _higher_components(higher, degree):
    higher = dict(higher or {})
    for n, op in higher.items():
        if n < 2 or op.arity != n or op.degree != degree:
            raise ValueError("component %r must have arity %r >= 2 and "
                             "degree %r" % (op, n, degree))
    return higher


def _extend_over_trees(phi, psi, degree, part0, part1, higher, rhs, name):
    """Shared worker for the two coderivation extensions.

    rhs is a list of (sign, coderivation); on every tree root the
    arity-one value is solved by resolve_at_root from

        b_root(u1) = (-1)^deg(u) (insertion sum - sum of rhs) - tail.
    """
    F = phi.source
    if psi.source is not F:
        raise ValueError("the two functors start at different categories")
    gen = F.gen
    qa, qb = F.quiver, phi.target.quiver
    part1 = {pair: dict(mat) for pair, mat in (part1 or {}).items()}
    for (X, Y), mat in part1.items():
        want = qb.hom(phi.obj_map(X), psi.obj_map(Y))
        for gname, el in mat.items():
            if el.module is not want or el.degree != gen.degree(X, Y, gname) + degree:
                raise ValueError("value on %r has the wrong hom or degree"
                                 % (gname,))
    for _, beta in rhs:
        if (beta.source is not phi or beta.target is not psi
                or beta.degree != degree + 1):
            raise ValueError("%r must go from the source to the target "
                             "functor with degree %d" % (beta, degree + 1))

    def u1_rule(objs, names):
        label = names[0]
        if label[0] != LEAF:
            return resolve_at_root(r, label, rhs)
        X, Y = objs
        el = part1.get((X, Y), {}).get(label[2][0])
        if el is None:
            return qb.hom(phi.obj_map(X), psi.obj_map(Y)).zero(
                qa.degree(X, Y, label) + degree)
        return el

    comps = {1: MultiOp(qa, qb, 1, degree, rule=u1_rule,
                        lmap=phi.obj_map, rmap=psi.obj_map, name=name + "1")}
    comps.update(_higher_components(higher, degree))
    bound = max([F.max_arity] + list(comps))
    r = Coderivation(phi, psi, degree, comps, r0=dict(part0 or {}),
                     arity_bound=bound, name=name)
    return r


def extend_transformation(phi, psi, degree, part0=None, part1=None,
                          higher=None, image_d=None, name="u"):
    """Extend transformation data over a free source category.

    part0 and part1 give the values on objects and on single generators,
    higher the components of arity two and up.  image_d, when given, is
    the coderivation the differential of the result must equal; omit it
    for a closed extension.  The arity-one component on tree names is
    solved from that condition one root at a time, so the data determine
    the whole coderivation.
    """
    return _extend_over_trees(phi, psi, degree, part0, part1, higher,
                              () if image_d is None else [(1, image_d)], name)


def extend_homotopy(phi, psi, degree, target, part0=None, part1=None,
                    higher=None, name="h"):
    """Extend homotopy data whose differential must land on a target.

    Same data as extend_transformation, with the target in place of
    image_d and required: the result h satisfies d(h) = target
    componentwise on tree names.
    """
    return _extend_over_trees(phi, psi, degree, part0, part1, higher,
                              [(1, target)], name)


def _contexts(F, k, X, Y, budget, walks):
    """One-hole contexts of arity k around a factor from X to Y: basis
    names in the other k - 1 slots using at most budget leaves.  Yields
    (objects, names left of the hole, names right of it, their degree).
    walks keeps each chain walk by (length, budget, start, end), so a
    caller that passes one dict walks each chain once."""

    def chains(length, most, start, end):
        key = (length, most, start, end)
        if key not in walks:
            walks[key] = [(objs, names, sum(len(nm[2]) for nm in names),
                           tensor_degree(F.quiver, objs, names))
                          for objs, names in bounded_tensors(
                              F.quiver, length, F.size_of, most, start, end)]
        return walks[key]

    for slot in range(k):
        for lobjs, lnames, used, ldeg in chains(slot, budget, None, X):
            for robjs, rnames, _, rdeg in chains(k - 1 - slot, budget - used,
                                                 Y, None):
                yield lobjs + robjs, lnames, rnames, ldeg + rdeg


def _mixed_cases(op, k, R):
    """Tally cases for an arity-k component with one span element per
    slot in turn, basis names elsewhere, inside the leaf bound."""
    F = R.category
    stage = insert(op, 0, 0)
    walks = {}
    for ((X, Y), degree), bucket in R.rows().items():
        for row in bucket.values():
            budget = F.leaf_bound - max(len(nm[2]) for nm in row)
            for objs, lnames, rnames, cdeg in _contexts(F, k, X, Y, budget,
                                                         walks):
                state = {(objs, lnames + (n,) + rnames): c
                         for n, c in row.items()}
                yield objs, lambda: unless_zero(state_element(
                    op.target, apply_stage(stage, state), op.pair_map(objs),
                    cdeg + degree + stage.degree))


def check_factorizes(f, R):
    """Whether a functor, or coderivation data, on the free category kills
    a relation span: the span under the arity-one component, and mixed
    tensors with one span slot under every higher component.

    Each row of R.rows() is one state through the stage insert(f1, 0, 0),
    as the mixed slots are through their component's; the first row with
    a nonzero image fails its line, at its pair and pivot."""
    source = f.cat_source if isinstance(f, Coderivation) else f.source
    if R.category is not source:
        raise ValueError("the relation span lives in another category")
    rep = Report("%s kills %s" % (f.name, R.name))
    f1 = f.component(1)
    rows = R.rows().items() if f1 is not None else ()
    stage = insert(f1, 0, 0) if f1 is not None else None
    rep.tally("span under arity 1", (
        ((pair, pivot), lambda: unless_zero(state_element(
            f1.target,
            apply_stage(stage, {(pair, (n,)): c for n, c in row.items()}),
            f1.pair_map(pair), degree + f1.degree)))
        for (pair, degree), bucket in rows
        for pivot, row in bucket.items()), "rows")
    for k in sorted(f.components):
        if k > 1:
            rep.tally("arity %02d mixed slots" % k,
                      _mixed_cases(f.component(k), k, R), "tensors")
    return rep


def induce_functor(f, E, name=None):
    """Carry a functor on the free category to a quotient by evaluating
    on representatives.  Run check_factorizes first; this only re-labels."""
    A = f.target
    comps = {}
    for n in f.components:
        comps[n] = MultiOp(
            E.quiver, A.quiver, n, 0,
            rule=lambda objs, names, n=n: f.component(n).on_basis(objs, names),
            lmap=f.obj_map, rmap=f.obj_map,
            name=(name or f.name) + "_%d" % n)
    return AInfFunctor(E, A, f.obj_map, comps, name=name or f.name + "~")
