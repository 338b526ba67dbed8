"""Functors, coderivations and their differential.

Functor components and coderivation components run through the same
stage engine as the structure operations, so every placement sum below
inherits its Koszul signs from evaluation.  The differential of a
coderivation is the commutator with the structure operations, written
componentwise with functor matrix elements on the outside.

_placements is the one enumeration of those sums' blocks: functor
components, with each coderivation placed once between them.  The
functor equation, composition, the root solve and the insertion sums
of B1 and Bn all read it through _chain_into.
"""

import random

from .category import sampled_cases
from .quiver import (MultiOp, QuiverMap, Stage, bounded_tensors,
                     apply_stage, insert, insertion_sum, state_element,
                     tensor_degree)
from .report import Report, unless_zero
from .trees import root_split


class AInfFunctor:
    """An object map plus degree 0 components of every arity.

    Component n maps length-n tensors of shifted source arrows to one
    shifted target arrow between the image objects.  The 0-th component
    is identically zero; validity is a separate check (check_functor).
    """

    def __init__(self, source, target, obj_map, components, name="f"):
        self.source = source
        self.target = target
        self._omap = obj_map if callable(obj_map) else (lambda X, m=dict(obj_map): m[X])
        self.components = {}
        for n, op in components.items():
            if n < 1 or op.arity != n or op.degree != 0:
                raise ValueError("functor component %r must have arity %r "
                                 ">= 1 and degree 0" % (op, n))
            if op.source is not source.quiver or op.target is not target.quiver:
                raise ValueError("functor component %r does not map the "
                                 "source quiver to the target quiver" % (op,))
            self.components[n] = op
        self.name = name
        # _chain_into's placement plans, and their stages by block list
        self.plans = {}
        self.block_stages = {}

    def obj_map(self, X):
        return self._omap(X)

    def component(self, n):
        return self.components.get(n)

    @property
    def arity_top(self):
        return max(self.components) if self.components else 0

    def __repr__(self):
        return "AInfFunctor(%s: %s -> %s)" % (self.name, self.source.name, self.target.name)


def strict_functor(source, target, obj_map, images, name="f"):
    """Functor with only an arity-1 component, given as per-pair matrices."""
    omap = obj_map if callable(obj_map) else (lambda X, m=dict(obj_map): m[X])
    qm = QuiverMap(source.quiver, target.quiver, 0, images, obj_map=omap)
    return AInfFunctor(source, target, omap, {1: qm.as_multiop(name + "1")}, name=name)


def identity_functor(A, name="id"):
    def rule(objs, names):
        return A.quiver.hom(*objs).basis_element(names[0])

    op = MultiOp(A.quiver, A.quiver, 1, 0, rule=rule, name=name + "1")
    return AInfFunctor(A, A, lambda X: X, {1: op}, name=name)


def _placements(chain, rs, objs, i=0, pos=0):
    """Every tuple of blocks on the inputs of objs from pos on: chain[i]'s
    components, then rs[i] placed once, then chain[i + 1]'s, and so on.
    An arity-0 placement of rs[i] is its per-object element where it
    sits, left out when zero."""
    left = len(objs) - 1 - pos
    if not left and i == len(rs):
        yield ()
        return
    f = chain[i]
    for j, op in f.components.items():
        if j <= left:
            for rest in _placements(chain, rs, objs, i, pos + j):
                yield (("op", op),) + rest
    if i == len(rs):
        return
    X = objs[pos]
    el = rs[i].component0(X)
    if not el.is_zero:
        pair = (f.obj_map(X), chain[i + 1].obj_map(X))
        for rest in _placements(chain, rs, objs, i + 1, pos):
            yield (("el", el, pair),) + rest
    for j, op in rs[i].components.items():
        if j <= left:
            for rest in _placements(chain, rs, objs, i + 1, pos + j):
                yield (("op", op),) + rest


def _chain_into(chain, rs, outer, base, out):
    """Add every placement of rs along chain on the one-key state base,
    fed into outer(number of blocks) when not None, into out, and return
    out.  Placements of one block count share a state that outer is
    applied to once.

    The placements depend only on the chain, the coderivations and the
    object chain of base, so they are walked once: chain[0].plans keeps,
    per (chain, rs, objects), the placements grouped by block count in
    the order of the walk, each as its Stage, and chain[0].block_stages
    keeps one Stage per distinct block list.  That is sound because a
    functor's and a coderivation's components and r0 are fixed once
    constructed: nothing writes them outside the constructors.
    """
    [(objs, _)] = base
    plans = chain[0].plans
    key = (tuple(chain), tuple(rs), objs)
    plan = plans.get(key)
    if plan is None:
        stages, groups = chain[0].block_stages, {}
        for blocks in _placements(chain, rs, objs):
            stage = stages.get(blocks)
            if stage is None:
                stage = stages[blocks] = Stage(chain[0].source.quiver, blocks)
            groups.setdefault(len(blocks), []).append(stage)
        plan = plans[key] = tuple(groups.items())
    for n, group in plan:
        op = outer(n)
        if op is not None:
            state = {}
            for stage in group:
                apply_stage(stage, base, state)
            apply_stage(insert(op, 0, 0), state, out)
    return out


def functor_defect(f, k, objs, names):
    """Difference of the two sides of the functor equation on one tensor.

    Left side: all ways of splitting the inputs into component blocks,
    followed by a target operation.  Right side: a source operation on a
    segment, followed by one component.
    """
    A, B = f.source, f.target
    qa = A.quiver
    key = (tuple(objs), tuple(names))
    degree = tensor_degree(qa, objs, names) + 1
    pair = (f.obj_map(objs[0]), f.obj_map(objs[-1]))
    out = _chain_into([f], (), B.b, {key: qa.ring.one}, {})
    insertion_sum(A.b, f.component, k, {key: qa.ring.normalize(-1)}, out)
    return state_element(B.quiver, out, pair, degree)


def check_functor(f, arity_bound=None, samples=30, seed=0):
    """Verify the functor equation up to a total arity on sampled tensors.

    The default bound covers every arity where either side can be
    nonzero: component blocks feeding a target operation, or a source
    operation feeding one component.
    """
    if arity_bound is None:
        top = max(1, f.arity_top)
        arity_bound = max(f.target.max_arity * top, f.source.max_arity + top - 1)
    rng = random.Random(seed)
    rep = Report("functor equation for %s" % f.name)
    for k in range(1, arity_bound + 1):
        cases, exhaustive = sampled_cases(
            f.source, k, samples, rng,
            lambda objs, names, k=k: functor_defect(f, k, objs, names))
        rep.tally("arity %02d" % k, cases, "tensors", exhaustive)
    return rep


def compose_functors(f, g, name=None):
    """Componentwise composite: blocks of f components feeding one of g."""
    if f.target is not g.source:
        raise ValueError("functors do not compose")

    def omap(X):
        return g.obj_map(f.obj_map(X))

    top = f.arity_top * g.arity_top
    comps = {}
    for n in range(1, top + 1):
        def rule(objs, names, n=n):
            qa = f.source.quiver
            base = {(tuple(objs), tuple(names)): qa.ring.one}
            degree = tensor_degree(qa, objs, names)
            pair = (omap(objs[0]), omap(objs[-1]))
            return state_element(g.target.quiver,
                                 _chain_into([f], (), g.component, base, {}),
                                 pair, degree)

        comps[n] = MultiOp(f.source.quiver, g.target.quiver, n, 0, rule=rule,
                           lmap=omap, rmap=omap, name="(%s%s)%d" % (f.name, g.name, n))
    return AInfFunctor(f.source, g.target, omap, comps,
                       name=name or (f.name + g.name))


class Coderivation:
    """(f, g)-shaped transformation data of one homogeneous degree.

    Component n >= 1 maps length-n source tensors into the shifted
    target hom between the image objects under f and g; component 0 is
    a per-object element.  arity_bound caps which components are stored
    and checked; everything above it is treated as zero.
    """

    def __init__(self, source, target, degree, components, r0=None,
                 arity_bound=None, name="r"):
        if source.source is not target.source or source.target is not target.target:
            raise ValueError("the two functors of a coderivation must share "
                             "source and target categories")
        self.source = source
        self.target = target
        self.degree = degree
        self.components = {}
        for n, op in components.items():
            if n < 1 or op.arity != n or op.degree != degree:
                raise ValueError("coderivation component %r must have arity "
                                 "%r >= 1 and degree %r" % (op, n, degree))
            if op.source is not source.source.quiver:
                raise ValueError("coderivation component %r does not start "
                                 "at the source quiver" % (op,))
            if op.target is not source.target.quiver:
                raise ValueError("coderivation component %r does not land "
                                 "in the target quiver" % (op,))
            self.components[n] = op
        self.r0 = {}
        for X, el in (r0 or {}).items():
            if el.is_zero:
                continue
            if el.degree != degree:
                raise ValueError("component at %r must have degree %r"
                                 % (X, degree))
            if el.module is not source.target.quiver.hom(
                    source.obj_map(X), target.obj_map(X)):
                raise ValueError("component at %r is not in the hom between "
                                 "the image objects" % (X,))
            self.r0[X] = el
        if arity_bound is None:
            arity_bound = max(self.components) if self.components else 0
        self.arity_bound = arity_bound
        self.name = name

    @property
    def cat_source(self):
        return self.source.source

    @property
    def cat_target(self):
        return self.source.target

    def component(self, n):
        return self.components.get(n)

    def component0(self, X):
        if X in self.r0:
            return self.r0[X]
        mod = self.cat_target.quiver.hom(self.source.obj_map(X), self.target.obj_map(X))
        return mod.zero(self.degree)

    def component_value(self, k, objs, names):
        """Value of component k on a basis tensor, zero when absent."""
        if k == 0:
            return self.component0(objs[0])
        op = self.component(k)
        if op is not None:
            return op.on_basis(objs, names)
        qa = self.cat_source.quiver
        deg = tensor_degree(qa, objs, names) + self.degree
        mod = self.cat_target.quiver.hom(self.source.obj_map(objs[0]),
                                         self.target.obj_map(objs[-1]))
        return mod.zero(deg)

    def __repr__(self):
        return "Coderivation(%s: %s -> %s, degree %d)" % (
            self.name, self.source.name, self.target.name, self.degree)


def random_coderivation(f, g, degree, arity_bound, rng, density=0.5, name="r"):
    """Random component tables, useful for differential and square checks."""
    A, B = f.source, f.target
    qa, qb = A.quiver, B.quiver
    comps = {}
    for k in range(1, arity_bound + 1):
        table = {}
        for objs, names in bounded_tensors(qa, k):
            mod = qb.hom(f.obj_map(objs[0]), g.obj_map(objs[-1]))
            deg = tensor_degree(qa, objs, names) + degree
            el = mod.random_element(deg, rng)
            if not el.is_zero:
                table[(tuple(objs), tuple(names))] = el
        if table:
            comps[k] = MultiOp(qa, qb, k, degree, table=table,
                               lmap=f.obj_map, rmap=g.obj_map, name="%s%d" % (name, k))
    r0 = {}
    for X in qa.objects:
        mod = qb.hom(f.obj_map(X), g.obj_map(X))
        el = mod.random_element(degree, rng, density)
        if not el.is_zero:
            r0[X] = el
    return Coderivation(f, g, degree, comps, r0=r0, arity_bound=arity_bound, name=name)


def unit_transformation(g):
    """The unit coderivation on a functor into a strictly unital target.

    Only the per-object component is nonzero; it picks the distinguished
    unit at each image object.
    """
    B = g.target
    r0 = {}
    for X in g.source.quiver.objects:
        U = g.obj_map(X)
        if U not in B.units:
            raise ValueError("target lacks a unit at %r" % (U,))
        r0[X] = B.units[U]
    return Coderivation(g, g, -1, {}, r0=r0, arity_bound=0, name=g.name + "u")


def _commutator_tail(r, k, objs, names):
    """The source-side half of the differential: operations fed into r."""
    A = r.cat_source
    qa, qb = A.quiver, r.cat_target.quiver
    base = {(tuple(objs), tuple(names)): qa.ring.one}
    degree = tensor_degree(qa, objs, names) + r.degree + 1
    pair = (r.source.obj_map(objs[0]), r.target.obj_map(objs[-1]))
    return state_element(qb, insertion_sum(A.b, r.component, k, base, {}),
                         pair, degree)


def resolve_at_root(f, label, head=None):
    """The arity-one value of a functor or coderivation on a grafted tree
    name, solved from its equation at the root.

    The name is eps times the root operation on its factors (see
    trees.root_split), and on the factors the equation holds the unknown
    only in its root term, the arity-one component after the root
    operation.  So the value is eps times head minus the source
    operations fed into the stored components, that term left out; with
    no component above arity one that sum is empty and is not walked.
    head(k, objs, names) is the rest of the equation on the factors; for
    a functor it defaults to the component blocks fed into a target
    operation.  The source must be a tree category over a base, and the
    name must have a root operation: a one-leaf or unary-rooted name
    raises ValueError (trees.root_split).
    """
    if isinstance(f, Coderivation):
        A, B = f.cat_source, f.cat_target
        lmap, rmap, shift = f.source.obj_map, f.target.obj_map, f.degree
    else:
        A, B = f.source, f.target
        lmap = rmap = f.obj_map
        shift = 0
    k, chain, fnames, eps = root_split(A.base.quiver, label)
    key, normalize = (chain, fnames), A.quiver.ring.normalize
    pair = (lmap(chain[0]), rmap(chain[-1]))
    degree = A.quiver.degree(chain[0], chain[-1], label) + shift
    if head is None:
        out = _chain_into([f], (), B.b, {key: normalize(eps)}, {})
    else:
        out = {(pair, (nm,)): c
               for nm, c in head(k, chain, fnames).scale(eps).items()}
    if any(n > 1 for n in f.components):
        insertion_sum(A.b, f.component, k, {key: normalize(-eps)}, out,
                      root=False)
    return state_element(B.quiver, out, pair, degree)


def B1(r):
    """The differential of a coderivation, componentwise up to its bound:
    the insertion sum of r alone, then minus (-1)^deg(r) times the
    source-side sum (Bn on the one coderivation)."""
    return Bn([r], arity_bound=r.arity_bound, name=r.name + "B1")


def theta_value(rs, k, objs, names, chain=None):
    """Insertion sum: each coderivation placed once, in order, between
    functor matrix elements, then one target operation.

    chain gives the functors around the insertions; by default it is
    read off the coderivations themselves.
    """
    rs = list(rs)
    if chain is None:
        chain = [rs[0].source] + [r.target for r in rs]
    for i, r in enumerate(rs):
        if r.source is not chain[i] or r.target is not chain[i + 1]:
            raise ValueError("coderivations do not chain")
    A, B = chain[0].source, chain[0].target
    qa = A.quiver
    base = {(tuple(objs), tuple(names)): qa.ring.one}
    degree = tensor_degree(qa, objs, names) + sum(r.degree for r in rs) + 1
    pair = (chain[0].obj_map(objs[0]), chain[-1].obj_map(objs[-1]))
    return state_element(B.quiver, _chain_into(chain, rs, B.b, base, {}),
                         pair, degree)


def Bn(rs, category=None, arity_bound=None, name=None):
    """Composition of several coderivations: insertion, then operations.

    With a single coderivation the source-side commutator term is added,
    so the result is its differential (B1).  With none this is the
    structure of the given category carried by its identity functor.
    """
    rs = list(rs)
    if not rs:
        if category is None:
            raise TypeError("empty composition needs a category")
        chain = [identity_functor(category)]
    else:
        chain = [rs[0].source] + [r.target for r in rs]
    fsrc, ftgt = chain[0], chain[-1]
    A, B = fsrc.source, fsrc.target
    degree = sum(r.degree for r in rs) + 1
    if arity_bound is None:
        arity_bound = max([r.arity_bound for r in rs], default=A.max_arity)
    flip = None
    if len(rs) == 1:
        flip = -1 if rs[0].degree % 2 == 0 else 1
    label = name or ("B%d(%s)" % (len(rs), ",".join(r.name for r in rs)))
    comps = {}
    for n in range(1, arity_bound + 1):
        def rule(objs, names, n=n):
            total = theta_value(rs, n, objs, names, chain=chain)
            if flip is not None:
                total = total.add(_commutator_tail(rs[0], n, objs, names).scale(flip))
            return total

        comps[n] = MultiOp(A.quiver, B.quiver, n, degree, rule=rule,
                           lmap=fsrc.obj_map, rmap=ftgt.obj_map,
                           name="%s_%d" % (label, n))
    r0 = {}
    for X in A.quiver.objects:
        val = theta_value(rs, 0, (X,), (), chain=chain)
        if not val.is_zero:
            r0[X] = val
    return Coderivation(fsrc, ftgt, degree, comps, r0=r0,
                        arity_bound=arity_bound, name=label)


def coderivations_equal(r1, r2):
    """Exact componentwise equality up to the larger arity bound."""
    if r1.degree != r2.degree:
        return False
    qa = r1.cat_source.quiver
    for X in qa.objects:
        if r1.component0(X) != r2.component0(X):
            return False
    bound = max(r1.arity_bound, r2.arity_bound)
    for k in range(1, bound + 1):
        for objs, names in bounded_tensors(qa, k):
            if r1.component_value(k, objs, names) != r2.component_value(k, objs, names):
                return False
    return True


def check_b1_square(r, samples=25, seed=0):
    """Exact vanishing of the squared differential on one coderivation."""
    rng = random.Random(seed)
    rr = B1(B1(r))
    rep = Report("squared differential on %s" % r.name)
    A = r.cat_source
    rep.tally("arity 00", ((X, lambda: unless_zero(rr.component0(X)))
                           for X in A.quiver.objects), "objects")
    for k in range(1, r.arity_bound + 1):
        cases, exhaustive = sampled_cases(
            A, k, samples, rng,
            lambda objs, names, k=k: rr.component_value(k, objs, names))
        rep.tally("arity %02d" % k, cases, "tensors", exhaustive)
    return rep
