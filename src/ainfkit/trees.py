"""Planar rooted trees labeled by chains of arrows: the one tree toolkit.

A tree is LEAF or a tuple of subtrees.  A vertex with two or more
children is an operation; a vertex with one child is a unary vertex,
which only the tree resolutions of homquot use.  A tree name is a
triple (tree, objects, arrow names): the leaves carry a composable
chain of arrows of a generating quiver.  Free categories (freecat) are
the trees with no unary vertex, so everything here serves both.

tree_pipeline is the one schedule runner: every tree, formal term and
unit insertion is evaluated by turning its (offset, arity) schedule into
engine stages there.  Arity 0 is a unit step, arity 1 the homotopy, and
arity k >= 2 the operation b_k.

The walkers below recurse through module-level functions, not through
closures that call themselves: such a closure is a reference cycle,
left for the cyclic collector on every call.

Shapes are shared: shape_table and homquot's tree rules take each from
one registry (interned), so a memo lookup compares equal names' shapes
by identity, not element by element.  Names stay plain tuples, with a
tuple's hash and repr, and literal tuples still find them.
"""

import itertools

from .quiver import (insert, run_stages, state_element, tensor_degree,
                     unit_stage)

LEAF = ()


def leaf_count(t):
    if t == LEAF:
        return 1
    return sum(leaf_count(s) for s in t)


def vertex_count(t):
    if t == LEAF:
        return 0
    return 1 + sum(vertex_count(s) for s in t)


def unary_count(t):
    if t == LEAF:
        return 0
    return (1 if len(t) == 1 else 0) + sum(unary_count(s) for s in t)


def wide_count(t):
    if t == LEAF:
        return 0
    return (1 if len(t) > 1 else 0) + sum(wide_count(s) for s in t)


def positive_splits(n, k):
    """Ordered k-tuples of positive integers with sum n."""
    if k == 1:
        yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in positive_splits(n - first, k - 1):
            yield (first,) + rest


# shape -> the one object of that shape; see interned
_SHAPES = {}
_TABLES = {}


def interned(t):
    """The registry's object equal to the shape t, registering t if new.

    Shapes built from interned children, as shape_table and the tree
    rules build them, are interned all the way down.
    """
    return _SHAPES.setdefault(t, t)


def tree_shapes(n, unary=True):
    """All trees with n leaves whose wide vertices have valence two and up.

    With unary on, a unary vertex may also sit on top of the whole tree
    or of any subtree whose root is not itself unary; with it off there
    are no unary vertices at all.
    """
    return tuple(row[0] for row in shape_table(n, unary))


def shape_table(n, unary=True, reduced=False):
    """The n-leaf shapes with what a basis build needs of each.

    Rows are (shape, offset, needs) in tree_shapes(n, unary) order.  The
    offset is wide minus unary vertices: a name's degree is its leaves'
    degrees plus the offset.  needs holds (1 << i) | (1 << j) for each
    unary vertex whose strand runs from object i to object j; equal
    needs share one tuple.  reduced keeps, in order, only the shapes in
    which every vertex with only leaf children is unary.  Built once,
    from the rows of fewer leaves: wide roots over products of their
    children's rows, then the unary copies of those.
    """
    key = (n, unary, reduced)
    rows = _TABLES.get(key)
    if rows is None:
        rows = [(LEAF, 0, ())] if n == 1 else []
        shared = {(): ()}
        for k in range(2, n + 1):
            for parts in positive_splits(n, k):
                starts = tuple(itertools.accumulate((0,) + parts[:-1]))
                for kids in itertools.product(
                        *(shape_table(p, unary, reduced) for p in parts)):
                    shape = tuple([kid[0] for kid in kids])
                    if reduced and not any(shape):
                        continue
                    needs = tuple(sorted([need << start for kid, start
                                          in zip(kids, starts)
                                          for need in kid[2]]))
                    rows.append((interned(shape),
                                 1 + sum([kid[1] for kid in kids]),
                                 shared.setdefault(needs, needs)))
        if unary:
            top = 1 | 1 << n
            for shape, offset, needs in rows[:]:
                needs = tuple(sorted(needs + (top,)))
                rows.append((interned((shape,)), offset - 1,
                             shared.setdefault(needs, needs)))
        rows = _TABLES[key] = tuple(rows)
    return rows


_COUNTS = {}


def shape_counts(t):
    """(leaves, vertices, wide minus unary vertices) of a shape.

    Memoised by shape, so the grafting and root-split signs read them
    without a walk of the tree.
    """
    counts = _COUNTS.get(t)
    if counts is None:
        counts = _COUNTS[t] = (leaf_count(t), vertex_count(t),
                               wide_count(t) - unary_count(t))
    return counts


def tree_stages(t, caps=()):
    """The vertices of a tree as (offset, arity) pairs, children first.

    Feeding these to the engine in order, each acting at its offset in
    the evolving tensor, rebuilds the tree element from its leaves;
    arity one is a unary vertex.  A leaf whose index is in caps is fed a
    unit instead of an input: the tensor starts with one strand per
    uncapped leaf, and an arity-zero stage inserts a capped leaf's
    strand when the walk reaches it.
    """
    stages = []
    _postorder(t, 0, 0, caps, stages)
    return stages


def _postorder(sub, left, leaf, caps, stages):
    # left is sub's strand offset, leaf the index of its first leaf;
    # returns the leaves under sub.
    if sub == LEAF:
        if leaf in caps:
            stages.append((left, 0))
        return 1
    used = 0
    for i, child in enumerate(sub):
        used += _postorder(child, left + i, leaf + used, caps, stages)
    stages.append((left, len(sub)))
    return used


def name_degree(gen, t, gobjs, gnames):
    """Degree of a tree name: the leaves' degrees, plus one per operation,
    minus one per unary vertex."""
    flat = tensor_degree(gen, gobjs, gnames)
    return flat + shape_counts(t)[2]


_SPLITS = {}


def root_split(gen, label):
    """Split a tree name at the root.

    Returns the root arity, the chain of junction objects, the names of
    the subtree factors, and the sign the engine produces when the root
    grafting rebuilds the name from those factors.  A one-leaf name has
    no root vertex and a unary-rooted one a homotopy at its root: both
    are refused with ValueError as the shape's plan is built.

    The sign is (-1) to the sum, over the factors, of the factor's leaf
    degree times the vertices left of it, so only a factor with an odd
    vertex count to its left has its degree read.  Which factors those
    are, and where each one's leaves start and end, depends on the shape
    alone: that split plan is memoised by shape, like shape_counts.
    """
    t, gobjs, gnames = label
    plan = _SPLITS.get(t)
    if plan is None:
        if len(t) < 2:
            raise ValueError("the %s name %r has no root operation to split"
                             % ("unary-rooted" if t else "one-leaf", label))
        parts, left, pos = [], 0, 0
        for sub in t:
            ln, vc, _ = shape_counts(sub)
            parts.append((sub, pos, pos + ln, left % 2 == 1))
            left += vc
            pos += ln
        plan = _SPLITS[t] = tuple(parts)
    chain = [gobjs[0]]
    fnames = []
    par = 0
    for sub, start, end, odd in plan:
        objs, names = gobjs[start:end + 1], gnames[start:end]
        fnames.append((sub, objs, names))
        if odd:
            par += tensor_degree(gen, objs, names)
        chain.append(gobjs[end])
    return len(plan), tuple(chain), tuple(fnames), -1 if par % 2 else 1


def embed_leaf(squiver, pair, el):
    """A generator-level element as a combination of one-leaf names."""
    terms = {(LEAF, pair, (nm,)): c for nm, c in el.items()}
    return squiver.hom(*pair).element(terms, el.degree)


def tree_pipeline(A, schedule, objs, names):
    """Run an (offset, arity) schedule on a basis tensor of a category.

    Arity 0 inserts the distinguished unit A.units[Z], Z being the
    object at the offset in the chain the walk tracks; arity 1 is A's
    homotopy and arity k >= 2 is A.b(k).  A missing operation makes the
    result zero.  The degree is the tensor degree plus one per operation
    and minus one per other step.
    """
    q = A.quiver
    degree = tensor_degree(q, objs, names) \
        + sum(1 if k > 1 else -1 for _, k in schedule)
    pair = (objs[0], objs[-1])
    chain = list(objs)
    stages = []
    for off, k in schedule:
        if k == 0:
            Z = chain[off]
            stages.append(unit_stage(q, A.units[Z], (Z, Z), off,
                                     len(chain) - 1 - off))
            chain.insert(off, Z)
            continue
        op = A.homotopy if k == 1 else A.b(k)
        if op is None:
            return q.hom(*pair).zero(degree)
        stages.append(insert(op, off, len(chain) - 1 - off - k))
        chain[off + 1:off + k] = ()
    state = run_stages(stages, {(tuple(objs), tuple(names)): q.ring.one})
    return state_element(q, state, pair, degree)
