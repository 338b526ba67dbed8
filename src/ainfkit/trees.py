"""Planar rooted trees labeled by chains of arrows: the one tree toolkit.

A tree is LEAF or a tuple of subtrees.  A vertex with two or more
children is an operation; a vertex with one child is a unary vertex,
which only the tree resolutions of homquot use.  A tree name is a
triple (tree, objects, arrow names): the leaves carry a composable
chain of arrows of a generating quiver.  Free categories (freecat) are
the trees with no unary vertex, so everything here serves both.

The walkers below recurse through module-level functions, not through
closures that call themselves: such a closure is a reference cycle,
left for the cyclic collector on every call.
"""

import itertools

from .quiver import insert, run_stages, state_element, tensor_degree

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


_SHAPES = {}
_TABLES = {}


def tree_shapes(n, unary=True):
    """All trees with n leaves whose wide vertices have valence two and up.

    With unary on, a unary vertex may also sit on top of the whole tree
    or of any subtree whose root is not itself unary; with it off there
    are no unary vertices at all.
    """
    key = (n, unary)
    if key not in _SHAPES:
        _SHAPES[key] = tuple(row[0] for row in shape_table(n, unary))
    return _SHAPES[key]


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
                    rows.append((shape, 1 + sum([kid[1] for kid in kids]),
                                 shared.setdefault(needs, needs)))
        if unary:
            top = 1 | 1 << n
            for shape, offset, needs in rows[:]:
                needs = tuple(sorted(needs + (top,)))
                rows.append(((shape,), offset - 1,
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


def tree_stages(t):
    """The vertices of a tree as (offset, arity) pairs, children first.

    Feeding these to the engine in order, each acting at its offset in
    the shrinking tensor, rebuilds the tree element from its leaves;
    arity one is a unary vertex.
    """
    stages = []
    _postorder(t, 0, stages)
    return stages


def _postorder(sub, left, stages):
    if sub == LEAF:
        return
    for i, child in enumerate(sub):
        _postorder(child, left + i, stages)
    stages.append((left, len(sub)))


def name_degree(gen, t, gobjs, gnames):
    """Degree of a tree name: the leaves' degrees, plus one per operation,
    minus one per unary vertex."""
    flat = tensor_degree(gen, gobjs, gnames)
    return flat + shape_counts(t)[2]


def root_split(gen, label):
    """Split a tree name at the root.

    Returns the root arity, the chain of junction objects, the names of
    the subtree factors, and the sign the engine produces when the root
    grafting rebuilds the name from those factors.
    """
    t, gobjs, gnames = label
    chain = [gobjs[0]]
    fnames = []
    par = 0
    left = 0
    pos = 0
    for j, sub in enumerate(t):
        ln, vc, _ = shape_counts(sub)
        fnames.append((sub, tuple(gobjs[pos:pos + ln + 1]),
                       tuple(gnames[pos:pos + ln])))
        if j:
            par += left * tensor_degree(gen, *fnames[-1][1:])
        left += vc
        pos += ln
        chain.append(gobjs[pos])
    return len(t), tuple(chain), tuple(fnames), -1 if par % 2 else 1


def embed_leaf(squiver, pair, el):
    """A generator-level element as a combination of one-leaf names."""
    terms = {(LEAF, pair, (nm,)): c for nm, c in el.items()}
    return squiver.hom(*pair).element(terms, el.degree)


def tree_pipeline(A, tree, objs, names, order=None):
    """Evaluate the vertices of a tree through a category's operations.

    order defaults to the canonical children-first schedule; any other
    (offset, arity) schedule of the same tree evaluates an alternative
    bracketing.  A unary vertex is A's homotopy; a missing operation
    makes the result zero.
    """
    q = A.quiver
    schedule = tree_stages(tree) if order is None else order
    degree = tensor_degree(q, objs, names) \
        + sum(1 if k > 1 else -1 for _, k in schedule)
    pair = (objs[0], objs[-1])
    width = len(names)
    stages = []
    for off, k in schedule:
        op = A.homotopy if k == 1 else A.b(k)
        if op is None:
            return q.hom(*pair).zero(degree)
        stages.append(insert(op, off, width - off - k))
        width -= k - 1
    state = run_stages(stages, {(tuple(objs), tuple(names)): q.ring.one})
    return state_element(q, state, pair, degree)
