"""The shared tree toolkit: reference-cycle-free walkers, the root split
that both tree builders rely on, and free categories as the tree
categories with no marked objects."""

import gc
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ainfkit.category import AInfCategory
from ainfkit.freecat import corolla, free_category
from ainfkit.graded import GradedModule, Ring
from ainfkit.homquot import (homotopy_quotient, path_flags, stages_to_tree,
                             tree_category)
from ainfkit.quiver import (GradedQuiver, bounded_tensors, evaluate,
                            tensor_degree)
from ainfkit.trees import (LEAF, interned, leaf_count, root_split,
                           shape_counts, shape_table, tree_shapes,
                           tree_stages, unary_count)
from test_category import arrow_with_differential, path3

# Every shape of 1-5 leaves, unary vertices included.
SPLIT_SHAPES = [t for n in range(1, 6) for t in tree_shapes(n)]
# Generators of one loop, of even and odd degrees.
GENERATORS = {"a": 0, "b": 1, "c": -1, "d": 2}


def free_arrow(bound):
    D = arrow_with_differential()
    return free_category(D.quiver, D.b(1), leaf_bound=bound)


def test_tree_walkers_leave_no_cycles():
    # a closure that calls itself is a reference cycle; the walkers must
    # leave nothing for the cyclic collector
    F = free_arrow(3)
    t = ((LEAF, LEAF), (LEAF,), LEAF)
    gc.collect()
    gc.disable()
    try:
        tree_stages(t)
        path_flags(t)
        assert list(bounded_tensors(F.quiver, 2, F.size_of, 3))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_term_and_tensor_walkers_leave_no_cycles():
    # each of these once recursed through a closure that called itself
    F = free_arrow(3)
    tree, caps = ((LEAF, (LEAF,)), LEAF, (LEAF, LEAF)), frozenset({1, 3})
    gc.collect()
    gc.disable()
    try:
        tensors = list(bounded_tensors(F.quiver, 2))
        assert gc.collect() == 0
        ends = list(bounded_tensors(F.quiver, 3, F.size_of, 3, end=1))
        assert gc.collect() == 0
        stages = tree_stages(tree, caps)
        assert gc.collect() == 0
        assert stages_to_tree(stages, 5 - len(caps)) == (tree, caps)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert tensors and ends


def test_cap_walk_round_trips_every_shape():
    # the capped post-order walk rebuilds its tree and caps, for every
    # shape of 1-4 leaves (unary vertices included) and every cap set
    for n in range(1, 5):
        for t in tree_shapes(n):
            for k in range(n + 1):
                for caps in itertools.combinations(range(n), k):
                    caps = frozenset(caps)
                    stages = tree_stages(t, caps)
                    assert stages_to_tree(stages, n - k) == (t, caps)


def test_root_split_round_trip():
    # the root operation on the factors rebuilds every grafted name, up
    # to exactly the sign root_split reports
    for A in (homotopy_quotient(path3(), {1}, 3), free_arrow(4)):
        gen = A.base.quiver
        grafted = 0
        for X, Y in A.quiver.pairs():
            for name in A.hom(X, Y).names:
                if len(name[0]) < 2:
                    continue
                k, chain, fnames, eps = root_split(gen, name)
                factors = [A.hom(fn[1][0], fn[1][-1]).basis_element(fn)
                           for fn in fnames]
                got = evaluate(A.b(k), chain, factors)
                assert got == A.hom(X, Y).basis_element(name, eps), name
                grafted += 1
        assert grafted > 0


def oracle_root_split(gen, label):
    """The root split as a walk over the root's children: every factor's
    degree is read and weighted by the vertices to its left."""
    t, gobjs, gnames = label
    chain = [gobjs[0]]
    fnames = []
    par = 0
    left = 0
    pos = 0
    for j, sub in enumerate(t):
        ln, vc, _ = shape_counts(sub)
        objs, names = tuple(gobjs[pos:pos + ln + 1]), tuple(gnames[pos:pos + ln])
        fnames.append((sub, objs, names))
        if j:
            par += left * tensor_degree(gen, objs, names)
        left += vc
        pos += ln
        chain.append(gobjs[pos])
    return len(t), tuple(chain), tuple(fnames), -1 if par % 2 else 1


def loop_gen():
    mod = GradedModule(Ring("QQ"), list(GENERATORS.items()))
    return GradedQuiver(Ring("QQ"), ["*"], {("*", "*"): mod})


def loop_label(t, letters):
    n = leaf_count(t)
    return (t, ("*",) * (n + 1), tuple(letters[:n]))


def test_root_split_matches_the_walk_on_every_shape():
    # every shape of 1-5 leaves, under two fillings that put even and
    # odd generators at every leaf; a one-leaf name has no root, and a
    # unary root is a homotopy, not an operation
    gen = loop_gen()
    for letters in ("abcda", "bcdab", "bbbbb"):
        for t in SPLIT_SHAPES:
            label = loop_label(t, letters)
            if t == LEAF:
                with pytest.raises(ValueError, match="one-leaf name"):
                    root_split(gen, label)
            elif len(t) == 1:
                with pytest.raises(ValueError, match="unary-rooted name"):
                    root_split(gen, label)
            else:
                assert root_split(gen, label) == oracle_root_split(gen, label)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([t for t in SPLIT_SHAPES if len(t) > 1]),
       st.lists(st.sampled_from(sorted(GENERATORS)), min_size=5, max_size=5))
def test_root_split_matches_the_walk_on_drawn_degrees(t, letters):
    gen = loop_gen()
    label = loop_label(t, letters)
    assert root_split(gen, label) == oracle_root_split(gen, label)


def test_root_split_matches_the_walk_on_grafted_names():
    # every name with a root vertex of the bound-4 tree quotient of path3:
    # split as the walk does, or refused when that vertex is unary
    A = homotopy_quotient(path3(), {1}, 4)
    gen = A.base.quiver
    split = 0
    for X, Y in A.quiver.pairs():
        for name in A.hom(X, Y).names:
            if name[0] == LEAF:
                with pytest.raises(ValueError, match="one-leaf name"):
                    root_split(gen, name)
                continue
            if len(name[0]) == 1:
                with pytest.raises(ValueError, match="unary-rooted name"):
                    root_split(gen, name)
            else:
                assert root_split(gen, name) == oracle_root_split(gen, name), name
            split += 1
    assert split > 4000


def test_free_category_is_the_tree_category_without_marked_objects():
    D = arrow_with_differential()
    F = free_category(D.quiver, D.b(1), leaf_bound=4)
    T = tree_category(AInfCategory(D.quiver, {1: D.b(1)}, 1), set(), 4)
    assert F.quiver.pairs() == T.quiver.pairs()
    for X, Y in F.quiver.pairs():
        assert F.hom(X, Y).names == T.hom(X, Y).names
        assert F.hom(X, Y).degrees == T.hom(X, Y).degrees
        for name in F.hom(X, Y).names:
            assert unary_count(name[0]) == 0


def test_interned_shapes_are_the_shape_tables_own():
    # interned is idempotent and hands back the very objects the shape
    # tables hold, whatever flavour of table first built them
    for n in range(1, 5):
        for unary in (False, True):
            for reduced in (False, True):
                for t, _, _ in shape_table(n, unary, reduced):
                    assert interned(t) is t
                    assert interned(interned(t)) is t
                    assert interned(tuple(list(t))) is t
    assert interned((LEAF, LEAF)) is interned(corolla(2))


def test_literal_names_match_interned_names():
    # names keep their tuple form: a name built from literal tuples is
    # equal to the basis name, hashes alike, finds it, and prints alike
    T = tree_category(path3(), {1}, 3)
    hom = T.hom(0, 2)
    for literal in ((LEAF, LEAF), corolla(2), ((LEAF,), LEAF),
                    (LEAF, (LEAF,))):
        name = (literal, (0, 1, 2), ("f", "g"))
        basis_name, = [nm for nm in hom.names if nm == name]
        assert basis_name[0] is interned(literal)
        assert hash(name) == hash(basis_name)
        assert repr(name) == repr(basis_name)
        assert hom.degrees[name] == hom.degrees[basis_name]
        assert hom.basis_element(name) == hom.basis_element(basis_name)
