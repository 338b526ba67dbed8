"""Tree categories over a base with a marked subcategory: basis shape,
structure identities, the formal operation calculus, unit homotopies."""

import importlib
import itertools
import pkgutil
import random

import pytest

import ainfkit
from ainfkit import homquot, quiver
from ainfkit.barquot import bar_quotient, check_contraction, unit_contraction
from ainfkit.category import (AInfCategory, _bounded_sample, check_stasheff,
                              max_arity_within, opposite, stasheff_defect)
from ainfkit.freecat import LEAF
from ainfkit.functors import check_functor, strict_functor
from ainfkit.graded import Ring, koszul_sign
from ainfkit.homquot import (OperadTerm, admissible,
                             check_action_chain, check_operad, check_reduction,
                             check_unit_homotopies, compose_terms,
                             composite_defect,
                             homotopy_quotient, leaf_count,
                             left_unit_homotopy, operad_d,
                             projection_functor, reduced_tree,
                             term_value, tree_category, tree_shapes,
                             tree_value, unary_count, unary_spans,
                             unit_conjugation, unit_derivation,
                             unit_homotopy, valid_tree, wide_count,
                             PartialHomotopy)
from ainfkit.quiver import (BoundError, MultiOp, QuiverMap, bounded_tensors,
                            evaluate)
from ainfkit.trees import interned, positive_splits, root_split, shape_table
from test_category import arrow_with_differential, path3
from test_yoneda import two_complexes

QQ = Ring("QQ")
ONE = (LEAF,)
FORK = (LEAF, LEAF)

_CACHE = {}


def tree_pair(which, bobj, bound=3):
    key = (which, bobj, bound)
    if key not in _CACHE:
        C = path3() if which == "path3" else arrow_with_differential()
        E = tree_category(C, frozenset([bobj]), bound)
        D = homotopy_quotient(C, frozenset([bobj]), bound)
        _CACHE[key] = (C, E, D)
    return _CACHE[key]


def within_bound(A, length):
    """Every basis tensor of A of a length within its size bound."""
    return list(bounded_tensors(A.quiver, length, A.size_of, A.size_bound))


def test_stasheff_sweep_work_is_pinned(monkeypatch):
    # the engine work of building a model and sweeping it, counted
    # without a clock: a lost memo, a lost whole-stage path or an extra
    # stage changes a count
    counts = {"stages": 0, "whole": 0, "on_basis": 0}
    apply_stage = quiver.apply_stage
    on_basis = MultiOp.on_basis

    def counted_stage(stage, state, out=None):
        counts["stages"] += 1
        counts["whole"] += stage.whole
        return apply_stage(stage, state, out)

    def counted_on_basis(op, objs, names):
        counts["on_basis"] += 1
        return on_basis(op, objs, names)

    for info in pkgutil.iter_modules(ainfkit.__path__):
        module = importlib.import_module("ainfkit." + info.name)
        for attr, value in list(vars(module).items()):
            if value is apply_stage:
                monkeypatch.setattr(module, attr, counted_stage)
    monkeypatch.setattr(MultiOp, "on_basis", counted_on_basis)
    A = homotopy_quotient(path3(), {1}, 3)
    tensors = 0
    for k in (1, 2, 3):
        for objs, names in within_bound(A, k):
            tensors += 1
            assert stasheff_defect(A, k, objs, names).is_zero, names
    assert tensors == 550
    assert counts == {"stages": 2247, "whole": 1743, "on_basis": 824}


def test_unit_homotopy_and_contraction_work_is_pinned(monkeypatch):
    # the evaluations of the unit-law and contraction checks, counted
    # without a clock: a differential evaluated on a zero element, or a
    # commutator taken in another order against the memos, changes a count
    counts = {"evaluate": 0, "on_basis": 0}
    evaluate_fn = quiver.evaluate
    on_basis = MultiOp.on_basis

    def counted_evaluate(op, objs, factors):
        counts["evaluate"] += 1
        return evaluate_fn(op, objs, factors)

    def counted_on_basis(op, objs, names):
        counts["on_basis"] += 1
        return on_basis(op, objs, names)

    C = path3()
    D = homotopy_quotient(C, frozenset([1]), 3)
    W = bar_quotient(C, frozenset([1]), 3)
    h, hp, chi = unit_homotopy(D), left_unit_homotopy(D), unit_contraction(W)
    for info in pkgutil.iter_modules(ainfkit.__path__):
        module = importlib.import_module("ainfkit." + info.name)
        for attr, value in list(vars(module).items()):
            if value is evaluate_fn:
                monkeypatch.setattr(module, attr, counted_evaluate)
    monkeypatch.setattr(MultiOp, "on_basis", counted_on_basis)
    assert check_unit_homotopies(D, h, hp).ok
    assert counts == {"evaluate": 124, "on_basis": 350}
    assert check_contraction(W, chi).ok
    assert counts == {"evaluate": 136, "on_basis": 362}


def interned_down(t):
    return interned(t) is t and all(interned_down(s) for s in t)


def test_memo_names_share_the_registry_shapes():
    # after a sweep, every name the memos hold, as key or as value term,
    # has the registry's shape objects all the way down
    A = homotopy_quotient(path3(), {1}, 4)
    for objs, names in within_bound(A, 2):
        stasheff_defect(A, 2, objs, names)
    seen = 0
    for op in list(A.ops.values()) + [A.homotopy]:
        for (_, names), value in op.table.items():
            for name in names + tuple(value.terms):
                assert interned_down(name[0]), name
                seen += 1
    assert seen > 1000
    # the basis itself, built from shape_table's rows
    for X, Y in A.quiver.pairs():
        assert all(interned_down(name[0]) for name in A.hom(X, Y).names)


def test_stasheff_exhaustive_within_bound():
    _, _, D = tree_pair("path3", 1)
    counts = []
    for k in (1, 2, 3):
        tensors = within_bound(D, k)
        counts.append(len(tensors))
        for objs, names in tensors:
            assert stasheff_defect(D, k, objs, names).is_zero, names
    assert counts == [335, 158, 57]


def test_shape_census():
    assert tree_shapes(1) == (LEAF, ONE)
    assert len(tree_shapes(2)) == 8
    assert len(tree_shapes(3)) == 80
    for n in (1, 2, 3):
        for t in tree_shapes(n):
            assert valid_tree(t) and leaf_count(t) == n
    assert not valid_tree((ONE,))
    assert (ONE,) not in tree_shapes(1)
    assert unary_count(((ONE, LEAF),)) == 2
    assert wide_count(((ONE, LEAF),)) == 1
    assert unary_spans((ONE, FORK)) == [(0, 1)]
    assert unary_spans(((ONE, LEAF),)) == [(0, 1), (0, 2)]


_ORACLE_SHAPES = {}


def oracle_shapes(n, unary):
    """The tree shapes by the recursion the shape tables replaced: wide
    roots over every split, then, with unary on, one unary copy of each."""
    key = (n, unary)
    if key not in _ORACLE_SHAPES:
        out = [LEAF] if n == 1 else []
        for k in range(2, n + 1):
            for parts in positive_splits(n, k):
                out.extend(itertools.product(
                    *(oracle_shapes(p, unary) for p in parts)))
        if unary:
            out += [(t,) for t in out]
        _ORACLE_SHAPES[key] = out
    return _ORACLE_SHAPES[key]


def filter_basis_oracle(C, bobjs, leaf_bound, reduced):
    """The per-tensor filter that the table-driven build replaced.

    For every label tensor, every shape is tested with reduced_tree and
    admissible and its degree taken from walks of the tree.  Returns
    {pair: [(name, degree), ...]} in enumeration order.
    """
    gen = C.quiver
    bobjs = frozenset(bobjs)
    unary = bool(bobjs)
    basis = {}
    for n in range(1, leaf_bound + 1):
        shapes = [t for t in oracle_shapes(n, unary)
                  if not reduced or reduced_tree(t)]
        for gobjs, gnames in bounded_tensors(gen, n):
            pair = (gobjs[0], gobjs[-1])
            flat = sum(gen.degree(gobjs[i], gobjs[i + 1], gnames[i])
                       for i in range(n))
            for t in shapes:
                if unary and not admissible(t, gobjs, bobjs):
                    continue
                basis.setdefault(pair, []).append(
                    ((t, gobjs, gnames), flat + wide_count(t) - unary_count(t)))
    return basis


def test_shape_tables_match_the_tree_walks():
    for n in range(1, 6):
        for unary in (True, False):
            assert list(tree_shapes(n, unary)) == oracle_shapes(n, unary)
            for reduced in (False, True):
                want = [t for t in oracle_shapes(n, unary)
                        if not reduced or reduced_tree(t)]
                rows = shape_table(n, unary, reduced)
                assert [row[0] for row in rows] == want, (n, unary, reduced)
                for t, offset, needs in rows:
                    assert offset == wide_count(t) - unary_count(t)
                    assert sorted(needs) == sorted(
                        (1 << i) | (1 << j) for i, j in unary_spans(t))
    # rows with equal needs share one tuple
    rows = shape_table(5, True, True)
    assert len({id(row[2]) for row in rows}) == len({row[2] for row in rows})


BASIS_CASES = {
    "path3-1": (path3, {1}),
    "path3-0,2": (path3, {0, 2}),
    "path3-0,1,2": (path3, {0, 1, 2}),
    "path3-none": (path3, set()),
    "arrow-1": (arrow_with_differential, {1}),
}


@pytest.mark.parametrize("build", [tree_category, homotopy_quotient])
@pytest.mark.parametrize("case", list(BASIS_CASES))
def test_basis_matches_filter_oracle(case, build):
    make, bobjs = BASIS_CASES[case]
    C = make()
    A = build(C, bobjs, 4)
    want = filter_basis_oracle(C, bobjs, 4, build is homotopy_quotient)
    assert set(A.quiver.pairs()) == set(want)
    for X, Y in A.quiver.pairs():
        mod = A.hom(X, Y)
        got = [(nm, mod.degree(nm)) for nm in mod.names]
        assert got == want[(X, Y)], (X, Y)


def _is_tree(x):
    return x == LEAF or (isinstance(x, tuple)
                         and all(_is_tree(s) for s in x))


def filtration_level(label):
    """Relative filtration position of a reduced tree, by name or shape.

    Returns (j, kind): j is the largest number of unary vertices on any
    root-to-leaf path, and the kind marks whether the root vertex is
    unary (a new stratum, N) or not (the settled part, D).
    """
    t = label if _is_tree(label) else label[0]

    def depth(sub):
        if sub == LEAF:
            return 0
        return (1 if len(sub) == 1 else 0) + max(depth(child) for child in sub)

    j = depth(t)
    if t != LEAF and len(t) == 1:
        return j, "N%d" % j
    return j, "D%d" % j


def test_admissible_and_reduced_and_level():
    assert admissible(ONE, (0, 1), {1})
    assert not admissible(ONE, (0, 1), {2})
    assert admissible((ONE, LEAF), (0, 1, 2), {1})
    assert not admissible((ONE, LEAF), (0, 1, 2), {2})
    assert reduced_tree(LEAF) and reduced_tree(ONE)
    assert not reduced_tree(FORK) and not reduced_tree((FORK,))
    assert reduced_tree((ONE, LEAF)) and reduced_tree(((ONE, LEAF),))
    assert filtration_level(LEAF) == (0, "D0")
    assert filtration_level(ONE) == (1, "N1")
    assert filtration_level((ONE, LEAF)) == (1, "D1")
    assert filtration_level(((ONE, LEAF),)) == (2, "N2")
    assert filtration_level((ONE, (0, 1), ("f",))) == (1, "N1")


def test_basis_membership_and_degrees():
    C, E, D = tree_pair("path3", 1)
    for (X, Y) in C.quiver.pairs():
        for nm in C.hom(X, Y).names:
            triv = (LEAF, (X, Y), (nm,))
            assert triv in E.hom(X, Y).names
            assert triv in D.hom(X, Y).names
    hooked = (ONE, (0, 1), ("f",))
    assert hooked in D.hom(0, 1).names
    assert D.quiver.degree(0, 1, hooked) == -2
    corolla = (FORK, (0, 1, 2), ("f", "g"))
    assert corolla in E.hom(0, 2).names
    assert corolla not in D.hom(0, 2).names
    assert (ONE, (0, 2), ("fg",)) not in D.hom(0, 2).names
    assert ((ONE, LEAF), (0, 1, 2), ("f", "g")) in D.hom(0, 2).names
    for (X, Y) in D.quiver.pairs():
        for t, gobjs, gnames in D.hom(X, Y).names:
            assert valid_tree(t) and reduced_tree(t)
            assert admissible(t, gobjs, D.bobjs)
            assert len(gnames) <= D.leaf_bound


def test_every_name_is_its_own_pipeline_value():
    for which in ("path3", "arrow"):
        for A in tree_pair(which, 1)[1:]:
            for (X, Y) in A.quiver.pairs():
                for nm in A.hom(X, Y).names:
                    assert tree_value(A, *nm) == A.hom(X, Y).basis_element(nm)


def test_reduced_contracts_trivial_composites():
    C, E, D = tree_pair("path3", 1)
    for n in (2, 3):
        dop = composite_defect(C, D, n)
        for objs, names in bounded_tensors(C.quiver, n):
            assert dop.on_basis(objs, names).is_zero
    eop = composite_defect(C, E, 2)
    assert not eop.on_basis((0, 1, 2), ("f", "g")).is_zero


def test_homotopy_values_and_errors():
    C, E, D = tree_pair("path3", 1)
    x = E.hom(0, 1).basis_element((LEAF, (0, 1), ("f",)))
    hx = evaluate(E.homotopy, (0, 1), (x,))
    assert hx == E.hom(0, 1).basis_element((ONE, (0, 1), ("f",)))
    # the basis has no stacked unary vertices: h o h is the zero of the hom
    hhx = evaluate(E.homotopy, (0, 1), (hx,))
    assert hhx == E.hom(0, 1).zero(hx.degree - 1)
    fg = E.hom(0, 2).basis_element((LEAF, (0, 2), ("fg",)))
    with pytest.raises(ValueError):
        evaluate(E.homotopy, (0, 2), (fg,))
    # closed trivial element: the homotopy is a one-sided inverse
    assert evaluate(E.b(1), (0, 1), (hx,)) == x

    C2, E2, _ = tree_pair("arrow", 1)
    u = E2.hom(0, 1).basis_element((LEAF, (0, 1), ("u",)))
    v = E2.hom(0, 1).basis_element((LEAF, (0, 1), ("v",)))
    hu = evaluate(E2.homotopy, (0, 1), (u,))
    hv = evaluate(E2.homotopy, (0, 1), (v,))
    assert evaluate(E2.b(1), (0, 1), (hu,)) == u.sub(hv)


def test_differential_squares_to_zero_on_every_name():
    for which in ("path3", "arrow"):
        for A in tree_pair(which, 1)[1:]:
            b1 = A.b(1)
            for (X, Y) in A.quiver.pairs():
                for nm in A.hom(X, Y).names:
                    once = b1.on_basis((X, Y), (nm,))
                    assert evaluate(b1, (X, Y), (once,)).is_zero, (A.name, nm)


def test_stasheff_suites():
    # every arity checks min(samples, within-bound count) tensors, and
    # arities 4 and 5, where nothing fits leaf bound 3, read vacuous; the
    # default bound stops at arity 3
    _, _, D = tree_pair("path3", 1)
    models = [A for which in ("path3", "arrow") for A in tree_pair(which, 1)[1:]]
    for A in models + [opposite(D)]:
        rep = check_stasheff(A, arity_bound=5, samples=40, seed=0)
        assert rep.ok and len(rep.checks) == 5, rep.text()
        assert max_arity_within(A) == 3
        assert check_stasheff(A, samples=40, seed=0).checks == rep.checks[:3]
        for (label, _, detail), k in zip(rep.checks, range(1, 6)):
            count = len(within_bound(A, k))
            checked, _, mode = detail.split(", ")
            assert checked == "%d tensors" % min(40, count), (A.name, label)
            assert mode == ("vacuous" if k > 3 else "all" if count <= 40
                            else "sampled"), (A.name, label)


def test_bounded_sample_is_rng_sample_of_the_list():
    # drawn by position without building the list, the sample is the one
    # rng.sample draws from the list; up to samples tensors, all of them
    A = tree_pair("path3", 1)[1]
    for k in (1, 2, 3):
        tensors = within_bound(A, k)
        assert _bounded_sample(A, k, len(tensors), None) == (tensors, True)
        for seed in range(3):
            got, exhaustive = _bounded_sample(A, k, 40, random.Random(seed))
            assert not exhaustive
            assert got == random.Random(seed).sample(tensors, 40)


def walked_sample(A, k, samples, rng):
    """The sampler by two walks: one to count the within-bound tensors,
    one to pick out the positions rng.sample draws."""
    walk = (A.quiver, k, A.size_of, A.size_bound)
    count = sum(1 for _ in bounded_tensors(*walk))
    if count <= samples:
        return list(bounded_tensors(*walk)), True
    at = dict.fromkeys(rng.sample(range(count), samples))
    for i, t in enumerate(bounded_tensors(*walk)):
        if i in at:
            at[i] = t
    return list(at.values()), False


def test_counted_sample_is_the_walked_sample():
    # drawn by a descent over counts, every seed gives the walked sample,
    # in the same order, and leaves the generator in the same state
    F7 = Ring("Fp", 7)
    cases = [(tree_pair("path3", 1)[1], (1, 2, 3)),
             (tree_pair("arrow", 1)[2], (1, 2, 3)),
             (tree_pair("path3", 1, 4)[2], (1, 2, 3, 4)),
             (two_complexes(F7), (1, 2, 3)),
             (path3(), (1, 2, 3, 4))]
    for A, arities in cases:
        for k in arities:
            for samples in (5, 40, 5000):
                for seed in range(3):
                    one, two = random.Random(seed), random.Random(seed)
                    assert (_bounded_sample(A, k, samples, one)
                            == walked_sample(A, k, samples, two)), (A.name, k)
                    assert one.random() == two.random()


def test_projection_and_reduction():
    C, E, D = tree_pair("path3", 1)
    proj = projection_functor(E, D)
    rep = check_functor(proj, samples=40, seed=0)
    assert rep.ok, rep.text()
    rep = check_reduction(C, E, D, samples=30, seed=0)
    assert rep.ok, rep.text()


def test_differential_of_formal_generators():
    hterm = OperadTerm.basis(QQ, ONE, (0, 1))
    assert operad_d(hterm) == OperadTerm.basis(QQ, LEAF, (0, 1))
    two = OperadTerm.basis(QQ, FORK, (0, 1, 2))
    assert operad_d(two).is_zero
    three = OperadTerm.basis(QQ, (LEAF, LEAF, LEAF), (0, 0, 1, 2))
    left = OperadTerm.basis(QQ, (FORK, LEAF), (0, 0, 1, 2), coeff=-1)
    right = OperadTerm.basis(QQ, (LEAF, FORK), (0, 0, 1, 2), coeff=-1)
    assert operad_d(three) == left.add(right)


def test_unit_derivation_displays():
    two = OperadTerm.basis(QQ, FORK, (0, 1, 2))
    assert unit_derivation(two) == OperadTerm.basis(
        QQ, (LEAF, LEAF, LEAF), (0, 1, 2, 2), caps=(2,))
    hterm = OperadTerm.basis(QQ, ONE, (0, 1))
    assert unit_derivation(hterm) == OperadTerm.basis(
        QQ, ((ONE, LEAF),), (0, 1, 1), caps=(1,))


def test_composition_signs_swap_two_homotopies():
    # (H x 1)(1 x H) against (1 x H)(H x 1): odd operators anticommute
    h01 = OperadTerm.basis(QQ, ONE, (0, 1))
    h12 = OperadTerm.basis(QQ, ONE, (1, 2))
    two = OperadTerm.basis(QQ, FORK, (0, 1, 2))
    t = compose_terms(h01, compose_terms(h12, two, 1), 0)
    u = compose_terms(h12, compose_terms(h01, two, 0), 1)
    assert t == u.scale(-1)
    assert not t.is_zero


def test_commutator_on_one_operation_is_conjugation():
    two = OperadTerm.basis(QQ, FORK, (0, 1, 2))
    lhs = operad_d(unit_derivation(two)).add(unit_derivation(operad_d(two)))
    assert lhs == unit_conjugation(two)


def test_operad_identities_random():
    rep = check_operad(path3(), frozenset([1]), samples=60, seed=3)
    assert rep.ok, rep.text()


def test_term_value_matches_the_operations():
    C, E, D = tree_pair("path3", 1)
    x = E.hom(0, 1).basis_element((LEAF, (0, 1), ("f",)))
    hterm = OperadTerm.basis(QQ, ONE, (0, 1))
    assert term_value(E, hterm, (0, 1), ((LEAF, (0, 1), ("f",)),)) == \
        evaluate(E.homotopy, (0, 1), (x,))
    capped = OperadTerm.basis(QQ, FORK, (0, 1, 1), caps=(1,))
    e1 = E.hom(1, 1).basis_element((LEAF, (1, 1), ("e1",)))
    assert term_value(E, capped, (0, 1), ((LEAF, (0, 1), ("f",)),)) == \
        evaluate(E.b(2), (0, 1, 1), (x, e1))


def test_action_is_a_chain_map():
    # every drawn term has a hom on each uncapped strand and names within
    # the leaf bound, so every draw evaluates, those that feed the
    # homotopy a name whose root is already unary (h o h = 0) included
    for which in ("path3", "arrow"):
        C, _, _ = tree_pair(which, 1)
        E = tree_category(C, frozenset([1]))  # a fresh homotopy memo
        for seed in (0, 1):
            rep = check_action_chain(E, samples=50, seed=seed)
            assert rep.ok, rep.text()
            (_, _, detail), = rep.checks
            checked, skipped, mode = detail.split(", ")
            assert int(checked.split()[0]) == 50, (which, seed, detail)
            assert mode == "sampled"
        stacked = [v for (_, (nm,)), v in E.homotopy.table.items()
                   if len(nm[0]) == 1]
        assert stacked and all(v.is_zero for v in stacked), which


def test_unit_homotopy_values():
    C, E, D = tree_pair("path3", 1)
    h = unit_homotopy(D)
    f = D.hom(0, 1).basis_element((LEAF, (0, 1), ("f",)))
    assert h.apply(0, 1, f).is_zero
    big = [nm for nm in D.hom(0, 2).names if len(nm[2]) == D.leaf_bound]
    assert big
    with pytest.raises(BoundError):
        h.apply(0, 2, D.hom(0, 2).basis_element(big[0]))


def marked_quotient(which, bobjs, bound=3):
    """The reduced tree category of a fixture over a set of marks."""
    key = (which, tuple(sorted(bobjs)), bound)
    if key not in _CACHE:
        C = path3() if which == "path3" else arrow_with_differential()
        _CACHE[key] = homotopy_quotient(C, frozenset(bobjs), bound)
    return _CACHE[key]


# one mark on each fixture, then two
LAW_MODELS = [("path3", {1}), ("arrow", {1}), ("arrow", {0}),
              ("path3", {0, 2}), ("arrow", {0, 1})]


def test_unit_homotopy_laws():
    for which, bobjs in LAW_MODELS:
        D = marked_quotient(which, bobjs)
        h = unit_homotopy(D)
        hp = left_unit_homotopy(D)
        rep = check_unit_homotopies(D, h, hp)
        assert rep.ok, (which, bobjs, rep.text())


# The mirror identification: the reference oracle for the left unit
# homotopy, which the arrow-reversed construction's right unit homotopy
# gives once transported back name by name.


class MirrorImage:
    """The mirror identification one name at a time, memoized.

    image(label) is (mirrored name, sign): trivial names map to trivial
    names, and homotopies and operations are carried through the
    reversal with the engine's signs, each read off one on_basis value
    of the arrow-reversed base's reduced category Dm.  Only the names
    asked for, and the subtrees they are built from, are computed.
    """

    def __init__(self, D, Dm):
        self.D, self.Dm = D, Dm
        self.memo = {}

    def image(self, label):
        out = self.memo.get(label)
        if out is not None:
            return out
        D, Dm = self.D, self.Dm
        ring = D.quiver.ring
        t, gobjs, gnames = label
        X, Y = gobjs[0], gobjs[-1]
        if t == LEAF:
            out = ((LEAF, (Y, X), gnames), ring.one)
        elif len(t) == 1:
            inner, c = self.image((t[0], gobjs, gnames))
            out = _single_name(Dm.homotopy.on_basis((Y, X), (inner,)), c,
                               label)
        else:
            k, chain, fnames, eps = root_split(D.base.quiver, label)
            q = D.quiver
            degs = [q.degree(fn[1][0], fn[1][-1], fn) for fn in reversed(fnames)]
            # the name's coefficient in opD.b(k) of the reversed factors
            c = koszul_sign(range(k - 1, -1, -1), degs) * (-eps if k % 2 == 0 else eps)
            names = []
            for fn in reversed(fnames):
                name, sign = self.image(fn)
                names.append(name)
                c = ring.mul(c, sign)
            out = _single_name(Dm.b(k).on_basis(tuple(reversed(chain)),
                                                tuple(names)), c, label)
        self.memo[label] = out
        return out

    def preimage(self, mlabel):
        """The name whose image is mlabel, with that image's sign: the
        reversed tree on the reversed objects and arrows."""
        t, mobjs, mnames = mlabel
        label = (_reversed_tree(t), tuple(reversed(mobjs)),
                 tuple(reversed(mnames)))
        name, sign = self.image(label)
        if name != mlabel:
            raise ValueError("%r mirrors to %r, not %r" % (label, name, mlabel))
        return label, sign


def _reversed_tree(t):
    return tuple(_reversed_tree(s) for s in reversed(t))


def _single_name(el, c, label):
    """(name, c * coefficient) of a one-term value whose coefficient
    times c is a sign; anything else raises."""
    ring = el.module.ring
    if len(el.terms) != 1:
        raise ValueError("the mirror of %r is not a single name" % (label,))
    (name, v), = el.terms.items()
    v = ring.mul(v, c)
    if ring.mul(v, v) != ring.one:
        raise ValueError("the mirror of %r carries %s, not a sign"
                         % (label, ring.fmt(v)))
    return name, v


def mirror_map(D, Dm):
    """Identify the arrow-reversed reduced category with the reduced
    category of the arrow-reversed base.

    Each basis name lands on a single mirrored name up to sign; see
    MirrorImage.  Returns the arrow-reversed category and the
    identification as a quiver map out of it.
    """
    opD = opposite(D)
    mirror = MirrorImage(D, Dm)
    comps = {}
    for X, Y in D.quiver.pairs():
        hom = Dm.hom(Y, X)
        comps[(Y, X)] = {nm: hom.basis_element(*mirror.image(nm))
                         for nm in D.hom(X, Y).names}
    return opD, QuiverMap(opD.quiver, Dm.quiver, 0, comps)


def mirrored_left_homotopy(D):
    """The left unit homotopy as the right one of the arrow-reversed
    construction, transported through the mirror identification.

    A sign is its own inverse, so a mirrored name's preimage carries the
    sign of its image.
    """
    Dm = homotopy_quotient(opposite(D.base), D.bobjs, D.leaf_bound,
                           name=D.name + ".mirror")
    mirror = MirrorImage(D, Dm)
    hm = unit_homotopy(Dm)
    mul = D.quiver.ring.mul
    matrices = {}
    for (X, Y) in D.quiver.pairs():
        hom, mhom = D.hom(X, Y), Dm.hom(Y, X)
        mat = {}
        for nm in hom.names:
            if len(nm[2]) + 1 > D.leaf_bound:
                continue
            hv = hm.apply(Y, X, mhom.basis_element(*mirror.image(nm)))
            terms = {}
            for mnm, c in hv.items():
                pre, sign = mirror.preimage(mnm)
                terms[pre] = mul(c, sign)
            mat[nm] = hom.element(terms, hv.degree)
        matrices[(X, Y)] = mat
    return PartialHomotopy(D, matrices)


# every nonempty mark set of both fixtures at bounds 2 and 3, and one
# model at bound 4
MIRROR_CASES = {"%s-%s-%d" % (which, ",".join(map(str, marks)), bound):
                (which, marks, bound)
                for which, objs in (("path3", (0, 1, 2)), ("arrow", (0, 1)))
                for r in range(1, len(objs) + 1)
                for marks in itertools.combinations(objs, r)
                for bound in (2, 3)}
MIRROR_CASES["path3-1-4"] = ("path3", (1,), 4)


@pytest.mark.parametrize("case", list(MIRROR_CASES))
def test_left_unit_homotopy_is_the_mirrored_right_one(case):
    D = marked_quotient(*MIRROR_CASES[case])
    assert left_unit_homotopy(D).components == mirrored_left_homotopy(D).components


def test_left_rule_with_the_path_count_sign_fails_the_left_law(monkeypatch):
    # each left schedule's coefficient in the value is (-1)^(stages
    # after the fed vertex); the mutant counts only the path vertices
    # after it, as the right side does
    insertions = homquot._unit_insertions

    def path_count_signs(tree, left):
        pairs = list(insertions(tree, left))
        if not left:
            return pairs
        return [(-1 if (len(pairs) - i) % 2 else 1, schedule)
                for i, (_, schedule) in enumerate(pairs)]

    monkeypatch.setattr(homquot, "_unit_insertions", path_count_signs)
    for which, bobjs in LAW_MODELS:
        D = marked_quotient(which, bobjs)
        rep = check_unit_homotopies(D, unit_homotopy(D), left_unit_homotopy(D))
        laws = {name: ok for name, ok, _ in rep.checks}
        assert laws["right law"] and not laws["left law"], (which, bobjs)


def test_mirror_map_is_an_isomorphism():
    C, _, D = tree_pair("path3", 1)
    Dm = homotopy_quotient(opposite(C), frozenset([1]), D.leaf_bound,
                           name="mirror")
    opD, m = mirror_map(D, Dm)
    seen = 0
    for pair, mat in m.components.items():
        for nm, el in mat.items():
            (mnm, c), = el.items()
            assert c in (QQ.one, QQ.normalize(-1))
            seen += 1
    assert seen == sum(len(D.hom(X, Y).names) for X, Y in D.quiver.pairs())
    F = strict_functor(opD, Dm, lambda X: X, m.components, name="mirror")
    rep = check_functor(F, samples=40, seed=0)
    assert rep.ok, rep.text()


def test_mirror_preimage_is_checked_against_the_image():
    C, _, D = tree_pair("path3", 1)
    Dm = homotopy_quotient(opposite(C), frozenset([1]), D.leaf_bound,
                           name="mirror")
    mirror = MirrorImage(D, Dm)
    for X, Y in D.quiver.pairs():
        for nm in D.hom(X, Y).names:
            mnm, sign = mirror.image(nm)
            assert mirror.preimage(mnm) == (nm, sign)
    # a memo that disagrees with the structural reversal is caught
    nm = (ONE, (0, 1), ("f",))
    mnm, sign = mirror.image(nm)
    other = next(m for m in Dm.hom(1, 0).names if m != mnm)
    mirror.memo[nm] = (other, sign)
    with pytest.raises(ValueError, match="mirrors to"):
        mirror.preimage(mnm)


def test_scaled_homotopy_fails_the_law():
    _, _, D = tree_pair("path3", 1)
    h = unit_homotopy(D)
    hp = left_unit_homotopy(D)
    nm = (ONE, (0, 1), ("f",))
    assert not h.components[(0, 1)][nm].is_zero
    matrices = {pair: dict(h.components.get(pair, {})) for pair in h.pairs}
    matrices[(0, 1)][nm] = matrices[(0, 1)][nm].scale(2)
    bad = PartialHomotopy(D, matrices)
    rep = check_unit_homotopies(D, bad, hp)
    assert not rep.ok
    assert any(name == "right law" and not ok for name, ok, _ in rep.checks)


def test_grafting_beyond_the_bound_raises():
    _, E, _ = tree_pair("path3", 1)
    a = E.hom(0, 2).basis_element((FORK, (0, 1, 2), ("f", "g")))
    b = E.hom(2, 2).basis_element((FORK, (2, 2, 2), ("e2", "e2")))
    with pytest.raises(BoundError):
        evaluate(E.b(2), (0, 2, 2), (a, b))


def _validation_cases():
    C, E, D = tree_pair("path3", 1)
    _, _, D2 = tree_pair("path3", 1, bound=2)
    bare = AInfCategory(C.quiver, {2: C.b(2)}, 2, name="bare")
    fork = OperadTerm.basis(QQ, FORK, (0, 1, 2))
    capped = OperadTerm.basis(QQ, FORK, (1, 1, 2), caps=(0,))
    return {
        "unknown object": (lambda: tree_category(C, {7}), "unknown"),
        "leaf bound": (lambda: homotopy_quotient(C, {1}, 0),
                       "leaf bound must be at least 1"),
        "defect base": (lambda: composite_defect(arrow_with_differential(), D, 2),
                        "not over"),
        "defect arity": (lambda: composite_defect(C, D, 4), "outside 2..3"),
        "projection bounds": (lambda: projection_functor(E, D2),
                              "differ in base or bound"),
        "term objects": (lambda: OperadTerm.basis(QQ, FORK, (0, 1)),
                         "needs 3 objects"),
        "term cap": (lambda: OperadTerm.basis(QQ, FORK, (0, 1, 2), caps=(0,)),
                     "must be a loop"),
        "derivation caps": (lambda: unit_derivation(capped), "cap-free"),
        "compose slot": (lambda: compose_terms(fork, capped, 0),
                         "slot objects"),
        "conjugation caps": (lambda: unit_conjugation(capped), "cap-free"),
        "empty term": (lambda: term_value(D, OperadTerm(QQ), (0, 1), ()),
                       "empty term"),
        "term inputs": (lambda: term_value(
            D, fork, (0, 1), ((LEAF, (0, 1), ("f",)),)), "takes 2 inputs"),
        "term strands": (lambda: term_value(
            D, capped, (0, 1), ((LEAF, (0, 1), ("f",)),)), "strands of"),
        "no units": (lambda: unit_homotopy(homotopy_quotient(bare, {1}, 2)),
                     "distinguished units"),
        "left no units": (lambda: left_unit_homotopy(
            homotopy_quotient(bare, {1}, 2)), "distinguished units"),
    }


@pytest.mark.parametrize("case", [
    "unknown object", "leaf bound", "defect base", "defect arity",
    "projection bounds", "term objects", "term cap", "derivation caps",
    "compose slot", "conjugation caps", "empty term", "term inputs",
    "term strands", "no units", "left no units"])
def test_homquot_validation_raises(case):
    call, message = _validation_cases()[case]
    with pytest.raises(ValueError, match=message):
        call()
