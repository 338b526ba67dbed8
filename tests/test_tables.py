"""Rule-less operations against the dense evaluation they replaced.

evaluate reads a rule-less MultiOp through its index of table rows by
leading arguments, expanding only the leading factors; slot_values reads
it through the index for one slot, kept on the op, so a tampered copy
must read its own indexes.  The oracles below are the dense forms:
every product of factor terms asked through on_basis, ChainMap.add
through both maps on every basis element, and mirror_map reading each
coefficient off the evaluated reversed operation.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ainfkit.category import complexes_category, opposite
from ainfkit.graded import (ChainMap, GradedModule, Ring, linear_combination,
                            map_combination)
from ainfkit.homquot import homotopy_quotient
from ainfkit.quiver import (GradedQuiver, MultiOp, bounded_tensors,
                            combine_ops, evaluate, slot_values)
from ainfkit.trees import LEAF, root_split
from test_category import arrow_with_differential, path3
from test_homquot import mirror_map

RINGS = [Ring("QQ"), Ring("Fp", 2), Ring("Fp", 7)]


def dense_evaluate(op, objs, factors):
    """Every product of factor terms, each asked through on_basis."""
    ring = op.source.ring
    terms = [((), ring.one)]
    for f in factors:
        nxt = []
        for names, c in terms:
            for n, fc in f.items():
                nxt.append((names + (n,), ring.mul(c, fc)))
        terms = nxt
    deg = sum(f.degree for f in factors) + op.degree
    return linear_combination(
        op.out_module(objs), deg,
        ((op.on_basis(tuple(objs), names), c) for names, c in terms))


def assert_same_value(op, objs, factors):
    got = evaluate(op, objs, factors)
    want = dense_evaluate(op, objs, factors)
    assert got == want
    assert got.degree == want.degree
    assert got.module is want.module


@st.composite
def complexes(draw):
    """A DG category of one or two small complexes over QQ, F_2 or F_7."""
    ring = draw(st.sampled_from(RINGS))
    spec = {}
    for obj in draw(st.sampled_from([["M"], ["M", "N"]])):
        low = draw(st.integers(0, 1))
        basis = [(obj + "a", low), (obj + "b", low + 1),
                 (obj + "c", draw(st.integers(0, 2)))]
        c = ring.normalize(draw(st.integers(-3, 3)))
        spec[obj] = (basis, {obj + "a": {obj + "b": c}} if c else {})
    return complexes_category(ring, spec)


def shared_names_quiver(ring):
    """Two objects; every hom has the same names a (deg 0), b and c (deg
    1), so only the objects tell apart table rows with equal names."""
    homs = {(X, Y): GradedModule(ring, [("a", 0), ("b", 1), ("c", 1)])
            for X in (0, 1) for Y in (0, 1)}
    return GradedQuiver(ring, [0, 1], homs)


def random_table_op(q, arity, degree, rng):
    """A rule-less op with random entries on some basis tensors; some of
    the stored entries are zero Elements."""
    table = {}
    for objs, names in bounded_tensors(q, arity):
        deg = sum(q.degree(objs[i], objs[i + 1], names[i])
                  for i in range(arity)) + degree
        mod = q.hom(objs[0], objs[-1])
        roll = rng.random()
        if roll < 0.15:
            table[(objs, names)] = mod.zero(deg)
        elif roll < 0.6 and mod.basis_of_degree(deg):
            table[(objs, names)] = mod.random_element(deg, rng, density=1.0)
    return MultiOp(q, q, arity, degree, table=table, name="t%d" % arity)


def random_walk(q, length, rng, tries=50):
    """A composable basis tensor drawn by a random walk (a random object,
    then a random nonzero hom out of it and a random name per step), or
    None when tries walks all reach a dead end.  The tensors of a length
    can be far too many to list and draw from."""
    for _ in range(tries):
        objs, names = [rng.choice(q.objects)], []
        for _ in range(length):
            nexts = [Y for Y in q.objects if q.hom(objs[-1], Y).names]
            if not nexts:
                break
            Y = rng.choice(nexts)
            names.append(rng.choice(q.hom(objs[-1], Y).names))
            objs.append(Y)
        else:
            return tuple(objs), tuple(names)
    return None


def random_factor(mod, kind, rng):
    """A zero, single-term or dense homogeneous element of mod."""
    deg = rng.choice(sorted(set(mod.degrees.values())))
    if kind == "zero":
        return mod.zero(deg)
    if kind == "single":
        name = rng.choice(mod.basis_of_degree(deg))
        return mod.basis_element(name, mod.ring.random(rng, nonzero=True))
    terms = {n: mod.ring.random(rng, nonzero=True)
             for n in mod.basis_of_degree(deg)}
    return mod.element(terms, deg)


def check_against_dense(op, kinds, rng):
    objs, _ = random_walk(op.source, op.arity, rng)
    factors = tuple(random_factor(op.source.hom(objs[i], objs[i + 1]),
                                  kinds[i], rng) for i in range(op.arity))
    assert_same_value(op, objs, factors)


KINDS = st.lists(st.sampled_from(["zero", "single", "dense"]),
                 min_size=3, max_size=3)


@settings(max_examples=60, deadline=None)
@given(complexes(), KINDS, st.integers(0, 2 ** 16))
def test_dg_operations_agree_with_dense_oracle(A, kinds, seed):
    rng = random.Random(seed)
    for arity in (1, 2):
        op = A.b(arity)
        for _ in range(4):
            check_against_dense(op, kinds, rng)
    # the same table through a rule takes the on_basis path
    doubled = combine_ops([(A.b(2), 2)], name="2b2")
    assert doubled.index is None
    check_against_dense(doubled, kinds, rng)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RINGS), KINDS, st.integers(0, 2 ** 16))
def test_hand_built_tables_agree_with_dense_oracle(ring, kinds, seed):
    rng = random.Random(seed)
    q = shared_names_quiver(ring)
    for arity in (1, 2, 3):
        op = random_table_op(q, arity, rng.choice([0, 1]), rng)
        for _ in range(4):
            check_against_dense(op, kinds, rng)


def test_zero_table_entry_reads_as_zero():
    ring = RINGS[2]
    q = shared_names_quiver(ring)
    mod = q.hom(0, 0)
    op = MultiOp(q, q, 2, 0, table={
        ((0, 0, 0), ("a", "a")): mod.zero(0),
        ((0, 0, 0), ("a", "b")): mod.basis_element("b", 3)})
    a, b = mod.basis_element("a", 2), mod.basis_element("b", 5)
    assert evaluate(op, (0, 0, 0), (a, a)).is_zero
    assert evaluate(op, (0, 0, 0), (a, a)).degree == 0
    assert evaluate(op, (0, 0, 0), (a, b)) == mod.basis_element("b", 2 * 5 * 3)
    assert_same_value(op, (0, 0, 0), (a, a))
    assert_same_value(op, (0, 0, 0), (a.add(mod.basis_element("a", 1)), b))


def test_tampered_copy_reads_its_own_table():
    """A copy with one entry doubled, built as the benchmark's tampered
    models are: a new MultiOp from a copy of the table."""
    A = complexes_category(RINGS[2], {
        "M": ([("m0", 0), ("m1", 1)], {"m0": {"m1": 3}})})
    op = A.b(2)
    (objs, names), val = sorted(op.table.items(), key=repr)[0]
    # the original's slot indexes exist before the copy is made
    slot_indexes = [op.slot_index(s) for s in range(op.arity)]
    table = dict(op.table)
    table[(objs, names)] = val.scale(2)
    bad = MultiOp(op.source, op.target, op.arity, op.degree, table=table,
                  rule=op.rule, name="b2.bad")
    assert bad.index is not op.index
    q = A.quiver
    factors = tuple(q.hom(objs[i], objs[i + 1]).basis_element(names[i])
                    for i in range(2))
    assert evaluate(bad, objs, factors) == val.scale(2)
    assert evaluate(op, objs, factors) == val
    assert_same_value(bad, objs, factors)
    for slot in range(op.arity):
        assert bad.slot_index(slot) is not slot_indexes[slot]
        rest = factors[:slot] + factors[slot + 1:]
        mod = q.hom(objs[slot], objs[slot + 1])
        for which, want in ((bad, val.scale(2)), (op, val)):
            got = slot_values(which, objs, rest, slot)
            assert got[names[slot]] == want
            assert got == {w: evaluate(which, objs, rest[:slot]
                                       + (mod.basis_element(w),) + rest[slot:])
                           for w in mod.names}


def dense_chainmap_add(F, G):
    """Both maps on the basis element of every name either one touches."""
    if F.degree != G.degree:
        raise ValueError("sum of maps of different degrees")
    matrix = {}
    for n in set(F.matrix) | set(G.matrix):
        x = F._smod.basis_element(n)
        matrix[n] = F(x).add(G(x))
    return ChainMap(F.source, F.target, F.degree, matrix)


def random_map(smod, tmod, degree, rng):
    matrix = {}
    for n in smod.names:
        deg = smod.degrees[n] + degree
        if rng.random() < 0.7 and tmod.basis_of_degree(deg):
            matrix[n] = tmod.random_element(deg, rng, density=0.6)
    return ChainMap(smod, tmod, degree, matrix)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RINGS), st.integers(-1, 1), st.integers(0, 2 ** 16))
def test_chainmap_add_agrees_with_dense_oracle(ring, degree, seed):
    rng = random.Random(seed)
    smod = GradedModule(ring, [("x", 0), ("y", 0), ("z", 1)])
    tmod = GradedModule(ring, [("p", -1), ("q", 0), ("r", 1), ("s", 1), ("t", 2)])
    F = random_map(smod, tmod, degree, rng)
    G = random_map(smod, tmod, degree, rng)
    # a summand that cancels F on some names, so entries drop out
    H = G.add(F.scale(-1)) if rng.random() < 0.5 else G
    for left, right in ((F, G), (F, H), (F, F.scale(-1)), (F, ChainMap(smod, tmod, degree, {}))):
        got, want = left.add(right), dense_chainmap_add(left, right)
        assert got.matrix == want.matrix
        assert all(not el.is_zero for el in got.matrix.values())
    with pytest.raises(ValueError):
        F.add(random_map(smod, tmod, degree + 1, rng))


def per_row_compose(F, G):
    """F then G, with G applied to each row of F."""
    return ChainMap(F.source, G.target, F.degree + G.degree,
                    {n: G(el) for n, el in F.matrix.items()})


def chained_combination(source, target, degree, scaled):
    """sum(c * F), one scaled copy and one partial sum per term."""
    total = ChainMap(source, target, degree, {})
    for F, c in scaled:
        total = total.add(F.scale(c))
    return total


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([Ring("QQ"), Ring("Fp", 5), Ring("Fp", 7)]),
       st.integers(-1, 1), st.integers(0, 2 ** 16))
def test_stored_map_sums_agree_with_per_row_oracles(ring, degree, seed):
    rng = random.Random(seed)
    smod = GradedModule(ring, [("x", 0), ("y", 0), ("z", 1), ("o", 2)])
    mmod = GradedModule(ring, [("p", -1), ("q", 0), ("r", 1), ("s", 1), ("t", 2)])
    tmod = GradedModule(ring, [("u", -1), ("v", 0), ("w", 1), ("k", 2), ("l", 3)])
    F = random_map(smod, mmod, degree, rng)
    G = random_map(mmod, tmod, rng.randint(-1, 1), rng)
    # a row of F that G sends to zero: its entries at r and s cancel,
    # since G's row at s is its row at r scaled
    k, a = ring.random(rng, nonzero=True), ring.random(rng, nonzero=True)
    grows = dict(G.matrix)
    grows.pop("s", None)
    if "r" in grows:
        grows["s"] = grows["r"].scale(k)
    G = ChainMap(mmod, tmod, G.degree, grows)
    n = rng.choice([m for m in smod.names if smod.degrees[m] == 1 - degree])
    frows = dict(F.matrix)
    frows[n] = mmod.element({"r": a, "s": ring.neg(ring.mul(a, ring.inv(k)))}, 1)
    F = ChainMap(smod, mmod, degree, frows)
    got, want = F.compose(G), per_row_compose(F, G)
    assert got.matrix == want.matrix and got.degree == want.degree
    assert n not in got.matrix
    assert all(not el.is_zero for el in got.matrix.values())

    H = random_map(smod, mmod, degree, rng)
    c = ring.random(rng, nonzero=True)
    for scaled in ([], [(F, 1)], [(F, c), (F, ring.neg(c))],
                   [(F, c), (H, ring.random(rng)), (F, 1)],
                   [(H, 0), (F, c), (H, 1), (H, ring.neg(c))]):
        got = map_combination(smod, mmod, degree, scaled)
        want = chained_combination(smod, mmod, degree, scaled)
        assert got.matrix == want.matrix
        assert all(not el.is_zero for el in got.matrix.values())
    with pytest.raises(ValueError):
        map_combination(smod, mmod, degree + 1, [(F, 1)])
    with pytest.raises(ValueError):
        map_combination(smod, tmod, degree, [(F, 1)])


def dense_mirror_components(D, Dm):
    """mirror_map's images, each coefficient read off opD.b(k) evaluated
    on the reversed factors."""
    opD = opposite(D)
    q, qm = D.quiver, Dm.quiver
    memo = {}

    def image(label):
        if label in memo:
            return memo[label]
        t, gobjs, gnames = label
        X, Y = gobjs[0], gobjs[-1]
        if t == LEAF:
            val = qm.hom(Y, X).basis_element((LEAF, (Y, X), gnames))
        elif len(t) == 1:
            val = evaluate(Dm.homotopy, (Y, X), (image((t[0], gobjs, gnames)),))
        else:
            k, chain, fnames, _ = root_split(D.base.quiver, label)
            rev = tuple(reversed(chain))
            factors = tuple(q.hom(fn[1][0], fn[1][-1]).basis_element(fn)
                            for fn in fnames)
            c = evaluate(opD.b(k), rev, tuple(reversed(factors))).coeff(label)
            assert c != q.ring.zero
            mirrored = tuple(image(fn) for fn in reversed(fnames))
            val = evaluate(Dm.b(k), rev, mirrored).scale(q.ring.inv(c))
        memo[label] = val
        return val

    return {(Y, X): {nm: image(nm) for nm in D.hom(X, Y).names}
            for X, Y in q.pairs()}


@pytest.mark.parametrize("which,bobjs", [("path3", {1}), ("arrow", {0}),
                                         ("path3", {0, 2})])
def test_mirror_map_agrees_with_evaluated_coefficients(which, bobjs):
    C = path3() if which == "path3" else arrow_with_differential()
    D = homotopy_quotient(C, frozenset(bobjs), 3)
    Dm = homotopy_quotient(opposite(C), frozenset(bobjs), 3)
    _, m = mirror_map(D, Dm)
    want = dense_mirror_components(D, Dm)
    grafted = [nm for mat in want.values() for nm in mat
               if nm[0] != LEAF and len(nm[0]) > 1]
    assert grafted
    assert m.components == want
