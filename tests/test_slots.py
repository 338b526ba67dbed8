"""One-pass stored maps against the per-name evaluations they replaced.

slot_values evaluates an operation on every basis name of one slot, the
other factors held fixed, in one pass; the Yoneda family's stored maps
and the hom differentials are read from it.  A rule-less op is read
through its index for that slot, one row per product of the other
factors, and the entries are summed as they are read, so a stored entry
of the wrong degree or module must raise where the per-name evaluations
raise.  The oracles below are the per-name forms: one evaluate and one
Koszul sign per basis name, and the differential of a stored map taken
name by name through minus the arity-1 operation.
"""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from ainfkit.category import AInfCategory
from ainfkit.graded import ChainMap, Element, Ring, koszul_sign
from ainfkit.homquot import homotopy_quotient
from ainfkit.quiver import (BoundError, MultiOp, bounded_tensors,
                            combine_ops, evaluate, slot_values)
from ainfkit.yoneda import (RepresentedFunctor, _y_value, hom_differential,
                            map_differential)
from test_category import path3
from test_tables import (RINGS, random_factor, random_map, random_table_op,
                         random_walk, shared_names_quiver)
from test_yoneda import free_one_object, homotopy_path, two_complexes

QQ, F5, F7 = Ring("QQ"), Ring("Fp", 5), Ring("Fp", 7)


def per_name_slot_values(op, objs, factors, slot):
    """One evaluate per basis name of the slot."""
    mod = op.source.hom(objs[slot], objs[slot + 1])
    return {w: evaluate(op, objs, factors[:slot] + (mod.basis_element(w),)
                        + factors[slot:])
            for w in mod.names}


def per_name_sign(wdeg, zdegs, xdegs):
    """The family's sign at a name of degree wdeg: the Koszul sign of
    moving the x block past w and the z block, times the parity of n."""
    n, k = len(xdegs), len(zdegs)
    perm = list(range(k + n, k, -1)) + list(range(0, k + 1))
    return (-1 if n % 2 else 1) * koszul_sign(perm, [wdeg] + zdegs + xdegs)


def per_name_y_value(A, zobjs, zfactors, xobjs, xfactors):
    """The family's stored map, one evaluate and one sign per name."""
    n, k = len(xfactors), len(zfactors)
    smod = A.hom(xobjs[0], zobjs[0])
    tmod = A.hom(xobjs[-1], zobjs[-1])
    degree = (sum(f.degree for f in zfactors)
              + sum(f.degree for f in xfactors) + 1)
    op = A.b(n + k + 1)
    matrix = {}
    if op is not None:
        chain = tuple(reversed(xobjs)) + tuple(zobjs)
        rev = tuple(reversed(xfactors))
        zdegs = [f.degree for f in zfactors]
        xdegs = [f.degree for f in xfactors]
        for w in smod.names:
            sign = per_name_sign(smod.degrees[w], zdegs, xdegs)
            val = evaluate(op, chain,
                           rev + (smod.basis_element(w),) + tuple(zfactors))
            matrix[w] = val.scale(sign)
    return ChainMap(smod, tmod, degree, matrix)


def minus_b1(A, pair, el):
    op = A.b(1)
    if op is None or el.is_zero:
        return A.hom(*pair).zero(el.degree + 1)
    return evaluate(op, pair, (el,)).scale(-1)


def per_name_map_differential(A, spair, tpair, F):
    """w -> d(F w) - (-1)^{deg F} F(d w), name by name."""
    smod = A.hom(*spair)
    sign = -1 if F.degree % 2 else 1
    matrix = {}
    for w in smod.names:
        x = smod.basis_element(w)
        matrix[w] = minus_b1(A, tpair, F(x)).sub(
            F(minus_b1(A, spair, x)).scale(sign))
    return ChainMap(F.source, F.target, F.degree + 1, matrix)


def assert_same_values(got, want):
    assert list(got) == list(want)
    for w, el in want.items():
        assert got[w] == el
        assert got[w].degree == el.degree
        assert got[w].module is el.module


def assert_same_map(got, want):
    assert got.degree == want.degree
    assert got._smod is want._smod and got._tmod is want._tmod
    assert got.matrix == want.matrix


def outcome(fn, *args):
    """fn's value, or the BoundError class when the evaluation escapes."""
    try:
        return fn(*args)
    except BoundError:
        return BoundError


def recording(op):
    """Make op list the basis tensors it is asked on; returns the list."""
    asked = []
    plain = op.on_basis

    def on_basis(objs, names):
        asked.append((tuple(objs), tuple(names)))
        return plain(objs, names)

    op.on_basis = on_basis
    return asked


FIXTURES = {
    "two_complexes QQ": lambda: two_complexes(QQ),
    "two_complexes F5": lambda: two_complexes(F5),
    "two_complexes F7": lambda: two_complexes(F7),
    "homotopy_path QQ": lambda: homotopy_path(QQ),
    "homotopy_path F5": lambda: homotopy_path(F5),
    "free_one_object": free_one_object,
    "path3 quotient": lambda: homotopy_quotient(path3(), frozenset({1}), 3),
}
_BUILT = {}


def fixture(name):
    if name not in _BUILT:
        _BUILT[name] = FIXTURES[name]()
    return _BUILT[name]


FACTOR_KINDS = st.lists(st.sampled_from(["zero", "single", "dense"]),
                        min_size=6, max_size=6)


def split_tensor(A, length, n, kinds, rng):
    """A random composable tensor of zero, single or dense factors, split
    into an x block of n factors (read against the arrows), the w slot
    and a z block; None when no chain of that length is found."""
    q = A.quiver
    found = random_walk(q, length, rng)
    if found is None:
        return None
    objs = found[0]
    factors = tuple(random_factor(q.hom(objs[i], objs[i + 1]), kinds[i], rng)
                    for i in range(length))
    return (objs[n + 1:], factors[n + 1:],
            tuple(reversed(objs[:n + 1])), tuple(reversed(factors[:n])))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(FIXTURES)), st.integers(1, 4), st.integers(0, 3),
       FACTOR_KINDS, st.integers(0, 2 ** 16))
def test_stored_maps_agree_with_per_name_oracles(which, length, n, kinds,
                                                 seed):
    assume(n < length)
    A = fixture(which)
    rng = random.Random(seed)
    tensor = split_tensor(A, length, n, kinds, rng)
    assume(tensor is not None)
    zobjs, zfactors, xobjs, xfactors = tensor
    want = outcome(per_name_y_value, A, *tensor)
    got = outcome(_y_value, A, *tensor)
    if want is BoundError:
        assert got is BoundError
        return
    assert_same_map(got, want)
    spair, tpair = (xobjs[0], zobjs[0]), (xobjs[-1], zobjs[-1])
    smod, tmod = A.hom(*spair), A.hom(*tpair)
    for F in (want, random_map(smod, tmod, rng.randint(-2, 2), rng)):
        assert_same_map(map_differential(A, spair, tpair, F),
                        per_name_map_differential(A, spair, tpair, F))


def test_odd_x_block_splits_signs_by_parity_of_w():
    # some stored map with an odd x block has nonzero entries at both an
    # even and an odd w, so both signs of the factorisation are exercised
    A = two_complexes(F7)
    q = A.quiver
    for (yobjs, ynames), Z in ((y, Z) for y in bounded_tensors(q, 1)
                               for Z in q.objects):
        x = q.hom(*yobjs).basis_element(ynames[0])
        if x.degree % 2 == 0:
            continue
        xobjs = tuple(reversed(yobjs))
        got = _y_value(A, (Z,), (), xobjs, (x,))
        assert_same_map(got, per_name_y_value(A, (Z,), (), xobjs, (x,)))
        if {got._smod.degrees[w] % 2 for w in got.matrix} == {0, 1}:
            return
    raise AssertionError("no odd x block reached both parities of w")


def test_rule_branch_signs_reach_minus_one_at_both_parities_of_w():
    # the same family with every operation behind a rule, so slot_values
    # takes its rule branch; nonzero entries with sign -1 occur at an
    # even and at an odd w, so a sign dropped there cannot pass
    B = two_complexes(F7)
    A = AInfCategory(B.quiver, {n: combine_ops([(op, 1)])
                                for n, op in B.ops.items()},
                     B.max_arity, units=B.units, name="cpx2 by rule")
    assert all(op.index is None for op in A.ops.values())
    q = A.quiver
    minus = set()
    for (yobjs, ynames), Z in ((y, Z) for y in bounded_tensors(q, 1)
                               for Z in q.objects):
        x = q.hom(*yobjs).basis_element(ynames[0])
        xobjs = tuple(reversed(yobjs))
        got = _y_value(A, (Z,), (), xobjs, (x,))
        assert_same_map(got, per_name_y_value(A, (Z,), (), xobjs, (x,)))
        for w in got.matrix:
            wdeg = got._smod.degrees[w]
            if per_name_sign(wdeg, [], [x.degree]) == -1:
                minus.add(wdeg % 2)
    assert minus == {0, 1}


@pytest.mark.parametrize("which", sorted(FIXTURES))
def test_hom_differential_is_minus_b1(which):
    A = fixture(which)
    rng = random.Random(5)
    for X in A.objects:
        h = RepresentedFunctor(A, X)
        for Z in A.objects:
            mod = h.module_at(Z)
            d = hom_differential(A, (X, Z))
            want = {w: minus_b1(A, (X, Z), mod.basis_element(w))
                    for w in mod.names}
            assert d.matrix == {w: el for w, el in want.items() if el.terms}
            assert h.complex_at(Z).d == d.matrix
            if mod.names:
                el = random_factor(mod, "dense", rng)
                assert h.differential(Z, el) == minus_b1(A, (X, Z), el)


def bounded_rule_op(op, limit):
    """op behind a rule that escapes on tensors with more than limit c's."""
    def rule(objs, names):
        if sum(nm == "c" for nm in names) > limit:
            raise BoundError("too many c")
        return op.on_basis(objs, names)

    return MultiOp(op.source, op.target, op.arity, op.degree, rule=rule,
                   name="bounded")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RINGS), FACTOR_KINDS, st.integers(0, 2 ** 16))
def test_slot_values_agree_with_per_name_evaluate(ring, kinds, seed):
    rng = random.Random(seed)
    q = shared_names_quiver(ring)
    for arity in (1, 2, 3):
        op = random_table_op(q, arity, rng.choice([0, 1]), rng)
        objs, _ = random_walk(q, arity, rng)
        factors = tuple(random_factor(q.hom(objs[i], objs[i + 1]), kinds[i],
                                      rng) for i in range(arity))
        limit = rng.randint(0, 2)
        for slot in range(arity):
            rest = factors[:slot] + factors[slot + 1:]
            assert_same_values(slot_values(op, objs, rest, slot),
                               per_name_slot_values(op, objs, rest, slot))
            # a rule is asked on the same tensors in the same order, and
            # escapes exactly when the per-name evaluations escape
            for make in (lambda: combine_ops([(op, 1)]),
                         lambda: bounded_rule_op(op, limit)):
                one, two = make(), make()
                asked_one, asked_two = recording(one), recording(two)
                want = outcome(per_name_slot_values, one, objs, rest, slot)
                got = outcome(slot_values, two, objs, rest, slot)
                assert asked_two == asked_one
                if want is BoundError:
                    assert got is BoundError
                else:
                    assert_same_values(got, want)


def raised(fn, *args):
    """fn's value, or the ValueError class when it raises one."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def test_slot_values_reject_entries_of_another_degree_or_module():
    # a nonzero stored entry of the wrong degree or module raises at
    # exactly the slots where some per-name evaluation reaches it; a
    # stored zero of the wrong degree is skipped, never raised on
    seen = set()
    for seed in range(60):
        rng = random.Random(seed)
        q = shared_names_quiver(F7)
        op = random_table_op(q, 3, 1, rng)
        objs, names = random_walk(q, 3, rng)
        good = q.hom(objs[0], objs[-1])
        deg = sum(q.degree(objs[i], objs[i + 1], names[i])
                  for i in range(3)) + 1
        if seed % 3 == 0:
            wrong = good.zero(deg + 1)
        elif seed % 3 == 1:
            wrong = good.basis_element(
                good.basis_of_degree(1 - deg % 2)[0], rng.randint(1, 6))
        else:
            # the right degree, read as an element of another hom
            wrong = Element(q.hom(1 - objs[0], objs[-1]), {"a": 1}, deg)
        table = dict(op.table)
        table[(objs, names)] = wrong
        bad = MultiOp(q, q, 3, 1, table=table, name="bad")
        kinds = [rng.choice(["single", "dense"]) for _ in range(3)]
        factors = tuple(random_factor(q.hom(objs[i], objs[i + 1]), kinds[i],
                                      rng) for i in range(3))
        for slot in range(3):
            rest = factors[:slot] + factors[slot + 1:]
            want = raised(per_name_slot_values, bad, objs, rest, slot)
            got = raised(slot_values, bad, objs, rest, slot)
            seen.add(want is ValueError)
            if want is ValueError:
                assert wrong.terms
                assert got is ValueError
            else:
                assert_same_values(got, want)
    assert seen == {True, False}


def test_slot_indexes_are_built_once():
    rng = random.Random(3)
    q = shared_names_quiver(F7)
    op = random_table_op(q, 3, 0, rng)
    assert op.slot_index(op.arity - 1) is op.index
    built = [op.slot_index(s) for s in range(op.arity)]
    for slot, index in enumerate(built):
        assert op.slot_index(slot) is index
        want = {}
        for (objs, names), el in op.table.items():
            key = (objs, names[:slot] + names[slot + 1:])
            want.setdefault(key, {})[names[slot]] = el
        assert index == want
    assert combine_ops([(op, 1)]).slot_index(0) is None


def test_slot_values_rejects_bad_input():
    q = shared_names_quiver(QQ)
    op = random_table_op(q, 2, 0, random.Random(0))
    a = q.hom(0, 1).basis_element("a")
    with pytest.raises(ValueError, match="takes 1 factors"):
        slot_values(op, (0, 1, 1), (a, a), 0)
    with pytest.raises(ValueError, match="takes 1 factors"):
        slot_values(op, (0, 1, 1), (a,), 2)
    with pytest.raises(ValueError, match="factor 0 not in the expected hom"):
        slot_values(op, (0, 0, 1), (a,), 1)
    assert slot_values(op, (1, 0, 1), (a,), 0).keys() == {"a", "b", "c"}
