import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ainfkit.graded import GradedModule, Ring
from ainfkit.quiver import (
    BoundError,
    CountedTensors,
    GradedQuiver,
    MultiOp,
    QuiverMap,
    Stage,
    bounded_tensors,
    apply_stage,
    combine_ops,
    evaluate,
    expand_tensor,
    insert,
    insertions,
    run_stages,
    state_element,
    tensor_degree,
    unit_stage,
)

QQ = Ring("QQ")
F7 = Ring("Fp", 7)


def _ident(x):
    return x


def compose_multi(stages, name=None):
    """The composite operation of a chain of stages (final arity one)."""
    stages = list(stages)
    if not stages:
        raise ValueError("a composite needs at least one stage")
    for prev, nxt in zip(stages, stages[1:]):
        if prev.arity_out != nxt.arity_in:
            raise ValueError("stage arities do not chain")
    if stages[-1].arity_out != 1:
        raise ValueError("a composite must end in arity one")
    source = stages[0].source
    target = stages[-1].target
    degree = sum(stage.degree for stage in stages)
    arity = stages[0].arity_in

    # endpoint object maps: fold the outermost block maps over the stages
    def chain2(g, h):
        return lambda x: h(g(x))

    lmap, rmap = _ident, _ident
    for stage in stages:
        first, last = stage.blocks[0], stage.blocks[-1]
        if first[0] == "op":
            lmap = chain2(lmap, first[1].lmap)
        elif first[0] == "el":
            lmap = (lambda U: lambda x: U)(first[2][0])
        if last[0] == "op":
            rmap = chain2(rmap, last[1].rmap)
        elif last[0] == "el":
            rmap = (lambda V: lambda x: V)(last[2][1])

    def rule(objs, names):
        state = run_stages(stages, {(tuple(objs), tuple(names)): source.ring.one})
        deg = tensor_degree(source, objs, names) + degree
        return state_element(target, state, (lmap(objs[0]), rmap(objs[-1])), deg)

    return MultiOp(source, target, arity, degree, rule=rule,
                   lmap=lmap, rmap=rmap, name=name)


def reference_apply(source, blocks, state, out):
    """apply_stage by the general per-block plan alone: the oracle for
    the direct path of one-operation stages.

    Every block's input segment and the right ends of the odd-degree
    blocks are laid out first; each term's outputs are then built as a
    list of partial products along the object chain, and added into out.
    """
    ring = source.ring
    one = ring.one
    plan, odd_ends, pos = [], [], 0
    for blk in blocks:
        if blk[0] == "id":
            plan.append(("id", pos, pos + blk[1], None))
            pos += blk[1]
            continue
        if blk[0] == "op":
            end = pos + blk[1].arity
            plan.append(("op", pos, end, blk[1]))
            degree = blk[1].degree
        else:
            end = pos
            plan.append(("el", pos, end, (tuple(blk[2]), list(blk[1].items()))))
            degree = blk[1].degree
        if degree % 2:
            odd_ends.append(end)
        pos = end
    odd_ends.reverse()
    for (objs, names), coeff in state.items():
        if len(names) != pos:
            raise ValueError("stage arity mismatch")
        if coeff == 0:
            continue
        flip = parity = 0
        j = pos
        for e in odd_ends:
            while j > e:
                j -= 1
                parity ^= source.degree(objs[j], objs[j + 1], names[j]) & 1
            flip ^= parity
        if flip:
            coeff = ring.neg(coeff)
        newobjs = ()
        partial = [((), coeff)]
        for kind, s, e, data in plan:
            if kind == "id":
                piece = objs[s:e + 1]
                partial = [(pn + names[s:e], pc) for pn, pc in partial]
            else:
                if kind == "op":
                    el = data.on_basis(objs[s:e + 1], names[s:e])
                    piece = data.pair_map(objs[s:e + 1])
                    options = list(el.items())
                else:
                    piece, options = data
                partial = [(pn + (n,), ring.mul(pc, oc))
                           for pn, pc in partial for n, oc in options]
            if newobjs:
                if newobjs[-1] != piece[0]:
                    raise ValueError("object chain mismatch")
                newobjs += piece[1:]
            else:
                newobjs = piece
        for newnames, c in partial:
            key = (newobjs, newnames)
            v = ring.add(out.get(key, ring.zero), c)
            if v == 0:
                out.pop(key, None)
            else:
                out[key] = v
    return out


def reference_insert(op, a, c, state, out):
    blocks = [("id", a)] * bool(a) + [("op", op)] + [("id", c)] * bool(c)
    return reference_apply(op.source, blocks, state, out)


def loop_quiver(ring=QQ):
    """One object with arrows a (deg 1), z (deg 2), w (deg 3)."""
    M = GradedModule(ring, [("a", 1), ("z", 2), ("w", 3)])
    return GradedQuiver(ring, ["*"], {("*", "*"): M})


def op_t(q):
    # arity 1, degree 1: a -> z, z -> w
    M = q.hom("*", "*")
    table = {
        (("*", "*"), ("a",)): M.basis_element("z"),
        (("*", "*"), ("z",)): M.basis_element("w"),
    }
    return MultiOp(q, q, 1, 1, table=table, name="t")


def op_u(q):
    # arity 1, degree 2: a -> w
    M = q.hom("*", "*")
    return MultiOp(q, q, 1, 2, table={(("*", "*"), ("a",)): M.basis_element("w")}, name="u")


def state_of(q, names):
    objs = tuple(["*"] * (len(names) + 1))
    return {(objs, tuple(names)): q.ring.one}


def test_insert_identity_case():
    q = loop_quiver()
    t = op_t(q)
    st = insert(t, 0, 0)
    out = apply_stage(st, state_of(q, ("a",)))
    assert out == {(("*", "*"), ("z",)): QQ.one}


def test_insert_suffix_sign():
    # prefix-identity insertion is sign-free; the suffix factors carry the sign
    q = loop_quiver()
    t = op_t(q)
    out = apply_stage(insert(t, 1, 0), state_of(q, ("a", "a")))
    assert out == {(("*",) * 3, ("a", "z")): QQ.one}
    out = apply_stage(insert(t, 0, 1), state_of(q, ("a", "a")))
    assert out == {(("*",) * 3, ("z", "a")): QQ.normalize(-1)}
    # even suffix degree: no sign
    out = apply_stage(insert(t, 0, 1), state_of(q, ("a", "z")))
    assert out == {(("*",) * 3, ("z", "z")): QQ.one}
    # both offsets in one stage: the two insertions, each with its sign
    out = apply_stage(insertions(t, 2), state_of(q, ("a", "a")))
    assert out == {(("*",) * 3, ("z", "a")): QQ.normalize(-1),
                   (("*",) * 3, ("a", "z")): QQ.one}


def test_insert_reuses_stages():
    q = loop_quiver()
    t = op_t(q)
    assert insert(t, 1, 2) is insert(t, 1, 2)
    assert insert(t, 1, 2) is not insert(t, 2, 1)
    assert insert(t, 0, 0) is not insert(op_t(q), 0, 0)
    assert insertions(t, 2) is insertions(t, 2)
    # the one-offset component is the whole stage itself
    assert insertions(t, 1) is insert(t, 0, 0)
    assert insert(t, 0, 0).whole and not insertions(t, 2).whole
    assert not insert(t, 1, 0).whole


def test_stage_cache_does_not_leak_into_copies():
    # a copy with one table entry doubled is a new MultiOp with its own
    # stages, even after the original's stage has been built and applied
    q = loop_quiver()
    t = op_t(q)
    s = state_of(q, ("a", "a"))
    before = apply_stage(insert(t, 1, 0), s)
    table = dict(t.table)
    key = (("*", "*"), ("a",))
    table[key] = t.on_basis(*key).scale(2)
    bad = MultiOp(q, q, 1, 1, table=table, name="t.bad")
    assert apply_stage(insert(bad, 1, 0), s) == {(("*",) * 3, ("a", "z")): 2}
    assert apply_stage(insert(t, 1, 0), s) == before
    assert before == {(("*",) * 3, ("a", "z")): 1}


def test_insert_nesting_is_concentric():
    q = loop_quiver()
    t = op_t(q)
    inner = insert(t, 1, 0)
    nested = insert(inner, 1, 1)
    flat = insert(t, 2, 1)
    s = state_of(q, ("a", "a", "a", "a"))
    assert apply_stage(nested, s) == apply_stage(flat, s)


def test_disjoint_insertions_commute_up_to_sign():
    q = loop_quiver()
    t, u = op_t(q), op_u(q)
    s = state_of(q, ("a", "a"))
    # odd x even: strict commutation
    one = run_stages([insert(t, 0, 1), insert(u, 1, 0)], s)
    two = run_stages([insert(u, 1, 0), insert(t, 0, 1)], s)
    assert one == two and one == {(("*",) * 3, ("z", "w")): QQ.normalize(-1)}
    # odd x odd: anticommute
    one = run_stages([insert(t, 0, 1), insert(t, 1, 0)], s)
    two = run_stages([insert(t, 1, 0), insert(t, 0, 1)], s)
    assert one == {k: QQ.neg(v) for k, v in two.items()}


def test_apply_stage_accumulates_in_place():
    q = loop_quiver()
    t = op_t(q)
    s = state_of(q, ("a", "a"))
    # the two orders of two odd insertions cancel exactly: no key is left
    out = {}
    assert apply_stage(insert(t, 1, 0), apply_stage(insert(t, 0, 1), s),
                       out) is out
    assert out == {(("*",) * 3, ("z", "z")): QQ.normalize(-1)}
    apply_stage(insert(t, 0, 1), apply_stage(insert(t, 1, 0), s), out)
    assert out == {}
    # a key already present is added into, others are kept
    out = {(("*",) * 3, ("a", "z")): 2, (("*",) * 3, ("w", "w")): 5}
    apply_stage(insert(t, 1, 0), s, out)
    assert out == {(("*",) * 3, ("a", "z")): 3, (("*",) * 3, ("w", "w")): 5}
    # over F_7 a negated term comes out canonical, and so does its sum
    F7 = Ring("Fp", 7)
    q7 = loop_quiver(F7)
    t7 = op_t(q7)
    s7 = state_of(q7, ("a", "a"))
    out = apply_stage(insert(t7, 0, 1), s7, {})
    assert out == {(("*",) * 3, ("z", "a")): 6}
    apply_stage(insert(t7, 0, 1), s7, out)
    assert out == {(("*",) * 3, ("z", "a")): 5}
    assert all(type(c) is int for c in out.values())
    apply_stage(insert(t7, 0, 1), {(("*",) * 3, ("a", "a")): 2}, out)
    assert out == {(("*",) * 3, ("z", "a")): 3}
    apply_stage(insert(t7, 0, 1), {(("*",) * 3, ("a", "a")): 3}, out)
    assert out == {}


def test_unit_stage_sign():
    q = loop_quiver()
    M = q.hom("*", "*")
    x = M.basis_element("a")  # degree 1 insertion element
    s = state_of(q, ("a",))
    # inserted on the right: empty suffix, no sign
    out = apply_stage(unit_stage(q, x, ("*", "*"), 1, 0), s)
    assert out == {(("*",) * 3, ("a", "a")): QQ.one}
    # inserted on the left of an odd factor: sign flips
    out = apply_stage(unit_stage(q, x, ("*", "*"), 0, 1), s)
    assert out == {(("*",) * 3, ("a", "a")): QQ.normalize(-1)}


def path_category_shifted():
    """Shifted path category of 0 -> 1 -> 2, all arrows in degree 0."""
    h01 = GradedModule(QQ, [("f", -1)])
    h12 = GradedModule(QQ, [("g", -1)])
    h02 = GradedModule(QQ, [("fg", -1)])
    q = GradedQuiver(QQ, [0, 1, 2], {(0, 1): h01, (1, 2): h12, (0, 2): h02})
    # composition in shifted coordinates: (xs tensor ys)b2 = (-1)^deg_A(y) (xy)s
    table = {((0, 1, 2), ("f", "g")): h02.basis_element("fg")}
    b2 = MultiOp(q, q, 2, 1, table=table, name="b2")
    return q, b2


def test_evaluate_path_category():
    q, b2 = path_category_shifted()
    x = q.hom(0, 1).basis_element("f", 3)
    y = q.hom(1, 2).basis_element("g", QQ.parse("1/2"))
    out = evaluate(b2, (0, 1, 2), [x, y])
    # frozen from the hand computation: plus sign, coefficient 3/2
    assert out == q.hom(0, 2).basis_element("fg", QQ.parse("3/2"))


def test_evaluate_zero_and_bilinear():
    q, b2 = path_category_shifted()
    zero = q.hom(0, 1).zero(-1)
    y = q.hom(1, 2).basis_element("g")
    assert evaluate(b2, (0, 1, 2), [zero, y]).is_zero
    x1 = q.hom(0, 1).basis_element("f", 2)
    x2 = q.hom(0, 1).basis_element("f", 5)
    lhs = evaluate(b2, (0, 1, 2), [x1.add(x2), y])
    rhs = evaluate(b2, (0, 1, 2), [x1, y]).add(evaluate(b2, (0, 1, 2), [x2, y]))
    assert lhs == rhs


def dual_numbers_shifted(odd=False):
    """Shifted 2-dim algebra k[e], e^2=0; e odd makes it the exterior algebra."""
    M = GradedModule(QQ, [("n1", -1), ("ne", 0 if odd else -1)])
    q = GradedQuiver(QQ, ["*"], {("*", "*"): M})
    deg_a = {"n1": 0, "ne": 1 if odd else 0}
    prod = {("n1", "n1"): "n1", ("n1", "ne"): "ne", ("ne", "n1"): "ne"}
    table = {}
    for (x, y), xy in prod.items():
        sign = -1 if deg_a[y] % 2 else 1
        table[(("*", "*", "*"), (x, y))] = M.basis_element(xy, sign)
    b2 = MultiOp(q, q, 2, 1, table=table, name="b2")
    return q, b2


def test_stasheff_three_sum_vanishes():
    # (1 tensor b2)b2 + (b2 tensor 1)b2 = 0 on an associative algebra: the
    # suffix Koszul signs supply the alternation
    for odd in (False, True):
        q, b2 = dual_numbers_shifted(odd)
        left = compose_multi([insert(b2, 0, 1), insert(b2, 0, 0)])
        right = compose_multi([insert(b2, 1, 0), insert(b2, 0, 0)])
        for names in itertools.product(["n1", "ne"], repeat=3):
            objs = ("*",) * 4
            total = left.on_basis(objs, names).add(right.on_basis(objs, names))
            assert total.is_zero, (odd, names)


def test_compose_single_stage_is_the_op():
    q, b2 = dual_numbers_shifted()
    comp = compose_multi([insert(b2, 0, 0)])
    for names in itertools.product(["n1", "ne"], repeat=2):
        assert comp.on_basis(("*",) * 3, names) == b2.on_basis(("*",) * 3, names)


def test_combine_ops():
    q = loop_quiver()
    t = op_t(q)
    diff = combine_ops([(t, 1), (t, -1)])
    assert diff.on_basis(("*", "*"), ("a",)).is_zero
    twice = combine_ops([(t, 1), (t, 1)])
    assert twice.on_basis(("*", "*"), ("a",)) == q.hom("*", "*").basis_element("z", 2)


def test_quiver_map_apply_and_chain():
    q, b2 = path_category_shifted()
    ident = QuiverMap(
        q, q, 0,
        {pair: {n: q.hom(*pair).basis_element(n) for n in q.hom(*pair).names}
         for pair in q.pairs()},
    )
    x = q.hom(0, 1).basis_element("f")
    assert ident.apply(0, 1, x) == x
    assert ident.is_chain(None, None)


def test_commutator_of_a_degree_minus_one_map():
    # d: a0 -> a1, b1 -> b2 on one object; each d h + h d is worked out
    # by hand
    q = GradedQuiver(QQ, ["*"], {("*", "*"): GradedModule(
        QQ, [("a0", 0), ("a1", 1), ("b1", 1), ("b2", 2)])})
    mod = q.hom("*", "*")
    e = mod.basis_element
    d = MultiOp(q, q, 1, 1, table={(("*", "*"), ("a0",)): e("a1"),
                                   (("*", "*"), ("b1",)): e("b2")})

    def commutators(values):
        h = QuiverMap(q, q, -1, {("*", "*"): values})
        return {n: h.commutator("*", "*", e(n), d, d) for n in mod.names}

    # a contraction of the a's: d h + h d is the identity there
    got = commutators({"a1": e("a0")})
    assert got == {"a0": e("a0"), "a1": e("a1"),
                   "b1": mod.zero(1), "b2": mod.zero(2)}
    # h(b1) = -a0, h(b2) = a1 anticommutes with d: every commutator is 0
    chain = {"b1": e("a0", -1), "b2": e("a1")}
    assert all(c.is_zero for c in commutators(chain).values())
    assert QuiverMap(q, q, -1, {("*", "*"): chain}).is_chain(d, d)
    # a tampered entry leaves d h(b1) + h d(b1) = -a1 + 2 a1
    bad = dict(chain, b2=e("a1", 2))
    assert commutators(bad)["b1"] == e("a1")
    assert not QuiverMap(q, q, -1, {("*", "*"): bad}).is_chain(d, d)


def test_tensor_enumeration():
    q, b2 = path_category_shifted()
    chains = list(bounded_tensors(q, 2))
    assert chains == [((0, 1, 2), ("f", "g"))]
    singles = sorted(bounded_tensors(q, 1))
    assert len(singles) == 3
    assert tensor_degree(q, (0, 1, 2), ("f", "g")) == -2
    for objs, names in (((0, 1), ("g",)), ((1, 0), ("f",))):
        with pytest.raises(KeyError):
            tensor_degree(q, objs, names)


def naive_tensors(q, length):
    """Every composable basis tensor of a length, one nested loop over
    objects, targets and hom names per factor."""
    chains = [((X,), ()) for X in q.objects]
    for _ in range(length):
        chains = [(objs + (Y,), names + (n,)) for objs, names in chains
                  for Y in q.objects for n in q.hom(objs[-1], Y).names]
    return chains


def sized_quiver():
    """Two objects, every hom nonzero, names of sizes 0, 1 and 2 listed
    out of size order; size_of reads the digit in the name."""
    homs = {(X, Y): GradedModule(QQ, [("b2", 0), ("a0", 1), ("c1", 0)])
            for X in (0, 1) for Y in (0, 1) if (X, Y) != (1, 0)}
    return GradedQuiver(QQ, [0, 1], homs), lambda X, Y, nm: int(nm[1])


def test_unbounded_walk_is_the_nested_loop_order():
    for q in (path_category_shifted()[0], loop_quiver(), sized_quiver()[0]):
        for n in range(5):
            assert list(bounded_tensors(q, n)) == naive_tensors(q, n)


def test_bounded_walk_is_the_filtered_nested_loop():
    # sizes 0 to 2, so a zero-size arrow lets a chain grow at no cost
    q, size_of = sized_quiver()
    ends = [None, 0, 1]
    for n in range(5):
        for budget in range(6):
            for start in ends:
                for end in ends:
                    want = sorted(
                        t for t in naive_tensors(q, n)
                        if sum(size_of(None, None, nm) for nm in t[1]) <= budget
                        and start in (None, t[0][0]) and end in (None, t[0][-1]))
                    got = list(bounded_tensors(q, n, size_of, budget, start, end))
                    assert len(set(got)) == len(got)
                    assert sorted(got) == want, (n, budget, start, end)


def test_counted_tensors_are_the_walk_by_position():
    # the counts follow the walk's size order and early stop, so position
    # i is the i-th tensor it yields; sizes shifted by one make the stop
    # reserve room for the arrows still to come
    q, size_of = sized_quiver()
    cases = [(path_category_shifted()[0], None), (loop_quiver(), None),
             (q, None), (q, size_of),
             (q, lambda X, Y, nm: size_of(X, Y, nm) + 1)]
    for quiver, sizes in cases:
        for n in range(5):
            for budget in [None] + list(range(7)):
                walk = list(bounded_tensors(quiver, n, sizes, budget))
                counted = CountedTensors(quiver, n, sizes, budget)
                assert counted.count == len(walk), (n, budget)
                assert [counted.at(i) for i in range(counted.count)] == walk
                for i in (-1, counted.count):
                    with pytest.raises(IndexError):
                        counted.at(i)


def test_expand_tensor():
    q, b2 = path_category_shifted()
    x = q.hom(0, 1).basis_element("f", 2)
    y = q.hom(1, 2).basis_element("g", 3)
    state = expand_tensor(q, (0, 1, 2), [x, y])
    assert state == {((0, 1, 2), ("f", "g")): QQ.normalize(6)}


def test_obj_mapped_stage_continuity():
    # a functor-style arity-1 op relabeling objects keeps chains composable
    q, b2 = path_category_shifted()
    relabel = {0: "a0", 1: "a1", 2: "a2"}
    homs = {(relabel[x], relabel[y]): GradedModule(QQ, [(n, q.hom(x, y).degrees[n])
                                                        for n in q.hom(x, y).names])
            for x, y in q.pairs()}
    q2 = GradedQuiver(QQ, list(relabel.values()), homs)

    def rule(objs, names):
        X, Y = relabel[objs[0]], relabel[objs[1]]
        return q2.hom(X, Y).basis_element(names[0])

    f1 = MultiOp(q, q2, 1, 0, rule=rule, lmap=relabel.get, rmap=relabel.get, name="f1")
    st = Stage(q, [("op", f1), ("op", f1)])
    out = apply_stage(st, {((0, 1, 2), ("f", "g")): QQ.one})
    assert out == {(("a0", "a1", "a2"), ("f", "g")): QQ.one}
    # the direct path is taken by one plain op among identities only
    assert st.direct is None and insert(f1, 0, 0).direct is None
    assert insert(b2, 0, 1).direct == (b2, (0,))
    assert insertions(b2, 3).direct == (b2, (2, 1, 0))
    with pytest.raises(ValueError):
        insertions(f1, 2)


# Two objects, every hom nonzero and with the same names, two in each
# degree from -1 to 5.  Inputs are drawn in degrees 0 and 1, so a value
# of an op of degree -1 to 2 on up to three of them always has names
# to land on.
ORACLE_NAMES = [("%s%d" % (x, d), d) for d in range(-1, 6) for x in "xy"]
INPUT_NAMES = [nm for nm, d in ORACLE_NAMES if d in (0, 1)]


def oracle_quiver(ring):
    homs = {(X, Y): GradedModule(ring, ORACLE_NAMES)
            for X in (0, 1) for Y in (0, 1)}
    return GradedQuiver(ring, [0, 1], homs)


def draw_tensor(data, length, start=None, end=None):
    objs = data.draw(st.lists(st.sampled_from((0, 1)), min_size=length + 1,
                              max_size=length + 1))
    if start is not None:
        objs[0] = start
    if end is not None:
        objs[-1] = end
    names = data.draw(st.lists(st.sampled_from(INPUT_NAMES),
                               min_size=length, max_size=length))
    return tuple(objs), tuple(names)


def draw_coeff(data, ring, zero=True):
    if ring.kind == "QQ":
        c = data.draw(st.fractions(-6, 6, max_denominator=4))
    else:
        c = data.draw(st.integers(-6, 6))
    c = ring.normalize(c)
    return ring.one if c == 0 and not zero else c


def draw_op(data, q):
    """(make, keys): make() builds a fresh MultiOp, with a cold memo, of
    a random arity and degree whose values sit in a fixed table or
    behind a rule, some of them stored zeros; keys are the tensors it
    has a value on."""
    arity = data.draw(st.integers(1, 3))
    degree = data.draw(st.integers(-1, 2))
    values = {}
    for _ in range(data.draw(st.integers(1, 6))):
        objs, names = draw_tensor(data, arity)
        mod = q.hom(objs[0], objs[-1])
        deg = tensor_degree(q, objs, names) + degree
        fits = [nm for nm in mod.names if mod.degrees[nm] == deg]
        picked = data.draw(st.lists(st.sampled_from(fits), min_size=1,
                                    max_size=2, unique=True)) \
            if data.draw(st.integers(0, 3)) else []  # else a stored zero
        values[(objs, names)] = mod.element(
            {nm: draw_coeff(data, q.ring, zero=False) for nm in picked}, deg)
    fixed = data.draw(st.booleans())

    def rule(objs, names):
        got = values.get((objs, names))
        if got is None:
            deg = tensor_degree(q, objs, names) + degree
            return q.hom(objs[0], objs[-1]).zero(deg)
        return got

    def make():
        if fixed:
            return MultiOp(q, q, arity, degree, table=values, name="fixed")
        return MultiOp(q, q, arity, degree, rule=rule, name="ruled")

    return make, list(values)


def draw_state(data, q, arity, keys, width):
    """Up to six terms of a width, most of them a tensor the op has a
    value on, padded by random factors on both sides."""
    state = {}
    for _ in range(data.draw(st.integers(1, 6))):
        if data.draw(st.integers(0, 3)):
            objs, names = data.draw(st.sampled_from(keys))
            a = data.draw(st.integers(0, width - arity))
            lo, ln = draw_tensor(data, a, end=objs[0])
            ro, rn = draw_tensor(data, width - arity - a, start=objs[-1])
            key = (lo + objs[1:] + ro[1:], ln + names + rn)
        else:
            key = draw_tensor(data, width)
        state[key] = draw_coeff(data, q.ring)
    return state


def canonical(ring, out):
    return all(type(ring.normalize(c)) is type(c) and ring.normalize(c) == c
               for c in out.values())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_direct_path_agrees_with_the_per_block_plan(data):
    # QQ and F_7; ops of both parities on factors of both parities, with
    # stored zeros and rules; states with zero coefficients, added into
    # an out that the result partly cancels
    ring = data.draw(st.sampled_from((QQ, F7)))
    q = oracle_quiver(ring)
    make, keys = draw_op(data, q)
    ref = make()
    # m = 1 in about half the examples: insertions(op, 1) is the whole stage
    m = 1 if data.draw(st.booleans()) else data.draw(st.integers(2, 3))
    width = m - 1 + ref.arity
    state = draw_state(data, q, ref.arity, keys, width)
    a = data.draw(st.integers(0, m - 1))
    got = apply_stage(insert(make(), a, m - 1 - a), state)
    assert got == reference_insert(ref, a, m - 1 - a, state, {})
    assert canonical(ring, got)

    whole = {}
    for b in range(m):
        reference_insert(ref, b, m - 1 - b, state, whole)
    seed = {key: ring.neg(c) if data.draw(st.booleans()) else c
            for key, c in whole.items() if data.draw(st.booleans())}
    got = apply_stage(insertions(make(), m), state, dict(seed))
    for b in range(m):
        reference_insert(ref, b, m - 1 - b, state, seed)
    assert got == seed and canonical(ring, got)

    bad = {draw_tensor(data, width + 1): ring.one}
    with pytest.raises(ValueError, match="arity mismatch"):
        apply_stage(insert(ref, a, m - 1 - a), bad)
    with pytest.raises(ValueError, match="arity mismatch"):
        apply_stage(insertions(ref, m), bad)


def test_whole_stage_passes_a_rule_error_through():
    # a rule that escapes its bound raises through a whole stage unchanged
    q = loop_quiver()
    err = BoundError("past the bound")

    def rule(objs, names):
        raise err

    op = MultiOp(q, q, 1, 1, rule=rule, name="escapes")
    assert insert(op, 0, 0).whole
    with pytest.raises(BoundError) as caught:
        apply_stage(insert(op, 0, 0), state_of(q, ("a",)))
    assert caught.value is err


def test_whole_stage_miss_without_a_rule_is_zero():
    q = loop_quiver()
    t = op_t(q)
    assert apply_stage(insert(t, 0, 0), state_of(q, ("w",))) == {}
    out = {(("*", "*"), ("z",)): QQ.one}
    assert apply_stage(insert(t, 0, 0), state_of(q, ("w",)), out) is out
    assert out == {(("*", "*"), ("z",)): QQ.one}


def test_whole_stage_reads_a_tampered_copy():
    # a copy of a rule's op with one memo entry doubled, as the
    # benchmark's control builds it: the whole path reads the copy's
    # entry before the rule, so the copy minus the original shows a defect
    q = loop_quiver()
    t = op_t(q)
    ruled = MultiOp(q, q, 1, 1, rule=t.on_basis, name="t.ruled")
    key = (("*", "*"), ("a",))
    table = dict(ruled.table)
    table[key] = ruled.on_basis(*key).scale(2)
    bad = MultiOp(ruled.source, ruled.target, ruled.arity, ruled.degree,
                  table=table, rule=ruled.rule, lmap=ruled.lmap,
                  rmap=ruled.rmap, name="t.bad")
    state = {key: QQ.one, (("*", "*"), ("z",)): QQ.one}
    good = apply_stage(insert(ruled, 0, 0), state)
    assert good == {(("*", "*"), ("z",)): QQ.one, (("*", "*"), ("w",)): QQ.one}
    minus = {k: QQ.neg(c) for k, c in good.items()}
    assert apply_stage(insert(bad, 0, 0), state, minus) == {
        (("*", "*"), ("z",)): QQ.one}
    assert apply_stage(insert(ruled, 0, 0), state) == good
