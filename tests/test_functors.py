"""Functor equation, coderivation differential, insertions, and the
cochain comparison, whose Hochschild-form oracle lives here."""

import random

import pytest

from ainfkit.category import AInfCategory, dg_to_ainf, opposite
from ainfkit.functors import (AInfFunctor, Bn, B1, Coderivation,
                              check_b1_square, check_functor,
                              coderivations_equal, compose_functors,
                              functor_defect, identity_functor,
                              random_coderivation, strict_functor,
                              theta_value, unit_transformation)
from ainfkit.graded import GradedModule, Ring
from ainfkit.quiver import (MultiOp, Stage, bounded_tensors, evaluate, insert,
                            insertion_sum, run_stages, state_element,
                            tensor_degree)
from ainfkit.report import Report, unless_zero
from test_category import arrow_with_differential, one_object_unit, path3

QQ = Ring("QQ")


def odd_square_zero():
    """One object, a unit and a degree 1 arrow squaring to zero."""
    mod = GradedModule(QQ, [("e", 0), ("n", 1)])
    homs = {("P", "P"): mod}
    m2 = {("P", "P", "P"): {
        ("e", "e"): mod.basis_element("e"),
        ("e", "n"): mod.basis_element("n"),
        ("n", "e"): mod.basis_element("n"),
    }}
    return dg_to_ainf(homs, {}, m2, units={"P": "e"}, name="oddsq")


def path2():
    """Two objects, one connecting arrow, everything in degree zero."""
    homs = {
        (0, 0): GradedModule(QQ, [("e0", 0)]),
        (1, 1): GradedModule(QQ, [("e1", 0)]),
        (0, 1): GradedModule(QQ, [("a", 0)]),
    }
    m2 = {
        (0, 0, 0): {("e0", "e0"): homs[(0, 0)].basis_element("e0")},
        (1, 1, 1): {("e1", "e1"): homs[(1, 1)].basis_element("e1")},
        (0, 0, 1): {("e0", "a"): homs[(0, 1)].basis_element("a")},
        (0, 1, 1): {("a", "e1"): homs[(0, 1)].basis_element("a")},
    }
    return dg_to_ainf(homs, {}, m2, units={0: "e0", 1: "e1"}, name="path2")


def collapse_functor(A, P, scale_fg=1):
    """Everything to the one-object category; optionally a broken image."""
    e = P.hom("X", "X").basis_element("e")
    images = {}
    for X, Y in A.quiver.pairs():
        images[(X, Y)] = {nm: (e.scale(scale_fg) if nm == "fg" else e)
                          for nm in A.hom(X, Y).names}
    omap = {X: "X" for X in A.objects}
    return strict_functor(A, P, omap, images, name="c")


def const_zero_functor(A):
    """Endofunctor of the three-object path crushing everything onto 0."""
    e0 = A.hom(0, 0).basis_element("e0")
    images = {}
    for X, Y in A.quiver.pairs():
        images[(X, Y)] = {nm: e0 for nm in A.hom(X, Y).names}
    return strict_functor(A, A, {0: 0, 1: 0, 2: 0}, images, name="z")


def square_stretch_functor(P):
    """Nonstrict endofunctor of oddsq: identity plus a quadratic correction."""
    q = P.quiver
    mod = P.hom("P", "P")
    f1 = identity_functor(P).component(1)
    table = {(("P", "P", "P"), ("n", "n")): mod.basis_element("n")}
    f2 = MultiOp(q, q, 2, 0, table=table, name="F2")
    return AInfFunctor(P, P, lambda X: X, {1: f1, 2: f2}, name="F")


def functor_component(f, n, objs, names):
    op = f.component(n)
    if op is not None:
        return op.on_basis(objs, names)
    qa = f.source.quiver
    deg = sum(qa.degree(objs[i], objs[i + 1], names[i]) for i in range(n))
    return f.target.quiver.hom(f.obj_map(objs[0]), f.obj_map(objs[-1])).zero(deg)


def functors_componentwise_equal(f1, f2, kmax):
    qa = f1.source.quiver
    for k in range(1, kmax + 1):
        for objs, names in bounded_tensors(qa, k):
            if functor_component(f1, k, objs, names) != functor_component(f2, k, objs, names):
                return False
    return True


def test_identity_and_collapse_pass():
    A = path3()
    assert check_functor(identity_functor(A)).ok
    P = one_object_unit()
    c = collapse_functor(A, P)
    assert check_functor(c).ok


def test_broken_collapse_fails_with_frozen_defect():
    A = path3()
    P = one_object_unit()
    broken = collapse_functor(A, P, scale_fg=2)
    rep = check_functor(broken)
    assert not rep.ok
    assert "arity 02" in dict(rep.failures())
    # block side gives e, operation side gives the doubled image
    d = functor_defect(broken, 2, (0, 1, 2), ("f", "g"))
    assert d == P.hom("X", "X").basis_element("e").neg()


def test_nonstrict_functor_and_composition():
    P = odd_square_zero()
    F = square_stretch_functor(P)
    assert check_functor(F, arity_bound=5).ok

    FF = compose_functors(F, F)
    assert check_functor(FF, arity_bound=5).ok
    n = P.hom("P", "P").basis_element("n")
    assert functor_component(FF, 2, ("P", "P", "P"), ("n", "n")) == n.scale(2)

    ident = identity_functor(P)
    assert functors_componentwise_equal(compose_functors(ident, F), F, 2)
    assert functors_componentwise_equal(compose_functors(F, ident), F, 2)

    left = compose_functors(compose_functors(F, F), F)
    right = compose_functors(F, compose_functors(F, F))
    assert functors_componentwise_equal(left, right, 4)


def test_strict_compose_is_strict():
    A = path3()
    P = one_object_unit()
    c = collapse_functor(A, P)
    cc = compose_functors(c, identity_functor(P))
    assert set(cc.components) == {1}
    assert functor_component(cc, 1, (0, 1), ("f",)) == P.hom("X", "X").basis_element("e")


def test_compose_rejects_mismatch():
    A = path3()
    P = one_object_unit()
    with pytest.raises(ValueError):
        compose_functors(identity_functor(A), identity_functor(P))


def five_term_value(A, r, k, objs, names):
    """The differential of a coderivation written literally for a
    two-operation category with strict identity functors on both sides."""
    q = A.quiver
    b1, b2 = A.b(1), A.b(2)
    f1 = identity_functor(A).component(1)
    base = {(tuple(objs), tuple(names)): q.ring.one}
    degree = sum(q.degree(objs[i], objs[i + 1], names[i]) for i in range(k)) + r.degree + 1
    pair = (objs[0], objs[-1])
    total = q.hom(*pair).zero(degree)

    def accumulate(stages, coeff=1):
        nonlocal total
        state = run_stages(stages, base)
        total = total.add(state_element(q, state, pair, degree).scale(coeff))

    rk = r.component(k)
    if rk is not None and b1 is not None:
        accumulate([insert(rk, 0, 0), insert(b1, 0, 0)])
    if k == 1:
        left = r.component0(objs[0])
        right = r.component0(objs[-1])
        if not right.is_zero:
            accumulate([Stage(q, [("op", f1), ("el", right, (objs[-1], objs[-1]))]),
                        insert(b2, 0, 0)])
        if not left.is_zero:
            accumulate([Stage(q, [("el", left, (objs[0], objs[0])), ("op", f1)]),
                        insert(b2, 0, 0)])
    else:
        rk1 = r.component(k - 1)
        if rk1 is not None:
            accumulate([Stage(q, [("op", f1), ("op", rk1)]), insert(b2, 0, 0)])
            accumulate([Stage(q, [("op", rk1), ("op", f1)]), insert(b2, 0, 0)])
    flip = -1 if r.degree % 2 == 0 else 1
    if rk is not None and b1 is not None:
        for a in range(k):
            accumulate([insert(b1, a, k - 1 - a), insert(rk, 0, 0)], flip)
    rk1 = r.component(k - 1) if k >= 2 else None
    if rk1 is not None:
        for a in range(k - 1):
            accumulate([insert(b2, a, k - 2 - a), insert(rk1, 0, 0)], flip)
    return total


def test_b1_matches_dg_display():
    D = arrow_with_differential()
    ident = identity_functor(D)
    for degree, seed in ((-1, 1), (0, 2), (1, 3)):
        r = random_coderivation(ident, ident, degree, 3, random.Random(seed))
        got = B1(r)
        for k in (1, 2, 3):
            for objs, names in bounded_tensors(D.quiver, k):
                want = five_term_value(D, r, k, objs, names)
                assert got.component_value(k, objs, names) == want, (degree, k, names)


def test_b1_squares_to_zero():
    A = path3()
    ident = identity_functor(A)
    for degree, seed in ((-1, 5), (0, 6)):
        r = random_coderivation(ident, ident, degree, 3, random.Random(seed))
        assert check_b1_square(r).ok, (A.name, degree)

    z = const_zero_functor(A)
    assert check_functor(z).ok
    for degree, seed in ((-1, 7), (0, 8)):
        r = random_coderivation(ident, z, degree, 3, random.Random(seed))
        assert check_b1_square(r).ok, ("mixed", degree)

    D = arrow_with_differential()
    idD = identity_functor(D)
    for degree, seed in ((0, 9), (1, 10)):
        r = random_coderivation(idD, idD, degree, 3, random.Random(seed))
        assert check_b1_square(r).ok, (D.name, degree)

    P = odd_square_zero()
    idP = identity_functor(P)
    for degree, seed in ((-1, 11), (0, 12)):
        r = random_coderivation(idP, idP, degree, 3, random.Random(seed))
        assert check_b1_square(r).ok, (P.name, degree)


def b1_value(r, k, objs, names):
    """One basis-tensor value of the differential of a coderivation, as a
    sum of its own: the insertion sum of r alone, then minus
    (-1)^deg(r) times the source-side sum."""
    flip = -1 if r.degree % 2 == 0 else 1
    A = r.cat_source
    base = {(tuple(objs), tuple(names)): A.quiver.ring.one}
    tail = state_element(
        r.cat_target.quiver, insertion_sum(A.b, r.component, k, base, {}),
        (r.source.obj_map(objs[0]), r.target.obj_map(objs[-1])),
        tensor_degree(A.quiver, objs, names) + r.degree + 1)
    return theta_value([r], k, objs, names).add(tail.scale(flip))


def summed_b1(r):
    """The differential of a coderivation from b1_value, componentwise up
    to its bound, with the target's b1 on the per-object components."""
    f, g = r.source, r.target
    A, B = r.cat_source, r.cat_target
    comps = {n: MultiOp(A.quiver, B.quiver, n, r.degree + 1,
                        rule=lambda objs, names, n=n: b1_value(r, n, objs, names),
                        lmap=f.obj_map, rmap=g.obj_map)
             for n in range(1, r.arity_bound + 1)}
    r0 = {}
    if B.b(1) is not None:
        for X, el in r.r0.items():
            img = evaluate(B.b(1), (f.obj_map(X), g.obj_map(X)), (el,))
            if not img.is_zero:
                r0[X] = img
    return Coderivation(f, g, r.degree + 1, comps, r0=r0,
                        arity_bound=r.arity_bound, name=r.name + "sum")


def test_insertion_with_one_coderivation_matches_b1():
    D = arrow_with_differential()
    idD = identity_functor(D)
    r = random_coderivation(idD, idD, 0, 2, random.Random(20))
    assert coderivations_equal(Bn([r]), summed_b1(r))
    assert coderivations_equal(B1(r), summed_b1(r))

    P = odd_square_zero()
    idP = identity_functor(P)
    r = random_coderivation(idP, idP, -1, 2, random.Random(21))
    assert coderivations_equal(Bn([r]), summed_b1(r))
    assert coderivations_equal(B1(r), summed_b1(r))


def test_insertion_with_no_coderivations_is_the_structure():
    A = path3()
    base = Bn([], category=A)
    assert not base.r0
    for k in (1, 2):
        for objs, names in bounded_tensors(A.quiver, k):
            want = A.b(k).on_basis(objs, names)
            assert base.component_value(k, objs, names) == want

    D = arrow_with_differential()
    baseD = Bn([], category=D)
    u = ("u",)
    assert baseD.component_value(1, (0, 1), u) == D.b(1).on_basis((0, 1), u)
    assert not baseD.component_value(1, (0, 1), u).is_zero


def test_unit_transformation_is_absorbed():
    A = path3()
    idA = identity_functor(A)
    uA = unit_transformation(idA)
    for degree, seed in ((-1, 30), (0, 31)):
        r = random_coderivation(idA, idA, degree, 2, random.Random(seed))
        assert coderivations_equal(Bn([r, uA]), r), degree

    D = arrow_with_differential()
    idD = identity_functor(D)
    r = random_coderivation(idD, idD, 1, 2, random.Random(32))
    assert coderivations_equal(Bn([r, unit_transformation(idD)]), r)

    z = const_zero_functor(A)
    rz = random_coderivation(idA, z, 0, 2, random.Random(33))
    assert coderivations_equal(Bn([rz, unit_transformation(z)]), rz)


# The cochain comparison: B1 restated in the classical shift-conjugated
# Hochschild form, an oracle for its signs.  check_b1_square stays the
# library's coderivation certificate.

class HochschildCochain:
    """Cochain data on the unshifted homs through two strict functors.

    Component k maps plain k-tensors of source arrows into the target
    hom between the image objects; component 0 is per-object.  degree is
    shared with the corresponding coderivation, so component k has map
    degree equal to degree + 1 - k.
    """

    def __init__(self, source, target, degree, components, t0=None,
                 arity_bound=None, name="t"):
        self.source = source
        self.target = target
        self.degree = degree
        self.components = dict(components)
        self.t0 = dict(t0) if t0 else {}
        if arity_bound is None:
            arity_bound = max(self.components) if self.components else 0
        self.arity_bound = arity_bound
        self.name = name

    def map_degree(self, k):
        return self.degree + 1 - k

    def eval(self, k, objs, factors):
        """Apply component k to a tensor of unshifted elements."""
        B = self.source.target
        qb = B.dg.quiver
        pair = (self.source.obj_map(objs[0]), self.target.obj_map(objs[-1]))
        if k == 0:
            el = self.t0.get(objs[0])
            if el is None:
                return qb.hom(*pair).zero(self.map_degree(0))
            return el
        op = self.components.get(k)
        if op is None:
            deg = sum(f.degree for f in factors) + self.map_degree(k)
            return qb.hom(*pair).zero(deg)
        return evaluate(op, objs, factors)


def _require_dg(f, g):
    A, B = f.source, f.target
    if A.dg is None or B.dg is None:
        raise ValueError("cochain comparison needs categories built from unshifted data")
    if f.arity_top > 1 or g.arity_top > 1:
        raise ValueError("cochain comparison needs strict functors")
    return A.dg, B.dg


def dg_arrow_image(f, X, Y, el):
    """Arity-1 action on an unshifted arrow: the same matrix as shifted."""
    smod = f.source.quiver.hom(X, Y)
    op = f.component(1)
    tmod = f.target.dg.quiver.hom(f.obj_map(X), f.obj_map(Y))
    if op is None:
        return tmod.zero(el.degree)
    sval = evaluate(op, (X, Y), (smod.element(dict(el.items()), el.degree - 1),))
    return tmod.element(dict(sval.items()), el.degree)


def to_hochschild(r):
    """Conjugate a coderivation by the shift, componentwise.

    Component k picks up the sign of the weighted sum of unshifted input
    degrees, with weight i - 1 on the i-th factor; the output loses one
    shift with no extra sign.
    """
    f, g = r.source, r.target
    dga, dgb = _require_dg(f, g)
    qa, qb = dga.quiver, dgb.quiver
    comps = {}
    for k in range(1, r.arity_bound + 1):
        def rule(objs, names, k=k):
            degs = [qa.degree(objs[i], objs[i + 1], names[i]) for i in range(k)]
            par = sum(i * degs[i] for i in range(k))
            pair = (f.obj_map(objs[0]), g.obj_map(objs[-1]))
            deg_out = sum(degs) + r.degree + 1 - k
            rk = r.component(k)
            if rk is None:
                return qb.hom(*pair).zero(deg_out)
            sval = rk.on_basis(objs, names)
            out = qb.hom(*pair).element(dict(sval.items()), deg_out)
            return out.neg() if par % 2 else out

        comps[k] = MultiOp(qa, qb, k, r.degree + 1 - k, rule=rule,
                           lmap=f.obj_map, rmap=g.obj_map,
                           name="%s_t%d" % (r.name, k))
    t0 = {}
    for X, el in r.r0.items():
        mod = qb.hom(f.obj_map(X), g.obj_map(X))
        t0[X] = mod.element(dict(el.items()), el.degree + 1)
    return HochschildCochain(f, g, r.degree, comps, t0=t0,
                             arity_bound=r.arity_bound, name=r.name + "t")


def hochschild_d(t):
    """The cochain differential for composition-only data.

    Defined when both categories carry no differential on the unshifted
    arrows: functor image times the cochain, minus-signed inner
    multiplications, and the cochain times the functor image with the
    arity-dependent sign.  On arrows of degree 0 this is the classical
    three-term sum; in general degrees the whole component is scaled by
    the parity of the cochain's map degree, and the last term moves the
    final arrow past the cochain, because the differential is really
    the shift conjugate of the coderivation differential.
    """
    f, g = t.source, t.target
    dga, dgb = _require_dg(f, g)
    if dga.m1 or dgb.m1:
        raise ValueError("cochain differential needs vanishing differentials")
    qa, qb = dga.quiver, dgb.quiver
    comps = {}
    for K in range(1, t.arity_bound + 2):
        def rule(objs, names, K=K):
            k = K - 1
            pair = (f.obj_map(objs[0]), g.obj_map(objs[-1]))
            mdeg = t.map_degree(k)
            deg_out = tensor_degree(qa, objs, names) + t.degree + 1 - k
            basis = [qa.hom(objs[i], objs[i + 1]).basis_element(names[i])
                     for i in range(K)]
            out = qb.hom(*pair).zero(deg_out)
            lead = dg_arrow_image(f, objs[0], objs[1], basis[0])
            rest = t.eval(k, objs[1:], basis[1:])
            out = out.add(dgb.mul(f.obj_map(objs[0]), f.obj_map(objs[1]), pair[1],
                                  lead, rest))
            for a in range(k):
                prod = dga.mul(objs[a], objs[a + 1], objs[a + 2], basis[a], basis[a + 1])
                val = t.eval(k, objs[:a + 1] + objs[a + 2:],
                             basis[:a] + [prod] + basis[a + 2:])
                out = out.add(val.scale(-1 if (a + 1) % 2 else 1))
            tail = dg_arrow_image(g, objs[-2], objs[-1], basis[-1])
            head = t.eval(k, objs[:-1], basis[:-1])
            val = dgb.mul(pair[0], g.obj_map(objs[-2]), g.obj_map(objs[-1]), head, tail)
            swap = qa.degree(objs[-2], objs[-1], names[-1]) * mdeg
            sign = (-1 if (k + 1) % 2 else 1) * (-1 if swap % 2 else 1)
            out = out.add(val.scale(sign))
            return out.neg() if mdeg % 2 else out

        comps[K] = MultiOp(qa, qb, K, t.degree + 2 - K, rule=rule,
                           lmap=f.obj_map, rmap=g.obj_map,
                           name="%sd_%d" % (t.name, K))
    return HochschildCochain(f, g, t.degree + 1, comps, t0={},
                             arity_bound=t.arity_bound + 1, name=t.name + "d")


def check_hochschild_square(r):
    """The shift conjugation intertwines the two differentials, exactly.

    Compares the conjugate of the coderivation differential with the
    cochain differential of the conjugate on every basis tensor up to
    the coderivation's arity bound.
    """
    t = to_hochschild(r)
    lhs = to_hochschild(B1(r))
    rhs = hochschild_d(t)
    rep = Report("conjugation square for %s" % r.name)
    qa = r.cat_source.dg.quiver

    def mismatch(k, objs, basis):
        return unless_zero(lhs.eval(k, objs, basis).sub(rhs.eval(k, objs, basis)))

    rep.tally("arity 00", ((X, lambda: mismatch(0, (X,), ()))
                           for X in qa.objects), "objects")
    for k in range(1, r.arity_bound + 1):
        rep.tally("arity %02d" % k, (
            (names, lambda: mismatch(k, objs, [
                qa.hom(objs[i], objs[i + 1]).basis_element(names[i])
                for i in range(k)]))
            for objs, names in bounded_tensors(qa, k)), "tensors")
    return rep


def test_to_hochschild_frozen_sign():
    P = odd_square_zero()
    idP = identity_functor(P)
    smod = P.hom("P", "P")
    table = {(("P", "P", "P"), ("n", "n")): smod.basis_element("e")}
    r2 = MultiOp(P.quiver, P.quiver, 2, -1, table=table, name="r2")
    r = Coderivation(idP, idP, -1, {2: r2}, arity_bound=2)
    t = to_hochschild(r)
    umod = P.dg.quiver.hom("P", "P")
    n = umod.basis_element("n")
    # moving the two shifts inward crosses the first degree 1 factor once
    assert t.eval(2, ("P", "P", "P"), (n, n)) == umod.basis_element("e").neg()
    assert t.map_degree(2) == -2


def test_hochschild_square_commutes():
    P = odd_square_zero()
    idP = identity_functor(P)
    for degree, seed in ((-1, 40), (0, 41)):
        r = random_coderivation(idP, idP, degree, 3, random.Random(seed))
        assert check_hochschild_square(r).ok, degree

    A = path3()
    idA = identity_functor(A)
    r = random_coderivation(idA, idA, 0, 2, random.Random(42))
    assert check_hochschild_square(r).ok
    rz = random_coderivation(idA, const_zero_functor(A), 0, 2, random.Random(43))
    assert check_hochschild_square(rz).ok


def random_cochain(f, g, degree, bound, rng):
    A, B = f.source, f.target
    qa, qb = A.dg.quiver, B.dg.quiver
    comps = {}
    for k in range(1, bound + 1):
        table = {}
        for objs, names in bounded_tensors(qa, k):
            mod = qb.hom(f.obj_map(objs[0]), g.obj_map(objs[-1]))
            deg = sum(qa.degree(objs[i], objs[i + 1], names[i])
                      for i in range(k)) + degree + 1 - k
            el = mod.random_element(deg, rng)
            if not el.is_zero:
                table[(tuple(objs), tuple(names))] = el
        if table:
            comps[k] = MultiOp(qa, qb, k, degree + 1 - k, table=table,
                               lmap=f.obj_map, rmap=g.obj_map)
    t0 = {}
    for X in qa.objects:
        el = qb.hom(f.obj_map(X), g.obj_map(X)).random_element(degree + 1, rng)
        if not el.is_zero:
            t0[X] = el
    return HochschildCochain(f, g, degree, comps, t0=t0, arity_bound=bound)


def test_hochschild_d_squares_to_zero():
    P = odd_square_zero()
    idP = identity_functor(P)
    A = path3()
    idA = identity_functor(A)
    cases = [(idP, -1, 50), (idP, 0, 51), (idA, -1, 52), (idA, 0, 53)]
    for ident, degree, seed in cases:
        t = random_cochain(ident, ident, degree, 2, random.Random(seed))
        dd = hochschild_d(hochschild_d(t))
        qa = ident.source.dg.quiver
        assert not dd.t0
        for k in range(1, t.arity_bound + 3):
            for objs, names in bounded_tensors(qa, k):
                basis = [qa.hom(objs[i], objs[i + 1]).basis_element(names[i])
                         for i in range(k)]
                assert dd.eval(k, objs, basis).is_zero, (degree, k, names)


def test_path2_differential_oracles():
    A = path2()
    ident = identity_functor(A)
    qa = A.dg.quiver
    e0 = qa.hom(0, 0).basis_element("e0")
    e1 = qa.hom(1, 1).basis_element("e1")
    a = qa.hom(0, 1).basis_element("a")

    # supported on the unit only: the differential recovers the arrow
    tp = HochschildCochain(ident, ident, 0, {
        1: MultiOp(qa, qa, 1, 0, table={((0, 0), ("e0",)): e0})}, arity_bound=1)
    dtp = hochschild_d(tp)
    assert dtp.eval(2, (0, 0, 1), (e0, a)) == a

    # identity on the arrow, zero on units: a cocycle
    t = HochschildCochain(ident, ident, 0, {
        1: MultiOp(qa, qa, 1, 0, table={((0, 1), ("a",)): a})}, arity_bound=1)
    dt = hochschild_d(t)
    for k in (1, 2):
        for objs, names in bounded_tensors(qa, k):
            basis = [qa.hom(objs[i], objs[i + 1]).basis_element(names[i])
                     for i in range(k)]
            assert dt.eval(k, objs, basis).is_zero, (k, names)

    # the identity transformation is a cocycle
    u = HochschildCochain(ident, ident, -1, {}, t0={0: e0, 1: e1}, arity_bound=0)
    du = hochschild_d(u)
    for objs, names in bounded_tensors(qa, 1):
        x = qa.hom(*objs).basis_element(names[0])
        assert du.eval(1, objs, [x]).is_zero

    # unequal weights at the two ends measure the commutation defect
    w = HochschildCochain(ident, ident, -1, {}, t0={0: e0.scale(2), 1: e1},
                          arity_bound=0)
    dw = hochschild_d(w)
    assert dw.eval(1, (0, 1), [a]) == a.neg()


def test_hochschild_preconditions():
    D = arrow_with_differential()
    idD = identity_functor(D)
    r = random_coderivation(idD, idD, 0, 1, random.Random(60))
    t = to_hochschild(r)
    with pytest.raises(ValueError):
        hochschild_d(t)

    P = odd_square_zero()
    F = square_stretch_functor(P)
    e = P.hom("P", "P").basis_element("e")
    rF = Coderivation(F, F, -1, {}, r0={"P": e}, arity_bound=0)
    with pytest.raises(ValueError):
        to_hochschild(rF)

    Aop = opposite(path3())
    idop = identity_functor(Aop)
    rop = random_coderivation(idop, idop, 0, 1, random.Random(61))
    with pytest.raises(ValueError):
        to_hochschild(rop)


def test_theta_respects_explicit_chain():
    A = path3()
    idA = identity_functor(A)
    u = unit_transformation(idA)
    val = theta_value([u], 1, (0, 1), ("f",), chain=[idA, idA])
    # inserting the unit next to one functor leg and composing kills nothing:
    # right placement gives f, left placement gives -f, the sum vanishes
    assert val == b1_value(u, 1, (0, 1), ("f",))
    assert val == Bn([u], arity_bound=1).component_value(1, (0, 1), ("f",))
    assert val.is_zero


def _validation_cases():
    """Each input check of the functor layer: (call, error, message)."""
    A, other = path3(), path3()
    f, g = identity_functor(A), identity_functor(other)
    f1 = f.component(1)
    bare = AInfCategory(A.quiver, {2: A.b(2)}, 2, name="bare")
    to_bare = AInfFunctor(A, bare, lambda X: X, {1: f1}, name="nu")
    r, s = Coderivation(f, f, 0, {}), Coderivation(g, g, 0, {})
    e0 = A.hom(0, 0).basis_element("e0")
    return {
        "functor arity": (lambda: AInfFunctor(A, A, lambda X: X, {2: f1}),
                          ValueError, "arity 2 >= 1 and degree 0"),
        "functor quiver": (lambda: AInfFunctor(A, other, lambda X: X, {1: f1}),
                           ValueError, "source quiver to the target quiver"),
        "coderivation functors": (lambda: Coderivation(f, g, 0, {}),
                                  ValueError, "share source and target"),
        "coderivation arity": (lambda: Coderivation(f, f, 1, {1: f1}),
                               ValueError, "arity 1 >= 1 and degree 1"),
        "coderivation source": (
            lambda: Coderivation(f, f, 0, {1: g.component(1)}),
            ValueError, "does not start at the source quiver"),
        "coderivation target": (
            lambda: Coderivation(f, f, 0, {
                1: MultiOp(A.quiver, other.quiver, 1, 0, table={})}),
            ValueError, "does not land in the target quiver"),
        "r0 degree": (lambda: Coderivation(f, f, 0, {}, r0={0: e0}),
                      ValueError, "must have degree 0"),
        "r0 module": (lambda: Coderivation(f, f, -1, {}, r0={1: e0}),
                      ValueError, "hom between the image objects"),
        "target unit": (lambda: unit_transformation(to_bare),
                        ValueError, "target lacks a unit"),
        "chain": (lambda: theta_value([r, s], 1, (0, 0), ("e0",)),
                  ValueError, "coderivations do not chain"),
        "empty Bn": (lambda: Bn([]), TypeError,
                     "empty composition needs a category"),
    }


@pytest.mark.parametrize("case", [
    "functor arity", "functor quiver", "coderivation functors",
    "coderivation arity", "coderivation source", "coderivation target",
    "r0 degree", "r0 module", "target unit", "chain", "empty Bn"])
def test_functors_validation_raises(case):
    call, error, message = _validation_cases()[case]
    with pytest.raises(error, match=message):
        call()
