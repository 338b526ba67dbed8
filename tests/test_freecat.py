"""Free categories: grafting, differential, relation spans, quotients,
and the three extension constructions over tree names."""

import importlib
import itertools
import pkgutil
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ainfkit
from ainfkit import quiver
from ainfkit.category import AInfCategory, check_stasheff, dg_to_ainf
from ainfkit.freecat import (LEAF, IdealSpec, _col_key, check_factorizes,
                             check_ideal, corolla, extend_functor,
                             extend_homotopy, extend_transformation,
                             free_category, induce_functor, leaf_count,
                             normal_form, normal_form_map, quotient,
                             structure_relations, tree_element,
                             tree_pipeline, trees_with_leaf_count,
                             trivial_embedding, vertex_count)
from ainfkit.functors import (AInfFunctor, Bn, check_functor,
                              compose_functors, identity_functor,
                              random_coderivation, resolve_at_root,
                              strict_functor)
from ainfkit.graded import Echelon, GradedModule, Ring
from ainfkit.homquot import composite_defect
from ainfkit.trees import tree_stages
from ainfkit.quiver import (BoundError, GradedQuiver, MultiOp, QuiverMap,
                            Stage, bounded_tensors, evaluate, insert,
                            run_stages, state_element)
from test_category import arrow_with_differential, path3
from test_functors import functors_componentwise_equal, odd_square_zero

QQ = Ring("QQ")


def loop_quiver():
    """One object, an even and an odd generator, d of the odd one even."""
    mod = GradedModule(QQ, [("a", 0), ("z", -1)])
    gen = GradedQuiver(QQ, ["*"], {("*", "*"): mod})
    d1 = MultiOp(gen, gen, 1, 1,
                 table={(("*", "*"), ("z",)): mod.basis_element("a")},
                 name="d")
    return gen, d1


def two_step_quiver():
    """Three objects in a row, no differential."""
    homs = {
        (0, 1): GradedModule(QQ, [("x", 0)]),
        (1, 2): GradedModule(QQ, [("y", -1)]),
    }
    return GradedQuiver(QQ, [0, 1, 2], homs)


def triple_product():
    """One object with only a ternary operation; x cubed is y."""
    mod = GradedModule(QQ, [("x", -1), ("y", -2)])
    q = GradedQuiver(QQ, ["T"], {("T", "T"): mod})
    b3 = MultiOp(q, q, 3, 1,
                 table={(("T", "T", "T", "T"), ("x", "x", "x")):
                        mod.basis_element("y")},
                 name="b3")
    return AInfCategory(q, {3: b3}, 3, name="triple")


def dg_target():
    """One object, a two-term complex whose degree 0 part is idempotent."""
    mod = GradedModule(QQ, [("u0", 0), ("u1", 1)])
    homs = {("L", "L"): mod}
    m1 = {("L", "L"): {"u0": mod.basis_element("u1")}}
    m2 = {("L", "L", "L"): {
        ("u0", "u0"): mod.basis_element("u0"),
        ("u0", "u1"): mod.basis_element("u1"),
    }}
    return dg_to_ainf(homs, m1, m2, name="L")


def free_over(D, bound):
    return free_category(D.quiver, D.b(1), leaf_bound=bound, name="F" + D.name)


def identity_images(D):
    comps = {}
    for X, Y in D.quiver.pairs():
        mod = D.quiver.hom(X, Y)
        comps[(X, Y)] = {nm: mod.basis_element(nm) for nm in mod.names}
    return QuiverMap(D.quiver, D.quiver, 0, comps)


def coderivation_components_match(r1, r2, kmax):
    """Exact equality on objects and on all tensors inside the leaf bound."""
    F = r1.cat_source
    qa = F.quiver
    for X in qa.objects:
        if r1.component0(X) != r2.component0(X):
            return False
    for k in range(1, kmax + 1):
        for objs, names in bounded_tensors(qa, k):
            if not F.within_bound(objs, names):
                continue
            if r1.component_value(k, objs, names) != r2.component_value(k, objs, names):
                return False
    return True


def test_tree_helpers():
    assert corolla(2) == (LEAF, LEAF)
    assert leaf_count(LEAF) == 1 and vertex_count(LEAF) == 0
    assert leaf_count(corolla(3)) == 3 and vertex_count(corolla(3)) == 1
    t = (corolla(2), corolla(2))
    assert leaf_count(t) == 4 and vertex_count(t) == 3
    assert tree_stages(t) == [(0, 2), (1, 2), (0, 2)]
    assert tree_stages((LEAF, corolla(2))) == [(1, 2), (0, 2)]
    assert tree_stages((corolla(2), LEAF)) == [(0, 2), (0, 2)]
    counts = [len(trees_with_leaf_count(n)) for n in range(1, 5)]
    assert counts == [1, 1, 3, 11]


def test_free_basis_and_trivial_differential():
    gen, d1 = loop_quiver()
    F = free_category(gen, d1, leaf_bound=3)
    mod = F.hom("*", "*")
    ta = (LEAF, ("*", "*"), ("a",))
    tz = (LEAF, ("*", "*"), ("z",))
    assert mod.degrees[ta] == 0 and mod.degrees[tz] == -1
    zz = (corolla(2), ("*", "*", "*"), ("z", "z"))
    assert mod.degrees[zz] == -1
    # 2 one-leaf names, 1 tree on 2 leaves times 4 chains, 3 trees times 8
    assert len(mod.names) == 2 + 4 + 24
    # the differential of a one-leaf name embeds the generator image
    assert F.b(1).on_basis(("*", "*"), (tz,)) == mod.basis_element(ta)
    assert F.b(1).on_basis(("*", "*"), (ta,)).is_zero


def test_free_rejects_bad_differential():
    mod = GradedModule(QQ, [("p", 0), ("q", 1), ("r", 2)])
    gen = GradedQuiver(QQ, ["*"], {("*", "*"): mod})
    d1 = MultiOp(gen, gen, 1, 1,
                 table={(("*", "*"), ("p",)): mod.basis_element("q"),
                        (("*", "*"), ("q",)): mod.basis_element("r")},
                 name="d")
    with pytest.raises(ValueError):
        free_category(gen, d1, leaf_bound=2)


def test_grafting_pair_and_multi_object():
    gen, d1 = loop_quiver()
    F = free_category(gen, d1, leaf_bound=3)
    mod = F.hom("*", "*")
    oo = ("*", "*", "*")
    a = mod.basis_element((LEAF, ("*", "*"), ("a",)))
    z = mod.basis_element((LEAF, ("*", "*"), ("z",)))
    got = evaluate(F.b(2), oo, (a, z))
    assert got == tree_element(F, corolla(2), oo, ("a", "z"))
    assert got.degree == 0 + (-1) + 1

    G = free_category(two_step_quiver(), None, leaf_bound=2)
    x = G.hom(0, 1).basis_element((LEAF, (0, 1), ("x",)))
    y = G.hom(1, 2).basis_element((LEAF, (1, 2), ("y",)))
    got = evaluate(G.b(2), (0, 1, 2), (x, y))
    assert got == tree_element(G, corolla(2), (0, 1, 2), ("x", "y"))
    # the only two-leaf name from 0 to 2
    assert len(G.hom(0, 2).names) == 1


def test_grafting_beyond_bound_raises():
    gen, d1 = loop_quiver()
    F = free_category(gen, d1, leaf_bound=3)
    oo = ("*", "*", "*")
    w = tree_element(F, corolla(2), oo, ("a", "a"))
    with pytest.raises(BoundError):
        evaluate(F.b(2), oo, (w, w))


def _leaf_names(gobjs, gnames):
    return tuple((LEAF, (gobjs[i], gobjs[i + 1]), (gnames[i],))
                 for i in range(len(gnames)))


def test_pipeline_rebuilds_every_basis_name():
    gen, d1 = loop_quiver()
    F = free_category(gen, d1, leaf_bound=4)
    mod = F.hom("*", "*")
    for nm in mod.names:
        t, gobjs, gnames = nm
        if t == LEAF:
            continue
        got = tree_pipeline(F, tree_stages(t), gobjs,
                            _leaf_names(gobjs, gnames))
        assert got == mod.basis_element(nm)


def test_pipeline_alternative_order_sign():
    # evaluating the right subtree before the left one crosses the two
    # root operations past each other: one fixed sign, whatever the leaves
    gen, d1 = loop_quiver()
    F = free_category(gen, d1, leaf_bound=4)
    t = (corolla(2), corolla(2))
    right_first = [(2, 2), (0, 2), (0, 2)]
    oo = ("*",) * 5
    for gnames in itertools.product(("a", "z"), repeat=4):
        want = tree_element(F, t, oo, gnames).neg()
        got = tree_pipeline(F, right_first, oo, _leaf_names(oo, gnames))
        assert got == want


def test_differential_squares_to_zero_and_structure_holds():
    gen, d1 = loop_quiver()
    F = free_category(gen, d1, leaf_bound=3)
    mod = F.hom("*", "*")
    for nm in mod.names:
        v = F.b(1).on_basis(("*", "*"), (nm,))
        assert evaluate(F.b(1), ("*", "*"), (v,)).is_zero, nm
    rep = check_stasheff(F, samples=25, seed=1)
    assert rep.ok, rep.text()

    G = free_category(two_step_quiver(), None, leaf_bound=2)
    assert check_stasheff(G, samples=10, seed=2).ok


def test_delta_displays():
    D = arrow_with_differential()
    F = free_over(D, 3)
    # arity two: pure corolla minus the embedded composite
    got = composite_defect(D, F, 2).on_basis((0, 0, 1), ("e0", "u"))
    want = tree_element(F, corolla(2), (0, 0, 1), ("e0", "u")).sub(
        F.hom(0, 1).basis_element((LEAF, (0, 1), ("u",))))
    assert got == want
    # arity three over a category without ternary operations: corolla alone
    got3 = composite_defect(D, F, 3).on_basis((0, 0, 0, 1), ("e0", "e0", "u"))
    assert got3 == tree_element(F, corolla(3), (0, 0, 0, 1), ("e0", "e0", "u"))

    T = triple_product()
    FT = free_over(T, 3)
    tt = ("T", "T", "T", "T")
    got = composite_defect(T, FT, 3).on_basis(tt, ("x", "x", "x"))
    want = tree_element(FT, corolla(3), tt, ("x", "x", "x")).sub(
        FT.hom("T", "T").basis_element((LEAF, ("T", "T"), ("y",))))
    assert got == want


def test_relation_span_is_differential_closed():
    for build in (arrow_with_differential, odd_square_zero, triple_product):
        D = build()
        F = free_over(D, 3)
        R = structure_relations(D, F)
        assert R.generators
        rep = check_ideal(R)
        assert rep.ok, rep.text()
        # independent oracle: the normal form kills the whole span
        for X, Y, el in R.span_elements():
            assert normal_form(D, F, X, Y, el).is_zero


def test_ideal_check_names_the_image_leaving_the_span():
    # the span of the one-leaf u alone: b1(u) = v lies outside it
    F = free_over(arrow_with_differential(), 3)
    u = F.hom(0, 1).basis_element((LEAF, (0, 1), ("u",)))
    v = F.hom(0, 1).basis_element((LEAF, (0, 1), ("v",)))
    rep = check_ideal(IdealSpec(F, [(0, 1, u)], name="U"))
    assert not rep.ok, rep.text()
    assert rep.failures() == [("differential closure",
                               "defect %s at (0, 1)" % (v,))]
    closed = check_ideal(IdealSpec(F, [(0, 1, u), (0, 1, v)], name="UV"))
    assert closed.ok, closed.text()
    assert closed.checks == [("differential closure", True,
                              "2 generators, 0 skipped, all")]


def test_span_elements_keep_their_order():
    for build in (arrow_with_differential, triple_product, path3):
        D = build()
        F = free_over(D, 3)
        R = structure_relations(D, F)
        rows = R.rows()
        assert len(rows) > 1
        # the order of the sort by repr of the whole (key, bucket) item
        want = []
        for (pair, degree), bucket in sorted(rows.items(), key=repr):
            for pivot in sorted(bucket, key=_col_key):
                want.append((pair, degree, dict(bucket[pivot])))
        got = [((X, Y), el.degree, dict(el.items()))
               for X, Y, el in R.span_elements()]
        assert got == want


def test_quotient_reproduces_generating_category():
    for build in (odd_square_zero, arrow_with_differential, triple_product):
        D = build()
        F = free_over(D, 3)
        R = structure_relations(D, F)
        E, proj = quotient(F, R)
        for X, Y in D.quiver.pairs():
            dmod = D.hom(X, Y)
            emod = E.hom(X, Y)
            assert set(emod.names) == {(LEAF, (X, Y), (nm,)) for nm in dmod.names}
            assert sorted(dmod.degrees.values()) == sorted(emod.degrees.values())
        assert check_functor(proj, samples=20, seed=3).ok
        assert check_stasheff(E, samples=20, seed=4).ok

        # the two mutually inverse functors between D and the quotient
        omap = {X: X for X in D.objects}
        images = {}
        for X, Y in D.quiver.pairs():
            mod = D.quiver.hom(X, Y)
            images[(X, Y)] = {nm: E.hom(X, Y).basis_element((LEAF, (X, Y), (nm,)))
                              for nm in mod.names}
        iota = strict_functor(D, E, omap, images, name="iota")
        assert check_functor(iota, samples=20, seed=5).ok

        collapse = extend_functor(F, D, identity_images(D), name="c")
        assert check_factorizes(collapse, R).ok
        tilde = induce_functor(collapse, E)
        assert check_functor(tilde, samples=20, seed=6).ok
        assert functors_componentwise_equal(
            compose_functors(iota, tilde), identity_functor(D), 2)
        assert functors_componentwise_equal(
            compose_functors(tilde, iota), identity_functor(E), 1)


def test_quotient_by_nothing_changes_nothing():
    gen, d1 = loop_quiver()
    F = free_category(gen, d1, leaf_bound=2)
    E, proj = quotient(F, IdealSpec(F, [], name="zero"))
    assert set(E.hom("*", "*").names) == set(F.hom("*", "*").names)
    for nm in F.hom("*", "*").names:
        assert E.b(1).on_basis(("*", "*"), (nm,)).items() \
            == F.b(1).on_basis(("*", "*"), (nm,)).items()
    assert check_functor(proj, samples=10, seed=7).ok


def test_normal_form_values_and_sections():
    D = odd_square_zero()
    F = free_over(D, 3)
    R = structure_relations(D, F)
    mod = F.hom("P", "P")
    pp = ("P", "P")
    # one-leaf names are fixed
    for nm in D.hom("P", "P").names:
        assert normal_form(D, F, "P", "P",
                           mod.basis_element((LEAF, pp, (nm,)))) \
            == D.hom("P", "P").basis_element(nm)
    # a two-leaf tree becomes the operation value
    el = tree_element(F, corolla(2), ("P", "P", "P"), ("e", "n"))
    assert normal_form(D, F, "P", "P", el) \
        == D.b(2).on_basis(("P", "P", "P"), ("e", "n"))
    # section: normal form after the embedding is the identity
    emb = trivial_embedding(F)
    for nm in D.hom("P", "P").names:
        v = emb.apply("P", "P", D.hom("P", "P").basis_element(nm))
        assert normal_form(D, F, "P", "P", v) == D.hom("P", "P").basis_element(nm)
    # the other composite is the identity modulo the span
    rng = random.Random(9)
    nfm = normal_form_map(D, F)
    degrees = sorted(set(mod.degrees.values()))
    for deg in degrees:
        v = mod.random_element(deg, rng)
        w = v.sub(emb.apply("P", "P", nfm.apply("P", "P", v)))
        assert R.contains("P", "P", w)

    T = triple_product()
    FT = free_over(T, 3)
    el3 = tree_element(FT, corolla(3), ("T",) * 4, ("x", "x", "x"))
    assert normal_form(T, FT, "T", "T", el3) == T.hom("T", "T").basis_element("y")


def test_extend_functor_along_embedding_is_identity():
    gen, d1 = loop_quiver()
    F = free_category(gen, d1, leaf_bound=3)
    j = extend_functor(F, F, trivial_embedding(F), name="j")
    mod = F.hom("*", "*")
    for nm in mod.names:
        assert j.component(1).on_basis(("*", "*"), (nm,)) == mod.basis_element(nm)

    G = free_category(two_step_quiver(), None, leaf_bound=2)
    jg = extend_functor(G, G, trivial_embedding(G), name="j")
    for pair in G.quiver.pairs():
        for nm in G.hom(*pair).names:
            assert jg.component(1).on_basis(pair, (nm,)) \
                == G.hom(*pair).basis_element(nm)


def test_extend_functor_matches_normal_form():
    for build in (odd_square_zero, arrow_with_differential, triple_product):
        D = build()
        F = free_over(D, 3)
        f = extend_functor(F, D, identity_images(D), name="c")
        nfm = normal_form_map(D, F)
        for pair in F.quiver.pairs():
            for nm in F.hom(*pair).names:
                assert f.component(1).on_basis(pair, (nm,)) \
                    == nfm.apply(pair[0], pair[1], F.hom(*pair).basis_element(nm))
        assert check_functor(f, samples=15, seed=2).ok


def random_binary_extension():
    """The free category over loop_quiver at bound 3, extended into
    dg_target with a seeded random arity-2 component."""
    gen, d1 = loop_quiver()
    F = free_category(gen, d1, leaf_bound=3)
    A = dg_target()
    mod = A.hom("L", "L")
    images = QuiverMap(gen, A.quiver, 0,
                       {("*", "*"): {"z": mod.basis_element("u0", 3),
                                     "a": mod.basis_element("u1", 3)}},
                       obj_map=lambda X: "L")
    rng = random.Random(5)
    table = {}
    for objs, names in bounded_tensors(F.quiver, 2):
        deg = sum(F.quiver.degree(objs[i], objs[i + 1], names[i]) for i in range(2))
        el = mod.random_element(deg, rng, density=0.4)
        if not el.is_zero:
            table[(tuple(objs), tuple(names))] = el
    f2 = MultiOp(F.quiver, A.quiver, 2, 0, table=table,
                 lmap=lambda X: "L", rmap=lambda X: "L", name="f2")
    return extend_functor(F, A, images, higher={2: f2}, name="f")


def test_extend_functor_random_data_passes():
    f = random_binary_extension()
    assert check_functor(f, samples=30, seed=6).ok

    F, A = f.source, f.target
    broken = QuiverMap(F.gen, A.quiver, 0,
                       {("*", "*"): {"z": A.hom("L", "L").basis_element("u0")}},
                       obj_map=lambda X: "L")
    with pytest.raises(ValueError):
        extend_functor(F, A, broken)


def test_check_factorizes_negative_control():
    D = odd_square_zero()
    F = free_over(D, 3)
    R = structure_relations(D, F)
    j = extend_functor(F, F, trivial_embedding(F), name="j")
    rep = check_factorizes(j, R)
    assert not rep.ok


def _extension_setup(bound=3):
    gen, d1 = loop_quiver()
    F = free_category(gen, d1, leaf_bound=bound)
    A = dg_target()
    mod = A.hom("L", "L")
    rng = random.Random(13)

    def chain_images(c):
        return QuiverMap(gen, A.quiver, 0,
                         {("*", "*"): {"z": mod.basis_element("u0", c),
                                       "a": mod.basis_element("u1", c)}},
                         obj_map=lambda X: "L")

    def random_f2():
        table = {}
        for objs, names in bounded_tensors(F.quiver, 2):
            deg = sum(F.quiver.degree(objs[i], objs[i + 1], names[i])
                      for i in range(2))
            el = mod.random_element(deg, rng, density=0.3)
            if not el.is_zero:
                table[(tuple(objs), tuple(names))] = el
        return MultiOp(F.quiver, A.quiver, 2, 0, table=table,
                       lmap=lambda X: "L", rmap=lambda X: "L", name="f2")

    phi = extend_functor(F, A, chain_images(1), higher={2: random_f2()}, name="phi")
    psi = extend_functor(F, A, chain_images(2), higher={2: random_f2()}, name="psi")
    return F, A, phi, psi, rng


def _restriction_data(F, r):
    """part0/part1/higher of a coderivation, read off its components."""
    gen = F.gen
    part1 = {}
    c1 = r.component(1)
    for X, Y in gen.pairs():
        mat = {}
        for nm in gen.hom(X, Y).names:
            if c1 is not None:
                mat[nm] = c1.on_basis((X, Y), ((LEAF, (X, Y), (nm,)),))
            else:
                pair = (r.source.obj_map(X), r.target.obj_map(Y))
                mat[nm] = r.cat_target.hom(*pair).zero(
                    gen.degree(X, Y, nm) + r.degree)
        part1[(X, Y)] = mat
    higher = {k: op for k, op in r.components.items() if k >= 2}
    return dict(r.r0), part1, higher


def test_extend_transformation_reproduces_its_source():
    F, A, phi, psi, rng = _extension_setup()
    for degree in (0, -1):
        r = random_coderivation(phi, psi, degree, 2, rng, name="r")
        assert r.component(1) is not None
        du = Bn([r], arity_bound=3)
        part0, part1, higher = _restriction_data(F, r)
        ext = extend_transformation(phi, psi, degree, part0=part0,
                                    part1=part1, higher=higher,
                                    image_d=du, name="u")
        assert coderivation_components_match(ext, r, 2)

    # a closed coderivation is recovered from its data with no prescribed
    # differential at all
    s = random_coderivation(phi, psi, -1, 2, rng, name="s")
    r2 = Bn([s], arity_bound=3)
    part0, part1, higher = _restriction_data(F, r2)
    ext2 = extend_transformation(phi, psi, 0, part0=part0, part1=part1,
                                 higher=higher, image_d=None, name="v")
    assert coderivation_components_match(ext2, r2, 2)


def test_extend_transformation_zero_data_is_zero():
    F, A, phi, psi, rng = _extension_setup()
    ext = extend_transformation(phi, psi, 0, name="o")
    mod = F.hom("*", "*")
    for nm in mod.names:
        assert ext.component(1).on_basis(("*", "*"), (nm,)).is_zero
    assert ext.component0("*").is_zero


def test_extend_homotopy_reproduces_its_source():
    F, A, phi, psi, rng = _extension_setup()
    for degree in (-1, 0):
        h = random_coderivation(phi, psi, degree, 2, rng, name="h")
        assert h.component(1) is not None
        w = Bn([h], arity_bound=3)
        part0, part1, higher = _restriction_data(F, h)
        ext = extend_homotopy(phi, psi, degree, w, part0=part0, part1=part1,
                              higher=higher, name="k")
        assert coderivation_components_match(ext, h, 2)


def test_restriction_extension_is_chain_and_descends():
    D = odd_square_zero()
    F = free_over(D, 3)
    R = structure_relations(D, F)
    fhat = extend_functor(F, D, identity_images(D), name="fhat")
    nfop = normal_form_map(D, F).as_multiop("w")
    rng = random.Random(11)
    idD = identity_functor(D)
    p = random_coderivation(idD, idD, 0, 2, rng, name="p")
    assert p.component(1) is not None and p.component(2) is not None
    dp = Bn([p], arity_bound=3, name="pd")

    def transported(op, k):
        def rule(objs, names):
            base = {(tuple(objs), tuple(names)): QQ.one}
            state = run_stages([Stage(F.quiver, [("op", nfop)] * k),
                                insert(op, 0, 0)], base)
            deg = sum(F.quiver.degree(objs[i], objs[i + 1], names[i])
                      for i in range(k)) + op.degree
            return state_element(D.quiver, state, (objs[0], objs[-1]), deg)

        return MultiOp(F.quiver, D.quiver, k, op.degree, rule=rule,
                       name="t%d" % k)

    def lifted(q, degree, image_d, name):
        part0 = dict(q.r0)
        part1 = {}
        for X, Y in D.quiver.pairs():
            mat = {}
            for nm in D.quiver.hom(X, Y).names:
                mat[nm] = q.component_value(1, (X, Y), (nm,))
            part1[(X, Y)] = mat
        higher = {}
        for k in range(2, 4):
            if q.component(k) is not None:
                higher[k] = transported(q.component(k), k)
        return extend_transformation(fhat, fhat, degree, part0=part0,
                                     part1=part1, higher=higher,
                                     image_d=image_d, name=name)

    du = lifted(dp, 1, None, "du")
    u = lifted(p, 0, du, "u")

    # chain condition: the differential of the lift is the lift of the
    # differential, on every tensor inside the bound
    assert coderivation_components_match(Bn([u], arity_bound=3), du, 3)
    # single generators restrict back to the given data
    for nm in D.hom("P", "P").names:
        assert u.component(1).on_basis(("P", "P"), ((LEAF, ("P", "P"), (nm,)),)) \
            == p.component_value(1, ("P", "P"), (nm,))
    # both lifts kill the relation span
    assert check_factorizes(u, R).ok
    assert check_factorizes(du, R).ok
    # a generic coderivation does not
    noise = random_coderivation(fhat, fhat, 0, 2, rng, name="n")
    assert not check_factorizes(noise, R).ok


# -- relation spans against a dense oracle ---------------------------------
#
# The oracle is the all-rows reduction: it scans every row of a bucket for
# the pivots a vector holds, and every row for the new pivot on insertion.


def dense_reduce(ring, rows, vec):
    vec = dict(vec)
    for pivot, row in rows.items():
        c = vec.get(pivot)
        if c is None:
            continue
        for col, val in row.items():
            new = ring.sub(vec.get(col, ring.zero), ring.mul(c, val))
            if ring.is_zero(new):
                vec.pop(col, None)
            else:
                vec[col] = new
    return vec


def dense_insert(ring, rows, vec):
    vec = dense_reduce(ring, rows, vec)
    if not vec:
        return None
    pivot = min(vec, key=_col_key)
    inv = ring.inv(vec[pivot])
    vec = {col: ring.mul(inv, val) for col, val in vec.items()}
    for row in rows.values():
        c = row.get(pivot)
        if c is None:
            continue
        for col, val in vec.items():
            new = ring.sub(row.get(col, ring.zero), ring.mul(c, val))
            if ring.is_zero(new):
                row.pop(col, None)
            else:
                row[col] = new
    rows[pivot] = vec
    return vec


def column_index(rows):
    """What the sparse index must hold: column -> pivots of the rows
    holding it off their pivot."""
    index = {}
    for pivot, row in rows.items():
        for col in row:
            if col != pivot:
                index.setdefault(col, set()).add(pivot)
    return index


# Columns look like free basis names: _col_key orders them by leaf count
# first, so the pool has names of one, two and three leaves.
COLUMNS = [(LEAF if n == 1 else (LEAF,) * n, ("X",) * (n + 1), ("g%d" % i,) * n)
           for i in range(4) for n in (1, 2, 3)]


@st.composite
def span_inputs(draw):
    """A field, vectors to insert (some combinations of earlier ones, so
    dependent), and fresh vectors to reduce afterwards."""
    ring = draw(st.sampled_from([QQ, Ring("Fp", 2), Ring("Fp", 7)]))
    if ring.kind == "QQ":
        coeff = st.tuples(st.integers(-6, 6).filter(bool), st.integers(1, 4)).map(
            lambda t: ring.normalize(Fraction(*t)))
    else:
        coeff = st.integers(1, ring.p - 1)

    def sparse():
        return draw(st.dictionaries(st.sampled_from(COLUMNS), coeff,
                                    min_size=1, max_size=5))

    vecs = []
    for _ in range(draw(st.integers(1, 14))):
        if vecs and draw(st.booleans()):
            acc = {}
            for i in draw(st.lists(st.integers(0, len(vecs) - 1),
                                   min_size=1, max_size=3)):
                c = draw(coeff)
                for col, val in vecs[i].items():
                    new = ring.add(acc.get(col, ring.zero), ring.mul(c, val))
                    if ring.is_zero(new):
                        acc.pop(col, None)
                    else:
                        acc[col] = new
            vecs.append(acc)
        else:
            vecs.append(sparse())
    fresh = [sparse() for _ in range(3)]
    return ring, vecs, fresh


@settings(max_examples=100, deadline=None)
@given(span_inputs())
def test_sparse_span_agrees_with_dense_oracle(data):
    ring, vecs, fresh = data
    dense, span = {}, Echelon(ring, _col_key)
    for vec in vecs:
        want = dense_insert(ring, dense, dict(vec))
        got = span.insert(dict(vec))
        assert got == want
        assert span.rows == dense
        assert span.index == column_index(span.rows)
    for vec in fresh:
        assert span.reduce(vec) == dense_reduce(ring, dense, vec)


def dense_saturation(F, generators):
    """The span saturation with the dense oracle and chains filtered from
    every composable tensor, the two parts it is checked against."""
    ring = F.quiver.ring
    chains = {}
    for n in range(F.leaf_bound):
        for objs, names in bounded_tensors(F.quiver, n):
            used = sum(len(nm[2]) for nm in names)
            if used < F.leaf_bound:
                chains.setdefault(n, []).append((objs, names, used))
    rows, work = {}, []

    def push(X, Y, degree, terms):
        red = dense_insert(ring, rows.setdefault(((X, Y), degree), {}), terms)
        if red is not None:
            work.append((X, Y, degree, dict(red)))

    for X, Y, el in generators:
        push(X, Y, el.degree, dict(el.items()))
    while work:
        X, Y, degree, vec = work.pop()
        el = F.hom(X, Y).element(dict(vec), degree)
        budget = F.leaf_bound - max(len(nm[2]) for nm in vec)
        for k in range(2, min(F.max_arity, budget + 1) + 1):
            for slot in range(k):
                for lobjs, lnames, lu in chains.get(slot, ()):
                    if lobjs[-1] != X:
                        continue
                    for robjs, rnames, ru in chains.get(k - 1 - slot, ()):
                        if robjs[0] != Y or lu + ru > budget:
                            continue
                        objs = lobjs + robjs
                        names = lnames + (None,) + rnames
                        factors = [el if nm is None else
                                   F.hom(objs[i], objs[i + 1]).basis_element(nm)
                                   for i, nm in enumerate(names)]
                        w = evaluate(F.b(k), objs, factors)
                        if not w.is_zero:
                            push(objs[0], objs[-1], w.degree, dict(w.items()))
    return rows


def span_entries(rows):
    # repr keeps the scalar type: 2 and Fraction(2) must not pass as equal
    return {key: {pivot: sorted(map(repr, row.items()))
                  for pivot, row in bucket.items()}
            for key, bucket in rows.items()}


@pytest.mark.parametrize("build", [arrow_with_differential, path3])
def test_saturated_span_matches_dense_oracle(build):
    D = build()
    F = free_over(D, 4)
    R = structure_relations(D, F)
    got = R.rows()
    assert any(got.values())
    assert span_entries(got) == span_entries(dense_saturation(F, R.generators))


def reference_saturation(F, generators):
    """The saturation as one Element per factor and one evaluate per
    one-hole tensor, pushed into the library Echelon under _col_key.
    Unlike dense_saturation it is fast enough for leaf bound 5."""
    q, ring = F.quiver, F.quiver.ring
    spans, work = {}, []

    def push(X, Y, degree, terms):
        span = spans.get(((X, Y), degree))
        if span is None:
            span = spans[((X, Y), degree)] = Echelon(ring, _col_key)
        red = span.insert(terms)
        if red is not None:
            work.append((X, Y, degree, dict(red)))

    for X, Y, el in generators:
        push(X, Y, el.degree, dict(el.items()))
    while work:
        X, Y, degree, vec = work.pop()
        el = F.hom(X, Y).element(dict(vec), degree)
        budget = F.leaf_bound - max(len(nm[2]) for nm in vec)
        for k in range(2, min(F.max_arity, budget + 1) + 1):
            for slot in range(k):
                for lobjs, lnames in bounded_tensors(q, slot, F.size_of,
                                                     budget, end=X):
                    rest = budget - sum(len(nm[2]) for nm in lnames)
                    for robjs, rnames in bounded_tensors(
                            q, k - 1 - slot, F.size_of, rest, start=Y):
                        objs = lobjs + robjs
                        factors = [F.hom(*objs[i:i + 2]).basis_element(nm)
                                   for i, nm in enumerate(lnames)]
                        factors.append(el)
                        factors += [F.hom(*robjs[i:i + 2]).basis_element(nm)
                                    for i, nm in enumerate(rnames)]
                        w = evaluate(F.b(k), objs, factors)
                        if not w.is_zero:
                            push(objs[0], objs[-1], w.degree, dict(w.items()))
    return {key: span.rows for key, span in spans.items()}


@pytest.mark.parametrize("build", [arrow_with_differential, path3])
def test_saturation_and_quotient_match_reference_at_bound_5(build):
    D = build()
    F = free_over(D, 5)
    R = structure_relations(D, F)
    want = reference_saturation(F, R.generators)
    assert span_entries(R.rows()) == span_entries(want)
    E, proj = quotient(F, R)
    f1 = proj.component(1)
    for pair in F.quiver.pairs():
        mod = F.hom(*pair)
        dead = {pivot for (p, _), bucket in want.items() if p == pair
                for pivot in bucket}
        assert E.hom(*pair).names == tuple(nm for nm in mod.names
                                           if nm not in dead)
        for nm in mod.names:
            got = f1.on_basis(pair, (nm,))
            red = R.reduce(*pair, mod.basis_element(nm))
            assert got.degree == red.degree
            # repr keeps the scalar type, as in span_entries
            assert list(map(repr, got.items())) == list(map(repr, red.items()))


def test_saturation_work_is_pinned(monkeypatch):
    # the saturation's work counted without a clock: pushes into the spans,
    # the independent rows among them and graft rules run are those of the
    # per-tensor evaluate loop of reference_saturation; every product is one
    # whole stage, and no column-key memo outlives the call
    D = path3()
    F = free_over(D, 4)
    R = structure_relations(D, F)
    counts = {"stages": 0, "whole": 0, "pushes": 0, "rows": 0, "misses": 0}
    apply_stage = quiver.apply_stage
    on_basis = MultiOp.on_basis
    insert_row = Echelon.insert

    def counted_stage(stage, state, out=None):
        counts["stages"] += 1
        counts["whole"] += stage.whole
        return apply_stage(stage, state, out)

    def counted_on_basis(op, objs, names):
        if op.rule is not None and (tuple(objs), tuple(names)) not in op.table:
            counts["misses"] += 1
        return on_basis(op, objs, names)

    def counted_insert(span, vec):
        counts["pushes"] += 1
        red = insert_row(span, vec)
        counts["rows"] += red is not None
        return red

    for info in pkgutil.iter_modules(ainfkit.__path__):
        module = importlib.import_module("ainfkit." + info.name)
        for attr, value in list(vars(module).items()):
            if value is apply_stage:
                monkeypatch.setattr(module, attr, counted_stage)
    monkeypatch.setattr(MultiOp, "on_basis", counted_on_basis)
    monkeypatch.setattr(Echelon, "insert", counted_insert)
    R.rows()
    assert counts == {"stages": 261, "whole": 261, "pushes": 307,
                      "rows": 286, "misses": 240}
    assert sum(len(bucket) for bucket in R.rows().values()) == 286
    assert all(span.key is _col_key for span in R._spans.values())


@pytest.mark.parametrize("build", [arrow_with_differential, path3])
def test_bounded_chains_are_the_filtered_tensors(build):
    F = free_over(build(), 4)
    ends = list(F.objects) + [None]
    for n in range(4):
        tensors = []
        for objs, names in bounded_tensors(F.quiver, n):
            used = sum(len(nm[2]) for nm in names)
            if used <= 4:
                tensors.append((objs, names, used))
        for budget in range(5):
            for start in ends:
                for end in ends:
                    want = sorted(t[:2] for t in tensors if t[2] <= budget
                                  and start in (None, t[0][0])
                                  and end in (None, t[0][-1]))
                    got = list(bounded_tensors(F.quiver, n, F.size_of, budget,
                                               start, end))
                    assert len(set(got)) == len(got)
                    assert sorted(got) == want, (n, budget, start, end)


def _validation_cases():
    D = arrow_with_differential()
    F = free_over(D, 2)
    gen, d1 = loop_quiver()
    G = free_category(gen, d1, leaf_bound=2)
    other, _ = loop_quiver()
    FE, A, phi, psi, rng = _extension_setup(2)
    _, _, phi2, _, _ = _extension_setup(2)
    zz = Ring("ZZ")
    zmod = GradedModule(zz, [("a", 0)])
    FZ = free_category(GradedQuiver(zz, ["*"], {("*", "*"): zmod}), leaf_bound=2)
    zel = FZ.hom("*", "*").basis_element((LEAF, ("*", "*"), ("a",)))
    wrong_degree = random_coderivation(phi, psi, 0, 1, rng, name="w")
    # the identity images without u's, so d(u) = v is no longer matched
    dropped_u = identity_images(D)
    del dropped_u.components[(0, 1)]["u"]
    collapse = extend_functor(F, D, identity_images(D))
    f1 = collapse.component(1)
    u = (LEAF, (0, 1), ("u",))

    def v_at_u(objs, names):
        # the one-leaf name u goes to v, one degree too high
        if names[0] == u:
            return D.hom(0, 1).basis_element("v")
        return f1.on_basis(objs, names)

    wrong_f1 = AInfFunctor(F, D, collapse.obj_map, {1: MultiOp(
        F.quiver, D.quiver, 1, 0, rule=v_at_u, lmap=f1.lmap, rmap=f1.rmap)})
    return {
        "corolla": (lambda: corolla(1), "at least two leaves"),
        "leaf bound": (lambda: free_category(gen, d1, leaf_bound=0),
                       "leaf bound must be at least 1"),
        "d1 degree": (lambda: free_category(gen, MultiOp(gen, gen, 1, 0)),
                      "must have arity 1 and degree 1"),
        "d1 quiver": (lambda: free_category(gen, MultiOp(other, other, 1, 1)),
                      "not on this quiver"),
        "delta base": (lambda: composite_defect(D, G, 2), "not over"),
        "delta arity": (lambda: composite_defect(D, F, 3), "outside 2..2"),
        "span field": (lambda: IdealSpec(FZ, [("*", "*", zel)]).rows(),
                       "field coefficients"),
        "quotient span": (lambda: quotient(F, IdealSpec(G, [])),
                          "another category"),
        "images quiver": (lambda: extend_functor(
            F, D, QuiverMap(D.quiver, G.quiver, 0, {})), "generating quiver"),
        "images degree": (lambda: extend_functor(
            F, D, QuiverMap(D.quiver, D.quiver, 1, {})), "degree 0"),
        "images chain": (lambda: extend_functor(F, D, dropped_u),
                         "do not commute with the differentials"),
        "functor higher": (lambda: extend_functor(
            F, D, identity_images(D), higher={2: D.b(2)}), "must have arity"),
        "functor sources": (lambda: extend_transformation(phi, phi2, 0),
                            "different categories"),
        "part1 hom": (lambda: extend_transformation(phi, psi, 0, part1={
            ("*", "*"): {"a": FE.hom("*", "*").basis_element(
                (LEAF, ("*", "*"), ("a",)))}}), "wrong hom or degree"),
        "part1 degree": (lambda: extend_transformation(phi, psi, 0, part1={
            ("*", "*"): {"a": A.hom("L", "L").basis_element("u0")}}),
            "wrong hom or degree"),
        "coderivation higher": (lambda: extend_transformation(
            phi, psi, 0, higher={1: wrong_degree.component(1)}),
            "must have arity"),
        "image_d": (lambda: extend_transformation(phi, psi, 0,
                                                  image_d=wrong_degree),
                    "with degree 1"),
        "homotopy target": (lambda: extend_homotopy(phi, psi, 0, wrong_degree),
                            "with degree 1"),
        "factorizes span": (lambda: check_factorizes(
            extend_functor(F, D, identity_images(D)), IdealSpec(G, [])),
            "another category"),
        "descends span": (lambda: check_factorizes(wrong_degree, IdealSpec(G, [])),
                          "another category"),
        "one-leaf root": (lambda: resolve_at_root(collapse, u),
                          r"one-leaf name \(\(\), \(0, 1\), \('u',\)\)"),
        "span image degree": (lambda: check_factorizes(
            wrong_f1, structure_relations(D, F)), "degree"),
    }


@pytest.mark.parametrize("case", [
    "corolla", "leaf bound", "d1 degree", "d1 quiver", "delta base",
    "delta arity", "span field", "quotient span", "images quiver",
    "images degree", "images chain", "functor higher", "functor sources",
    "part1 hom", "part1 degree", "coderivation higher", "image_d",
    "homotopy target", "factorizes span", "descends span", "one-leaf root",
    "span image degree"])
def test_freecat_validation_raises(case):
    call, message = _validation_cases()[case]
    with pytest.raises(ValueError, match=message):
        call()
