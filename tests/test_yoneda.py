"""Represented functors, the contravariant family, truncated transformations."""

import random

import pytest

from ainfkit.category import (AInfCategory, check_stasheff,
                              complexes_category, opposite)
from ainfkit.freecat import free_category
from ainfkit.graded import ChainMap, GradedModule, Ring, in_image
from ainfkit.quiver import GradedQuiver, MultiOp, evaluate
from ainfkit.yoneda import (RepresentedFunctor, TruncatedTransComplex,
                            check_hX, check_Y, flatten_map, h_functor,
                            hom_differential, map_differential, map_module, opposite_facts,
                            unit_defect_preimage, yoneda_components,
                            _hx_residual, _transform_b1_terms, _y_residual)
from test_category import arrow_with_differential, augmented_point, path3

QQ = Ring("QQ")
F5 = Ring("Fp", 5)


def two_complexes(ring):
    """Two complexes; the second has composable differentials that cancel."""
    return complexes_category(ring, {
        "M": ([("m0", 0), ("m1", 1), ("m3", 3)], {"m0": {"m1": 2}}),
        "P": ([("p0", 0), ("p1", 1), ("q1", 1), ("p2", 2)],
              {"p0": {"p1": 1, "q1": 1}, "p1": {"p2": 3}, "q1": {"p2": -3}}),
    }, name="cpx2")


def homotopy_path(ring):
    """Four objects in a row whose triple composite only exists up to homotopy.

    Composing the last step with the composite of the first two gives a
    boundary, the other association gives zero, and the arity-3 operation
    records the chain witnessing this; the arity-3 structure identity on
    the unique triple of arrows ties all three operations together.
    """
    mods = {
        (0, 1): GradedModule(ring, [("f01", -1)]),
        (1, 2): GradedModule(ring, [("f12", -1)]),
        (2, 3): GradedModule(ring, [("f23", -1)]),
        (0, 2): GradedModule(ring, [("f02", -1)]),
        (1, 3): GradedModule(ring, [("f13", -1)]),
        (0, 3): GradedModule(ring, [("f03", -2), ("g03", -1)]),
    }
    q = GradedQuiver(ring, [0, 1, 2, 3], mods)
    b1 = MultiOp(q, q, 1, 1, table={
        ((0, 3), ("f03",)): mods[(0, 3)].basis_element("g03")})
    b2 = MultiOp(q, q, 2, 1, table={
        ((0, 1, 2), ("f01", "f12")): mods[(0, 2)].basis_element("f02"),
        ((1, 2, 3), ("f12", "f23")): mods[(1, 3)].basis_element("f13"),
        ((0, 2, 3), ("f02", "f23")): mods[(0, 3)].basis_element("g03"),
    })
    b3 = MultiOp(q, q, 3, 1, table={
        ((0, 1, 2, 3), ("f01", "f12", "f23")):
            mods[(0, 3)].basis_element("f03")})
    return AInfCategory(q, {1: b1, 2: b2, 3: b3}, 3, name="steps")


def free_one_object():
    """Free structure on one degree-zero loop; evaluations can overflow."""
    gen = GradedQuiver(QQ, ["*"], {("*", "*"): GradedModule(QQ, [("a", 0)])})
    return free_category(gen, leaf_bound=3, name="free1")


def maps_equal(F, G):
    assert F.degree == G.degree
    return not F.add(G.scale(-1)).matrix


def detail_counts(rep, label):
    """Parse a 'c tensors, n nonzero, s skipped, sampled' detail line."""
    for name, ok, detail in rep.checks:
        if name == label:
            assert ok, "%s: %s" % (name, detail)
            *counts, coverage = detail.split(", ")
            assert coverage in ("sampled", "vacuous"), detail
            out = {}
            for part in counts:
                num, word = part.split()
                out[word] = int(num)
            return out
    raise AssertionError("no line %r" % label)


def test_homotopy_path_is_consistent():
    A = homotopy_path(QQ)
    rep = check_stasheff(A, samples=60, seed=1)
    assert rep.ok, rep.text()
    f02 = A.hom(0, 2).basis_element("f02")
    f23 = A.hom(2, 3).basis_element("f23")
    g03 = A.hom(0, 3).basis_element("g03")
    assert evaluate(A.b(2), (0, 2, 3), (f02, f23)) == g03
    f01 = A.hom(0, 1).basis_element("f01")
    f13 = A.hom(1, 3).basis_element("f13")
    assert evaluate(A.b(2), (0, 1, 3), (f01, f13)).is_zero
    assert check_stasheff(homotopy_path(F5), samples=60, seed=1).ok


def test_unbounded_stasheff_draws_by_counts():
    # 19 140 625 tensors of length 5 are counted, not walked
    rep = check_stasheff(two_complexes(Ring("Fp", 7)), arity_bound=5)
    assert rep.ok, rep.text()
    assert [d for _, _, d in rep.checks] == ["40 tensors, 0 skipped, sampled"] * 5


def test_arity_one_is_right_multiplication():
    A = path3()
    h = h_functor(A, 0)
    g = A.hom(1, 2).basis_element("g")
    F = h.value((1, 2), (g,))
    assert F.degree == 0
    assert list(F.matrix) == ["f"]
    assert F(A.hom(0, 1).basis_element("f")) == A.hom(0, 2).basis_element("fg")

    # an odd factor flips the stored binary table entry
    D = arrow_with_differential()
    hd = h_functor(D, 0)
    mod = D.hom(0, 1)
    e0 = D.hom(0, 0).basis_element("e0")
    assert hd.value((0, 1), (mod.basis_element("u"),))(e0) == \
        mod.basis_element("u")
    assert hd.value((0, 1), (mod.basis_element("v"),))(e0) == \
        mod.basis_element("v").scale(-1)


def test_arity_one_equation_is_chain_compatibility():
    D = arrow_with_differential()
    h = h_functor(D, 0)
    mod = D.hom(0, 1)
    u = mod.basis_element("u")
    diff, nonzero = _hx_residual(D, h, (0, 1), (u,))
    assert nonzero and not diff.matrix
    # restated: feeding the arity-1 image equals differentiating the map
    lhs = h.value((0, 1), (evaluate(D.b(1), (0, 1), (u,)),))
    rhs = map_differential(D, (0, 0), (0, 1), h.value((0, 1), (u,)))
    assert maps_equal(lhs, rhs)


def test_check_hX_green_on_fixtures():
    # the arity-1 equation is vacuous when no reachable arrow has a
    # differential, so the content floor starts higher on two fixtures
    cases = [(path3(), 0, 3, 2), (arrow_with_differential(), 0, 3, 1),
             (two_complexes(QQ), "M", 4, 1), (two_complexes(F5), "M", 4, 1),
             (homotopy_path(QQ), 0, 3, 2), (homotopy_path(F5), 0, 3, 2)]
    for A, X, bound, floor in cases:
        rep = check_hX(A, X, arity_bound=bound, samples=30, seed=2)
        assert rep.ok, rep.text()
        for k in range(floor, 3):
            assert detail_counts(rep, "arity %d" % k)["nonzero"] > 0


def test_check_hX_skips_oversized_free_evaluations():
    F = free_one_object()
    rep = check_hX(F, "*", arity_bound=2, samples=10, seed=0)
    assert rep.ok, rep.text()


def test_check_hX_deterministic():
    A = two_complexes(QQ)
    one = check_hX(A, "P", arity_bound=3, samples=12, seed=9).text()
    two = check_hX(A, "P", arity_bound=3, samples=12, seed=9).text()
    assert one == two


def tampered_path3():
    """path3 with one composite against the unit silently doubled."""
    A = path3()
    key = ((0, 0, 1), ("e0", "f"))
    val = A.b(2).on_basis(*key)
    table = dict(A.b(2).table)
    table[key] = val.scale(2)
    ops = dict(A.ops)
    ops[2] = MultiOp(A.quiver, A.quiver, 2, 1, table=table, name="b2bad")
    return AInfCategory(A.quiver, ops, 2, units=A.units, name="bad3")


def test_check_hX_catches_tampered_operation():
    bad = tampered_path3()
    h = h_functor(bad, 0)
    e0 = bad.hom(0, 0).basis_element("e0")
    f = bad.hom(0, 1).basis_element("f")
    diff, _ = _hx_residual(bad, h, (0, 0, 1), (e0, f))
    assert diff.matrix, "tampering must leave a residual"
    rep = check_hX(bad, 0, arity_bound=2, samples=60, seed=0)
    assert not rep.ok
    _, detail = rep.failures()[0]
    assert "residual at" in detail


def test_component_n1_k0_frozen():
    A = path3()
    comp = yoneda_components(A, 1, 0)
    f = A.hom(0, 1).basis_element("f")
    F = comp((2,), (), (1, 0), (f,))
    assert F.degree == 0
    assert F(A.hom(1, 2).basis_element("g")) == \
        A.hom(0, 2).basis_element("fg")

    D = arrow_with_differential()
    u = D.hom(0, 1).basis_element("u")
    G = yoneda_components(D, 1, 0)((1,), (), (1, 0), (u,))
    assert G(D.hom(1, 1).basis_element("e1")) == u


def test_component_n1_k1_frozen():
    # one reversed odd arrow crossing an odd pair: Koszul +1, parity -1
    A = homotopy_path(QQ)
    comp = yoneda_components(A, 1, 1)
    f01 = A.hom(0, 1).basis_element("f01")
    f23 = A.hom(2, 3).basis_element("f23")
    F = comp((2, 3), (f23,), (1, 0), (f01,))
    assert F.degree == -1
    assert F(A.hom(1, 2).basis_element("f12")) == \
        A.hom(0, 3).basis_element("f03").scale(-1)


def test_component_0k_matches_h():
    A = two_complexes(QQ)
    h = h_functor(A, "M")
    z1 = A.hom("M", "P").element({("m0", "p1"): 1, ("m1", "p2"): 2}, 0)
    z2 = A.hom("P", "P").basis_element(("p0", "p2"))
    left = yoneda_components(A, 0, 2)(("M", "P", "P"), (z1, z2), ("M",), ())
    right = h.value(("M", "P", "P"), (z1, z2))
    assert maps_equal(left, right)
    assert left.degree == z1.degree + z2.degree + 1


def test_check_Y_green_on_fixtures():
    for ring in (QQ, F5):
        A = two_complexes(ring)
        rep = check_Y(A, bounds=(3, 3), samples=12, seed=1)
        assert rep.ok, rep.text()
        assert detail_counts(rep, "component (1, 0)")["nonzero"] > 0
        assert detail_counts(rep, "component (1, 1)")["nonzero"] > 0
        rep2 = check_Y(homotopy_path(ring), bounds=(3, 3), samples=25, seed=4)
        assert rep2.ok, rep2.text()
    rep = check_Y(path3(), bounds=(2, 2), samples=10, seed=3)
    assert rep.ok, rep.text()


def test_Y_equations_have_content_through_all_three_operations():
    # deterministic residuals on the chains where every operation enters
    for ring in (QQ, F5):
        H = homotopy_path(ring)
        Hop = opposite(H)
        f01 = H.hom(0, 1).basis_element("f01")
        f12 = H.hom(1, 2).basis_element("f12")
        f23 = H.hom(2, 3).basis_element("f23")
        diff, nonzero = _y_residual(H, Hop, RepresentedFunctor(H, 1),
                                    RepresentedFunctor(H, 0),
                                    (2, 3), (f23,), (1, 0), (f01,))
        assert nonzero and not diff.matrix
        diff2, nonzero2 = _y_residual(H, Hop, RepresentedFunctor(H, 2),
                                      RepresentedFunctor(H, 0),
                                      (3,), (), (2, 1, 0), (f12, f01))
        assert nonzero2 and not diff2.matrix
        diff3, nonzero3 = _hx_residual(H, h_functor(H, 0),
                                       (1, 2, 3), (f12, f23))
        assert nonzero3 and not diff3.matrix


def test_check_Y_catches_tampered_operation():
    bad = tampered_path3()
    h0 = RepresentedFunctor(bad, 0)
    e0 = bad.hom(0, 0).basis_element("e0")
    f = bad.hom(0, 1).basis_element("f")
    diff, _ = _y_residual(bad, opposite(bad), h0, h0,
                          (0, 1), (f,), (0, 0), (e0,))
    assert diff.matrix, "tampering must leave a residual"
    rep = check_Y(bad, bounds=(1, 1), samples=200, seed=0)
    assert not rep.ok
    _, detail = rep.failures()[0]
    assert "residual at" in detail


def test_check_Y_deterministic():
    A = two_complexes(F5)
    one = check_Y(A, bounds=(2, 2), samples=8, seed=7).text()
    two = check_Y(A, bounds=(2, 2), samples=8, seed=7).text()
    assert one == two


def test_truncated_complex_boundary_squares_to_zero():
    A = path3()
    T = TruncatedTransComplex(A, 0, 0, 2)
    assert T.differential.matrix, "boundary should have content"
    rep = T.check_square()
    assert rep.ok, rep.text()
    assert "untested: outside the stored window" in rep.text()

    D = arrow_with_differential()
    TD = TruncatedTransComplex(D, 0, 1, 2)
    assert TD.check_square().ok
    degs = sorted(TD.module.degrees.values())
    deg = degs[len(degs) // 2]
    t = TD.random(deg, random.Random(1), density=0.9)
    assert not t.is_zero
    bt = TD.boundary(t)
    assert bt.degree == deg + 1
    assert TD.boundary(bt).is_zero


def test_truncated_complex_boundary_matches_template():
    D = arrow_with_differential()
    T = TruncatedTransComplex(D, 0, 1, 2)
    probes = [((0, 1), (D.hom(0, 1).basis_element("u"),)),
              ((0, 1), (D.hom(0, 1).basis_element("v"),)),
              ((1, 1), (D.hom(1, 1).basis_element("e1"),))]
    for key in T.module.names:
        t = T.module.basis_element(key)
        bt = T.boundary(t)
        r = T.module.degrees[key]
        for chain, zf in probes:
            direct, _ = _transform_b1_terms(
                D, T.source, T.target,
                lambda zo, z: T.value_of(t, zo, z), r, chain, zf)
            assert maps_equal(T.value_of(bt, chain, zf), direct)


def test_unit_lands_on_identity_exactly_when_strict():
    for A, X, Z in [(path3(), 0, 1), (two_complexes(QQ), "M", "P")]:
        h = h_functor(A, X)
        defect, pre = unit_defect_preimage(h, Z)
        assert not defect.matrix
        assert pre is not None and pre.is_zero


def _preimage_as_map(pre, mod):
    matrix = {}
    for (a, b), c in pre.items():
        matrix.setdefault(a, mod.zero(mod.degrees[b]))
        matrix[a] = matrix[a].add(mod.basis_element(b, c))
    return ChainMap(mod, mod, pre.degree, matrix)


def test_unit_lands_on_identity_up_to_boundary():
    P = augmented_point()
    mod = P.hom("Q", "Q")
    loose = AInfCategory(
        P.quiver, P.ops, 2,
        units={"Q": P.units["Q"].add(mod.basis_element("z"))},
        name="loose")
    h = h_functor(loose, "Q")
    defect, pre = unit_defect_preimage(h, "Q")
    assert defect.matrix, "the loose unit must miss the identity"
    assert not map_differential(loose, ("Q", "Q"), ("Q", "Q"), defect).matrix
    assert pre is not None and not pre.is_zero
    assert maps_equal(map_differential(loose, ("Q", "Q"), ("Q", "Q"),
                                       _preimage_as_map(pre, mod)), defect)

    # a map missing the image of the boundary has no preimage
    mm = map_module(mod, mod)
    bmatrix = {}
    for (a, b) in mm.names:
        E = ChainMap(mod, mod, mm.degrees[(a, b)], {a: mod.basis_element(b)})
        bmatrix[(a, b)] = flatten_map(
            map_differential(loose, ("Q", "Q"), ("Q", "Q"), E), mm)
    bmap = ChainMap(mm, mm, 1, bmatrix)
    stray = ChainMap(mod, mod, 0, {"one": mod.basis_element("one")})
    assert in_image(flatten_map(stray, mm), bmap) is None


def test_opposite_facts_on_fixtures():
    for A in (path3(), arrow_with_differential(), two_complexes(QQ),
              homotopy_path(QQ)):
        rep = opposite_facts(A)
        assert rep.ok, rep.text()
    rep = opposite_facts(free_one_object(), cap=300)
    assert rep.ok, rep.text()
    assert ("unit against reversal", True, "0 arrows, 0 skipped, vacuous") \
        in rep.checks
    # only tensors within the size bound are walked, so none is skipped
    assert ("double reversal at arity 3", True, "1 tensors, 0 skipped, all") \
        in rep.checks


def _validation_cases():
    """Each input check of the Yoneda layer: (call, message it raises)."""
    A = path3()
    f = A.hom(0, 1).basis_element("f")
    h = h_functor(A, 0)
    y11 = yoneda_components(A, 1, 1)
    g = A.hom(1, 2).basis_element("g")
    return {
        "value factors": (lambda: h.value((0,), ()), "one more object"),
        "component range": (lambda: yoneda_components(A, 0, 0),
                            r"n \+ k >= 1"),
        "component z": (lambda: y11((0, 1, 1), (f,), (0, 0), (f,)),
                        "1 z-factors on 2 objects"),
        "component x": (lambda: y11((0, 1), (f,), (0,), (f,)),
                        "1 x-factors on 2 objects"),
        "differential hom": (lambda: h.differential(2, f),
                             "not in the hom from the base to 2"),
        "stored map input": (lambda: hom_differential(A, (0, 1))(g),
                             "outside the map's source module"),
    }


@pytest.mark.parametrize("case", [
    "value factors", "component range", "component z", "component x",
    "differential hom", "stored map input"])
def test_yoneda_validation_raises(case):
    call, message = _validation_cases()[case]
    with pytest.raises(ValueError, match=message):
        call()
