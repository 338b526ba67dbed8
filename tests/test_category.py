"""Category layer: structure checks, units, opposites, functor-level checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ainfkit.category import (AInfCategory, b1_chain_map, check_contractible_functor,
                              check_pseudounital_functor, check_stasheff,
                              check_strict_unit, complexes_category,
                              complexes_dg_data, dg_to_ainf,
                              hom_complex, max_arity_within, opposite,
                              stasheff_defect, unit_then_op,
                              verify_unit_homotopy)
from ainfkit.graded import (GradedModule, Ring, accumulate,
                            linear_combination, solve_linear)
from ainfkit.quiver import GradedQuiver, MultiOp, QuiverMap, evaluate

QQ = Ring("QQ")
ZZ = Ring("ZZ")


def one_object_unit():
    mod = GradedModule(QQ, [("e", 0)])
    homs = {("X", "X"): mod}
    m2 = {("X", "X", "X"): {("e", "e"): mod.basis_element("e")}}
    return dg_to_ainf(homs, {}, m2, units={"X": "e"}, name="point")


def path3():
    """Three objects in a row, all arrows in degree zero, strict units."""
    homs = {
        (0, 0): GradedModule(QQ, [("e0", 0)]),
        (1, 1): GradedModule(QQ, [("e1", 0)]),
        (2, 2): GradedModule(QQ, [("e2", 0)]),
        (0, 1): GradedModule(QQ, [("f", 0)]),
        (1, 2): GradedModule(QQ, [("g", 0)]),
        (0, 2): GradedModule(QQ, [("fg", 0)]),
    }

    def b(pair, name):
        return homs[pair].basis_element(name)

    m2 = {
        (0, 0, 0): {("e0", "e0"): b((0, 0), "e0")},
        (1, 1, 1): {("e1", "e1"): b((1, 1), "e1")},
        (2, 2, 2): {("e2", "e2"): b((2, 2), "e2")},
        (0, 0, 1): {("e0", "f"): b((0, 1), "f")},
        (0, 1, 1): {("f", "e1"): b((0, 1), "f")},
        (1, 1, 2): {("e1", "g"): b((1, 2), "g")},
        (1, 2, 2): {("g", "e2"): b((1, 2), "g")},
        (0, 1, 2): {("f", "g"): b((0, 2), "fg")},
        (0, 0, 2): {("e0", "fg"): b((0, 2), "fg")},
        (0, 2, 2): {("fg", "e2"): b((0, 2), "fg")},
    }
    return dg_to_ainf(homs, {}, m2, units={0: "e0", 1: "e1", 2: "e2"}, name="path3")


def arrow_with_differential():
    """Two objects, hom(0,1) a two-term complex, strict units."""
    homs = {
        (0, 0): GradedModule(QQ, [("e0", 0)]),
        (1, 1): GradedModule(QQ, [("e1", 0)]),
        (0, 1): GradedModule(QQ, [("u", 0), ("v", 1)]),
    }
    m1 = {(0, 1): {"u": homs[(0, 1)].basis_element("v")}}
    m2 = {
        (0, 0, 0): {("e0", "e0"): homs[(0, 0)].basis_element("e0")},
        (1, 1, 1): {("e1", "e1"): homs[(1, 1)].basis_element("e1")},
        (0, 0, 1): {("e0", "u"): homs[(0, 1)].basis_element("u"),
                    ("e0", "v"): homs[(0, 1)].basis_element("v")},
        (0, 1, 1): {("u", "e1"): homs[(0, 1)].basis_element("u"),
                    ("v", "e1"): homs[(0, 1)].basis_element("v")},
    }
    return dg_to_ainf(homs, m1, m2, units={0: "e0", 1: "e1"}, name="arrow")


def augmented_point():
    """One object whose endomorphisms are a unit plus a killed two-term piece."""
    mod = GradedModule(QQ, [("one", 0), ("w", -1), ("z", 0)])
    homs = {("Q", "Q"): mod}
    m1 = {("Q", "Q"): {"w": mod.basis_element("z")}}
    m2 = {("Q", "Q", "Q"): {
        ("one", "one"): mod.basis_element("one"),
        ("one", "w"): mod.basis_element("w"),
        ("one", "z"): mod.basis_element("z"),
        ("w", "one"): mod.basis_element("w"),
        ("z", "one"): mod.basis_element("z"),
    }}
    return dg_to_ainf(homs, m1, m2, units={"Q": "one"}, name="augpoint")


class StubFunctor:
    """Just enough of a functor for the linear-level checks."""

    def __init__(self, source, target, omap, comp1):
        self.source = source
        self.target = target
        self._omap = dict(omap)
        self._comp1 = comp1

    def obj_map(self, X):
        return self._omap[X]

    def component(self, n):
        return self._comp1 if n == 1 else None


def stub_functor(B, A, omap, images):
    """images: {(X, Y): {name: element of target hom}} for the arity-1 part."""
    qm = QuiverMap(B.quiver, A.quiver, 0, images, obj_map=lambda X: omap[X])
    return StubFunctor(B, A, omap, qm.as_multiop("f1"))


def test_dg_to_ainf_one_object():
    A = one_object_unit()
    got = A.b(2).on_basis(("X", "X", "X"), ("e", "e"))
    smod = A.hom("X", "X")
    assert got == smod.basis_element("e")
    assert got.degree == -1
    assert A.b(1).on_basis(("X", "X"), ("e",)).is_zero
    assert A.units["X"] == smod.basis_element("e")


def test_stasheff_green_and_deterministic():
    for build in (one_object_unit, path3, arrow_with_differential, augmented_point):
        A = build()
        rep = check_stasheff(A, samples=30, seed=7)
        assert rep.ok, rep.text()
    A = path3()
    t1 = check_stasheff(A, samples=10, seed=3).text()
    t2 = check_stasheff(A, samples=10, seed=3).text()
    assert t1 == t2


def truncated_cube(bad=False):
    """Arity-2 structure of k[x]/(x^3), optionally with one wrong entry."""
    smod = GradedModule(QQ, [("one", -1), ("x", -1), ("x2", -1)])
    q = GradedQuiver(QQ, ["X"], {("X", "X"): smod})
    t = {}

    def put(n1, n2, out):
        t[((("X", "X", "X")), (n1, n2))] = smod.basis_element(out)

    for n in ("one", "x", "x2"):
        put("one", n, n)
        if n != "one":
            put(n, "one", n)
    put("x", "x", "x2")
    if bad:
        put("x", "x2", "one")
    b2 = MultiOp(q, q, 2, 1, table=t, name="b2")
    units = {"X": smod.basis_element("one")}
    return AInfCategory(q, {2: b2}, 2, units=units, name="cube")


def test_stasheff_catches_bad_entry():
    good = truncated_cube(bad=False)
    assert check_stasheff(good).ok
    bad = truncated_cube(bad=True)
    rep = check_stasheff(bad)
    assert not rep.ok
    failed = dict((n, d) for n, d in rep.failures())
    assert "arity 03" in failed
    # the defect on (x, x, x) is exactly the wrongly introduced product
    d = stasheff_defect(bad, 3, ("X", "X", "X", "X"), ("x", "x", "x"))
    assert d == bad.hom("X", "X").basis_element("one")


def test_strict_units_pass_and_scaled_fail():
    A = path3()
    rep = check_strict_unit(A)
    assert rep.ok, rep.text()
    assert check_strict_unit(augmented_point()).ok
    doubled = {X: u.scale(2) for X, u in A.units.items()}
    B = AInfCategory(A.quiver, A.ops, 2, units=doubled, name="path3x2")
    rep2 = check_strict_unit(B)
    assert not rep2.ok
    names = [n for n, _ in rep2.failures()]
    assert "left unit law" in names and "right unit law" in names


def test_unit_composites_frozen():
    A = path3()
    f = A.hom(0, 1).basis_element("f")
    assert unit_then_op(A, (0, 1), ("f",), 1) == f
    assert unit_then_op(A, (0, 1), ("f",), 0) == f.neg()
    # an even shifted degree flips the raw table value on the left
    P = augmented_point()
    w = P.hom("Q", "Q").basis_element("w")
    assert unit_then_op(P, ("Q", "Q"), ("w",), 0) == w.neg()


def test_unit_homotopy_strict_and_broken():
    A = path3()
    assert verify_unit_homotopy(A, None, None).ok
    doubled = {X: u.scale(2) for X, u in A.units.items()}
    B = AInfCategory(A.quiver, A.ops, 2, units=doubled, name="path3x2")
    rep = verify_unit_homotopy(B, None, None)
    assert not rep.ok


def test_opposite_signs_and_involution():
    A = path3()
    Aop = opposite(A)
    # reversal of two odd shifted arrows: Koszul -1, even arity -1, net +1
    got = Aop.b(2).on_basis((2, 1, 0), ("g", "f"))
    assert got == A.hom(0, 2).basis_element("fg")
    assert check_stasheff(Aop).ok
    assert check_strict_unit(Aop).ok

    D = arrow_with_differential()
    Dop = opposite(D)
    u = D.hom(0, 1).basis_element("u")
    assert Dop.b(1).on_basis((1, 0), ("u",)) == D.b(1).on_basis((0, 1), ("u",))
    assert check_stasheff(Dop).ok

    back = opposite(Aop)
    for k in (1, 2):
        from ainfkit.quiver import bounded_tensors
        for objs, names in bounded_tensors(A.quiver, k):
            lhs = back.b(k).on_basis(objs, names) if back.b(k) else None
            rhs = A.b(k).on_basis(objs, names) if A.b(k) else None
            if lhs is not None or rhs is not None:
                assert lhs == rhs


def test_contractible_functor_solve():
    B = one_object_unit()
    A = augmented_point()
    z = A.hom("Q", "Q").basis_element("z")
    g = stub_functor(B, A, {"X": "Q"}, {("X", "X"): {"e": z}})
    rep, H = check_contractible_functor(g)
    assert rep.ok and H is not None
    he = H.apply("X", "X", B.hom("X", "X").basis_element("e"))
    assert evaluate(A.b(1), ("Q", "Q"), (he,)) == z

    one = A.hom("Q", "Q").basis_element("one")
    g2 = stub_functor(B, A, {"X": "Q"}, {("X", "X"): {"e": one}})
    rep2, H2 = check_contractible_functor(g2)
    assert not rep2.ok and H2 is None


def test_pseudounital_functor():
    S = one_object_unit()
    T = augmented_point()
    mod = T.hom("Q", "Q")
    exact = stub_functor(S, T, {"X": "Q"},
                         {("X", "X"): {"e": mod.basis_element("one")}})
    rep = check_pseudounital_functor(exact)
    assert rep.ok and "on the nose" in rep.text()

    shifted = mod.element({"one": 1, "z": 1}, -1)
    upto = stub_functor(S, T, {"X": "Q"}, {("X", "X"): {"e": shifted}})
    rep2 = check_pseudounital_functor(upto)
    assert rep2.ok and "boundary" in rep2.text()

    wrong = stub_functor(S, T, {"X": "Q"},
                         {("X", "X"): {"e": mod.basis_element("one", 2)}})
    rep3 = check_pseudounital_functor(wrong)
    assert not rep3.ok


def test_dg_to_ainf_rejects_bad_input():
    import pytest

    mod = GradedModule(QQ, [("a", 0), ("b", 1), ("c", 2)])
    m1 = {("X", "X"): {"a": mod.basis_element("b"), "b": mod.basis_element("c")}}
    with pytest.raises(ValueError):
        dg_to_ainf({("X", "X"): mod}, m1, {})

    mod2 = GradedModule(QQ, [("x", 0), ("x2", 0)])
    m2 = {("X", "X", "X"): {("x", "x"): mod2.basis_element("x2"),
                            ("x", "x2"): mod2.basis_element("x2")}}
    with pytest.raises(ValueError):
        dg_to_ainf({("X", "X"): mod2}, {}, m2)

    homs = {
        (0, 1): GradedModule(QQ, [("u", 0), ("v", 1)]),
        (1, 1): GradedModule(QQ, [("e", 0)]),
    }
    m1 = {(0, 1): {"u": homs[(0, 1)].basis_element("v")}}
    m2 = {(0, 1, 1): {("u", "e"): homs[(0, 1)].basis_element("u")}}
    with pytest.raises(ValueError):
        dg_to_ainf(homs, m1, m2)

    homs = {(1, 1): GradedModule(QQ, [("e", 0), ("q", 1)])}
    m1 = {(1, 1): {"e": homs[(1, 1)].basis_element("q")}}
    m2 = {(1, 1, 1): {("e", "e"): homs[(1, 1)].basis_element("e"),
                      ("e", "q"): homs[(1, 1)].basis_element("q"),
                      ("q", "e"): homs[(1, 1)].basis_element("q")}}
    with pytest.raises(ValueError):
        dg_to_ainf(homs, m1, m2, units={1: "e"})


def test_size_bound_skips():
    A = path3()
    small = AInfCategory(A.quiver, A.ops, 2, units=A.units,
                         size_of=lambda X, Y, nm: 1, size_bound=2, name="tiny")
    # past arity 2 nothing fits, so the default bound stops there
    assert max_arity_within(small) == 2
    assert [n for n, _, _ in check_stasheff(small).checks] == [
        "arity 01", "arity 02"]
    rep = check_stasheff(small, arity_bound=3)
    assert rep.ok
    by_name = {n: d for n, ok, d in rep.checks}
    assert by_name["arity 03"] == "0 tensors, 0 skipped, vacuous"
    assert "0 skipped" in by_name["arity 02"]


def test_hom_complex_and_chain_map():
    D = arrow_with_differential()
    cx = hom_complex(D, 0, 1)
    u = cx.module.basis_element("u")
    assert cx.apply_d(u) == cx.module.basis_element("v")
    cm = b1_chain_map(D, 0, 1)
    assert cm(u) == cx.module.basis_element("v")


def test_complexes_category_endomorphisms():
    # the endomorphism complex of a two-term complex has odd maps whose
    # products exercise both signs of the differentiation rule
    A = complexes_category(QQ, {"P": ([("p0", 0), ("p1", 1)],
                                      {"p0": {"p1": 1}})}, name="endP")
    mod = A.dg.quiver.hom("P", "P")
    down = mod.basis_element(("p1", "p0"))
    got = A.dg.d("P", "P", down)
    want = mod.element({("p0", "p0"): 1, ("p1", "p1"): 1}, 0)
    assert got == want
    ident = mod.element({("p0", "p0"): 1, ("p1", "p1"): 1}, 0)
    assert A.dg.d("P", "P", ident).is_zero
    assert check_stasheff(A, samples=40, seed=11).ok
    assert check_strict_unit(A).ok


def test_complexes_category_two_objects():
    A = complexes_category(QQ, {
        "X": ([("x0", 0)], {}),
        "Y": ([("y0", 0), ("y1", 1)], {"y0": {"y1": 1}}),
    }, name="pairXY")
    assert check_stasheff(A, samples=40, seed=3).ok
    assert check_strict_unit(A).ok
    # composition substitutes the middle generator with no sign
    xy = A.dg.quiver.hom("X", "Y").basis_element(("x0", "y1"))
    yx = A.dg.quiver.hom("Y", "X").basis_element(("y0", "x0"))
    got = A.dg.mul("Y", "X", "Y", yx, xy)
    assert got == A.dg.quiver.hom("Y", "Y").basis_element(("y0", "y1"))


def test_complexes_category_rejects_bad_differential():
    import pytest

    with pytest.raises(ValueError):
        complexes_category(QQ, {"B": ([("a", 0), ("b", 1), ("c", 2)],
                                      {"a": {"b": 1}, "b": {"c": 1}})})
    with pytest.raises(ValueError):
        complexes_category(QQ, {"B": ([("a", 0), ("b", 0)], {"a": {"b": 1}})})


def test_associativity_failure_seen_only_through_the_right_bracketing():
    # xy = 0, so (xy)z = 0, while x(yz) = xu = v
    mod = GradedModule(QQ, [(n, 0) for n in "xyzuv"])
    m2 = {("X", "X", "X"): {("y", "z"): mod.basis_element("u"),
                            ("x", "u"): mod.basis_element("v")}}
    with pytest.raises(ValueError, match=r"associativity fails on \('x', 'y', 'z'\)"):
        dg_to_ainf({("X", "X"): mod}, {}, m2)


def test_leibniz_failure_seen_only_through_dx_times_y():
    # d(xy) = 0 and x.dy = 0, while dx.y = x'y = w
    mod = GradedModule(QQ, [("x", 0), ("x'", 1), ("y", 0), ("w", 1)])
    m1 = {("X", "X"): {"x": mod.basis_element("x'")}}
    m2 = {("X", "X", "X"): {("x'", "y"): mod.basis_element("w")}}
    with pytest.raises(ValueError, match=r"Leibniz rule fails on \('x', 'y'\)"):
        dg_to_ainf({("X", "X"): mod}, m1, m2)


def dense_dg_failures(homs, m1, m2):
    """Every failure of the square-zero, Leibniz and associativity laws.

    The reference for dg_to_ainf's sparse checks: brute-force loops over
    every basis element, pair and triple, computing on plain
    {name: coeff} dicts.  Returns the set of error messages.
    """
    mods = {pair: mod for pair, mod in homs.items() if mod.names}
    ring = next(iter(mods.values())).ring

    def lin(scaled):
        out = {}
        for el, c in scaled:
            for n, v in el.items():
                out[n] = ring.add(out.get(n, 0), ring.mul(v, c))
        return {n: v for n, v in out.items() if v != 0}

    def d(pair, x):
        mat = m1.get(pair, {})
        return lin((mat[n].terms, c) for n, c in x.items() if n in mat)

    def mul(X, Y, Z, x, y):
        table = m2.get((X, Y, Z), {})
        return lin((table[(a, b)].terms, ring.mul(c1, c2))
                   for a, c1 in x.items() for b, c2 in y.items() if (a, b) in table)

    fails = set()
    for pair, mod in mods.items():
        for n in mod.names:
            if d(pair, d(pair, {n: 1})):
                fails.add("differential does not square to zero at %r" % (n,))
    for (X, Y) in mods:
        for (Y2, Z) in mods:
            if Y2 != Y:
                continue
            for n1 in mods[(X, Y)].names:
                x = {n1: 1}
                for n2 in mods[(Y, Z)].names:
                    y = {n2: 1}
                    sign = -1 if mods[(Y, Z)].degrees[n2] % 2 else 1
                    lhs = d((X, Z), mul(X, Y, Z, x, y))
                    rhs = lin([(mul(X, Y, Z, x, d((Y, Z), y)), 1),
                               (mul(X, Y, Z, d((X, Y), x), y), sign)])
                    if lhs != rhs:
                        fails.add("Leibniz rule fails on (%r, %r)" % (n1, n2))
                    for (Z2, W) in mods:
                        if Z2 != Z:
                            continue
                        for n3 in mods[(Z, W)].names:
                            z = {n3: 1}
                            left = mul(X, Z, W, mul(X, Y, Z, x, y), z)
                            right = mul(X, Y, W, x, mul(Y, Z, W, y, z))
                            if left != right:
                                fails.add("associativity fails on (%r, %r, %r)"
                                          % (n1, n2, n3))
    return fails


RINGS = [QQ, Ring("Fp", 2), Ring("Fp", 3), Ring("Fp", 7)]


BAD_COMPLEXES = {
    "duplicate generator": ([("a", 0), ("a", 1)], {}),
    "unknown source": ([("a", 0), ("b", 1)], {"z": {"b": 1}}),
    "unknown target": ([("a", 0), ("b", 1)], {"a": {"z": 1}}),
    "wrong-degree entry": ([("a", 0), ("b", 0)], {"a": {"b": 1}}),
    "mixed-degree column": ([("a", 0), ("b", 1), ("c", 2)],
                            {"a": {"b": 1, "c": 1}}),
    "d squared nonzero": ([("a", 0), ("b", 1), ("c", 2)],
                          {"a": {"b": 1}, "b": {"c": 1}}),
}


@pytest.mark.parametrize("case", sorted(BAD_COMPLEXES))
def test_complexes_dg_data_refuses_each_bad_complex(case):
    good = ([("g", 0), ("h", 1)], {"g": {"h": 1}})
    with pytest.raises(ValueError):
        complexes_dg_data(QQ, {"A": good, "B": BAD_COMPLEXES[case]})


def test_complexes_dg_data_keeps_zero_columns_out_and_reads_fractions():
    data = complexes_dg_data(QQ, {"B": (
        [("a", 0), ("b", 1), ("c", 1)],
        {"a": {"b": "2/4", "c": 0}, "b": {}, "c": {}})})[0]
    assert data == {"B": (["a", "b", "c"], {"a": 0, "b": 1, "c": 1},
                          {"a": {"b": Fraction(1, 2)}})}


def _coeffs(ring):
    coeffs = [1, -1, 2, 3] + ([Fraction(1, 2)] if ring.kind == "QQ" else [])
    return sorted({ring.normalize(c) for c in coeffs} - {0})


@st.composite
def complex_specs(draw):
    """(ring, spec) for complexes_dg_data: one or two objects, each a
    two-term complex a -> b, plus a free generator on one object."""
    ring = draw(st.sampled_from(RINGS))
    spec = {}
    objects = draw(st.sampled_from([["M"], ["M", "N"]]))
    for obj in objects:
        low = draw(st.integers(0, 1))
        basis = [(obj + "a", low), (obj + "b", low + 1)]
        c = draw(st.sampled_from(_coeffs(ring) + [0]))
        diff = {obj + "a": {obj + "b": c}} if c else {}
        if len(objects) == 1 and draw(st.booleans()):
            basis.append((obj + "c", draw(st.integers(0, 2))))
        spec[obj] = (basis, diff)
    return ring, spec


@st.composite
def damaged_dg_data(draw):
    """DG data of a small complexes category, with at most one entry damaged.

    Every damage changes its entry and keeps it well typed: it scales,
    drops or adds a term to one m1 or m2 entry, or gives a zero product
    a nonzero value.
    """
    ring, spec = draw(complex_specs())
    coeffs = _coeffs(ring)
    _, homs, m1, m2, _ = complexes_dg_data(ring, spec)
    m1 = {pair: {n: el for n, el in mat.items() if not el.is_zero}
          for pair, mat in m1.items()}
    m1 = {pair: mat for pair, mat in m1.items() if mat}
    m2 = {key: dict(table) for key, table in m2.items()}
    where = draw(st.sampled_from(["none", "m1", "m2", "zero product"]))
    if where == "m1" and m1:
        pair = draw(st.sampled_from(sorted(m1, key=repr)))
        _damage(draw, m1[pair], homs[pair], coeffs)
    elif where in ("m1", "m2"):
        key = draw(st.sampled_from(sorted(m2, key=repr)))
        _damage(draw, m2[key], homs[(key[0], key[2])], coeffs)
    elif where == "zero product":
        X, Y, Z = key = draw(st.sampled_from(sorted(m2, key=repr)))
        mod = homs[(X, Z)]
        free = [(a, b) for a in homs[(X, Y)].names for b in homs[(Y, Z)].names
                if (a, b) not in m2[key] and mod.basis_of_degree(
                    homs[(X, Y)].degrees[a] + homs[(Y, Z)].degrees[b])]
        assume(free)
        a, b = draw(st.sampled_from(free))
        deg = homs[(X, Y)].degrees[a] + homs[(Y, Z)].degrees[b]
        name = draw(st.sampled_from(mod.basis_of_degree(deg)))
        m2[key][(a, b)] = mod.basis_element(name, draw(st.sampled_from(coeffs)))
    return homs, m1, m2


def _damage(draw, entries, mod, coeffs):
    """Change one nonzero entry of a table by scaling, dropping or adding."""
    key = draw(st.sampled_from(sorted(entries, key=repr)))
    el = entries[key]
    how = draw(st.sampled_from(["scale", "drop", "add"] if len(coeffs) > 1
                               else ["drop", "add"]))
    if how == "scale":
        entries[key] = el.scale(draw(st.sampled_from([c for c in coeffs if c != 1])))
    elif how == "drop":
        entries[key] = mod.zero(el.degree)
    else:
        name = draw(st.sampled_from(mod.basis_of_degree(el.degree)))
        entries[key] = el.add(mod.basis_element(name, draw(st.sampled_from(coeffs))))


@settings(max_examples=100, deadline=None)
@given(damaged_dg_data())
def test_dg_to_ainf_agrees_with_dense_oracle(data):
    homs, m1, m2 = data
    fails = dense_dg_failures(homs, m1, m2)
    if fails:
        with pytest.raises(ValueError) as err:
            dg_to_ainf(homs, m1, m2)
        assert str(err.value) in fails
    else:
        dg_to_ainf(homs, m1, m2)


def reference_homs_and_m1(ring, data):
    """The homs and m1 of complexes_dg_data from its validated data, by
    the hand-written sign rule it used before graded.map_boundary."""
    objects = list(data)
    homs = {}
    for M in objects:
        for N in objects:
            rows = [((a, b), data[N][1][b] - data[M][1][a])
                    for a in data[M][0] for b in data[N][0]]
            homs[(M, N)] = GradedModule(ring, rows)
    m1 = {}
    for M in objects:
        _, mdegs, mcols = data[M]
        for N in objects:
            _, ndegs, ncols = data[N]
            mod = homs[(M, N)]
            mat = {}
            for (a, b) in mod.names:
                terms = {(a, b2): c for b2, c in ncols.get(b, {}).items()}
                sgn = -1 if (ndegs[b] - mdegs[a]) % 2 else 1
                accumulate(ring, terms, (((a2, b), col[a])
                                         for a2, col in mcols.items()
                                         if a in col), -sgn)
                mat[(a, b)] = mod.element(terms, ndegs[b] - mdegs[a] + 1)
            m1[(M, N)] = mat
    return homs, m1


def assert_hom_dg_matches_reference(ring, spec):
    data, homs, m1, _, _ = complexes_dg_data(ring, spec)
    ref_homs, ref_m1 = reference_homs_and_m1(ring, data)
    assert list(homs) == list(ref_homs) and list(m1) == list(ref_m1)
    for pair, mod in homs.items():
        assert mod.names == ref_homs[pair].names
        assert mod.degrees == ref_homs[pair].degrees
        assert list(m1[pair]) == list(ref_m1[pair])
        for key, el in m1[pair].items():
            ref = ref_m1[pair][key]
            assert (el.degree, el.terms) == (ref.degree, ref.terms), key


def reference_contractible_solve(g):
    """check_contractible_functor's report lines and H, by the unknown
    system it built by hand before graded.null_homotopy."""
    B, A = g.source, g.target
    ring = A.quiver.ring
    lines, comps = [], {}
    g1 = g.component(1)
    for (X, Y) in B.quiver.pairs():
        smod = B.quiver.hom(X, Y)
        U, V = g.obj_map(X), g.obj_map(Y)
        tmod = A.quiver.hom(U, V)
        dBmap = b1_chain_map(B, X, Y)
        dB = {n: dBmap(smod.basis_element(n)) for n in smod.names}
        dA = b1_chain_map(A, U, V)
        unknowns = [(n, m) for n in smod.names for m in tmod.names
                    if tmod.degrees[m] == smod.degrees[n] - 1]
        rows = []
        for n, m in unknowns:
            row = {(n, o): c for o, c in dA(tmod.basis_element(m)).items()}
            rows.append(accumulate(ring, row, (((n2, m), dB[n2].coeff(n))
                                               for n2 in smod.names)))
        rhs = {}
        for n in smod.names:
            img = (g1.on_basis((X, Y), (n,)) if g1 is not None
                   else tmod.zero(smod.degrees[n]))
            for o, c in img.items():
                rhs[(n, o)] = c
        sol = solve_linear(ring, rows, rhs)
        if sol is None:
            lines.append(("pair %r" % ((X, Y),), False,
                          "g1 is not a boundary for the hom differentials"))
            continue
        mat = {}
        for (n, m), c in zip(unknowns, sol):
            if c == ring.zero:
                continue
            cur = mat.get(n, tmod.zero(smod.degrees[n] - 1))
            mat[n] = cur.add(tmod.basis_element(m, c))
        comps[(X, Y)] = mat
        lines.append(("pair %r" % ((X, Y),), True, "homotopy found"))
    if not all(ok for _, ok, _ in lines):
        return lines, None
    return lines, QuiverMap(B.quiver, A.quiver, -1, comps, obj_map=g.obj_map)


def endo_functors(B, rng):
    """Identity-on-objects stub functors on B whose arity-1 part is the
    identity, a random degree-0 map, and the boundary H b1 + b1 H of a
    random degree -1 map H, in that order."""
    q = B.quiver
    ident, rand, bound = {}, {}, {}
    for X, Y in q.pairs():
        mod = q.hom(X, Y)
        d = b1_chain_map(B, X, Y)
        H = {n: mod.random_element(mod.degrees[n] - 1, rng)
             for n in mod.names}
        ident[(X, Y)] = {n: mod.basis_element(n) for n in mod.names}
        rand[(X, Y)] = {n: mod.random_element(mod.degrees[n], rng)
                        for n in mod.names}
        bound[(X, Y)] = {n: linear_combination(
            mod, mod.degrees[n], [(d(H[n]), 1)] + [
                (H[m], c) for m, c in d(mod.basis_element(n)).items()])
            for n in mod.names}
    omap = {X: X for X in q.objects}
    return [stub_functor(B, B, omap, images) for images in (ident, rand, bound)]


def assert_contractible_matches_reference(B, rng):
    for g in endo_functors(B, rng):
        rep, H = check_contractible_functor(g)
        lines, ref = reference_contractible_solve(g)
        assert rep.checks == lines
        assert (H is None) == (ref is None)
        if H is not None:
            assert H.components == ref.components


@settings(max_examples=60, deadline=None)
@given(complex_specs(), st.integers(0, 2 ** 16))
def test_hom_complex_data_matches_hand_written_reference(drawn, seed):
    ring, spec = drawn
    assert_hom_dg_matches_reference(ring, spec)
    assert_contractible_matches_reference(complexes_category(ring, spec),
                                          random.Random(seed))


def _validation_cases():
    """Each input check of the category layer: (call, message it raises)."""
    A, other = path3(), path3()
    bare = AInfCategory(A.quiver, {}, 2, name="bare")
    # one object with b1(a) = b, so a is not a cycle
    mod = GradedModule(QQ, [("a", -1), ("b", 0)])
    q = GradedQuiver(QQ, ["X"], {("X", "X"): mod})
    b1 = MultiOp(q, q, 1, 1, table={(("X", "X"), ("a",)): mod.basis_element("b")})
    zmod = GradedModule(ZZ, [("e", 0)])
    Z = dg_to_ainf({("X", "X"): zmod}, {},
                   {("X", "X", "X"): {("e", "e"): zmod.basis_element("e")}},
                   units={"X": "e"}, name="pointZZ")
    over_zz = StubFunctor(Z, Z, {"X": "X"}, None)
    return {
        "arity range": (lambda: AInfCategory(A.quiver, {2: A.b(2)}, 1),
                        "outside declared arity range"),
        "op arity": (lambda: AInfCategory(A.quiver, {1: A.b(2)}, 2),
                     "must have arity 1"),
        "op quiver": (lambda: AInfCategory(A.quiver, {2: other.b(2)}, 2),
                      "not on this quiver"),
        "unit degree": (lambda: AInfCategory(A.quiver, {}, 2,
                                             units={0: A.hom(0, 0).zero(-1)}),
                        "nonzero degree -1"),
        "unit module": (lambda: AInfCategory(
            A.quiver, {}, 2, units={0: A.hom(1, 1).basis_element("e1")}),
            "endomorphism module"),
        "unit cycle": (lambda: AInfCategory(q, {1: b1}, 1,
                                            units={"X": mod.basis_element("a")}),
                       "not a cycle"),
        "no homs": (lambda: dg_to_ainf({("X", "X"): GradedModule(QQ, [])}, {}, {}),
                    "no nonzero hom modules"),
        "strict unit b2": (lambda: check_strict_unit(bare), "arity-2 operation"),
        "unit homotopy b2": (lambda: verify_unit_homotopy(bare, None, None),
                             "arity-2 operation"),
        "unit homotopy sizes": (lambda: verify_unit_homotopy(A, None, None,
                                                             max_size=1),
                                "size function"),
        "contractible field": (lambda: check_contractible_functor(over_zz),
                               "field coefficients"),
        "pseudounital field": (lambda: check_pseudounital_functor(over_zz),
                               "field coefficients"),
    }


@pytest.mark.parametrize("case", [
    "arity range", "op arity", "op quiver", "unit degree", "unit module",
    "unit cycle", "no homs", "strict unit b2", "unit homotopy b2",
    "unit homotopy sizes", "contractible field", "pseudounital field"])
def test_category_validation_raises(case):
    call, message = _validation_cases()[case]
    with pytest.raises(ValueError, match=message):
        call()
