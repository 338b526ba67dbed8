import random

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ainfkit.graded import (
    ChainMap,
    Complex,
    Element,
    GradedModule,
    Ring,
    accumulate,
    cone,
    in_image,
    is_contracting_homotopy,
    koszul_sign,
    shift,
    solve_linear,
    split_semisplit,
)
from ainfkit.trees import LEAF

QQ = Ring("QQ")
F5 = Ring("Fp", 5)
ZZ = Ring("ZZ")


def test_ring_arithmetic():
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert F5.normalize(7) == 2
    assert F5.inv(3) == 2
    assert F5.normalize(Fraction(1, 2)) == 3
    assert ZZ.inv(-1) == -1
    assert QQ.fmt(Fraction(-1, 2)) == "-1/2"
    assert not ZZ.is_field and QQ.is_field and F5.is_field


def test_ring_zz_rejects_nonunits():
    with pytest.raises(ValueError):
        ZZ.inv(2)


def test_ring_rejects_bad_input():
    with pytest.raises(ValueError):
        Ring("RR")
    with pytest.raises(ValueError):
        Ring("Fp", 4)
    with pytest.raises(ValueError):
        Ring("Fp")
    for ring in (QQ, F5, ZZ):
        with pytest.raises(ZeroDivisionError):
            ring.inv(0)


def _canonical(x):
    """Whether a QQ value is in canonical form: int iff integral."""
    return type(x) is (int if x.denominator == 1 else Fraction)


@given(st.fractions(max_denominator=60), st.fractions(max_denominator=60))
def test_qq_agrees_with_fraction_arithmetic(x, y):
    for a, b in ((x, y), (QQ.normalize(x), QQ.normalize(y))):
        cases = [(QQ.add(a, b), x + y), (QQ.sub(a, b), x - y),
                 (QQ.mul(a, b), x * y), (QQ.neg(a), -x), (QQ.normalize(a), x)]
        if x != 0:
            cases.append((QQ.inv(a), 1 / x))
        for got, want in cases:
            assert got == want
            assert _canonical(got)


def test_scalar_forms():
    half = QQ.inv(2)
    assert half == Fraction(1, 2) and type(half) is Fraction
    assert QQ.inv(1) == 1 and type(QQ.inv(1)) is int
    assert QQ.fmt(3) == QQ.fmt(Fraction(3)) == "3"
    assert type(QQ.normalize(Fraction(6, 3))) is int
    assert QQ.zero == 0 and QQ.one == 1 and type(QQ.one) is int
    assert F5.normalize(-3) == 2
    assert F5.normalize(Fraction(1, 2)) == 3
    with pytest.raises(ZeroDivisionError):
        F5.normalize(Fraction(1, 5))
    with pytest.raises(ValueError):
        ZZ.normalize(Fraction(1, 2))
    M = GradedModule(QQ, [("x", 0)])
    a = M.basis_element("x", Fraction(2))
    b = M.basis_element("x", 2)
    assert a == b and hash(a) == hash(b)
    assert M.element({"x": Fraction(4, 2)}) == b


def test_shift_basics():
    M = GradedModule(QQ, [("x", 0)])
    assert shift(M, 1).degrees == {"x": -1}
    assert shift(M, 0).degrees == M.degrees
    N = GradedModule(QQ, [("x", 3), ("y", -2)])
    assert shift(shift(N, 1), 1).degrees == shift(N, 2).degrees


def test_shift_group_action():
    rng = random.Random(11)
    for _ in range(20):
        degs = [("e%d" % i, rng.randint(-5, 5)) for i in range(4)]
        M = GradedModule(QQ, degs)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        assert shift(shift(M, a), b).degrees == shift(M, a + b).degrees


def brute_koszul(perm, degrees):
    # move factors one adjacent swap at a time, multiplying odd*odd signs
    perm = list(perm)
    sign = 1
    for target in range(len(perm)):
        pos = perm.index(target)
        while pos > target:
            sign *= (-1) ** (degrees[perm[pos]] * degrees[perm[pos - 1]])
            perm[pos], perm[pos - 1] = perm[pos - 1], perm[pos]
            pos -= 1
    return sign


def test_koszul_examples():
    assert koszul_sign([1, 0], [1, 1]) == -1
    assert koszul_sign([2, 0, 1], [2, 4, 0]) == 1
    # reversal of three odd factors, frozen from the brute-force oracle
    assert brute_koszul([2, 1, 0], [1, 1, 1]) == -1
    assert koszul_sign([2, 1, 0], [1, 1, 1]) == -1


def test_koszul_matches_brute_force():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 6)
        degs = [rng.randint(-3, 3) for _ in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        assert koszul_sign(perm, degs) == brute_koszul(perm, degs)


def test_koszul_composition():
    # sign of a composite equals the product of signs, degrees transported
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 5)
        degs = [rng.randint(0, 3) for _ in range(n)]
        p1 = list(range(n))
        p2 = list(range(n))
        rng.shuffle(p1)
        rng.shuffle(p2)
        comp = [p1[p2[j]] for j in range(n)]
        d1 = [degs[p1[j]] for j in range(n)]
        assert koszul_sign(comp, degs) == koszul_sign(p1, degs) * koszul_sign(p2, d1)


def test_element_arithmetic():
    M = GradedModule(QQ, [("x", 0), ("y", 0), ("z", 1)])
    x = M.basis_element("x")
    y = M.basis_element("y", Fraction(1, 2))
    s = x.add(y)
    assert s.coeff("x") == 1 and s.coeff("y") == Fraction(1, 2)
    assert s.sub(s).is_zero
    assert x.scale(0).is_zero
    assert M.zero(5).add(x) == x


@st.composite
def sparse_sums(draw):
    """A ring, a sparse map of nonzero scalars, (key, scalar) items and a
    multiplier, over four keys and small scalars (zero included), and
    sometimes every item again negated, so that sums cancel."""
    ring = draw(st.sampled_from([QQ, Ring("Fp", 2), Ring("Fp", 7), ZZ]))
    raw = st.integers(-3, 3)
    if ring.kind == "QQ":
        raw = st.tuples(raw, st.integers(1, 3)).map(lambda t: Fraction(*t))
    scalar = raw.map(ring.normalize)
    keys = st.sampled_from("abcd")
    acc = draw(st.dictionaries(keys, scalar.filter(lambda v: v != 0)))
    items = draw(st.lists(st.tuples(keys, scalar), max_size=10))
    if draw(st.booleans()):
        items += [(k, ring.neg(v)) for k, v in items]
    return ring, acc, items, draw(scalar)


@settings(max_examples=300, deadline=None)
@given(sparse_sums())
def test_accumulate_agrees_with_dense_sum(case):
    ring, acc, items, c = case
    dense = dict(acc)
    for k, v in items:
        dense[k] = dense.get(k, 0) + c * v
    want = {k: ring.normalize(v) for k, v in dense.items()
            if ring.normalize(v) != 0}
    got = accumulate(ring, acc, items, c)
    assert got is acc
    assert got == want
    assert all(v != 0 for v in got.values())


def test_module_basis_order_and_duplicates():
    names = ["z", "a", ("t", 1), "m"]
    M = GradedModule(QQ, zip(names, [2, 0, -1, 0]))
    assert M.names == tuple(names)
    assert M.degrees == {"z": 2, "a": 0, ("t", 1): -1, "m": 0}
    assert GradedModule(QQ, iter([])).names == ()
    # the first repeated name is reported, from a generator as from a list
    pairs = [("x", 0), ("y", 1), ("x", 1), ("y", 1)]
    for basis in (pairs, (p for p in pairs)):
        with pytest.raises(ValueError, match="duplicate basis name 'x'"):
            GradedModule(QQ, basis)


def two_step_complex(ring=QQ):
    # w (deg -1) -> x (deg 0) -> 0 ; y isolated in degree 0
    M = GradedModule(ring, [("w", -1), ("x", 0), ("y", 0)])
    return Complex(M, {"w": M.basis_element("x")})


def test_complex_rejects_bad_differential():
    M = GradedModule(QQ, [("a", 0), ("b", 1), ("c", 2)])
    with pytest.raises(ValueError, match="d\\^2"):
        Complex(M, {"a": M.basis_element("b"), "b": M.basis_element("c")})


def test_chain_map_flag():
    cx = two_step_complex()
    M = cx.module
    ident = ChainMap.identity(cx)
    assert ident.is_chain()
    # killing the acyclic part and mapping y onto x is compatible with d
    f = ChainMap(
        cx, cx, 0,
        {"w": M.basis_element("w"), "x": M.basis_element("x"), "y": M.basis_element("x")},
    )
    assert f.is_chain()
    # dropping w while keeping x breaks compatibility with d
    g = ChainMap(cx, cx, 0, {"x": M.basis_element("x")})
    assert not g.is_chain()


def test_chain_map_sign_rule():
    # a degree -1 chain map satisfies f d = -d f; the sign is forced
    M = GradedModule(QQ, [("a", 0), ("b", 1)])
    src = Complex(M, {"a": M.basis_element("b")})
    N = GradedModule(QQ, [("c", -1), ("e", 0)])
    tgt = Complex(N, {"c": N.basis_element("e")})
    good = ChainMap(src, tgt, -1, {"a": N.basis_element("c"), "b": N.basis_element("e", -1)})
    assert good.is_chain()
    bad = ChainMap(src, tgt, -1, {"a": N.basis_element("c"), "b": N.basis_element("e")})
    assert not bad.is_chain()


def test_chain_map_add_rejects_other_modules():
    # equal-looking modules are still different modules, as for elements
    M = GradedModule(QQ, [("a", 0), ("b", 1)])
    N = GradedModule(QQ, [("a", 0), ("b", 1)])
    f = ChainMap(M, M, 0, {"a": M.basis_element("a")})
    assert f.add(ChainMap(M, M, 0, {})).matrix == f.matrix
    for other in (ChainMap(N, M, 0, {"a": M.basis_element("a")}),
                  ChainMap(M, N, 0, {"a": N.basis_element("a")}),
                  ChainMap(N, N, 0, {})):
        with pytest.raises(ValueError, match="different modules"):
            f.add(other)
    # a complex and its own module are the same module
    cx = Complex(M, {"a": M.basis_element("b")})
    assert f.add(ChainMap.identity(cx)).matrix["a"] == M.basis_element("a", 2)


def test_chain_map_call_rejects_other_modules():
    # a nonzero element of another module is an error, not a silent zero;
    # a zero of any module maps to zero, as Element.add accepts it
    M = GradedModule(QQ, [("a", 0), ("b", 1)])
    N = GradedModule(QQ, [("a", 0), ("b", 1)])
    f = ChainMap(M, M, 0, {"a": M.basis_element("a")})
    with pytest.raises(ValueError, match="source module"):
        f(N.basis_element("b"))
    assert f(N.zero(1)).is_zero
    assert f(Complex(M, {}).module.basis_element("a")) == M.basis_element("a")


def test_solve_linear():
    rows = [{"a": QQ.one, "b": QQ.one}, {"b": QQ.one}]
    sol = solve_linear(QQ, rows, {"a": Fraction(2), "b": Fraction(3)})
    assert sol == [Fraction(2), Fraction(1)]
    assert solve_linear(QQ, [{"a": QQ.one}], {"b": QQ.one}) is None


# -- solve_linear against a dense oracle -----------------------------------
#
# The oracle is dense Gauss-Jordan on the augmented system A^T c = rhs,
# one row per column and one column per unknown.


def dense_solve(ring, rows, rhs):
    cols = set(rhs)
    for r in rows:
        cols.update(r)
    cols = sorted(cols, key=repr)
    colpos = {c: i for i, c in enumerate(cols)}
    m, n = len(cols), len(rows)
    aug = [[ring.zero] * (n + 1) for _ in range(m)]
    for j, row in enumerate(rows):
        for col, v in row.items():
            aug[colpos[col]][j] = ring.normalize(v)
    for col, v in rhs.items():
        aug[colpos[col]][n] = ring.normalize(v)
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if aug[i][c] != ring.zero), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = ring.inv(aug[r][c])
        aug[r] = [ring.mul(v, inv) for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != ring.zero:
                f = aug[i][c]
                aug[i] = [ring.sub(aug[i][k], ring.mul(f, aug[r][k]))
                          for k in range(n + 1)]
        pivots.append((r, c))
        r += 1
    if any(aug[i][n] != ring.zero for i in range(r, m)):
        return None
    sol = [ring.zero] * n
    for row_i, c in pivots:
        sol[c] = aug[row_i][n]
    return sol


def combine(ring, rows, coeffs):
    """sum c_i row_i as a {column: scalar} map without zero entries."""
    acc = {}
    for row, c in zip(rows, coeffs):
        for col, v in row.items():
            acc[col] = ring.add(acc.get(col, ring.zero), ring.mul(c, v))
    return {col: v for col, v in acc.items() if v != ring.zero}


# Integer columns would meet integer tags; tree names are what the
# relation spans use.
SOLVE_COLUMNS = {
    "str": ["a", "b", "c", "d", "e"],
    "int": [0, 1, 2, 3, 4],
    "tree": [(LEAF, (0, 1), ("f",)), (LEAF, (1, 2), ("g",)),
             ((LEAF, LEAF), (0, 1, 2), ("f", "g")),
             ((LEAF, (LEAF, LEAF)), (0, 1, 2, 3), ("f", "g", "h")),
             (((LEAF, LEAF), LEAF), (0, 1, 2, 3), ("f", "g", "h"))],
}


@st.composite
def linear_systems(draw):
    """A field, rows (some combinations of earlier rows, so dependent)
    and a right-hand side, either in the row span or drawn freely."""
    ring = draw(st.sampled_from([QQ, Ring("Fp", 2), Ring("Fp", 7)]))
    pool = SOLVE_COLUMNS[draw(st.sampled_from(sorted(SOLVE_COLUMNS)))]
    if ring.kind == "QQ":
        coeff = st.tuples(st.integers(-6, 6).filter(bool), st.integers(1, 4)).map(
            lambda t: ring.normalize(Fraction(*t)))
    else:
        coeff = st.integers(1, ring.p - 1)

    def sparse():
        return draw(st.dictionaries(st.sampled_from(pool), coeff, max_size=4))

    rows = []
    for _ in range(draw(st.integers(0, 7))):
        if rows and draw(st.booleans()):
            picks = draw(st.lists(st.integers(0, len(rows) - 1),
                                  min_size=1, max_size=3))
            rows.append(combine(ring, [rows[i] for i in picks],
                                [draw(coeff) for _ in picks]))
        else:
            rows.append(sparse())
    if draw(st.booleans()):
        rhs = combine(ring, rows, [draw(coeff) for _ in rows])
    else:
        rhs = sparse()
    return ring, rows, rhs


@settings(max_examples=200, deadline=None)
@given(linear_systems())
def test_solve_linear_agrees_with_dense_oracle(system):
    ring, rows, rhs = system
    got = solve_linear(ring, rows, rhs)
    assert (got is None) == (dense_solve(ring, rows, rhs) is None)
    if got is not None:
        assert len(got) == len(rows)
        assert combine(ring, rows, got) == rhs


def test_solve_linear_needs_field():
    with pytest.raises(ValueError, match="field coefficients"):
        solve_linear(ZZ, [{"a": 1}], {"a": 1})


def test_in_image():
    cx = two_step_complex()
    M = cx.module
    d = ChainMap(cx, cx, 1, {"w": M.basis_element("x")})
    v = M.zero(0)
    pre = in_image(v, d)
    assert pre is not None and pre.is_zero
    ident = ChainMap.identity(cx)
    x = M.basis_element("x")
    assert in_image(x, ident) == x
    assert in_image(x, d) is not None
    assert in_image(M.basis_element("y"), d) is None


def test_in_image_random_preimages():
    rng = random.Random(23)
    M = GradedModule(QQ, [("a", 0), ("b", 0), ("c", 1), ("d", 1)])
    cx = Complex(M, {})
    for _ in range(20):
        mat = {}
        for n in ("a", "b"):
            mat[n] = M.random_element(1, rng)
        f = ChainMap(cx, cx, 1, mat)
        x = M.random_element(0, rng)
        v = f(x)
        pre = in_image(v, f)
        assert pre is not None and f(pre) == v


def test_in_image_needs_field():
    M = GradedModule(ZZ, [("a", 0)])
    cx = Complex(M, {})
    f = ChainMap.identity(cx)
    with pytest.raises(ValueError, match="field coefficients"):
        in_image(M.basis_element("a"), f)


def test_cone_of_identity_contractible():
    # cone of the identity: shifted copy maps onto the unshifted one
    M = GradedModule(QQ, [("x", 0)])
    cx = Complex(M, {})
    q = cone(ChainMap.identity(cx))
    v = q.module.basis_element("s:x")
    assert q.apply_d(v) == q.module.basis_element("t:x")
    assert homology_ranks(q) == {}


def test_cone_of_zero_is_direct_sum():
    M = GradedModule(QQ, [("x", 0)])
    N = GradedModule(QQ, [("y", 2)])
    cs, ct = Complex(M, {}), Complex(N, {})
    zero = ChainMap(cs, ct, 0, {})
    q = cone(zero)
    assert q.module.degrees == {"t:y": 2, "s:x": -1}
    assert not q.d


def test_cone_squares_to_zero_random():
    rng = random.Random(31)
    for _ in range(10):
        M = GradedModule(F5, [("m%d" % i, rng.randint(-2, 2)) for i in range(4)])
        # random differential: build degree +1 matrix, then keep only if d^2=0
        cx = Complex(M, {})
        N = GradedModule(F5, [("n%d" % i, rng.randint(-2, 2)) for i in range(4)])
        cy = Complex(N, {})
        mat = {}
        for n in M.names:
            mat[n] = N.random_element(M.degrees[n], rng)
        alpha = ChainMap(cx, cy, 0, mat)
        q = cone(alpha)  # Complex constructor asserts d^2 = 0


def homology_ranks(cx):
    """Oracle: rank of homology per degree, by exact rank counting."""
    ring = cx.ring
    mod = cx.module
    degs = sorted(set(mod.degrees.values()))
    ranks = {}
    for d in degs:
        names = mod.basis_of_degree(d)
        rows_out = [dict(cx.apply_d(mod.basis_element(n)).items()) for n in names]
        rank_out = matrix_rank(ring, rows_out)
        below = mod.basis_of_degree(d - 1)
        rows_in = [dict(cx.apply_d(mod.basis_element(n)).items()) for n in below]
        rank_in = matrix_rank(ring, rows_in)
        h = len(names) - rank_out - rank_in
        if h:
            ranks[d] = h
    return ranks


def matrix_rank(ring, rows):
    rows = [dict(r) for r in rows if r]
    rank = 0
    while rows:
        row = rows.pop()
        if not row:
            continue
        col = next(iter(row))
        inv = ring.inv(row[col])
        row = {c: ring.mul(v, inv) for c, v in row.items()}
        rank += 1
        new_rows = []
        for r in rows:
            if col in r:
                f = r[col]
                r = {
                    c: ring.sub(r.get(c, ring.zero), ring.mul(f, row.get(c, ring.zero)))
                    for c in set(r) | set(row)
                }
                r = {c: v for c, v in r.items() if v != ring.zero}
            new_rows.append(r)
        rows = new_rows
    return rank


def test_homology_oracle():
    cx = two_step_complex()
    # w -> x kills both; y survives in degree 0
    assert homology_ranks(cx) == {0: 1}


def random_contractible(ring, rng, size=3):
    """A contractible complex: cone of the identity on a random module."""
    M = GradedModule(ring, [("g%d" % i, rng.randint(-2, 2)) for i in range(size)])
    cx = Complex(M, {})
    return cone(ChainMap.identity(cx))


def test_split_semisplit_zero_kernel():
    B = two_step_complex()
    C = Complex(GradedModule(QQ, []), {})
    alpha = ChainMap(C, B, 0, {})
    beta = ChainMap.identity(B)
    phi = ChainMap(B, C, 0, {})
    H = ChainMap(C, C, -1, {})
    nu, gamma = split_semisplit(alpha, beta, phi, H)
    for n in B.module.names:
        x = B.module.basis_element(n)
        assert nu(x) == x
    assert not gamma.matrix


def test_split_semisplit_direct_sum():
    rng = random.Random(3)
    C = random_contractible(QQ, rng, size=2)
    B = two_step_complex()
    # A = C + B with the obvious maps
    names = [("c:%s" % n, C.module.degrees[n]) for n in C.module.names]
    names += [("b:%s" % n, B.module.degrees[n]) for n in B.module.names]
    Amod = GradedModule(QQ, names)

    def tag(el, t):
        return Amod.element({"%s:%s" % (t, n): c for n, c in el.items()}, el.degree)

    d = {}
    for n in C.module.names:
        d["c:%s" % n] = tag(C.apply_d(C.module.basis_element(n)), "c")
    for n in B.module.names:
        d["b:%s" % n] = tag(B.apply_d(B.module.basis_element(n)), "b")
    A = Complex(Amod, d)
    alpha = ChainMap(C, A, 0, {n: tag(C.module.basis_element(n), "c") for n in C.module.names})
    beta = ChainMap(A, B, 0, {"b:%s" % n: B.module.basis_element(n) for n in B.module.names})
    phi = ChainMap(A, C, 0, {"c:%s" % n: C.module.basis_element(n) for n in C.module.names})
    # contracting homotopy of the cone: send t:g back to s:g
    Hfix = {}
    for n in C.module.names:
        if n.startswith("t:"):
            Hfix[n] = C.module.basis_element("s:" + n[2:])
    H = ChainMap(C, C, -1, Hfix)
    assert is_contracting_homotopy(C, H)
    nu, gamma = split_semisplit(alpha, beta, phi, H)
    for n in B.module.names:
        x = B.module.basis_element(n)
        assert beta(nu(x)) == x


def test_split_semisplit_random_f5():
    rng = random.Random(17)
    for trial in range(5):
        C = random_contractible(F5, rng, size=2)
        B = Complex(
            GradedModule(F5, [("u", 0), ("v", 1)]),
            {},
        )
        names = [("c:%s" % n, C.module.degrees[n]) for n in C.module.names]
        names += [("b:%s" % n, B.module.degrees[n]) for n in B.module.names]
        Amod = GradedModule(F5, names)

        def tag(el, t):
            return Amod.element({"%s:%s" % (t, n): c for n, c in el.items()}, el.degree)

        # twist the embedding of B by a random degree-0 "upper triangular" change
        # of basis that mixes in C generators, keeping the sequence semisplit
        mix = {}
        for n in B.module.names:
            mix[n] = C.module.random_element(B.module.degrees[n], rng)
        d = {}
        for n in C.module.names:
            d["c:%s" % n] = tag(C.apply_d(C.module.basis_element(n)), "c")
        for n in B.module.names:
            # d(b-part) must follow the twist to stay a complex: d(b + mix) = d(mix)
            d["b:%s" % n] = tag(C.apply_d(mix[n]), "c")
        A = Complex(Amod, d)
        alpha = ChainMap(
            C, A, 0, {n: tag(C.module.basis_element(n), "c") for n in C.module.names}
        )
        beta = ChainMap(A, B, 0, {"b:%s" % n: B.module.basis_element(n) for n in B.module.names})
        phi_mat = {"c:%s" % n: C.module.basis_element(n) for n in C.module.names}
        for n in B.module.names:
            phi_mat["b:%s" % n] = mix[n].neg()
        phi = ChainMap(A, C, 0, phi_mat)
        Hfix = {}
        for n in C.module.names:
            if n.startswith("t:"):
                Hfix[n] = C.module.basis_element("s:" + n[2:])
        H = ChainMap(C, C, -1, Hfix)
        nu, gamma = split_semisplit(alpha, beta, phi, H)
        # contracts are asserted inside split_semisplit; spot-check nu is chain
        assert nu.is_chain()
