"""Finite A-infinity categories with exact identity checks.

The structure is carried by the shifted hom modules: one operation per
arity up to a declared maximum, each of degree +1.  Defining identities
are verified by running the full sums on basis tensors through the
stage engine, so every Koszul sign comes out of evaluation rather than
separate bookkeeping.
"""

import random

from .graded import (ChainMap, Complex, GradedModule, flatten_map,
                     in_image, koszul_sign, linear_combination, map_boundary,
                     map_module, null_homotopy, shift)
from .quiver import (CountedTensors, GradedQuiver, MultiOp,
                     QuiverMap, _arrow_index, bounded_tensors, evaluate,
                     insertion_sum, slot_values, state_element,
                     tensor_degree)
from .report import Report, unless_zero
from .trees import tree_pipeline


class AInfCategory:
    """Shifted-hom quiver with degree +1 operations of arity 1..max_arity.

    ops maps arity to a MultiOp; a missing arity is the zero operation.
    units maps objects to distinguished degree -1 cycles.  size_of and
    size_bound describe an optional truncation: size_of(X, Y, name) is
    the declared size of a basis arrow, and checks skip tensors whose
    total size exceeds size_bound.
    """

    def __init__(self, quiver, ops, max_arity, units=None, size_of=None,
                 size_bound=None, name="A"):
        self.quiver = quiver
        self.ops = {}
        for n, op in ops.items():
            if not 1 <= n <= max_arity:
                raise ValueError("operation of arity %r outside declared arity range" % (n,))
            if op.arity != n or op.degree != 1:
                raise ValueError("operation at arity %r must have arity %r and degree 1"
                                 % (n, n))
            if op.source is not quiver or op.target is not quiver:
                raise ValueError("operation at arity %r is not on this quiver" % (n,))
            self.ops[n] = op
        self.max_arity = max_arity
        self.units = dict(units) if units else {}
        self.size_of = size_of
        self.size_bound = size_bound
        self.name = name
        self.dg = None
        b1 = self.ops.get(1)
        for X, u in self.units.items():
            if u.degree != -1 or u.is_zero:
                raise ValueError("unit must be a nonzero degree -1 element")
            if u.module is not quiver.hom(X, X):
                raise ValueError("unit of %r not in its endomorphism module" % (X,))
            if b1 is not None and not evaluate(b1, (X, X), (u,)).is_zero:
                raise ValueError("unit of %r is not a cycle" % (X,))

    def b(self, n):
        return self.ops.get(n)

    @property
    def objects(self):
        return self.quiver.objects

    def hom(self, X, Y):
        return self.quiver.hom(X, Y)

    def tensor_size(self, objs, names):
        if self.size_of is None:
            return None
        return sum(self.size_of(objs[i], objs[i + 1], names[i])
                   for i in range(len(names)))

    def within_bound(self, objs, names, extra=0):
        if self.size_of is None or self.size_bound is None:
            return True
        return self.tensor_size(objs, names) + extra <= self.size_bound

    def unit_size(self, X):
        """Largest declared size among the basis terms of the unit at X."""
        if self.size_of is None:
            return 0
        return max(self.size_of(X, X, nm) for nm, _ in self.units[X].items())

    def __repr__(self):
        return "AInfCategory(%s, %d objects, max arity %d)" % (
            self.name, len(self.quiver.objects), self.max_arity)


def hom_complex(A, X, Y):
    """The shifted hom module at (X, Y) with its arity-1 operation."""
    return Complex(A.quiver.hom(X, Y), b1_chain_map(A, X, Y).matrix)


def b1_chain_map(A, X, Y, sign=1):
    """The arity-1 operation at (X, Y), times sign (1 or -1), as a degree
    +1 matrix map: one slot_values call."""
    mod = A.quiver.hom(X, Y)
    b1 = A.b(1)
    return ChainMap(mod, mod, 1, {} if b1 is None else
                    slot_values(b1, (X, Y), (), 0, signs=(sign, sign)))


def stasheff_defect(A, k, objs, names):
    """The full arity-k defining sum evaluated on one basis tensor.

    Zero exactly when the structure identities of total arity k hold on
    that tensor.  Terms are grouped by outer arity m: the insertions of
    b(k-m+1) share one state, which b(m) is applied to once
    (quiver.insertion_sum); a missing inner or outer operation is zero.
    """
    q = A.quiver
    objs, names = tuple(objs), tuple(names)
    deg = tensor_degree(q, objs, names) + 2
    out = insertion_sum(A.b, A.b, k, {(objs, names): q.ring.one}, {})
    return state_element(q, out, (objs[0], objs[-1]), deg)


def _bounded_sample(A, k, samples, rng):
    """(tensors, exhaustive): every basis tensor of length k within the
    size bound when there are at most samples of them, else
    rng.sample(tensors, samples).  The tensors are counted, and each
    drawn position is found by a descent over the counts, so the list is
    never built: unbounded, it can run to millions."""
    walk = (A.quiver, k, A.size_of, A.size_bound)
    counted = CountedTensors(*walk)
    if counted.count <= samples:
        return list(bounded_tensors(*walk)), True
    return [counted.at(i)
            for i in rng.sample(range(counted.count), samples)], False


def max_arity_within(A):
    """The largest length k whose k smallest arrows fit the size bound,
    so no longer tensor does; None without a bound or when an arrow has
    size 0."""
    if A.size_of is None or A.size_bound is None:
        return None
    least = _arrow_index(A.quiver, A.size_of)[2]
    return A.size_bound // least if least > 0 else None


def sampled_cases(A, k, samples, rng, defect_fn):
    """(cases, exhaustive) for Report.tally over the tensors of
    _bounded_sample: each run is defect_fn(objs, names) unless zero."""
    tensors, exhaustive = _bounded_sample(A, k, samples, rng)
    cases = ((t, lambda: unless_zero(defect_fn(*t))) for t in tensors)
    return cases, exhaustive


def check_stasheff(A, arity_bound=None, samples=40, seed=0):
    """Verify the defining identities up to a total arity.

    The default bound 2*max_arity - 1 covers every identity that has a
    term built from two stored operations; it is capped at
    max_arity_within, past which no tensor fits the size bound.  Only
    tensors within the size bound are drawn; evaluations that escape it
    are counted as skipped, never failed, and an arity that checks
    nothing reads vacuous (report.Report.tally).
    """
    if arity_bound is None:
        arity_bound = 2 * A.max_arity - 1
        cap = max_arity_within(A)
        if cap is not None:
            arity_bound = min(arity_bound, cap)
    rng = random.Random(seed)
    rep = Report("structure identities for %s" % A.name)
    for k in range(1, arity_bound + 1):
        cases, exhaustive = sampled_cases(
            A, k, samples, rng,
            lambda objs, names, k=k: stasheff_defect(A, k, objs, names))
        rep.tally("arity %02d" % k, cases, "tensors", exhaustive)
    return rep


class DGData:
    """Unshifted hom modules with their differential and composition."""

    def __init__(self, quiver, m1, m2):
        self.quiver = quiver
        # m1: the nonzero entries of the degree 1 map d, per pair
        differential = QuiverMap(quiver, quiver, 1, m1)
        self.m1, self.d = differential.components, differential.apply
        self.m2 = m2

    def mul(self, X, Y, Z, x, y):
        table = self.m2.get((X, Y, Z), {})
        mul = self.quiver.ring.mul
        scaled = [(table[(n1, n2)], mul(c1, c2))
                  for n1, c1 in x.items() for n2, c2 in y.items()
                  if (n1, n2) in table]
        return linear_combination(self.quiver.hom(X, Z), x.degree + y.degree, scaled)

    def check_leibniz_and_associativity(self):
        """Raise ValueError naming a basis pair or triple that breaks a law.

        Both laws are multilinear, so a pair or triple that no nonzero
        structure constant reaches is zero on both sides.  The defects
        are therefore summed from the nonzero entries of m1 and m2 alone,
        one first argument at a time, into a sparse row keyed by the rest
        of the tuple and the output basis name.  The cost is proportional
        to the number of nonzero products along the way, not to the
        number of basis tuples.
        """
        q = self.quiver
        normalize = q.ring.normalize
        m1 = self.m1
        # (X, Y) -> [(Z, {n1: [(n2, n1*n2)]})], nonzero products only
        by_first = {}
        # (X, Z) -> [(Y, {m: [(n1, n2, c)]})]: n1*n2 has the term c*m
        by_term = {}
        for (X, Y, Z), table in self.m2.items():
            rows, hits = {}, {}
            for (n1, n2), val in table.items():
                if val.is_zero:
                    continue
                rows.setdefault(n1, []).append((n2, val))
                for m, c in val.items():
                    hits.setdefault(m, []).append((n1, n2, c))
            if rows:
                by_first.setdefault((X, Y), []).append((Z, rows))
                by_term.setdefault((X, Z), []).append((Y, hits))
        # (X, Y) -> {m: [(n, c)]}: d(n) has the term c*m
        d_by_term = {}
        for pair, mat in m1.items():
            cols = d_by_term[pair] = {}
            for n, el in mat.items():
                for m, c in el.items():
                    cols.setdefault(m, []).append((n, c))

        # Canonical scalars are Python ints and Fractions, so the rows
        # sum exact products and the ring reduces each entry once, when
        # it is tested.
        def put(row, key, el, c):
            for t, c2 in el.terms.items():
                k = key + (t,)
                row[k] = row.get(k, 0) + c * c2

        def first_failure(row):
            return next((k for k, v in row.items() if v and normalize(v) != 0), None)

        for (X, Y), after in by_first.items():
            dx_of = m1.get((X, Y), {})
            for n1 in q.hom(X, Y).names:
                # d(xy) - x.dy - (-1)^|y| dx.y, keyed by (Z, n2, t)
                row = {}
                for Z, rows in after:
                    dxz = m1.get((X, Z), {})
                    for n2, val in rows.get(n1, ()):
                        for m, c in val.items():
                            if m in dxz:
                                put(row, (Z, n2), dxz[m], c)
                    dyz = d_by_term.get((Y, Z), {})
                    for m, val in rows.get(n1, ()):
                        for n2, c in dyz.get(m, ()):
                            put(row, (Z, n2), val, -c)
                    if n1 in dx_of:
                        degs = q.hom(Y, Z).degrees
                        for m, c in dx_of[n1].items():
                            for n2, val in rows.get(m, ()):
                                put(row, (Z, n2), val, c if degs[n2] % 2 else -c)
                bad = first_failure(row)
                if bad is not None:
                    raise ValueError("Leibniz rule fails on (%r, %r)" % (n1, bad[1]))
                # (xy)z - x(yz), keyed by (Z, n2, W, n3, t)
                row = {}
                for Z, rows in after:
                    for n2, val in rows.get(n1, ()):
                        for W, rows2 in by_first.get((X, Z), ()):
                            for m, c in val.items():
                                for n3, val2 in rows2.get(m, ()):
                                    put(row, (Z, n2, W, n3), val2, c)
                for W, rows in after:
                    for m, val in rows.get(n1, ()):
                        for Z, hits in by_term.get((Y, W), ()):
                            for n2, n3, c in hits.get(m, ()):
                                put(row, (Z, n2, W, n3), val, -c)
                bad = first_failure(row)
                if bad is not None:
                    raise ValueError("associativity fails on (%r, %r, %r)"
                                     % (n1, bad[1], bad[3]))


def dg_to_ainf(homs, m1, m2, units=None, name="A"):
    """Build the two-operation structure of a differential graded category.

    homs gives the unshifted hom modules per ordered pair, m1 the basis
    differentials (degree +1) per pair, m2 the composition tables per
    object triple on basis pairs (degree 0).  The square-zero, Leibniz,
    associativity, and unit laws are all verified first; any failure
    raises ValueError.  The Leibniz and associativity checks walk only
    the nonzero structure constants, so validation costs time in
    proportion to the nonzero products, not to the number of basis pairs
    and triples.  Composition is written left to right, so the Leibniz
    rule checked here differentiates the second factor with no sign and
    the first factor with the sign of the second.  On the shifted
    modules the arity-1 operation keeps the same matrix and the arity-2
    operation picks up the sign of the unshifted degree of the second
    argument.  The unshifted data stays available on the result as the
    attribute dg.
    """
    mods = {pair: mod for pair, mod in homs.items() if mod.names}
    if not mods:
        raise ValueError("no nonzero hom modules")
    ring = next(iter(mods.values())).ring
    objects = []
    for pair in mods:
        for X in pair:
            if X not in objects:
                objects.append(X)
    if units:
        for X in units:
            if X not in objects:
                objects.append(X)
    plain = GradedQuiver(ring, objects, mods)
    dg = DGData(plain, m1, m2)
    for pair, mat in m1.items():
        mod = mods[pair]
        for n, el in mat.items():
            if el.degree != mod.degrees[n] + 1 or el.module is not mod:
                raise ValueError("differential entry at %r has wrong type" % (n,))
        for n in mod.names:
            if not dg.d(*pair, dg.d(*pair, mod.basis_element(n))).is_zero:
                raise ValueError("differential does not square to zero at %r" % (n,))
    for (X, Y, Z), table in m2.items():
        for (n1, n2), val in table.items():
            want = mods[(X, Y)].degrees[n1] + mods[(Y, Z)].degrees[n2]
            if val.degree != want or val.module is not plain.hom(X, Z):
                raise ValueError("composition entry (%r, %r) has wrong type" % (n1, n2))
    dg.check_leibniz_and_associativity()
    unit_els = {}
    if units:
        for X, u in units.items():
            if not hasattr(u, "items"):
                u = mods[(X, X)].basis_element(u)
            if u.degree != 0 or u.module is not plain.hom(X, X):
                raise ValueError("unit at %r must have degree 0" % (X,))
            if not dg.d(X, X, u).is_zero:
                raise ValueError("unit at %r is not closed" % (X,))
            unit_els[X] = u
        for (X, Y) in mods:
            for n in mods[(X, Y)].names:
                x = mods[(X, Y)].basis_element(n)
                if X in unit_els and dg.mul(X, X, Y, unit_els[X], x) != x:
                    raise ValueError("left unit law fails at %r" % (n,))
                if Y in unit_els and dg.mul(X, Y, Y, x, unit_els[Y]) != x:
                    raise ValueError("right unit law fails at %r" % (n,))

    squiver = GradedQuiver(ring, objects, {pair: shift(mod, 1) for pair, mod in mods.items()})

    def lift(pair, el):
        return squiver.hom(*pair).element(dict(el.items()), el.degree - 1)

    t1 = {}
    for pair, mat in m1.items():
        for n, el in mat.items():
            if not el.is_zero:
                t1[(pair, (n,))] = lift(pair, el)
    t2 = {}
    for (X, Y, Z), table in m2.items():
        for (n1, n2), val in table.items():
            if val.is_zero:
                continue
            sgn = -1 if mods[(Y, Z)].degrees[n2] % 2 else 1
            t2[((X, Y, Z), (n1, n2))] = lift((X, Z), val.scale(sgn))
    ops = {
        1: MultiOp(squiver, squiver, 1, 1, table=t1, name="b1"),
        2: MultiOp(squiver, squiver, 2, 1, table=t2, name="b2"),
    }
    sunits = {X: lift((X, X), u) for X, u in unit_els.items()}
    cat = AInfCategory(squiver, ops, 2, units=sunits, name=name)
    cat.dg = dg
    return cat


def complexes_category(ring, complexes, name="cpx"):
    """The differential graded category of a finite family of complexes.

    The DG data comes from complexes_dg_data, is validated and shifted by
    dg_to_ainf, and the complex data stays available on the result as
    the attribute complex_data.
    """
    data, homs, m1, m2, units = complexes_dg_data(ring, complexes)
    cat = dg_to_ainf(homs, m1, m2, units=units, name=name)
    cat.complex_data = data
    return cat


def complexes_dg_data(ring, complexes):
    """Unshifted DG data of the category of a finite family of complexes.

    complexes maps an object label to a pair (basis, d): basis lists
    (generator, degree) rows of the underlying graded module, and d
    sends a generator to the {generator: coefficient} column of its
    differential.  Hom modules are graded.map_module: one generator
    (a, b) per pair of a source and a target generator, standing for the
    map that sends a to b and every other generator to zero.  Its
    differential is graded.map_boundary; binary composition substitutes
    matching middle generators with no sign.  The identity maps are
    strict units.  Each complex is validated by building it as a
    graded.Complex, which refuses a duplicate or unknown generator, an
    inhomogeneous column, a differential not of degree one and one that
    does not square to zero.

    Returns (data, homs, m1, m2, units): data maps each object to
    (generators, degrees, differential columns), and the rest are the
    arguments dg_to_ainf takes.
    """
    data, ds = {}, {}
    for obj, (basis, diff) in complexes.items():
        mod = GradedModule(ring, basis)
        cx = Complex(mod, {a: mod.element(col) for a, col in diff.items()})
        ds[obj] = cx.differential
        data[obj] = (list(mod.names), dict(mod.degrees),
                     {a: dict(el.terms) for a, el in cx.d.items()})

    objects = list(complexes)
    homs, m1 = {}, {}
    for M in objects:
        for N in objects:
            smod, tmod = ds[M].source.module, ds[N].source.module
            mod = homs[(M, N)] = map_module(smod, tmod)
            m1[(M, N)] = {(a, b): flatten_map(map_boundary(
                ChainMap(smod, tmod, mod.degrees[(a, b)],
                         {a: tmod.basis_element(b)}), ds[M], ds[N]), mod)
                for a, b in mod.names}

    m2 = {}
    for M in objects:
        for N in objects:
            for P in objects:
                table = {}
                for (a, b) in homs[(M, N)].names:
                    for (b2, c) in homs[(N, P)].names:
                        if b == b2:
                            table[((a, b), (b2, c))] = \
                                homs[(M, P)].basis_element((a, c))
                m2[(M, N, P)] = table

    units = {M: homs[(M, M)].element({(a, a): 1 for a in data[M][0]}, 0)
             for M in objects}
    return data, homs, m1, m2, units


def opposite(A):
    """Arrow-reversed structure on the same hom modules.

    The arity-k operation reads its arguments in reverse order, with the
    Koszul sign of the reversal and a further minus for even k.  Arity 1
    is unchanged and the distinguished units carry over as they are.
    """
    q = A.quiver
    homs = {(Y, X): mod for (X, Y), mod in q.homs.items()}
    opq = GradedQuiver(q.ring, q.objects, homs)
    ops = {n: _reversed_op(opq, op, n) for n, op in A.ops.items()}
    size_of = None
    if A.size_of is not None:
        orig = A.size_of
        size_of = lambda X, Y, nm: orig(Y, X, nm)
    return AInfCategory(opq, ops, A.max_arity, units=dict(A.units),
                        size_of=size_of, size_bound=A.size_bound,
                        name=A.name + ".op")


def _reversed_op(opq, op, n):
    def rule(objs, names):
        degs = [opq.degree(objs[i], objs[i + 1], names[i]) for i in range(n)]
        sign = koszul_sign(range(n - 1, -1, -1), degs)
        if n % 2 == 0:
            sign = -sign
        return op.on_basis(tuple(reversed(objs)), tuple(reversed(names))).scale(sign)

    return MultiOp(opq, opq, n, 1, rule=rule,
                   name=(op.name or "b%d" % n) + ".rev")


def unit_then_op(A, objs, names, pos):
    """Insert the unit of objs[pos] at slot pos, then apply
    A.b(len(names) + 1).

    One run of trees.tree_pipeline on a basis tensor, Koszul signs
    included; a missing operation gives zero.
    """
    return tree_pipeline(A, [(pos, 0), (0, len(names) + 1)], objs, names)


def check_strict_unit(A, samples=60, seed=0):
    """Strict identity laws for the distinguished units.

    On shifted homs the arity-2 laws read: unit on the right composes to
    the identity, unit on the left to minus the identity.  For every
    higher arity an insertion at either end must vanish.  An arrow or an
    insertion whose end lacks a unit, or whose insertion would leave the
    size bound, is counted as skipped.
    """
    rng = random.Random(seed)
    rep = Report("strict units for %s" % A.name)
    q = A.quiver
    b2 = A.b(2)
    if b2 is None:
        raise ValueError("strict unit laws need an arity-2 operation")

    def arrows(pos, sign):
        for pair in q.pairs():
            mod = q.hom(*pair)
            for nm in mod.names:
                def run():
                    got = unit_then_op(A, pair, (nm,), pos)
                    return unless_zero(got.sub(mod.basis_element(nm, sign)))
                yield nm, run if pair[pos] in A.units else None

    rep.tally("right unit law", arrows(1, 1), "arrows")
    rep.tally("left unit law", arrows(0, -1), "arrows")

    def insertions(tensors, n):
        for objs, names in tensors:
            for pos in (n, 0):
                U = objs[pos]
                applies = U in A.units and A.within_bound(
                    objs, names, extra=A.unit_size(U))

                def run():
                    return unless_zero(unit_then_op(A, objs, names, pos))
                yield (objs, names, pos), run if applies else None

    for n in range(2, A.max_arity):
        tensors, exhaustive = [], True
        if A.b(n + 1) is not None:
            tensors, exhaustive = _bounded_sample(A, n, samples, rng)
        rep.tally("end insertions arity %02d" % (n + 1),
                  insertions(tensors, n), "insertions", exhaustive)
    return rep


def verify_unit_homotopy(A, h, h_prime, max_size=None):
    """Unit laws up to the supplied homotopies, exactly.

    h and h_prime are degree -1 quiver endomaps (None means zero).  For
    each basis arrow x the right law asserts that x minus x with a unit
    composed on the right equals the h-boundary of x, and the left law
    that x plus x with a unit composed on the left equals the
    h_prime-boundary; an arrow without a unit at that end is skipped.
    max_size keeps only the names of at most that size under A.size_of;
    None checks every name.
    """
    rep = Report("unit homotopies for %s" % A.name)
    q = A.quiver
    b1, b2 = A.b(1), A.b(2)
    if b2 is None:
        raise ValueError("unit homotopies need an arity-2 operation")
    if max_size is not None and A.size_of is None:
        raise ValueError("max_size needs a size function (size_of) on %s"
                         % A.name)

    def names(hmap, pos):
        for X, Y in q.pairs():
            for nm in q.hom(X, Y).names:
                if max_size is not None and A.size_of(X, Y, nm) > max_size:
                    continue

                def run():
                    x = q.hom(X, Y).basis_element(nm)
                    u = unit_then_op(A, (X, Y), (nm,), pos)
                    lhs = x.sub(u) if pos else x.add(u)
                    if hmap is not None:  # its boundary at x
                        lhs = lhs.sub(hmap.commutator(X, Y, x, b1, b1))
                    return unless_zero(lhs)
                yield nm, run if (X, Y)[pos] in A.units else None

    noun = "names" if max_size is None else "names of size <= %d" % max_size
    for label, hmap, pos in (("right law", h, 1), ("left law", h_prime, 0)):
        rep.tally(label, names(hmap, pos), noun)
    return rep


def check_contractible_functor(g):
    """Null-homotope the arity-1 component of a functor, pair by pair.

    Solves g1 = H b1 + b1 H for a degree -1 map H, one
    graded.null_homotopy per pair, exactly over a field.  Returns
    (report, H); H is a QuiverMap when every pair has a solution and
    None otherwise.
    """
    B, A = g.source, g.target
    rep = Report("contractible functor check")
    g1 = g.component(1)
    comps = {}
    for (X, Y) in B.quiver.pairs():
        U, V = g.obj_map(X), g.obj_map(Y)
        smod = B.quiver.hom(X, Y)
        F = ChainMap(smod, A.quiver.hom(U, V), 0, {} if g1 is None else
                     {n: g1.on_basis((X, Y), (n,)) for n in smod.names})
        H = null_homotopy(F, b1_chain_map(B, X, Y), b1_chain_map(A, U, V))
        if H is not None:
            comps[(X, Y)] = H.matrix
        rep.add("pair %r" % ((X, Y),), H is not None, "homotopy found"
                if H is not None else
                "g1 is not a boundary for the hom differentials")
    if not rep.ok:
        return rep, None
    return rep, QuiverMap(B.quiver, A.quiver, -1, comps, obj_map=g.obj_map)


def check_pseudounital_functor(f):
    """Units map to units up to a boundary under the arity-1 component.

    For each object X with a unit, the difference between the target
    unit at Xf and the image of the source unit must lie in the image
    of the arity-1 operation.  Field coefficients required.
    """
    S, T = f.source, f.target
    if not T.quiver.ring.is_field:
        raise ValueError("image membership needs field coefficients, not %r"
                         % (T.quiver.ring,))
    rep = Report("pseudounital functor check")
    f1 = f.component(1)
    for X in sorted(S.units, key=repr):
        U = f.obj_map(X)
        if U not in T.units:
            rep.add("object %r" % (X,), False, "no unit at the image object")
            continue
        uX = S.units[X]
        img = (evaluate(f1, (X, X), (uX,)) if f1 is not None
               else T.quiver.hom(U, U).zero(-1))
        v = T.units[U].sub(img)
        if v.is_zero:
            rep.add("object %r" % (X,), True, "unit preserved on the nose")
            continue
        w = in_image(v, b1_chain_map(T, U, U))
        rep.add("object %r" % (X,), w is not None,
                "difference is a boundary" if w is not None
                else "difference %r is not a boundary" % (v,))
    return rep
