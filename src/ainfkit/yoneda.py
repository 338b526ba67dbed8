"""Represented functors into complexes and the contravariant family.

Every hom module out of a fixed base object is a complex once it
carries minus the arity-1 operation, and the higher operations of the
category assemble these complexes into a functor: a tensor of k
composable factors becomes the stored map that feeds a basis name and
the factors to the arity k+1 operation.  Reading the base object
against the arrows produces a two-index family of such maps, whose
defining equations mix the operations of the category with those of its
arrow-reversed form.  Nothing about the target category of complexes is
ever materialized; only finite hom modules and sparse maps between them
appear, so every identity here is checked by exact arithmetic.

Conventions, all forced by the stage engine: an operation inserted into
a tensor picks up the parity of the factors to its right; composition
of stored maps is written left to right and scaled by the parity of the
second map's degree; the differential of a stored map is the map
followed by the target differential, minus the source differential
followed by the map, signed by the map's own degree.  That differential
is graded.map_boundary, and the unit defect is solved against it by
graded.null_homotopy; neither is written here.

Stored maps are built and combined in one pass each.  A family value
is one slot_values call with its signs applied per parity of the basis
name, and a hom differential is minus category.b1_chain_map; a
composite is one sparse product (ChainMap.compose); and each residual
collects its terms with their signs as coefficients and sums them once
(map_combination).  Whether a residual had content is read from its
terms before that sum cancels.
"""

import itertools
import random

from .category import b1_chain_map, opposite, unit_then_op
from .graded import (ChainMap, Complex, GradedModule, accumulate,
                     flatten_map, koszul_sign, map_boundary, map_combination,
                     map_module, null_homotopy, unflatten_map)
from .quiver import bounded_tensors, evaluate, slot_values
from .report import Report, unless_zero


def hom_differential(A, pair):
    """Differential of the complex at a hom pair as a stored map: minus
    the arity-1 operation (category.b1_chain_map)."""
    return b1_chain_map(A, *pair, sign=-1)


def map_differential(A, spair, tpair, F):
    """Differential of a stored map between two hom complexes.

    Returns the map w -> d(F w) - (-1)^{deg F} F(d w), both differentials
    being minus the arity-1 operation of A on the respective pair.
    """
    return map_boundary(F, hom_differential(A, spair),
                        hom_differential(A, tpair))


def _composite(F, G, sign=1):
    """Binary operation of the target on two stored maps, as a term
    (F then G, coefficient) of a map_combination.

    Left to right composition scaled by the parity of G's degree, the
    same sign that the DG import puts on its arity-2 operation; this is
    the composition under which the functor equations close.  sign is
    any further sign the term carries.
    """
    return F.compose(G), -sign if G.degree % 2 else sign


def _y_value(A, zobjs, zfactors, xobjs, xfactors):
    """One component value of the two-index family, as a stored map.

    zfactors runs along zobjs; xfactors[i] lies in hom(xobjs[i+1],
    xobjs[i]), against the arrows.  Each basis name w of the source
    complex goes to the arity n+k+1 operation applied to the reversed x
    block, then w, then the z block, scaled by the Koszul sign of that
    reshuffle and by the parity of n.  The reshuffle moves the x block
    past w and the z block, so its sign for w is its sign for a degree-0
    w times (-1)^(|w| * sum |x_i|): one sign per parity of |w|.
    """
    n, k = len(xfactors), len(zfactors)
    smod = A.hom(xobjs[0], zobjs[0])
    tmod = A.hom(xobjs[-1], zobjs[-1])
    zdegs = [f.degree for f in zfactors]
    xdegs = [f.degree for f in xfactors]
    degree = sum(zdegs) + sum(xdegs) + 1
    op = A.b(n + k + 1)
    matrix = {}
    if op is not None:
        perm = list(range(k + n, k, -1)) + list(range(0, k + 1))
        even = koszul_sign(perm, [0] + zdegs + xdegs) * (-1 if n % 2 else 1)
        odd = -even if sum(xdegs) % 2 else even
        matrix = slot_values(op, tuple(reversed(xobjs)) + tuple(zobjs),
                             tuple(reversed(xfactors)) + tuple(zfactors), n,
                             signs=(even, odd))
    return ChainMap(smod, tmod, degree, matrix)


class RepresentedFunctor:
    """Hom-from-a-base-object functor landing in finite complexes.

    An object Z goes to the hom module out of the base carrying minus
    the arity-1 operation as its differential; a tensor of k composable
    factors goes to the stored map built from the arity k+1 operation.
    Components exist at every arity, the declared bound only limits how
    far the componentwise checks run.
    """

    def __init__(self, A, X, arity_bound=None):
        self.category = A
        self.base = X
        self.arity_bound = A.max_arity if arity_bound is None else arity_bound
        self._d = {}

    def module_at(self, Z):
        return self.category.hom(self.base, Z)

    def d_at(self, Z):
        """The differential at Z as a stored map, built once per Z."""
        d = self._d.get(Z)
        if d is None:
            d = self._d[Z] = hom_differential(self.category, (self.base, Z))
        return d

    def differential(self, Z, el):
        if not (el.is_zero or el.module is self.module_at(Z)):
            raise ValueError("element not in the hom from the base to %r" % (Z,))
        return self.d_at(Z)(el)

    def complex_at(self, Z):
        return Complex(self.module_at(Z), self.d_at(Z).matrix)

    def value(self, objs, factors):
        """The stored map of one tensor; objs lists the k+1 objects."""
        if not factors or len(objs) != len(factors) + 1:
            raise ValueError("a nonempty tensor of factors needs one more "
                             "object than factors")
        return _y_value(self.category, tuple(objs), tuple(factors),
                        (self.base,), ())

    def __repr__(self):
        return "RepresentedFunctor(base %r, bound %d)" % (
            self.base, self.arity_bound)


def h_functor(A, X, arity_bound=None):
    """The represented functor of a base object; see RepresentedFunctor."""
    return RepresentedFunctor(A, X, arity_bound)


def _hom_chains(q, length):
    """All object chains of a length whose consecutive homs are nonzero."""
    out = []
    for c in itertools.product(q.objects, repeat=length + 1):
        if all(q.hom(c[i], c[i + 1]).names for i in range(length)):
            out.append(c)
    return out


def _random_factor(mod, rng):
    degs = sorted(set(mod.degrees.values()))
    for _ in range(4):
        el = mod.random_element(rng.choice(degs), rng, 0.8)
        if not el.is_zero:
            return el
    return mod.basis_element(rng.choice(mod.names))


def _apply_inner(A, objs, factors):
    """Every nonzero insertion of an operation into a tensor of elements.

    Yields (sign, objs, factors) with the engine's suffix sign, one per
    arity t and offset p whose operation exists and whose value on the
    t factors from p is nonzero.
    """
    k = len(factors)
    for t in range(1, k + 1):
        op = A.b(t)
        if op is None:
            continue
        for p in range(0, k - t + 1):
            mid = evaluate(op, tuple(objs[p:p + t + 1]), tuple(factors[p:p + t]))
            if mid.is_zero:
                continue
            sign = -1 if sum(f.degree for f in factors[p + t:]) % 2 else 1
            yield (sign, tuple(objs[:p + 1]) + tuple(objs[p + t:]),
                   tuple(factors[:p]) + (mid,) + tuple(factors[p + t:]))


def _hx_residual(A, h, zobjs, zfactors):
    """Difference of the two sides of the functor equation at one tensor.

    Left side: every inner insertion of an operation, fed to the next
    component.  Right side: the top component followed by the target
    differential, plus all two-block compositions.  Returns (residual,
    content) where content reports whether any single term was nonzero;
    the sum may cancel, the individual terms say the identity was real.
    """
    k = len(zfactors)
    X = h.base
    degree = sum(f.degree for f in zfactors) + 2
    terms = [(h.value(nobjs, nfacs), sign)
             for sign, nobjs, nfacs in _apply_inner(A, zobjs, zfactors)]
    terms.append((map_boundary(h.value(zobjs, zfactors), h.d_at(zobjs[0]),
                               h.d_at(zobjs[-1])), -1))
    for i in range(1, k):
        terms.append(_composite(h.value(zobjs[:i + 1], zfactors[:i]),
                                h.value(zobjs[i:], zfactors[i:]), -1))
    return _signed_sum(A.hom(X, zobjs[0]), A.hom(X, zobjs[-1]), degree, terms)


def _signed_sum(smod, tmod, degree, terms):
    """(the sum of the (map, sign) terms, whether any term was nonzero):
    the residual and its content flag, taken before terms cancel."""
    return (map_combination(smod, tmod, degree, terms),
            any(term.matrix for term, _ in terms))


def _first_entry(F):
    name = sorted(F.matrix, key=repr)[0]
    return name, F.matrix[name]


def _residual_run(residual, contents):
    """A tally run over a (residual, content) computation: records the
    content flag and returns the first residual entry, or None."""
    def run():
        diff, content = residual()
        contents.append(content)
        return "residual at %r: %r" % _first_entry(diff) if diff.matrix else None
    return run


def check_hX(A, X, arity_bound=None, samples=40, seed=0):
    """Componentwise functor equation for one represented functor.

    For each arity up to the bound, draws seeded random tensors of hom
    elements and compares both sides of the defining equation as stored
    maps, exactly.  Samples that overflow a declared size bound are
    skipped and counted; the detail line also reports how many
    comparisons had nonzero content.
    """
    h = h_functor(A, X, arity_bound)
    rng = random.Random(seed)
    rep = Report("represented functor at %r in %s" % (X, A.name))
    q = A.quiver

    def cases(k, contents):
        chains = _hom_chains(q, k)
        for _ in range(samples if chains else 0):
            chain = rng.choice(chains)
            zf = tuple(_random_factor(q.hom(chain[i], chain[i + 1]), rng)
                       for i in range(k))
            yield "chain %r" % (chain,), _residual_run(
                lambda: _hx_residual(A, h, chain, zf), contents)

    for k in range(1, h.arity_bound + 1):
        contents = []
        rep.tally("arity %d" % k, cases(k, contents),
                  lambda: "tensors, %d nonzero" % sum(contents),
                  exhaustive=False)
    return rep


def yoneda_components(A, n, k):
    """The (n, k) piece of the contravariant functor data, as a callable.

    The returned function takes (zobjs, zfactors, xobjs, xfactors),
    where zfactors runs along zobjs and each xfactors[i] lies in
    hom(xobjs[i+1], xobjs[i]), read against the arrows.  It returns the
    stored map from the complex at (xobjs[0], zobjs[0]) to the one at
    (xobjs[-1], zobjs[-1]); see the module docstring for the sign.
    """
    if n < 0 or k < 0 or n + k < 1:
        raise ValueError("components need n, k >= 0 with n + k >= 1, got "
                         "(%r, %r)" % (n, k))

    def component(zobjs, zfactors, xobjs, xfactors):
        if len(zfactors) != k or len(zobjs) != k + 1:
            raise ValueError("the (%d, %d) component needs %d z-factors on "
                             "%d objects" % (n, k, k, k + 1))
        if len(xfactors) != n or len(xobjs) != n + 1:
            raise ValueError("the (%d, %d) component needs %d x-factors on "
                             "%d objects" % (n, k, n, n + 1))
        return _y_value(A, tuple(zobjs), tuple(zfactors),
                        tuple(xobjs), tuple(xfactors))

    return component


def _transform_b1_terms(A, hsrc, htgt, value, r, zobjs, zfactors):
    """Boundary of a transformation-shaped family at one z-tensor.

    hsrc and htgt are the represented functors flanking the family,
    value(zobjs, zfactors) gives its stored map at a tensor of elements,
    and r is the family's degree.  Four groups of terms: the top
    component followed by the target differential, the source functor
    composed in from the left, the family composed with the target
    functor on the right (crossing sign r against the tail), and the
    family fed every inner insertion (suffix signs, global parity of r).
    Returns (total, content), content meaning some term was nonzero.
    """
    k = len(zfactors)
    X, W = hsrc.base, htgt.base
    degree = sum(f.degree for f in zfactors) + r + 2
    terms = [(map_boundary(value(zobjs, zfactors), hsrc.d_at(zobjs[0]),
                           htgt.d_at(zobjs[-1])), 1)]
    for i in range(1, k + 1):
        terms.append(_composite(hsrc.value(zobjs[:i + 1], zfactors[:i]),
                                value(zobjs[i:], zfactors[i:])))
    for i in range(0, k):
        cross = r % 2 and sum(f.degree for f in zfactors[i:]) % 2
        terms.append(_composite(value(zobjs[:i + 1], zfactors[:i]),
                                htgt.value(zobjs[i:], zfactors[i:]),
                                -1 if cross else 1))
    rsgn = -1 if r % 2 else 1
    terms.extend((value(nobjs, nfacs), -sign * rsgn)
                 for sign, nobjs, nfacs in _apply_inner(A, zobjs, zfactors))
    return _signed_sum(A.hom(X, zobjs[0]), A.hom(W, zobjs[-1]), degree, terms)


def _y_residual(A, Aop, hsrc, htgt, zobjs, zfactors, xobjs, xfactors):
    """Residual of the functor equation at one (n, k) pair of tensors.

    Left side: the boundary of the family with the x block held fixed,
    plus all two-block splittings of the x block.  Right side: the
    family with one reversed-operation value contracted into the x
    block.  Returns (residual, content); content means some term of
    either side was nonzero before cancellation.
    """
    n, k = len(xfactors), len(zfactors)
    r = sum(f.degree for f in xfactors)

    def value(zo, zf):
        return _y_value(A, zo, zf, xobjs, xfactors)

    lhs, content = _transform_b1_terms(A, hsrc, htgt, value, r,
                                       zobjs, zfactors)
    terms = []
    for p in range(1, n):
        front = sum(f.degree for f in xfactors[:p])
        for i in range(0, k + 1):
            F = _y_value(A, zobjs[:i + 1], zfactors[:i],
                         xobjs[:p + 1], xfactors[:p])
            G = _y_value(A, zobjs[i:], zfactors[i:],
                         xobjs[p:], xfactors[p:])
            cross = front % 2 and sum(f.degree for f in zfactors[i:]) % 2
            terms.append(_composite(F, G, -1 if cross else 1))
    terms.extend((_y_value(A, zobjs, zfactors, nxobjs, nxfacs), -sign)
                 for sign, nxobjs, nxfacs in _apply_inner(Aop, xobjs, xfactors))
    total = map_combination(lhs._smod, lhs._tmod, lhs.degree,
                            [(lhs, 1)] + terms)
    return total, content or any(term.matrix for term, _ in terms)


def check_Y(A, bounds=(3, 3), samples=20, seed=0):
    """Componentwise functor equations for the contravariant family.

    bounds = (n_bound, k_bound): for every 1 <= n <= n_bound and
    0 <= k <= k_bound, seeded random tensors are drawn and the residual
    of the (n, k) equation is compared to zero exactly.  The arrow-side
    operations come from the reversed category; n = 0 is the
    represented functor's own equation, covered by check_hX.
    """
    nb, kb = bounds
    Aop = opposite(A)
    rng = random.Random(seed)
    rep = Report("contravariant family of %s" % A.name)
    q = A.quiver
    functors = {X: RepresentedFunctor(A, X) for X in q.objects}

    def cases(n, xchains, k, contents):
        zchains = _hom_chains(q, k)
        for _ in range(samples if xchains and zchains else 0):
            xc = rng.choice(xchains)
            zc = rng.choice(zchains)
            xf = tuple(_random_factor(q.hom(xc[i], xc[i - 1]), rng)
                       for i in range(1, n + 1))
            zf = tuple(_random_factor(q.hom(zc[i], zc[i + 1]), rng)
                       for i in range(k))
            yield "chains %r / %r" % (xc, zc), _residual_run(
                lambda: _y_residual(A, Aop, functors[xc[0]], functors[xc[-1]],
                                    zc, zf, xc, xf), contents)

    for n in range(1, nb + 1):
        xchains = [tuple(reversed(c)) for c in _hom_chains(q, n)]
        for k in range(0, kb + 1):
            contents = []
            rep.tally("component (%d, %d)" % (n, k),
                      cases(n, xchains, k, contents),
                      lambda: "tensors, %d nonzero" % sum(contents),
                      exhaustive=False)
    return rep


class TruncatedTransComplex:
    """Arity-truncated complex of transformations between two hom functors.

    Components up to the bound are materialized as one free module: at
    each tensor (chain, znames) of bounded_tensors(q, k), k up to the
    bound, every generator (w, t) of the map_module between the hom
    modules at the chain's ends gives the generator (k, chain, znames,
    w, t), the cochain whose component at that z-chain sends the named
    basis tensor to the elementary map w -> t and everything else to
    zero; value_of reads a cochain back through unflatten_map.  The
    complex is the pair (module, differential).  The boundary never
    consults components above the input's index, so its restriction to
    the window is exact and squares to zero on the nose; components
    above the bound are not stored, and the report says untested, not
    passed.
    """

    def __init__(self, A, X, W, arity_bound):
        self.category = A
        self.source = RepresentedFunctor(A, X)
        self.target = RepresentedFunctor(A, W)
        self.arity_bound = arity_bound
        q = A.quiver
        rows, slots = [], []
        for k in range(arity_bound + 1):
            for chain, znames in bounded_tensors(q, k):
                mm = map_module(q.hom(X, chain[0]), q.hom(W, chain[-1]))
                if not mm.names:
                    continue
                mods = [q.hom(chain[i], chain[i + 1]) for i in range(k)]
                zdeg = sum(m.degrees[nm] for m, nm in zip(mods, znames))
                slots.append((k, chain, znames, mods))
                rows.extend(((k, chain, znames, w, t), deg - zdeg - 1)
                            for (w, t), deg in mm.degrees.items())
        self.module = GradedModule(q.ring, rows)
        self._slots = slots
        self.differential = self._boundary_matrix()

    def value_of(self, el, zobjs, zfactors):
        """Stored map of a cochain element at one tensor of elements."""
        q = self.category.quiver
        k, zobjs, mul = len(zfactors), tuple(zobjs), q.ring.mul

        def coords():
            for (k0, chain, znames, w, t), c in el.items():
                if k0 == k and chain == zobjs:
                    for f, nm in zip(zfactors, znames):
                        c = mul(c, f.coeff(nm))
                        if c == 0:
                            break
                    yield (w, t), c

        return unflatten_map(q.hom(self.source.base, zobjs[0]),
                             q.hom(self.target.base, zobjs[-1]),
                             sum(f.degree for f in zfactors) + el.degree + 1,
                             coords())

    def _boundary_matrix(self):
        A, q = self.category, self.category.quiver
        matrix = {}
        for key in self.module.names:
            r = self.module.degrees[key]
            single = self.module.basis_element(key)

            def value(zo, zf, _single=single):
                return self.value_of(_single, zo, zf)

            terms = {}
            for k, chain, znames, mods in self._slots:
                zf = tuple(mods[i].basis_element(znames[i]) for i in range(k))
                val, _ = _transform_b1_terms(A, self.source, self.target,
                                             value, r, chain, zf)
                for w, el in val.matrix.items():
                    accumulate(q.ring, terms, (((k, chain, znames, w, t), c)
                                               for t, c in el.items()))
            matrix[key] = self.module.element(terms, r + 1)
        return ChainMap(self.module, self.module, 1, matrix)

    def boundary(self, el):
        """The restricted differential applied to a cochain element."""
        return self.differential(el)

    def random(self, degree, rng, density=0.4):
        return self.module.random_element(degree, rng, density)

    def check_square(self):
        """Exact square of the restricted boundary, reported per component."""
        rep = Report("truncated transformation complex, bound %d"
                     % self.arity_bound)
        square = self.differential.compose(self.differential)
        for k in range(self.arity_bound + 1):
            rep.tally("boundary squared at component %d" % k, (
                (key, lambda: square.matrix.get(key))
                for key in self.module.names if key[0] == k), "generators")
        rep.add("components above %d" % self.arity_bound, True,
                "untested: outside the stored window")
        return rep

    def __repr__(self):
        return "TruncatedTransComplex(%d generators, bound %d)" % (
            len(self.module.names), self.arity_bound)


def unit_defect_preimage(h, Z):
    """Certify that the unit lands on the identity up to a boundary.

    The defect is the difference between the arity-1 component on the
    distinguished unit at Z and the identity of the complex there; one
    graded.null_homotopy against the differential at Z looks for its
    preimage.  Returns (defect_map, preimage_or_None), the preimage
    flattened into the elementary-map module (map_module); exact solve,
    field coefficients required.
    """
    A = h.category
    F = h.value((Z, Z), (A.units[Z],))
    mod = h.module_at(Z)
    D = map_combination(mod, mod, F.degree,
                        ((F, 1), (ChainMap.identity(mod), -1)))
    H = null_homotopy(D, h.d_at(Z), h.d_at(Z))
    return D, None if H is None else flatten_map(H, map_module(mod, mod))


def opposite_facts(A, cap=4000):
    """Bookkeeping identities tying the arrow reversal to the operations.

    Checks that reversing twice restores every operation on basis
    tensors (up to a deterministic cap per arity), that arity 1 is
    untouched by a single reversal, and that feeding a distinguished
    unit into the reversed binary operation from the right matches
    feeding it into the original from the left with a global minus.
    """
    rep = Report("reversal facts for %s" % A.name)
    Aop = opposite(A)
    back = opposite(Aop)
    for n in sorted(A.ops):
        tensors = list(itertools.islice(bounded_tensors(
            A.quiver, n, A.size_of, A.size_bound), cap + 1))
        rep.tally("double reversal at arity %d" % n, (
            (t, lambda: unless_zero(A.ops[n].on_basis(*t)
                                    .sub(back.ops[n].on_basis(*t))))
            for t in tensors[:cap]), "tensors", len(tensors) <= cap)

    def arrows(law, objects):
        for X in objects:
            for Y in A.quiver.objects:
                for nm in A.hom(X, Y).names:
                    yield (X, Y, nm), lambda: unless_zero(law(X, Y, nm))

    op1, b2 = A.b(1), A.b(2)

    def once(X, Y, nm):
        return op1.on_basis((X, Y), (nm,)).sub(
            Aop.b(1).on_basis((Y, X), (nm,)))

    def unit_law(W, X, nm):
        return unit_then_op(Aop, (X, W), (nm,), 1).add(
            unit_then_op(A, (W, X), (nm,), 0))

    rep.tally("arity 1 under one reversal", arrows(
        once, A.quiver.objects if op1 is not None else ()), "arrows")
    rep.tally("unit against reversal", arrows(
        unit_law, sorted(A.units, key=repr) if b2 is not None else ()),
        "arrows")
    return rep
