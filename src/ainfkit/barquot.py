"""Word categories over a base with a marked subcategory.

A second model of the quotient by a full subcategory keeps the arrows
of the base and adjoins longer composable words whose interior
endpoints run through the marked objects.  The differential is the bar
differential of the base, which only ever consumes interior endpoints
and so preserves the admissible words; an operation of higher arity
concatenates its arguments and applies every base operation over a
window reaching from the first word into the last, consuming all the
seams at once.

The comparison with the tree model goes both ways.  A degree zero
chain map unwinds each word into tree elements, seam by seam, using
the tree model's homotopy.  In the other direction the one-letter
embedding of the base extends over the tree model, with capped trees
routed through a contracting homotopy built from the units.  The two
are inverse on words, and the checks here certify all of it by exact
computation.
"""

import itertools

from .category import AInfCategory
from .functors import (AInfFunctor, check_functor, resolve_at_root,
                       strict_functor)
from .graded import GradedModule, linear_combination
from .homquot import PartialHomotopy
from .quiver import (BoundError, GradedQuiver, MultiOp, QuiverMap,
                     apply_stage, bounded_tensors, evaluate, insert,
                     tensor_degree)
from .report import Report, unless_zero
from .trees import LEAF, embed_leaf


def _embed_word(squiver, pair, el):
    terms = {(pair, (nm,)): c for nm, c in el.items()}
    return squiver.hom(*pair).element(terms, el.degree)


def bar_quotient(C, bobjs, word_bound=3, name=None):
    """Word category over C with interior endpoints in the subcategory.

    Basis names are pairs (objects, arrow names) describing a composable
    word of length 1 up to word_bound whose interior objects all lie in
    bobjs; one-letter words are the arrows of C.  Each hom lists its
    words by length, then in the order of the quiver.bounded_tensors
    walk through bobjs, which steps only onto marked objects before a
    word's last letter and so yields exactly the words of each length,
    in the order an unrestricted walk would keep them.  The differential
    applies every operation of C to every consecutive window of a word.
    An operation of arity two or more concatenates its arguments and
    applies the windows that start inside the first word and end inside
    the last, so that every seam is consumed; it raises BoundError when
    a live window would leave a word longer than the bound.
    """
    gen = C.quiver
    ring = gen.ring
    bobjs = frozenset(bobjs)
    for X in bobjs:
        if X not in gen.objects:
            raise ValueError("subcategory object %r unknown" % (X,))
    if word_bound < 1:
        raise ValueError("the word bound must be at least 1, got %r"
                         % (word_bound,))

    rows = {}
    for n in range(1, word_bound + 1):
        for gobjs, gnames in bounded_tensors(gen, n, through=bobjs):
            rows.setdefault((gobjs[0], gobjs[-1]), []).append((gobjs, gnames))
    homs = {pair: GradedModule(ring, [(w, tensor_degree(gen, *w))
                                      for w in words])
            for pair, words in rows.items()}
    squiver = GradedQuiver(ring, list(gen.objects), homs)

    def window_rule(objs, names):
        gobjs = names[0][0]
        gnames = names[0][1]
        for w in names[1:]:
            gobjs = gobjs + w[0][1:]
            gnames = gnames + w[1]
        total = len(gnames)
        k = len(names[0][1])
        last = len(names[-1][1])
        pair = (objs[0], objs[-1])
        degree = tensor_degree(gen, gobjs, gnames) + 1
        base = {(gobjs, gnames): ring.one}
        terms = {}
        for q in range(k):
            for t in range(last):
                m = total - q - t
                if m < 1:
                    continue
                op = C.b(m)
                if op is None:
                    continue
                if q + 1 + t > word_bound:
                    raise BoundError("a window leaves a %d-letter word, "
                                     "bound is %d" % (q + 1 + t, word_bound))
                apply_stage(insert(op, q, t), base, terms)
        return squiver.hom(*pair).element(terms, degree)

    ops = {}
    for n in range(1, max(1, C.max_arity) + 1):
        ops[n] = MultiOp(squiver, squiver, n, 1, rule=window_rule,
                         name="word_b%d" % n)

    units = {X: _embed_word(squiver, (X, X), u) for X, u in C.units.items()}
    A = AInfCategory(squiver, ops, max(1, C.max_arity), units=units or None,
                     size_of=lambda X, Y, nm: len(nm[1]),
                     size_bound=word_bound, name=name or (C.name + ".words"))
    A.base = C
    A.bobjs = bobjs
    A.word_bound = word_bound
    return A


def word_embedding(D, name=None):
    """Strict functor from the base sending an arrow to its one-letter word.

    On one-letter words the window of an operation is forced to cover
    the whole concatenation, so the embedded operations agree with the
    base ones on the nose and a single component suffices.
    """
    C = D.base
    images = {}
    for pair in C.quiver.pairs():
        mod = C.quiver.hom(*pair)
        images[pair] = {nm: _embed_word(D.quiver, pair,
                                        mod.basis_element(nm))
                        for nm in mod.names}
    return strict_functor(C, D, lambda X: X, images, name=name or "words")


def unit_contraction(D):
    """Contracting homotopies on the hom complexes touching the marked set.

    For a pair whose source is marked, a word is contracted by composing
    the two-letter word of units onto its front, which grows it by one
    unit letter up to sign.  Otherwise the target is marked and the
    unit is appended as a last letter, with no sign.  The base units
    must satisfy the strict laws for these to contract; check_contraction
    certifies that.  Values are stored for words short enough that one
    extra letter stays within the bound, and apply raises BoundError
    beyond that.
    """
    C = D.base
    ring = C.quiver.ring
    if D.word_bound < 2:
        raise ValueError("contractions need room for two-letter words")
    b2 = D.b(2)
    doubled = {}
    for X in D.bobjs:
        if X not in C.units:
            continue
        u = C.units[X]
        doubled[X] = D.hom(X, X).element(
            {((X, X, X), (n1, n2)): ring.mul(c1, c2)
             for n1, c1 in u.items() for n2, c2 in u.items()}, -2)
    matrices = {}
    # every pair with a marked end, an empty hom too: its value is zero
    for X, Y in itertools.product(D.quiver.objects, repeat=2):
        left = X in doubled
        right = Y in D.bobjs and Y in C.units
        if not (left or right):
            continue
        mod = D.hom(X, Y)
        mat = {}
        for nm in mod.names:
            if len(nm[1]) + 1 > D.word_bound:
                continue
            if left:
                mat[nm] = evaluate(b2, (X, X, Y),
                                   (doubled[X], mod.basis_element(nm)))
            else:
                gobjs, gnames = nm
                mat[nm] = mod.element(
                    {(gobjs + (Y,), gnames + (un,)): uc
                     for un, uc in C.units[Y].items()},
                    mod.degree(nm) - 1)
        matrices[(X, Y)] = mat
    return PartialHomotopy(D, matrices)


def check_contraction(D, chi):
    """The contracting identity on every pair chi was given, at every word.

    For each word x short enough to contract, the boundary of the
    contraction plus the contraction of the boundary (chi's commutator
    with the differential) must return x; a word whose contraction
    leaves the bound is skipped.
    """
    rep = Report("unit contraction for %s" % D.name)
    b1 = D.b(1)

    def words():
        for X, Y in sorted(chi.pairs, key=repr):
            for nm in D.hom(X, Y).names:
                def run():
                    x = D.hom(X, Y).basis_element(nm)
                    return unless_zero(chi.commutator(X, Y, x, b1, b1).sub(x))
                yield (nm, (X, Y)), run

    return rep.tally("contracting identity", words(), "words")


def comparison_map(D, Q):
    """Degree zero chain map from the word model into the tree model.

    A one-letter word becomes a trivial tree.  A longer word is unwound
    from the right: for every seam, map the tail beyond it, cap the
    result with the homotopy, and feed the head letters together with
    the capped tail to one tree operation; the sum over seams carries
    an overall minus.
    """
    C = D.base
    if Q.base is not C:
        raise ValueError("the two quotients must share a base")
    if frozenset(Q.bobjs) != D.bobjs:
        raise ValueError("the marked subcategories differ")
    if Q.leaf_bound < D.word_bound:
        raise ValueError("the tree bound is too small")
    gen = C.quiver
    memo = {}

    def value(nm):
        if nm in memo:
            return memo[nm]
        gobjs, gnames = nm
        n = len(gnames)
        X, Y = gobjs[0], gobjs[-1]
        if n == 1:
            out = embed_leaf(Q.quiver, (X, Y),
                             gen.hom(X, Y).basis_element(gnames[0]))
        else:
            seams = []
            for k in range(1, n):
                tail = value((gobjs[k:], gnames[k:]))
                capped = evaluate(Q.homotopy, (gobjs[k], Y), (tail,))
                heads = tuple(
                    embed_leaf(Q.quiver, (gobjs[i], gobjs[i + 1]),
                               gen.hom(gobjs[i], gobjs[i + 1])
                               .basis_element(gnames[i]))
                    for i in range(k))
                seams.append((evaluate(Q.b(k + 1), gobjs[:k + 1] + (Y,),
                                       heads + (capped,)), -1))
            out = linear_combination(
                Q.hom(X, Y), tensor_degree(gen, gobjs, gnames), seams)
        memo[nm] = out
        return out

    return QuiverMap(D.quiver, Q.quiver, 0, {
        pair: {nm: value(nm) for nm in D.quiver.hom(*pair).names}
        for pair in D.quiver.pairs()})


def extend_functor(f, Q, chi, name=None):
    """Extend a functor on the base category over the tree quotient.

    f goes from Q's base into any category; chi, a quiver map such as
    unit_contraction's, supplies contracting homotopies on the touched
    target homs.  The higher components of the extension extend f's by
    zero: f's own components on trivial tensors, zero on any other.  The
    arrow component is then forced: trivial trees go through f, a capped
    tree goes through the contraction, and a grafted tree is resolved by
    the functor equation for its root, whose grafting is invertible.
    """
    C, A = f.source, f.target
    if Q.base is not C:
        raise ValueError("the quotient does not sit over the functor's source")
    omap = f.obj_map
    f1 = f.component(1)
    if f1 is None:
        raise ValueError("the functor needs an arrow component")

    def higher(m, robjs, rnames):
        if all(nm[0] == LEAF for nm in rnames):
            return f.component(m).on_basis(tuple(robjs),
                                           tuple(nm[2][0] for nm in rnames))
        degree = tensor_degree(Q.quiver, robjs, rnames)
        return A.hom(omap(robjs[0]), omap(robjs[-1])).zero(degree)

    def arrow(objs, names):
        t, gobjs, gnames = nm = names[0]
        if t == LEAF:
            return f1.on_basis(objs, gnames)
        if len(t) == 1:
            inner = fext.component(1).on_basis(objs, ((t[0], gobjs, gnames),))
            return chi.apply(omap(objs[0]), omap(objs[1]), inner)
        return resolve_at_root(fext, nm)

    tag = name or (f.name + ".ext")
    comps = {1: MultiOp(Q.quiver, A.quiver, 1, 0, rule=arrow,
                        lmap=omap, rmap=omap, name=tag + "1")}
    for m in sorted(m for m in f.components if m > 1):
        comps[m] = MultiOp(Q.quiver, A.quiver, m, 0,
                           rule=lambda objs, names, m=m: higher(
                               m, tuple(objs), tuple(names)),
                           lmap=omap, rmap=omap, name="%s%d" % (tag, m))
    fext = AInfFunctor(Q, A, omap, comps, name=tag)
    return fext


def check_comparison(D, Q, samples=30, seed=0):
    """Certify the word and tree models as two faces of one quotient.

    Builds the comparison chain map, the unit contraction, and the
    extension of the one-letter embedding over the tree model, then
    verifies exactly: the comparison commutes with the differentials on
    every word, the contraction contracts, the extension satisfies the
    functor equation on sampled tensors, its arrow component turns the
    tree homotopy into the contraction off unary roots, and following
    the comparison with that component returns every word.
    """
    rep = Report("quotient comparison for %s" % D.name)
    psi = comparison_map(D, Q)

    def words(check):
        for X, Y in D.quiver.pairs():
            for nm in D.hom(X, Y).names:
                yield nm, lambda: check(X, Y, D.hom(X, Y).basis_element(nm))

    rep.tally("comparison is a chain map", words(lambda X, Y, x: unless_zero(
        psi.commutator(X, Y, x, D.b(1), Q.b(1)))), "words")

    chi = unit_contraction(D)
    rep.merge(check_contraction(D, chi))
    fext = extend_functor(word_embedding(D), Q, chi)
    rep.merge(check_functor(fext, samples=samples, seed=seed))
    f1 = fext.component(1)

    def trees():
        for X, Y in Q.quiver.pairs():
            for nm in Q.hom(X, Y).names:
                def run():
                    x = Q.hom(X, Y).basis_element(nm)
                    capped = evaluate(Q.homotopy, (X, Y), (x,))
                    return unless_zero(evaluate(f1, (X, Y), (capped,)).sub(
                        chi.apply(X, Y, evaluate(f1, (X, Y), (x,)))))
                # on a unary root h o h = 0, which chi o chi need not match
                fresh = (X in Q.bobjs or Y in Q.bobjs) and len(nm[0]) != 1
                yield nm, run if fresh else None

    rep.tally("homotopy becomes the contraction", trees(), "trees")

    def round_trip(X, Y, x):
        return unless_zero(evaluate(f1, (X, Y), (psi.apply(X, Y, x),)).sub(x))

    return rep.tally("words return to themselves", words(round_trip), "words")
