"""Word categories over a marked subcategory: basis census, window
operations, the contraction, and the comparison with the tree model."""

import pytest

from ainfkit.barquot import (bar_quotient, check_comparison,
                             check_contraction, comparison_map,
                             extend_functor, unit_contraction,
                             word_embedding)
from ainfkit.category import (check_stasheff, check_strict_unit,
                              complexes_category, dg_to_ainf)
from ainfkit.freecat import LEAF
from ainfkit.graded import GradedModule, Ring
from ainfkit.functors import AInfFunctor, check_functor, resolve_at_root
from ainfkit.homquot import homotopy_quotient
from ainfkit.quiver import (BoundError, bounded_tensors, evaluate, insert,
                            run_stages, state_element)
from test_category import QQ, arrow_with_differential, augmented_point, path3

ONE = (LEAF,)

_CACHE = {}


def models(which, bobj, bound=3):
    key = (which, bobj, bound)
    if key not in _CACHE:
        C = path3() if which == "path3" else arrow_with_differential()
        D = bar_quotient(C, frozenset([bobj]), bound)
        Q = homotopy_quotient(C, frozenset([bobj]), bound)
        _CACHE[key] = (C, D, Q)
    return _CACHE[key]


def word(D, gobjs, gnames):
    return D.hom(gobjs[0], gobjs[-1]).basis_element((gobjs, gnames))


def test_word_census():
    C, D, Q = models("path3", 1)
    assert set(D.hom(0, 2).names) == {
        ((0, 2), ("fg",)),
        ((0, 1, 2), ("f", "g")),
        ((0, 1, 1, 2), ("f", "e1", "g")),
    }
    assert set(D.hom(0, 1).names) == {
        ((0, 1), ("f",)),
        ((0, 1, 1), ("f", "e1")),
        ((0, 1, 1, 1), ("f", "e1", "e1")),
    }
    assert ((0, 0, 1), ("e0", "f")) not in D.hom(0, 1).names
    assert set(D.hom(0, 0).names) == {((0, 0), ("e0",))}
    assert sum(len(D.hom(X, Y).names) for X, Y in D.quiver.pairs()) == 14
    assert D.quiver.degree(0, 2, ((0, 1, 1, 2), ("f", "e1", "g"))) == -3
    assert D.quiver.degree(0, 2, ((0, 2), ("fg",))) == -1


def two_small_complexes():
    """M = (a -> b) and N = (c) over F_7: nine arrows, few enough to
    list the words of four letters with every object marked."""
    return complexes_category(Ring("Fp", 7), {
        "M": ([("a", 0), ("b", 1)], {"a": {"b": 3}}),
        "N": ([("c", 0)], {}),
    })


def level_walk_words(C, bobjs, word_bound):
    """The words of bar_quotient per end pair, grown one letter at a time
    from the words ending at a marked object, each level in order."""
    gen = C.quiver
    rows = {}
    level = [((X, Y), (nm,)) for X, Y in gen.pairs() for nm in gen.hom(X, Y).names]
    for _ in range(word_bound):
        for gobjs, gnames in level:
            rows.setdefault((gobjs[0], gobjs[-1]), []).append((gobjs, gnames))
        level = [(gobjs + (Y,), gnames + (nm,))
                 for gobjs, gnames in level if gobjs[-1] in bobjs
                 for X, Y in gen.pairs() if X == gobjs[-1]
                 for nm in gen.hom(X, Y).names]
    return rows


@pytest.mark.parametrize("bound", [1, 2, 3, 4])
@pytest.mark.parametrize("marked", ["none", "first", "last", "all"])
@pytest.mark.parametrize("make", [path3, arrow_with_differential,
                                  augmented_point, two_small_complexes])
def test_words_keep_the_level_walk_order(make, marked, bound):
    C = make()
    objects = C.quiver.objects
    bobjs = {"none": (), "first": objects[:1], "last": objects[-1:],
             "all": objects}[marked]
    D = bar_quotient(C, frozenset(bobjs), bound)
    want = level_walk_words(C, frozenset(bobjs), bound)
    assert {pair: list(D.hom(*pair).names) for pair in D.quiver.pairs()} == want


def three_complexes():
    """M = (a, b -> c), N = (x -> y) and P = (p) over F_7: every hom is
    nonzero, 36 arrows in all."""
    return complexes_category(Ring("Fp", 7), {
        "M": ([("a", 0), ("b", 0), ("c", 1)], {"a": {"c": 1}}),
        "N": ([("x", 0), ("y", 1)], {"x": {"y": 2}}),
        "P": ([("p", 0)], {}),
    })


@pytest.mark.parametrize("marked", [(), ("P",), ("M",)])
def test_walk_through_marked_objects_yields_the_kept_words(marked):
    # the walk steps onto a marked object only, so it yields exactly the
    # tensors an unrestricted walk would keep, in its order
    C = three_complexes()
    gen = C.quiver
    marked = frozenset(marked)
    for n in range(1, 4):
        everything = list(bounded_tensors(gen, n))
        kept = [t for t in everything
                if all(X in marked for X in t[0][1:-1])]
        assert list(bounded_tensors(gen, n, through=marked)) == kept
        if n > 1:
            assert len(kept) < len(everything)
    D = bar_quotient(C, marked, 3)
    assert ({pair: list(D.hom(*pair).names) for pair in D.quiver.pairs()}
            == level_walk_words(C, marked, 3))


def test_differential_windows():
    C, D, Q = models("path3", 1)
    got = evaluate(D.b(1), (0, 2), (word(D, (0, 1, 2), ("f", "g")),))
    assert got == word(D, (0, 2), ("fg",))
    got = evaluate(D.b(1), (0, 2), (word(D, (0, 1, 1, 2), ("f", "e1", "g")),))
    assert got.is_zero


def test_differential_is_the_codifferential_on_a_two_letter_word():
    C, D, Q = models("arrow", 1)
    x = word(D, (0, 1, 1), ("u", "e1"))
    du = evaluate(C.b(1), (0, 1), (C.hom(0, 1).basis_element("u"),))
    terms = {((0, 1, 1), (vn, "e1")): -c for vn, c in du.items()}
    terms[((0, 1), ("u",))] = C.quiver.ring.one
    expected = D.hom(0, 1).element(terms, x.degree + 1)
    assert evaluate(D.b(1), (0, 1), (x,)) == expected


def test_unwinding_summand_count():
    """The seam recursion branches once per seam, so expanding it fully
    doubles the number of summands with every extra letter."""
    def count(n):
        return 1 if n == 1 else sum(count(n - k) for k in range(1, n))
    assert [count(n) for n in range(2, 8)] == [2 ** (n - 2)
                                               for n in range(2, 8)]


def test_differential_squares_to_zero_on_every_word():
    for which, bobj in [("path3", 1), ("arrow", 0), ("arrow", 1)]:
        C, D, Q = models(which, bobj)
        for X, Y in D.quiver.pairs():
            for nm in D.hom(X, Y).names:
                x = D.hom(X, Y).basis_element(nm)
                dx = evaluate(D.b(1), (X, Y), (x,))
                assert evaluate(D.b(1), (X, Y), (dx,)).is_zero, nm


def test_operations_join_words_across_the_seam():
    C, D, Q = models("path3", 1)
    j = word_embedding(D)
    lhs = evaluate(D.b(2), (0, 1, 2),
                   (word(D, (0, 1), ("f",)), word(D, (1, 2), ("g",))))
    cval = evaluate(C.b(2), (0, 1, 2), (C.hom(0, 1).basis_element("f"),
                                        C.hom(1, 2).basis_element("g")))
    assert lhs == evaluate(j.component(1), (0, 2), (cval,))
    got = evaluate(D.b(2), (0, 1, 2),
                   (word(D, (0, 1, 1), ("f", "e1")), word(D, (1, 2), ("g",))))
    assert got == word(D, (0, 1, 2), ("f", "g"))
    assert D.b(3) is None


def test_window_overflow_raises():
    C, D, Q = models("path3", 1)
    with pytest.raises(BoundError):
        evaluate(D.b(2), (0, 1, 2),
                 (word(D, (0, 1, 1, 1), ("f", "e1", "e1")),
                  word(D, (1, 1, 2), ("e1", "g"))))


def test_stasheff_and_strict_units():
    for which, bobj in [("path3", 1), ("arrow", 0)]:
        C, D, Q = models(which, bobj)
        rep = check_stasheff(D)
        assert rep.ok, rep.text()
        rep = check_strict_unit(D)
        assert rep.ok, rep.text()


def test_embedding_is_a_strict_functor():
    for which, bobj in [("path3", 1), ("arrow", 1)]:
        C, D, Q = models(which, bobj)
        j = word_embedding(D)
        rep = check_functor(j)
        assert rep.ok, rep.text()


def test_contraction_values_and_identity():
    C, D, Q = models("path3", 1)
    chi = unit_contraction(D)
    assert chi.apply(1, 2, word(D, (1, 2), ("g",))) == \
        word(D, (1, 1, 2), ("e1", "g"))
    with pytest.raises(BoundError):
        chi.apply(1, 2, word(D, (1, 1, 1, 2), ("e1", "e1", "g")))
    with pytest.raises(ValueError):
        chi.apply(0, 2, word(D, (0, 2), ("fg",)))
    for which, bobj in [("path3", 1), ("arrow", 0), ("arrow", 1)]:
        C, D, Q = models(which, bobj)
        rep = check_contraction(D, unit_contraction(D))
        assert rep.ok, rep.text()


def test_comparison_embeds_letters_and_is_a_chain_map():
    for which, bobj in [("path3", 1), ("arrow", 0), ("arrow", 1)]:
        C, D, Q = models(which, bobj)
        psi = comparison_map(D, Q)
        for X, Y in C.quiver.pairs():
            for nm in C.quiver.hom(X, Y).names:
                got = psi.apply(X, Y, word(D, (X, Y), (nm,)))
                assert got == Q.hom(X, Y).basis_element((LEAF, (X, Y), (nm,)))
        assert psi.is_chain(D.b(1), Q.b(1))


def test_comparison_closed_forms():
    for which, bobj in [("path3", 1), ("arrow", 1)]:
        C, D, Q = models(which, bobj)
        psi = comparison_map(D, Q)
        H = Q.homotopy
        for X, Y in D.quiver.pairs():
            for nm in D.hom(X, Y).names:
                gobjs, gnames = nm
                deg = D.quiver.degree(X, Y, nm)
                trivs = tuple((LEAF, (gobjs[i], gobjs[i + 1]), (gnames[i],))
                              for i in range(len(gnames)))
                base = {(gobjs, trivs): Q.quiver.ring.one}
                if len(gnames) == 2:
                    state = run_stages([insert(H, 1, 0),
                                        insert(Q.b(2), 0, 0)], base)
                    closed = state_element(Q.quiver, state, (X, Y),
                                           deg).scale(-1)
                elif len(gnames) == 3:
                    first = run_stages([insert(H, 2, 0), insert(Q.b(2), 1, 0),
                                        insert(H, 1, 0), insert(Q.b(2), 0, 0)],
                                       base)
                    second = run_stages([insert(H, 2, 0),
                                         insert(Q.b(3), 0, 0)], base)
                    closed = state_element(Q.quiver, first, (X, Y), deg).sub(
                        state_element(Q.quiver, second, (X, Y), deg))
                else:
                    continue
                assert closed == psi.apply(X, Y, D.hom(X, Y).basis_element(nm)), nm


def test_extension_values():
    C, D, Q = models("path3", 1)
    f = extend_functor(word_embedding(D), Q, unit_contraction(D))
    f1 = f.component(1)
    assert f1.on_basis((0, 2), ((LEAF, (0, 2), ("fg",)),)) == \
        word(D, (0, 2), ("fg",))
    assert f1.on_basis((1, 2), ((ONE, (1, 2), ("g",)),)) == \
        word(D, (1, 1, 2), ("e1", "g"))
    assert f1.on_basis((0, 2), (((LEAF, ONE), (0, 1, 2), ("f", "g")),)) == \
        word(D, (0, 1, 2), ("f", "g")).scale(-1)


def test_resolve_at_root_refuses_unary_roots():
    # a unary root is the homotopy, not an operation, so the equation at
    # the root does not hold the arrow component's value there
    C, D, Q = models("path3", 1)
    f = extend_functor(word_embedding(D), Q, unit_contraction(D))
    unary = [nm for X, Y in Q.quiver.pairs() for nm in Q.hom(X, Y).names
             if len(nm[0]) == 1]
    assert unary
    for nm in unary:
        with pytest.raises(ValueError, match="unary-rooted name"):
            resolve_at_root(f, nm)


def test_extension_is_a_functor():
    for which, bobj in [("path3", 1), ("arrow", 0), ("arrow", 1)]:
        C, D, Q = models(which, bobj)
        f = extend_functor(word_embedding(D), Q, unit_contraction(D))
        rep = check_functor(f, samples=40, seed=1)
        assert rep.ok, rep.text()


def test_round_trip_bundle():
    for which, bobj in [("path3", 1), ("arrow", 0), ("arrow", 1)]:
        C, D, Q = models(which, bobj)
        rep = check_comparison(D, Q)
        assert rep.ok, rep.text()


def path3z():
    """path3 with f.g = 0: the hom (0, 2) is empty."""
    homs = {(X, X): GradedModule(QQ, [("e%d" % X, 0)]) for X in range(3)}
    homs[(0, 1)] = GradedModule(QQ, [("f", 0)])
    homs[(1, 2)] = GradedModule(QQ, [("g", 0)])
    m2 = {(X, X, X): {("e%d" % X,) * 2: homs[(X, X)].basis_element("e%d" % X)}
          for X in range(3)}
    for X, Y, nm in ((0, 1, "f"), (1, 2, "g")):
        el = homs[(X, Y)].basis_element(nm)
        m2[(X, X, Y)] = {("e%d" % X, nm): el}
        m2[(X, Y, Y)] = {(nm, "e%d" % Y): el}
    return dg_to_ainf(homs, {}, m2, units={X: "e%d" % X for X in range(3)},
                      name="path3z")


@pytest.mark.parametrize("bobj", [0, 2])
@pytest.mark.parametrize("bound", [3, 4])
def test_comparison_with_an_empty_marked_hom(bobj, bound):
    # marking an end of the empty hom (0, 2): the contraction holds the
    # zero value there, and every line of the comparison passes
    C = path3z()
    D = bar_quotient(C, {bobj}, bound)
    chi = unit_contraction(D)
    assert (0, 2) in chi.pairs and chi.apply(0, 2, D.hom(0, 2).zero(-1)).is_zero
    rep = check_comparison(D, homotopy_quotient(C, {bobj}, bound))
    assert rep.ok, rep.text()


def test_tampered_comparison_fails_the_chain_test():
    C, D, Q = models("path3", 1)
    psi = comparison_map(D, Q)
    assert psi.is_chain(D.b(1), Q.b(1))
    nm = ((0, 1, 2), ("f", "g"))
    psi.components[(0, 2)][nm] = psi.components[(0, 2)][nm].scale(2)
    assert not psi.is_chain(D.b(1), Q.b(1))


def _validation_cases():
    C, D, Q = models("path3", 1)
    _, _, Qa = models("arrow", 1)
    Q0 = homotopy_quotient(C, {0}, 3)
    Q2 = homotopy_quotient(C, {1}, 2)
    j = word_embedding(D)
    return {
        "unknown object": (lambda: bar_quotient(C, {7}), "unknown"),
        "word bound": (lambda: bar_quotient(C, {1}, 0),
                       "word bound must be at least 1"),
        "contraction bound": (lambda: unit_contraction(bar_quotient(C, {1}, 1)),
                              "two-letter words"),
        "comparison base": (lambda: comparison_map(D, Qa), "share a base"),
        "comparison marked": (lambda: comparison_map(D, Q0),
                              "marked subcategories differ"),
        "comparison bound": (lambda: comparison_map(D, Q2), "too small"),
        "extension base": (lambda: extend_functor(j, Qa, unit_contraction(D)),
                           "does not sit over"),
        "extension arrows": (lambda: extend_functor(
            AInfFunctor(C, D, lambda X: X, {}), Q, unit_contraction(D)),
            "arrow component"),
        "contraction pair": (lambda: unit_contraction(D).apply(
            0, 2, D.hom(0, 2).zero(-1)), "neither endpoint"),
    }


@pytest.mark.parametrize("case", [
    "unknown object", "word bound", "contraction bound", "comparison base",
    "comparison marked", "comparison bound", "extension base",
    "extension arrows", "contraction pair"])
def test_barquot_validation_raises(case):
    call, message = _validation_cases()[case]
    with pytest.raises(ValueError, match=message):
        call()
