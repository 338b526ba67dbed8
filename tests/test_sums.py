"""The defining sums against their per-term forms.

stasheff_defect, the tree b1 and the functor equation each sum
outer o (1^a tensor b_m tensor 1^c) terms through one shared state per
outer arity (quiver.insertion_sum).  The oracles below are the per-term
forms they replaced: one two-stage run, one Element and one entry of a
linear_combination per term.

The block sums (component blocks fed into one operation, and the
insertion sum of a chain of coderivations) are enumerated in the
library by one placement walk, functors._placements.  The oracles here
enumerate them on their own: oracle_functor_blocks splits an arity
into component arities, and oracle_theta splits the inputs into
2n + 1 segments, one per coderivation and one per functor around them,
and takes the product of the functor blocks of each segment.
_chain_into keeps its placements as cached plans; fresh_chain_into is
the sum without them, one fresh walk and one new Stage per placement.
"""

import itertools
import random

import pytest

from ainfkit.barquot import (bar_quotient, extend_functor, unit_contraction,
                             word_embedding)
from ainfkit import functors
from ainfkit.category import dg_to_ainf, stasheff_defect
from ainfkit.freecat import check_factorizes, structure_relations
from ainfkit.freecat import extend_functor as free_extension
from ainfkit.functors import (AInfFunctor, Bn, Coderivation, _chain_into,
                              _placements, functor_defect, identity_functor,
                              random_coderivation, theta_value)
from ainfkit.graded import GradedModule, Ring, linear_combination
from ainfkit.homquot import homotopy_quotient
from ainfkit.quiver import (BoundError, MultiOp, Stage, apply_stage,
                            bounded_tensors, combine_ops, insert, run_stages,
                            state_element)
from ainfkit.trees import LEAF, root_split
from test_barquot import models
from test_category import path3
from test_freecat import free_over, identity_images, random_binary_extension
from test_homquot import within_bound

F7 = Ring("Fp", 7)
MODELS = [("path3", 1), ("arrow", 1)]


def oracle_stasheff(A, k, objs, names):
    q = A.quiver
    objs, names = tuple(objs), tuple(names)
    base = {(objs, names): q.ring.one}
    deg = sum(q.degree(objs[i], objs[i + 1], names[i]) for i in range(k)) + 2
    pair = (objs[0], objs[-1])
    parts = []
    for a in range(k):
        for m in range(1, k - a + 1):
            c = k - a - m
            inner, outer = A.b(m), A.b(a + 1 + c)
            if inner is None or outer is None:
                continue
            state = run_stages([insert(inner, a, c), insert(outer, 0, 0)], base)
            parts.append((state_element(q, state, pair, deg), 1))
    return linear_combination(q.hom(*pair), deg, parts)


def oracle_tree_b1(D, X, Y, label):
    """b1 on a grafted name: minus eps times the insertions at its root
    factors other than b1 of the whole."""
    k, chain, fnames, eps = root_split(D.base.quiver, label)
    q = D.quiver
    base = {(chain, fnames): q.ring.one}
    degree = q.degree(X, Y, label) + 1
    parts = []
    for a in range(k):
        for m in range(1, k - a + 1):
            c = k - a - m
            if a or c:
                state = run_stages([insert(D.b(m), a, c),
                                    insert(D.b(a + 1 + c), 0, 0)], base)
                parts.append((state_element(q, state, (X, Y), degree), -eps))
    return linear_combination(q.hom(X, Y), degree, parts)


def oracle_functor_blocks(f, a):
    """Tuples of components of f whose arities sum to a (each at least 1)."""
    if a == 0:
        yield ()
        return
    for i in range(1, a + 1):
        op = f.components.get(i)
        if op is None:
            continue
        for rest in oracle_functor_blocks(f, a - i):
            yield (op,) + rest


def compositions(total, parts):
    """All tuples of the given length of nonnegative integers with that sum."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def oracle_theta(rs, k, objs, names):
    """theta_value by segments: functor blocks, then rs[0] (an element at
    arity 0), then functor blocks, ...; one run per placement."""
    chain = [rs[0].source] + [r.target for r in rs]
    A, B = chain[0].source, chain[0].target
    n = len(rs)
    base = {(tuple(objs), tuple(names)): A.quiver.ring.one}
    degree = sum(A.quiver.degree(objs[i], objs[i + 1], names[i])
                 for i in range(k)) + sum(r.degree for r in rs) + 1
    pair = (chain[0].obj_map(objs[0]), chain[-1].obj_map(objs[-1]))
    parts = []
    for split in compositions(k, 2 * n + 1):
        fas, ps = split[0::2], split[1::2]
        mids, pos = [], 0
        for i in range(n):
            pos += fas[i]
            if ps[i] == 0:
                X = objs[pos]
                mids.append(("el", rs[i].component0(X),
                             (chain[i].obj_map(X), chain[i + 1].obj_map(X))))
            else:
                mids.append(("op", rs[i].component(ps[i])))
            pos += ps[i]
        if any(m[1] is None for m in mids):
            continue
        per = [list(oracle_functor_blocks(chain[i], fas[i]))
               for i in range(n + 1)]
        for fblocks in itertools.product(*per):
            op = B.b(sum(map(len, fblocks)) + n)
            if op is None:
                continue
            blocks = []
            for i in range(n):
                blocks += [("op", b) for b in fblocks[i]] + [mids[i]]
            blocks += [("op", b) for b in fblocks[n]]
            state = run_stages([Stage(A.quiver, blocks), insert(op, 0, 0)],
                               base)
            parts.append((state_element(B.quiver, state, pair, degree), 1))
    return linear_combination(B.quiver.hom(*pair), degree, parts)


def oracle_blocks_into(f, outer, k, base, target, pair, degree, sign=1):
    for blocks in oracle_functor_blocks(f, k):
        op = outer(len(blocks))
        if op is not None:
            st = Stage(f.source.quiver, [("op", b) for b in blocks])
            state = run_stages([st, insert(op, 0, 0)], base)
            yield state_element(target, state, pair, degree), sign


def oracle_inner_ops(A, component, k, base, target, pair, degree, sign=1,
                     root=True):
    for m in range(1 if root else 2, k + 1):
        comp, bq = component(m), A.b(k - m + 1)
        if comp is None or bq is None:
            continue
        for a in range(m):
            state = run_stages([insert(bq, a, m - 1 - a), insert(comp, 0, 0)],
                               base)
            yield state_element(target, state, pair, degree), sign


def oracle_functor_defect(f, k, objs, names):
    A, B = f.source, f.target
    qa = A.quiver
    base = {(tuple(objs), tuple(names)): qa.ring.one}
    degree = sum(qa.degree(objs[i], objs[i + 1], names[i]) for i in range(k)) + 1
    pair = (f.obj_map(objs[0]), f.obj_map(objs[-1]))
    return linear_combination(B.quiver.hom(*pair), degree, list(
        oracle_blocks_into(f, B.b, k, base, B.quiver, pair, degree))
        + list(oracle_inner_ops(A, f.component, k, base, B.quiver, pair,
                                degree, -1)))


def oracle_resolve_at_root(f, label):
    A, B = f.source, f.target
    k, chain, fnames, eps = root_split(A.base.quiver, label)
    base = {(chain, fnames): A.quiver.ring.one}
    pair = (f.obj_map(chain[0]), f.obj_map(chain[-1]))
    degree = A.quiver.degree(chain[0], chain[-1], label)
    return linear_combination(B.quiver.hom(*pair), degree, list(
        oracle_blocks_into(f, B.b, k, base, B.quiver, pair, degree, eps))
        + list(oracle_inner_ops(A, f.component, k, base, B.quiver, pair,
                                degree, -eps, root=False)))


def fresh_chain_into(chain, rs, outer, base):
    """_chain_into without its plans: a fresh placement walk, one new
    Stage per placement, summed per block count and fed into outer."""
    [(objs, _)] = base
    states = {}
    for blocks in _placements(chain, rs, objs):
        if outer(len(blocks)) is not None:
            apply_stage(Stage(chain[0].source.quiver, blocks), base,
                        states.setdefault(len(blocks), {}))
    out = {}
    for n, state in states.items():
        apply_stage(insert(outer(n), 0, 0), state, out)
    return out


def plans_agree(chain, rs, outer, cases):
    """The cached sum equals the fresh one on every (objs, names) case,
    when the plan is first built and when it is read back; returns how
    many cases were nonzero."""
    one = chain[0].source.quiver.ring.one
    nonzero = 0
    for objs, names in cases:
        base = {(tuple(objs), tuple(names)): one}
        want = fresh_chain_into(chain, rs, outer, base)
        assert _chain_into(chain, rs, outer, base, {}) == want, names
        known = len(chain[0].plans)
        assert _chain_into(chain, rs, outer, base, {}) == want, names
        assert len(chain[0].plans) == known
        nonzero += bool(want)
    return nonzero


class Skewed:
    """A's quiver with b(m) scaled by m: the defining sums stop vanishing."""

    def __init__(self, A):
        self.quiver = A.quiver
        self.ops = {m: combine_ops([(A.b(m), m)])
                    for m in range(1, A.max_arity + 1) if A.b(m) is not None}

    def b(self, m):
        return self.ops.get(m)


def tensors(A):
    """(k, objs, names) for every within-bound tensor of A."""
    out = []
    for k in range(1, A.max_arity + 1):
        out += [(k, objs, names) for objs, names in within_bound(A, k)]
    return out


def grafted_names(D):
    return [((X, Y), nm) for X, Y in D.quiver.pairs()
            for nm in D.hom(X, Y).names if nm[0] != LEAF and len(nm[0]) > 1]


def arrow_over(ring):
    """The arrow with differential u -> v (test_category) over a ring."""
    homs = {
        (0, 0): GradedModule(ring, [("e0", 0)]),
        (1, 1): GradedModule(ring, [("e1", 0)]),
        (0, 1): GradedModule(ring, [("u", 0), ("v", 1)]),
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


def agree(got, want, *args):
    """got(*args) equals want(*args), or both escape the size bound.
    Returns the value, None on an escape."""
    try:
        value = got(*args)
    except BoundError:
        with pytest.raises(BoundError):
            want(*args)
        return None
    assert value == want(*args), args
    return value


def canonical(el, p):
    return all(type(c) is int and 0 < c < p for c in el.terms.values())


@pytest.mark.parametrize("which,bobj", MODELS)
def test_stasheff_defect_matches_per_term_sums(which, bobj):
    _, _, Q = models(which, bobj)
    skewed = Skewed(Q)
    nonzero = 0
    for k, objs, names in tensors(Q):
        assert stasheff_defect(Q, k, objs, names) == \
            oracle_stasheff(Q, k, objs, names), names
        got = stasheff_defect(skewed, k, objs, names)
        assert got == oracle_stasheff(skewed, k, objs, names), names
        nonzero += not got.is_zero
    assert nonzero > 0


@pytest.mark.parametrize("which,bobj", MODELS)
def test_tree_b1_matches_per_term_sum(which, bobj):
    _, _, Q = models(which, bobj)
    names = grafted_names(Q)
    assert names
    for pair, nm in names:
        got = Q.b(1).on_basis(pair, (nm,))
        assert got == oracle_tree_b1(Q, *pair, nm), nm


@pytest.mark.parametrize("which,bobj", MODELS)
def test_functor_defect_matches_per_term_sums(which, bobj):
    _, D, Q = models(which, bobj)
    f = extend_functor(word_embedding(D), Q, unit_contraction(D))
    resolved = [agree(lambda pair, nm: f.component(1).on_basis(pair, (nm,)),
                      lambda pair, nm: oracle_resolve_at_root(f, nm), pair, nm)
                for pair, nm in grafted_names(Q)]
    assert any(v is not None and not v.is_zero for v in resolved)
    comps = dict(f.components)
    comps[1] = combine_ops([(comps[1], 2)])
    doubled = AInfFunctor(Q, D, f.obj_map, comps, name="2f")
    checked = nonzero = 0
    for k, objs, names in tensors(Q):
        agree(functor_defect, oracle_functor_defect, f, k, objs, names)
        got = agree(functor_defect, oracle_functor_defect, doubled, k, objs,
                    names)
        checked += got is not None
        nonzero += got is not None and not got.is_zero
    assert nonzero > 0 and checked > len(tensors(Q)) // 2


def test_resolve_at_root_with_a_binary_component():
    # a free category mapped with a random arity-2 component: the
    # non-root insertions of the root solve are nonzero
    f = random_binary_extension()
    F = f.source
    for pair, nm in grafted_names(F):
        assert f.component(1).on_basis(pair, (nm,)) == \
            oracle_resolve_at_root(f, nm), nm
    for k, objs, names in tensors(F):
        assert functor_defect(f, k, objs, names) == \
            oracle_functor_defect(f, k, objs, names), names


def test_sums_over_f7_are_canonical():
    C = arrow_over(F7)
    Q = homotopy_quotient(C, frozenset([1]), 3)
    D = bar_quotient(C, frozenset([1]), 3)
    seen = 0
    for pair, nm in grafted_names(Q):
        got = Q.b(1).on_basis(pair, (nm,))
        assert got == oracle_tree_b1(Q, *pair, nm), nm
        assert canonical(got, 7), got
        seen += len(got.terms)
    assert seen > 0
    f = extend_functor(word_embedding(D), Q, unit_contraction(D))
    for pair, nm in grafted_names(Q):
        got = agree(lambda pair, nm: f.component(1).on_basis(pair, (nm,)),
                    lambda pair, nm: oracle_resolve_at_root(f, nm), pair, nm)
        assert got is None or canonical(got, 7), got
    skewed = Skewed(Q)
    checked = 0
    for k, objs, names in tensors(Q):
        got = stasheff_defect(skewed, k, objs, names)
        assert got == oracle_stasheff(skewed, k, objs, names), names
        assert canonical(got, 7), got
        got = agree(functor_defect, oracle_functor_defect, f, k, objs, names)
        assert got is None or got.is_zero
        checked += got is not None
    assert checked > 0


@pytest.mark.parametrize("build", [path3, lambda: arrow_over(Ring("QQ"))],
                         ids=["path3", "arrow"])
def test_two_coderivation_chain_matches_segment_oracle(build):
    A = build()
    ident = identity_functor(A)
    checked = nonzero = 0
    # nonzero per-object components live on the shifted units, degree -1
    for seed, degrees in enumerate(((-1, -1), (-1, 0), (0, -1), (-1, 1),
                                    (1, -1))):
        rng = random.Random(40 + seed)
        r, s = (random_coderivation(ident, ident, d, 3, rng, 1.0, name=nm)
                for d, nm in zip(degrees, "rs"))
        assert r.r0 or s.r0, degrees
        composed = Bn([r, s])
        cases = [(0, (X,), ()) for X in A.quiver.objects]
        cases += [(k, objs, names) for k in (1, 2, 3)
                  for objs, names in bounded_tensors(A.quiver, k)]
        for k, objs, names in cases:
            want = oracle_theta([r, s], k, objs, names)
            assert theta_value([r, s], k, objs, names) == want, names
            got = composed.component_value(k, objs, names)
            assert got == want, (degrees, names)
            checked += 1
            nonzero += not want.is_zero
    assert nonzero > 10, (checked, nonzero)


@pytest.mark.parametrize("build", [path3, lambda: arrow_over(Ring("QQ"))],
                         ids=["path3", "arrow"])
def test_cached_plans_match_a_fresh_walk_on_functor_chains(build):
    # functors of one, two and three random degree-0 components, fed
    # into the target operations and into their own components; no
    # degree-0 table is nonzero at arity 3 here, so that one is empty
    A = build()
    ident = identity_functor(A)
    g = random_coderivation(ident, ident, 0, 3, random.Random(50), name="g")
    comps = {n: g.component(n) or MultiOp(A.quiver, A.quiver, n, 0,
                                          lmap=ident.obj_map,
                                          rmap=ident.obj_map)
             for n in (1, 2, 3)}
    cases = [case for k in (1, 2, 3, 4)
             for case in bounded_tensors(A.quiver, k)]
    for top in (1, 2, 3):
        f = AInfFunctor(A, A, ident.obj_map,
                        {n: comps[n] for n in range(1, top + 1)},
                        name="f%d" % top)
        assert len(f.components) == top
        assert plans_agree([f], (), A.b, cases) > 0
        assert plans_agree([f], (), f.component, cases) > 0


@pytest.mark.parametrize("build", [path3, lambda: arrow_over(Ring("QQ"))],
                         ids=["path3", "arrow"])
def test_cached_plans_match_a_fresh_walk_on_coderivation_chains(build):
    # two coderivations with per-object components, the second one zero
    # at the first object, at arities 0-3
    A = build()
    ident = identity_functor(A)
    X0 = A.quiver.objects[0]
    cases = [((X,), ()) for X in A.quiver.objects]
    cases += [case for k in (1, 2, 3) for case in bounded_tensors(A.quiver, k)]
    for seed, degrees in enumerate(((-1, -1), (-1, 0), (-1, 1))):
        rng = random.Random(60 + seed)
        r, s = (random_coderivation(ident, ident, d, 3, rng, 1.0, name=nm)
                for d, nm in zip(degrees, "rs"))
        s = Coderivation(ident, ident, s.degree, s.components,
                         r0={X: el for X, el in s.r0.items() if X != X0},
                         arity_bound=3, name="s")
        assert r.r0 and s.component0(X0).is_zero, degrees
        chain = [ident, ident, ident]
        assert plans_agree(chain, [r, s], A.b, cases) > 0, degrees


def test_one_stage_per_block_list(monkeypatch):
    # one span check on a free category builds each (block list, outer
    # op)'s fed Stage once, however many names share it
    D = path3()
    F = free_over(D, 4)
    R = structure_relations(D, F)
    R.rows()
    built = []
    real = functors.Stage

    def counting(source, blocks, outer):
        built.append((tuple(blocks), outer))
        return real(source, blocks, outer=outer)

    monkeypatch.setattr(functors, "Stage", counting)
    f = free_extension(F, D, identity_images(D), name="c")
    assert check_factorizes(f, R).ok
    assert built and len(built) == len(set(built)), (len(built),
                                                     len(set(built)))
