"""The four benchmark workloads: inputs, set-up, verdict, known answers.

Every input is built here from ainfkit's public API.  A seed draws only
nonzero structure constants; shapes, and the tensors that the Yoneda
checks sample, are fixed, so the work done and every count below are
the same for every seed.

A workload is a class with three steps, run in this order by one
process:

    setup()    builds the base categories and the quotient models,
    verdict()  runs a fixed set of per-tensor and exhaustive checks,
    control()  tampers with a copy of one model and expects the
               damage to be caught.

tamper() replaces a model by such a damaged copy before the verdict; the
self-tests use it to show that failures are counted, not raised.

Each step records its operations in a Tally: one per-tensor identity,
one certification line or one count check is one operation, and an
operation whose outcome differs from the known answer is a failure.
"""

import random
from fractions import Fraction

from ainfkit.barquot import (bar_quotient, check_contraction, comparison_map,
                             extend_functor as word_extension,
                             unit_contraction, word_embedding)
from ainfkit.category import (AInfCategory, complexes_category, dg_to_ainf,
                              stasheff_defect)
from ainfkit.freecat import (check_factorizes, check_ideal,
                             extend_functor as free_extension, free_category,
                             induce_functor, quotient, structure_relations)
from ainfkit.functors import functor_defect
from ainfkit.graded import GradedModule, Ring
from ainfkit.homquot import (check_unit_homotopies, homotopy_quotient,
                             left_unit_homotopy, unit_homotopy)
from ainfkit.quiver import BoundError, MultiOp, QuiverMap, evaluate
from ainfkit.yoneda import check_hX, check_Y

QQ = Ring("QQ")
F7 = Ring("Fp", 7)

# Known answers.  Names per bound of path3's reduced tree quotient
# marked at {1}; within-bound tensors per arity, indexed from arity 1.
PATH3_HQ_NAMES = {3: 335, 4: 4202, 5: 57065}
ARROW_HQ4_NAMES = 3405
ENGINE_TENSORS = {"path3": (4202, 1892, 522, 126),
                  "arrow": (3405, 1305, 341, 77)}
PATH3_WORDS = 14
BASIS_TENSORS = (335, 158, 57)
BASIS_ESCAPES = 189
UNIT_LAW_NAMES = 335
YONEDA_HOM_NAMES = 121
# The seed of the tensors check_Y and check_hX draw.  It is fixed: a
# different sample set changes the verdict's work by up to 8 %.
YONEDA_SAMPLE_SEED = 0
FREE_NAMES = {"arrow": 3442, "path3": 1552}


class Tally:
    """Operations attempted and failed, with the first few mismatches."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    def expect(self, label, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.mismatches) < 10:
                self.mismatches.append("%s: %s" % (label, detail))

    def count(self, label, got, want):
        self.expect(label, got == want, "got %r, want %r" % (got, want))

    def report(self, label, rep, want_ok=True):
        """One operation per report line; a control expects a failure."""
        if want_ok:
            for name, ok, detail in rep.checks:
                self.expect("%s / %s" % (label, name), ok, detail)
        else:
            self.expect(label, not rep.ok, "tampering was not caught")


def nonzero_rational(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))


def path3(c):
    """Three objects in a row, strict units, composite f.g = c.fg."""
    homs = {
        (0, 0): GradedModule(QQ, [("e0", 0)]),
        (1, 1): GradedModule(QQ, [("e1", 0)]),
        (2, 2): GradedModule(QQ, [("e2", 0)]),
        (0, 1): GradedModule(QQ, [("f", 0)]),
        (1, 2): GradedModule(QQ, [("g", 0)]),
        (0, 2): GradedModule(QQ, [("fg", 0)]),
    }

    def b(pair, name, coeff=1):
        return homs[pair].basis_element(name, coeff)

    m2 = {
        (0, 0, 0): {("e0", "e0"): b((0, 0), "e0")},
        (1, 1, 1): {("e1", "e1"): b((1, 1), "e1")},
        (2, 2, 2): {("e2", "e2"): b((2, 2), "e2")},
        (0, 0, 1): {("e0", "f"): b((0, 1), "f")},
        (0, 1, 1): {("f", "e1"): b((0, 1), "f")},
        (1, 1, 2): {("e1", "g"): b((1, 2), "g")},
        (1, 2, 2): {("g", "e2"): b((1, 2), "g")},
        (0, 1, 2): {("f", "g"): b((0, 2), "fg", c)},
        (0, 0, 2): {("e0", "fg"): b((0, 2), "fg")},
        (0, 2, 2): {("fg", "e2"): b((0, 2), "fg")},
    }
    return dg_to_ainf(homs, {}, m2, units={0: "e0", 1: "e1", 2: "e2"},
                      name="path3")


def arrow(c):
    """Two objects, hom(0, 1) the two-term complex d(u) = c.v."""
    homs = {
        (0, 0): GradedModule(QQ, [("e0", 0)]),
        (1, 1): GradedModule(QQ, [("e1", 0)]),
        (0, 1): GradedModule(QQ, [("u", 0), ("v", 1)]),
    }
    hom01 = homs[(0, 1)]
    m1 = {(0, 1): {"u": hom01.basis_element("v", c)}}
    m2 = {
        (0, 0, 0): {("e0", "e0"): homs[(0, 0)].basis_element("e0")},
        (1, 1, 1): {("e1", "e1"): homs[(1, 1)].basis_element("e1")},
        (0, 0, 1): {("e0", "u"): hom01.basis_element("u"),
                    ("e0", "v"): hom01.basis_element("v")},
        (0, 1, 1): {("u", "e1"): hom01.basis_element("u"),
                    ("v", "e1"): hom01.basis_element("v")},
    }
    return dg_to_ainf(homs, m1, m2, units={0: "e0", 1: "e1"}, name="arrow")


def two_complexes(rng):
    """Two complexes over F_7, three fixed-shape pieces each.

    M = (m0 -> m1) + (n1 -> n2) + (m3).  P = a square p0 -> p1, q1 -> p2
    whose two composites cancel, plus (s0) and (t2).  Eleven generators
    in all, so 121 hom basis names.
    """
    a1, a2, b1, b2, b3 = (rng.randrange(1, 7) for _ in range(5))
    b4 = -b1 * b3 * pow(b2, -1, 7) % 7
    return complexes_category(F7, {
        "M": ([("m0", 0), ("m1", 1), ("n1", 1), ("n2", 2), ("m3", 3)],
              {"m0": {"m1": a1}, "n1": {"n2": a2}}),
        "P": ([("p0", 0), ("p1", 1), ("q1", 1), ("p2", 2), ("s0", 0),
               ("t2", 2)],
              {"p0": {"p1": b1, "q1": b2}, "p1": {"p2": b3},
               "q1": {"p2": b4}}),
    }, name="cpx")


def name_count(A):
    return sum(len(A.hom(X, Y).names) for X, Y in A.quiver.pairs())


def bounded_tensors(A, length, budget=None):
    """Composable basis tensors of A of a length, total size within budget.

    Walks chains arrow by arrow.  Arrows out of each object are sorted by
    their declared size, and a branch stops as soon as the next arrow
    plus the smallest possible remainder would pass the budget, so no
    tensor over the budget is ever built.  Yields (objs, names).
    """
    q = A.quiver
    budget = A.size_bound if budget is None else budget
    out = {X: [] for X in q.objects}
    for X, Y in q.pairs():
        for nm in q.hom(X, Y).names:
            size = A.size_of(X, Y, nm)
            if size <= budget:
                out[X].append((size, Y, nm))
    for rows in out.values():
        rows.sort(key=lambda row: row[0])
    smallest = min((rows[0][0] for rows in out.values() if rows), default=0)

    def walk(objs, names, used):
        if len(names) == length:
            yield objs, names
            return
        reserve = (length - len(names) - 1) * smallest
        for size, Y, nm in out[objs[-1]]:
            if used + size + reserve > budget:
                break
            yield from walk(objs + (Y,), names + (nm,), used + size)

    for X in q.objects:
        yield from walk((X,), (), 0)


def max_arity_within(A):
    """The largest tensor length whose smallest instance fits the bound."""
    smallest = min(A.size_of(X, Y, nm) for X, Y in A.quiver.pairs()
                   for nm in A.hom(X, Y).names)
    return A.size_bound // smallest


def tampered(A, arity, objs, names):
    """A copy of A whose arity-n operation has one table entry doubled.

    The copy shares the quiver, the other operations and the model's
    extra attributes (base, bounds, homotopy); the original keeps its
    own table untouched.
    """
    op = A.b(arity)
    table = dict(op.table)
    table[(tuple(objs), tuple(names))] = op.on_basis(objs, names).scale(2)
    ops = dict(A.ops)
    ops[arity] = MultiOp(op.source, op.target, op.arity, op.degree,
                         table=table, rule=op.rule, lmap=op.lmap,
                         rmap=op.rmap, name=(op.name or "op") + ".bad")
    bad = AInfCategory(A.quiver, ops, A.max_arity, units=A.units,
                       size_of=A.size_of, size_bound=A.size_bound,
                       name=A.name + ".bad")
    for attr, val in vars(A).items():
        if attr not in vars(bad):
            setattr(bad, attr, val)
    return bad


def stasheff_sweep(tally, label, A, counts):
    """Every within-bound tensor at every arity through stasheff_defect.

    counts gives the known number of tensors per arity; each tensor is
    one operation, expected zero, and each per-arity count is one more.
    """
    for k in range(1, len(counts) + 1):
        seen = 0
        for objs, names in bounded_tensors(A, k):
            seen += 1
            try:
                d = stasheff_defect(A, k, objs, names)
            except BoundError as exc:
                tally.expect("%s arity %d" % (label, k), False,
                             "escaped the bound: %s" % exc)
                continue
            tally.expect("%s arity %d" % (label, k), d.is_zero,
                         "defect on %r" % (names,))
        tally.count("%s arity %d tensors" % (label, k), seen, counts[k - 1])


def first_defect(A, k):
    """Whether some within-bound tensor of arity k has a nonzero defect."""
    for objs, names in bounded_tensors(A, k):
        if not stasheff_defect(A, k, objs, names).is_zero:
            return True
    return False


def trivial(X, Y, nm):
    """The one-leaf tree name of a base arrow."""
    return ((), (X, Y), (nm,))


# The composite e0.f on one-leaf names: doubling it breaks associativity
# against e0.e0 = e0.  (Doubling f.g would only rescale c.)
UNIT_F = ((0, 0, 1), (trivial(0, 0, "e0"), trivial(0, 1, "f")))
E0_U = ((0, 0, 1), (trivial(0, 0, "e0"), trivial(0, 1, "u")))
# In the complexes category: the identity-like map m0 -> m0 composed
# with m0 -> p0.
MM_MP = (("M", "M", "P"), (("m0", "m0"), ("m0", "p0")))


class EngineB4:
    """Stasheff identities on every within-bound tensor at leaf bound 4."""

    name = "engine-b4"

    def __init__(self, seed):
        rng = random.Random(seed)
        self.c_path, self.c_arrow = nonzero_rational(rng), nonzero_rational(rng)

    def setup(self):
        self.P0 = path3(self.c_path)
        self.A0 = arrow(self.c_arrow)
        self.P = homotopy_quotient(self.P0, {1}, 4)
        self.A = homotopy_quotient(self.A0, {0}, 4)

    def verdict(self, tally):
        tally.count("path3.hq names", name_count(self.P), PATH3_HQ_NAMES[4])
        tally.count("arrow.hq names", name_count(self.A), ARROW_HQ4_NAMES)
        stasheff_sweep(tally, "path3.hq", self.P, ENGINE_TENSORS["path3"])
        stasheff_sweep(tally, "arrow.hq", self.A, ENGINE_TENSORS["arrow"])
        h = unit_homotopy(self.P)
        hp = left_unit_homotopy(self.P)
        rep = check_unit_homotopies(self.P, h, hp)
        tally.report("unit homotopies", rep)
        for name, _, detail in rep.checks:
            tally.expect("unit homotopies / %s names" % name,
                         detail.startswith("%d names" % UNIT_LAW_NAMES), detail)

    def tamper(self):
        self.P = tampered(self.P, 2, *UNIT_F)

    def control(self, tally):
        P = homotopy_quotient(self.P0, {1}, 3)
        tally.expect("control: doubled b2 entry",
                     first_defect(tampered(P, 2, *UNIT_F), 3),
                     "tampering was not caught")


class BasisB5:
    """A big tree model at bound 5 queried only on tensors of size <= 3."""

    name = "basis-b5"

    def __init__(self, seed):
        self.c_path = nonzero_rational(random.Random(seed))

    def setup(self):
        self.C = path3(self.c_path)
        self.Q = homotopy_quotient(self.C, {1}, 5)
        self.D = bar_quotient(self.C, {1}, 3)

    def words(self):
        D = self.D
        for X, Y in D.quiver.pairs():
            for nm in D.hom(X, Y).names:
                yield X, Y, D.hom(X, Y).basis_element(nm)

    def chain_map_holds(self, psi):
        """For each word x: whether d(psi x) = psi(d x)."""
        D, Q = self.D, self.Q
        for X, Y, x in self.words():
            lhs = evaluate(Q.b(1), (X, Y), (psi.apply(X, Y, x),))
            rhs = psi.apply(X, Y, evaluate(D.b(1), (X, Y), (x,)))
            yield x, lhs == rhs

    def verdict(self, tally):
        D, Q = self.D, self.Q
        tally.count("path3.hq names", name_count(Q), PATH3_HQ_NAMES[5])
        tally.count("path3 words", name_count(D), PATH3_WORDS)
        psi = comparison_map(D, Q)
        for x, ok in self.chain_map_holds(psi):
            tally.expect("comparison is a chain map", ok, repr(x))
        chi = unit_contraction(D)
        tally.report("unit contraction", check_contraction(D, chi))
        fext = word_extension(word_embedding(D), Q, chi)
        escapes = 0
        for k, want in enumerate(BASIS_TENSORS, start=1):
            seen = 0
            for objs, names in bounded_tensors(Q, k, 3):
                seen += 1
                try:
                    d = functor_defect(fext, k, objs, names)
                except BoundError:
                    escapes += 1
                    continue
                tally.expect("extension arity %d" % k, d.is_zero,
                             "defect on %r" % (names,))
            tally.count("extension arity %d tensors" % k, seen, want)
        tally.count("extension bound escapes", escapes, BASIS_ESCAPES)
        f1 = fext.component(1)
        for X, Y, x in self.words():
            got = evaluate(f1, (X, Y), (psi.apply(X, Y, x),))
            tally.expect("words return to themselves", got == x, repr(x))

    def tamper(self):
        self.Q = tampered(self.Q, 2, *UNIT_F)

    def control(self, tally):
        psi = comparison_map(self.D, self.Q)
        nm = ((0, 1, 2), ("f", "g"))
        psi.components[(0, 2)][nm] = psi.components[(0, 2)][nm].scale(2)
        tally.expect("control: doubled comparison entry",
                     not all(ok for _, ok in self.chain_map_holds(psi)),
                     "tampering was not caught")


class YonedaFp:
    """The represented functors and the Yoneda family over F_7."""

    name = "yoneda-fp"

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        self.A = two_complexes(random.Random(self.seed))

    def verdict(self, tally):
        A = self.A
        tally.count("hom basis names", name_count(A), YONEDA_HOM_NAMES)
        tally.report("check_Y", check_Y(A, bounds=(3, 3), samples=12,
                                        seed=YONEDA_SAMPLE_SEED))
        for X in A.objects:
            tally.report("check_hX %s" % X,
                         check_hX(A, X, samples=40, seed=YONEDA_SAMPLE_SEED))

    def tamper(self):
        self.A = tampered(self.A, 2, *MM_MP)

    def control(self, tally):
        bad = tampered(self.A, 2, *MM_MP)
        tally.report("control: doubled b2 entry",
                     check_hX(bad, "M", arity_bound=2, samples=40,
                              seed=YONEDA_SAMPLE_SEED), want_ok=False)


def identity_images(D):
    comps = {}
    for X, Y in D.quiver.pairs():
        mod = D.quiver.hom(X, Y)
        comps[(X, Y)] = {nm: mod.basis_element(nm) for nm in mod.names}
    return QuiverMap(D.quiver, D.quiver, 0, comps)


class SpanB6:
    """Relation spans of free covers, the quotient, and the collapse."""

    name = "span-b6"
    BOUNDS = {"arrow": 6, "path3": 5}

    def __init__(self, seed):
        rng = random.Random(seed)
        self.c_path, self.c_arrow = nonzero_rational(rng), nonzero_rational(rng)

    def setup(self):
        self.models = {}
        for label, D in (("arrow", arrow(self.c_arrow)),
                         ("path3", path3(self.c_path))):
            F = free_category(D.quiver, D.b(1), leaf_bound=self.BOUNDS[label],
                              name="F" + label)
            R = structure_relations(D, F)
            R.rows()
            E, _ = quotient(F, R)
            self.models[label] = (D, F, R, E)

    def verdict(self, tally):
        for label, (D, F, R, E) in self.models.items():
            tally.count("%s free names" % label, name_count(F),
                        FREE_NAMES[label])
            tally.count("%s quotient names" % label, name_count(E),
                        name_count(D))
            tally.report("%s ideal" % label, check_ideal(R))
            collapse = free_extension(F, D, identity_images(D), name="c")
            tally.report("%s collapse" % label, check_factorizes(collapse, R))
            tilde = induce_functor(collapse, E)
            for k in range(1, max_arity_within(E) + 1):
                for objs, names in bounded_tensors(E, k):
                    tally.expect("%s induced functor arity %d" % (label, k),
                                 functor_defect(tilde, k, objs,
                                                names).is_zero, repr(names))
                    tally.expect("%s quotient arity %d" % (label, k),
                                 stasheff_defect(E, k, objs, names).is_zero,
                                 repr(names))

    def tamper(self):
        D, F, R, E = self.models["arrow"]
        self.models["arrow"] = (D, F, R, tampered(E, 2, *E0_U))

    def control(self, tally):
        E = self.models["arrow"][3]
        tally.expect("control: doubled quotient b2 entry",
                     first_defect(tampered(E, 2, *E0_U), 3),
                     "tampering was not caught")


WORKLOADS = {w.name: w for w in (EngineB4, BasisB5, YonedaFp, SpanB6)}
