"""Graded quivers and arity-graded multilinear operations.

Operator composites run through one engine (`apply_stage`), which computes
each Koszul sign from input degrees (evaluate and slot_values do not use it).
The convention is the right-operator middle interchange
(u tensor v)(f tensor g) = (-1)^(|v||f|) (uf) tensor (vg): an operator
block picks up the degrees of the input factors standing to its right.

A state is a dict {(objs, names): coeff} of canonical coefficients;
apply_stage adds into a given state `out` in place, deleting keys that
cancel, so a defining sum (insertion_sum) builds one state.  It keeps
that add-and-cancel loop inline rather than call graded.accumulate, the
one sparse sum everywhere else: it runs once per input term (over a
hundred thousand in one Stasheff verdict on a bound-4 tree quotient),
and the extra call per term made that verdict about 15% slower (1.13
to 1.30 reference s over four pairs, Python 3.11 on a shared 2-vCPU VM).

Every defining sum here is a coderivation component, sum over a of
1^a tensor b_j tensor 1^c, fed into an outer operation.  A stage whose
only non-identity block is one plain op (output between its input's
ends, as for every b_j) takes apply_stage's direct path, and
insertions(op, m) is a whole component as one stage.  The outer
operation insert(op, 0, 0) is a whole stage: it reads the op's memo
with the term's own key, and slices and signs nothing.  Unit insertions,
functor components that map objects and multi-block stages keep the
per-block plan: only it tracks an object chain and multiplies blocks.

Single values go through evaluate.  A rule-less MultiOp's table is fixed
at construction (only a rule memoises), so it is indexed there once by
leading arguments and evaluate reads only the entries its factors reach.
slot_values gives, in one pass, the values on every basis name of one
slot with the other factors held fixed (a stored map's whole matrix),
each scaled by a sign chosen by the parity of the name's degree:
a rule-less op keeps one index per slot, by the arguments outside it,
so each product of the other factors reaches one row holding every
name's entry, and the entries are summed, signed, as they are read.

Every walk over composable basis tensors is bounded_tensors: the arrows
out of each object, sorted by a size function and indexed once per
function on the quiver, are walked depth first within a size budget.
CountedTensors counts the same walk without taking it, and finds the
tensor at any position of it, so a sample costs what it draws.

QuiverMap is the one linear map of quivers stored per pair, and
QuiverMap.commutator is its Hom differential taken one name at a time,
for maps that may be partial or bound-aware (homquot.PartialHomotopy);
graded.map_boundary stays the Hom differential of stored maps between
finite modules.
"""

from .graded import Element, GradedModule, accumulate, linear_combination


class BoundError(Exception):
    """An evaluation escaped a declared truncation bound."""


def _ident(x):
    return x


class GradedQuiver:
    """Objects plus a graded module of arrows for every ordered pair."""

    def __init__(self, ring, objects, homs):
        self.ring = ring
        self.objects = tuple(objects)
        self.homs = {}
        for pair, mod in homs.items():
            if mod.names:
                self.homs[pair] = mod
        self._zeros = {}
        # size function -> arrow index; see bounded_tensors
        self.arrow_indexes = {}

    def hom(self, X, Y):
        if (X, Y) in self.homs:
            return self.homs[(X, Y)]
        key = (X, Y)
        if key not in self._zeros:
            self._zeros[key] = GradedModule(self.ring, [])
        return self._zeros[key]

    def degree(self, X, Y, name):
        return self.hom(X, Y).degrees[name]

    def pairs(self):
        return sorted(self.homs, key=repr)

    def __repr__(self):
        return "GradedQuiver(%d objects, %d nonzero homs)" % (
            len(self.objects), len(self.homs))


def tensor_degree(quiver, objs, names):
    """Degree of the basis tensor names along objs: the sum of its
    factors' degrees.  A name of no nonzero hom raises KeyError."""
    homs, total = quiver.homs, 0
    for i, nm in enumerate(names):
        total += homs[(objs[i], objs[i + 1])].degrees[nm]
    return total


class QuiverMap:
    """Degree-homogeneous linear map of quivers, one component per pair."""

    def __init__(self, source, target, degree, components, obj_map=None):
        self.source = source
        self.target = target
        self.degree = degree
        self.obj_map = obj_map or _ident
        self.components = {}
        for pair, mat in components.items():
            clean = {n: el for n, el in mat.items() if not el.is_zero}
            if clean:
                self.components[pair] = clean

    def apply(self, X, Y, el):
        mat = self.components.get((X, Y), {})
        return linear_combination(
            self.target.hom(self.obj_map(X), self.obj_map(Y)), el.degree + self.degree,
            ((mat[n], c) for n, c in el.items() if n in mat))

    def as_multiop(self, name=None):
        qm = self

        def rule(objs, names):
            X, Y = objs
            return qm.apply(X, Y, qm.source.hom(X, Y).basis_element(names[0]))

        f = self.obj_map
        return MultiOp(self.source, self.target, 1, self.degree, rule=rule,
                       lmap=f, rmap=f, name=name)

    def commutator(self, X, Y, el, d_source, d_target):
        """The Hom differential of f at el of (X, Y): d_target f(el) -
        (-1)^deg(f) f d_source(el), the d's arity-1 MultiOps (None: zero).
        f(el) comes first, so a refusing apply refuses before any
        evaluation; no d is evaluated on a zero element."""
        U, V = self.obj_map(X), self.obj_map(Y)
        fx = self.apply(X, Y, el)
        out = self.target.hom(U, V).zero(fx.degree + 1)
        if d_source is not None and el.terms:
            fd = self.apply(X, Y, evaluate(d_source, (X, Y), (el,)))
            out = fd if self.degree % 2 else fd.neg()
        if d_target is not None and fx.terms:
            out = evaluate(d_target, (U, V), (fx,)).add(out)
        return out

    def is_chain(self, d_source, d_target):
        """Whether the commutator with the differentials (arity-1
        MultiOps, None for zero) vanishes on every basis name."""
        return all(self.commutator(X, Y, self.source.hom(X, Y).basis_element(n),
                                   d_source, d_target).is_zero
                   for X, Y in self.source.pairs()
                   for n in self.source.hom(X, Y).names)


class MultiOp:
    """Arity-n operation on a quiver, stored as a sparse table on basis tensors.

    A rule may be supplied; computed entries are memoized into the table.
    Without one the table is fixed, and index holds it by leading arguments,
    {(objs, names[:-1]): {names[-1]: value}}; with a rule index is None.
    slot_index(slot) holds it the same way by the arguments outside any
    one slot, built on first use and kept.
    lmap/rmap send the outer input objects to the output pair (identity for
    structure maps, the object map for functor components).
    """

    def __init__(self, source, target, arity, degree, table=None, rule=None,
                 lmap=None, rmap=None, name=None):
        if arity < 1:
            raise ValueError("arity must be positive, got %r" % (arity,))
        self.source = source
        self.target = target
        self.arity = arity
        self.degree = degree
        self.table = dict(table) if table else {}
        self.rule = rule
        self.index = None
        # slot -> index by the arguments outside it; see slot_index
        self._slot_indexes = {}
        if rule is None:
            self.index = {}
            for (objs, names), el in self.table.items():
                self.index.setdefault((objs, names[:-1]), {})[names[-1]] = el
        self.lmap = lmap or _ident
        self.rmap = rmap or _ident
        self.name = name
        # insert(self, a, c) by (a, c), insertions(self, m) by m
        self.stages = {}

    def slot_index(self, slot):
        """{(objs, names without names[slot]): {names[slot]: value}}, or
        None for an op with a rule; the last slot's is index."""
        if self.rule is not None or slot == self.arity - 1:
            return self.index
        index = self._slot_indexes.get(slot)
        if index is None:
            index = self._slot_indexes[slot] = {}
            for (objs, names), el in self.table.items():
                key = (objs, names[:slot] + names[slot + 1:])
                index.setdefault(key, {})[names[slot]] = el
        return index

    def pair_map(self, objs):
        return (self.lmap(objs[0]), self.rmap(objs[-1]))

    def out_module(self, objs):
        U, V = self.pair_map(objs)
        return self.target.hom(U, V)

    def on_basis(self, objs, names):
        objs, names = tuple(objs), tuple(names)
        key = (objs, names)
        out = self.table.get(key)
        if out is not None:
            return out
        if len(names) != self.arity or len(objs) != self.arity + 1:
            raise ValueError("%r takes %d arrows, got %r" % (self, self.arity, names))
        if self.rule is None:
            deg = tensor_degree(self.source, objs, names) + self.degree
            return self.out_module(objs).zero(deg)
        out = self.rule(objs, names)
        self.table[key] = out
        return out

    def __repr__(self):
        label = self.name or "op"
        return "MultiOp(%s, arity %d, degree %d)" % (label, self.arity, self.degree)


def combine_ops(weighted, name=None):
    """Pointwise linear combination of same-shape operations."""
    ops = [op for op, _ in weighted]
    first = ops[0]
    for op in ops:
        if (op.arity, op.degree) != (first.arity, first.degree):
            raise ValueError("combined operations differ in arity or degree")

    def rule(objs, names):
        out = None
        for op, c in weighted:
            term = op.on_basis(objs, names).scale(c)
            out = term if out is None else out.add(term)
        return out

    return MultiOp(first.source, first.target, first.arity, first.degree,
                   rule=rule, lmap=first.lmap, rmap=first.rmap, name=name)


class Stage:
    """One tensor layer: identity slots, operations, and 0-ary insertions.

    blocks: sequence of ('id', k), ('op', MultiOp), ('el', Element, (U, V)).
    With one plain op among identities, direct = (op, offsets right to
    left): its own offset moved right by each of shifts (see insertions).
    whole is true when that op spans the whole input, as in
    insert(op, 0, 0): a term's key is then the op's argument, and no
    factor stands right of the op to sign it.
    The general plan is worked out here, once: each block's input
    segment, and the right ends of the odd-degree blocks, whose Koszul
    signs depend on the input degrees.
    """

    def __init__(self, source, blocks, shifts=(0,)):
        self.source = source
        self.blocks = tuple(blocks)
        arity_out = 0
        degree = 0
        target = None
        plan = []
        odd_ends = []
        pos = 0
        for blk in self.blocks:
            if blk[0] == "id":
                k = blk[1]
                plan.append(("id", pos, pos + k, None))
                pos += k
                arity_out += k
                continue
            if blk[0] == "op":
                op = blk[1]
                if target is not None and target is not op.target:
                    raise ValueError("operations of one stage must share a target")
                target = op.target
                end = pos + op.arity
                plain = op.lmap is _ident and op.rmap is _ident
                plan.append(("op", pos, end, (op, plain)))
                blk_degree = op.degree
            else:
                _, el, pair = blk
                end = pos
                plan.append(("el", pos, end, (tuple(pair), list(el.items()))))
                blk_degree = el.degree
            if blk_degree % 2:
                odd_ends.append(end)
            pos = end
            arity_out += 1
            degree += blk_degree
        self.arity_in = pos
        self.arity_out = arity_out
        self.degree = degree
        self.target = target if target is not None else source
        self.plan = tuple(plan)
        self.odd_ends = tuple(reversed(odd_ends))
        self.shifts = shifts
        self.direct = None
        self.whole = False
        wide = [step for step in plan if step[0] != "id"]
        if len(wide) == 1 and wide[0][0] == "op" and wide[0][3][1]:
            at = wide[0][1]
            self.direct = (wide[0][3][0], tuple(sorted(
                (at + k for k in shifts), reverse=True)))
            self.whole = len(self.blocks) == 1 and shifts == (0,)
        elif shifts != (0,):
            raise ValueError("only a one-operation stage sums over offsets")


def _padded(source, blocks, a, c, shifts=(0,)):
    """The stage 1^a tensor blocks tensor 1^c."""
    blocks = list(blocks)
    if a:
        blocks.insert(0, ("id", a))
    if c:
        blocks.append(("id", c))
    return Stage(source, blocks, shifts)


def insert(op, a, c):
    """The stage 1^a tensor op tensor 1^c (op: MultiOp or Stage).

    Stages of a MultiOp are built once and kept on it, so repeated
    insertions of one operation share their plan.
    """
    if a < 0 or c < 0:
        raise ValueError("negative identity width")
    if isinstance(op, Stage):
        return _padded(op.source, op.blocks, a, c, op.shifts)
    stage = op.stages.get((a, c))
    if stage is None:
        stage = op.stages[(a, c)] = _padded(op.source, [("op", op)], a, c)
    return stage


def insertions(op, m):
    """The stage sum over a < m of 1^a tensor op tensor 1^(m-1-a), for a
    plain op: one coderivation component on m - 1 + arity inputs.  Kept
    on op like insert's stages; m = 1 is insert(op, 0, 0) itself."""
    if m < 1:
        raise ValueError("insertions need an outer arity of at least 1")
    if m == 1:
        return insert(op, 0, 0)
    stage = op.stages.get(m)
    if stage is None:
        stage = op.stages[m] = _padded(op.source, [("op", op)], 0, m - 1,
                                       tuple(range(m)))
    return stage


def unit_stage(source, el, pair, a, c):
    """The stage 1^a tensor x tensor 1^c for a fixed element x at `pair`."""
    return _padded(source, [("el", el, pair)], a, c)


def apply_stage(stage, state, out=None):
    """Push a state {(objs, names): coeff} through one stage.

    Every operator block contributes the Koszul sign
    (-1)^(deg(block) * sum of degrees of the factors to its right).
    Coefficients are taken and returned in the ring's canonical form.
    The result is added into `out` (a new state when None): a key whose
    coefficient cancels to zero is deleted, and `out` is returned.

    A one-operation stage (Stage.direct) takes the direct path: per term
    it reads op's memo (on_basis only on a rule's miss), takes the parity
    right of each offset in one walk from the right, and writes its keys
    straight into out.  A whole stage (Stage.whole) reads the memo with
    the term's own key and writes (ends, (n,)) keys: no factor stands
    right of its op.  Other stages follow their per-block plan.
    """
    quiver = stage.source
    ring = quiver.ring
    p = ring.p
    one = ring.one
    mul, add = ring.mul, ring.add
    homs = quiver.homs
    arity_in = stage.arity_in
    if out is None:
        out = {}
    if stage.direct is not None:
        op, offsets = stage.direct
        table, rule, arity, odd = op.table, op.rule, op.arity, op.degree & 1
        whole = stage.whole
        for args, coeff in state.items():
            objs, names = args
            if len(names) != arity_in:
                raise ValueError("stage arity mismatch")
            if coeff == 0:
                continue
            parity, j = 0, arity_in
            for a in offsets:
                if whole:
                    ends, head, tail = (objs[0], objs[-1]), (), ()
                else:
                    e = a + arity
                    while odd and j > e:
                        j -= 1
                        parity ^= homs[(objs[j], objs[j + 1])].degrees[names[j]] & 1
                    args = (objs[a:e + 1], names[a:e])
                    ends, head, tail = objs[:a + 1] + objs[e:], names[:a], names[e:]
                el = table.get(args)
                if el is None:
                    if rule is None:
                        continue
                    el = op.on_basis(*args)
                pc = (-coeff if p is None else -coeff % p) if parity else coeff
                for n, oc in el.terms.items():
                    c = pc if oc == one else oc if pc == one else mul(pc, oc)
                    key = (ends, head + (n,) + tail)
                    # one hash for a new key: setdefault grew out
                    size = len(out)
                    old = out.setdefault(key, c)
                    if len(out) != size:
                        continue
                    v = add(old, c)
                    if v == 0:
                        del out[key]
                    else:
                        out[key] = v
        return out
    plan = stage.plan
    odd_ends = stage.odd_ends
    for (objs, names), coeff in state.items():
        if len(names) != arity_in:
            raise ValueError("stage arity mismatch")
        if coeff == 0:
            continue
        if odd_ends:
            # parity of the degrees to the right of each odd block
            flip = parity = 0
            j = arity_in
            for e in odd_ends:
                while j > e:
                    j -= 1
                    parity ^= homs[(objs[j], objs[j + 1])].degrees[names[j]] & 1
                flip ^= parity
            if flip:
                coeff = -coeff if p is None else -coeff % p
        newobjs = ()
        partial = [((), coeff)]
        for kind, s, e, data in plan:
            if kind == "id":
                piece = objs[s:e + 1]
                idnames = names[s:e]
                partial = [(pn + idnames, pc) for pn, pc in partial]
            else:
                if kind == "op":
                    op, plain = data
                    el = op.on_basis(objs[s:e + 1], names[s:e])
                    if not el.terms:
                        break
                    piece = (objs[s], objs[e]) if plain else op.pair_map(objs[s:e + 1])
                    options = el.terms.items()
                else:
                    piece, options = data
                    if not options:  # a zero element kills every input
                        break
                partial = [(pn + (n,), pc if oc == one else
                            oc if pc == one else mul(pc, oc))
                           for pn, pc in partial for n, oc in options]
            if newobjs:
                if newobjs[-1] != piece[0]:
                    raise ValueError("object chain mismatch")
                newobjs += piece[1:]
            else:
                newobjs = piece
        else:
            # inline, not accumulate: a call per term slows this hot loop ~15%
            for newnames, c in partial:
                key = (newobjs, newnames)
                old = out.get(key)
                if old is None:
                    out[key] = c
                    continue
                v = add(old, c)
                if v == 0:
                    del out[key]
                else:
                    out[key] = v
    return out


def run_stages(stages, state):
    for st in stages:
        state = apply_stage(st, state)
    return state


def insertion_sum(inner, outer, k, base, out, root=True):
    """Add the sum over m, a of outer(m) o (1^a tensor inner(k-m+1) tensor
    1^(m-1-a)) on the arity-k state base into out, and return out.

    inner, outer: arity -> MultiOp, or None for zero; inner's are plain.
    Per outer arity m the insertions are one stage (insertions), and
    outer(m) is applied once to the state it gives.
    root=False leaves m = 1 out.  Signs ride on base's coefficients.
    """
    for m in range(1 if root else 2, k + 1):
        op, ins = outer(m), inner(k - m + 1)
        if op is None or ins is None:
            continue
        apply_stage(insert(op, 0, 0), apply_stage(insertions(ins, m), base),
                    out)
    return out


def state_element(quiver, state, pair, degree):
    """Assemble a one-factor state into an Element of hom(pair).

    The state's keys are distinct and its coefficients canonical, so the
    nonzero ones become the element's terms as they stand.  An empty
    state, as most defining sums are, is the zero at once.
    """
    mod = quiver.hom(*pair)
    if not state:
        return mod.zero(degree)
    degrees = mod.degrees
    pair = tuple(pair)
    terms = {}
    for (objs, names), c in state.items():
        if objs != pair:
            raise ValueError("state landed outside the expected hom")
        name = names[0]
        if degrees[name] != degree:
            raise ValueError("state term %r is not of degree %d" % (name, degree))
        if c != 0:
            terms[name] = c
    return Element(mod, terms, degree)


def _products(ring, factors):
    """(names, coeff) for every product of one term from each factor."""
    mul = ring.mul
    terms = [((), ring.one)]
    for f in factors:
        terms = [(names + (n,), mul(c, fc))
                 for names, c in terms for n, fc in f.items()]
    return terms


def expand_tensor(quiver, objs, factors):
    """Multilinear expansion of a tensor of Elements into basis-tensor terms."""
    objs = tuple(objs)
    return {(objs, names): c for names, c in _products(quiver.ring, factors)}


def _check_factors(op, objs, factors, slot=None):
    """Raise unless factors (with a gap at slot, if given) fit op on objs."""
    gap = slot is not None
    if (len(factors) + gap != op.arity or len(objs) != op.arity + 1
            or gap and not 0 <= slot < op.arity):
        raise ValueError("%r takes %d factors" % (op, op.arity - gap))
    for i, f in enumerate(factors):
        j = i + 1 if gap and i >= slot else i
        if not (f.is_zero or f.module is op.source.hom(objs[j], objs[j + 1])):
            raise ValueError("factor %d not in the expected hom" % i)


def _meet_rows(op, objs, leading, last):
    """(entry, coeff) for each index row the leading (names, coeff) reach,
    met with the last factor's terms on the smaller side."""
    mul = op.source.ring.mul
    scaled = []
    for names, c in leading:
        row = op.index.get((objs, names))
        if not row:
            continue
        if len(row) < len(last):
            scaled += [(el, mul(c, last[n])) for n, el in row.items() if n in last]
        else:
            scaled += [(row[n], mul(c, fc)) for n, fc in last.items() if n in row]
    return scaled


def evaluate(op, objs, factors):
    """Apply a MultiOp to a tensor of homogeneous Elements (multilinear).

    An op with a rule is asked on every basis tensor of the expansion.  For
    a rule-less op only the leading factors are expanded; each index row
    they reach meets the last factor on the smaller of the two.
    """
    objs = tuple(objs)
    _check_factors(op, objs, factors)
    deg = sum(f.degree for f in factors) + op.degree
    if op.index is None:
        return linear_combination(
            op.out_module(objs), deg,
            ((op.on_basis(o, names), c)
             for (o, names), c in expand_tensor(op.source, objs, factors).items()))
    leading = _products(op.source.ring, factors[:-1])
    return linear_combination(op.out_module(objs), deg,
                              _meet_rows(op, objs, leading, factors[-1].terms))


def slot_values(op, objs, factors, slot, signs=(1, 1)):
    """{w: evaluate(op, objs, factors[:slot] + (e_w,) + factors[slot:])
    * signs[|w| mod 2]} for every basis name w of the hom at the slot, in
    one pass.

    signs gives one scalar per parity of w's degree; it is applied to
    each term as it is summed, so no value is rescaled afterwards.  A
    rule is asked on the same basis tensors, in the same order, as the
    per-name evaluations would ask it.  A rule-less op reads one row of
    its slot index per product of the other factors; the row holds every
    w's entry, and each is added into w's terms as it is read.  As in
    linear_combination, a stored zero is skipped, a cancelled term is
    deleted, and a nonzero entry of another module or degree raises.
    """
    objs, factors = tuple(objs), tuple(factors)
    _check_factors(op, objs, factors, slot)
    ring = op.source.ring
    smod = op.source.hom(objs[slot], objs[slot + 1])
    out = op.out_module(objs)
    deg = sum(f.degree for f in factors) + op.degree
    degrees = smod.degrees
    mul = ring.mul
    if op.index is None:
        before = _products(ring, factors[:slot])
        after = _products(ring, factors[slot:])
        scaled = {w: [(op.on_basis(objs, pn + (w,) + sn),
                       mul(mul(pc, sc), signs[degrees[w] % 2]))
                      for pn, pc in before for sn, sc in after]
                  for w in smod.names}
        return {w: linear_combination(out, deg + degrees[w], s)
                for w, s in scaled.items()}
    index = op.slot_index(slot)
    terms = {w: {} for w in smod.names}
    for names, c in _products(ring, factors):
        row = index.get((objs, names))
        if not row:
            continue
        signed = (mul(c, signs[0]), mul(c, signs[1]))
        for w, el in row.items():
            acc = terms.get(w)
            if acc is None or not el.terms:
                continue
            d = degrees[w]
            if el.module is not out or el.degree != deg + d:
                raise ValueError(
                    "sum of elements of different modules or degrees")
            accumulate(ring, acc, el.terms.items(), signed[d % 2])
    return {w: Element(out, t, deg + degrees[w]) for w, t in terms.items()}


def _arrow_index(quiver, size_of):
    """(out, into, least) for a size function (None: every size 0).

    out[X] lists the arrows (size, target, name) out of X, stably sorted
    by size, so with no sizes in hom order; into[(X, Y)] lists the same
    entries by source and target; least is the smallest size.  Built
    once per size function and kept on the quiver, whose homs are fixed.
    """
    index = quiver.arrow_indexes.get(size_of)
    if index is None:
        out, into = {}, {}
        for X in quiver.objects:
            arrows = [(0 if size_of is None else size_of(X, Y, nm), Y, nm)
                      for Y in quiver.objects if (X, Y) in quiver.homs
                      for nm in quiver.homs[(X, Y)].names]
            arrows.sort(key=lambda arrow: arrow[0])
            out[X] = arrows
            for arrow in arrows:
                into.setdefault((X, arrow[1]), []).append(arrow)
        least = min((arrows[0][0] for arrows in out.values() if arrows),
                    default=0)
        index = quiver.arrow_indexes[size_of] = (out, into, least)
    return index


def bounded_tensors(quiver, length, size_of=None, budget=None, start=None,
                    end=None):
    """Yield (objs, names) for every composable basis tensor of a length
    whose sizes sum to at most budget, from start and to end if given.

    size_of(X, Y, name) gives an arrow's size, and budget None bounds
    nothing.  Arrows are walked depth first in size order, and a branch
    ends at the first arrow that does not fit with the smallest arrows
    still to come; with size_of None every size is 0, and the order is
    objects, then targets, then hom names.  With an end object the last
    step walks only the arrows into it.  A tensor of length zero is one
    object.
    """
    starts = [start] if start is not None else quiver.objects
    if length == 0:
        for X in starts:
            if end in (None, X):
                yield (X,), ()
        return
    out, into, least = _arrow_index(quiver, size_of)
    if budget is None:
        budget = float("inf")
    for X in starts:
        yield from _walk_tensors(out, None if end is None else into, least,
                                 (X,), (), 0, length, budget, end)


def _walk_tensors(out, into, least, objs, names, used, length, budget, end):
    # A module-level walker, not a closure that calls itself (a reference
    # cycle per call).
    if len(names) == length:
        yield objs, names
        return
    if into is not None and len(names) == length - 1:
        for size, Y, nm in into.get((objs[-1], end), ()):
            if used + size > budget:
                break
            yield objs + (Y,), names + (nm,)
        return
    slack = least * (length - len(names) - 1)
    for size, Y, nm in out[objs[-1]]:
        if used + size + slack > budget:
            break
        yield from _walk_tensors(out, into, least, objs + (Y,), names + (nm,),
                                 used + size, length, budget, end)


class CountedTensors:
    """The tensors bounded_tensors(quiver, length, size_of, budget) yields,
    counted without walking them, and each found from its position.

    Completions are counted once per (object, steps left, size used),
    over the same arrow index, size order and early stop as the walk;
    at(i) descends the counts to the i-th tensor the walk would yield,
    in O(length * out-degree).  This is the recursive method of
    Nijenhuis and Wilf, Combinatorial Algorithms (1978).
    """

    def __init__(self, quiver, length, size_of=None, budget=None):
        self.out, _, self.least = _arrow_index(quiver, size_of)
        self.objects = quiver.objects
        self.length = length
        self.budget = float("inf") if budget is None else budget
        # (object, steps left, size used) -> completions; see _completions
        self.counts = {}
        self.count = sum(self._completions(X, length, 0) for X in self.objects)

    def _completions(self, X, left, used):
        if not left:
            return 1
        key = (X, left, used)
        count = self.counts.get(key)
        if count is None:
            count = 0
            slack = self.least * (left - 1)
            for size, Y, _ in self.out[X]:
                if used + size + slack > self.budget:
                    break
                count += self._completions(Y, left - 1, used + size)
            self.counts[key] = count
        return count

    def at(self, i):
        """The (objs, names) at position i of the walk."""
        if not 0 <= i < self.count:
            raise IndexError("tensor %r of %d" % (i, self.count))
        for X in self.objects:
            count = self._completions(X, self.length, 0)
            if i < count:
                break
            i -= count
        objs, names, used = [X], [], 0
        for left in range(self.length, 0, -1):
            # i falls among the arrows that fit, so no stop test is needed
            for size, Y, nm in self.out[objs[-1]]:
                count = self._completions(Y, left - 1, used + size)
                if i < count:
                    break
                i -= count
            objs.append(Y)
            names.append(nm)
            used += size
        return tuple(objs), tuple(names)


def all_basis_tensors(quiver, length):
    """bounded_tensors unbounded, under the name perfbench/selftest.py uses."""
    return bounded_tensors(quiver, length)
