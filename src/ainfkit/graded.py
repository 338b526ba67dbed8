"""Exact graded linear algebra: scalars, graded modules, chain maps.

Every sparse sum runs through one add-and-cancel loop, accumulate: the
sums of elements, linear_combination, Echelon.reduce and the sums the
other modules build by hand.  Three loops keep their own, each saying
why: quiver.apply_stage, Echelon.insert and the Leibniz check of
category.DGData.

Every exact solve runs through one sparse elimination, Echelon: the
relation spans of freecat, solve_linear and through it in_image,
split_semisplit and the homotopy and preimage solves of the category
checks.
"""

from fractions import Fraction


def is_prime(p):
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


class Ring:
    """Exact coefficients: 'QQ' rationals, 'Fp' prime field, 'ZZ' integers.

    Every scalar has one canonical form, which normalize produces and
    every operation returns: a QQ value is an int when it is integral and
    a reduced Fraction otherwise, an Fp value is an int in range(p), and
    a ZZ value is an int.  Equal values therefore compare and hash equal
    whatever form they came in.  zero and one are plain attributes, set
    once (the ints 0 and 1 in every kind).
    """

    def __init__(self, kind, p=None):
        if kind not in ("QQ", "Fp", "ZZ"):
            raise ValueError("unknown ring kind %r" % (kind,))
        if kind == "Fp" and (p is None or not is_prime(p)):
            raise ValueError("Fp needs a prime p, got %r" % (p,))
        self.kind = kind
        self.p = p if kind == "Fp" else None
        self.zero = 0
        self.one = 1

    def normalize(self, x):
        kind = self.kind
        if kind == "Fp":
            if type(x) is int:
                return x % self.p
            if isinstance(x, Fraction):
                if x.denominator % self.p == 0:
                    raise ZeroDivisionError("%s has no value mod %d" % (x, self.p))
                return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
            return int(x) % self.p
        if type(x) is int:
            return x
        if kind == "QQ":
            if type(x) is not Fraction:
                x = Fraction(x)
            return x.numerator if x.denominator == 1 else x
        if isinstance(x, Fraction) and x.denominator != 1:
            raise ValueError("%s is not an integer" % (x,))
        return int(x)

    def add(self, x, y):
        s = x + y
        if type(s) is int:
            return s if self.p is None else s % self.p
        return self.normalize(s)

    def sub(self, x, y):
        s = x - y
        if type(s) is int:
            return s if self.p is None else s % self.p
        return self.normalize(s)

    def mul(self, x, y):
        s = x * y
        if type(s) is int:
            return s if self.p is None else s % self.p
        return self.normalize(s)

    def neg(self, x):
        return self.normalize(-x)

    def is_zero(self, x):
        return self.normalize(x) == 0

    def inv(self, x):
        x = self.normalize(x)
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "QQ":
            return self.normalize(Fraction(1) / x)
        if self.kind == "Fp":
            return pow(x, -1, self.p)
        if x not in (1, -1):
            raise ValueError("%d is not a unit in ZZ" % x)
        return x

    @property
    def is_field(self):
        return self.kind in ("QQ", "Fp")

    def parse(self, s):
        """Read a scalar from a string or int, rationals as 'num/den'."""
        if isinstance(s, str) and "/" in s:
            num, den = s.split("/")
            val = Fraction(int(num), int(den))
        else:
            val = Fraction(int(s) if isinstance(s, str) else s)
        return self.normalize(val)

    def fmt(self, x):
        x = self.normalize(x)
        if type(x) is Fraction:
            return "%d/%d" % (x.numerator, x.denominator)
        return str(x)

    def random(self, rng, nonzero=False):
        while True:
            if self.kind == "Fp":
                x = rng.randrange(self.p)
            elif self.kind == "QQ":
                x = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 1, 2, 3]))
            else:
                x = rng.randint(-4, 4)
            x = self.normalize(x)
            if not nonzero or x != self.zero:
                return x

    def __eq__(self, other):
        return isinstance(other, Ring) and (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        if self.kind == "Fp":
            return "Ring(Fp, p=%d)" % self.p
        return "Ring(%s)" % self.kind


class GradedModule:
    """Free graded module with a finite named basis."""

    def __init__(self, ring, basis):
        self.ring = ring
        basis = list(basis)  # any iterable of (name, degree) pairs
        self.degrees = dict(basis)
        if len(self.degrees) != len(basis):
            seen = set()
            for name, _ in basis:
                if name in seen:
                    raise ValueError("duplicate basis name %r" % (name,))
                seen.add(name)
        self.names = tuple(self.degrees)

    def degree(self, name):
        return self.degrees[name]

    def ensure(self, name, degree):
        """Confirm a basis name carries the given degree."""
        have = self.degrees.get(name)
        if have is None:
            raise ValueError("unknown basis name %r" % (name,))
        if have != degree:
            raise ValueError("degree clash at %r" % (name,))
        return name

    def basis_of_degree(self, d):
        return [n for n in self.names if self.degrees[n] == d]

    def zero(self, degree=0):
        return Element(self, {}, degree)

    def basis_element(self, name, coeff=1):
        return Element(self, {name: self.ring.normalize(coeff)}, self.degrees[name])

    def element(self, terms, degree=None):
        """Build an element from {name: coeff}; degree inferred when omitted."""
        clean = {}
        normalize = self.ring.normalize
        for name, c in terms.items():
            c = normalize(c)
            if c == 0:
                continue
            have = self.degrees.get(name)
            if have is None:
                raise ValueError("unknown basis name %r" % (name,))
            if degree is None:
                degree = have
            elif have != degree:
                raise ValueError("inhomogeneous element")
            clean[name] = c
        return Element(self, clean, 0 if degree is None else degree)

    def random_element(self, degree, rng, density=0.7):
        names = self.basis_of_degree(degree)
        terms = {}
        for n in names:
            if rng.random() < density:
                terms[n] = self.ring.random(rng)
        return self.element(terms, degree)

    def __repr__(self):
        return "GradedModule(%d basis elements)" % len(self.names)


class Element:
    """Homogeneous element: finite map basis name -> scalar, plus a degree."""

    __slots__ = ("module", "terms", "degree")

    def __init__(self, module, terms, degree):
        self.module = module
        self.terms = terms
        self.degree = degree

    @property
    def is_zero(self):
        return not self.terms

    def coeff(self, name):
        return self.terms.get(name, self.module.ring.zero)

    def add(self, other):
        if not other.terms:
            return self
        if not self.terms:
            return other
        if self.module is not other.module or self.degree != other.degree:
            raise ValueError("sum of elements of different modules or degrees")
        terms = accumulate(self.module.ring, dict(self.terms),
                           other.terms.items())
        return Element(self.module, terms, self.degree)

    def scale(self, c):
        ring = self.module.ring
        c = ring.normalize(c)
        if c == 0:
            return Element(self.module, {}, self.degree)
        if c == 1:
            return self
        mul = ring.mul
        return Element(
            self.module, {n: mul(v, c) for n, v in self.terms.items()}, self.degree
        )

    def neg(self):
        return self.scale(-1)

    def sub(self, other):
        return self.add(other.neg())

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        if self.is_zero and other.is_zero:
            return True
        return (
            self.module is other.module
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.module), self.degree, frozenset(self.terms.items())))

    def items(self):
        return self.terms.items()

    def __repr__(self):
        if self.is_zero:
            return "0[deg %d]" % self.degree
        ring = self.module.ring
        bits = []
        for name in sorted(self.terms, key=repr):
            bits.append("%s*%r" % (ring.fmt(self.terms[name]), name))
        return " + ".join(bits)


def linear_combination(module, degree, scaled):
    """The element sum(c * el for el, c in scaled) of module in one pass.

    Every term lands in a single dict that becomes the result, so no
    partial sum is ever copied; a lone element with coefficient one is
    returned as it is.  Each nonzero el must be an element of module of
    the given degree.
    """
    ring = module.ring
    normalize = ring.normalize
    parts = []
    for el, c in scaled:
        if not el.terms:
            continue
        if el.module is not module or el.degree != degree:
            raise ValueError("sum of elements of different modules or degrees")
        c = normalize(c)
        if c != 0:
            parts.append((el, c))
    if len(parts) == 1 and parts[0][1] == 1:
        return parts[0][0]
    terms = {}
    for el, c in parts:
        accumulate(ring, terms, el.terms.items(), c)
    return Element(module, terms, degree)


def accumulate(ring, acc, items, c=1):
    """Add c times each (key, value) of items into the sparse map acc.

    acc is changed in place and returned.  A key whose sum cancels is
    deleted and a zero is never stored, so acc stays a map of nonzero
    canonical scalars when items and c are canonical.
    """
    add, mul = ring.add, ring.mul
    for key, v in items:
        if c != 1:
            v = mul(v, c)
        old = acc.get(key)
        if old is not None:
            v = add(old, v)
        if v == 0:
            acc.pop(key, None)
        else:
            acc[key] = v
    return acc


def shift(module, n):
    """Shifted module: same names, every degree decreased by n (shift(M,1)=M[1])."""
    return GradedModule(module.ring, [(name, module.degrees[name] - n) for name in module.names])


def koszul_sign(perm, degrees):
    """Sign by which the permutation acts on homogeneous factors.

    perm lists, for each output slot, the index of the input factor placed
    there.  The sign is the product of (-1)^(d_i*d_j) over inverted pairs.
    """
    perm = list(perm)
    if sorted(perm) != list(range(len(degrees))):
        raise ValueError("not a permutation: %r" % (perm,))
    parity = 0
    for j in range(len(perm)):
        for i in range(j):
            if perm[i] > perm[j]:
                parity += degrees[perm[i]] * degrees[perm[j]]
    return -1 if parity % 2 else 1


class Complex:
    """Graded module with a degree +1 differential given on the basis."""

    def __init__(self, module, d, check=True):
        self.module = module
        self.d = {}
        for name, el in d.items():
            if el.is_zero:
                continue
            if el.degree != module.degrees[name] + 1:
                raise ValueError("differential has the wrong degree at %r" % (name,))
            self.d[name] = el
        if check:
            for name in module.names:
                dd = self.apply_d(self.apply_d(module.basis_element(name)))
                if not dd.is_zero:
                    raise ValueError("d^2 != 0 at %r" % (name,))

    @property
    def ring(self):
        return self.module.ring

    def apply_d(self, el):
        d = self.d
        return linear_combination(self.module, el.degree + 1,
                                  ((d[n], c) for n, c in el.items() if n in d))

    def __repr__(self):
        return "Complex(%d basis elements)" % len(self.module.names)


def _underlying(obj):
    return obj.module if isinstance(obj, Complex) else obj


class ChainMap:
    """Graded map between complexes, stored as a sparse matrix on the basis."""

    def __init__(self, source, target, degree, matrix):
        self.source = source
        self.target = target
        self.degree = degree
        smod, tmod = _underlying(source), _underlying(target)
        self.matrix = {}
        for name, el in matrix.items():
            if el.is_zero:
                continue
            if el.degree != smod.degrees[name] + degree:
                raise ValueError("map degree at %r" % (name,))
            self.matrix[name] = el
        self._smod, self._tmod = smod, tmod

    def __call__(self, el):
        if el.terms and el.module is not self._smod:
            raise ValueError("element outside the map's source module")
        matrix = self.matrix
        return linear_combination(
            self._tmod, el.degree + self.degree,
            ((matrix[n], c) for n, c in el.items() if n in matrix))

    def is_chain(self):
        """Whether f d_target = (-1)^deg(f) d_source f holds on the basis."""
        if not (isinstance(self.source, Complex) and isinstance(self.target, Complex)):
            raise TypeError("is_chain needs complexes at both ends")
        sign = -1 if self.degree % 2 else 1
        for name in self._smod.names:
            x = self._smod.basis_element(name)
            lhs = self.target.apply_d(self(x))
            rhs = self(self.source.apply_d(x)).scale(sign)
            if lhs != rhs:
                return False
        return True

    def compose(self, other):
        """self then other (right-operator order)."""
        if _underlying(self.target) is not _underlying(other.source):
            raise ValueError("maps do not compose")
        matrix = {n: other(el) for n, el in self.matrix.items()}
        return ChainMap(self.source, other.target, self.degree + other.degree, matrix)

    def add(self, other):
        if self.degree != other.degree:
            raise ValueError("sum of maps of different degrees")
        if self._smod is not other._smod or self._tmod is not other._tmod:
            raise ValueError("sum of maps between different modules")
        matrix = dict(self.matrix)
        for n, el in other.matrix.items():
            matrix[n] = matrix[n].add(el) if n in matrix else el
        return ChainMap(self.source, self.target, self.degree, matrix)

    def scale(self, c):
        return ChainMap(
            self.source, self.target, self.degree,
            {n: el.scale(c) for n, el in self.matrix.items()},
        )

    @staticmethod
    def identity(source):
        mod = _underlying(source)
        return ChainMap(source, source, 0, {n: mod.basis_element(n) for n in mod.names})

    def __repr__(self):
        return "ChainMap(degree %d, %d entries)" % (self.degree, len(self.matrix))


class Echelon:
    """A span over a field in fully reduced row echelon form, kept sparse.

    rows is {pivot: row}, each row a {column: scalar} map whose pivot is
    its least column under key, with coefficient one; no row holds
    another row's pivot.  That form is unique for the span, so rows do
    not depend on the order in which vectors were inserted.  index maps
    each column to the pivots of the rows holding it off their pivot,
    so back-substitution visits only the rows it names.  Columns are any
    hashable labels that key orders.
    """

    def __init__(self, ring, key=repr):
        if not ring.is_field:
            raise ValueError("exact elimination needs field coefficients, "
                             "not %r" % (ring,))
        self.ring = ring
        self.key = key
        self.rows = {}
        self.index = {}

    def reduce(self, vec):
        """vec modulo the span, as a new {column: scalar} map.

        Only the pivots the vector holds are eliminated, in one pass: no
        row holds another row's pivot, so a subtraction never brings one
        in.
        """
        ring, rows = self.ring, self.rows
        vec = dict(vec)
        for pivot in [col for col in vec if col in rows]:
            # the row's pivot entry is one, so the pivot itself cancels
            accumulate(ring, vec, rows[pivot].items(), ring.neg(vec[pivot]))
        return vec

    def insert(self, vec):
        """Add vec to the span; returns its reduced row, None when dependent."""
        ring, rows, index = self.ring, self.rows, self.index
        vec = self.reduce(vec)
        if not vec:
            return None
        pivot = min(vec, key=self.key)
        inv = ring.inv(vec[pivot])
        vec = {col: ring.mul(inv, val) for col, val in vec.items()}
        # not accumulate: index must follow each entry that appears or cancels
        for q in index.pop(pivot, ()):
            row = rows[q]
            c = row.pop(pivot)
            for col, val in vec.items():
                if col == pivot:
                    continue
                new = ring.sub(row.get(col, ring.zero), ring.mul(c, val))
                if ring.is_zero(new):
                    del row[col]
                    holders = index[col]
                    holders.discard(q)
                    if not holders:
                        del index[col]
                else:
                    if col not in row:
                        index.setdefault(col, set()).add(q)
                    row[col] = new
        rows[pivot] = vec
        for col in vec:
            if col != pivot:
                index.setdefault(col, set()).add(pivot)
        return vec


class _Tag:
    """The tag column of input row i in solve_linear; equal only to itself."""

    __slots__ = ("i",)

    def __init__(self, i):
        self.i = i


def _tags_last(col):
    return (1, col.i) if type(col) is _Tag else (0, repr(col))


def solve_linear(ring, rows, rhs):
    """Find coefficients c with sum c_i row_i = rhs over a field, else None.

    rows are {column: scalar} maps; rhs likewise.  Each row enters an
    Echelon with a tag column of its own, ordered after every real
    column, so no tag becomes a pivot and a stored row's tags record
    which inputs it combines; a row whose real columns reduce to zero is
    dependent and dropped.  rhs is in the span exactly when it reduces to
    tags alone, and then its coefficients are the negated tag entries.
    """
    span = Echelon(ring, _tags_last)
    norm = ring.normalize
    for i, row in enumerate(rows):
        vec = {col: c for col, v in row.items() if (c := norm(v)) != 0}
        vec[_Tag(i)] = ring.one
        vec = span.reduce(vec)
        if any(type(col) is not _Tag for col in vec):
            span.insert(vec)
    left = span.reduce({col: c for col, v in rhs.items() if (c := norm(v)) != 0})
    sol = [ring.zero] * len(rows)
    for col, c in left.items():
        if type(col) is not _Tag:
            return None
        sol[col.i] = ring.neg(c)
    return sol


def in_image(v, f):
    """Preimage of v under the chain map f, or None; exact solve over a field."""
    smod = f._smod
    deg = v.degree - f.degree
    names = smod.basis_of_degree(deg)
    rows = [dict(f(smod.basis_element(n)).items()) for n in names]
    sol = solve_linear(smod.ring, rows, dict(v.items()))
    if sol is None:
        return None
    return smod.element({n: c for n, c in zip(names, sol)}, deg)


def cone(alpha):
    """Mapping cone of a degree-0 chain map: target + shifted source.

    Basis names are tagged 't:' (target copy) and 's:' (source copy, degree
    dropped by one).  The source copy of m maps to (alpha(m), -d(m)).
    """
    src, tgt = alpha.source, alpha.target
    if alpha.degree != 0:
        raise ValueError("cone input must have degree 0")
    if not (isinstance(src, Complex) and isinstance(tgt, Complex)):
        raise TypeError("cone input must be a map of complexes")
    if not alpha.is_chain():
        raise ValueError("cone input must be a chain map")
    ring = tgt.ring
    basis = [("t:%s" % n, tgt.module.degrees[n]) for n in tgt.module.names]
    basis += [("s:%s" % n, src.module.degrees[n] - 1) for n in src.module.names]
    mod = GradedModule(ring, basis)

    def embed(el, tag):
        return mod.element(
            {"%s:%s" % (tag, n): c for n, c in el.items()},
            el.degree - (1 if tag == "s" else 0),
        )

    d = {}
    for n in tgt.module.names:
        d["t:%s" % n] = embed(tgt.apply_d(tgt.module.basis_element(n)), "t")
    for n in src.module.names:
        x = src.module.basis_element(n)
        d["s:%s" % n] = embed(alpha(x), "t").add(embed(src.apply_d(x), "s").neg())
    return Complex(mod, d)


def is_contracting_homotopy(cx, h):
    """Whether h (degree -1 matrix map on cx) satisfies hd + dh = 1."""
    for name in cx.module.names:
        x = cx.module.basis_element(name)
        lhs = cx.apply_d(h(x)).add(h(cx.apply_d(x)))
        if lhs != x:
            return False
    return True


def split_semisplit(alpha, beta, phi, H):
    """Chain splitting of a semisplit short exact sequence with contractible kernel.

    alpha: C -> A, beta: A -> B chain maps; phi: A -> C degree-0 splitting with
    alpha phi = 1; H: contracting homotopy of C.  Returns (nu, gamma) with
    nu beta = 1, nu a chain map, and 1_A - beta nu = gamma d + d gamma where
    gamma = phi H alpha.
    """
    C, A, B = alpha.source, alpha.target, beta.target
    if not (alpha.is_chain() and beta.is_chain()):
        raise ValueError("alpha and beta must be chain maps")
    cmod, amod, bmod = _underlying(C), _underlying(A), _underlying(B)
    for n in cmod.names:
        x = cmod.basis_element(n)
        if phi(alpha(x)) != x:
            raise ValueError("phi does not split alpha")
        if not beta(alpha(x)).is_zero:
            raise ValueError("alpha beta != 0")
    if not is_contracting_homotopy(C, H):
        raise ValueError("H is not a contracting homotopy")

    # psi = (phi H)d = phi H d + d phi H : A -> C, a chain map with alpha psi = 1
    psi_matrix = {}
    for n in amod.names:
        x = amod.basis_element(n)
        psi_matrix[n] = C.apply_d(H(phi(x))).add(H(phi(A.apply_d(x))))
    psi = ChainMap(A, C, 0, psi_matrix)

    # nu: the unique section of beta that psi kills.  Build a degree-0 section
    # sigma through ker(phi), then correct: nu = sigma (1 - psi alpha).
    proj = ChainMap.identity(A).add(phi.compose(alpha).scale(-1))  # onto ker(phi)
    onto = proj.compose(beta)
    nu_matrix = {}
    for n in bmod.names:
        pre = in_image(bmod.basis_element(n), onto)
        if pre is None:
            raise ValueError("beta is not split surjective")
        x = proj(pre)
        nu_matrix[n] = x.sub(alpha(psi(x)))
    nu = ChainMap(B, A, 0, nu_matrix)

    gamma_matrix = {n: alpha(H(phi(amod.basis_element(n)))) for n in amod.names}
    gamma = ChainMap(A, A, -1, gamma_matrix)

    for n in bmod.names:
        x = bmod.basis_element(n)
        assert beta(nu(x)) == x, "nu beta != 1"
    assert nu.is_chain(), "nu is not a chain map"
    for n in amod.names:
        x = amod.basis_element(n)
        lhs = x.sub(nu(beta(x)))
        rhs = A.apply_d(gamma(x)).add(gamma(A.apply_d(x)))
        assert lhs == rhs, "homotopy identity fails"
    return nu, gamma
