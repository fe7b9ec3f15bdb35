"""Exact multivariate polynomials over Q and tensor-power elements.

A `PolyRing` fixes an ordered list of generator variables followed by an
optional list of parameter variables.  Parameters are ordinary commuting
central variables, but they are excluded from the notion of *degree* used
for all truncation decisions and they sort below every generator in the
term order.  A stored coefficient is an `int` when it is integral and a
`fractions.Fraction` otherwise.  `rational` is the one switch; `Poly`,
`TensorPoly`, `settle`, `Cocycle.pair`, `RMatrix` and `LieAlgebraData`
call it where they store a value.  The two types compare, hash and print
alike.  No floating point arithmetic occurs anywhere, yet
`int / int` is a float, so each of the four value divisions has a
`Fraction` operand: the content in `Poly.normalize_sign` and
`Poly.scale_down`, the pivot in `linalg`'s elimination and the power of
1/2 in `ExponentialCocycle._pair`.

Monomials are canonical: `PolyRing.monomial(exps)` is the only place a
`Monomial` is built, and it returns one instance per exponent tuple, kept
in a table owned by the ring.  Monomial equality and hash are therefore
identity (equal exponents in two rings are different monomials).  Each
monomial carries its generator degree, whether it is 1, and its generator
and parameter parts as precomputed slots, and the ring memoizes monomial
products in a second table and `monomials_up_to` in a third.  The tables
live and die with their ring.

Every sum of many polynomials, sum c p over a list of (p, c), is added up
by `PolyRing.combination` in one coefficient dict, with one `Poly` built at
the end; a left fold of `+` would copy the running sum once per term.

The exact sums of the product path (`GroupPresentation.contract`,
`PolyRing.bilinear`, which extends `TwistedContext.mul` and `Cocycle.eval`
over the parameters, and the R-form check's commutation identity) keep
each key's sum as an int numerator over a positive int denominator
(`accumulate`), and `settle` builds one value per key at the end, so a
key's sum is reduced by a gcd once rather than once per term.

The canonical text rendering (used for golden comparisons) lists terms in
decreasing graded-lex order, e.g. ``W*X + 1/2*Y``; `parse_poly` reads the
same format back.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm
from operator import le

ZERO = 0
ONE = 1


def rational(x):
    """x as an int when it is integral, else as it is (a Fraction)."""
    return x.numerator if x.denominator == 1 else x


def accumulate(num, den, k, n, d):
    """Add n/d (ints, d > 0) to the sum num[k]/den[k], over the lcm of the denominators."""
    o = den.get(k)
    if o is None:
        num[k], den[k] = n, d
    elif o == d:
        num[k] += n
    else:
        common = lcm(o, d)
        num[k], den[k] = num[k] * (common // o) + n * (common // d), common


def settle(num, den, start=None):
    """start + the sums of `accumulate`, {key: value} with zero values dropped.

    Keys come in `start`'s order, then the sums'.  A key that a nonzero sum
    touches gets one new value, through `rational`; start's others keep theirs.
    """
    out = dict(start or ())
    for k, n in num.items():
        if n:
            d, v = den[k], out.get(k)
            if v is not None:
                n, d = n * v.denominator + v.numerator * d, d * v.denominator
            if n:
                out[k] = rational(n if d == 1 else Fraction(n, d))
            else:
                del out[k]
    return out


class RingContextError(ValueError):
    """Raised when values from different ring contexts are combined."""


class ZeroDenominatorError(ValueError):
    """Raised when a rational literal has denominator 0."""


def parse_rational(text):
    """A rational literal p or p/q as a Fraction; p/0 is an input error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ZeroDenominatorError("zero denominator in %r" % text.strip()) from None


class PolyRing:
    """An ordered polynomial ring Q[X1,...,Xn; params]."""

    def __init__(self, generators, parameters=()):
        generators = tuple(generators)
        parameters = tuple(parameters)
        names = generators + parameters
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names: %r" % (names,))
        self.generators = generators
        self.parameters = parameters
        self.names = names
        self.ngens = len(generators)
        self.index = {name: i for i, name in enumerate(names)}
        self._monomials = {}
        self._products = {}
        self._upto = {}  # monomials_up_to's memo
        self.one_monomial = self.monomial((0,) * len(names))
        self.zero = Poly(self, {})
        self.one = Poly(self, {self.one_monomial: ONE})

    def is_parameter(self, name):
        return name in self.parameters

    def monomial(self, exps):
        """The canonical monomial with these exponents."""
        exps = tuple(exps)
        m = self._monomials.get(exps)
        if m is None:
            m = self._monomials[exps] = Monomial(self, exps)
            ng = self.ngens
            if any(exps[ng:]):
                m.gen_part = self.monomial(exps[:ng] + (0,) * (len(exps) - ng))
                m.param_part = self.monomial((0,) * ng + exps[ng:])
            else:
                m.gen_part = m
                m.param_part = self.monomial((0,) * len(exps))
        return m

    def var_monomial(self, name):
        exps = [0] * len(self.names)
        exps[self.index[name]] = 1
        return self.monomial(exps)

    def var(self, name):
        return Poly(self, {self.var_monomial(name): ONE})

    def const(self, c):
        c = Fraction(c)
        if c == 0:
            return self.zero
        return Poly(self, {self.one_monomial: c})

    def monomials_up_to(self, bound, include_one=True, names=None):
        """All monomials in the given variables with generator-degree <= bound.

        Deterministic: listed in increasing graded-lex order.  Memoized on
        the ring; each call returns a new list.
        """
        names = self.generators if names is None else tuple(names)
        key = (bound, include_one, names)
        if key not in self._upto:
            out = []
            for d in range(0 if include_one else 1, bound + 1):
                for combo in combinations_with_replacement([self.index[n] for n in names], d):
                    exps = [0] * len(self.names)
                    for i in combo:
                        exps[i] += 1
                    out.append(self.monomial(exps))
            self._upto[key] = sorted(out, key=grlex_key)
        return list(self._upto[key])

    def combination(self, pairs):
        """The sum of c p over (p, c) pairs, p a Poly of this ring and c a rational."""
        terms = {}
        for p, c in pairs:
            if p.ring is not self:
                raise RingContextError("polynomials from different rings")
            for m, v in p.terms.items():
                terms[m] = terms.get(m, ZERO) + v * c
        return Poly(self, terms)

    def bilinear(self, f, g, values):
        """The Poly sum c1 c2 values(g1, g2) p1 p2 over the terms c1 g1 p1 of f and
        c2 g2 p2 of g, g_i a term's generator part and p_i its parameter part:
        `values`, a map to {monomial: coefficient} dicts, extended bilinearly
        over Q[parameters].  Zero values are skipped; sums are kept as in `contract`.
        """
        num, den = {}, {}
        for m1, c1 in f.terms.items():
            for m2, c2 in g.terms.items():
                c, p = c1 * c2, m1.param_part.mul(m2.param_part)
                n, d = c.numerator, c.denominator
                for k, v in values(m1.gen_part, m2.gen_part).items():
                    if v:
                        accumulate(num, den, k if p.is_one else k.mul(p), n * v.numerator,
                                   d * v.denominator)
        return Poly(self, settle(num, den))

    def hom(self, images, target):
        """The algebra map into `target` sending each variable per `images`.

        `images` maps names to Polys in `target` or to rationals; a variable
        absent from it maps to the target variable of the same name, which
        must then exist.  Returned as a monomial -> Poly map whose values
        are memoized for the life of the map.
        """
        images = {n: v if isinstance(v, Poly) else target.const(v) for n, v in images.items()}
        memo = {self.one_monomial: target.one}

        def image(m):
            img = memo.get(m)
            if img is None:
                i = next(i for i, e in enumerate(m.exps) if e)
                var = images.get(self.names[i])
                if var is None:
                    var = images[self.names[i]] = target.var(self.names[i])
                rest = self.monomial(m.exps[:i] + (m.exps[i] - 1,) + m.exps[i + 1:])
                img = memo[m] = image(rest) * var
            return img

        return image

    def fresh_names(self, prefix, names):
        """{name: prefix + name}, the prefix lengthened by "_" until no new name is the ring's."""
        while any(prefix + n in self.index for n in names):
            prefix += "_"
        return {n: prefix + n for n in names}

    def __repr__(self):
        if self.parameters:
            return "PolyRing(%s; %s)" % (",".join(self.generators), ",".join(self.parameters))
        return "PolyRing(%s)" % ",".join(self.generators)


class Monomial:
    """A power product, stored densely over the ring's variable list.

    Built only by `PolyRing.monomial`, which keeps one instance per exponent
    tuple, so equality and hash are the default identity ones.  The slots
    `degree` (generator degree, parameters count 0), `is_one`, `grlex` (the
    `grlex_key` tuple), `gen_part` and `param_part` are fixed at construction.
    """

    __slots__ = ("ring", "exps", "degree", "is_one", "grlex", "gen_part", "param_part")

    def __init__(self, ring, exps):
        self.ring = ring
        self.exps = exps
        g, p = exps[:ring.ngens], exps[ring.ngens:]
        self.degree = sum(g)
        self.is_one = not any(exps)
        self.grlex = (self.degree, g[::-1], sum(p), p[::-1])

    def param_degree(self):
        return sum(self.exps[self.ring.ngens:])

    def total_degree(self):
        return sum(self.exps)

    def mul(self, other):
        products = self.ring._products
        key = (self, other)
        m = products.get(key)
        if m is None:
            m = products[key] = self.ring.monomial(
                [a + b for a, b in zip(self.exps, other.exps)])
        return m

    def divides(self, other):
        return all(map(le, self.exps, other.exps))

    def divide(self, other):
        """self / other, assuming other divides self."""
        return self.ring.monomial([a - b for a, b in zip(self.exps, other.exps)])

    def lcm(self, other):
        return self.ring.monomial([max(a, b) for a, b in zip(self.exps, other.exps)])

    def coprime(self, other):
        return all(a == 0 or b == 0 for a, b in zip(self.exps, other.exps))

    def max_generator_index(self):
        """Largest 1-based generator index occurring, 0 if none."""
        best = 0
        for i in range(self.ring.ngens):
            if self.exps[i] > 0:
                best = i + 1
        return best

    def as_poly(self):
        return Poly(self.ring, {self: ONE})

    def __repr__(self):
        return render_monomial(self) or "1"


def grlex_key(m):
    """Sort key for graded lex with X1 < X2 < ... < Xn, parameters lowest.

    Compares generator degree first, then generator exponents from the top
    variable down, then the same for parameters.  Ascending comparison of
    keys realizes the order; it is a product order (generators dominate).
    The tuple is the monomial's `grlex` slot, built with it.
    """
    return m.grlex


class Poly:
    """Immutable sparse polynomial: mapping monomial -> nonzero int or Fraction."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {m: rational(c) for m, c in terms.items() if c}

    # -- ring sanity ------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ring is not self.ring:
                raise RingContextError("polynomials from different rings")
            return other
        return self.ring.const(other)

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, ZERO) + c
        return Poly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self.ring.zero
            return Poly(self.ring, {m: v * other for m, v in self.terms.items()})
        other = self._coerce(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1.mul(m2)
                terms[m] = terms.get(m, ZERO) + c1 * c2
        return Poly(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return isinstance(other, Poly) and self.ring is other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.ring), frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    # -- inspection -------------------------------------------------------
    def degree(self):
        """Generator degree (parameters count 0); -1 for the zero poly."""
        if not self.terms:
            return -1
        return max(m.degree for m in self.terms)

    def constant_term(self):
        """Coefficient part of generator-degree 0 (may involve parameters)."""
        out = {}
        for m, c in self.terms.items():
            if m.degree == 0:
                out[m] = c
        return Poly(self.ring, out)

    def counit(self):
        """The coefficient of the monomial 1 (evaluation at the identity)."""
        return self.terms.get(self.ring.one_monomial, ZERO)

    def coefficient(self, monomial):
        return self.terms.get(monomial, ZERO)

    def coefficient_of_var(self, name):
        """Coefficient of the plain degree-1 monomial in `name`."""
        return self.terms.get(self.ring.var_monomial(name), ZERO)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0].grlex, reverse=True)

    def max_generator_index(self):
        """Largest 1-based generator index occurring, 0 if none."""
        return max((m.max_generator_index() for m in self.terms), default=0)

    # -- normalization ----------------------------------------------------
    def content(self):
        """(rational content, least parameter exponents over the terms).

        The rational content is the `Fraction` gcd(numerators) /
        lcm(denominators); the zero polynomial has content 0 and no exponents.
        """
        nums, dens, low = 0, 1, None
        for m, c in self.terms.items():
            nums = gcd(nums, c.numerator)
            dens = dens * c.denominator // gcd(dens, c.denominator)
            pexps = m.exps[self.ring.ngens:]
            low = pexps if low is None else tuple(map(min, low, pexps))
        return Fraction(nums, dens), low

    def normalize_sign(self):
        """Divide by the rational content, keeping monomials; leading sign +."""
        if not self.terms:
            return self
        return (self * (1 / self.content()[0]))._lead_positive()

    def scale_down(self):
        """Divide by the content, parameter monomial included; leading sign +."""
        if not self.terms:
            return self
        scale, low = self.content()
        ring, ng = self.ring, self.ring.ngens
        terms = {ring.monomial(m.exps[:ng] + tuple(e - l for e, l in zip(m.exps[ng:], low))):
                 c / scale for m, c in self.terms.items()}
        return Poly(ring, terms)._lead_positive()

    def _lead_positive(self):
        lead = max(self.terms, key=grlex_key)
        return -self if self.terms[lead] < 0 else self

    # -- substitution -----------------------------------------------------
    def substitute(self, images, target):
        """Algebra map sending variables per `images` (name -> Poly in target).

        Variables absent from `images` must exist in the target ring and map
        to themselves.
        """
        image = self.ring.hom(images, target)
        return target.combination((image(m), c) for m, c in self.terms.items())

    def __repr__(self):
        return render_poly(self)


# -- canonical text -------------------------------------------------------

def render_monomial(m):
    """Variables by declared name in decreasing order, '*'-joined."""
    parts = []
    for i in range(len(m.ring.names) - 1, -1, -1):
        e = m.exps[i]
        if e == 1:
            parts.append(m.ring.names[i])
        elif e > 1:
            parts.append("%s^%d" % (m.ring.names[i], e))
    return "*".join(parts)


def render_poly(p):
    if not p.terms:
        return "0"
    pieces = []
    for m, c in p.sorted_terms():
        mono = render_monomial(m)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = "%s*%s" % (mag, mono)
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += " %s %s" % (sign, body)
    return out


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                    r"|(?P<op>[\^*+\-]))")


def parse_poly(text, ring):
    """Parse the canonical rendering (sums and differences of '*'-joined factors).

    An exponent is an integer literal: X^1/2 and Y^2/2 are errors, as are a
    '*' with no factor after it and a number right after a number (1 2).
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ValueError("cannot tokenize %r at %d" % (text, pos))
        pos = m.end()
        num = m.group("num")
        if num is not None:
            # an integer literal stays an int: only it may be an exponent
            tokens.append(("num", int(num) if num.isdigit() else parse_rational(num)))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))

    terms = []
    i = 0
    n = len(tokens)
    if n == 0:
        raise ValueError("empty polynomial text")
    while i < n:
        sign = ONE
        while i < n and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise ValueError("dangling sign in %r" % text)
        term = ring.const(sign)
        expect_factor = True
        while i < n:
            kind, val = tokens[i]
            if expect_factor:
                if kind == "num":
                    term = term * val
                    i += 1
                elif kind == "name":
                    if val not in ring.index:
                        raise ValueError("unknown variable %r" % val)
                    exp = 1
                    i += 1
                    if i + 1 < n and tokens[i] == ("op", "^") and tokens[i + 1][0] == "num":
                        exp = tokens[i + 1][1]
                        if not isinstance(exp, int):
                            raise ValueError("non-integer exponent in %r" % text)
                        i += 2
                    term = term * ring.var(val) ** exp
                else:
                    raise ValueError("expected factor in %r" % text)
                expect_factor = False
            else:
                if kind == "op" and val == "*":
                    expect_factor = True
                    i += 1
                elif kind == "num" and tokens[i - 1][0] == "num":
                    raise ValueError("number after a number in %r" % text)
                elif kind in ("num", "name"):
                    # juxtaposition means multiplication (file-format leniency)
                    expect_factor = True
                else:
                    break
        if expect_factor:
            raise ValueError("dangling '*' in %r" % text)
        terms.append((term, ONE))
    return ring.combination(terms)


# -- tensor powers --------------------------------------------------------

class TensorPoly:
    """Element of a k-fold tensor power, normalized to monomial slots.

    Stored as a mapping tuple-of-monomials -> nonzero int or Fraction.  All
    slot operations are linear and preserve the normal form.
    """

    __slots__ = ("ring", "rank", "terms")

    def __init__(self, ring, rank, terms):
        self.ring = ring
        self.rank = rank
        self.terms = {k: rational(c) for k, c in terms.items() if c}

    @classmethod
    def zero(cls, ring, rank):
        return cls(ring, rank, {})

    @classmethod
    def from_polys(cls, polys, coeff=ONE):
        """Normalize a pure tensor p1 (x) ... (x) pk by distributing."""
        ring = polys[0].ring
        for p in polys:
            if p.ring is not ring:
                raise RingContextError("tensor slots from different rings")
        terms = {(): rational(coeff)}
        for p in polys:
            new = {}
            for key, c in terms.items():
                for m, cm in p.terms.items():
                    k2 = key + (m,)
                    new[k2] = new.get(k2, ZERO) + c * cm
            terms = new
        return cls(ring, len(polys), terms)

    def __add__(self, other):
        if other.rank != self.rank or other.ring is not self.ring:
            raise RingContextError("tensor rank/ring mismatch")
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, ZERO) + c
        return TensorPoly(self.ring, self.rank, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = rational(c)
        return TensorPoly(self.ring, self.rank, {k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, TensorPoly) and self.ring is other.ring
                and self.rank == other.rank and self.terms == other.terms)

    def is_zero(self):
        return not self.terms

    def slotwise_mul(self, other):
        """Componentwise product (the algebra structure of the tensor power)."""
        if other.rank != self.rank:
            raise RingContextError("tensor rank mismatch")
        terms = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(a.mul(b) for a, b in zip(k1, k2))
                c = c1 * c2
                o = terms.get(key)
                terms[key] = c if o is None else o + c
        return TensorPoly(self.ring, self.rank, terms)

    def apply_linear_slot(self, slot, phi):
        """Contract one slot (1-based) of a rank-k tensor, k >= 2, with a
        linear functional on Poly; the result is a TensorPoly of rank k-1.
        """
        if self.rank < 2:
            raise ValueError("rank must be >= 2 to contract a slot")
        if not 1 <= slot <= self.rank:
            raise IndexError("slot out of range")
        s = slot - 1
        terms = {}
        for key, c in self.terms.items():
            val = phi(key[s].as_poly())
            if val == 0:
                continue
            k2 = key[:s] + key[s + 1:]
            terms[k2] = terms.get(k2, ZERO) + c * val
        return TensorPoly(self.ring, self.rank - 1, terms)

    def map_slot(self, slot, f):
        """Replace one slot (1-based) through a rank-increasing map.

        `f` maps a monomial to a TensorPoly of some fixed rank r; the result
        has rank k - 1 + r.  Used to apply a coproduct to one slot.
        """
        s = slot - 1
        out_terms = {}
        out_rank = None
        for key, c in self.terms.items():
            img = f(key[s])
            if out_rank is None:
                out_rank = self.rank - 1 + img.rank
            for ikey, ic in img.terms.items():
                k2 = key[:s] + ikey + key[s + 1:]
                out_terms[k2] = out_terms.get(k2, ZERO) + c * ic
        if out_rank is None:
            raise ValueError("cannot map a slot of the zero tensor")
        return TensorPoly(self.ring, out_rank, out_terms)

    def to_poly(self):
        if self.rank != 1:
            raise ValueError("rank-1 tensor expected")
        return Poly(self.ring, {k[0]: c for k, c in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda t: tuple(grlex_key(m) for m in t[0]), reverse=True)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for key, c in self.sorted_terms():
            slots = " (x) ".join(render_monomial(m) or "1" for m in key)
            parts.append("%s [%s]" % (c, slots))
        return " + ".join(parts)
