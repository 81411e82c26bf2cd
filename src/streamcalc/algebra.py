"""Exact coefficient domains, polynomials, and rational expressions.

Every built-in algebra is exact: arbitrary-precision rationals and
integers, prime fields by modular arithmetic, Booleans, naturals, and
the min-plus (tropical) semiring over exact rationals extended with
+infinity.  No floating point is used anywhere except the two infinity
markers (``math.inf`` for tropical, ``-inf`` as the degree of the zero
polynomial), which are exact values.

Q holds an integral value as an ``int`` and any other as a ``Fraction``:
every operation of Q returns that form, so integral coefficients, the
common case, stay in machine-word-fast ints.  Tropical keeps Fractions.
"""

import math
import re
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from itertools import compress
from operator import add as _add, and_ as _and, attrgetter, mul as _mul

from .errors import (
    AlgebraMismatch,
    DenominatorHeadZero,
    SingularMatrix,
    UnsupportedOp,
)

NEG_INF = float("-inf")  # degree of the zero polynomial
INF = math.inf  # additive zero of the tropical semiring


class Algebra:
    """A pluggable exact coefficient domain.

    ``kind`` is one of ``semiring``, ``ring``, ``field``.  Rings add
    ``neg``; fields add ``inv`` (partial: undefined at zero).  The
    remaining hooks are optional and ``None`` when absent:

    * ``inv`` may also be present on a non-field as a partial map over
      the invertible elements (e.g. ±1 in the integers),
    * ``sqrt`` is an exact partial square root,
    * ``lt`` is a total order (present iff ``ordered``).

    ``dot(xs, ys, weights=None)`` is the fused sum of products
    w0*x0*y0 + w1*x1*y1 + ... over two equally long, non-empty
    sequences, each weight a non-negative integer taken as its image in
    the algebra (the sum of that many ones; no weights means all ones).
    It must equal the left fold of ``add`` over the products
    ``mul(w, mul(x, y))`` exactly, in value and in type.  Without a
    kernel of its own an algebra gets that fold.

    ``coerce`` normalises foreign representations (plain ints into Q,
    integers mod p, ...) and raises :class:`AlgebraMismatch` for values
    outside the carrier.  Instances are compared by identity; the module
    registry memoises them so that e.g. ``get_algebra("Fp(3)")`` always
    returns the same object.
    """

    __slots__ = (
        "name",
        "kind",
        "ordered",
        "zero",
        "one",
        "add",
        "mul",
        "eq",
        "neg",
        "inv",
        "sqrt",
        "lt",
        "coerce",
        "parse",
        "fmt",
        "characteristic",
        "sample",
        "dot",
    )

    def __init__(self, name, kind, zero, one, add, mul, eq, coerce, parse, fmt,
                 sample, neg=None, inv=None, sqrt=None, lt=None,
                 characteristic=None, dot=None):
        if kind not in ("semiring", "ring", "field"):
            raise ValueError(f"bad algebra kind {kind!r}")
        if kind in ("ring", "field") and neg is None:
            raise ValueError(f"{name}: kind {kind} requires neg")
        if kind == "field" and inv is None:
            raise ValueError(f"{name}: fields require inv")
        self.name = name
        self.kind = kind
        self.ordered = lt is not None
        self.zero = zero
        self.one = one
        self.add = add
        self.mul = mul
        self.eq = eq
        self.neg = neg
        self.inv = inv
        self.sqrt = sqrt
        self.lt = lt
        self.coerce = coerce
        self.parse = parse
        self.fmt = fmt
        self.characteristic = characteristic
        self.sample = sample
        if dot is None:
            def dot(xs, ys, weights=None):
                terms = map(mul, xs, ys)
                if weights is not None:
                    terms = map(mul, (self.nat_mul(w, one) for w in weights), terms)
                return reduce(add, terms)
        self.dot = dot

    def sub(self, a, b):
        if self.neg is None:
            raise UnsupportedOp(f"{self.name} has no subtraction")
        return self.add(a, self.neg(b))

    def is_zero(self, a):
        return self.eq(a, self.zero)

    def nat_mul(self, n, a):
        """n-fold sum of ``a`` (double-and-add); works in any semiring."""
        acc = self.zero
        base = a
        while n:
            if n & 1:
                acc = self.add(acc, base)
            n >>= 1
            if n:
                base = self.add(base, base)
        return acc

    def __repr__(self):
        return f"<Algebra {self.name}>"


def same_algebra(a, b):
    if a is not b:
        raise AlgebraMismatch(f"{a.name} vs {b.name}")
    return a


# ---------------------------------------------------------------------------
# Built-in algebras


def _q_coerce(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise AlgebraMismatch(f"{x!r} is not a rational")


def _q_sqrt(a):
    if a < 0:
        return None
    rn, rd = math.isqrt(a.numerator), math.isqrt(a.denominator)
    if rn * rn == a.numerator and rd * rd == a.denominator:
        return Fraction(rn, rd)
    return None


def _rational(x):
    """The form Q holds the rational x in: an int when it is integral."""
    return x.numerator if x.denominator == 1 else x


def _rational_add(a, b):
    c = a + b
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _rational_mul(a, b):
    c = a * b
    return c if type(c) is int or c.denominator != 1 else c.numerator


_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def _q_dot(xs, ys, weights=None):
    """A plain integer sum when every factor is an int; else a sum over
    the lcm of the products' denominators, normalised once."""
    if {*map(type, xs), *map(type, ys)} == {int}:
        return _int_dot(xs, ys, weights)
    dens = list(map(_mul, map(_denominator, xs), map(_denominator, ys)))
    nums = map(_mul, map(_numerator, xs), map(_numerator, ys))
    if weights is not None:
        nums = map(_mul, weights, nums)
    common = math.lcm(*dens)
    if common == 1:
        return sum(nums)
    return _rational(Fraction(sum(map(_mul, nums, map(common.__floordiv__, dens))), common))


def _q_sample(rng):
    return _rational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def _int_coerce(x):
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    raise AlgebraMismatch(f"{x!r} is not an integer")


def _int_dot(xs, ys, weights=None):
    terms = map(_mul, xs, ys)
    if weights is not None:
        terms = map(_mul, weights, terms)
    return sum(terms)


def _int_sqrt(a):
    if a < 0:
        return None
    r = math.isqrt(a)
    return r if r * r == a else None


def _int_inv(a):
    return a if a in (1, -1) else None


# CPython refuses int/str conversions of more than
# sys.get_int_max_str_digits() digits (4300 by default), and the limit is
# process-wide; decimal.Decimal converts exact integers of any size.

_LONG_LITERAL = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def format_int(n):
    """str(n) for an int of any size."""
    try:
        return str(n)
    except ValueError:  # beyond the digit limit
        return str(Decimal(n))


def format_fraction(q):
    """str(q) for a Fraction of any size."""
    if q.denominator == 1:
        return format_int(q.numerator)
    return f"{format_int(q.numerator)}/{format_int(q.denominator)}"


def _parse_int(text):
    try:
        return int(text)
    except ValueError:
        match = _LONG_LITERAL.fullmatch(text)
        if match is not None and match[2] is None:  # beyond the digit limit
            return int(Decimal(text))
    raise AlgebraMismatch(f"bad integer literal {text!r}")


def _parse_q(text):
    # d or d/d in ASCII digits, as a spec writes its literals, is built from
    # its integers, about three times as fast as by Fraction's regex;
    # isascii() as well, since '²'.isdigit() is true
    num, slash, den = text.partition("/")
    if text.isascii() and num.isdigit() and (den.isdigit() or not slash):
        try:
            num, den = int(num), int(den) if slash else 1
        except ValueError:  # beyond the digit limit
            pass
        else:
            if den:
                return Fraction(num, den)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        pass
    except ValueError:
        match = _LONG_LITERAL.fullmatch(text)
        if match is not None:  # beyond the digit limit
            num, den = match.groups()
            den = 1 if den is None else int(Decimal(den))
            if den:
                return Fraction(int(Decimal(num)), den)
    raise AlgebraMismatch(f"bad rational literal {text!r}")


_Q = Algebra(
    name="Q", kind="field",
    zero=0, one=1,
    add=_rational_add, mul=_rational_mul,
    eq=lambda a, b: a == b,
    neg=lambda a: -a,
    inv=lambda a: None if a == 0 else _rational(1 / Fraction(a)),
    sqrt=lambda a: None if (r := _q_sqrt(a)) is None else _rational(r),
    lt=lambda a, b: a < b,
    coerce=lambda x: x if type(x) is int else _rational(_q_coerce(x)),
    parse=lambda t: _rational(_parse_q(t)),
    fmt=format_fraction,
    characteristic=0,
    sample=_q_sample,
    dot=_q_dot,
)

_Z = Algebra(
    name="Z", kind="ring",
    zero=0, one=1,
    add=lambda a, b: a + b, mul=lambda a, b: a * b,
    eq=lambda a, b: a == b,
    neg=lambda a: -a,
    inv=_int_inv,
    sqrt=_int_sqrt,
    lt=lambda a, b: a < b,
    coerce=_int_coerce,
    parse=_parse_int,
    fmt=format_int,
    characteristic=0,
    sample=lambda rng: rng.randint(-9, 9),
    dot=_int_dot,
)


def _nat_coerce(x):
    n = _int_coerce(x)
    if n < 0:
        raise AlgebraMismatch(f"{n} is not a natural number")
    return n


_NAT = Algebra(
    name="Nat", kind="semiring",
    zero=0, one=1,
    add=lambda a, b: a + b, mul=lambda a, b: a * b,
    eq=lambda a, b: a == b,
    inv=lambda a: 1 if a == 1 else None,
    sqrt=_int_sqrt,
    lt=lambda a, b: a < b,
    coerce=_nat_coerce,
    parse=lambda t: _nat_coerce(_parse_int(t)),
    fmt=format_int,
    sample=lambda rng: rng.randint(0, 9),
    dot=_int_dot,
)


def _bool_coerce(x):
    if isinstance(x, bool):
        return x
    if x in (0, 1):
        return bool(x)
    raise AlgebraMismatch(f"{x!r} is not a Boolean")


def _bool_parse(text):
    if text in ("0", "false"):
        return False
    if text in ("1", "true"):
        return True
    raise AlgebraMismatch(f"bad Boolean literal {text!r}")


def _bool_dot(xs, ys, weights=None):
    # a zero weight drops its term; any() gives the True/False singletons
    # that eq compares by identity
    terms = map(_and, xs, ys)
    return any(terms if weights is None else compress(terms, weights))


_BOOL = Algebra(
    name="Bool", kind="semiring",
    zero=False, one=True,
    add=lambda a, b: a or b, mul=lambda a, b: a and b,
    eq=lambda a, b: a is b,
    inv=lambda a: True if a else None,
    sqrt=lambda a: a,
    coerce=_bool_coerce,
    parse=_bool_parse,
    fmt=lambda a: "1" if a else "0",
    sample=lambda rng: rng.random() < 0.5,
    dot=_bool_dot,
)


def _trop_coerce(x):
    if x == INF:
        return INF
    return _q_coerce(x)


def _trop_parse(text):
    if text == "inf":
        return INF
    return _parse_q(text)


def _trop_dot(xs, ys, weights=None):
    # a positive weight's image is the unit 0, which keeps its term; the
    # image of 0 is inf, which drops it
    terms = map(_add, xs, ys)
    return min(terms if weights is None else compress(terms, weights), default=INF)


_TROPICAL = Algebra(
    name="Tropical", kind="semiring",
    zero=INF, one=Fraction(0),
    add=min, mul=lambda a, b: a + b,
    eq=lambda a, b: a == b,
    inv=lambda a: None if a == INF else -a,
    sqrt=lambda a: INF if a == INF else a / 2,
    coerce=_trop_coerce,
    parse=_trop_parse,
    fmt=lambda a: "inf" if a == INF else format_fraction(a),
    sample=lambda rng: INF if rng.random() < 0.15 else Fraction(rng.randint(-9, 9)),
    dot=_trop_dot,
)


_GF_CACHE = {}
# Miller-Rabin with these bases is exact below 3.18e23, so on every modulus
# gf accepts
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MAX_MODULUS = 2 ** 64


def _is_prime(n):
    if n < 2:
        return False
    for b in _WITNESSES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in _WITNESSES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _fp_sqrt(a, p):
    """The smaller square root of a mod the prime p, or None, by
    Tonelli-Shanks."""
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while not q & 1:
        q, s = q >> 1, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


def gf(p):
    """The prime field F_p for a prime p < 2^64; instances are memoised
    per p."""
    if p in _GF_CACHE:
        return _GF_CACHE[p]
    if p >= MAX_MODULUS:
        raise ValueError(f"modulus {p} is too large: Fp needs a prime below 2^64")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")

    def coerce(x):
        if isinstance(x, int) and not isinstance(x, bool):
            return x % p
        if isinstance(x, Fraction) and math.gcd(x.denominator, p) == 1:
            return x.numerator * pow(x.denominator, -1, p) % p
        raise AlgebraMismatch(f"{x!r} is not in F_{p}")

    def dot(xs, ys, weights=None):
        terms = map(_mul, xs, ys)
        return sum(terms if weights is None else map(_mul, weights, terms)) % p

    alg = Algebra(
        name="F2" if p == 2 else f"Fp({p})", kind="field",
        zero=0, one=1 % p,
        add=lambda a, b: (a + b) % p, mul=lambda a, b: (a * b) % p,
        eq=lambda a, b: a == b,
        neg=lambda a: (-a) % p,
        inv=lambda a: None if a % p == 0 else pow(a, -1, p),
        sqrt=lambda a: _fp_sqrt(a, p),
        coerce=coerce,
        parse=lambda t: coerce(_parse_int(t)),
        fmt=str,
        characteristic=p,
        sample=lambda rng: rng.randrange(p),
        dot=dot,
    )
    _GF_CACHE[p] = alg
    return alg


def prime_modulus(alg):
    """p if alg is the field gf(p), else None."""
    p = alg.characteristic
    return p if _GF_CACHE.get(p) is alg else None


_NAMED = {"Q": _Q, "Z": _Z, "Nat": _NAT, "Bool": _BOOL, "Tropical": _TROPICAL}


def get_algebra(name):
    """Resolve an algebra directive: Q, Z, F2, Fp(p), Bool, Nat, Tropical."""
    if name in _NAMED:
        return _NAMED[name]
    if name == "F2":
        return gf(2)
    if name.startswith("Fp(") and name.endswith(")"):
        try:
            p = int(name[3:-1])
        except ValueError:
            raise UnsupportedOp(f"bad modulus in {name!r}") from None
        try:
            return gf(p)
        except ValueError as err:
            raise UnsupportedOp(str(err)) from None
    raise UnsupportedOp(f"unknown algebra {name!r}")


def registered_algebras():
    return [_Q, _Z, _NAT, _BOOL, _TROPICAL, gf(2), gf(5)]


def rationals():
    return _Q


def integers():
    return _Z


def naturals():
    return _NAT


def booleans():
    return _BOOL


def tropical():
    return _TROPICAL


# ---------------------------------------------------------------------------
# Polynomials


class Poly:
    """Dense polynomial over an Algebra; coefficient of X^i at position i.

    The representation is normalised (no trailing zeros), which makes it
    unique per polynomial; the zero polynomial has degree -inf.
    """

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        while coeffs and algebra.is_zero(coeffs[-1]):
            coeffs = coeffs[:-1]
        self.algebra = algebra
        self.coeffs = tuple(coeffs)

    @classmethod
    def from_ints(cls, algebra, ints):
        return cls(algebra, [algebra.coerce(c) for c in ints])

    @classmethod
    def const(cls, algebra, a):
        return cls(algebra, (algebra.coerce(a),))

    @classmethod
    def x(cls, algebra):
        return cls(algebra, (algebra.zero, algebra.one))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def coeff(self, i):
        return self.coeffs[i] if i < len(self.coeffs) else self.algebra.zero

    def at_zero(self):
        return self.coeff(0)

    def shift_down(self):
        """Exact division by X; requires a zero constant term."""
        if self.coeffs and not self.algebra.is_zero(self.coeffs[0]):
            raise ValueError("polynomial not divisible by X")
        return Poly(self.algebra, self.coeffs[1:])

    def scale(self, a):
        alg = self.algebra
        return Poly(alg, [alg.mul(a, c) for c in self.coeffs])

    def __add__(self, other):
        alg = same_algebra(self.algebra, other.algebra)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(alg, [alg.add(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __sub__(self, other):
        alg = same_algebra(self.algebra, other.algebra)
        if alg.neg is None:
            raise UnsupportedOp(f"{alg.name} has no subtraction")
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(alg, [alg.sub(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __neg__(self):
        alg = self.algebra
        if alg.neg is None:
            raise UnsupportedOp(f"{alg.name} has no negation")
        return Poly(alg, [alg.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        alg = same_algebra(self.algebra, other.algebra)
        if self.is_zero() or other.is_zero():
            return Poly(alg, ())
        out = [alg.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = alg.add(out[i + j], alg.mul(a, b))
        return Poly(alg, out)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.algebra is other.algebra
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.algebra), self.coeffs))

    def divmod(self, other):
        """Euclidean division; denominator algebra must be a field."""
        alg = same_algebra(self.algebra, other.algebra)
        if alg.kind != "field":
            raise UnsupportedOp("polynomial division needs a field")
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        lead_inv = alg.inv(other.coeffs[-1])
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(alg, ()), self
        quot = [alg.zero] * (dq + 1)
        for k in range(dq, -1, -1):
            top = rem[k + len(other.coeffs) - 1]
            if alg.is_zero(top):
                continue
            q = alg.mul(top, lead_inv)
            quot[k] = q
            for j, b in enumerate(other.coeffs):
                rem[k + j] = alg.sub(rem[k + j], alg.mul(q, b))
        return Poly(alg, quot), Poly(alg, rem)

    def monic(self):
        alg = self.algebra
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if alg.eq(lead, alg.one):
            return self
        return self.scale(alg.inv(lead))

    def __repr__(self):
        return f"Poly({self.algebra.name}, {format_poly(self)!r})"


def poly_arith(op, a, b):
    """Spec-surface polynomial arithmetic: op in {add, sub, mul}."""
    same_algebra(a.algebra, b.algebra)
    if op == "add":
        return a + b
    if op == "sub":
        if a.algebra.kind == "semiring":
            raise UnsupportedOp(f"sub over semiring {a.algebra.name}")
        return a - b
    if op == "mul":
        return a * b
    raise UnsupportedOp(f"unknown polynomial op {op!r}")


# the prime of poly_gcd's coprimality certificate over Q
CERTIFICATE_PRIME = 2 ** 61 - 1


def poly_gcd(a, b):
    """Monic gcd over a field: by the Euclidean algorithm, except where
    one prime certifies a pair over Q coprime.

    Over Q both polynomials are first scaled to integer coefficients and
    reduced mod q = CERTIFICATE_PRIME.  If q divides neither leading
    coefficient and the gcd mod q is a constant, the gcd is 1.  This is
    exact: the primitive integer gcd g divides each integer polynomial
    in Z[X] (Gauss's lemma), so g mod q divides both reductions, and it
    keeps its degree because its leading coefficient divides theirs.
    Hence deg gcd mod q >= deg g.  Otherwise the Euclidean algorithm runs
    on the Fractions, whose coefficients can grow large.
    """
    alg = same_algebra(a.algebra, b.algebra)
    if alg.kind != "field":
        raise UnsupportedOp("gcd needs a field")
    if alg is _Q and _coprime_mod_q(a, b):
        return Poly(alg, (alg.one,))
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic()


def _coprime_mod_q(a, b):
    """Whether CERTIFICATE_PRIME certifies the Q polynomials a and b
    coprime (see poly_gcd)."""
    if a.is_zero() or b.is_zero():
        return False
    q = CERTIFICATE_PRIME
    reduced = []
    for p in (a, b):
        common = math.lcm(*map(_denominator, p.coeffs))
        ints = [c.numerator * (common // c.denominator) % q for c in p.coeffs]
        if not ints[-1]:
            return False
        reduced.append(ints)
    a, b = reduced
    # Euclid mod q on coefficient lists without trailing zeros
    while len(b) > 1:
        inv = pow(b[-1], -1, q)
        while len(a) >= len(b):
            f = a[-1] * inv % q
            top = len(a) - len(b)
            for j in range(len(b) - 1):
                a[top + j] = (a[top + j] - f * b[j]) % q
            a.pop()
            while a and not a[-1]:
                a.pop()
        if not a:
            return False
        a, b = b, a
    return True


def format_poly(p):
    """Render as `a0 + a1*X + a2*X^2`, folding unit coefficients and signs."""
    alg = p.algebra
    if p.is_zero():
        return alg.fmt(alg.zero)
    parts = []
    for i, c in enumerate(p.coeffs):
        if alg.is_zero(c):
            continue
        text = alg.fmt(c)
        negative = text.startswith("-")
        mag = text[1:] if negative else text
        if i == 0:
            body = mag
        else:
            xpow = "X" if i == 1 else f"X^{i}"
            body = xpow if mag == alg.fmt(alg.one) else f"{mag}*{xpow}"
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Rational expressions


class RatExpr:
    """Canonical rational expression num/den with den(0) = 1.

    Canonical means gcd(num, den) = 1 and the denominator is normalised
    to constant term one, so equality of values is exactly structural
    equality.  Use :func:`ratexpr_normalize` to construct one.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den, _raw=False):
        if not _raw:
            canon = ratexpr_normalize(num, den)
            num, den = canon.num, canon.den
        self.num = num
        self.den = den

    @property
    def algebra(self):
        return self.num.algebra

    @classmethod
    def from_poly(cls, p):
        r = cls.__new__(cls)
        r.num = p
        r.den = Poly.const(p.algebra, p.algebra.one)
        return r

    @classmethod
    def const(cls, algebra, a):
        return cls.from_poly(Poly.const(algebra, a))

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        return ratexpr_normalize(self.num * other.den + other.num * self.den,
                                 self.den * other.den)

    def __sub__(self, other):
        return ratexpr_normalize(self.num * other.den - other.num * self.den,
                                 self.den * other.den)

    def __neg__(self):
        return ratexpr_normalize(-self.num, self.den)

    def __mul__(self, other):
        return ratexpr_normalize(self.num * other.num, self.den * other.den)

    def reciprocal(self):
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of the zero rational expression")
        if self.num.algebra.is_zero(self.num.at_zero()):
            raise DenominatorHeadZero("inverse has denominator head zero")
        return ratexpr_normalize(self.den, self.num)

    def __truediv__(self, other):
        return self * other.reciprocal()

    def __eq__(self, other):
        return (isinstance(other, RatExpr) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatExpr({format_ratexpr(self)!r})"


def ratexpr_normalize(num, den):
    """Canonicalise num/den; requires den(0) != 0.

    The gcd is removed and both parts are scaled so that den(0) = 1,
    which matches every displayed closed form (1/(1-X), X/(1-X-X^2),
    (1+X)/(1-X)^3, ...) and keeps head computation trivial.
    """
    alg = same_algebra(num.algebra, den.algebra)
    if alg.kind != "field":
        raise UnsupportedOp("rational expressions need a field algebra")
    if alg.is_zero(den.at_zero()):
        raise DenominatorHeadZero(f"denominator {format_poly(den)} vanishes at 0")
    if num.is_zero():
        one = Poly.const(alg, alg.one)
        return RatExpr(Poly(alg, ()), one, _raw=True)
    g = poly_gcd(num, den)
    if g.degree > 0:
        num = num.divmod(g)[0]
        den = den.divmod(g)[0]
    scale = alg.inv(den.at_zero())
    if not alg.eq(scale, alg.one):
        num = num.scale(scale)
        den = den.scale(scale)
    return RatExpr(num, den, _raw=True)


def ratexpr_head(r):
    """Initial value of the stream denoted by r: num(0)/den(0) = num(0)."""
    alg = r.algebra
    return alg.mul(r.num.at_zero(), alg.inv(r.den.at_zero()))


def ratexpr_coefficients(r, count):
    """The first `count` coefficients of r as a power series.

    With den(0) = 1, num = den * sum a_k X^k gives
    a_k = num_k - sum_{j >= 1} den_j * a_(k-j).
    """
    alg = r.algebra
    num, den = r.num, r.den
    coeffs = []
    for k in range(count):
        acc = num.coeff(k)
        for j in range(1, min(k, den.degree) + 1):
            acc = alg.sub(acc, alg.mul(den.coeff(j), coeffs[k - j]))
        coeffs.append(acc)
    return coeffs


def ratexpr_derivative(r):
    """Stream derivative: (num - head*den) / (X*den), with the division
    by X exact because the shifted numerator has zero constant term."""
    head = ratexpr_head(r)
    shifted = (r.num - r.den.scale(head)).shift_down()
    return ratexpr_normalize(shifted, r.den)


def format_ratexpr(r):
    return f"({format_poly(r.num)})/({format_poly(r.den)})"


# ---------------------------------------------------------------------------
# Exact linear solving over rational expressions


def gauss_solve(matrix, rhs):
    """Solve M x = b over rational expressions by Gaussian elimination.

    Pivots are chosen by nonzero *head* (value at 0), which keeps every
    intermediate entry a valid rational expression: if no column entry
    has a nonzero head the head matrix is singular, contradicting the
    precondition that det(M) has an invertible head.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("shape mismatch")
    rows = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    alg = rhs[0].algebra if n else None
    for col in range(n):
        pivot = None
        for i in range(col, n):
            if not alg.is_zero(ratexpr_head(rows[i][col])):
                pivot = i
                break
        if pivot is None:
            raise SingularMatrix(f"no invertible-head pivot in column {col}")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = rows[col][col].reciprocal()
        rows[col] = [entry * inv for entry in rows[col]]
        for i in range(n):
            if i == col:
                continue
            factor = rows[i][col]
            if factor.is_zero():
                continue
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[col])]
    return [rows[i][n] for i in range(n)]
