"""Coefficient domains, polynomials, rational expressions, elimination."""

import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Q, rand_ratexpr, seeded
from streamcalc import (
    AlgebraMismatch,
    DenominatorHeadZero,
    Poly,
    RatExpr,
    SingularMatrix,
    UnsupportedOp,
    format_poly,
    format_ratexpr,
    gauss_solve,
    gf,
    poly_arith,
    poly_gcd,
    ratexpr_derivative,
    ratexpr_head,
    ratexpr_normalize,
)
from streamcalc.algebra import (
    CERTIFICATE_PRIME,
    INF,
    Algebra,
    _coprime_mod_q,
    _is_prime,
    get_algebra,
    registered_algebras,
)
from streamcalc import calculus
from streamcalc.solvers import ratexpr_stream
from streamcalc.stream import bounded_eq, Equal


def P(*ints):
    return Poly.from_ints(Q, ints)


class TestAlgebraLaws:
    # the commutative-semiring axiom suite, >= 1000 random triples each
    def test_axioms_per_algebra(self):
        rng = seeded(20240817)
        for alg in registered_algebras():
            for _ in range(1500):
                a, b, c = (alg.sample(rng) for _ in range(3))
                assert alg.eq(alg.add(alg.add(a, b), c), alg.add(a, alg.add(b, c)))
                assert alg.eq(alg.add(alg.zero, a), a)
                assert alg.eq(alg.add(a, b), alg.add(b, a))
                assert alg.eq(alg.mul(alg.mul(a, b), c), alg.mul(a, alg.mul(b, c)))
                assert alg.eq(alg.mul(alg.one, a), a)
                assert alg.eq(alg.mul(a, b), alg.mul(b, a))
                assert alg.eq(alg.mul(a, alg.add(b, c)),
                              alg.add(alg.mul(a, b), alg.mul(a, c)))
                assert alg.eq(alg.mul(alg.add(a, b), c),
                              alg.add(alg.mul(a, c), alg.mul(b, c)))
                assert alg.eq(alg.mul(alg.zero, a), alg.zero)

    def test_ring_and_field_laws(self):
        rng = seeded(7)
        for alg in registered_algebras():
            for _ in range(300):
                a = alg.sample(rng)
                if alg.kind in ("ring", "field"):
                    assert alg.eq(alg.add(a, alg.neg(a)), alg.zero)
                if alg.kind == "field" and not alg.is_zero(a):
                    assert alg.eq(alg.mul(a, alg.inv(a)), alg.one)

    def test_partial_inverses(self):
        Z = __import__("streamcalc").integers()
        assert Z.inv(1) == 1 and Z.inv(-1) == -1 and Z.inv(2) is None
        F5 = gf(5)
        assert F5.mul(F5.inv(3), 3) == 1

    def test_non_prime_modulus_is_unsupported(self):
        from streamcalc import get_algebra

        with pytest.raises(UnsupportedOp, match="4 is not prime"):
            get_algebra("Fp(4)")
        assert get_algebra("Fp(7)") is gf(7)

    def test_fp_parse_reduces(self):
        assert gf(2).parse("5") == 1
        assert gf(7).coerce(Fraction(1, 2)) == 4  # 2*4 = 8 = 1 mod 7


class TestPoly:
    def test_add(self):
        assert poly_arith("add", P(1, 1), P(0, 1)) == P(1, 2)

    def test_mul_difference_of_squares(self):
        assert poly_arith("mul", P(1, -1), P(1, 1)) == P(1, 0, -1)

    def test_mul_over_f2(self):
        # oracle: schoolbook convolution mod 2 of (1+X)^2 -> 1 + 2X + X^2
        F2 = gf(2)
        p = Poly.from_ints(F2, [1, 1])
        expected = [0] * 3
        for i, a in enumerate([1, 1]):
            for j, b in enumerate([1, 1]):
                expected[i + j] = (expected[i + j] + a * b) % 2
        assert poly_arith("mul", p, p).coeffs == tuple(expected) == (1, 0, 1)

    def test_sub_requires_ring(self):
        Nat = __import__("streamcalc.algebra", fromlist=["naturals"]).naturals()
        with pytest.raises(UnsupportedOp):
            poly_arith("sub", Poly.from_ints(Nat, [1]), Poly.from_ints(Nat, [2]))

    def test_algebra_mismatch(self):
        with pytest.raises(AlgebraMismatch):
            poly_arith("add", P(1), Poly.from_ints(gf(2), [1]))

    def test_zero_degree_marker(self):
        assert P().degree == float("-inf")
        assert P(3).degree == 0

    def test_normalized_unique(self):
        assert Poly(Q, [Fraction(1), Fraction(0), Fraction(0)]) == P(1)

    def test_format(self):
        assert format_poly(P(1, -1, -1)) == "1 - X - X^2"
        assert format_poly(P(0, 1)) == "X"
        assert format_poly(Poly(Q, [Fraction(1, 2), Fraction(0), Fraction(3)])) \
            == "1/2 + 3*X^2"


_coeff = st.fractions(min_value=-20, max_value=20, max_denominator=6)
_poly = st.lists(_coeff, max_size=6).map(lambda cs: Poly(Q, cs))
_unit_head_poly = st.lists(_coeff, max_size=5).map(
    lambda cs: Poly(Q, [Fraction(1)] + cs))


class TestPolyLaws:
    @given(_poly, _poly, _poly)
    @settings(max_examples=150, deadline=None)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Poly(Q, ())

    @given(_poly, _unit_head_poly)
    @settings(max_examples=150, deadline=None)
    def test_divmod_reconstructs(self, a, b):
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree

    @given(_poly, _unit_head_poly, _unit_head_poly)
    @settings(max_examples=100, deadline=None)
    def test_gcd_divides_both(self, m, a, b):
        g = poly_gcd(a, b)
        assert a.divmod(g)[1].is_zero()
        assert b.divmod(g)[1].is_zero()
        # a common factor always shows up in the gcd
        g2 = poly_gcd(a * m, b * m)
        if not m.is_zero():
            assert g2.divmod(m.monic())[1].is_zero()


class TestRatExprLaws:
    @given(_poly, _unit_head_poly, _poly, _unit_head_poly)
    @settings(max_examples=100, deadline=None)
    def test_field_laws(self, p1, q1, p2, q2):
        r1 = ratexpr_normalize(p1, q1)
        r2 = ratexpr_normalize(p2, q2)
        assert r1 + r2 == r2 + r1
        assert r1 * r2 == r2 * r1
        assert (r1 + r2) - r2 == r1
        if not r2.is_zero() and not Q.is_zero(r2.num.at_zero()):
            assert (r1 * r2) / r2 == r1


class TestRatExpr:
    def test_normalize_cancels_gcd(self):
        # (X(1-X)) / ((1-X)(1-X-X^2)) -> X/(1-X-X^2); gcd oracle: Euclid
        num = P(0, 1) * P(1, -1)
        den = P(1, -1) * P(1, -1, -1)
        r = ratexpr_normalize(num, den)
        assert r.num == P(0, 1)
        assert r.den == P(1, -1, -1)

    def test_normalize_zero(self):
        r = ratexpr_normalize(P(), P(1))
        assert r.num.is_zero() and r.den == P(1)

    def test_normalize_scales_head(self):
        # X / (2 - 2X) -> (X/2) / (1 - X)
        r = ratexpr_normalize(P(0, 1), P(2, -2))
        assert r.num == Poly(Q, [Fraction(0), Fraction(1, 2)])
        assert r.den == P(1, -1)

    def test_normalize_idempotent(self):
        rng = seeded(3)
        for _ in range(200):
            r = rand_ratexpr(rng)
            again = ratexpr_normalize(r.num, r.den)
            assert again == r

    def test_denominator_head_zero(self):
        with pytest.raises(DenominatorHeadZero):
            ratexpr_normalize(P(1), P(0, 1))

    def test_head_fibonacci(self):
        assert ratexpr_head(ratexpr_normalize(P(0, 1), P(1, -1, -1))) == 0

    def test_head_ones(self):
        assert ratexpr_head(ratexpr_normalize(P(1), P(1, -1))) == 1

    def test_head_nats_squared(self):
        r = ratexpr_normalize(P(1, 1), P(1, -1) * P(1, -1) * P(1, -1))
        assert ratexpr_head(r) == 1

    def test_derivative_fibonacci(self):
        # oracle: prefix comparison against the tail of the Fibonacci stream
        fib = ratexpr_normalize(P(0, 1), P(1, -1, -1))
        assert ratexpr_derivative(fib) == ratexpr_normalize(P(1), P(1, -1, -1))
        lhs = ratexpr_stream(ratexpr_derivative(fib))
        rhs = ratexpr_stream(fib).tail
        assert isinstance(bounded_eq(lhs, rhs, 32), Equal)

    def test_derivative_ones(self):
        ones = ratexpr_normalize(P(1), P(1, -1))
        assert ratexpr_derivative(ones) == ones

    def test_derivative_constant(self):
        assert ratexpr_derivative(ratexpr_normalize(P(7), P(1))).is_zero()

    def test_format(self):
        assert format_ratexpr(ratexpr_normalize(P(0, 1), P(1, -1, -1))) \
            == "(X)/(1 - X - X^2)"

    def test_two_evaluation_paths_agree(self):
        # iterated head/derivative vs the calculus stream num * inv(den)
        rng = seeded(11)
        for _ in range(25):
            r = rand_ratexpr(rng, max_deg=4)
            by_derivatives = ratexpr_stream(r)
            by_calculus = calculus.conv_mul(
                calculus.stream_of_poly(r.num),
                calculus.conv_inv(calculus.stream_of_poly(r.den)))
            assert isinstance(
                bounded_eq(by_derivatives, by_calculus, 64, budget=2_000_000),
                Equal)

    def test_prefix_equality_implies_structural(self):
        # degree <= 16 inputs: 64-prefix agreement forces p1 q2 = p2 q1
        rng = seeded(13)
        for _ in range(200):
            r1 = rand_ratexpr(rng, max_deg=8)
            r2 = rand_ratexpr(rng, max_deg=8)
            agree = isinstance(
                bounded_eq(ratexpr_stream(r1), ratexpr_stream(r2), 64), Equal)
            assert agree == (r1.num * r2.den == r2.num * r1.den) == (r1 == r2)


class TestGaussSolve:
    def test_identity_system(self):
        rng = seeded(17)
        b = [rand_ratexpr(rng, 3) for _ in range(3)]
        eye = [[RatExpr.const(Q, Q.one if i == j else Q.zero) for j in range(3)]
               for i in range(3)]
        assert gauss_solve(eye, b) == b

    def test_fibonacci_2x2(self):
        # the (I - X M) system of the worked Fibonacci example
        one, zero = RatExpr.const(Q, 1), RatExpr.const(Q, 0)
        x = RatExpr.from_poly(P(0, 1))
        m = [[one, zero - x], [zero - x, one - x]]
        b = [zero, one]
        sol = gauss_solve(m, b)
        assert sol[0] == ratexpr_normalize(P(0, 1), P(1, -1, -1))
        assert sol[1] == ratexpr_normalize(P(1), P(1, -1, -1))

    def test_1x1(self):
        # (1 - X) x = 1, checked by multiplying back
        coeff = RatExpr.from_poly(P(1, -1))
        sol = gauss_solve([[coeff]], [RatExpr.const(Q, 1)])
        assert sol[0] == ratexpr_normalize(P(1), P(1, -1))
        assert coeff * sol[0] == RatExpr.const(Q, 1)

    def test_singular(self):
        zero = RatExpr.const(Q, 0)
        with pytest.raises(SingularMatrix):
            gauss_solve([[zero, zero], [zero, zero]],
                        [RatExpr.const(Q, 1), RatExpr.const(Q, 1)])


def test_tropical_sqrt_and_inverse():
    from streamcalc.algebra import INF, tropical

    T = tropical()
    assert T.sqrt(Fraction(3)) == Fraction(3, 2)  # mul is +, so sqrt halves
    assert T.sqrt(INF) == INF
    assert T.inv(Fraction(5)) == Fraction(-5)
    assert T.inv(INF) is None


def _decimal(n):
    """Decimal text of an int of any size, 1000 digits at a time."""
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunks = []
    while n >= 10 ** 1000:
        n, low = divmod(n, 10 ** 1000)
        chunks.append(f"{low:01000d}")
    return sign + str(n) + "".join(reversed(chunks))


def test_exact_values_beyond_the_str_digit_limit():
    # CPython's default limit on int/str conversion is 4300 digits
    from streamcalc.algebra import get_algebra

    rng = seeded(11)
    Z, NAT = get_algebra("Z"), get_algebra("Nat")
    for digits in (1, 4299, 4300, 4301, 8000, 13000):
        for _ in range(5):
            n = rng.randrange(10 ** (digits - 1), 10 ** digits)
            text = _decimal(n)
            assert NAT.fmt(n) == text and NAT.parse(text) == n
            assert Z.fmt(-n) == "-" + text and Z.parse("-" + text) == -n
            q = Fraction(n, rng.randrange(1, 10 ** 5000) * 2 + 1)
            assert Q.parse(Q.fmt(q)) == q
            assert Q.fmt(q) == f"{_decimal(q.numerator)}/{_decimal(q.denominator)}"
    with pytest.raises(AlgebraMismatch, match="bad integer literal"):
        Z.parse("1/" + "3" * 5000)
    with pytest.raises(AlgebraMismatch, match="bad rational literal"):
        Q.parse("1/" + "0" * 5000)


@pytest.mark.parametrize("alg", [Q, get_algebra("Tropical")], ids=["Q", "Tropical"])
def test_digit_literals_read_from_their_integers(alg):
    # d and d/d in ASCII digits are built from their integers, and agree
    # with Fraction's own reading of the text; Q holds an integral value
    # as an int, Tropical every value as a Fraction
    for text in ("0", "007/010", "0/5", "12345/6789", "3", "4/6"):
        value = alg.parse(text)
        integral = Fraction(text).denominator == 1
        held = int if alg is Q and integral else Fraction
        assert type(value) is held and value == Fraction(text), text
    # everything else keeps its value or its error
    long = "7" * 5000
    assert alg.parse(long) == int(Decimal(long))
    assert alg.parse("1/" + long) == Fraction(1, int(Decimal(long)))
    for text in ("1/0", "\u00b2", "1/\u00b2", "3/", "/3", "", "1/-2"):
        with pytest.raises(AlgebraMismatch, match=re.escape(f"bad rational literal {text!r}")):
            alg.parse(text)
    assert alg.parse("\u0661\u0662/\u0663") == Fraction(4)  # Arabic-Indic digits 12/3
    assert alg.parse("-2/4") == Fraction(-1, 2) and alg.parse("0.5") == Fraction(1, 2)


def test_bbin_arguments_read_as_before():
    from test_cli import invoke

    assert invoke("bbin", "3/7", "-n", "16") == (0, "1 0 1 0 0 1 0 0 1 0 0 1 0 0 1 0\n", "")
    assert invoke("bbin", "0.5") == (
        1, "", "error: EvenDenominator: 1/2 has an even denominator\n")
    assert invoke("bbin", "1/0") == (3, "", "error: usage: '1/0' is not a rational number\n")


# ---------------------------------------------------------------------------
# The fused sum of products against the fold it replaces


def _repeated_sum(alg, w):
    """The image of the integer w: w ones added up."""
    acc = alg.zero
    for _ in range(w):
        acc = alg.add(acc, alg.one)
    return acc


def _pascal_row(alg, n):
    """The images of C(n, 0..n), each entry one addition in the algebra."""
    row = [alg.one]
    for _ in range(n):
        row = [alg.one] + [alg.add(a, b) for a, b in zip(row, row[1:])] + [alg.one]
    return row


def reference_dot(alg, xs, ys, images=None):
    """The left fold of add over the products mul(image, mul(x, y))."""
    terms = [alg.mul(x, y) for x, y in zip(xs, ys)]
    if images is not None:
        terms = [alg.mul(c, t) for c, t in zip(images, terms)]
    acc = terms[0]
    for t in terms[1:]:
        acc = alg.add(acc, t)
    return acc


def _dot_value(rng, alg):
    pick = rng.random()
    if pick < 0.15:
        return alg.zero
    if pick < 0.3 and alg.name in ("Nat", "Z", "Q"):
        big = 10 ** 300 + rng.randrange(10 ** 320)
        if alg.name == "Nat":
            return big
        big *= rng.choice((1, -1))
        return big if alg.name == "Z" else Fraction(big, rng.randint(1, 9))
    return alg.sample(rng)


def _generic(alg):
    """The same algebra with the default dot: the fold of add over mul."""
    return Algebra(alg.name, alg.kind, alg.zero, alg.one, alg.add, alg.mul, alg.eq,
                   alg.coerce, alg.parse, alg.fmt, alg.sample, neg=alg.neg,
                   inv=alg.inv, characteristic=alg.characteristic)


DOT_ALGEBRAS = [*registered_algebras(), gf(3), gf(7)]


@pytest.mark.parametrize("generic", [False, True], ids=["kernel", "default"])
@pytest.mark.parametrize("alg", DOT_ALGEBRAS, ids=lambda a: a.name)
def test_dot_equals_the_fold(alg, generic):
    rng = seeded(f"dot:{alg.name}")
    dot = (_generic(alg) if generic else alg).dot
    p = alg.characteristic
    for length in [1, 2, 64, *(rng.randint(1, 64) for _ in range(40))]:
        xs = [_dot_value(rng, alg) for _ in range(length)]
        ys = [_dot_value(rng, alg) for _ in range(length)]
        small = [rng.randint(0, 12) for _ in range(length)]
        binomials = [math.comb(length - 1, i) for i in range(length)]
        cases = [(None, None), (small, [_repeated_sum(alg, w) for w in small]),
                 ([c % p for c in binomials] if p else binomials,
                  _pascal_row(alg, length - 1))]
        for weights, images in cases:
            want = reference_dot(alg, xs, ys, images)
            got = dot(xs, ys) if weights is None else dot(xs, ys, weights)
            assert got == want and type(got) is type(want), (xs, ys, weights)
            if alg.name == "Bool":
                assert got is want


@pytest.mark.parametrize("alg", registered_algebras(), ids=lambda a: a.name)
def test_no_operation_returns_a_float(alg):
    # exact values only, Tropical's inf aside; Q holds a value as an int
    # exactly when it is integral, a Fraction otherwise
    rng = seeded(f"no-float:{alg.name}")
    values = [alg.zero, alg.one, *(alg.sample(rng) for _ in range(30))]
    if alg.name == "Q":
        values += map(alg.coerce, (Fraction(6, 3), Fraction(1, 2), Fraction(9, 4), -4))
    results = []
    for _ in range(120):
        a, b = rng.choice(values), rng.choice(values)
        results += [alg.add(a, b), alg.mul(a, b), alg.nat_mul(rng.randint(0, 5), a),
                    alg.dot([a, b], [b, a]), alg.dot([a], [b], [rng.randint(0, 3)]),
                    alg.coerce(rng.randint(0, 1)), alg.parse(alg.fmt(a))]
        if alg.neg is not None:
            results += [alg.neg(a), alg.sub(a, b)]
        for partial in (alg.inv, alg.sqrt):
            if partial is not None and (r := partial(a)) is not None:
                results.append(r)
    if alg.name == "Q":
        results += [alg.coerce(Fraction(8, 4)), alg.coerce(Fraction(2, 3)), alg.parse("10/5"),
                    alg.parse("7/2"), alg.inv(Fraction(1, 3)), alg.sqrt(Fraction(4, 9))]
    for r in results:
        assert type(r) is not float or (alg.name == "Tropical" and r == INF), r
        if alg.name == "Q":
            assert type(r) is (int if Fraction(r).denominator == 1 else Fraction), r
    assert alg.name != "Q" or {type(r) for r in results} == {int, Fraction}


def test_q_dot_sums_over_the_lcm():
    Q_ = get_algebra("Q")
    halves = [Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6)]
    assert Q_.dot(halves, [Fraction(1)] * 3) == Fraction(0)
    assert Q_.dot(halves, [Fraction(3), Fraction(2), Fraction(1)], [2, 1, 6]) == Fraction(-4, 3)
    assert Q_.dot([Fraction(7)], [Fraction(-3)]) == Fraction(-21)


# ---------------------------------------------------------------------------
# Prime fields: primality of the modulus and square roots


def _sieve(n):
    prime = [False, False] + [True] * (n - 2)
    for i in range(2, math.isqrt(n) + 1):
        if prime[i]:
            prime[i * i::i] = [False] * len(prime[i * i::i])
    return prime


# strong pseudoprimes to every base 2, 3, ... up to some prime below 37,
# Carmichael numbers, and 1000000007 * 1000000009
COMPOSITES = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 561, 1105, 41041, 825265,
              1000000016000000063, 2 ** 64 - 1)
PRIMES = (1000000007, 1000000009, 2 ** 61 - 1, 1000000000000000003, 2 ** 64 - 59)


def test_modulus_primality_is_exact():
    prime = _sieve(5000)
    for n in range(-3, 5000):
        assert _is_prime(n) is prime[max(n, 0)], n
    for n in COMPOSITES:
        assert not _is_prime(n), n
        with pytest.raises(UnsupportedOp, match=f"^{n} is not prime$"):
            get_algebra(f"Fp({n})")
    for p in PRIMES:
        assert _is_prime(p)
        alg = get_algebra(f"Fp({p})")
        assert alg is gf(p) and alg.characteristic == p


def test_modulus_from_2_to_the_64_is_refused():
    for n in (2 ** 64, 2 ** 64 + 13, 10 ** 30 + 57):
        with pytest.raises(UnsupportedOp, match=f"^modulus {n} is too large: "
                           "Fp needs a prime below 2\\^64$"):
            get_algebra(f"Fp({n})")


def brute_force_sqrt(a, p):
    """The square root loop gf used before Tonelli-Shanks: the smallest b
    with b*b = a mod p."""
    for b in range(p):
        if b * b % p == a:
            return b
    return None


def test_fp_sqrt_is_the_smallest_root():
    for p in (q for q, is_prime in enumerate(_sieve(300)) if is_prime):
        F = gf(p)
        for a in range(p):
            assert F.sqrt(a) == brute_force_sqrt(a, p), (a, p)


def test_fp_sqrt_on_a_large_modulus():
    p = 1000000007
    F = gf(p)
    assert F.sqrt(3) == 82062379 and F.sqrt(4) == 2 and F.sqrt(p - 1) is None
    for r in (2, 12345, p - 1):
        root = F.sqrt(r * r % p)
        assert root == min(r, p - r)
    assert F.sqrt(5) is None  # p = 2 mod 5, so 5 is no square mod p


def euclid_gcd(a, b):
    """poly_gcd's Euclidean algorithm, without the certificate."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic()


def FP(*coeffs):
    return Poly(Q, [Fraction(c) for c in coeffs])


def test_certificate_is_a_prime():
    assert _is_prime(CERTIFICATE_PRIME) and CERTIFICATE_PRIME == 2 ** 61 - 1


def test_gcd_where_the_certificate_does_not_hold():
    q = CERTIFICATE_PRIME
    x = FP(0, 1)
    cases = [
        # q divides a leading coefficient: mod q the common factor q*X + 1
        # drops to a constant, and the reductions X + 2, X + 3 are coprime
        (FP(1, q) * FP(2, 1), FP(1, q) * FP(3, 1), False),
        (FP(1, 0, q), FP(1, 1), False),
        (FP(Fraction(1, 3), 0, Fraction(q, 7)), FP(2, Fraction(1, 5)), False),
        # a common factor mod q only
        (x, FP(q, 1), False),
        (FP(1, 1) * FP(-2, 1), FP(1, 1 + q) * FP(Fraction(1, 2), 3), False),
        # a real common factor
        (FP(1, 1) * FP(2, Fraction(1, 3)), FP(1, 1) * FP(Fraction(-3, 7), 1), False),
        (FP(1, -1) * FP(1, -1) * FP(5, 2), FP(1, -1) * FP(1, -1), False),
        # a constant side
        (FP(Fraction(3, 7)), FP(1, 0, 1), True),
        (FP(-2, Fraction(1, 9), 4), FP(Fraction(-5, 12)), True),
        # a zero side: the gcd is the other side, made monic
        (Poly(Q, ()), FP(2, 4), False),
        (FP(Fraction(3, 4)), Poly(Q, ()), False),
        (Poly(Q, ()), Poly(Q, ()), False),
    ]
    for a, b, certified in cases:
        assert _coprime_mod_q(a, b) is certified, (a, b)
        assert poly_gcd(a, b) == euclid_gcd(a, b), (a, b)
        assert poly_gcd(b, a) == euclid_gcd(b, a), (a, b)
    assert poly_gcd(*cases[0][:2]) == FP(Fraction(1, q), 1)
    assert poly_gcd(x, FP(q, 1)) == FP(1)


def test_gcd_equals_euclid_on_seeded_pairs():
    rng = seeded(56)

    def rand_poly(degree):
        span = rng.choice((9, 10 ** 20))
        coeffs = [Fraction(rng.randint(-span, span), rng.randint(1, 12))
                  for _ in range(degree + 1)]
        if not coeffs[-1]:
            coeffs[-1] = Fraction(1)
        return Poly(Q, coeffs)

    certified = 0
    for _ in range(300):
        common = rand_poly(rng.choice((0, 0, 1, 2, 3)))
        a = rand_poly(rng.randint(0, 6)) * common
        b = rand_poly(rng.randint(0, 6)) * common
        certified += _coprime_mod_q(a, b)
        assert poly_gcd(a, b) == euclid_gcd(a, b)
    assert 100 < certified < 300
