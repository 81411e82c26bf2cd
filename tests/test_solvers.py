"""Solution methods per format, closed forms, and the rational round trip."""

import math
import pathlib
from fractions import Fraction

import pytest

from conftest import (
    Q,
    prefix,
    rand_linear_system,
    rand_ratexpr,
    seeded,
)
from streamcalc import (
    Poly,
    RatExpr,
    SpecSyntaxError,
    UnsupportedOp,
    bounded_eq,
    parse,
    ratexpr_normalize,
)
from streamcalc.algebra import (
    Algebra,
    gauss_solve,
    gf,
    naturals,
    ratexpr_coefficients,
)
from streamcalc.solvers import (
    ContextFreeSystem,
    LinearSystem,
    Periodic,
    PeriodicityUnknown,
    SimpleAutomaton,
    _berlekamp_massey,
    _power_sequences,
    context_free_system_of,
    detect_eventually_periodic,
    linear_system_of,
    rational_to_linear,
    ratexpr_stream,
    solve_context_free,
    solve_linear_coinductive,
    solve_linear_matrix,
    solve_nonstd,
    solve_simple,
    unfold_automaton,
)
from streamcalc.series import solve_by_coefficients
from streamcalc.speclang import EquationSystem, Kind, classify
from streamcalc.stream import Equal, take, unfold
from streamcalc.stream import bounded_eq


CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def P(*ints):
    return Poly.from_ints(Q, ints)


class TestSimple:
    def test_alternating_pair(self):
        spec = parse("s(0)=1; s'=t; t(0)=0; t'=s;")
        sol = solve_simple(spec.system)
        assert prefix(sol["s"], 6) == [1, 0, 1, 0, 1, 0]
        assert prefix(sol["t"], 6) == [0, 1, 0, 1, 0, 1]

    def test_one_state_loop(self):
        spec = parse("s(0)=7; s'=s;")
        assert prefix(solve_simple(spec.system)["s"], 4) == [7] * 4

    def test_four_state_chain(self):
        # x0 -0-> x1 <-1/0-> x2, x3 self-loop on 0
        aut = SimpleAutomaton(Q, {"x0": 0, "x1": 1, "x2": 0, "x3": 0},
                              {"x0": "x1", "x1": "x2", "x2": "x1", "x3": "x3"})
        assert prefix(unfold_automaton(aut, "x0"), 6) == [0, 1, 0, 1, 0, 1]
        assert prefix(unfold_automaton(aut, "x3"), 4) == [0, 0, 0, 0]


class TestOneLetterLanguages:
    def test_membership_bitstream(self):
        # the language {a^n | n = 1 + 3k} as a Boolean stream automaton
        from streamcalc.algebra import booleans

        aut = SimpleAutomaton(booleans(), {"q0": False, "q1": True, "q2": False},
                              {"q0": "q1", "q1": "q2", "q2": "q0"})
        stream = unfold_automaton(aut, "q0")
        assert prefix(stream, 9) == [n % 3 == 1 for n in range(9)]
        assert detect_eventually_periodic(stream) == Periodic(0, 3)


class TestPeriodicity:
    def test_periodic_prefix_rebuilds_the_stream(self):
        # Prop 4.1 direction 3 => 1: from sigma^(k) = sigma^(n) build the
        # n-state simple automaton over the prefix and compare behaviours
        from fractions import Fraction as F

        from streamcalc.algebra import gf
        from streamcalc.automatic import binary_rational_stream
        from streamcalc.stream import bounded_eq as beq

        stream = binary_rational_stream(F(17, 5))
        verdict = detect_eventually_periodic(stream)
        k, n = verdict.k, verdict.n
        values = prefix(stream, n)
        aut = SimpleAutomaton(
            gf(2), {f"x{i}": values[i] for i in range(n)},
            {f"x{i}": (f"x{i + 1}" if i < n - 1 else f"x{k}") for i in range(n)})
        rebuilt = unfold_automaton(aut, "x0")
        assert isinstance(beq(rebuilt, stream, 64), Equal)

    def test_alternating(self):
        spec = parse("s(0)=1; s'=t; t(0)=0; t'=s;")
        sol = solve_simple(spec.system)
        assert detect_eventually_periodic(sol["s"]) == Periodic(0, 2)

    def test_binary_seventeen_fifths(self):
        from streamcalc.automatic import binary_rational_stream

        stream = binary_rational_stream(Fraction(17, 5))
        verdict = detect_eventually_periodic(stream)
        assert verdict == Periodic(3, 7)
        assert verdict.n - verdict.k == 4

    def test_fibonacci_unknown(self):
        r = ratexpr_normalize(P(0, 1), P(1, -1, -1))
        assert detect_eventually_periodic(r, bound=500) == PeriodicityUnknown()
        # oracle: the values grow strictly, so no period can exist
        values = prefix(ratexpr_stream(r), 40)
        assert all(values[i] < values[i + 1] for i in range(2, 39))

    def test_rational_periodic(self):
        r = ratexpr_normalize(P(1), P(1, 0, -1))  # 1/(1-X^2) = (1,0,1,0,...)
        assert detect_eventually_periodic(r) == Periodic(0, 2)

    def test_unfold_positions_are_periodic(self):
        # an unfold stream reads its node's start state and step, a later
        # position stepping the start state to its index
        stream = unfold(Q, 0, lambda q: (q, q + 1 if q < 3 else 1))  # 0 1 2 3 1 2 3
        assert detect_eventually_periodic(stream) == Periodic(1, 4)
        assert detect_eventually_periodic(stream.tail) == Periodic(0, 3)
        assert detect_eventually_periodic(stream.drop(3)) == Periodic(0, 3)
        take(stream, 10)  # reading the stream leaves the start state as it was
        assert detect_eventually_periodic(stream) == Periodic(1, 4)

    def test_binary_rational_positions_are_periodic(self):
        from streamcalc.automatic import binary_rational_stream

        stream = binary_rational_stream(Fraction(17, 5))
        assert detect_eventually_periodic(stream.drop(3)) == Periodic(0, 4)
        assert detect_eventually_periodic(stream.drop(5)) == Periodic(0, 4)

    def test_plain_stream_unknown(self):
        from streamcalc.calculus import ones

        assert detect_eventually_periodic(ones(Q)) == PeriodicityUnknown()


class TestLinearMatrix:
    def test_fibonacci(self):
        spec = parse("s(0)=0; s'(0)=1; s'' = s' + s;")
        ls = linear_system_of(spec.system)
        forms = dict(zip(ls.names, solve_linear_matrix(ls)))
        assert forms["s"] == ratexpr_normalize(P(0, 1), P(1, -1, -1))

    def test_naturals(self):
        spec = parse("s(0)=1; s' = s + t; t(0)=1; t'=t;")
        ls = linear_system_of(spec.system)
        forms = dict(zip(ls.names, solve_linear_matrix(ls)))
        assert forms["s"] == ratexpr_normalize(P(1), P(1, -1) * P(1, -1))

    def test_alternating(self):
        spec = parse("s(0)=0; s'(0)=1; s'' = -s;")
        ls = linear_system_of(spec.system)
        forms = dict(zip(ls.names, solve_linear_matrix(ls)))
        assert forms["s"] == ratexpr_normalize(P(0, 1), P(1, 0, 1))

    def test_powers(self):
        spec = parse("s(0)=1; s' = 3*s;")
        ls = linear_system_of(spec.system)
        assert solve_linear_matrix(ls)[0] == ratexpr_normalize(P(1), P(1, -3))

    def test_nth_powers_closed_forms(self):
        spec = parse("""
        p0(0)=1; p0' = p0;
        p1(0)=1; p1' = p0 + p1;
        p2(0)=1; p2' = p0 + 2*p1 + p2;
        p3(0)=1; p3' = p0 + 3*p1 + 3*p2 + p3;
        """)
        ls = linear_system_of(spec.system)
        forms = dict(zip(ls.names, solve_linear_matrix(ls)))
        one_minus_x = P(1, -1)
        assert forms["p2"] == ratexpr_normalize(
            P(1, 1), one_minus_x * one_minus_x * one_minus_x)
        assert forms["p3"] == ratexpr_normalize(
            P(1, 4, 1), one_minus_x * one_minus_x * one_minus_x * one_minus_x)
        # and the streams really are the n-th powers
        for name, power in (("p0", 0), ("p1", 1), ("p2", 2), ("p3", 3)):
            values = prefix(ratexpr_stream(forms[name]), 10)
            assert values == [Fraction((k + 1) ** power) for k in range(10)]

    def test_semiring_refused(self):
        Nat = naturals()
        from streamcalc.solvers import LinearSystem

        ls = LinearSystem(Nat, ("x",), (1,), ((1,),))
        with pytest.raises(UnsupportedOp):
            solve_linear_matrix(ls)
        # the coinductive route still works
        assert prefix(solve_linear_coinductive(ls)["x"], 4) == [1, 1, 1, 1]


def gauss_oracle(ls):
    """The former body of solve_linear_matrix: (I - X*M) x = o solved by
    Gauss-Jordan elimination over rational expressions."""
    alg = ls.algebra
    matrix = [[RatExpr.from_poly(Poly(alg, (alg.one if i == j else alg.zero,
                                            alg.neg(ls.M[i][j]))))
               for j in range(ls.n)] for i in range(ls.n)]
    return gauss_solve(matrix, [RatExpr.const(alg, o) for o in ls.o])


def assert_matches_oracle(ls):
    forms = solve_linear_matrix(ls)
    assert forms == gauss_oracle(ls)
    for r in forms:
        assert r == ratexpr_normalize(r.num, r.den)
    return forms


def rand_field_system(rng, alg, n, density=0.5):
    def entry():
        if rng.random() >= density:
            return alg.zero
        return alg.coerce(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                          if alg.characteristic == 0 else rng.randrange(8))

    return LinearSystem(alg, tuple(f"v{i}" for i in range(n)),
                        tuple(entry() for _ in range(n)),
                        tuple(tuple(entry() for _ in range(n)) for _ in range(n)))


F5 = gf(5)
F2 = gf(2)


class TestLinearMatrixAgainstElimination:
    """Berlekamp-Massey closed forms are the elimination's, entry for entry."""

    @pytest.mark.parametrize("alg,per_dim", [(Q, 1), (F5, 4), (F2, 4)],
                             ids=["Q", "Fp5", "F2"])
    def test_seeded_systems(self, alg, per_dim):
        rng = seeded(46)
        for n in range(1, 11):
            for _ in range(per_dim):
                density = rng.choice((0.3, 0.6, 1.0))
                assert_matches_oracle(rand_field_system(rng, alg, n, density))

    @pytest.mark.parametrize("alg", [Q, F5, F2], ids=["Q", "Fp5", "F2"])
    def test_zero_heads_zero_matrix_and_nilpotent(self, alg):
        rng = seeded(47)
        for n in range(1, 7):
            ls = rand_field_system(rng, alg, n, density=0.8)
            zero_heads = LinearSystem(alg, ls.names, (alg.zero,) * n, ls.M)
            assert all(r.is_zero() for r in assert_matches_oracle(zero_heads))
            zero_m = LinearSystem(
                alg, ls.names, ls.o, ((alg.zero,) * n,) * n)
            assert [r.num for r in assert_matches_oracle(zero_m)] \
                == [Poly(alg, (o,)) for o in ls.o]
            upper = LinearSystem(alg, ls.names, ls.o, tuple(
                tuple(ls.M[i][j] if j > i else alg.zero for j in range(n))
                for i in range(n)))
            for r in assert_matches_oracle(upper):
                assert r.den.degree <= 0
                assert r.num.degree < n

    @pytest.mark.parametrize("alg", [Q, F5, F2], ids=["Q", "Fp5", "F2"])
    def test_reducible_forms(self, alg):
        rng = seeded(48)
        for n in range(1, 5):
            ls = rand_field_system(rng, alg, n, density=0.8)
            base = solve_linear_matrix(ls)
            # every unknown duplicated: same head, same equation over the
            # originals, so det(I - X*M) stays and the cofactors share it
            zeros = (alg.zero,) * n
            dup = LinearSystem(
                alg, ls.names + tuple(f"w{i}" for i in range(n)), ls.o + ls.o,
                tuple(row + zeros for row in ls.M) * 2)
            assert assert_matches_oracle(dup) == base + base
            other = rand_field_system(rng, alg, rng.randint(1, 4), density=0.8)
            m = other.n
            block = LinearSystem(
                alg, ls.names + tuple(f"u{i}" for i in range(m)),
                ls.o + other.o,
                tuple(row + (alg.zero,) * m for row in ls.M)
                + tuple(zeros + row for row in other.M))
            assert assert_matches_oracle(block) \
                == base + solve_linear_matrix(other)

    @pytest.mark.parametrize("alg", [Q, F5, F2], ids=["Q", "Fp5", "F2"])
    def test_each_unknown_alone(self, alg):
        rng = seeded(49)
        for n in range(1, 9):
            for _ in range(3):
                ls = rand_field_system(rng, alg, n, rng.choice((0.3, 0.6, 1.0)))
                oracle = gauss_oracle(ls)
                for i, name in enumerate(ls.names):
                    assert solve_linear_matrix(ls, [name]) == [oracle[i]]
                assert solve_linear_matrix(ls, ls.names[::-1]) == oracle[::-1]
                assert solve_linear_matrix(ls, []) == []

    def test_integer_power_sequence_over_q(self):
        # mixed denominators and signs: the integer iteration scaled back
        # equals M^k o iterated in Fractions, and its forms the oracle's
        rng = seeded(51)
        for n in range(1, 8):
            def entry():
                if rng.random() < 0.3:
                    return Fraction(0)
                return Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 4, 7, 9, 12)))

            ls = LinearSystem(Q, tuple(f"v{i}" for i in range(n)),
                              tuple(entry() for _ in range(n)),
                              tuple(tuple(entry() for _ in range(n)) for _ in range(n)))
            vectors = [ls.o]
            for _ in range(2 * n - 1):
                vectors.append(tuple(sum(a * b for a, b in zip(row, vectors[-1]))
                                     for row in ls.M))
            rows = range(n)
            seqs, d, e = _power_sequences(ls, rows)
            assert all(type(t) is int for seq in seqs for t in seq)
            assert [[Fraction(t, e * d ** k) for k, t in enumerate(seq)] for seq in seqs] \
                == [[v[i] for v in vectors] for i in rows]
            oracle = gauss_oracle(ls)
            for i, name in enumerate(ls.names):
                assert solve_linear_matrix(ls, [name]) == [oracle[i]]

    def test_corpus_linear_and_simple_specs(self):
        checked = 0
        for path in sorted(CORPUS.glob("*.sde")):
            try:
                spec = parse(path.read_text())
            except SpecSyntaxError:
                continue
            if (spec.system is None or spec.algebra.kind != "field"
                    or classify(spec.system) not in (Kind.SIMPLE, Kind.LINEAR)):
                continue
            assert_matches_oracle(linear_system_of(spec.system))
            checked += 1
        assert checked == 13


def field_berlekamp_massey(alg, seq):
    """The former Berlekamp-Massey of solve_linear_matrix, in the field's
    own operations (Massey 1969): the connection polynomial c, with
    c[0] = 1, and the length L."""
    c = [alg.one]
    b = [alg.one]
    length = 0
    shift = 1
    last = alg.one  # discrepancy when b was last replaced
    for k, s in enumerate(seq):
        d = s
        for j in range(1, min(length, len(c) - 1) + 1):
            d = alg.add(d, alg.mul(c[j], seq[k - j]))
        if alg.is_zero(d):
            shift += 1
            continue
        factor = alg.mul(d, alg.inv(last))
        prev = c
        c = c + [alg.zero] * (len(b) + shift - len(c))
        for j, bj in enumerate(b):
            c[j + shift] = alg.sub(c[j + shift], alg.mul(factor, bj))
        if 2 * length <= k:
            length, b, last, shift = k + 1 - length, prev, d, 1
        else:
            shift += 1
    return c, length


def rand_sequence(rng, value, zero, length):
    """A seeded sequence of one of five shapes: all zero; free values;
    leading zeros then free values; a short linear recurrence, so that
    most later discrepancies are zero; or one after leading zeros."""
    shape = rng.randrange(5)
    if shape == 0:
        return [zero] * length
    lead = min(length, rng.randint(1, max(1, length // 2))) if shape in (2, 4) else 0
    if shape in (1, 2):
        body = [value() for _ in range(length - lead)]
    else:
        order = rng.randint(1, max(1, length // 3))
        weights = [value() for _ in range(order)]
        body = [value() for _ in range(order)]
        while len(body) < length - lead:
            body.append(sum(w * x for w, x in zip(weights, body[-order:])))
    return [zero] * lead + body[:length - lead]


class TestIntegerBerlekampMassey:
    """The division-free loop against the field one it replaced: the same
    length, and the same connection polynomial once c[0] is made 1."""

    def test_rationals(self):
        rng = seeded(52)
        unique = 0
        for _ in range(400):
            size = rng.choice((10, 10**6, 10**30))

            def value():
                if rng.random() < 0.25:
                    return Fraction(0)
                return Fraction(rng.randint(-size, size), rng.randint(1, 12))

            seq = rand_sequence(rng, value, Fraction(0), rng.randint(0, 16))
            # the integer sequence t_k = s_k * E * D^k, as _power_sequences
            # scales it
            e = math.lcm(*(s.denominator for s in seq))
            d = rng.choice((1, 1, 2, 3, 12))
            ints = [s * e * d ** k for k, s in enumerate(seq)]
            assert all(t.denominator == 1 for t in ints)
            c, length = _berlekamp_massey([int(t) for t in ints], 0)
            assert all(type(x) is int for x in c)
            assert ([Fraction(x, c[0]) for x in c], length) \
                == field_berlekamp_massey(Q, ints)
            # where 2L terms fix the recurrence, as in solve_linear_matrix,
            # scaling back gives s's own: c_s[j] = c_t[j] / (c_t[0] * D^j)
            if 2 * length <= len(seq):
                assert ([Fraction(x, c[0] * d ** j) for j, x in enumerate(c)],
                        length) == field_berlekamp_massey(Q, seq)
                unique += 1
        assert unique > 200

    @pytest.mark.parametrize("p", [2, 5, 7])
    def test_prime_fields(self, p):
        alg = gf(p)
        rng = seeded(53 + p)
        for _ in range(400):
            def value():
                return 0 if rng.random() < 0.3 else rng.randrange(p)

            seq = [x % p for x in rand_sequence(rng, value, 0, rng.randint(0, 16))]
            c, length = _berlekamp_massey(seq, p)
            scale = pow(c[0], -1, p)
            assert ([x * scale % p for x in c], length) \
                == field_berlekamp_massey(alg, seq)

    def test_connection_polynomial_annihilates(self):
        # the recurrence holds on the whole sequence, over Q and mod p
        rng = seeded(54)
        for p in (0, 2, 5, 7):
            for _ in range(100):
                seq = rand_sequence(rng, lambda: rng.randint(-50, 50), 0, 14)
                if p:
                    seq = [x % p for x in seq]
                c, length = _berlekamp_massey(seq, p)
                assert c[0] % p if p else c[0]
                for k in range(length, len(seq)):
                    total = sum(c[j] * seq[k - j] for j in range(min(length, len(c) - 1) + 1))
                    assert (total % p if p else total) == 0

    def test_other_fields_are_refused(self):
        # a hand-built field that is neither Q nor a gf(p)
        fake = Algebra(name="F3bis", kind="field", zero=0, one=1,
                       add=lambda a, b: (a + b) % 3, mul=lambda a, b: a * b % 3,
                       eq=lambda a, b: a == b, coerce=int, parse=int, fmt=str,
                       sample=None, neg=lambda a: -a % 3,
                       inv=lambda a: pow(a, -1, 3), characteristic=3)
        ls = LinearSystem(fake, ("x",), (1,), ((1,),))
        with pytest.raises(UnsupportedOp, match="needs a field algebra"):
            solve_linear_matrix(ls)
        ls = LinearSystem(gf(3), ("x",), (1,), ((1,),))
        assert solve_linear_matrix(ls)[0].den == Poly(gf(3), (1, 2))


def dense_spec(rng, n):
    """A dense linear spec over Q with integer coefficients."""
    lines = ["algebra Q;"]
    for i in range(n):
        terms = " + ".join(f"{rng.choice([-1, 1]) * rng.randint(1, 5)}*x{j}"
                           for j in range(n) if rng.random() < 0.9)
        lines.append(f"x{i}(0) = {rng.randint(-5, 5)};")
        lines.append(f"x{i}' = {terms or '0*x0'};")
    return "\n".join(lines).replace("+ -", "- ")


def test_dense_closed_forms_match_series():
    # 20 to 30 unknowns: each closed form's first 2n + 10 coefficients
    # are the series prefix, which shares no code with Berlekamp-Massey
    rng = seeded(55)
    for n in (20, 25, 30):
        system = parse(dense_spec(rng, n)).system
        assert classify(system) is Kind.LINEAR
        ls = linear_system_of(system)
        streams = solve_by_coefficients(system)
        for name in ("x0", f"x{n // 2}", f"x{n - 1}"):
            (form,) = solve_linear_matrix(ls, [name])
            assert form.den.degree <= n and form.num.degree < n
            assert ratexpr_coefficients(form, 2 * n + 10) \
                == prefix(streams[name], 2 * n + 10)


class TestLinearCoinductive:
    def test_nats(self):
        spec = parse("s(0)=1; s'=s; t(0)=0; t' = t + s;")
        sol = solve_linear_coinductive(linear_system_of(spec.system))
        assert prefix(sol["t"], 6) == [0, 1, 2, 3, 4, 5]

    def test_zero_system(self):
        spec = parse("s(0)=0; s' = 0*s;")
        sol = solve_linear_coinductive(linear_system_of(spec.system))
        assert prefix(sol["s"], 5) == [0] * 5

    def test_powers(self):
        spec = parse("s(0)=1; s' = 3*s;")
        sol = solve_linear_coinductive(linear_system_of(spec.system))
        assert prefix(sol["s"], 5) == [1, 3, 9, 27, 81]

    def test_agrees_with_matrix_method(self):
        rng = seeded(42)
        for _ in range(100):
            ls = rand_linear_system(rng, max_n=5)
            streams = solve_linear_coinductive(ls)
            forms = solve_linear_matrix(ls)
            i = rng.randrange(ls.n)
            assert isinstance(
                bounded_eq(streams[ls.names[i]], ratexpr_stream(forms[i]),
                           64, budget=2_000_000),
                Equal)

    def test_integer_coefficients_give_integer_streams(self):
        rng = seeded(43)
        for _ in range(50):
            ls = rand_linear_system(rng, max_n=4)
            streams = solve_linear_coinductive(ls)
            for name in ls.names:
                assert all(v.denominator == 1 for v in prefix(streams[name], 64))


class TestRationalToLinear:
    def test_fibonacci_companion(self):
        r = ratexpr_normalize(P(0, 1), P(1, -1, -1))
        ls = rational_to_linear(r)
        assert ls.n == 2
        assert ls.o == (0, 1)
        assert ls.M == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)))

    def test_constant(self):
        r = ratexpr_normalize(P(5), P(1))
        ls = rational_to_linear(r)
        roundtrip = solve_linear_matrix(ls)[0]
        assert roundtrip == r

    def test_zero(self):
        ls = rational_to_linear(ratexpr_normalize(P(), P(1)))
        assert solve_linear_matrix(ls)[0].is_zero()

    def test_ones(self):
        r = ratexpr_normalize(P(1), P(1, -1))
        ls = rational_to_linear(r)
        assert ls.n == 1
        assert ls.o == (1,)
        assert ls.M == ((Fraction(1),),)

    def test_roundtrip_on_random_rationals(self):
        rng = seeded(44)
        for _ in range(100):
            r = rand_ratexpr(rng, max_deg=6)
            ls = rational_to_linear(r)
            assert ls.n <= 1 + max(r.num.degree, r.den.degree)
            assert solve_linear_matrix(ls)[0] == r


class TestContextFree:
    def test_catalan(self):
        spec = parse("algebra Nat; s(0)=1; s' = s*s;")
        sol = solve_context_free(context_free_system_of(spec.system))
        assert prefix(sol["s"], 9) == [1, 1, 2, 5, 14, 42, 132, 429, 1430]

    def test_schroder(self):
        spec = parse("algebra Nat; s(0)=1; s' = s + s*s;")
        sol = solve_context_free(context_free_system_of(spec.system))
        assert prefix(sol["s"], 9) == [1, 2, 6, 22, 90, 394, 1806, 8558, 41586]

    def test_thue_morse_f2(self):
        spec = parse("""
        algebra F2;
        t(0)=0; t' = m*m + X*s*s;
        s(0)=1; s' = s*s + X*n*n;
        m(0)=1; m' = t*t + X*n*n;
        n(0)=0; n' = n*n + X*s*s;
        """)
        sol = solve_context_free(context_free_system_of(spec.system))
        assert prefix(sol["t"], 8) == [0, 1, 1, 0, 1, 0, 0, 1]

    def test_linear_shaped_system_matches_linear_solver(self):
        rng = seeded(45)
        for _ in range(30):
            ls = rand_linear_system(rng, max_n=3, span=3)
            coinductive = solve_linear_coinductive(ls)
            cfs = ContextFreeSystem(
                Q, ls.names, dict(zip(ls.names, ls.o)),
                {ls.names[i]: {(ls.names[j],): ls.M[i][j]
                               for j in range(ls.n) if not Q.is_zero(ls.M[i][j])}
                 for i in range(ls.n)})
            by_cf = solve_context_free(cfs)
            for name in ls.names:
                assert isinstance(
                    bounded_eq(by_cf[name], coinductive[name], 32), Equal)


class TestNonStandard:
    def test_delta_powers_of_two(self):
        spec = parse("algebra Z; x(0)=1; delta(x) = x;")
        assert prefix(solve_nonstd(spec.system)["x"], 6) == [1, 2, 4, 8, 16, 32]

    def test_delta_zero_gives_constant(self):
        spec = parse("algebra Z; x(0)=9; delta(x) = 0*x;")
        assert prefix(solve_nonstd(spec.system)["x"], 5) == [9] * 5

    def test_ddx_inverse_factorials(self):
        import math

        spec = parse("algebra Q; x(0)=1; ddx(x) = x;")
        got = prefix(solve_nonstd(spec.system)["x"], 8)
        assert got == [Fraction(1, math.factorial(n)) for n in range(8)]

    def test_ddx_needs_characteristic_zero(self):
        spec = parse("algebra F2; x(0)=1; ddx(x) = x;")
        with pytest.raises(UnsupportedOp):
            solve_nonstd(spec.system)

    def test_delta_needs_ring(self):
        sys = EquationSystem(naturals(), ("x",), {"x": 1}, tail_op="delta",
                             rhs={"x": __import__("streamcalc.speclang",
                                                  fromlist=["Var"]).Var("x")})
        with pytest.raises(UnsupportedOp):
            solve_nonstd(sys)

    def test_delta_o_direct_unfold(self):
        # o(a, b) = b - 2a with inverse b = t + 2a; delta_o(x) = x, x(0)=1
        # means x(n+1) = x(n) + 2x(n) = 3x(n)
        from streamcalc.speclang import Var

        sys = EquationSystem(Q, ("x",), {"x": Fraction(1)}, tail_op="delta_o",
                             rhs={"x": Var("x")})
        sol = solve_nonstd(sys, delta_op_inv=lambda a, t: t + 2 * a)
        assert prefix(sol["x"], 5) == [1, 3, 9, 27, 81]
        # check the defining equation: delta_o(x) = x
        from streamcalc.calculus import delta_o

        assert prefix(delta_o(lambda a, b: b - 2 * a, sol["x"]), 4) \
            == prefix(sol["x"], 4)
