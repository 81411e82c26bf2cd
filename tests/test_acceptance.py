"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All tolerances are zero: every comparison is exact equality
of exact values.
"""

import math
import random
from fractions import Fraction

import pytest

from conftest import (
    Q,
    conv_oracle,
    from_fn,
    rand_fraction,
    rand_linear_system,
    rand_ratexpr,
    rand_rational_stream,
)
from streamcalc import (
    BudgetExhausted,
    HeadNotInvertible,
    NonProductive,
    Poly,
    SpecSyntaxError,
    UnorderedAlgebra,
    bounded_eq,
    parse,
    ratexpr_normalize,
)
from streamcalc import calculus
from streamcalc import automatic, equivalence, gsos, solvers
from streamcalc.stream import Equal, take


def report(criterion, text):
    print(f"[criterion {criterion}] {text}: PASS")


def corpus(name):
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "corpus"
    return parse((root / name).read_text())


def P(*ints):
    return Poly.from_ints(Q, ints)


def cf_solution(spec, var):
    return solvers.solve_context_free(
        solvers.context_free_system_of(spec.system))[var]


class TestCriterion1GoldenPrefixes:
    def test_catalan(self):
        got = take(cf_solution(corpus("catalan.sde"), "s"), 9)
        assert got == [1, 1, 2, 5, 14, 42, 132, 429, 1430]
        report(1, "Catalan first 9")

    def test_schroder(self):
        got = take(cf_solution(corpus("schroder.sde"), "s"), 9)
        assert got == [1, 2, 6, 22, 90, 394, 1806, 8558, 41586]
        report(1, "Schroder first 9")

    def test_hamming(self):
        spec = corpus("hamming.sde")
        got = take(gsos.solve_system_with_defs(spec.system)["g"], 12)
        assert got == [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16]
        report(1, "Hamming first 12")

    def test_thue_morse_both_routes(self):
        tm8 = [0, 1, 1, 0, 1, 0, 0, 1]
        cf_spec = corpus("thue_morse_cf.sde")
        eo_spec = corpus("thue_morse_evenodd.sde")
        by_cf_automaton = cf_solution(cf_spec, "t")
        assert take(by_cf_automaton, 8) == tm8
        aut = automatic.compile_evenodd(eo_spec.system)
        by_eo = automatic.stream_of(aut, "tm")
        assert take(by_eo, 8) == tm8
        # deep comparison: the context-free system evaluated through the
        # syntactic engine (the same unique solution) against the even-odd
        # stream, to depth 64
        by_cf_engine = gsos.solve_system_with_defs(cf_spec.system)["t"]
        assert isinstance(
            bounded_eq(by_cf_engine, by_eo, 64, budget=10_000_000), Equal)
        # and the two context-free routes agree where the polynomial
        # automaton is still cheap
        assert isinstance(
            bounded_eq(by_cf_automaton, by_cf_engine, 14,
                       budget=10_000_000), Equal)
        report(1, "Thue-Morse via context-free and even-odd, eq to 64")

    def test_factorials_and_a000831(self):
        got = take(gsos.solve_system_with_defs(corpus("factorials.sde").system)["p"], 6)
        assert got == [1, 1, 2, 6, 24, 120]
        got2 = take(gsos.solve_system_with_defs(corpus("a000831.sde").system)["s"], 6)
        assert got2 == [1, 2, 4, 16, 80, 512]
        report(1, "factorials and A000831 via shuffle")

    def test_nonstandard_examples(self):
        delta_spec = corpus("delta_powers.sde")
        got = take(solvers.solve_nonstd(delta_spec.system)["x"], 16)
        assert got == [2 ** n for n in range(16)]
        ddx_spec = corpus("ddx_exp.sde")
        got2 = take(solvers.solve_nonstd(ddx_spec.system)["x"], 16)
        assert got2 == [Fraction(1, math.factorial(n)) for n in range(16)]
        report(1, "delta and d/dX specs to depth 16")


class TestCriterion2ClosedForms:
    def test_closed_forms(self):
        one_minus_x = P(1, -1)
        cases = [
            ("fib.sde", "s", ratexpr_normalize(P(0, 1), P(1, -1, -1))),
            ("naturals.sde", "s",
             ratexpr_normalize(P(1), one_minus_x * one_minus_x)),
            ("alternating.sde", "s", ratexpr_normalize(P(0, 1), P(1, 0, 1))),
            ("nth_powers.sde", "p2",
             ratexpr_normalize(P(1, 1),
                               one_minus_x * one_minus_x * one_minus_x)),
            ("nth_powers.sde", "p3",
             ratexpr_normalize(P(1, 4, 1), one_minus_x * one_minus_x
                               * one_minus_x * one_minus_x)),
        ]
        for name, var, expected in cases:
            spec = corpus(name)
            ls = solvers.linear_system_of(spec.system)
            forms = dict(zip(ls.names, solvers.solve_linear_matrix(ls)))
            assert forms[var] == expected, (name, var)
        report(2, "five closed forms structurally equal")


class TestCriterion3RoundTrips:
    def test_rational_linear_roundtrip(self):
        rng = random.Random(301)
        for _ in range(100):
            r = rand_ratexpr(rng, max_deg=6)
            back = solvers.solve_linear_matrix(solvers.rational_to_linear(r))[0]
            assert back == r
        report(3, "rational_to_linear . solve_linear_matrix identity x100")

    def test_matrix_vs_coinductive(self):
        rng = random.Random(302)
        for _ in range(100):
            ls = rand_linear_system(rng, max_n=5)
            streams = solvers.solve_linear_coinductive(ls)
            forms = solvers.solve_linear_matrix(ls)
            i = rng.randrange(ls.n)
            assert isinstance(
                bounded_eq(streams[ls.names[i]],
                           solvers.ratexpr_stream(forms[i]),
                           64, budget=2_000_000), Equal)
        report(3, "matrix and coinductive solvers agree to 64 x100")


class TestCriterion4CatalanIdentity:
    def test_sqrt_expression(self):
        root = calculus.sqrt_stream(calculus.stream_of_poly(P(1, -4)))
        gamma = calculus.conv_mul(
            calculus.constant(Q, 2),
            calculus.conv_inv(calculus.add(calculus.constant(Q, 1), root)))
        by_sde = cf_solution(parse("algebra Q; s(0)=1; s' = s*s;"), "s")
        assert isinstance(bounded_eq(gamma, by_sde, 32, budget=2_000_000), Equal)
        report(4, "2/(1+sqrt(1-4X)) equals the Catalan SDE to 32")


class TestCriterion5BinaryRationals:
    def test_b_seventeen_fifths(self):
        bits = automatic.binary_encode_rational(Fraction(17, 5), 20)
        assert bits == [1, 0, 1] + ([1, 1, 0, 0] * 5)[:17]
        verdict = solvers.detect_eventually_periodic(
            automatic.binary_rational_stream(Fraction(17, 5)))
        assert isinstance(verdict, solvers.Periodic)
        assert verdict.n - verdict.k == 4
        report(5, "B(17/5) prefix and Periodic with n-k = 4")


class TestCriterion6PropertySuites:
    """Six randomized law suites; together they run over 10,000 sampled
    law instances (counts per suite sized to keep each under its time
    budget)."""

    def test_fundamental_theorem(self):
        rng = random.Random(601)
        for _ in range(200):
            s = rand_rational_stream(rng)
            rebuilt = calculus.add(
                calculus.constant(Q, s.head),
                calculus.conv_mul(calculus.x_stream(Q), s.tail))
            assert isinstance(bounded_eq(rebuilt, s, 64, budget=500_000), Equal)
        report(6, "fundamental theorem, 200 cases at depth 64")

    def test_commutative_ring_laws(self):
        rng = random.Random(602)
        checks = 0
        for _ in range(75):
            a, b, c = (rand_rational_stream(rng) for _ in range(3))
            pairs = [
                (calculus.add(a, b), calculus.add(b, a)),
                (calculus.add(calculus.add(a, b), c),
                 calculus.add(a, calculus.add(b, c))),
                (calculus.add(a, calculus.neg(a)), calculus.zeros(Q)),
                (calculus.add(a, calculus.zeros(Q)), a),
                (calculus.conv_mul(a, b), calculus.conv_mul(b, a)),
                (calculus.conv_mul(calculus.conv_mul(a, b), c),
                 calculus.conv_mul(a, calculus.conv_mul(b, c))),
                (calculus.conv_mul(a, calculus.constant(Q, 1)), a),
                (calculus.conv_mul(a, calculus.add(b, c)),
                 calculus.add(calculus.conv_mul(a, b), calculus.conv_mul(a, c))),
            ]
            for left, right in pairs:
                assert isinstance(
                    bounded_eq(left, right, 32, budget=500_000), Equal)
                checks += 1
        assert checks == 600
        report(6, "commutative ring laws, 600 checks at depth 32")

    def test_convolution_against_direct_formula(self):
        rng = random.Random(603)
        for _ in range(400):
            s = rand_rational_stream(rng)
            t = rand_rational_stream(rng)
            got = take(calculus.conv_mul(s, t), 32, 500_000)
            assert got == conv_oracle(take(s, 32, 500_000), take(t, 32, 500_000))
        report(6, "convolution matches the direct summation, 400 cases")

    def test_ddx_identities(self):
        rng = random.Random(604)
        for _ in range(1800):
            s = rand_rational_stream(rng)
            assert take(calculus.ddx(s), 32, 500_000) == \
                take(calculus.hadamard(s.tail, calculus.nats(Q)), 32, 500_000)
            assert take(s.tail, 32, 500_000) == \
                take(calculus.hadamard(calculus.ddx(s),
                                       calculus.nats_inv(Q)), 32, 500_000)
        report(6, "d/dX identities, 3600 checks at depth 32")

    def test_delta_nilpotency(self):
        rng = random.Random(605)
        for _ in range(1800):
            d = rng.randint(1, 6)
            coeffs = [rand_fraction(rng) for _ in range(d)]
            s = from_fn(Q, lambda n, cs=coeffs: sum(
                (c * n ** k for k, c in enumerate(cs)), Fraction(0)))
            for _ in range(d):
                s = calculus.delta(s)
            assert take(s, 32, 500_000) == [0] * 32
        report(6, "delta nilpotency on polynomial streams, 1800 cases")

    def test_zip_even_odd_inverses(self):
        rng = random.Random(606)
        for _ in range(1500):
            s = rand_rational_stream(rng)
            t = rand_rational_stream(rng)
            assert take(calculus.zip_streams(calculus.even(s), calculus.odd(s)),
                        64, 500_000) == take(s, 64, 500_000)
            z = calculus.zip_streams(s, t)
            assert take(calculus.even(z), 32, 500_000) == take(s, 32, 500_000)
            assert take(calculus.odd(z), 32, 500_000) == take(t, 32, 500_000)
        report(6, "zip/even/odd inverse laws, 4500 checks")


class TestCriterion7NegativeCases:
    def test_eq47_rejected_at_parse(self):
        with pytest.raises(SpecSyntaxError):
            parse("c(0)=1; c' = c';")
        report(7, "c' = c' rejected at parse")

    def test_eq53_nonproductive(self):
        spec = parse("s(0)=0; s' = even(s);")
        stream = gsos.solve_system_with_defs(spec.system)["s"]
        with pytest.raises(BudgetExhausted) as err:
            take(stream, 3)  # default budget
        assert isinstance(err.value, NonProductive)
        assert err.value.index == 2
        report(7, "s' = even(s) traps as NonProductive, no hang")

    def test_merge_unordered(self):
        from streamcalc import gf

        with pytest.raises(UnorderedAlgebra):
            calculus.merge(calculus.ones(gf(2)), calculus.ones(gf(2)))
        report(7, "merge over an unordered algebra refused")

    def test_conv_inv_head_zero(self):
        with pytest.raises(HeadNotInvertible):
            take(calculus.conv_inv(calculus.x_stream(Q)), 1)
        report(7, "convolution inverse of a head-zero stream refused")


class TestCriterion8Equivalence:
    def test_fibonacci_proved_with_certificate(self):
        from streamcalc.speclang import Const, EquationSystem, HLit, OpApp, Var

        fib = corpus("fib.sde")
        r = ratexpr_normalize(P(0, 1), P(1, -1, -1))
        ls = solvers.rational_to_linear(r)

        def row_term(row):
            parts = [Var(name) if Q.eq(coeff, Q.one)
                     else OpApp("*", (Const(HLit(coeff)), Var(name)))
                     for name, coeff in zip(ls.names, row)
                     if not Q.is_zero(coeff)]
            term = parts[0] if parts else Const(HLit(Q.zero))
            for part in parts[1:]:
                term = OpApp("+", (term, part))
            return term

        companion = EquationSystem(
            Q, ls.names, dict(zip(ls.names, ls.o)),
            rhs={name: row_term(row) for name, row in zip(ls.names, ls.M)})
        engine = gsos.Engine(Q)
        left = gsos.load_system(engine, fib.system)["s"]
        right = gsos.load_system(engine, companion)["x0"]
        result = equivalence.equiv_up_to(left, right, engine=engine)
        assert isinstance(result, equivalence.Proved)
        assert equivalence.verify_certificate(result)
        report(8, "Fibonacci GSOS term ~ rational closed form, cert verifies")

    def test_ones_vs_nats_refuted(self):
        engine = gsos.Engine(Q)
        left = gsos.load_system(engine, corpus("ones.sde").system)["s"]
        nats = corpus("naturals.sde").system
        # nats enters under names apart from ones' s
        right = gsos.load_system(engine, nats, {v: v + "#b" for v in nats.variables})["s"]
        assert right.symbol == "s#b"
        result = equivalence.equiv_up_to(left, right, engine=engine)
        assert result == equivalence.Refuted(1, Fraction(1), Fraction(2))
        report(8, "ones vs nats refuted at index 1")


class TestCriterion9SyntacticTraces:
    def test_example_transitions(self):
        engine = gsos.Engine(Q)
        sigma = calculus.constant(Q, 2)
        tau = calculus.ones(Q)
        delta = calculus.constant(Q, 1)
        plus = engine.app("+", [engine.leaf(tau), engine.leaf(delta)])
        product = engine.app("*", [engine.leaf(sigma), plus])
        assert gsos.o_d(product) == 4
        assert gsos.d_d(product) is engine.app("+", [
            engine.app("*", [engine.leaf(sigma.tail), plus]),
            engine.app("*", [engine.lit(2),
                             engine.app("+", [engine.leaf(tau.tail),
                                              engine.leaf(delta.tail)])]),
        ])
        by_five = engine.app("*", [engine.lit(5), engine.leaf(sigma)])
        assert gsos.o_d(by_five) == 10
        assert gsos.d_d(by_five) is engine.app("+", [
            engine.app("*", [engine.lit(0), engine.leaf(sigma)]),
            engine.app("*", [engine.lit(5), engine.leaf(sigma.tail)]),
        ])
        # the evaluated behaviours confirm the displayed streams
        assert take(engine.behaviour(product), 4) == [4, 2, 2, 2]
        assert take(engine.behaviour(by_five), 4) == [10, 0, 0, 0]
        report(9, "both worked syntactic transitions reproduce exactly")
