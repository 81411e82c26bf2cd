"""Parsing, classification, GSOS validation, zero consistency, printing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Q
from streamcalc import (
    ArityMismatch,
    Kind,
    MissingInitialValue,
    SpecSyntaxError,
    UnknownSymbol,
    classify,
    parse,
    parse_term,
    validate_gsos,
)
from streamcalc.algebra import tropical
from streamcalc.speclang import (
    Const,
    HLit,
    Ok,
    OpApp,
    Var,
    Violation,
    ZeroConsistent,
    ZeroInconsistent,
    check_zero_consistency,
    print_spec,
)


class TestParse:
    def test_simple_system(self):
        spec = parse("s(0)=1; s' = s;")
        assert spec.system.variables == ("s",)
        assert spec.system.rhs["s"] == Var("s")
        assert classify(spec.system) is Kind.SIMPLE

    def test_default_algebra_is_q(self):
        assert parse("s(0)=1; s'=s;").algebra is Q

    def test_algebra_directive(self):
        assert parse("algebra F2; s(0)=1; s'=s;").algebra.name == "F2"
        assert parse("algebra Fp(7); s(0)=1; s'=s;").algebra.name == "Fp(7)"
        assert parse("algebra Tropical; s(0)=inf; s'=s;").algebra is tropical()
        assert parse("algebra Z; s(0)=-3; s'=s;").algebra.name == "Z"
        assert parse("algebra Nat; s(0)=3; s'=s;").algebra.name == "Nat"
        assert parse("algebra Bool; s(0)=true; s'=s;").system.heads["s"] is True

    def test_non_prime_modulus_directive(self):
        with pytest.raises(SpecSyntaxError) as info:
            parse("algebra Fp(4); s(0)=1; s'=s;")
        assert str(info.value) == "1:9: 4 is not prime"

    def test_algebra_directive_must_come_first(self):
        with pytest.raises(SpecSyntaxError):
            parse("s(0)=1; s'=s; algebra F2;")

    def test_second_order_flattens(self):
        spec = parse("s(0)=0; s'(0)=1; s'' = s' + s;")
        sys = spec.system
        assert sys.variables == ("s", "s#1")
        assert sys.heads == {"s": 0, "s#1": 1}
        assert sys.rhs["s"] == Var("s#1")
        assert sys.rhs["s#1"] == OpApp("+", (Var("s#1"), Var("s")))

    def test_missing_initial_value(self):
        with pytest.raises(MissingInitialValue):
            parse("s(0)=0; s'' = s' + s;")

    def test_extra_initial_value_rejected(self):
        with pytest.raises(SpecSyntaxError):
            parse("s(0)=0; s'(0)=1; s' = s;")

    def test_derivative_of_unknown_on_rhs_rejected(self):
        # c' = c' admits any stream starting with 1: reject at parse
        with pytest.raises(SpecSyntaxError):
            parse("c(0)=1; c' = c';")

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            parse("s(0)=1; s' = t;")

    def test_unknown_operation(self):
        with pytest.raises(UnknownSymbol):
            parse("s(0)=1; s' = frob(s);")

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            parse("s(0)=1; s' = zip(s);")

    def test_duplicate_equation(self):
        with pytest.raises(SpecSyntaxError):
            parse("s(0)=1; s'=s; s'=s;")

    def test_rational_literals(self):
        spec = parse("s(0)=17/5; s' = [1/2]*s;")
        assert spec.system.heads["s"] == __import__("fractions").Fraction(17, 5)

    def test_mixing_evenodd_and_tail_rejected(self):
        with pytest.raises(SpecSyntaxError):
            parse("s(0)=0; even(s)=s; odd(s)=s; t(0)=0; t'=t;")

    def test_mixing_delta_and_tail_rejected(self):
        with pytest.raises(SpecSyntaxError):
            parse("s(0)=0; delta(s)=s; t(0)=0; t'=t;")


class TestClassify:
    def test_nats_is_linear(self):
        spec = parse("s(0)=1; s'=s; t(0)=0; t' = t + s;")
        assert classify(spec.system) is Kind.LINEAR

    def test_catalan_is_context_free(self):
        spec = parse("s(0)=1; s' = s*s;")
        assert classify(spec.system) is Kind.CONTEXT_FREE

    def test_even_rhs_is_general(self):
        spec = parse("s(0)=0; s' = even(s);")
        assert classify(spec.system) is Kind.GENERAL

    def test_nonstd(self):
        spec = parse("algebra Z; x(0)=1; delta(x) = x;")
        assert classify(spec.system) is Kind.NONSTD
        assert spec.system.tail_op == "delta"

    def test_evenodd(self):
        spec = parse("s(0)=0; even(s)=s; odd(s)=s;")
        assert classify(spec.system) is Kind.EVEN_ODD

    def test_monotone(self):
        # every simple system satisfies the linear and context-free predicates
        from streamcalc.speclang import is_context_free, is_linear, is_simple

        for text in ("s(0)=1; s'=s;",
                     "s(0)=1; s'=t; t(0)=0; t'=s;"):
            sys = parse(text).system
            assert is_simple(sys) and is_linear(sys) and is_context_free(sys)
        linear = parse("s(0)=1; s' = 2*s;").system
        assert not is_simple(linear) and is_linear(linear) and is_context_free(linear)

    def test_scalar_chains_are_linear(self):
        sys = parse("s(0)=1; s' = 2*3*s + -s;").system
        assert classify(sys) is Kind.LINEAR


class TestGsosValidation:
    def test_convolution_definition_ok(self):
        spec = parse("""
        def plus(a, b) { out = a(0) + b(0); deriv = plus(a', b'); }
        def times(a, b) { out = a(0) * b(0);
                          deriv = plus(times(a', b), times([a(0)], b')); }
        """)
        verdict = validate_gsos(spec.defs["times"])
        assert verdict == Ok(sos=False)

    def test_sum_definition_is_sos(self):
        spec = parse("def plus(a, b) { out = a(0) + b(0); deriv = plus(a', b'); }")
        assert validate_gsos(spec.defs["plus"]) == Ok(sos=True)

    def test_higher_derivative_violates(self):
        spec = parse("def evn(a) { out = a(0); deriv = evn(a''); }")
        verdict = validate_gsos(spec.defs["evn"])
        assert isinstance(verdict, Violation)
        assert "higher" in verdict.reason

    def test_derivative_of_term_violates(self):
        spec = parse("def f(a) { out = a(0); deriv = (f(a))'; }")
        verdict = validate_gsos(spec.defs["f"])
        assert isinstance(verdict, Violation)
        assert "compound" in verdict.reason

    def test_three_way_guards_exhaustive(self):
        spec = parse("""
        def m(a, b) {
          when a(0) < b(0) => { out = a(0); deriv = m(a', b); }
          when a(0) = b(0) => { out = a(0); deriv = m(a', b'); }
          when a(0) > b(0) => { out = b(0); deriv = m(a, b'); }
        }
        """)
        assert validate_gsos(spec.defs["m"]) == Ok(sos=False)

    def test_incomplete_guards_violate(self):
        spec = parse("""
        def m(a, b) {
          when a(0) < b(0) => { out = a(0); deriv = m(a', b); }
          when a(0) = b(0) => { out = a(0); deriv = m(a', b'); }
        }
        """)
        assert isinstance(validate_gsos(spec.defs["m"]), Violation)

    def test_otherwise_makes_exhaustive(self):
        spec = parse("""
        def m(a, b) {
          when a(0) < b(0) => { out = a(0); deriv = m(a', b); }
          otherwise => { out = b(0); deriv = m(a, b'); }
        }
        """)
        assert validate_gsos(spec.defs["m"]) == Ok(sos=False)

    def test_builtin_names_not_redefinable(self):
        with pytest.raises(SpecSyntaxError):
            parse("def zip(a, b) { out = a(0); deriv = zip(b, a'); }")

    def test_unknown_param(self):
        with pytest.raises(UnknownSymbol):
            parse("def f(a) { out = a(0); deriv = b; }")


class TestZeroConsistency:
    def test_thue_morse_ok(self):
        spec = parse("""
        algebra F2;
        tm(0)=0; even(tm)=tm; odd(tm)=n;
        n(0)=1; even(n)=n; odd(n)=tm;
        """)
        assert check_zero_consistency(spec.system) == ZeroConsistent()

    def test_head_clash(self):
        spec = parse("""
        x(0)=0; even(x)=y; odd(x)=x;
        y(0)=1; even(y)=y; odd(y)=y;
        """)
        assert check_zero_consistency(spec.system) == ZeroInconsistent("x")

    def test_single_state_constant(self):
        spec = parse("x(0)=3; even(x)=x; odd(x)=x;")
        assert check_zero_consistency(spec.system) == ZeroConsistent()
        # oracle: bbin indexing of the one-state automaton is constant
        from streamcalc.automatic import compile_evenodd, value_at

        aut = compile_evenodd(spec.system)
        assert all(value_at(aut, "x", n) == 3 for n in range(64))


class TestRoundTrip:
    CASES = [
        "algebra Q;\ns(0) = 1;\ns' = s;\n",
        "algebra F2;\nt(0) = 0;\nt' = t*t + X*t*t;\n",
        "algebra Q;\ns(0) = 0;\ns'(0) = 1;\ns'' = s' + s;\n",
        "algebra Z;\nx(0) = 1;\ndelta(x) = x;\n",
        "algebra Q;\nx(0) = 1;\nddx(x) = x;\n",
        "algebra F2;\ntm(0) = 0;\neven(tm) = tm;\nodd(tm) = n;\n"
        "n(0) = 1;\neven(n) = n;\nodd(n) = tm;\n",
        "algebra Q;\ndef f(a, b) { out = a(0) + -b(0); deriv = f(b', a) + [2]; }\n",
        "algebra Q;\ng(0) = 1;\ng' = merge(2*g, merge(3*g, 5*g));\n",
        "algebra Q;\ns(0) = 1;\ns' = sqrt(inv(s) + s*s - -s);\n",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_parse_print_parse(self, text):
        spec = parse(text)
        printed = print_spec(spec)
        assert parse(printed) == spec

    @given(st.integers(-99, 99), st.integers(-99, 99), st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_generated_linear(self, a, b, c):
        text = f"s(0) = {a}; s' = {b}*s + t; t(0) = {c}; t' = t - s;"
        spec = parse(text)
        assert parse(print_spec(spec)) == spec


class TestParseTerm:
    def test_ground_term(self):
        spec = parse("algebra Q;")
        t = parse_term("[5] * ([1] + X)", spec)
        assert t == OpApp("*", (Const(HLit(5)),
                                OpApp("+", (Const(HLit(1)), OpApp("X", ())))))

    def test_system_variables_visible(self):
        spec = parse("s(0)=1; s'=s;")
        assert parse_term("s + s", spec) == OpApp("+", (Var("s"), Var("s")))

    def test_unknown_rejected(self):
        spec = parse("algebra Q;")
        with pytest.raises(UnknownSymbol):
            parse_term("nope", spec)


class TestBooleanGuards:
    SPEC = """
    algebra Q;
    def clamp(a) {
      when a(0) >= 0 and not (a(0) = 2) => { out = a(0); deriv = clamp(a'); }
      when a(0) = 2 or a(0) < -1       => { out = 0;   deriv = clamp(a'); }
      otherwise                          => { out = 1;   deriv = clamp(a'); }
    }
    """

    def test_parse_validate_roundtrip(self):
        spec = parse(self.SPEC)
        assert validate_gsos(spec.defs["clamp"]) == Ok(sos=True)
        assert parse(print_spec(spec)) == spec

    def test_guard_evaluation(self):
        from conftest import from_fn
        from streamcalc.gsos import eval_term
        from streamcalc.stream import take

        spec = parse(self.SPEC)
        source = from_fn(Q, lambda n: [3, 2, -5, -1, 0][n % 5])
        got = take(eval_term(OpApp("clamp", (Var("s"),)), {"s": source},
                             defs=spec.defs), 5)
        # 3 -> first clause; 2 -> second; -5 -> second; -1 -> third; 0 -> first
        assert got == [3, 0, 0, 1, 0]
