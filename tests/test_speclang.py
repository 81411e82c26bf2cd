"""Parsing, classification, GSOS validation, zero consistency, printing."""

import io
import pathlib
import re

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
    UnsupportedOp,
    classify,
    parse,
    parse_term,
    validate_gsos,
)
from streamcalc.algebra import get_algebra, registered_algebras, tropical
from streamcalc.cli import run
from streamcalc.solvers import context_free_system_of, linear_system_of
from streamcalc.speclang import (
    BUILTIN_ARITY,
    MAX_EXPANDED_MONOMIALS,
    MAX_HEIGHT,
    MAX_NESTING,
    Const,
    DVar,
    HLit,
    Ok,
    OpApp,
    Sum,
    UNEXPANDED,
    Var,
    Violation,
    ZeroConsistent,
    ZeroInconsistent,
    _TOKEN,
    _lex,
    _Parser,
    as_polynomial,
    check_zero_consistency,
    format_term,
    print_spec,
    summands,
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
        assert sys.rhs["s#1"] == Sum(((Var("s#1"), False), (Var("s"), False)))

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
        # a format is the most specific one its polynomial form allows
        for text, kind in (("s(0)=1; s'=s;", Kind.SIMPLE),
                           ("s(0)=1; s'=t; t(0)=0; t'=s;", Kind.SIMPLE),
                           ("s(0)=1; s' = 2*s;", Kind.LINEAR),
                           ("s(0)=1; s' = 2*s + X;", Kind.CONTEXT_FREE),
                           ("s(0)=1; s' = 2*s + even(s);", Kind.GENERAL)):
            assert classify(parse(text).system) is kind

    def test_scalar_chains_are_linear(self):
        sys = parse("s(0)=1; s' = 2*3*s + -s;").system
        assert classify(sys) is Kind.LINEAR

    def test_products_past_the_cap_are_not_expanded(self):
        # (s+X)^k has 2^k words; past the cap the product is read as
        # context-free without expanding it
        z = get_algebra("Z")
        small = parse("algebra Z; s(0)=1; s' = " + "*".join(["(s+X)"] * 12) + ";")
        large = parse("algebra Z; s(0)=1; s' = " + "*".join(["(s+X)"] * 30) + ";")
        assert len(as_polynomial(small.system.rhs["s"], z)) == 2 ** 12 == MAX_EXPANDED_MONOMIALS
        assert as_polynomial(large.system.rhs["s"], z) is UNEXPANDED
        assert classify(small.system) is classify(large.system) is Kind.CONTEXT_FREE
        for reader, message in ((linear_system_of, "not linear"),
                                (context_free_system_of, "too large to expand")):
            with pytest.raises(UnsupportedOp, match=message):
                reader(large.system)
        # no polynomial form still wins, before and after the large factor
        for term in ("even(s) * {0}", "{0} * even(s)", "{0} + even(s)", "-{0} - even(s)"):
            text = term.format("*".join(["(s+X)"] * 30))
            assert classify(parse(f"algebra Z; s(0)=1; s' = {text};").system) is Kind.GENERAL

    def test_the_cap_is_on_products_of_two_nonconstant_factors(self):
        # a scalar times a long sum stays linear, X times it cannot be
        z = get_algebra("Z")
        long_sum = Sum(tuple((Var(f"x{i}"), False) for i in range(2 * MAX_EXPANDED_MONOMIALS)))
        scaled = as_polynomial(OpApp("*", (Const(HLit(3)), long_sum)), z)
        assert len(scaled) == 2 * MAX_EXPANDED_MONOMIALS
        assert as_polynomial(OpApp("*", (OpApp("X", ()), long_sum)), z) is UNEXPANDED

    def test_cancellation_past_the_cap_is_not_seen(self):
        # a behaviour change of the cap: below it the squares cancel and
        # s' = 2*s is linear; past it the right-hand side reads context-free
        for k, kind in ((6, Kind.LINEAR), (13, Kind.CONTEXT_FREE)):
            power = "*".join(["(s+X)"] * k)
            sys = parse(f"algebra Z; s(0)=1; s' = {power} - {power} + 2*s;").system
            assert classify(sys) is kind


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


class TestSums:
    def test_chain_is_one_node(self):
        a, b, c = Var("a"), Var("b"), Var("c")
        spec = parse("algebra Z; a(0)=1; a' = a - b + c; b(0)=1; b' = (a + b) - c;"
                     "c(0)=1; c' = a - (b - c);")
        rhs = spec.system.rhs
        assert rhs["a"] == Sum(((a, False), (b, True), (c, False)))
        # a parenthesised sum leading a chain joins it; a later one nests
        assert rhs["b"] == Sum(((a, False), (b, False), (c, True)))
        assert rhs["c"] == Sum(((a, False), (Sum(((b, False), (c, True))), True)))

    @pytest.mark.parametrize("text,printed", [
        ("(a + b) - c", "a + b - c"),
        ("a - (b - c)", "a - (b - c)"),
        ("a + -b - -(a + b)", "a + -b - -(a + b)"),
        ("(a + b) * c + 2 * (b - a)", "(a + b) * c + [2] * (b - a)"),
    ])
    def test_printing(self, text, printed):
        spec = parse(f"algebra Z; a(0)=1; a' = {text}; b(0)=1; b' = b; c(0)=1; c' = c;")
        assert format_term(spec.system.rhs["a"], spec.algebra) == printed

    def test_hand_built_chains_read_as_sums(self):
        a, b, c = Var("a"), Var("b"), Var("c")
        chain = OpApp("-", (OpApp("+", (a, b)), c))
        parsed = Sum(((a, False), (b, False), (c, True)))
        assert summands(chain) == summands(parsed) == parsed.summands
        assert summands(OpApp("*", (a, b))) is None and summands(a) is None
        assert format_term(chain, Q) == format_term(parsed, Q) == "a + b - c"
        z = get_algebra("Z")
        assert as_polynomial(chain, z) == as_polynomial(parsed, z)

    def test_resolution_keeps_unchanged_summands(self):
        parser = _Parser("")
        same = Sum(((OpApp("*", (Var("s"), Var("s"))), False), (OpApp("X", ()), True)))
        assert parser.resolve(same, parser.system_rule({"s": 1}), None) is same
        derived = Sum(((same, False), (DVar("s", 1), True)))
        resolved = parser.resolve(derived, parser.system_rule({"s": 2}), None)
        assert resolved == Sum(((same, False), (Var("s#1"), True)))
        assert resolved.summands[0][0] is same


class TestParseTerm:
    def test_ground_term(self):
        spec = parse("algebra Q;")
        t = parse_term("[5] * ([1] + X)", spec)
        assert t == OpApp("*", (Const(HLit(5)),
                                Sum(((Const(HLit(1)), False), (OpApp("X", ()), False)))))

    def test_system_variables_visible(self):
        spec = parse("s(0)=1; s'=s;")
        assert parse_term("s + s", spec) == Sum(((Var("s"), False), (Var("s"), False)))

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


# ---------------------------------------------------------------------------
# The lexer against the character-by-character scanner it replaced


def _lex_oracle(source):
    """Reference lexer: one character at a time, deciding letters and
    digits by str.isalpha, str.isalnum and str.isdigit."""
    tokens = []
    line, col, i = 1, 1, 0
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        span = (line, col)
        if source[i:i + 2] in ("=>", "<=", ">=", "!="):
            tokens.append(("SYM", source[i:i + 2], span))
            i += 2
            col += 2
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] in "_#"):
                j += 1
            tokens.append(("IDENT", source[i:j], span))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(("NUMBER", source[i:j], span))
            col += j - i
            i = j
            continue
        if c in "()[]{};,='+-*<>/":
            tokens.append(("SYM", c, span))
            i += 1
            col += 1
            continue
        raise SpecSyntaxError(f"unexpected character {c!r}", span)
    tokens.append(("EOF", "", (line, col)))
    return tokens


def _outcome(lex, text):
    try:
        return lex(text)
    except SpecSyntaxError as err:
        return str(err), err.span


# the DSL's characters, blanks that are not newlines, and characters the
# str predicates sort differently: a letter, a digit that is not a
# decimal, and a number that is not a digit
_CHARS = st.sampled_from(list("abstxyzX_019'()[]{};,=+-*<>/! \n") +
                         ["\t", "\r", "é", "²", "½", "#"])
_FRAGMENTS = st.sampled_from([
    "s(0) = 1;", "s' = ", "t", "x1", "12", "1/2", " + ", " - ", "*", "inv(", "zip(",
    ")", "(", "[", "]", ";", ", ", "'", "=>", "<=", ">=", "!=", "algebra Z;",
    "def f(a) { out = a(0); deriv = f(a'); }", "even(s) = s;", "odd(s) = t;",
    "delta(x) = ", "when a(0) < 1 => { out = 1; deriv = a; } otherwise => {",
    "\n", "\t", "\r", "é", "²", "½", "#", "é2", "2é", "3²", "x#1",
])
SPEC_TEXT = st.one_of(
    st.text(_CHARS, max_size=300),
    st.lists(_FRAGMENTS, max_size=40).map("".join).map(lambda t: t[:300]),
)


@st.composite
def _systems(draw):
    """Equation systems over builtins, then possibly one character cut."""
    names = ["s", "t", "u"][:draw(st.integers(1, 3))]
    leaves = st.sampled_from(names + ["X", "[0]", "[2]", "1/2", "-1"])

    def extend(children):
        unary = st.tuples(st.sampled_from(["-", "inv", "sqrt", "even", "odd", "delta",
                                           "ddx", "("]), children)
        binary = st.tuples(st.sampled_from([" + ", " - ", "*", "zip", "merge",
                                            "shuffle", "hadamard"]), children, children)
        return st.one_of(
            unary.map(lambda u: f"{u[0]}{u[1]})" if u[0] == "(" else
                      f"-{u[1]}" if u[0] == "-" else f"{u[0]}({u[1]})"),
            binary.map(lambda b: f"({b[1]}{b[0]}{b[2]})" if b[0][-1] in " *" else
                       f"{b[0]}({b[1]}, {b[2]})"))

    terms = st.recursive(leaves, extend, max_leaves=6)
    tail = draw(st.sampled_from(["'", "delta", "ddx"]))
    lines = [draw(st.sampled_from(["", "algebra Z;", "algebra Nat;", "algebra F2;",
                                   "algebra Tropical;", "algebra Bool;"]))]
    for v in names:
        lines.append(f"{v}(0) = {draw(st.sampled_from(['0', '1', '2', '1/3']))};")
        rhs = draw(terms)
        lines.append(f"{v}' = {rhs};" if tail == "'" else f"{tail}({v}) = {rhs};")
    text = "\n".join(lines)[:300]
    cut = draw(st.one_of(st.none(), st.integers(0, max(len(text) - 1, 0))))
    return text if cut is None else text[:cut] + text[cut + 1:]


class TestLexer:
    @given(SPEC_TEXT)
    @settings(max_examples=200, deadline=None)
    def test_same_tokens_as_the_scanner(self, text):
        assert _outcome(_lex, text) == _outcome(_lex_oracle, text)

    @pytest.mark.parametrize("text", [
        "", "   \t", "x", "é2 x#1 _a", "12abc", "3²x", "١٢", "一 Ⅷ", "a\r\nb",
        "a ½", "a #", "a @", "a\x0bb", "=> <= >= != ==", "s'' = -s';",
        "9" * 5000 + "x", "9" * 5000 + "é", "9" * 5000,
    ])
    def test_pinned_texts(self, text):
        assert _outcome(_lex, text) == _outcome(_lex_oracle, text)

    def test_pattern_needs_no_python_3_11(self):
        # possessive quantifiers and atomic groups are Python 3.11 syntax;
        # pyproject.toml allows 3.10, where compiling them fails on import
        assert not re.search(r"[*+?}]\+|\(\?>", _TOKEN.pattern)

    @pytest.mark.parametrize("text,message", [
        ("x(0) = ²;", "1:8: bad rational literal '²'"),
        ("x(0) = 1²;", "1:8: bad rational literal '1²'"),
        ("x(0) = ½;", "1:8: unexpected character '½'"),
        ("s(0)=1;\n\ts' = s # s;", "2:9: unexpected character '#'"),
    ])
    def test_non_ascii_errors(self, text, message):
        with pytest.raises(SpecSyntaxError) as info:
            parse(text)
        assert str(info.value) == message

    def test_non_ascii_names_and_digits(self):
        spec = parse("é(0) = ١٢; é' = 2*é;")
        assert spec.system.variables == ("é",)
        assert spec.system.heads["é"] == 12


class TestNesting:
    @staticmethod
    def parens(depth):
        return "s(0)=1; s' = " + "(" * depth + "s" + ")" * depth + ";"

    @staticmethod
    def invs(depth):
        return "s(0)=1; s' = X*" + "inv(" * depth + "s" + ")" * depth + ";"

    @pytest.mark.parametrize("shape", ["parens", "invs"])
    def test_limit_parses(self, shape):
        assert parse(getattr(self, shape)(MAX_NESTING)).system.variables == ("s",)

    @pytest.mark.parametrize("shape,column", [("parens", 14 + MAX_NESTING),
                                              ("invs", 16 + 4 * MAX_NESTING + 3)])
    def test_one_deeper_is_refused_at_the_opening_token(self, shape, column):
        with pytest.raises(SpecSyntaxError) as info:
            parse(getattr(self, shape)(MAX_NESTING + 1))
        assert info.value.span == (1, column)
        assert "nesting deeper than" in str(info.value)

    @pytest.mark.parametrize("text", [
        "x(0) = " + "-" * (MAX_NESTING + 1) + "1;",
        "s(0)=1; s' = [" + "(" * MAX_NESTING + "1" + ")" * MAX_NESTING + "]*s;",
        "def f(a) { when " + "not (" * (MAX_NESTING + 1) + "a(0) = 0"
        + ")" * (MAX_NESTING + 1) + " => { out = 1; deriv = f(a'); } }",
    ], ids=["minus", "bracket", "guard"])
    def test_every_opener_counts(self, text):
        with pytest.raises(SpecSyntaxError, match="nesting deeper than"):
            parse(text)


# one chain of operators in a term, a head, a bracket and a def's output:
# the spec around it, its first operand, and each further operator with
# the operand after it
CHAINS = {
    "product": ("algebra Z; s(0) = 1; s' = {};", "s", " * s"),
    "head": ("s(0) = {}; s' = s;", "1", " + 1"),
    "bracket": ("s(0) = 1; s' = [{}] * s;", "1", " * 1"),
    "def": ("def f(a) {{ out = {}; deriv = f(a'); }} s(0) = 1; s' = f(s);", "a(0)", " - a(0)"),
}


def chain_text(shape, operators):
    spec, first, link = CHAINS[shape]
    return spec.format(first + link * operators)


class TestChains:
    @pytest.mark.parametrize("shape", sorted(CHAINS))
    def test_limit_parses(self, shape):
        assert parse(chain_text(shape, MAX_HEIGHT)).system.variables == ("s",)

    @pytest.mark.parametrize("shape", sorted(CHAINS))
    def test_one_longer_is_refused_at_its_first_token(self, shape):
        with pytest.raises(SpecSyntaxError) as info:
            parse(chain_text(shape, MAX_HEIGHT + 1))
        assert str(info.value).endswith(f"expression deeper than {MAX_HEIGHT} levels")
        before = CHAINS[shape][0].split("{}")[0].replace("{{", "{")
        assert info.value.span == (1, len(before) + 1)

    def test_a_head_expression_counts_every_operator_at_its_level(self):
        # a product leading a sum sits below all of the sum's operators
        stars = MAX_HEIGHT // 2
        pluses = MAX_HEIGHT - stars
        assert parse("s(0) = " + "2*" * stars + "3" + "+1" * pluses + "; s' = s;"
                     ).system.heads["s"] == 2 ** stars * 3 + pluses
        with pytest.raises(SpecSyntaxError, match="expression deeper than"):
            parse("s(0) = " + "2*" * stars + "3" + "+1" * (pluses + 1) + "; s' = s;")

    def test_nested_chains_add_up(self):
        # each chain sits 3 levels below the root of its term, head or bracket
        inner = "s" + "*s" * (MAX_HEIGHT - 3)
        assert parse(f"s(0)=1; s' = s*({inner})*s*f({inner});"
                     "def f(a) { out = a(0); deriv = f(a'); }").defs
        head = "1" + "+1" * (MAX_HEIGHT - 3)
        spec = parse(f"s(0) = 1+2*({head})*2; s' = [1+2*({head})*1]*s;")
        assert spec.system.heads["s"] == 1 + 4 * (MAX_HEIGHT - 2)
        for text in (f"s(0)=1; s' = s*({inner}*s)*s*s;", f"s(0) = 1+2*({head}+1)*2; s' = s;",
                     f"s(0)=1; s' = [1+2*({head}+1)*1]*s;"):
            with pytest.raises(SpecSyntaxError, match="expression deeper than"):
                parse(text)

    def test_term_sums_are_not_chains(self):
        assert len(parse("s(0)=1; s' = " + "s+" * 5000 + "s;").system.rhs["s"].summands) == 5001


# a whole term, head expression, guard and definition body made of a
# chain inside OPENERS one-level openers: the spec around it, the opener
# and its closer, the chain's first operand and each further operator
# with its operand, and the levels the spec adds above the expression
TALL = {
    "term": ("algebra Z; s(0) = 1; s' = {};", "-(", ")", "s", "*s", 0),
    "head": ("s(0) = {}; s' = s;", "-", "", "1", "*1", 0),
    "guard": ("def f(a) {{ when {} = 0 => {{ out = 1; deriv = f(a'); }} "
              "otherwise => {{ out = 0; deriv = f(a'); }} }} s(0) = 1; s' = f(s);",
              "-", "", "a(0)", "*a(0)", 1),
    "def": ("def f(a) {{ out = 1; deriv = {}; }} s(0) = 1; s' = f(s);",
            "-(", ")", "a'", "*a'", 0),
    "bracket": ("algebra Z; s(0) = 1; s' = [{}] * s;", "-", "", "1", "*1", 0),
}


# the one-level openers over the chain of a tall expression
OPENERS = 50


def tall(opener, closer, first, link, height):
    """OPENERS openers over a chain: an expression `height` levels tall."""
    chain = height - OPENERS
    return opener * OPENERS + first + link * chain + closer * OPENERS


def tall_text(shape, height):
    """The spec of `shape` whose expression is `height` levels tall."""
    spec, opener, closer, first, link, extra = TALL[shape]
    return spec.format(tall(opener, closer, first, link, height - extra))


def stacked(levels, width, atom):
    """((a*...*a)*a*...*a)*...: `levels` products of `width` factors `atom`,
    each leading the next, levels * (width - 1) levels tall."""
    expr = atom
    for _ in range(levels):
        expr = f"({expr})" + f"*{atom}" * (width - 1)
    return expr


def stacked_products(levels, width):
    return f"algebra Z; s(0) = 1; s' = {stacked(levels, width, 's')};"


def stacked_bracket(levels, width):
    return f"algebra Z; s(0) = 1; s' = [{stacked(levels, width, '1')}] * s;"


class TestHeight:
    @pytest.mark.parametrize("shape", sorted(TALL))
    def test_limit_parses(self, shape):
        assert parse(tall_text(shape, MAX_HEIGHT)).system.variables == ("s",)

    @pytest.mark.parametrize("shape", sorted(TALL))
    def test_one_taller_is_refused_at_its_first_token(self, shape):
        with pytest.raises(SpecSyntaxError) as info:
            parse(tall_text(shape, MAX_HEIGHT + 1))
        assert str(info.value).endswith(f"expression deeper than {MAX_HEIGHT} levels")
        before = TALL[shape][0].split("{}")[0].replace("{{", "{")
        assert info.value.span == (1, len(before) + 1)

    @pytest.mark.parametrize("text", [stacked_products, stacked_bracket])
    def test_stacked_chains_are_refused(self, text):
        width = 41
        levels = MAX_HEIGHT // (width - 1)
        assert parse(text(levels, width)).system is not None
        with pytest.raises(SpecSyntaxError, match="expression deeper than"):
            parse(text(levels + 1, width))

    def test_a_standalone_term_is_bounded(self):
        spec = parse("s(0) = 1; s' = s;")
        deep = tall("-(", ")", "s", "*s", MAX_HEIGHT + 1)
        with pytest.raises(SpecSyntaxError, match="expression deeper than"):
            parse_term(deep, spec)


def test_resolution_keeps_unchanged_subterms():
    parser = _Parser("")
    same = OpApp("+", (OpApp("*", (Var("s"), Var("s"))), OpApp("X", ())))
    assert parser.resolve(same, parser.system_rule({"s": 1}), None) is same
    derived = OpApp("+", (same, DVar("s", 1)))
    resolved = parser.resolve(derived, parser.system_rule({"s": 2}), None)
    assert resolved == OpApp("+", (same, Var("s#1")))
    assert resolved.args[0] is same


_FUZZ_FILES = ("a.sde", "b.sde", "c.sde")
_CORPUS_TEXTS = {p.stem: p.read_text(encoding="utf-8") for p in
                 (pathlib.Path(__file__).resolve().parent.parent / "corpus").glob("*.sde")}


def _mostly(valid, rare=()):
    """One of `valid`, or now and then one of `rare`.  Hypothesis favours
    the ends of a sampled list, so the rare choices go in its middle."""
    return st.sampled_from([*valid, *rare, *valid])


# a corpus text, or now and then a chain at or past speclang.MAX_HEIGHT
_CORPUS_OR_CHAIN = _mostly(sorted(_CORPUS_TEXTS.values()), [None]).flatmap(
    lambda text: st.just(text) if text else st.builds(
        chain_text, st.sampled_from(sorted(CHAINS)),
        st.sampled_from([300, MAX_HEIGHT, MAX_HEIGHT + 1, 3000])))


def _flags(valid, invalid=()):
    """Absent, one of the valid flags, or now and then an invalid one."""
    return _mostly([(), *(tuple(f.split(" ")) for f in valid)],
                   [tuple(f.split(" ")) for f in invalid])


@st.composite
def _argv(draw):
    """An argv for any command, naming the shared spec files by DIR/."""
    def path():
        return "DIR/" + draw(_mostly(_FUZZ_FILES, ["missing.sde"]))

    def sel():
        var = draw(_mostly(["s", "t", "x", "tm", "n"], ["", "s#t"]))
        return draw(_mostly([f"{path()}#{var}"], [path()]))

    count = _flags(["-n 0", "-n 7"], ["-n -1", "-n x"])
    # a step can cost much on a random system (a coefficient can be a huge
    # rational), so the budget is always given and small
    budget = _mostly([("--budget", "1"), ("--budget", "60"), ("--budget", "400")],
                     [("--budget", "0")])
    algebra = _flags(["--algebra Q", "--algebra Z", "--algebra Nat", "--algebra Bool",
                      "--algebra Tropical", "--algebra F2", "--algebra Fp(5)"],
                     ["--algebra Fp(4)", "--algebra R"])
    shapes = {
        "solve": lambda: ("solve", sel()) + draw(count) + draw(budget),
        "eval": lambda: ("eval", "--defs", path(), "--term", draw(_mostly(
            ["s", "X", "s + t", "even(s)", "plus(s, s)", "1/2"], ["(", "s'"])))
            + draw(count) + draw(budget),
        "closed-form": lambda: ("closed-form", sel()),
        "equiv": lambda: ("equiv", sel(), sel())
            + draw(_flags(["--up-to=+", "--up-to=+,*"], ["--up-to="]))
            + draw(_flags(["--prefix 0", "--prefix 5"], ["--prefix -1"]))
            # the up-to search grows quickly with the budget
            + ("--budget", draw(st.sampled_from(["1", "20", "60"]))),
        "kernel": lambda: ("kernel", sel()) + draw(budget),
        "at": lambda: ("at", draw(_mostly(["0", "9"], ["-1"])), sel()) + draw(budget),
        "bbin": lambda: ("bbin", draw(_mostly(["1/3", "-2/5", "0"], ["1/2", "x"])))
            + draw(count),
        "check": lambda: ("check", path()) + draw(budget),
        "none": lambda: draw(st.sampled_from([(), ("solve",), ("frobnicate",)])),
    }
    commands = ["solve", "eval", "closed-form", "equiv", "kernel", "at", "bbin", "check"]

    def command_argv(command):
        argv = shapes[command]()
        return argv if command in ("bbin", "none") else argv + draw(algebra)

    def help_argv():
        # a help flag after a command asks for help, whatever came before it
        argv = draw(st.sampled_from([(), ("solve",), None]))
        if argv is None:
            argv = command_argv(draw(st.sampled_from(commands)))
        return argv + draw(st.sampled_from([("--help",), ("-h",)]))

    command = draw(_mostly(commands, ["none", "help"]))
    return help_argv() if command == "help" else command_argv(command)


class TestCliFuzz:
    @pytest.fixture(scope="class")
    def shared_dir(self, tmp_path_factory):
        shared = tmp_path_factory.mktemp("cli-fuzz")
        for name, corpus_name in zip(_FUZZ_FILES, ("fib", "catalan", "thue_morse_evenodd")):
            (shared / name).write_text(_CORPUS_TEXTS[corpus_name], encoding="utf-8")
        return shared

    @given(writes=st.lists(st.tuples(st.sampled_from(_FUZZ_FILES), st.one_of(
               *[_CORPUS_OR_CHAIN] * 4, SPEC_TEXT,
               _systems())), max_size=1),
           argvs=st.lists(_argv(), min_size=1, max_size=3))
    @settings(max_examples=400, deadline=None)
    def test_every_command_ends_in_an_exit_code(self, shared_dir, writes, argvs):
        # the files outlive each example, so later examples read texts
        # that earlier ones left, some of them from the spec cache; a
        # write is a corpus text (now and then a long chain) four times
        # as often as a fuzzed one
        for name, text in writes:
            (shared_dir / name).write_text(text, encoding="utf-8")
        for argv in argvs:
            argv = [a.replace("DIR/", f"{shared_dir}/") for a in argv]
            answers = []
            for _ in range(2):
                out, err = io.StringIO(), io.StringIO()
                code = run(argv, out=out, err=err)
                answers.append((code, out.getvalue(), err.getvalue()))
            assert answers[0] == answers[1]
            code, out, err = answers[0]
            assert code in (0, 1, 2, 3)
            lines = err.splitlines()
            assert len(lines) <= 1 and all(line.startswith("error: ") for line in lines)
            # a failure with nothing else to say says why on one line
            if code == 3 or (code and not out):
                assert len(lines) == 1
            if code == 0:
                assert not lines


class TestCheckFuzz:
    @given(text=st.one_of(SPEC_TEXT, _systems()))
    @settings(max_examples=200, deadline=None)
    def test_check_never_escapes(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "spec.sde"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        code = run(["check", str(path)], out=out, err=err)
        assert code in (0, 1, 2, 3)
        lines = err.getvalue().splitlines()
        assert len(lines) <= 1 and all(line.startswith("error: ") for line in lines)
        if code == 3:
            assert len(lines) == 1


def test_builtin_tables_agree():
    # each evaluator keeps its own table of the builtins by (symbol, arity)
    from streamcalc import calculus, equivalence, gsos, series

    declared = {(symbol, arity) for symbol, arities in BUILTIN_ARITY.items()
                for arity in (arities if isinstance(arities, tuple) else (arities,))}
    # `operation` makes +, binary and unary - one linear combination
    by_series = set(series._OPERATIONS) | {("+", 2), ("-", 2), ("-", 1)}
    for alg in registered_algebras():
        by_engine = set(gsos._builtins(alg)[0]) | {(s, 1) for s in gsos._NATIVE_ONLY}
        assert declared == by_series == set(calculus._BUILTINS) == by_engine, alg.name
    for table in (equivalence.TABLE1_OPS, equivalence.COMMUTATIVE_OPS, equivalence._NEEDS):
        assert set(table) <= BUILTIN_ARITY.keys()
