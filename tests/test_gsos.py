"""The syntactic stream automaton: traces, evaluation, system solving."""

import collections
import functools

import pytest

from conftest import Q, from_fn, prefix, rand_rational_stream, seeded
from streamcalc import NonProductive, SpecError, bounded_eq, parse, parse_term
from streamcalc import calculus, speclang
from streamcalc.algebra import get_algebra, registered_algebras
from streamcalc.errors import (
    AlgebraMismatch,
    HeadNotInvertible,
    NoExactSqrt,
    UnknownSymbol,
    UnorderedAlgebra,
    UnsupportedOp,
)
from streamcalc.gsos import (
    Engine,
    State,
    SymbolicStuck,
    SymHead,
    _sym_var,
    d_d,
    eval_term,
    load_system,
    o_d,
    solve_system_with_defs,
    sym_add,
    sym_equal,
    sym_mul,
    sym_neg,
    term_of_state,
)
from streamcalc.solvers import linear_system_of, solve_linear_coinductive
from streamcalc.speclang import (
    BoolOp,
    Cmp,
    Const,
    DVar,
    HArg,
    HLit,
    HOp,
    Not,
    OpApp,
    Sum,
    TermDeriv,
    Var,
)
from streamcalc.stream import Equal, take


def ex84_setup():
    """sigma=(2,0,0,...), tau=ones, delta=(1,0,0,...) over the arithmetic
    signature, as in the worked syntactic-automaton example."""
    engine = Engine(Q)
    sigma = calculus.constant(Q, 2)
    tau = calculus.ones(Q)
    delta = calculus.constant(Q, 1)
    return engine, sigma, tau, delta


class TestSyntacticAutomaton:
    def test_leaf_clauses(self):
        engine, sigma, tau, delta = ex84_setup()
        leaf = engine.leaf(sigma)
        assert o_d(leaf) == 2
        assert d_d(leaf) is engine.leaf(sigma.tail)

    def test_leaves_are_interned_on_positions(self):
        # a leaf is one state per (node, index), so the derivative of a
        # leaf is the leaf of the tail, built afresh, on every kind of stream
        from streamcalc import cons, series

        spec = parse("algebra Q; s(0) = 1; s' = s*s;")
        engine = Engine(Q)
        behaviour = engine.behaviour(engine.app("+", [engine.lit(1), engine.leaf(
            calculus.ones(Q))]))
        streams = (series.solve_by_coefficients(spec.system)["s"],
                   cons(3, calculus.ones(Q)), behaviour)
        for s in streams:
            leaf = engine.leaf(s)
            assert engine.derivative(leaf) is engine.leaf(s.tail)
            assert engine.derivative(engine.derivative(leaf)) is engine.leaf(s.tail.tail)
            assert engine.leaf(s.tail) is not leaf
        assert take(streams[0], 5) == [1, 1, 2, 5, 14]
        assert take(streams[1], 3) == [3, 1, 1]
        assert take(behaviour, 3) == [2, 1, 1]

    def test_product_of_sum_transition(self):
        # sigma x (tau + delta) --4--> (sigma' x (tau+delta)) + ([2] x (tau'+delta'))
        engine, sigma, tau, delta = ex84_setup()
        plus = engine.app("+", [engine.leaf(tau), engine.leaf(delta)])
        state = engine.app("*", [engine.leaf(sigma), plus])
        assert o_d(state) == 4
        expected = engine.app("+", [
            engine.app("*", [engine.leaf(sigma.tail), plus]),
            engine.app("*", [engine.lit(2),
                             engine.app("+", [engine.leaf(tau.tail),
                                              engine.leaf(delta.tail)])]),
        ])
        assert d_d(state) is expected  # hash-consed identity

    def test_constant_times_leaf_transition(self):
        # [5] x sigma --10--> ([0] x sigma) + ([5] x sigma'), where the
        # displayed [0] in the second factor is the stream sigma' itself
        engine, sigma, _, _ = ex84_setup()
        state = engine.app("*", [engine.lit(5), engine.leaf(sigma)])
        assert o_d(state) == 10
        expected = engine.app("+", [
            engine.app("*", [engine.lit(0), engine.leaf(sigma)]),
            engine.app("*", [engine.lit(5), engine.leaf(sigma.tail)]),
        ])
        assert d_d(state) is expected
        # and that leaf really is the zero stream
        assert isinstance(
            bounded_eq(sigma.tail, calculus.zeros(Q), 8), Equal)

    def test_state_printing(self):
        engine, sigma, _, _ = ex84_setup()
        state = engine.app("*", [engine.lit(5), engine.leaf(sigma, name="sigma")])
        assert term_of_state(state) == "([5] * sigma)"


class TestEvalTerm:
    def test_example_product_stream(self):
        _, sigma, tau, delta = ex84_setup()
        term = OpApp("*", (Var("a"), OpApp("+", (Var("b"), Var("c")))))
        got = eval_term(term, {"a": sigma, "b": tau, "c": delta})
        assert prefix(got, 4) == [4, 2, 2, 2]

    def test_constant_times_stream(self):
        _, sigma, _, _ = ex84_setup()
        got = eval_term(OpApp("*", (Const(HLit(5)), Var("a"))), {"a": sigma})
        assert prefix(got, 4) == [10, 0, 0, 0]
        assert prefix(got.tail, 3) == [0, 0, 0]

    def test_bare_leaf(self):
        rng = seeded(1)
        s = rand_rational_stream(rng)
        assert isinstance(bounded_eq(eval_term(Var("a"), {"a": s}), s, 32), Equal)

    def test_homomorphism_property(self):
        # [[f(t1,...,tk)]] = f([[t1]],...,[[tk]]) on prefixes
        rng = seeded(2)
        for _ in range(20):
            s = rand_rational_stream(rng)
            t = rand_rational_stream(rng)
            whole = eval_term(
                OpApp("*", (Var("a"), OpApp("+", (Var("b"), OpApp("X", ()))))),
                {"a": s, "b": t})
            parts = calculus.conv_mul(s, calculus.add(t, calculus.x_stream(Q)))
            assert isinstance(bounded_eq(whole, parts, 32, budget=500_000), Equal)

    def test_redeclared_builtins_agree_with_native(self):
        # user GSOS definitions of +, x, shuffle, zip vs the calculus ops
        spec = parse("""
        algebra Q;
        def plus(a, b) { out = a(0) + b(0); deriv = plus(a', b'); }
        def times(a, b) { out = a(0) * b(0);
                          deriv = plus(times(a', b), times([a(0)], b')); }
        def shuf(a, b) { out = a(0) * b(0);
                         deriv = plus(shuf(a', b), shuf(a, b')); }
        def zp(a, b) { out = a(0); deriv = zp(b, a'); }
        def mrg(a, b) {
          when a(0) < b(0) => { out = a(0); deriv = mrg(a', b); }
          when a(0) = b(0) => { out = a(0); deriv = mrg(a', b'); }
          when a(0) > b(0) => { out = b(0); deriv = mrg(a, b'); }
        }
        """)
        rng = seeded(3)
        pairs = [
            ("plus", calculus.add),
            ("times", calculus.conv_mul),
            ("shuf", calculus.shuffle_mul),
            ("zp", calculus.zip_streams),
        ]
        for _ in range(10):
            s = rand_rational_stream(rng)
            t = rand_rational_stream(rng)
            for symbol, native in pairs:
                by_def = eval_term(OpApp(symbol, (Var("a"), Var("b"))),
                                   {"a": s, "b": t}, defs=spec.defs)
                assert isinstance(
                    bounded_eq(by_def, native(s, t), 32, budget=500_000), Equal)
        by_def = eval_term(OpApp("mrg", (Var("a"), Var("b"))),
                           {"a": calculus.nats(Q), "b": calculus.nats(Q)},
                           defs=spec.defs)
        assert prefix(by_def, 5) == [1, 2, 3, 4, 5]

    def test_full_table_transcription(self):
        # every stream-calculus operation written out as a DSL definition
        # passes validation and agrees with its native implementation
        from streamcalc.speclang import Ok, validate_gsos

        spec = parse("""
        algebra Q;
        def kzero() { out = 0; deriv = kzero(); }
        def k5() { out = 5; deriv = kzero(); }
        def plus(a, b) { out = a(0) + b(0); deriv = plus(a', b'); }
        def sc3(a) { out = 3 * a(0); deriv = sc3(a'); }
        def mns(a) { out = -a(0); deriv = mns(a'); }
        def times(a, b) { out = a(0) * b(0);
                          deriv = plus(times(a', b), times([a(0)], b')); }
        def cinv(a) { out = inv(a(0));
                      deriv = times(times([-inv(a(0))], a'), cinv(a)); }
        """)
        for d in spec.defs.values():
            assert isinstance(validate_gsos(d), Ok), d.symbol
        rng = seeded(7)
        s = rand_rational_stream(rng)
        t = rand_rational_stream(rng)
        shifted = calculus.add(s, calculus.constant(Q, 1 + abs(s.head)))
        cases = [
            (OpApp("k5", ()), calculus.constant(Q, 5), {}),
            (OpApp("plus", (Var("a"), Var("b"))), calculus.add(s, t),
             {"a": s, "b": t}),
            (OpApp("sc3", (Var("a"),)), calculus.scalar(3, s), {"a": s}),
            (OpApp("mns", (Var("a"),)), calculus.neg(s), {"a": s}),
            (OpApp("times", (Var("a"), Var("b"))), calculus.conv_mul(s, t),
             {"a": s, "b": t}),
            (OpApp("cinv", (Var("a"),)), calculus.conv_inv(shifted),
             {"a": shifted}),
        ]
        for term, native, env in cases:
            by_def = eval_term(term, env, defs=spec.defs, algebra=Q)
            assert isinstance(
                bounded_eq(by_def, native, 32, budget=2_000_000), Equal), term

    def test_sos_never_touches_arguments(self):
        # an SOS definition substitutes only derivatives: the x-substitution
        # counter must stay at zero
        spec = parse("def plus(a, b) { out = a(0) + b(0); deriv = plus(a', b'); }")
        engine = Engine(Q, spec.defs)
        state = engine.from_term(OpApp("plus", (Var("a"), Var("b"))),
                                 {"a": calculus.ones(Q), "b": calculus.nats(Q)})
        take(engine.behaviour(state), 16)
        assert engine.stats["x_subst"] == 0

    def test_gsos_definition_required(self):
        spec = parse("def evn(a) { out = a(0); deriv = evn(a''); }")
        with pytest.raises(SpecError):
            Engine(Q, spec.defs)


class TestSubtermReplacement:
    def test_bisimilar_subterm_preserves_prefix(self):
        # replacing tau+delta by a stream with the same 32-prefix leaves
        # the evaluated term's 32-prefix unchanged
        rng = seeded(4)
        for _ in range(10):
            s = rand_rational_stream(rng)
            t = rand_rational_stream(rng)
            u = calculus.add(s, t)
            v = calculus.add(t, s)  # same stream, different construction
            assert isinstance(bounded_eq(u, v, 32), Equal)
            outer1 = eval_term(OpApp("*", (Var("w"), Var("u"))),
                               {"w": s, "u": u})
            outer2 = eval_term(OpApp("*", (Var("w"), Var("u"))),
                               {"w": s, "u": v})
            assert prefix(outer1, 32) == prefix(outer2, 32)


class TestSolveSystems:
    def test_nats_through_signature_extension(self):
        spec = parse("s(0)=1; s'=s; t(0)=0; t' = t + s;")
        by_engine = solve_system_with_defs(spec.system)
        by_linear = solve_linear_coinductive(linear_system_of(spec.system))
        for name in ("s", "t"):
            assert isinstance(
                bounded_eq(by_engine[name], by_linear[name], 64), Equal)
        assert prefix(by_engine["t"], 6) == [0, 1, 2, 3, 4, 5]

    def test_hamming_with_defs(self):
        spec = parse("g(0)=1; g' = merge(2*g, merge(3*g, 5*g));")
        got = solve_system_with_defs(spec.system)
        assert prefix(got["g"], 12) == [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16]

    def test_even_loop_is_nonproductive(self):
        spec = parse("s(0)=0; s' = even(s);")
        stream = solve_system_with_defs(spec.system)["s"]
        with pytest.raises(NonProductive):
            take(stream, 3)

    def test_zip_of_tail_form(self):
        # the even-odd-of-tail format x' = zip(x_j, x_k) runs on the engine
        # with the native zip; here x(n+1) alternates y's and x's own values
        spec = parse("""
        algebra Q;
        x(0)=0; x' = zip(y, x);
        y(0)=1; y' = y;
        """)
        got = solve_system_with_defs(spec.system)
        values = prefix(got["x"], 9)
        # oracle: x(0) = 0, x(2k+1) = y(k) = 1, x(2k+2) = x(k)
        expected = [0] * 9
        for k in range(4):
            expected[2 * k + 1] = 1
            expected[2 * k + 2] = expected[k]
        assert values == expected == [0, 1, 0, 1, 1, 1, 0, 1, 1]

    def test_fibonacci(self):
        spec = parse("s(0)=0; s'(0)=1; s'' = s' + s;")
        got = solve_system_with_defs(spec.system)
        assert prefix(got["s"], 8) == [0, 1, 1, 2, 3, 5, 8, 13]


class TestEvalCli:
    def test_parse_term_eval(self):
        spec = parse("""
        algebra Q;
        def times2(a) { out = 2 * a(0); deriv = times2(a'); }
        s(0)=1; s' = s;
        """)
        engine = Engine(Q, spec.defs)
        load_system(engine, spec.system)
        term = parse_term("times2(s) + [1]", spec)
        got = engine.behaviour(engine.from_term(term))
        assert prefix(got, 4) == [3, 2, 2, 2]


class TestNativeFallbacks:
    def test_delta_and_ddx_inside_general_systems(self):
        spec = parse("""
        algebra Q;
        t(0) = 1; t' = t + t;
        s(0) = 0; s' = delta(t);
        u(0) = 0; u' = ddx(t);
        """)
        got = solve_system_with_defs(spec.system)
        assert prefix(got["t"], 5) == [1, 2, 4, 8, 16]
        # delta(t) = (1, 2, 4, ...) and ddx(t) = (2, 8, 24, 64, ...)
        assert prefix(got["s"], 5) == [0, 1, 2, 4, 8]
        assert prefix(got["u"], 5) == [0, 2, 8, 24, 64]


# ---------------------------------------------------------------------------
# The compiled clause bodies against a walk of their syntax trees


class _LazyHeads:
    """Argument heads, forced only when a clause mentions them."""

    def __init__(self, engine, args):
        self.engine = engine
        self.args = args

    def __getitem__(self, i):
        return self.engine.output(self.args[i])


class RecordingEngine(Engine):
    """An engine that logs every output and derivative call, in order."""

    def __init__(self, algebra, defs=None):
        self.calls = []
        super().__init__(algebra, defs)

    def output(self, state):
        self.calls.append(("o", state.sid))
        return super().output(state)

    def derivative(self, state):
        self.calls.append(("d", state.sid))
        return super().derivative(state)


class ReferenceEngine(RecordingEngine):
    """The engine with clause bodies, and terms from outside, evaluated by
    walking their syntax trees for every state, as before they were
    compiled: the reference for the compiled closures."""

    def from_term(self, term, env=None, symbolic=False):
        env = env or {}
        if isinstance(term, Var):
            if term.name in env:
                bound = env[term.name]
                return bound if isinstance(bound, State) else self.leaf(
                    bound, name=term.name)
            if (term.name, 0) in self.defs:
                return self.app(term.name, ())
            if symbolic:
                return self.var(term.name)
            raise UnknownSymbol(f"unbound stream variable {term.name!r}")
        if isinstance(term, DVar):
            state = self.from_term(Var(term.name), env, symbolic)
            for _ in range(term.order):
                state = self.derivative(state)
            return state
        if isinstance(term, Const):
            return self.lit(speclang.eval_headexpr(term.value, (), self.algebra))
        if isinstance(term, OpApp):
            args = []
            for a in term.args:
                args.append(self.from_term(a, env, symbolic))
            return self.app(term.symbol, args)
        if isinstance(term, Sum):
            return self._fold_sum(term, lambda t: self.from_term(t, env, symbolic))
        raise SpecError(f"cannot evaluate term {term!r}")

    def _fold_sum(self, term, state_of):
        """The left-nested binary + and - states of a Sum's summands."""
        parts = iter(term.summands)
        state = state_of(next(parts)[0])
        for s, negated in parts:
            state = self.app("-" if negated else "+", (state, state_of(s)))
        return state

    def _compute_output(self, state):
        if state.kind == "leaf":
            return state.stream.head
        if state.kind == "lit":
            return state.value
        if state.kind == "var":
            return _sym_var(self.algebra, state.name, state.order)
        clause = self._select_clause(state)
        return self._hval(clause.out, _LazyHeads(self, state.args))

    def derivative(self, state):
        self.calls.append(("d", state.sid))
        nxt = state._next
        if nxt is None:
            if state.kind == "leaf":
                nxt = self.leaf(state.stream.tail)
            elif state.kind == "lit":
                if self._zero_lit is None:
                    self._zero_lit = self.lit(self.algebra.zero)
                nxt = self._zero_lit
            elif state.kind == "var":
                nxt = self.var(state.name, state.order + 1)
            else:
                clause = self._select_clause(state)
                heads = _LazyHeads(self, state.args)
                params = self.defs[state.symbol, len(state.args)].params
                nxt = self._instantiate(clause.deriv, params, state.args, heads)
            state._next = nxt
        return nxt

    def _select_clause(self, state):
        clause = state._clause
        if clause is None:
            heads = _LazyHeads(self, state.args)
            for c in self.defs[state.symbol, len(state.args)].clauses:
                if c.guard is None or self._guard_holds(c.guard, heads):
                    clause = c
                    break
            else:
                raise SpecError(f"no clause of {state.symbol!r} matched")
            state._clause = clause
        return clause

    def _instantiate(self, term, params, args, heads):
        if isinstance(term, Var):
            if term.name not in params:
                return self.app(term.name, ())
            self.stats["x_subst"] += 1
            return args[params.index(term.name)]
        if isinstance(term, DVar):
            state = args[params.index(term.name)]
            for _ in range(term.order):
                state = self.derivative(state)
            return state
        if isinstance(term, Const):
            return self.lit_or_stuck(self._hval(term.value, heads))
        if isinstance(term, OpApp):
            states = []
            for a in term.args:
                states.append(self._instantiate(a, params, args, heads))
            return self.app(term.symbol, states)
        if isinstance(term, Sum):
            return self._fold_sum(
                term, lambda t: self._instantiate(t, params, args, heads))
        if isinstance(term, TermDeriv):
            raise SpecError("derivative of a compound term in a derivative clause")
        raise SpecError(f"cannot instantiate {term!r}")

    def _hval(self, expr, heads):
        alg = self.algebra
        if isinstance(expr, HLit):
            return alg.coerce(expr.value)
        if isinstance(expr, HArg):
            return heads[expr.index]
        if isinstance(expr, HOp):
            args = []
            for a in expr.args:
                args.append(self._hval(a, heads))
            if expr.op == "+":
                return sym_add(alg, *args)
            if expr.op == "*":
                return sym_mul(alg, *args)
            if expr.op == "-":
                return sym_add(alg, args[0], sym_neg(alg, args[1]))
            if expr.op == "neg":
                return sym_neg(alg, args[0])
            if expr.op in ("inv", "sqrt"):
                if isinstance(args[0], SymHead):
                    raise SymbolicStuck(f"{expr.op} of a symbolic head")
                return speclang.eval_headexpr(
                    HOp(expr.op, (HLit(args[0]),)), (), alg)
        raise SpecError(f"bad head expression {expr!r}")

    def _guard_holds(self, guard, heads):
        alg = self.algebra
        if isinstance(guard, BoolOp):
            results = [self._guard_holds(g, heads) for g in guard.args]
            return any(results) if guard.op == "or" else all(results)
        if isinstance(guard, Not):
            return not self._guard_holds(guard.arg, heads)
        if isinstance(guard, Cmp):
            left = self._hval(guard.left, heads)
            right = self._hval(guard.right, heads)
            symbolic = isinstance(left, SymHead) or isinstance(right, SymHead)
            if guard.op in ("=", "!="):
                if symbolic:
                    if sym_equal(alg, left, right):
                        return guard.op == "="
                    raise SymbolicStuck("equality guard over symbolic heads")
                eq = alg.eq(left, right)
                return eq if guard.op == "=" else not eq
            if symbolic:
                raise SymbolicStuck("order guard over symbolic heads")
            if alg.lt is None:
                raise UnorderedAlgebra(f"{alg.name} has no order for guards")
            if guard.op == "<":
                return alg.lt(left, right)
            if guard.op == "<=":
                return not alg.lt(right, left)
            if guard.op == ">":
                return alg.lt(right, left)
            if guard.op == ">=":
                return not alg.lt(left, right)
        raise SpecError(f"bad guard {guard!r}")


# plus and times of corpus/defs_arith.sde; pick has guards (and, or, not,
# an order comparison), head constants, an inv head, a Const clause and a
# sum with a subtraction.  Parsed over Q, so their literals are rationals
# that each engine coerces into its own algebra: dbl's 2 is no Boolean.
REFERENCE_DEFS = """
def plus(a, b) { out = a(0) + b(0); deriv = plus(a', b'); }
def times(a, b) { out = a(0) * b(0); deriv = plus(times(a', b), times([a(0)], b')); }
def pick(a, b) {
  when a(0) = b(0) and not (a(0) = 0) => { out = a(0) * b(0) + 1; deriv = pick(b', [a(0) + 1] * a); }
  when b(0) = 0 or a(0) < b(0) => { out = b(0) - a(0); deriv = plus(a', b) - b' + X; }
  otherwise => { out = inv(a(0)) + b(0); deriv = pick(a', b') + [b(0)]; }
}
def dbl(a) { out = 2 * a(0); deriv = dbl(a') + X * a; }
"""
# (symbol, arity), in the order of the draws
REFERENCE_OPS = (("*", 2), ("+", 2), ("-", 2), ("X", 0), ("dbl", 1), ("hadamard", 2),
                 ("inv", 1), ("merge", 2), ("-", 1), ("pick", 2), ("plus", 2),
                 ("shuffle", 2), ("sqrt", 1), ("times", 2), ("zip", 2))


def reference_term(rng, depth, used):
    """A random term over REFERENCE_OPS with the stream variables a, b, c
    and literals at the leaves; the symbols it applies go into `used`."""
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.7:
            return Var(rng.choice("abc"))
        return Const(HLit(rng.choice((0, 1, 1, 2))))
    symbol, arity = rng.choice(REFERENCE_OPS)
    used.add((symbol, arity))
    args = []
    for _ in range(arity):
        args.append(reference_term(rng, depth - 1, used))
    return OpApp(symbol, tuple(args))


def walk(engine, term, env, symbolic, steps=7):
    """Output and derivative of a term's state and its derivatives, in
    turn, up to the first exception: [(sid, term, output), ...] and the
    exception's type, or None."""
    trace = []
    try:
        state = engine.from_term(term, env, symbolic=symbolic)
        for _ in range(steps):
            trace.append((state.sid, term_of_state(state), engine.output(state)))
            state = engine.derivative(state)
    except Exception as raised:  # any exception is an outcome to compare
        return trace, type(raised)
    return trace, None


@functools.lru_cache(maxsize=None)
def compiled_against_reference(alg):
    """Walks of 60 seeded terms over `alg` on the compiled engine and on
    the reference, asserted equal: the same states in the same order,
    outputs, output and derivative calls, and exception types.  Returns
    the count of walks per exception type (None: no exception)."""
    rng = seeded(f"compiled:{alg.name}")
    defs = parse(REFERENCE_DEFS).defs
    values = [alg.sample(rng) for _ in range(5)]
    outcomes, used = collections.Counter(), set()
    for trial in range(60):
        term = reference_term(rng, 3, used)
        # some variables are streams, the rest stream variables when symbolic
        symbolic = trial % 3 == 0
        env = {}
        for name in "abc":
            if not symbolic or rng.random() < 0.4:
                cycle = [rng.choice(values) for _ in range(rng.randint(1, 4))]
                env[name] = from_fn(alg, lambda i, cycle=cycle: cycle[i % len(cycle)])
        compiled, reference = RecordingEngine(alg, defs), ReferenceEngine(alg, defs)
        got = walk(compiled, term, env, symbolic)
        assert got == walk(reference, term, env, symbolic), term
        assert compiled.calls == reference.calls
        assert compiled._next_sid == reference._next_sid
        assert compiled.stats == reference.stats
        outcomes[got[1]] += 1
    assert used == set(REFERENCE_OPS)
    return outcomes


class TestCompiledClauses:
    @pytest.mark.parametrize("alg", registered_algebras(), ids=lambda a: a.name)
    def test_same_states_outputs_and_errors_as_the_syntax_walk(self, alg):
        outcomes = compiled_against_reference(alg)
        assert outcomes[None] and outcomes[SymbolicStuck]

    def test_every_error_path_is_reached(self):
        raised = collections.Counter()
        for alg in registered_algebras():
            raised.update(compiled_against_reference(alg))
        for kind in (UnsupportedOp, UnorderedAlgebra, AlgebraMismatch, SymbolicStuck):
            assert raised[kind], kind
        assert raised[HeadNotInvertible] + raised[NoExactSqrt]

    def test_malformed_parts_raise_where_the_walk_did(self):
        # a derivative of a compound term (only a system's right-hand side
        # escapes validation), an unknown head operation and a guard that
        # is no comparison compile, and raise only once evaluated
        a, cube = HArg(0), HOp("cube", (HArg(0),))
        outcomes = []
        for engine_class in (RecordingEngine, ReferenceEngine):
            engine = engine_class(Q)
            engine.add_constant("k", 1, OpApp("+", (Var("k"), TermDeriv(Var("k"), 1))))
            for name, guard in (("cubed", Cmp("=", a, cube)), ("lit", HLit(1))):
                engine.add_def(speclang.GsosDef(name, ("x",), (
                    speclang.GsosClause(guard, a, DVar("x")),
                    speclang.GsosClause(None, cube, DVar("x")))))
            leaf = engine.leaf(calculus.ones(Q))
            got = []
            for state in (engine.app("k", ()), engine.app("cubed", (leaf,)),
                          engine.app("lit", (leaf,))):
                for step in (engine.output, engine.derivative):
                    try:
                        got.append(step(state))
                    except SpecError as raised:
                        got.append(str(raised))
            outcomes.append((got, engine.calls, engine._next_sid))
        assert outcomes[0][0][:2] == [1, "derivative of a compound term in a derivative clause"]
        assert outcomes[0][0][2].startswith("bad head expression")
        assert outcomes[0][0][4].startswith("bad guard")
        assert outcomes[0] == outcomes[1]


class TestOneCompiler:
    """Definitions are compiled as they enter an engine, and terms from
    outside become states through the same compiler."""

    def test_definitions_stay_in_their_engine(self):
        # the builtins' compiled clauses are shared by every engine over Q
        one, other = Engine(Q), Engine(Q)
        second_of = speclang.GsosDef("zip", ("x1", "x2"), (
            speclang.GsosClause(None, HArg(1), OpApp("zip", (DVar("x1"), DVar("x2")))),))
        one.add_def(second_of)
        one.add_def(parse("def dbl(a) { out = 2 * a(0); deriv = dbl(a'); }").defs["dbl"])
        one.add_constant("k", 1, Var("k"))
        env = {"a": calculus.nats(Q), "b": calculus.ones(Q)}
        zipped = OpApp("zip", (Var("a"), Var("b")))
        assert prefix(one.behaviour(one.from_term(zipped, env)), 4) == [1, 1, 1, 1]
        for engine in (other, Engine(Q)):
            assert prefix(engine.behaviour(engine.from_term(zipped, env)), 4) == [1, 1, 2, 1]
            assert ("dbl", 1) not in engine.defs and ("k", 0) not in engine.defs
            with pytest.raises(UnknownSymbol):
                engine.from_term(OpApp("dbl", (Var("a"),)), env)
            with pytest.raises(UnknownSymbol):
                engine.from_term(Var("k"))
        other.add_constant("k", 2, Var("k"))
        assert prefix(other.behaviour(other.from_term(Var("k"))), 3) == [2, 2, 2]
        assert prefix(one.behaviour(one.from_term(Var("k"))), 3) == [1, 1, 1]

    def test_a_redefinition_applies_to_states_made_after_it(self):
        engine = Engine(Q)
        engine.add_def(parse("def f(a) { out = a(0); deriv = f(a'); }").defs["f"])
        term = OpApp("f", (Var("a"),))
        before = engine.behaviour(engine.from_term(term, {"a": calculus.ones(Q)}))
        assert prefix(before, 3) == [1, 1, 1]
        engine.add_def(parse("def f(a) { out = 2 * a(0); deriv = f(a'); }").defs["f"])
        after = engine.behaviour(engine.from_term(term, {"a": calculus.nats(Q)}))
        assert prefix(after, 3) == [2, 4, 6]
        assert prefix(before, 4) == [1, 1, 1, 1]

    def test_free_names_resolve_in_order(self):
        # bound in env, else a nullary definition, else a stream variable
        # if symbolic; none of them is an argument substitution
        engine = Engine(Q)
        engine.add_constant("k", 5, Var("k"))
        nats = calculus.nats(Q)
        assert engine.from_term(Var("k"), {"k": nats}) is engine.leaf(nats)
        assert engine.from_term(Var("k"), symbolic=True) is engine.app("k", ())
        assert engine.from_term(Var("v"), symbolic=True) is engine.var("v")
        assert engine.from_term(DVar("v", 2), symbolic=True) is engine.var("v", 2)
        assert engine.output(engine.from_term(DVar("a", 2), {"a": nats})) == 3
        assert engine.stats["x_subst"] == 0

    def test_hand_built_terms(self):
        engine = Engine(Q)
        with pytest.raises(UnknownSymbol, match="unbound stream variable 'q'"):
            engine.from_term(OpApp("+", (Var("q"), OpApp("X", ()))))
        with pytest.raises(SpecError, match="derivative of a compound term"):
            engine.from_term(TermDeriv(OpApp("X", ()), 1))
        three = engine.from_term(Const(HOp("+", (HLit(1), HLit(2)))))
        assert three is engine.lit(3)
        # a constant head runs on the engine's own head operations
        with pytest.raises(UnsupportedOp, match="Nat has no negation"):
            Engine(get_algebra("Nat")).from_term(Const(HOp("-", (HLit(2), HLit(1)))))


class TestBuiltinNames:
    """A definition whose clauses are a builtin's, up to renaming, is that
    builtin (gsos.builtin_names, kept as SpecFile.builtins); one that
    differs in any part stays on the engine."""

    PLUS = "def plus(a, b) { out = a(0) + b(0); deriv = plus(a', b'); }\n"
    TIMES = ("def times(a, b) { out = a(0) * b(0); "
             "deriv = plus(times(a', b), times([a(0)], b')); }\n")

    @staticmethod
    def names(text, alg="Q"):
        return parse(f"algebra {alg};\n{text}").builtins

    def test_plus_and_times_are_builtins(self):
        assert self.names(self.PLUS + self.TIMES) == {"plus": "+", "times": "*"}
        # a builtin applied in the clause, and a sum for `+`
        assert self.names("def p(x, y) { out = x(0) + y(0); deriv = x' + y'; }") == {"p": "+"}
        assert self.names("def s(x, y) { out = x(0) * y(0); "
                          "deriv = s(x', y) + s(x, y'); }") == {"s": "shuffle"}
        # flip of corpus/defs_signed.sde is unary minus
        assert self.names("def flip(a) { out = -a(0); deriv = flip(a'); }",
                          "Z") == {"flip": "-"}

    @pytest.mark.parametrize("text", [
        # swapped arguments
        "def times(a, b) { out = a(0) * b(0); deriv = plus(times(b', a), times([a(0)], b')); }",
        # a guard
        "def times(a, b) { when a(0) = 0 => { out = a(0) * b(0); deriv = plus(times(a', b), "
        "times([a(0)], b')); } otherwise => { out = a(0) * b(0); "
        "deriv = plus(times(a', b), times([a(0)], b')); } }",
        # another literal
        "def times(a, b) { out = a(0) * b(0); deriv = plus(times(a', b), times([2], b')); }",
        # another builtin's clause: +'s output under *'s derivative
        "def times(a, b) { out = a(0) + b(0); deriv = plus(times(a', b), times([a(0)], b')); }",
        # parameters used out of order
        "def times(a, b) { out = b(0) * a(0); deriv = plus(times(a', b), times([a(0)], b')); }",
    ], ids=["swapped", "guard", "literal", "other builtin", "parameter order"])
    def test_near_misses_stay_on_the_engine(self, text):
        spec = parse(f"algebra Q;\n{self.PLUS}{text.replace('times', 'tms')}\n"
                     "s(0) = 1;\ns' = tms(s, s);\n")
        assert spec.builtins == {"plus": "+"}
        from streamcalc import series

        assert [kind for kind, _, _ in spec.system.plan.steps] == [series._application]

    def test_near_misses_of_nullary_and_unary_builtins(self):
        assert self.names("def one() { out = 0; deriv = 2; }") == {}
        assert self.names("def ex() { out = 0; deriv = 1; }") == {"ex": "X"}
        # Tropical's zero is inf, not 0
        assert self.names("def ex() { out = 0; deriv = 1; }", "Tropical") == {}
        assert self.names("def id(a) { out = a(0); deriv = id(a'); }") == {}
        assert self.names("def twice(a) { out = a(0) + a(0); deriv = twice(a'); }") == {}
        # hadamard's derivative under *'s output is hadamard
        assert self.names("def h(a, b) { out = a(0) * b(0); deriv = h(a', b'); }") == {
            "h": "hadamard"}

    def test_the_greatest_fixpoint(self):
        # times is * only because plus is +: with a plus that is not, it is not
        bad_plus = "def plus(a, b) { out = a(0) + b(0); deriv = plus(b', a'); }\n"
        assert self.names(bad_plus + self.TIMES) == {}
        # and two definitions that are + through each other are both +
        assert self.names("def p(a, b) { out = a(0) + b(0); deriv = q(a', b'); }\n"
                          "def q(a, b) { out = a(0) + b(0); deriv = p(a', b'); }") == {
            "p": "+", "q": "+"}
        # where one of them is not, neither is
        assert self.names("def p(a, b) { out = a(0) + b(0); deriv = q(a', b'); }\n"
                          "def q(a, b) { out = a(0) + b(0); deriv = p(b', a'); }") == {}
