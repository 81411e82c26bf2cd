"""The syntactic stream automaton for GSOS definition sets.

States are hash-consed terms whose leaves are streams (or literal
elements), so the substitution step of the derivative clause shares
subterm states and structurally equal terms are identical objects.
Output and next state of every node are computed exactly once.

Unknowns of an equation system enter as fresh nullary definitions (the
signature-extension device), so solving a system and evaluating a term
are the same operation.  Builtins in the GSOS shape (+, -, *, inv, X,
shuffle, hadamard, sqrt, zip, merge) get generated definitions and run
syntactically; the non-causal builtins (even, odd, delta, ddx) fall
back to the calculus operations, series nodes over the argument
behaviour streams, under the re-entrancy trap and the global budget.

For equivalence proofs, leaves may also be *stream variables*.  Their
heads are opaque indeterminates; head arithmetic then happens in the
polynomial ring over those indeterminates, and any step that would need
to decide something a polynomial identity cannot (an inverse of a
non-constant, an order comparison) raises SymbolicStuck.
"""

from . import calculus, speclang
from .errors import (
    GsosViolation,
    NonProductive,
    SpecError,
    UnknownSymbol,
    UnorderedAlgebra,
    UnsupportedOp,
)
from .speclang import (
    BoolOp,
    Cmp,
    Const,
    DVar,
    GsosClause,
    GsosDef,
    HArg,
    HLit,
    HOp,
    Not,
    OpApp,
    Sum,
    TermDeriv,
    Var,
    Violation,
    validate_gsos,
)
from .stream import Stream, _charge, ensure_recursion_room

_NATIVE_ONLY = ("even", "odd", "delta", "ddx")


class SymbolicStuck(Exception):
    """A computation needed more than polynomial identities can give."""


# ---------------------------------------------------------------------------
# Symbolic heads: polynomials over the heads of stream variables


class SymHead:
    """Multivariate polynomial over indeterminates h(x, k) = x^(k)(0).

    terms maps a monomial -- a sorted tuple of ((name, order), exp)
    pairs -- to a nonzero coefficient.  A constant is never represented
    as a SymHead; the arithmetic below unwraps it back to an element.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    def __eq__(self, other):
        return isinstance(other, SymHead) and self.terms == other.terms

    def __repr__(self):
        return f"SymHead({self.terms!r})"


def _sym_var(alg, name, order):
    return SymHead({(((name, order), 1),): alg.one})


def _as_terms(alg, v):
    if isinstance(v, SymHead):
        return v.terms
    return {} if alg.is_zero(v) else {(): v}


def _wrap(alg, terms):
    if not terms:
        return alg.zero
    if len(terms) == 1 and () in terms:
        return terms[()]
    return SymHead(terms)


def sym_add(alg, a, b):
    if not isinstance(a, SymHead) and not isinstance(b, SymHead):
        return alg.add(a, b)
    out = dict(_as_terms(alg, a))
    for mono, c in _as_terms(alg, b).items():
        s = alg.add(out[mono], c) if mono in out else c
        if alg.is_zero(s):
            out.pop(mono, None)
        else:
            out[mono] = s
    return _wrap(alg, out)


def sym_mul(alg, a, b):
    if not isinstance(a, SymHead) and not isinstance(b, SymHead):
        return alg.mul(a, b)
    out = {}
    for m1, c1 in _as_terms(alg, a).items():
        for m2, c2 in _as_terms(alg, b).items():
            mono = _mono_mul(m1, m2)
            c = alg.mul(c1, c2)
            s = alg.add(out[mono], c) if mono in out else c
            if alg.is_zero(s):
                out.pop(mono, None)
            else:
                out[mono] = s
    return _wrap(alg, out)


def _mono_mul(m1, m2):
    exps = dict(m1)
    for key, e in m2:
        exps[key] = exps.get(key, 0) + e
    return tuple(sorted(exps.items()))


def sym_neg(alg, a):
    if not isinstance(a, SymHead):
        if alg.neg is None:
            raise UnsupportedOp(f"{alg.name} has no negation")
        return alg.neg(a)
    if alg.neg is None:
        raise UnsupportedOp(f"{alg.name} has no negation")
    return SymHead({m: alg.neg(c) for m, c in a.terms.items()})


def sym_equal(alg, a, b):
    """True: provably equal for all instantiations; False: undecided
    or (for two concrete elements) genuinely different."""
    if not isinstance(a, SymHead) and not isinstance(b, SymHead):
        return alg.eq(a, b)
    ta, tb = _as_terms(alg, a), _as_terms(alg, b)
    if ta.keys() != tb.keys():
        return False
    return all(alg.eq(ta[m], tb[m]) for m in ta)


# ---------------------------------------------------------------------------
# States


class State:
    """A hash-consed node of the syntactic stream automaton."""

    __slots__ = ("engine", "sid", "kind", "stream", "value", "symbol", "args",
                 "name", "order", "has_vars", "depth", "_out", "_next",
                 "_clause", "_beh", "_forcing")

    def __init__(self, engine, sid, kind, stream=None, value=None,
                 symbol=None, args=(), name=None, order=0, has_vars=False):
        self.engine = engine
        self.sid = sid
        self.kind = kind
        self.stream = stream
        self.value = value
        self.symbol = symbol
        self.args = args
        self.name = name
        self.order = order
        self.has_vars = has_vars
        # a loop, not max() over a generator: states are made by the thousand
        depth = 0
        for a in args:
            if a.depth > depth:
                depth = a.depth
        self.depth = depth + 1
        self._out = self
        self._next = None
        self._clause = None
        self._beh = None
        self._forcing = False

    def __repr__(self):
        return f"<state {term_of_state(self)}>"


def o_d(state):
    """Output clause of the syntactic automaton."""
    return state.engine.output(state)


def d_d(state):
    """Derivative clause of the syntactic automaton."""
    return state.engine.derivative(state)


def behaviour(state):
    return state.engine.behaviour(state)


def term_of_state(state, max_depth=12):
    # hash-consed states are dags; unshared printing of a deep dag is
    # exponential, so rendering is depth-capped
    if state.kind == "leaf":
        return state.name
    if state.kind == "lit":
        return f"[{state.engine.algebra.fmt(state.value)}]"
    if state.kind == "var":
        return state.name + "'" * state.order
    if max_depth <= 0:
        return "..."
    sym = state.symbol
    if sym == "X":
        return "X"
    if sym == "neg":
        return f"-{term_of_state(state.args[0], max_depth - 1)}"
    if sym in ("+", "-", "*"):
        return (f"({term_of_state(state.args[0], max_depth - 1)} {sym} "
                f"{term_of_state(state.args[1], max_depth - 1)})")
    if not state.args:
        return sym
    inner = ", ".join(term_of_state(a, max_depth - 1) for a in state.args)
    return f"{sym}({inner})"


class _LazyHeads:
    """Argument heads, forced only when an o/d clause mentions them."""

    __slots__ = ("engine", "args")

    def __init__(self, engine, args):
        self.engine = engine
        self.args = args

    def __getitem__(self, i):
        return self.engine.output(self.args[i])


# ---------------------------------------------------------------------------
# Builtin definitions in the GSOS shape


def _builtin_defs(alg):
    x1, x2 = Var("x1"), Var("x2")
    y1, y2 = DVar("x1"), DVar("x2")
    a, b = HArg(0), HArg(1)
    zero, one = HLit(alg.zero), HLit(alg.one)

    def d(symbol, params, clauses):
        return GsosDef(symbol, params, tuple(clauses))

    def clause(out, deriv, guard=None):
        return GsosClause(guard, out, deriv)

    defs = {
        "+": d("+", ("x1", "x2"),
               [clause(HOp("+", (a, b)), OpApp("+", (y1, y2)))]),
        "-": d("-", ("x1", "x2"),
               [clause(HOp("-", (a, b)), OpApp("-", (y1, y2)))]),
        "neg": d("neg", ("x1",),
                 [clause(HOp("neg", (a,)), OpApp("neg", (y1,)))]),
        "*": d("*", ("x1", "x2"),
               [clause(HOp("*", (a, b)),
                       OpApp("+", (OpApp("*", (y1, x2)),
                                   OpApp("*", (Const(a), y2)))))]),
        "inv": d("inv", ("x1",),
                 [clause(HOp("inv", (a,)),
                         OpApp("*", (Const(HOp("neg", (HOp("inv", (a,)),))),
                                     OpApp("*", (y1, OpApp("inv", (x1,)))))))]),
        "X": d("X", (),
               [clause(zero, Const(one))]),
        "shuffle": d("shuffle", ("x1", "x2"),
                     [clause(HOp("*", (a, b)),
                             OpApp("+", (OpApp("shuffle", (y1, x2)),
                                         OpApp("shuffle", (x1, y2)))))]),
        "hadamard": d("hadamard", ("x1", "x2"),
                      [clause(HOp("*", (a, b)), OpApp("hadamard", (y1, y2)))]),
        "sqrt": d("sqrt", ("x1",),
                  [clause(HOp("sqrt", (a,)),
                          OpApp("*", (y1, OpApp("inv",
                                (OpApp("+", (Const(HOp("sqrt", (a,))),
                                             OpApp("sqrt", (x1,)))),)))))]),
        "zip": d("zip", ("x1", "x2"),
                 [clause(a, OpApp("zip", (x2, y1)))]),
        "merge": d("merge", ("x1", "x2"),
                   [clause(a, OpApp("merge", (y1, x2)), Cmp("<", a, b)),
                    clause(a, OpApp("merge", (y1, y2)), Cmp("=", a, b)),
                    clause(b, OpApp("merge", (x1, y2)), Cmp(">", a, b))]),
    }
    return defs


# ---------------------------------------------------------------------------
# The engine


class Engine:
    """Evaluation context: a definition set over one algebra.

    The hash-cons table and all memoised outputs are confined to the
    engine; like streams, an engine is a single-observer object.
    """

    def __init__(self, algebra, defs=None):
        self.algebra = algebra
        self.defs = _builtin_defs(algebra)
        self._table = {}
        self._next_sid = 0
        self._zero_lit = None
        self.stats = {"x_subst": 0}
        for d in (defs or {}).values():
            self.add_def(d)

    def add_def(self, d):
        verdict = validate_gsos(d)
        if isinstance(verdict, Violation):
            raise GsosViolation(f"definition of {d.symbol!r} is not in the "
                                f"GSOS format: {verdict.reason}", verdict.span)
        self.defs[d.symbol] = d

    def add_constant(self, name, head, rhs_term):
        """Introduce an equation-system unknown as a fresh nullary symbol."""
        if name in self.defs:
            raise SpecError(f"symbol {name!r} already defined")
        head = self.algebra.coerce(head)
        self.defs[name] = GsosDef(name, (), (GsosClause(None, HLit(head), rhs_term),))

    # -- state construction (hash-consed)

    def _intern(self, key, make):
        state = self._table.get(key)
        if state is None:
            state = make(self._next_sid)
            self._next_sid += 1
            self._table[key] = state
        return state

    def leaf(self, stream, name=None):
        key = ("leaf", id(stream))
        return self._intern(key, lambda sid: State(
            self, sid, "leaf", stream=stream,
            name=name or f"s{sid}"))

    def lit(self, value):
        value = self.algebra.coerce(value)
        return self._intern(("lit", value),
                            lambda sid: State(self, sid, "lit", value=value))

    def var(self, name, order=0):
        return self._intern(("var", name, order),
                            lambda sid: State(self, sid, "var", name=name,
                                              order=order, has_vars=True))

    def app(self, symbol, args):
        if symbol == "-" and len(args) == 1:
            symbol = "neg"
        args = tuple(args)
        d = self.defs.get(symbol)
        if d is not None:
            if len(args) != d.arity:
                raise UnknownSymbol(f"{symbol!r} takes {d.arity} argument(s)")
            key = ("app", symbol, tuple([a.sid for a in args]))
            # _intern inlined, with no closure made per call: most calls
            # find a state made before
            state = self._table.get(key)
            if state is None:
                state = State(self, self._next_sid, "app", symbol=symbol, args=args,
                              has_vars=any(a.has_vars for a in args))
                self._next_sid += 1
                self._table[key] = state
            return state
        if symbol in _NATIVE_ONLY:
            # non-GSOS builtin: evaluate natively on the behaviour streams
            streams = [self.behaviour(a) for a in args]
            result = calculus.apply_builtin(symbol, streams, self.algebra)
            return self.leaf(result, name=None)
        raise UnknownSymbol(f"unknown operation {symbol!r}")

    def from_term(self, term, env=None, symbolic=False):
        env = env or {}
        if isinstance(term, Var):
            if term.name in env:
                bound = env[term.name]
                return bound if isinstance(bound, State) else self.leaf(
                    bound, name=term.name)
            if term.name in self.defs and self.defs[term.name].arity == 0:
                return self.app(term.name, ())
            if symbolic:
                return self.var(term.name)
            raise UnknownSymbol(f"unbound stream variable {term.name!r}")
        if isinstance(term, DVar):
            base = self.from_term(Var(term.name), env, symbolic)
            state = base
            for _ in range(term.order):
                state = self.derivative(state)
            return state
        if isinstance(term, Const):
            value = speclang.eval_headexpr(term.value, (), self.algebra)
            return self.lit(value)
        if isinstance(term, OpApp):
            # a loop, not a comprehension: one frame per level, not two
            args = []
            for a in term.args:
                args.append(self.from_term(a, env, symbolic))
            return self.app(term.symbol, args)
        if isinstance(term, Sum):
            return self._fold_sum(term, lambda t: self.from_term(t, env, symbolic))
        raise SpecError(f"cannot evaluate term {term!r}")

    def _fold_sum(self, term, state_of):
        """The state of a Sum as the left-nested binary + and - states the
        summands would have as a hand-built chain."""
        parts = iter(term.summands)
        state = state_of(next(parts)[0])
        for s, negated in parts:
            state = self.app("-" if negated else "+", (state, state_of(s)))
        return state

    # -- the automaton structure o_D / d_D

    def output(self, state):
        out = state._out
        if out is state:
            if state._forcing:
                raise NonProductive()
            _charge()
            if state.depth > 64:
                # output/derivative recurse along the term spine; deep
                # states (long derivative chains) need more frames
                ensure_recursion_room(10 * state.depth + 1000)
            state._forcing = True
            try:
                out = self._compute_output(state)
            finally:
                state._forcing = False
            state._out = out
        return out

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
                params = self.defs[state.symbol].params
                nxt = self._instantiate(clause.deriv, params, state.args, heads)
            state._next = nxt
        return nxt

    def _select_clause(self, state):
        clause = state._clause
        if clause is None:
            d = self.defs[state.symbol]
            heads = _LazyHeads(self, state.args)
            for c in d.clauses:
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
                # a system unknown, present as a nullary constant
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
            # a loop, not a comprehension: one frame per level, not two
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

    def lit_or_stuck(self, value):
        if isinstance(value, SymHead):
            raise SymbolicStuck("constant clause over symbolic heads")
        return self.lit(value)

    def _hval(self, expr, heads):
        alg = self.algebra
        if isinstance(expr, HLit):
            return alg.coerce(expr.value)
        if isinstance(expr, HArg):
            return heads[expr.index]
        if isinstance(expr, HOp):
            # a loop, not a comprehension: one frame per level, not two
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

    # -- behaviour streams

    def behaviour(self, state):
        if state.kind == "leaf":
            return state.stream
        if state.has_vars:
            raise SymbolicStuck("a symbolic state has no behaviour stream")
        beh = state._beh
        if beh is None:
            if state.kind == "lit":
                beh = calculus.constant(self.algebra, state.value)
            else:
                beh = Stream(self.algebra, lambda: (
                    self.output(state),
                    self.behaviour(self.derivative(state))))
            state._beh = beh
        return beh


def eval_term(term, env=None, defs=None, algebra=None):
    """Behaviour stream of a term over streams, under a definition set."""
    engines_alg = algebra
    if engines_alg is None:
        for v in (env or {}).values():
            engines_alg = v.algebra
            break
    if engines_alg is None:
        raise UnsupportedOp("eval_term needs an algebra or a nonempty env")
    engine = Engine(engines_alg, defs)
    return engine.behaviour(engine.from_term(term, env))


def load_system(engine, sys):
    """Add an equation system's unknowns as constants of the engine."""
    if sys.tail_op != "tail" or sys.evens:
        raise UnsupportedOp("only ordinary tail systems run on the engine")
    for v in sys.variables:
        engine.add_constant(v, sys.heads[v], sys.rhs[v])
    return {v: engine.app(v, ()) for v in sys.variables}


def solve_system_with_defs(sys, defs=None, algebra=None):
    """Solve a (possibly General) system by the signature-extension device.

    For GSOS-conforming systems this is the unique solution; for General
    systems (non-causal builtins in the right-hand sides) any returned
    prefix is a prefix of every solution, and non-productive demands
    raise NonProductive.
    """
    engine = Engine(algebra or sys.algebra, defs)
    states = load_system(engine, sys)
    return {v: engine.behaviour(states[v]) for v in sys.variables}
