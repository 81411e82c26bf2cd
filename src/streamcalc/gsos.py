"""The syntactic stream automaton for GSOS definition sets.

States are hash-consed terms whose leaves are streams (or literal
elements), so the substitution step of the derivative clause shares
subterm states and structurally equal terms are identical objects.
Output and next state of every node are computed exactly once, by the
clauses of its symbol's definition, compiled into closures when the
definition enters the engine.  A term from outside the engine becomes a
state through the same compiler.

An operation is a (symbol, arity) pair: unary minus is - of one argument.
Unknowns of an equation system enter as fresh nullary definitions (the
signature-extension device), so solving a system and evaluating a term
are the same operation.  Builtins in the GSOS shape (+, -, *, inv, X,
shuffle, hadamard, sqrt, zip, merge) get generated definitions and run
syntactically; the non-causal builtins (even, odd, delta, ddx) fall
back to the calculus operations, series nodes over the argument
behaviour streams' nodes, under the re-entrancy trap and the global
budget.  A stream is a leaf state per position (node, index).
`builtin_names` finds the definitions whose clauses are a builtin's up
to renaming; `series` runs their applications as those builtins, and
the engine only those of the other definitions.

For equivalence proofs, leaves may also be *stream variables*.  Their
heads are opaque indeterminates; head arithmetic then happens in the
polynomial ring over those indeterminates, and any step that would need
to decide something a polynomial identity cannot (an inverse of a
non-constant, an order comparison) raises SymbolicStuck.
"""

from . import calculus, speclang
from .errors import (
    AlgebraMismatch,
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
                 "_clause", "_beh", "_busy")

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
        self._busy = False

    def __repr__(self):
        return f"<state {term_of_state(self)}>"


def o_d(state):
    """Output clause of the syntactic automaton."""
    return state.engine.output(state)


def d_d(state):
    """Derivative clause of the syntactic automaton."""
    return state.engine.derivative(state)


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
    if sym == "-" and len(state.args) == 1:
        return f"-{term_of_state(state.args[0], max_depth - 1)}"
    if sym in ("+", "-", "*"):
        return (f"({term_of_state(state.args[0], max_depth - 1)} {sym} "
                f"{term_of_state(state.args[1], max_depth - 1)})")
    if not state.args:
        return sym
    inner = ", ".join(term_of_state(a, max_depth - 1) for a in state.args)
    return f"{sym}({inner})"


# ---------------------------------------------------------------------------
# Builtin definitions in the GSOS shape

# algebra -> its builtin definitions and their compiled clauses, each by
# (symbol, arity); the clauses take the engine as a parameter, so every
# engine shares them
_BUILTINS = {}


def _builtins(alg):
    built = _BUILTINS.get(alg)
    if built is not None:
        return built
    x1, x2 = Var("x1"), Var("x2")
    y1, y2 = DVar("x1"), DVar("x2")
    a, b = HArg(0), HArg(1)
    zero, one = HLit(alg.zero), HLit(alg.one)

    def d(symbol, params, clauses):
        return GsosDef(symbol, params, tuple(clauses))

    def clause(out, deriv, guard=None):
        return GsosClause(guard, out, deriv)

    defs = (
        d("+", ("x1", "x2"),
          [clause(HOp("+", (a, b)), OpApp("+", (y1, y2)))]),
        d("-", ("x1", "x2"),
          [clause(HOp("-", (a, b)), OpApp("-", (y1, y2)))]),
        d("-", ("x1",),
          [clause(HOp("neg", (a,)), OpApp("-", (y1,)))]),
        d("*", ("x1", "x2"),
          [clause(HOp("*", (a, b)),
                  OpApp("+", (OpApp("*", (y1, x2)),
                              OpApp("*", (Const(a), y2)))))]),
        d("inv", ("x1",),
          [clause(HOp("inv", (a,)),
                  OpApp("*", (Const(HOp("neg", (HOp("inv", (a,)),))),
                              OpApp("*", (y1, OpApp("inv", (x1,)))))))]),
        d("X", (),
          [clause(zero, Const(one))]),
        d("shuffle", ("x1", "x2"),
          [clause(HOp("*", (a, b)),
                  OpApp("+", (OpApp("shuffle", (y1, x2)),
                              OpApp("shuffle", (x1, y2)))))]),
        d("hadamard", ("x1", "x2"),
          [clause(HOp("*", (a, b)), OpApp("hadamard", (y1, y2)))]),
        d("sqrt", ("x1",),
          [clause(HOp("sqrt", (a,)),
                  OpApp("*", (y1, OpApp("inv",
                        (OpApp("+", (Const(HOp("sqrt", (a,))),
                                     OpApp("sqrt", (x1,)))),)))))]),
        d("zip", ("x1", "x2"),
          [clause(a, OpApp("zip", (x2, y1)))]),
        d("merge", ("x1", "x2"),
          [clause(a, OpApp("merge", (y1, x2)), Cmp("<", a, b)),
           clause(a, OpApp("merge", (y1, y2)), Cmp("=", a, b)),
           clause(b, OpApp("merge", (x1, y2)), Cmp(">", a, b))]),
    )
    defs = {(d.symbol, d.arity): d for d in defs}
    _BUILTINS[alg] = defs, {key: _compile_def(d, alg) for key, d in defs.items()}
    return _BUILTINS[alg]


# ---------------------------------------------------------------------------
# Definitions that are builtins
#
# A GSOS specification has one solution (Turi and Plotkin, 1997), so a
# definition whose clauses are a builtin's, with the parameters renamed by
# position and the user operations its clauses apply renamed to builtins
# that they in turn are, is that builtin.


def builtin_names(defs, alg):
    """The builtin that each definition of `defs` is, as {name: builtin
    symbol}, for those that are one.

    A definition is builtin b if its clauses equal b's in `_builtins(alg)`
    one by one, guards, head expressions and literals included, the i-th
    parameter standing for b's i-th, a chain of + and - for the binary
    operations nested to the left, and every user operation applied in
    place of a builtin being that builtin: the greatest such relation
    between definitions and builtins of one arity, found by dropping the
    pairs that fail until none does.  No two builtins have equal clauses
    up to that renaming, so a definition is at most one of them."""
    builtin_defs = _builtins(alg)[0]
    related = [(name, key) for name, d in defs.items() for key, b in builtin_defs.items()
               if b.arity == d.arity and len(b.clauses) == len(d.clauses)]
    kept = set(related)
    dropped = True
    while dropped:
        dropped = False
        for name, key in related:
            if (name, key) in kept and not _same_clauses(defs[name], builtin_defs[key], kept):
                kept.discard((name, key))
                dropped = True
    return {name: key[0] for name, key in related if (name, key) in kept}


def _same_clauses(d, b, related):
    for c, rule in zip(d.clauses, b.clauses):
        if (c.guard != rule.guard or c.out != rule.out
                or not _same_term(c.deriv, rule.deriv, d.params, b.params, related)):
            return False
    return True


def _same_term(t, u, params, rule_params, related):
    """Whether the derivative term t over `params` is the builtin's term u
    over `rule_params`.  The recursion goes as deep as u, which is shallow."""
    if type(t) is Sum:
        (first, _), *rest = t.summands
        for s, negated in rest:
            first = OpApp("-" if negated else "+", (first, s))
        t = first
    cls = type(t)
    if cls is not type(u):
        return False
    if cls is Var or cls is DVar:
        return (t.name in params and (cls is Var or t.order == u.order)
                and params.index(t.name) == rule_params.index(u.name))
    if cls is Const:
        return t.value == u.value
    if cls is not OpApp or len(t.args) != len(u.args):
        return False
    if t.symbol != u.symbol and (t.symbol, (u.symbol, len(u.args))) not in related:
        return False
    for a, b in zip(t.args, u.args):
        if not _same_term(a, b, params, rule_params, related):
            return False
    return True


# ---------------------------------------------------------------------------
# Clause bodies compiled into closures
#
# Each part of a clause -- its guard, `out` head expression and `deriv`
# term -- is turned into nested closures f(engine, args) over the
# argument states of the state it is applied to, when its definition
# enters the engine.  Heads are read through engine.output and derivatives
# taken through engine.derivative, states are made through engine.app and
# engine.lit, all in the order of the syntax tree, left to right.  The
# compile passes recurse one frame per level and so do the closures.  A
# malformed part compiles to a closure that raises each time it is
# evaluated, so the error comes at the step that reads that part, after
# the parts read before it.


def _compile_def(d, alg, resolve=None):
    """The clauses of a definition as (guard, out, deriv) closures, guard None if absent."""
    return tuple((None if c.guard is None else _compile_guard(c.guard, alg),
                  _compile_head(c.out, alg),
                  _compile_term(c.deriv, d.params, alg, resolve))
                 for c in d.clauses)


def _failing(kind, message):
    def fail(engine, args):
        raise kind(message)
    return fail


def _head_op(expr, alg):
    """The function of a head operation on the tuple of its argument values."""
    op = expr.op
    if op == "+":
        return lambda values: sym_add(alg, *values)
    if op == "*":
        return lambda values: sym_mul(alg, *values)
    if op == "-":
        return lambda values: sym_add(alg, values[0], sym_neg(alg, values[1]))
    if op == "neg":
        return lambda values: sym_neg(alg, values[0])
    if op in ("inv", "sqrt"):
        def root(values):
            if isinstance(values[0], SymHead):
                raise SymbolicStuck(f"{op} of a symbolic head")
            return speclang.head_root(op, values[0], alg)
        return root

    def bad(values):
        raise SpecError(f"bad head expression {expr!r}")
    return bad


def _compile_head(expr, alg):
    """f(engine, args) -> the value of a head expression."""
    if isinstance(expr, HLit):
        try:
            value = alg.coerce(expr.value)
        except AlgebraMismatch:
            return lambda engine, args: alg.coerce(expr.value)
        return lambda engine, args: value
    if isinstance(expr, HArg):
        i = expr.index
        return lambda engine, args: engine.output(args[i])
    if isinstance(expr, HOp):
        # a loop, not a comprehension: one frame per level, not two
        parts = []
        for a in expr.args:
            parts.append(_compile_head(a, alg))
        op = _head_op(expr, alg)
        if len(parts) == 2:
            first, second = parts
            return lambda engine, args: op((first(engine, args), second(engine, args)))

        def apply(engine, args):
            values = []
            for part in parts:
                values.append(part(engine, args))
            return op(values)
        return apply
    return _failing(SpecError, f"bad head expression {expr!r}")


def _compile_term(term, params, alg, resolve=None):
    """f(engine, args) -> the state of a derivative clause's term, or of
    a term whose names outside `params` are the states resolve(name)."""
    if isinstance(term, Var):
        name = term.name
        if name in params:
            i = params.index(name)

            def subst(engine, args):
                engine.stats["x_subst"] += 1
                return args[i]
            return subst
        if resolve is not None:
            return lambda engine, args: resolve(name)
        # another name, present as a nullary constant
        return lambda engine, args: engine.app(name, ())
    if isinstance(term, DVar):
        name, order = term.name, term.order
        if name in params:
            i = params.index(name)
            if order == 1:
                return lambda engine, args: engine.derivative(args[i])
            base = lambda engine, args: args[i]
        elif resolve is not None:
            base = lambda engine, args: resolve(name)
        else:
            # not an argument: a ValueError each time it is evaluated
            return lambda engine, args: args[params.index(name)]

        def derive(engine, args):
            state = base(engine, args)
            for _ in range(order):
                state = engine.derivative(state)
            return state
        return derive
    if isinstance(term, Const):
        head = _compile_head(term.value, alg)
        return lambda engine, args: engine.lit_or_stuck(head(engine, args))
    if isinstance(term, OpApp):
        symbol = term.symbol
        # a loop, not a comprehension: one frame per level, not two
        parts = []
        for a in term.args:
            parts.append(_compile_term(a, params, alg, resolve))
        if len(parts) == 2:
            first, second = parts
            return lambda engine, args: engine.app(
                symbol, (first(engine, args), second(engine, args)))

        def apply(engine, args):
            states = []
            for part in parts:
                states.append(part(engine, args))
            return engine.app(symbol, states)
        return apply
    if isinstance(term, Sum):
        # the left-nested binary + and - states a hand-built chain would have
        summands = []
        for s, negated in term.summands:
            part = _compile_term(s, params, alg, resolve)
            summands.append(("-" if negated else "+", part))
        (_, first), rest = summands[0], summands[1:]

        def fold(engine, args):
            state = first(engine, args)
            for symbol, part in rest:
                state = engine.app(symbol, (state, part(engine, args)))
            return state
        return fold
    if isinstance(term, TermDeriv):
        return _failing(SpecError, "derivative of a compound term in a derivative clause")
    return _failing(SpecError, f"cannot instantiate {term!r}")


def _compile_guard(guard, alg):
    """f(engine, args) -> whether a clause's guard holds."""
    if isinstance(guard, BoolOp):
        parts = []
        for g in guard.args:
            parts.append(_compile_guard(g, alg))
        combine = any if guard.op == "or" else all

        def boolean(engine, args):
            # every operand is evaluated, as each may raise
            results = []
            for part in parts:
                results.append(part(engine, args))
            return combine(results)
        return boolean
    if isinstance(guard, Not):
        inner = _compile_guard(guard.arg, alg)
        return lambda engine, args: not inner(engine, args)
    if isinstance(guard, Cmp):
        left, right = _compile_head(guard.left, alg), _compile_head(guard.right, alg)
        return _comparison(guard, alg, left, right)
    return _failing(SpecError, f"bad guard {guard!r}")


def _comparison(guard, alg, left, right):
    op = guard.op

    def compare(engine, args):
        a, b = left(engine, args), right(engine, args)
        symbolic = isinstance(a, SymHead) or isinstance(b, SymHead)
        if op in ("=", "!="):
            if symbolic:
                if sym_equal(alg, a, b):
                    return op == "="
                raise SymbolicStuck("equality guard over symbolic heads")
            eq = alg.eq(a, b)
            return eq if op == "=" else not eq
        if symbolic:
            raise SymbolicStuck("order guard over symbolic heads")
        if alg.lt is None:
            raise UnorderedAlgebra(f"{alg.name} has no order for guards")
        if op == "<":
            return alg.lt(a, b)
        if op == "<=":
            return not alg.lt(b, a)
        if op == ">":
            return alg.lt(b, a)
        if op == ">=":
            return not alg.lt(a, b)
        raise SpecError(f"bad guard {guard!r}")
    return compare


# ---------------------------------------------------------------------------
# The engine


class Engine:
    """Evaluation context: a definition set over one algebra.

    The hash-cons table and all memoised outputs are confined to the
    engine; like streams, an engine is a single-observer object.
    """

    def __init__(self, algebra, defs=None, validated=False):
        self.algebra = algebra
        builtin_defs, builtin_rules = _builtins(algebra)
        # (symbol, arity) -> its definition, and its clauses by _compile_def
        self.defs = dict(builtin_defs)
        self._rules = dict(builtin_rules)
        self._table = {}  # leaf, lit and var states
        self._apps = {}   # (symbol, *argument states) -> the application state
        self._next_sid = 0
        self._zero_lit = None
        self.stats = {"x_subst": 0}
        for d in (defs or {}).values():
            self.add_def(d, validated)

    def add_def(self, d, validated=False):
        """Add a definition, refusing one outside the GSOS format unless the
        caller has `validated` it."""
        if not validated:
            verdict = validate_gsos(d)
            if isinstance(verdict, Violation):
                raise verdict.refusal(d.symbol)
        self._rules[d.symbol, d.arity] = _compile_def(d, self.algebra)
        self.defs[d.symbol, d.arity] = d

    def add_constant(self, name, head, rhs_term, resolve=None):
        """Introduce an equation-system unknown as a fresh nullary symbol,
        the names in rhs_term resolved as by _compile_term."""
        if (name, 0) in self.defs:
            raise SpecError(f"symbol {name!r} already defined")
        head = self.algebra.coerce(head)
        d = GsosDef(name, (), (GsosClause(None, HLit(head), rhs_term),))
        self._rules[name, 0] = _compile_def(d, self.algebra, resolve)
        self.defs[name, 0] = d

    # -- state construction (hash-consed)

    def _intern(self, key, make):
        state = self._table.get(key)
        if state is None:
            state = make(self._next_sid)
            self._next_sid += 1
            self._table[key] = state
        return state

    def leaf(self, stream, name=None):
        key = ("leaf", stream.node, stream.index)
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
        # keyed on the argument states themselves, which hash by identity,
        # so the key holds the arity; _intern inlined, with no closure made
        # per call: most calls find a state made before
        key = (symbol, *args)
        state = self._apps.get(key)
        if state is not None:
            return state
        if (symbol, len(args)) in self._rules:
            args = tuple(args)
            has_vars = False
            for a in args:
                if a.has_vars:
                    has_vars = True
                    break
            state = State(self, self._next_sid, "app", symbol=symbol, args=args,
                          has_vars=has_vars)
            self._next_sid += 1
            self._apps[key] = state
            return state
        if symbol in _NATIVE_ONLY:
            # non-GSOS builtin: evaluate natively on the behaviour streams
            streams = [self.behaviour(a) for a in args]
            result = calculus.apply_builtin(symbol, streams, self.algebra)
            return self.leaf(result, name=None)
        raise UnknownSymbol(f"unknown operation {symbol!r}")

    def from_term(self, term, env=None, symbolic=False):
        """A name of the term is bound in env (a state, or a stream made a
        leaf), or a nullary definition, or a stream variable if symbolic."""
        env = env or {}

        def resolve(name):
            if name in env:
                bound = env[name]
                return bound if isinstance(bound, State) else self.leaf(bound, name=name)
            if (name, 0) in self._rules:
                return self.app(name, ())
            if symbolic:
                return self.var(name)
            raise UnknownSymbol(f"unbound stream variable {name!r}")

        return _compile_term(term, (), self.algebra, resolve)(self, ())

    # -- the automaton structure o_D / d_D

    def output(self, state):
        out = state._out
        if out is state:
            if state._busy:
                raise NonProductive()
            _charge()
            if state.depth > 64:
                # output/derivative recurse along the term spine; deep
                # states (long derivative chains) need more frames
                ensure_recursion_room(10 * state.depth + 1000)
            state._busy = True
            try:
                out = self._compute_output(state)
            finally:
                state._busy = False
            state._out = out
        return out

    def _compute_output(self, state):
        if state.kind == "leaf":
            return state.stream.head
        if state.kind == "lit":
            return state.value
        if state.kind == "var":
            return _sym_var(self.algebra, state.name, state.order)
        return self._select_clause(state)[1](self, state.args)

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
                nxt = self._select_clause(state)[2](self, state.args)
            state._next = nxt
        return nxt

    def _select_clause(self, state):
        clause = state._clause
        if clause is None:
            for clause in self._rules[state.symbol, len(state.args)]:
                guard = clause[0]
                if guard is None or guard(self, state.args):
                    break
            else:
                raise SpecError(f"no clause of {state.symbol!r} matched")
            state._clause = clause
        return clause

    def lit_or_stuck(self, value):
        if isinstance(value, SymHead):
            raise SymbolicStuck("constant clause over symbolic heads")
        return self.lit(value)

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
    if algebra is None:
        if not env:
            raise UnsupportedOp("eval_term needs an algebra or a nonempty env")
        algebra = next(iter(env.values())).algebra
    engine = Engine(algebra, defs)
    return engine.behaviour(engine.from_term(term, env))


def load_system(engine, sys, names=None):
    """Add an equation system's unknowns as constants of the engine, each
    under the symbol `names` maps it to (by default its own name)."""
    if sys.tail_op != "tail" or sys.evens:
        raise UnsupportedOp("only ordinary tail systems run on the engine")
    symbols = {v: (names or {}).get(v, v) for v in sys.variables}

    def resolve(name):
        return engine.app(symbols.get(name, name), ())

    for v in sys.variables:
        engine.add_constant(symbols[v], sys.heads[v], sys.rhs[v], resolve)
    return {v: engine.app(symbols[v], ()) for v in sys.variables}


def solve_system_with_defs(sys, defs=None):
    """Solve a (possibly General) system by the signature-extension device.

    For GSOS-conforming systems this is the unique solution; for General
    systems (non-causal builtins in the right-hand sides) any returned
    prefix is a prefix of every solution, and non-productive demands
    raise NonProductive.
    """
    engine = Engine(sys.algebra, defs)
    states = load_system(engine, sys)
    return {v: engine.behaviour(states[v]) for v in sys.variables}
