"""Solving equation systems coefficient by coefficient.

A causal stream differential equation fixes element n+1 of every
unknown from elements 0..n, so its solution can be computed one
coefficient at a time by the index formulas of the operations, as for
lazy power series (McIlroy, *Power Series, Power Serious*, 1999) and
relaxed multiplication (van der Hoeven, *Relax, but Don't Be Too Lazy*,
2002).  Every unknown and every distinct subterm of the right-hand sides
becomes a node holding the coefficients computed so far; a linear
combination, a sum of terms each maybe negated or with a literal factor
[c] or -[c], is one node.  A coefficient is computed once, when it is
first demanded, and charges the observation budget once; a literal
factor charges nothing of its own.  A coefficient of a convolution
(`*`, `inv`), of a shuffle, or of a linear combination of two or more
terms one of which has a literal factor is one call of the algebra's
fused sum of products, alg.dot; the shuffle's binomial weights are
plain integers, reduced mod p in characteristic p, and the
combination's are algebra elements that the plan holds.  Other
combinations, unscaled sums and c*x, add term by term, which is faster
there.  `operation` makes the node of one builtin;
the `calculus` operations are such nodes over Leaf nodes, which read
streams in order.

A system is solved in two steps.  `compile_plan`, a pure function of
the system, walks the right-hand sides once, gives equal subterms one
slot, and returns an immutable Plan: the unknowns' heads, then a flat
tuple of steps, each a node kind, its payload (a constant, or a linear
combination's scalars and negation flags and its alg.dot weights) and
its child slots.
`solve_by_coefficients` makes fresh nodes from a plan in one pass that
hashes no term.  The system keeps its plan (`EquationSystem.plan`), so
a system solved again pays for the walk once; no coefficient, busy flag
or budget charge is shared between two calls.

The nodes observe the GSOS engine (gsos.py) wherever it answers:

* prefixes are identical;
* a demand on a coefficient that its own node is still computing raises
  NonProductive, the trap of Stream and Engine;
* a convolution demands every factor a(i) and b(n-i), zero or not, so a
  definition the engine finds non-productive stays non-productive.

An algebra-capability error follows one rule, that of lazy power
series: it is raised when the coefficient that needs it is demanded,
with the engine's class and message, never while the nodes are built.
The engine also takes each element's derivative, and over an algebra
without negation two of those can fail: inv's clause
[-b(0)] * (a' * inv(a)), and delta, which the engine refuses when it
builds the right-hand side holding it.  There the nodes may print more
elements than the engine before they stop, with the same error or
another; the elements that both print are equal.

Term states are built only for an application of a user definition,
a Leaf over the GSOS engine's stream of it, so a request that exhausted
the budget on the engine may finish here.  Even-odd systems and
2-automata get one node per state (`even_odd_nodes`).
"""

from operator import add
from typing import NamedTuple

from .errors import NonProductive, UnorderedAlgebra, UnsupportedOp
from .speclang import (Const, HLit, OpApp, Var, head_root, require_zero_consistency,
                       summands)
from .stream import Stream, _charge, ensure_recursion_room


def _no_negation(alg):
    return UnsupportedOp(f"{alg.name} has no negation")


class _Node:
    """A stream as the growing list of its computed coefficients."""

    __slots__ = ("alg", "coeffs", "_busy")

    def __init__(self, alg):
        self.alg = alg
        self.coeffs = []
        self._busy = False

    def get(self, n):
        coeffs = self.coeffs
        while len(coeffs) <= n:
            if self._busy:
                raise NonProductive()
            _charge()
            self._busy = True
            try:
                value = self.compute(len(coeffs))
            finally:
                self._busy = False
            coeffs.append(value)
        return coeffs[n]

    def compute(self, n):
        raise NotImplementedError


class _Unknown(_Node):
    """x(0) = head, x(n+1) = successor(n, x(n), rhs(n))."""

    __slots__ = ("head", "successor", "rhs")

    def __init__(self, alg, head, successor):
        super().__init__(alg)
        self.head = head
        self.successor = successor
        self.rhs = None

    def compute(self, n):
        if not n:
            return self.head
        return self.successor(n - 1, self.coeffs[n - 1], self.rhs.get(n - 1))


class _EvenOdd(_Node):
    """x(0) = head, x(2k) = even(x)(k) for k >= 1, x(2k+1) = odd(x)(k)."""

    __slots__ = ("head", "even", "odd")

    def compute(self, n):
        if not n:
            return self.head
        return (self.odd if n & 1 else self.even).get(n >> 1)


def even_odd_nodes(alg, heads, evens, odds):
    """One node per unknown of an even-odd system, or per state of a
    2-automaton with outputs `heads` and successors `evens` and `odds`.
    A coefficient demand recurses once per bit of its index."""
    nodes = {v: _EvenOdd(alg) for v in heads}
    for v, node in nodes.items():
        node.head, node.even, node.odd = heads[v], nodes[evens[v]], nodes[odds[v]]
    return nodes


class Leaf(_Node):
    """A Stream read in order as coefficients.  The stream charges the
    budget and traps re-entrant demands, so the leaf does neither."""

    __slots__ = ("rest",)

    def __init__(self, stream):
        super().__init__(stream.algebra)
        self.rest = stream

    def get(self, n):
        coeffs = self.coeffs
        while len(coeffs) <= n:
            rest = self.rest
            coeffs.append(rest.head)
            self.rest = rest.tail
        return coeffs[n]


class Constant(_Node):
    __slots__ = ("value",)

    def __init__(self, alg, value):
        super().__init__(alg)
        self.value = value

    def compute(self, n):
        return self.alg.zero if n else self.value


class _X(_Node):
    __slots__ = ()

    def compute(self, n):
        return self.alg.one if n == 1 else self.alg.zero


class _Linear(_Node):
    """The sum of (node, scalar or None, negated) terms.  With `weights`,
    one algebra element per term, a coefficient is alg.dot of the weights
    and the nodes' coefficients, demanded in term order; without, each
    value is multiplied by the scalar, then negated, then added, in term
    order."""

    __slots__ = ("terms", "weights", "nodes")

    def __init__(self, alg, terms, weights, *nodes):
        super().__init__(alg)
        self.weights, self.nodes = weights, nodes
        self.terms = None if weights is not None else tuple(
            (node, c, negated) for node, (c, negated) in zip(nodes, terms))

    def compute(self, n):
        if self.weights is not None:
            return self.alg.dot(self.weights, [node.get(n) for node in self.nodes])
        alg = self.alg
        acc = None
        for node, c, negated in self.terms:
            value = node.get(n)
            if c is not None:
                value = alg.mul(c, value)
            if negated:
                if alg.neg is None:
                    raise _no_negation(alg)
                value = alg.neg(value)
            acc = value if acc is None else alg.add(acc, value)
        return acc


class _Unary(_Node):
    __slots__ = ("arg",)

    def __init__(self, alg, arg):
        super().__init__(alg)
        self.arg = arg


class _Shift(_Unary):
    """The derivative a': a'(n) = a(n+1)."""

    __slots__ = ()

    def compute(self, n):
        return self.arg.get(n + 1)


class _Binary(_Node):
    __slots__ = ("a", "b")

    def __init__(self, alg, a, b):
        super().__init__(alg)
        self.a, self.b = a, b


class _Mul(_Binary):
    """Convolution: sum of a(i) * b(n-i) over i = 0..n."""

    __slots__ = ()

    def compute(self, n):
        # a(0..n-1) and b(0..n-1) were demanded for earlier coefficients;
        # a(n) comes first and b(n) last, as in the engine's expansion
        self.a.get(n)
        self.b.get(n)
        return self.alg.dot(self.a.coeffs[:n + 1], self.b.coeffs[n::-1])


class _Shuffle(_Binary):
    """Shuffle product: sum of C(n, i) * a(i) * b(n-i) over i = 0..n.

    The binomials C(n, i) are plain integers, the weights of alg.dot,
    which takes each as its image in the algebra.  They are kept as the
    current row of Pascal's triangle, one integer addition per entry,
    and reduced mod p over a field of characteristic p.
    """

    __slots__ = ("row",)

    def __init__(self, alg, a, b):
        super().__init__(alg, a, b)
        self.row = ()

    def compute(self, n):
        self.a.get(n)
        self.b.get(n)
        last, p = self.row, self.alg.characteristic
        inner = map(add, last, last[1:])
        if p:
            inner = (c % p for c in inner)
        self.row = row = [1, *inner, 1] if n else [1]
        return self.alg.dot(self.a.coeffs[:n + 1], self.b.coeffs[n::-1], row)


class _Hadamard(_Binary):
    __slots__ = ()

    def compute(self, n):
        return self.alg.mul(self.a.get(n), self.b.get(n))


class _Zip(_Binary):
    __slots__ = ()

    def compute(self, n):
        return (self.b if n & 1 else self.a).get(n >> 1)


class _Merge(_Binary):
    """Sorted merge dropping duplicates, by two cursors."""

    __slots__ = ("i", "j")

    def __init__(self, alg, a, b):
        super().__init__(alg, a, b)
        self.i = self.j = 0

    def compute(self, n):
        alg = self.alg
        x, y = self.a.get(self.i), self.b.get(self.j)
        if alg.lt is None:
            raise UnorderedAlgebra(f"{alg.name} has no order for guards")
        if alg.lt(x, y):
            self.i += 1
            return x
        if alg.eq(x, y):
            self.i += 1
            self.j += 1
            return x
        self.j += 1
        return y


class _Inv(_Unary):
    """b(0) = a(0)^-1, b(n) = -b(0) * sum of a(i) * b(n-i) over i = 1..n."""

    __slots__ = ("neg_b0",)

    def __init__(self, alg, arg):
        super().__init__(alg, arg)
        self.neg_b0 = None

    def compute(self, n):
        alg = self.alg
        if n == 0:
            b0 = head_root("inv", self.arg.get(0), alg)
            if alg.neg is not None:
                self.neg_b0 = alg.neg(b0)
            return b0
        if alg.neg is None:
            raise _no_negation(alg)
        self.arg.get(n)
        total = alg.dot(self.arg.coeffs[1:n + 1], self.coeffs[n - 1::-1])
        return alg.mul(self.neg_b0, total)


class _Sqrt(_Unary):
    """r(0) = sqrt(a(0)), r' = a' * inv([r(0)] + r), from the same nodes."""

    __slots__ = ("tail",)

    def __init__(self, alg, arg):
        super().__init__(alg, arg)
        self.tail = None

    def compute(self, n):
        if n:
            return self.tail.get(n - 1)
        alg = self.alg
        r0 = head_root("sqrt", self.arg.get(0), alg)
        denominator = operation(alg, "+", (Constant(alg, r0), self))
        self.tail = _Mul(alg, _Shift(alg, self.arg), _Inv(alg, denominator))
        return r0


class _Even(_Unary):
    __slots__ = ()

    def compute(self, n):
        return self.arg.get(2 * n)


class _Odd(_Unary):
    __slots__ = ()

    def compute(self, n):
        return self.arg.get(2 * n + 1)


class _Delta(_Unary):
    """Forward difference a(n+1) - a(n)."""

    __slots__ = ()

    def compute(self, n):
        if self.alg.neg is None:
            raise UnsupportedOp(f"delta needs a ring, not {self.alg.name}")
        low = self.arg.get(n)
        return self.alg.sub(self.arg.get(n + 1), low)


class _Ddx(_Unary):
    """Power-series derivative (n+1) * a(n+1)."""

    __slots__ = ()

    def compute(self, n):
        return self.alg.nat_mul(n + 1, self.arg.get(n + 1))


_OPERATIONS = {
    ("X", 0): _X, ("inv", 1): _Inv, ("sqrt", 1): _Sqrt,
    ("even", 1): _Even, ("odd", 1): _Odd, ("delta", 1): _Delta,
    ("ddx", 1): _Ddx, ("*", 2): _Mul, ("shuffle", 2): _Shuffle,
    ("hadamard", 2): _Hadamard, ("zip", 2): _Zip, ("merge", 2): _Merge,
}


def operation(alg, symbol, args):
    """The node of builtin `symbol` over the nodes `args`.  `+`, binary
    and unary `-`, and a product with a Constant factor are one
    _Linear node, the Constant's value its scalar."""
    if symbol in ("+", "-") and len(args) == 2:
        return _Linear(alg, ((None, False), (None, symbol == "-")), None, *args)
    if symbol == "-" and len(args) == 1:
        return _Linear(alg, ((None, True),), None, *args)
    if symbol == "*" and len(args) == 2:
        for c, other in ((args[0], args[1]), (args[1], args[0])):
            if type(c) is Constant:
                return _Linear(alg, ((c.value, False),), None, other)
    kind = _OPERATIONS.get((symbol, len(args)))
    # with no engine, an operation that is no builtin is refused
    return kind(alg, *args) if kind else _application(None, symbol, *args)


class Plan(NamedTuple):
    """The nodes of a system's right-hand sides, to be made afresh.

    Slots 0..k-1 are the k unknowns, whose heads are `heads`; step i
    makes slot k+i as kind(alg, *payload, *nodes of its child slots),
    the engine in place of alg for a definition's application, every
    child slot being an unknown or an earlier step.  `rhs` is the
    slot of each unknown's right-hand side, and `terms` the number of
    distinct subterms, unknowns included, that the steps came from.
    """

    heads: tuple
    steps: tuple
    rhs: tuple
    terms: int


class _Compiler:
    """Plan steps of right-hand-side terms; equal subterms share one slot."""

    def __init__(self, alg, variables):
        self.alg = alg
        self.unknowns = {v: i for i, v in enumerate(variables)}
        self.slots = {}
        self.steps = []

    def slot(self, term):
        """The slot of `term`, its new subterms' slots made first.  One
        frame per level of the term: subterms are walked by map or a
        loop, and the lookup is not a call of its own."""
        found = self.slots.get(term)
        if found is not None:
            return found
        if isinstance(term, Var):
            found = self.unknowns[term.name]
        elif self._literal(term):
            found = self._step(Constant, (self._value(term),))
        elif (parts := summands(term)) is not None or self._split(term, False):
            terms, children = [], []
            for s, negated in parts or ((term, False),):
                before, t, after, negated = self._split(s, negated) or (None, s, None, negated)
                c = self._value(before) if before else None  # coerced left to right
                children.append(self.slot(t))
                terms.append((self._value(after) if after else c, negated))
            found = self._step(_Linear, (tuple(terms), self._dot_weights(terms)),
                               tuple(children))
        elif isinstance(term, OpApp):
            children = tuple(map(self.slot, term.args))
            kind = _OPERATIONS.get((term.symbol, len(children)))
            # not a builtin: a definition's operation, which its step names
            found = self._step(kind or _application, () if kind else (term.symbol,), children)
        else:
            raise UnsupportedOp(f"cannot evaluate term {term!r}")
        self.slots[term] = found
        return found

    def _step(self, kind, payload, children=()):
        self.steps.append((kind, payload, children))
        return len(self.unknowns) + len(self.steps) - 1

    def _dot_weights(self, terms):
        """The alg.dot weights of a combination of two or more terms, one
        of them with a literal factor: each term's scalar, or one, negated
        where the term is.  None for any other combination, and where the
        algebra cannot negate a negated term: the add chain refuses it
        once it has demanded that term's coefficient."""
        alg = self.alg
        if len(terms) < 2 or all(c is None for c, _ in terms):
            return None
        if alg.neg is None and any(negated for _, negated in terms):
            return None
        weights = []
        for c, negated in terms:
            w = alg.one if c is None else c
            weights.append(alg.neg(w) if negated else w)
        return tuple(weights)

    def _literal(self, term):
        """Whether `term` is a literal: [c], or -[c] over an algebra with
        negation, which is the literal neg(c)."""
        if (type(term) is OpApp and term.symbol == "-" and len(term.args) == 1
                and self.alg.neg is not None):
            term = term.args[0]
        return isinstance(term, Const) and isinstance(term.value, HLit)

    def _value(self, literal):
        if isinstance(literal, Const):
            return self.alg.coerce(literal.value.value)
        return self.alg.neg(self._value(literal.args[0]))

    def _split(self, term, negated):
        """(literal, t, literal, negated) if the summand `term` is [c]*t or
        t*[c], the other literal None, or -t where the summand is not
        negated already; else None."""
        a = term.args if type(term) is OpApp else ()
        if len(a) == 1 and term.symbol == "-" and not negated and not self._literal(term):
            return self._split(a[0], True) or (None, a[0], None, True)
        if len(a) == 2 and term.symbol == "*":
            if self._literal(a[0]):
                return a[0], a[1], None, negated
            if self._literal(a[1]):
                return None, a[0], a[1], negated
        return None


def compile_plan(sys_):
    """The Plan of a system, a pure function of it.

    An operation that is not a builtin is a definition's, and its
    application is one step that names it.  Refuses a head or constant
    outside the algebra with its coerce error, in the order of the
    unknowns' heads and then of their right-hand sides.
    """
    alg = sys_.algebra
    heads = tuple(alg.coerce(sys_.heads[v]) for v in sys_.variables)
    compiler = _Compiler(alg, sys_.variables)
    rhs = []
    for v in sys_.variables:
        rhs.append(compiler.slot(sys_.rhs[v]))
    return Plan(heads, tuple(compiler.steps), tuple(rhs), len(compiler.slots))


def _application(engine, symbol, *args):
    """A Leaf over the engine's stream of definition `symbol` on the nodes `args`."""
    if engine is None:
        raise UnsupportedOp(f"{symbol!r} is not a builtin operation")
    state = engine.app(symbol, [engine.leaf(node_stream(a)) for a in args])
    return Leaf(engine.behaviour(state))


def _instantiate(plan, alg, successor, engine):
    """Fresh nodes of a plan, one per slot: no term is hashed, and no
    coefficient is shared with the nodes of another call."""
    nodes = [_Unknown(alg, head, successor) for head in plan.heads]
    get = nodes.__getitem__
    for kind, payload, children in plan.steps:
        context = engine if kind is _application else alg
        nodes.append(kind(context, *payload, *map(get, children)))
    for unknown, slot in zip(nodes, plan.rhs):
        unknown.rhs = nodes[slot]
    return nodes


def _successor(sys_, delta_o_inverse):
    """The rule x(n+1) = f(n, x(n), r(n)) of the system's tail operation,
    r being the right-hand side."""
    alg = sys_.algebra
    op = sys_.tail_op
    if op == "tail":
        return lambda n, x, r: r
    if op == "delta":
        if alg.neg is None:
            raise UnsupportedOp("delta systems need a ring")
        return lambda n, x, r: alg.add(x, r)
    if op == "ddx":
        if alg.kind != "field" or alg.characteristic != 0:
            raise UnsupportedOp("ddx systems need a field of characteristic 0 "
                                "(division by the naturals)")
        return lambda n, x, r: alg.mul(r, alg.inv(alg.nat_mul(n + 1, alg.one)))
    if op == "delta_o" and delta_o_inverse is not None:
        return lambda n, x, r: delta_o_inverse(x, r)
    raise UnsupportedOp(f"no successor rule for {op!r} systems")


def node_stream(node, n=0):
    """The stream of a node's coefficients from the n-th on."""
    return Stream(node.alg, lambda: (node.get(n), node_stream(node, n + 1)))


def solve_by_coefficients(sys_, delta_o_inverse=None, engine=None):
    """Solution streams of a system, one per unknown.

    The system's tail operation gives the successor rule of every
    unknown: x' = r, delta(x) = r, ddx(x) = r, or delta_o(x) = r with
    delta_o_inverse(x(n), r(n)) = x(n+1).  Builds nodes only, refusing
    an algebra the tail operation cannot run in with UnsupportedOp, then
    the errors of `compile_plan`, and a zero-inconsistent even-odd
    system with NotZeroConsistent; every other error surfaces when the
    returned streams are observed.  The system's Plan, `sys_.plan`, is
    read after the successor rule is checked, so that refusal comes
    first, and the nodes are made afresh from the plan on every call.
    `engine`, a gsos.Engine of the system's definitions, applies them;
    without one an application is an UnsupportedOp.
    """
    alg = sys_.algebra
    if sys_.evens:
        require_zero_consistency(sys_)
        nodes = even_odd_nodes(alg, sys_.heads, sys_.evens, sys_.odds)
        return {v: node_stream(nodes[v]) for v in sys_.variables}
    successor = _successor(sys_, delta_o_inverse)
    plan = sys_.plan
    nodes = _instantiate(plan, alg, successor, engine)
    # a coefficient demand recurses through at most every node once; a
    # sqrt adds four nodes when its head is computed
    ensure_recursion_room(4 * (len(plan.heads) + 5 * plan.terms) + 1000)
    return {v: node_stream(node) for v, node in zip(sys_.variables, nodes)}
