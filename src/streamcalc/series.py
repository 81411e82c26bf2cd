"""Solving equation systems coefficient by coefficient.

A causal stream differential equation fixes element n+1 of every
unknown from elements 0..n, so its solution can be computed one
coefficient at a time by the index formulas of the operations, as for
lazy power series (McIlroy, *Power Series, Power Serious*, 1999) and
relaxed multiplication (van der Hoeven, *Relax, but Don't Be Too Lazy*,
2002).  Every unknown and every distinct subterm of the right-hand sides
becomes a stream.Node holding the coefficients computed so far; a linear
combination, a sum of terms each maybe negated or with a literal factor
[c] or -[c], is one node.  A coefficient is computed once and charges
the observation budget once; a literal factor charges nothing of its
own, and nor do the solution streams, positions on the unknowns' nodes.
`operation` makes the node of one builtin; the `calculus` operations
are such nodes over their argument streams' nodes (`node_of`).

A system is solved in two steps.  `compile_plan`, a pure function of
the system, walks the right-hand sides once, gives equal subterms one
slot, and returns an immutable Plan: the unknowns' heads, then a flat
tuple of steps, each a node kind, its payload and its child slots.
`solve_by_coefficients` makes fresh nodes from a plan in one pass that
hashes no term.  The system keeps its plan (`EquationSystem.plan`), so
a system solved again pays for the walk once; no coefficient or budget
charge is shared between two calls.

Valuations and degrees.  The plan gives every slot a valuation v, an
index below which each coefficient is zero (1 for X, the sum of the
factors' for a product), and a degree bound d, an index above which
each is zero (0 for a literal).  Coefficient n of a product a*b or of
shuffle(a, b) sums only over i in [max(v(a), n - d(b)), min(d(a), n -
v(b))], and demands a and b only up to the ends of that range, so X*a
reads the single coefficient a(n-1), as McIlroy's X*s = 0 : s.  A
square, a*a or shuffle(a, a), adds each symmetric pair of products once
and doubles it with one `add`, then adds the middle term.  The sums are
one call of the algebra's fused alg.dot, the shuffle's binomial weights
plain integers reduced mod p in characteristic p; a linear combination
with a literal factor and three or more terms, or two over Q with a
scalar that is not an integer, is alg.dot too (`_Compiler._dot_weights`).

The schedule.  In a plan of constants, X, linear combinations, `*`,
`shuffle`, `hadamard` and `inv`, every node reads its children at
indices no greater than its own, and an unknown reads its right-hand
side one index lower, so no coefficient can demand itself.  Such a plan
is scheduled.  A node kind of it says which coefficients its coefficient
n reads (`reads`) and computes it once they are there (`kernel`); demand
(`compute`) reads them with get and calls the same kernel.  Demand on an
unknown's element n asks each slot for its coefficients up to an index
that, along each chain of reads, bends where a product's range starts or
reaches a degree bound, and is n - lag from then on, lag being the least
read offset from the unknown along chains that no degree bound caps.
Past every bend (the unknown's settle), element n is each such slot's
coefficient n - lag, largest lag first: one loop per unknown, a pure
function of the Plan (`_schedule`), kept for the plans solved last.
Every slot's coefficient 0, the one where an `inv` can fail, comes
before settle, and no negation is refused, so such an element cannot
raise; where the budget covers it whole, it is charged all at once.
Every other element is demanded by `_demand`, which follows Node.get's
recursion with a stack of its own.  Either way the coefficients
computed, the budget left after each element and the first error are
those of demand, and no recursion limit is raised.  A plan holding even,
odd, delta, ddx, sqrt, merge, zip or a definition that is no builtin, or
that negates over an algebra without negation, keeps demand-driven
nodes, whose recursion can reach a coefficient still being computed:
that is NonProductive, the trap of Stream and Engine.

Linear systems.  A scheduled plan whose every step is a linear
combination (a simple system has no steps at all) is a linear system,
whose solution is the vector recurrence v(n+1) = M v(n) (Rutten,
*Rational streams coalgebraically*, 2008), with M + I for delta, and
v(n+1) divided by n+1 for ddx (`Plan.linear`).  Its rows, sparse, come
from the system's polynomial reading (`EquationSystem.recurrence`,
solvers.Recurrence, which the closed forms iterate too), and each solve
computes one fresh sequence of vectors, index n of every unknown at once
with one dot per row; each unknown's node reads its own entry.  Over Q
the vectors are integers, v(n) times a denominator whose common content
with them is divided out whenever its size has doubled, and a
coefficient is read as Q's normal form of the quotient.  Budget: index n
costs one step per unknown, charged when the first unknown reaches it,
index 0 included, and a vector that the budget does not cover whole is
not computed: BudgetExhausted, and nothing charged for it.  Nothing else
can fail there.

The nodes observe the GSOS engine (gsos.py) wherever it answers: the
prefixes are identical, and so are the errors, except where a product
has a factor of positive valuation, whose partner's coefficients the
engine's expansion reads and the product does not.  There a request
that ran out of budget or was non-productive on the engine may answer
here, or meet another error at the same element.

An algebra-capability error follows one rule, that of lazy power
series: it is raised when the coefficient that needs it is demanded,
with the engine's class and message, never while the nodes are built.
The engine also takes each element's derivative, and over an algebra
without negation two of those can fail: inv's clause
[-b(0)] * (a' * inv(a)), and delta, which the engine refuses when it
builds the right-hand side holding it.  There the nodes may print more
elements than the engine before they stop, with the same error or
another; the elements that both print are equal.

Definitions.  A definition whose clauses are a builtin's up to the
names of operations and parameters (gsos.builtin_names, which the parsed
file and its system keep as `builtins`) is that builtin, as a GSOS
specification has one solution, and its application is the builtin's
node; a system that applies one may be scheduled, but is never linear,
as its rows come from a polynomial reading that knows no definition.
Term states are built only for an application of any other definition,
the node of the GSOS engine's stream of it, and the engine only where a
plan holds one, so a request that exhausted the budget on the engine
may finish here.  `evaluate` compiles `eval`'s standalone term the same
way, over the solution nodes of the file's system: u' is a shift, and
an application of a definition that is no builtin is the engine's
stream of it whole, its arguments included, as before.  Even-odd
systems and 2-automata get one node per state (`even_odd_nodes`).
"""

from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from math import gcd, inf
from operator import add, itemgetter
from typing import NamedTuple

from .errors import BudgetExhausted, UnorderedAlgebra, UnsupportedOp
from .speclang import (Const, DVar, HLit, OpApp, Var, head_root,
                       require_zero_consistency, summands)
from .stream import Node, _charge, _reserve, at, ensure_recursion_room


def _no_negation(alg):
    return UnsupportedOp(f"{alg.name} has no negation")


class _Unknown(Node):
    """x(0) = head, x(n+1) = successor(n, x(n), rhs(n)), or rhs(n)
    without a successor.

    Like every node kind of a scheduled plan, it lists the (node, index)
    coefficients that its coefficient n reads, in the order demand reads
    them (`reads`), and computes it by `kernel` once those are there.
    """

    __slots__ = ("head", "successor", "rhs")

    def __init__(self, alg, head, successor):
        super().__init__(alg)
        self.head = head
        self.successor = successor
        self.rhs = None

    def reads(self, n):
        return ((self.rhs, n - 1),) if n else ()

    def kernel(self, n):
        if not n:
            return self.head
        if self.successor is None:
            return self.rhs.coeffs[n - 1]
        return self.successor(n - 1, self.coeffs[n - 1], self.rhs.coeffs[n - 1])

    def compute(self, n):
        if n:
            self.rhs.get(n - 1)
        return self.kernel(n)


class _Scheduled(_Unknown):
    """An unknown of a scheduled plan.  From its element settle on, an
    element that the budget covers whole is computed by its schedule,
    which computes what demand would where every slot of it lacks just
    the coefficient it computes: so while this unknown alone has
    computed the nodes, every element to its end.  Every other element
    is demanded (`_demand`).  `owner`, shared by the unknowns of one set
    of nodes, says whether this unknown alone has; once another unknown
    or an error has been there, every element is demanded."""

    __slots__ = ("plan", "slot", "nodes", "owner", "steady")

    def __init__(self, alg, head, successor, plan, slot, nodes, owner):
        super().__init__(alg, head, successor)
        self.plan, self.slot, self.nodes, self.owner = plan, slot, nodes, owner
        self.steady = None

    def get(self, n):
        coeffs, owner = self.coeffs, self.owner
        while len(coeffs) <= n:
            k = len(coeffs)
            if owner[0] is not self and owner[0] is not _NOBODY:
                owner[0] = None
                _demand(self, k)
                continue
            owner[0] = None
            settle, steps = self.steady or self._bind()
            if k >= settle and _reserve(len(steps)):  # the budget covers it
                for kept, kernel, lag in steps:
                    kept.append(kernel(k - lag))
            else:
                _demand(self, k)
            owner[0] = self
        return coeffs[n]

    def _bind(self):
        """This unknown's schedule on these nodes: settle, and per step
        its node's coefficient list and kernel, and its lag."""
        settle, steps = _schedule(self.plan, self.slot)
        nodes = self.nodes
        self.steady = settle, [(nodes[slot].coeffs, nodes[slot].kernel, lag)
                               for slot, lag in steps]
        return self.steady


_NOBODY = object()  # the owner of a set of nodes that no unknown has computed


def _demand(top, n):
    """top.get(n) on the nodes of a scheduled plan, with a stack in place
    of recursion: the same coefficients, computed in the same order, with
    the same budget charges.  No coefficient of such a plan can demand
    itself, so no node is ever busy."""
    stack, node, target, unread = [], top, n, None
    while True:
        if unread is None:
            if len(node.coeffs) > target:
                if not stack:
                    return
                node, target, unread = stack.pop()
                continue
            _charge()
            unread = iter(node.reads(len(node.coeffs)))
        for child, index in unread:
            if len(child.coeffs) <= index:
                stack.append((node, target, unread))
                node, target, unread = child, index, None
                break
        else:
            node.coeffs.append(node.kernel(len(node.coeffs)))
            unread = None


class _Vectors:
    """The vectors v(0), v(1), ... of one solve of a linear system, v(0)
    its heads and v(n+1) the recurrence's step from v(n); entry i of v(n)
    is element n of unknown i.  Index n costs one budget step per
    unknown, all charged when the first unknown reaches it; a vector the
    budget does not cover whole is not computed, and nothing is charged
    for it."""

    __slots__ = ("step", "heads", "vectors")

    def __init__(self, recurrence, heads):
        self.step, self.heads, self.vectors = recurrence.step, heads, []

    def extend(self, n):
        """Compute the vectors up to v(n), charged at once where the
        budget covers them all."""
        vectors, cost = self.vectors, len(self.heads)
        missing = n + 1 - len(vectors)
        whole = missing > 0 and _reserve(missing * cost)
        while len(vectors) <= n:
            if not whole and not _reserve(cost):
                raise BudgetExhausted()
            vectors.append(self._next())

    def _next(self):
        vectors = self.vectors
        return self.step(vectors[-1]) if vectors else self.heads


class _RationalVectors(_Vectors):
    """Over Q, v(n) = u(n) / dens[n] with u(n) an integer vector: u(0) is
    E times the heads and dens[0] = E, E the lcm of their denominators;
    each step multiplies u by the integer rows D*M and the denominator by
    D, and by n+1 in a ddx system.  Whenever the denominator's size has
    doubled since the last time, the common content of u and the
    denominator is divided out, so that a system whose values stay small
    keeps small integers."""

    __slots__ = ("d", "ddx", "dens", "size")

    def __init__(self, recurrence, heads, e, ddx):
        super().__init__(recurrence, heads)
        self.d, self.ddx, self.dens, self.size = recurrence.d, ddx, [e], e.bit_length()

    def _next(self):
        vectors, dens = self.vectors, self.dens
        n = len(vectors)
        if not n:
            return self.heads
        u, den = self.step(vectors[-1]), dens[-1] * self.d
        if self.ddx:
            den *= n
        if den.bit_length() >= 2 * self.size:
            g = gcd(den, *u)
            if g > 1:
                den //= g
                u = [x // g for x in u]
            self.size = den.bit_length()
        dens.append(den)
        return u


def _quotient(a, den):
    """Q's form of a / den, den > 0: an int where it is integral."""
    if den == 1:
        return a
    q, r = divmod(a, den)
    return Fraction(a, den) if r else q


class _Entry(Node):
    """Unknown i of a linear system: coefficient n is entry i of v(n),
    read when this unknown first reaches n."""

    __slots__ = ("vectors", "entry")

    def __init__(self, alg, vectors, i):
        super().__init__(alg)
        self.vectors, self.entry = vectors, itemgetter(i)

    def get(self, n):
        coeffs = self.coeffs
        if len(coeffs) <= n:
            try:
                self.vectors.extend(n)
            finally:
                coeffs += self._read(len(coeffs))
        return coeffs[n]

    def _read(self, k):
        return map(self.entry, self.vectors.vectors[k:])


class _RationalEntry(_Entry):
    """Unknown i of a linear system over Q: coefficient n is entry i of
    u(n) over dens[n], in Q's form."""

    __slots__ = ()

    def _read(self, k):
        vectors = self.vectors
        return map(_quotient, map(self.entry, vectors.vectors[k:]), vectors.dens[k:])


def _linear_nodes(sys_, plan):
    """One node per unknown of a linear plan, over one fresh _Vectors of
    the system's Recurrence.  Over Q the vectors are integers, and where
    neither the rows nor the heads have a denominator, nor the system
    divides by n + 1 (ddx), they are the values."""
    alg, recurrence = sys_.algebra, sys_.recurrence
    heads, e = recurrence.scale(plan.heads)
    ddx = sys_.tail_op == "ddx"
    if e == 1 and recurrence.d == 1 and not ddx:
        vectors, kind = _Vectors(recurrence, heads), _Entry
    else:
        vectors, kind = _RationalVectors(recurrence, heads, e, ddx), _RationalEntry
    return [kind(alg, vectors, i) for i in range(len(heads))]


class _EvenOdd(Node):
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


class Constant(Node):
    __slots__ = ("value",)

    def __init__(self, alg, value):
        super().__init__(alg)
        self.value = value

    def reads(self, n):
        return ()

    def kernel(self, n):
        return self.alg.zero if n else self.value

    compute = kernel


class _X(Node):
    __slots__ = ()

    def reads(self, n):
        return ()

    def kernel(self, n):
        return self.alg.one if n == 1 else self.alg.zero

    compute = kernel


class _Linear(Node):
    """The sum of terms, each a node with a (scalar or None, negated)
    term of `terms`.  With `weights`, one algebra element per term, a
    coefficient is alg.dot of the weights and the nodes' coefficients;
    without, each value is multiplied by the scalar, then negated, then
    added, in term order.  Where the algebra cannot negate, demand
    refuses the first negated term once it has read its coefficient,
    before the later terms' reads."""

    __slots__ = ("terms", "weights", "nodes", "refuses")

    def __init__(self, alg, terms, weights, *nodes):
        super().__init__(alg)
        self.terms, self.weights, self.nodes = terms, weights, nodes
        self.refuses = alg.neg is None and any(negated for _, negated in terms)

    def reads(self, n):
        return [(node, n) for node in self.nodes]

    def compute(self, n):
        for node, (_, negated) in zip(self.nodes, self.terms):
            node.get(n)
            if negated and self.refuses:
                raise _no_negation(self.alg)
        return self.kernel(n)

    def kernel(self, n):
        alg = self.alg
        if self.weights is not None:
            return alg.dot(self.weights, [node.coeffs[n] for node in self.nodes])
        acc = None
        for node, (c, negated) in zip(self.nodes, self.terms):
            value = node.coeffs[n]
            if c is not None:
                value = alg.mul(c, value)
            if negated:
                value = alg.neg(value)
            acc = value if acc is None else alg.add(acc, value)
        return acc


class _Unary(Node):
    __slots__ = ("arg",)

    def __init__(self, alg, arg):
        super().__init__(alg)
        self.arg = arg


class _Shift(_Unary):
    """The k-th derivative of a: a(n+k), by default a'."""

    __slots__ = ("k",)

    def __init__(self, alg, arg, k=1):
        super().__init__(alg, arg)
        self.k = k

    def compute(self, n):
        return self.arg.get(n + self.k)


class _Binary(Node):
    __slots__ = ("a", "b")

    def __init__(self, alg, a, b):
        super().__init__(alg)
        self.a, self.b = a, b


# the bounds of a product whose factors' valuations and degrees are unknown
_UNBOUNDED = (0, inf, 0, inf)


class _Product(_Binary):
    """Coefficient n is the sum of w(n, i) * a(i) * b(n-i) over i in
    [lo, hi] = [max(va, n - db), min(da, n - vb)], the indices where both
    factors may be nonzero, va and da being a's valuation and degree
    bound and vb and db b's; it reads a up to hi and b up to n - lo,
    and is zero where the range is empty.  A square, a*a, sums the pairs
    i < n - i once and doubles them with one add."""

    __slots__ = ("va", "da", "vb", "db")

    def __init__(self, alg, va, da, vb, db, a, b):
        super().__init__(alg, a, b)
        self.va, self.da, self.vb, self.db = va, da, vb, db

    def _range(self, n):
        lo, hi = n - self.db, n - self.vb
        return self.va if lo < self.va else lo, self.da if hi > self.da else hi

    def reads(self, n):
        lo, hi = self._range(n)
        return ((self.a, hi), (self.b, n - lo)) if lo <= hi else ()

    def compute(self, n):
        lo, hi = self._range(n)
        if lo > hi:
            return self.alg.zero
        self.a.get(hi)
        self.b.get(n - lo)
        return self.kernel(n)

    def kernel(self, n):
        alg = self.alg
        lo, hi = self._range(n)
        if lo > hi:
            return alg.zero
        weights = self.binomials(n) if self.weighted else None
        xs = self.a.coeffs
        if self.a is not self.b:
            if lo == hi and weights is None:
                return alg.mul(xs[lo], self.b.coeffs[n - lo])
            stop = n - hi - 1
            ys = self.b.coeffs[n - lo:stop:-1] if stop >= 0 else self.b.coeffs[n - lo::-1]
            return alg.dot(xs[lo:hi + 1], ys, weights and weights[lo:hi + 1])
        # a square's range is symmetric about n/2: lo + hi = n; the pairs
        # i < n - i, each added twice, vanish in characteristic 2
        top, total = (n - 1) >> 1, None
        if top > hi:
            top = hi
        if top >= lo and alg.characteristic != 2:
            half = alg.dot(xs[lo:top + 1], xs[n - lo:n - top - 1:-1],
                           weights and weights[lo:top + 1])
            total = alg.add(half, half)
        if not n & 1:
            m = n >> 1
            middle = (alg.mul(xs[m], xs[m]) if weights is None
                      else alg.dot((xs[m],), (xs[m],), (weights[m],)))
            total = middle if total is None else alg.add(total, middle)
        return alg.zero if total is None else total


class _Mul(_Product):
    """Convolution: the sum of a(i) * b(n-i)."""

    __slots__ = ()
    weighted = False


class _Shuffle(_Product):
    """Shuffle product: the sum of C(n, i) * a(i) * b(n-i).

    The binomials C(n, i) are plain integers, the weights of alg.dot,
    which takes each as its image in the algebra.  They are kept as the
    last row of Pascal's triangle that a coefficient needed, each next
    row one integer addition per entry, and reduced mod p over a field
    of characteristic p.
    """

    __slots__ = ("row",)
    weighted = True

    def __init__(self, alg, va, da, vb, db, a, b):
        super().__init__(alg, va, da, vb, db, a, b)
        self.row = []

    def binomials(self, n):
        """Row n of Pascal's triangle."""
        row, p = self.row, self.alg.characteristic
        while len(row) <= n:
            inner = map(add, row, row[1:])
            if p:
                inner = (c % p for c in inner)
            row = [1, *inner, 1] if row else [1]
        self.row = row
        return row


class _Hadamard(_Binary):
    __slots__ = ()

    def reads(self, n):
        return ((self.a, n), (self.b, n))

    def kernel(self, n):
        return self.alg.mul(self.a.coeffs[n], self.b.coeffs[n])

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
    """b(0) = a(0)^-1, b(n) = -b(0) * sum of a(i) * b(n-i) over i = 1..n.
    Over an algebra without negation demand refuses b(n), n >= 1, before
    it reads a(n)."""

    __slots__ = ("neg_b0",)

    def __init__(self, alg, arg):
        super().__init__(alg, arg)
        self.neg_b0 = None

    def reads(self, n):
        return ((self.arg, n),)

    def compute(self, n):
        if n and self.alg.neg is None:
            raise _no_negation(self.alg)
        self.arg.get(n)
        return self.kernel(n)

    def kernel(self, n):
        alg = self.alg
        if n == 0:
            b0 = head_root("inv", self.arg.coeffs[0], alg)
            if alg.neg is not None:
                self.neg_b0 = alg.neg(b0)
            return b0
        if alg.neg is None:
            raise _no_negation(alg)
        total = alg.dot(self.arg.coeffs[1:n + 1], self.coeffs[n - 1::-1])
        return alg.mul(self.neg_b0, total)


class _Sqrt(_Unary):
    """r(0) = sqrt(a(0)), r' = a' * inv([r(0)] + r), from the same nodes."""

    __slots__ = ("derivative",)

    def __init__(self, alg, arg):
        super().__init__(alg, arg)
        self.derivative = None

    def compute(self, n):
        if n:
            return self.derivative.get(n - 1)
        alg = self.alg
        r0 = head_root("sqrt", self.arg.get(0), alg)
        denominator = operation(alg, "+", (Constant(alg, r0), self))
        self.derivative = _Mul(alg, *_UNBOUNDED, _Shift(alg, self.arg), _Inv(alg, denominator))
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

# the node kinds of a scheduled plan, besides the unknowns
_SCHEDULED = frozenset((Constant, _X, _Linear, _Mul, _Shuffle, _Hadamard, _Inv))


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
    if kind is None:
        # with no engine, an operation that is no builtin is refused
        return _application(None, symbol, *args)
    if issubclass(kind, _Product):
        return kind(alg, *_UNBOUNDED, *args)
    return kind(alg, *args)


class Plan(NamedTuple):
    """The nodes of a system's right-hand sides, to be made afresh.

    Slots 0..k-1 are the k unknowns, whose heads are `heads`; step i
    makes slot k+i as kind(alg, *payload, *nodes of its child slots),
    the engine in place of alg for a definition's application, every
    child slot being an unknown or an earlier step.  `rhs` is the
    slot of each unknown's right-hand side, and `terms` the number of
    distinct subterms, unknowns included, that the steps came from.
    `scheduled` says whether the plan is scheduled, and `linear` whether
    it is scheduled and each step a linear combination, so that the
    system is one vector recurrence.
    """

    heads: tuple
    steps: tuple
    rhs: tuple
    terms: int
    scheduled: bool
    linear: bool


_ZERO = (inf, -inf)  # the valuation and degree bound of the zero stream


class _Compiler:
    """Plan steps of right-hand-side terms; equal subterms share one slot.
    Each slot has a valuation v and a degree bound d, in `bounds`: its
    coefficients below v and above d are zero.  An application of a
    definition that `builtins` names a builtin is compiled as that
    builtin's (`renamed` says whether one was); of any other definition,
    it is a step over its arguments' slots, or with `whole` a step of
    the application as one engine term over the unknowns."""

    def __init__(self, alg, variables, builtins=None, whole=False):
        self.alg = alg
        self.unknowns = {v: i for i, v in enumerate(variables)}
        self.builtins = builtins or {}
        self.whole = whole
        self.renamed = False
        self.slots = {}
        self.steps = []
        self.bounds = [(0, inf)] * len(variables)

    def slot(self, term):
        """The slot of `term`, its new subterms' slots made first.  One
        frame per level of the term: subterms are walked by map or a
        loop, and the lookup is not a call of its own."""
        found = self.slots.get(term)
        if found is not None:
            return found
        key = term
        if type(term) is OpApp and term.symbol in self.builtins:
            self.renamed = True
            term = OpApp(self.builtins[term.symbol], term.args)
            found = self.slots.get(term)
            if found is not None:
                self.slots[key] = found
                return found
        if isinstance(term, Var):
            found = self.unknowns[term.name]
        elif isinstance(term, DVar):
            # a standalone term's u', u'', ... of an unknown u
            found = self._step(_derivative, (term.order,), (self.unknowns[term.name],),
                               (0, inf))
        elif self._literal(term):
            value = self._value(term)
            found = self._step(Constant, (value,), (),
                               _ZERO if self.alg.eq(value, self.alg.zero) else (0, 0))
        elif (parts := summands(term)) is not None or self._split(term, False):
            terms, children = [], []
            for s, negated in parts or ((term, False),):
                before, t, after, negated = self._split(s, negated) or (None, s, None, negated)
                c = self._value(before) if before else None  # coerced left to right
                children.append(self.slot(t))
                terms.append((self._value(after) if after else c, negated))
            found = self._step(_Linear, (tuple(terms), self._dot_weights(terms)),
                               tuple(children), self._sum_bounds(children, terms))
        elif isinstance(term, OpApp):
            kind = _OPERATIONS.get((term.symbol, len(term.args)))
            if kind is None and self.whole:
                # a standalone term's application of a definition: the
                # engine's state of it, arguments included, over the unknowns
                found = self._step(_engine_term, (term, tuple(self.unknowns)),
                                   tuple(self.unknowns.values()), (0, inf))
            elif kind is None:
                # not a builtin: a definition's operation, which its step names
                children = tuple(map(self.slot, term.args))
                found = self._step(_application, (term.symbol,), children, (0, inf))
            else:
                children = tuple(map(self.slot, term.args))
                payload, bounds = self._bounds(kind, children)
                found = self._step(kind, payload, children, bounds)
        else:
            raise UnsupportedOp(f"cannot evaluate term {term!r}")
        self.slots[term] = self.slots[key] = found
        return found

    def _sum_bounds(self, children, terms):
        """The bounds of a linear combination: from its terms whose scalar
        is not zero, the least valuation and the largest degree bound."""
        v, d = _ZERO
        eq, zero = self.alg.eq, self.alg.zero
        for child, (c, _) in zip(children, terms):
            if c is None or not eq(c, zero):
                cv, cd = self.bounds[child]
                if cv < v:
                    v = cv
                if cd > d:
                    d = cd
        return v, d

    def _bounds(self, kind, children):
        """The payload and the bounds of a builtin's step: a product's
        payload is its factors' bounds."""
        if kind is _Mul or kind is _Shuffle:
            (va, da), (vb, db) = self.bounds[children[0]], self.bounds[children[1]]
            if va > da or vb > db:
                return (va, da, vb, db), _ZERO
            return (va, da, vb, db), (va + vb, da + db)
        if kind is _X:
            return (), (1, 1)
        if kind is _Hadamard:
            (va, da), (vb, db) = self.bounds[children[0]], self.bounds[children[1]]
            v, d = max(va, vb), min(da, db)
            return (), (v, d) if v <= d else _ZERO
        return (), (0, inf)

    def _step(self, kind, payload, children, bounds):
        self.steps.append((kind, payload, children))
        self.bounds.append(bounds)
        return len(self.unknowns) + len(self.steps) - 1

    def _dot_weights(self, terms):
        """The alg.dot weights of a combination with a literal factor and
        three or more terms, or two over Q with a scalar that is not an
        integer: each term's scalar, or one, negated where the term is.
        Below that the add chain is faster, one call of add and mul a
        term against the setup of one call of dot, unless the terms'
        arithmetic is in Fractions, which Q's dot sums over one common
        denominator (Tropical's values are Fractions too, but its dot is
        a min of sums, with no denominator to share).
        None for any other combination, and where the algebra cannot
        negate a negated term: the add chain refuses it once it has read
        that term's coefficient."""
        alg = self.alg
        over_q = alg.kind == "field" and alg.characteristic == 0
        if all(c is None for c, _ in terms) or len(terms) < (
                2 if over_q and any(type(c) is Fraction for c, _ in terms) else 3):
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


def _schedulable(sys_, steps):
    """Whether a plan is scheduled: every step is of a scheduled kind,
    the tail operation is tail, delta or ddx, and no negation can be
    refused, since demand refuses one before its later reads."""
    if sys_.tail_op not in ("tail", "delta", "ddx"):
        return False
    negates = sys_.algebra.neg is not None
    for kind, payload, _ in steps:
        if kind not in _SCHEDULED:
            return False
        if not negates and (kind is _Inv or (
                kind is _Linear and any(neg for _, neg in payload[0]))):
            return False
    return True


def compile_plan(sys_):
    """The Plan of a system, a pure function of it.

    An application of a definition that is a builtin (`sys_.builtins`)
    is that builtin's; any other operation that is not a builtin is a
    definition's, and its application is one step that names it.  A
    system that applies definitions is not linear, whatever its plan,
    as its rows come from the polynomial reading, which knows none.
    Refuses a head or constant outside the algebra with its coerce
    error, in the order of the unknowns' heads and then of their
    right-hand sides.
    """
    alg = sys_.algebra
    heads = tuple(alg.coerce(sys_.heads[v]) for v in sys_.variables)
    compiler = _Compiler(alg, sys_.variables, sys_.builtins)
    rhs = []
    for v in sys_.variables:
        rhs.append(compiler.slot(sys_.rhs[v]))
    steps = tuple(compiler.steps)
    scheduled = _schedulable(sys_, steps)
    return Plan(heads, steps, tuple(rhs), len(compiler.slots), scheduled,
                scheduled and not compiler.renamed
                and all(kind is _Linear for kind, _, _ in steps))


@lru_cache(maxsize=64)
def _schedule(plan, unknown):
    """(settle, steps) of the unknown in slot `unknown`: from element
    settle on, element n is the steps (slot, lag) in turn, each slot
    computing its coefficient n - lag.

    Reading its coefficient t, a product reads its factor a up to
    min(da, t - vb), once t - vb >= va, and b likewise; an unknown reads
    its right-hand side at t - 1, and every other node its children at
    t.  So a read is (child, offset o, cap c, floor f), and along a
    chain of reads from the unknown the index that demand on element n
    asks of a slot is min(C, n - L), from n - L >= T on: a read takes
    (C, L, T) to (min(c, C - o), L + o, max(T - o, f)), where C - o >= f.
    A slot computes what its chains ask most, so it is enough to keep
    the chains that no other asks at least as much of at every n.  Past
    the bends of those, each slot with an uncapped chain computes one
    coefficient per element, at n - lag, lag being the least L of those
    chains, and every other slot none; a capped chain, kept or not,
    asks less than n - lag past lag plus the largest cap.  Element
    settle is past all of these bends.

    The steps run in (-lag, slot) order, each after what it reads in
    its own element: a read at offset o by a step of lag L that the
    element must answer is of a slot of lag L + o, a larger lag or, at
    offset 0, a lower slot, as a step's children are unknowns or earlier
    steps and an unknown reads its right-hand side at offset 1.

    A pure function of the plan's steps and the unknown, kept for the
    plans solved last, so that a system solved again compiles it once.
    """
    edges, largest = [((rhs, 1, inf, 0),) for rhs in plan.rhs], 0
    for kind, payload, children in plan.steps:
        if kind is _Mul or kind is _Shuffle:
            (va, da, vb, db), (a, b) = payload, children
            if va <= da and vb <= db:
                edges.append(((a, vb, da, va), (b, va, db, vb)))
                largest = max(largest, da if da != inf else 0, db if db != inf else 0)
            else:
                edges.append(())
        else:
            edges.append([(child, 0, inf, 0) for child in children])
    chains = {unknown: [(inf, 0, 0)]}
    pending = [(0, unknown, inf, 0)]
    while pending:
        lag, slot, c, floor = heappop(pending)
        if (c, lag, floor) not in chains[slot]:
            continue  # outdone since
        for child, offset, cap, least in edges[slot]:
            room = c - offset
            if room < least:
                continue
            new = (cap if cap < room else room, lag + offset,
                   floor - offset if floor - offset > least else least)
            c2, l2, t2 = new
            kept = chains.get(child)
            if kept is None:
                chains[child] = [new]
            elif any(c1 >= c2 and l1 <= l2 and l1 + t1 <= l2 + t2 for c1, l1, t1 in kept):
                continue
            else:
                kept[:] = [(c1, l1, t1) for c1, l1, t1 in kept
                           if not (c2 >= c1 and l2 <= l1 and l2 + t2 <= l1 + t1)]
                kept.append(new)
            heappush(pending, (l2, child, c2, t2))
    lags, bend = {}, 0
    for slot, kept in chains.items():
        least = inf
        for c, lag, floor in kept:
            if c == inf:
                if lag < least:
                    least = lag
                c = 0
            bend = max(bend, lag + floor, lag + c)
        if least != inf:
            lags[slot] = least
            # a capped chain, outdone or not, asks at most the largest cap
            bend = max(bend, least + largest)
    return bend + 1, tuple(sorted(lags.items(), key=lambda step: (-step[1], step[0])))


def node_of(stream):
    """The node whose coefficient n is element n of `stream`."""
    node, k = stream.node, stream.index
    return _Shift(node.alg, node, k) if k else node


def _application(engine, symbol, *args):
    """The node of the engine's stream of definition `symbol` on the nodes `args`."""
    if engine is None:
        raise UnsupportedOp(f"{symbol!r} is not a builtin operation")
    state = engine.app(symbol, [engine.leaf(at(a)) for a in args])
    return node_of(engine.behaviour(state))


def _engine_term(engine, term, names, *unknowns):
    """The node of the engine's stream of a term, the names of the term
    being the streams of the nodes `unknowns`."""
    if engine is None:
        raise UnsupportedOp(f"{term.symbol!r} is not a builtin operation")
    state = engine.from_term(term, {name: at(node) for name, node in zip(names, unknowns)})
    return node_of(engine.behaviour(state))


def _derivative(alg, order, arg):
    """The order-th derivative of the node `arg`, a shift."""
    return _Shift(alg, arg, order)


def _build(nodes, steps, alg, engine):
    """Append to `nodes` one fresh node per step, a definition's
    application over engine(), the one engine of the definitions, and
    every other step over the algebra."""
    get = nodes.__getitem__
    for kind, payload, children in steps:
        context = engine and engine() if kind is _application or kind is _engine_term else alg
        nodes.append(kind(context, *payload, *map(get, children)))


def _instantiate(plan, alg, successor, engine):
    """Fresh nodes of a plan, one per slot: no term is hashed, and no
    coefficient is shared with the nodes of another call."""
    nodes = []
    if not plan.scheduled:
        nodes += (_Unknown(alg, head, successor) for head in plan.heads)
    else:
        owner = [_NOBODY]
        nodes += (_Scheduled(alg, head, successor, plan, slot, nodes, owner)
                  for slot, head in enumerate(plan.heads))
    _build(nodes, plan.steps, alg, engine)
    for unknown, slot in zip(nodes, plan.rhs):
        unknown.rhs = nodes[slot]
    return nodes


def _recursion_room(unknowns, terms):
    """Frames enough for a coefficient demand that recurses through at
    most every node once; a sqrt adds four nodes when its head is computed."""
    return 4 * (unknowns + 5 * terms) + 1000


def _successor(sys_, delta_o_inverse):
    """The rule x(n+1) = f(n, x(n), r(n)) of the system's tail operation,
    r being the right-hand side; None for x' = r, x(n+1) = r(n)."""
    alg = sys_.algebra
    op = sys_.tail_op
    if op == "tail":
        return None
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
    `engine`, a function that returns the one gsos.Engine of the
    system's definitions, is called only where the plan applies a
    definition that is not a builtin, and that engine applies it;
    without one such an application is an UnsupportedOp.
    """
    alg = sys_.algebra
    if sys_.evens:
        require_zero_consistency(sys_)
        nodes = even_odd_nodes(alg, sys_.heads, sys_.evens, sys_.odds)
        return {v: at(nodes[v]) for v in sys_.variables}
    successor = _successor(sys_, delta_o_inverse)
    plan = sys_.plan
    if plan.linear:
        nodes = _linear_nodes(sys_, plan)
        return {v: at(node) for v, node in zip(sys_.variables, nodes)}
    nodes = _instantiate(plan, alg, successor, engine)
    if not plan.scheduled:
        ensure_recursion_room(_recursion_room(len(plan.heads), plan.terms))
    return {v: at(node) for v, node in zip(sys_.variables, nodes)}


def evaluate(term, alg, sys_=None, builtins=None, engine=None):
    """The stream of a standalone term over the solution of the system
    `sys_`, if any: a name u of the term is the solution stream of
    unknown u that solve_by_coefficients(sys_, engine=engine) gives, and
    u', u'', ... are its shifts.

    The term is compiled as a right-hand side is, equal subterms sharing
    one node and an application of a definition that is a builtin
    (`builtins`) being that builtin's.  An application of any other
    definition runs on the engine whole, its arguments included, as
    gsos.Engine.from_term makes it a state over the unknowns' streams;
    `engine` is as for solve_by_coefficients, and the system and the
    term share its one engine.  The term's nodes are demand-driven and
    made afresh on every call; a demand may pass through every one of
    them, then through every node of a system that is not scheduled.
    After the system's errors, refuses a literal outside the algebra
    with its coerce error.
    """
    streams = solve_by_coefficients(sys_, engine=engine) if sys_ is not None else {}
    compiler = _Compiler(alg, tuple(streams), builtins, whole=True)
    root = compiler.slot(term)
    nodes = [node_of(stream) for stream in streams.values()]
    _build(nodes, compiler.steps, alg, engine)
    terms = len(compiler.slots)
    if sys_ is not None and not sys_.evens and not sys_.plan.scheduled:
        terms += sys_.plan.terms
    ensure_recursion_room(_recursion_room(len(streams), terms))
    return at(nodes[root])
