"""Lazy, memoizing infinite streams with budgeted observation.

A Stream is a read position (node, index) on a Node, the growing list
of the coefficients computed so far: its head is node.get(index).  A
coefficient is computed once, when first demanded, and charges the
budget once; a demand on a coefficient that its own node is still
computing can never be satisfied and is trapped as NonProductive.  A
cell (Stream(alg, cell), cons), an unfolded automaton and each `series`
operation are node kinds.

Constructing a stream never computes anything; only head/tail do.
Streams are single-observer: observation mutates the node, so a stream
must not be observed concurrently.  Materialised prefixes returned by
take() are plain lists and freely shareable.
"""

import sys
from dataclasses import dataclass

from .errors import AlgebraMismatch, BudgetExhausted, NonProductive

DEFAULT_BUDGET = 10_000


@dataclass(frozen=True)
class StepBudget:
    """Number of coefficients that one observation may compute: each
    node coefficient, and each GSOS engine output, charges one step."""

    max_force_steps: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.max_force_steps < 1:
            raise ValueError("budget must allow at least one forcing")


@dataclass(frozen=True)
class Equal:
    """bounded_eq verdict: the first n elements agree."""

    n: int


@dataclass(frozen=True)
class Differ:
    """bounded_eq verdict: first disagreement at `index`."""

    index: int
    left: object
    right: object


# Stack of mutable step counters; the innermost observation pays.
_BUDGETS = []


def _charge():
    if _BUDGETS:
        frame = _BUDGETS[-1]
        frame[0] -= 1
        if frame[0] < 0:
            raise BudgetExhausted()


def _reserve(steps):
    """Charge `steps` steps at once if the budget covers them all, and
    say whether it did; else charge nothing."""
    if _BUDGETS:
        frame = _BUDGETS[-1]
        if frame[0] < steps:
            return False
        frame[0] -= steps
    return True


def ensure_recursion_room(frames):
    """Raise the interpreter's recursion limit to at least `frames`."""
    if sys.getrecursionlimit() < frames:
        sys.setrecursionlimit(frames)


class BudgetScope:
    """A step counter that the observations made inside it charge.

    A scope made from another scope shares its counter, so several
    observations can draw on one budget.
    """

    def __init__(self, budget):
        if isinstance(budget, BudgetScope):
            self.frame = budget.frame
            return
        if budget is None:
            budget = StepBudget()
        elif isinstance(budget, int):
            budget = StepBudget(budget)
        self.frame = [budget.max_force_steps]

    def __enter__(self):
        _BUDGETS.append(self.frame)
        return self

    def __exit__(self, *exc):
        _BUDGETS.pop()
        return False


class Node:
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

    def tail(self, index):
        return at(self, index + 1)


def at(node, index=0):
    """The stream of a node's coefficients from the index-th on."""
    s = object.__new__(Stream)
    s.node, s.index = node, index
    return s


class _Cells(Node):
    """The stream of a cell, a thunk returning (head, tail): the tail is
    the stream the cell returned, so a chain of cells is read in a loop.
    Later coefficients, which a series node reads, are the tail's, read
    from it in order, which charged them."""

    __slots__ = ("cell", "rest", "cursor")

    def __init__(self, alg, cell):
        super().__init__(alg)
        self.cell = cell

    def compute(self, n):
        if self.cell is None:
            raise RuntimeError("observed an unresolved stream")
        head, self.rest = self.cell()
        self.cursor, self.cell = self.rest, None
        return head

    def get(self, n):
        coeffs = self.coeffs
        if not coeffs:
            Node.get(self, 0)
        while len(coeffs) <= n:
            cursor = self.cursor
            coeffs.append(cursor.head)
            self.cursor = cursor.tail
        return coeffs[n]

    def tail(self, index):
        self.get(0)
        return self.rest.drop(index)


class Unfold(Node):
    """The outputs of an automaton run from `start`, where
    step(state) -> (output, next_state).  States are compared with ==,
    so periodicity detection is exact whenever state equality is."""

    __slots__ = ("step", "start", "state")

    def __init__(self, alg, start, step):
        super().__init__(alg)
        self.step, self.start, self.state = step, start, start

    def compute(self, n):
        out, self.state = self.step(self.state)
        return self.alg.coerce(out)


class Stream:
    """An infinite sequence over an Algebra, evaluated lazily: element
    `index` onwards of `node`."""

    __slots__ = ("node", "index")

    def __init__(self, algebra, cell=None):
        self.node = _Cells(algebra, cell)
        self.index = 0

    @property
    def algebra(self):
        return self.node.alg

    @classmethod
    def defer(cls, algebra):
        """A stream whose cell is supplied later via resolve().

        This is the late-bound indirection slot that lets equation
        systems refer to their own unknowns.
        """
        return cls(algebra)

    def resolve(self, cell):
        node = self.node
        if type(node) is not _Cells or node.cell is not None or node.coeffs:
            raise RuntimeError("stream already resolved")
        node.cell = cell

    @property
    def head(self):
        return self.node.get(self.index)

    @property
    def tail(self):
        return self.node.tail(self.index)

    def drop(self, n):
        s = self
        for _ in range(n):
            s = s.tail
        return s

    def __repr__(self):
        shown = [self.algebra.fmt(c) for c in self.node.coeffs[self.index:self.index + 8]]
        return f"<Stream {self.algebra.name} [{', '.join(shown)}{', ...' if shown else '?'}]>"


def cons(a, s):
    """a:s -- prepend a single element."""
    a = s.algebra.coerce(a)
    return Stream(s.algebra, lambda: (a, s))


def unfold(algebra, state, step):
    return at(Unfold(algebra, state, step))


def take(stream, n, budget=None):
    """First n elements as a list; total steps bounded by the budget.

    Reads the stream's node once, up to its last element.
    BudgetExhausted/NonProductive escaping from the evaluation are
    annotated with the prefix index at which progress stalled: the
    number of the node's coefficients from the stream's index on that
    were computed.
    """
    if n < 0:
        raise ValueError("take needs n >= 0")
    node, index = stream.node, stream.index
    with BudgetScope(budget):
        if n:
            try:
                node.get(index + n - 1)
            except BudgetExhausted as err:
                if err.index is None:
                    err.index = max(len(node.coeffs) - index, 0)
                raise
    return node.coeffs[index:index + n]


def bounded_eq(left, right, n, budget=None):
    """Compare two streams on their first n elements.

    Returns Equal(n) or Differ(index, a, b) with the first disagreeing
    index; raises BudgetExhausted if either side stalls.  `budget` is a
    number of steps, a StepBudget, or a BudgetScope whose counter the
    comparison shares.
    """
    alg = left.algebra
    if alg is not right.algebra:
        raise AlgebraMismatch(f"{alg.name} vs {right.algebra.name}")
    ls, rs = left, right
    with BudgetScope(budget):
        for i in range(n):
            try:
                a, b = ls.head, rs.head
            except BudgetExhausted as err:
                if err.index is None:
                    err.index = i
                raise
            if not alg.eq(a, b):
                return Differ(i, a, b)
            ls, rs = ls.tail, rs.tail
    return Equal(n)
