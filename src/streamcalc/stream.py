"""Lazy, memoizing infinite streams with budgeted observation.

A Stream is driven by a *cell*: a thunk producing the pair
(head, tail).  Forcing a cell is idempotent (the result is cached and
the thunk dropped), and a re-entrant demand on a cell that is currently
being forced is trapped immediately as NonProductive -- such a demand
can never be satisfied, so there is no point burning budget on it.

Constructing a stream never forces anything; only head/tail do.
Streams are single-observer: observation mutates the memo cell, so a
stream must not be observed concurrently.  Materialised prefixes
returned by take() are plain lists and freely shareable.
"""

import sys
from dataclasses import dataclass

from .errors import AlgebraMismatch, BudgetExhausted, NonProductive

DEFAULT_BUDGET = 10_000


@dataclass(frozen=True)
class StepBudget:
    """Number of cell forcings permitted during one observation."""

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


# Stack of mutable forcing counters; the innermost observation pays.
_BUDGETS = []


def _charge():
    if _BUDGETS:
        frame = _BUDGETS[-1]
        frame[0] -= 1
        if frame[0] < 0:
            raise BudgetExhausted()


def ensure_recursion_room(frames):
    """Raise the interpreter's recursion limit to at least `frames`."""
    if sys.getrecursionlimit() < frames:
        sys.setrecursionlimit(frames)


class BudgetScope:
    """A forcing counter that the observations made inside it charge.

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


class Stream:
    """An infinite sequence over an Algebra, evaluated lazily.

    `origin`, when present, is bookkeeping attached by a solver (e.g.
    the automaton state a stream was unfolded from); it never affects
    the observed values.
    """

    __slots__ = ("algebra", "_cell", "_memo", "_forcing", "origin")

    def __init__(self, algebra, cell=None, origin=None):
        self.algebra = algebra
        self._cell = cell
        self._memo = None
        self._forcing = False
        self.origin = origin

    @classmethod
    def defer(cls, algebra, origin=None):
        """A stream whose cell is supplied later via resolve().

        This is the late-bound indirection slot that lets equation
        systems refer to their own unknowns.
        """
        return cls(algebra, None, origin)

    def resolve(self, cell):
        if self._cell is not None or self._memo is not None:
            raise RuntimeError("stream already resolved")
        self._cell = cell

    @classmethod
    def delay(cls, algebra, thunk):
        """Stream equal to thunk()'s result, without building it yet."""

        def cell():
            inner = thunk()
            return inner.head, inner.tail

        return cls(algebra, cell)

    def _force(self):
        memo = self._memo
        if memo is None:
            if self._forcing:
                raise NonProductive()
            cell = self._cell
            if cell is None:
                raise RuntimeError("observed an unresolved stream")
            _charge()
            self._forcing = True
            try:
                memo = cell()
            finally:
                self._forcing = False
            self._memo = memo
            self._cell = None
        return memo

    @property
    def head(self):
        return self._force()[0]

    @property
    def tail(self):
        return self._force()[1]

    def drop(self, n):
        s = self
        for _ in range(n):
            s = s.tail
        return s

    def __repr__(self):
        forced = []
        s = self
        while s is not None and s._memo is not None and len(forced) < 8:
            forced.append(self.algebra.fmt(s._memo[0]))
            s = s._memo[1]
        shown = ", ".join(forced)
        return f"<Stream {self.algebra.name} [{shown}{', ...' if forced else '?'}]>"


def cons(a, s):
    """a:s -- prepend a single element."""
    a = s.algebra.coerce(a)
    return Stream(s.algebra, lambda: (a, s))


@dataclass(frozen=True)
class UnfoldOrigin:
    """Provenance of a stream unfolded from an automaton state.

    step(state) -> (output, next_state).  States are compared with ==,
    so periodicity detection is exact whenever state equality is.
    """

    step: object
    state: object


def unfold(algebra, state, step):
    def make(st):
        def cell():
            out, nxt = step(st)
            return algebra.coerce(out), make(nxt)

        return Stream(algebra, cell, origin=UnfoldOrigin(step, st))

    return make(state)


def take(stream, n, budget=None):
    """First n elements as a list; total forcings bounded by the budget.

    BudgetExhausted/NonProductive escaping from the evaluation are
    annotated with the prefix index at which progress stalled.
    """
    if n < 0:
        raise ValueError("take needs n >= 0")
    out = []
    s = stream
    with BudgetScope(budget):
        for i in range(n):
            try:
                out.append(s.head)
                s = s.tail
            except BudgetExhausted as err:
                if err.index is None:
                    err.index = i
                raise
    return out


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
