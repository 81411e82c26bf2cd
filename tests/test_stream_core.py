"""The lazy stream engine: cons/take/bounded_eq, memoization, budgets."""

import pytest

from conftest import Q, prefix, rand_rational_stream, seeded
from streamcalc import (
    AlgebraMismatch,
    BudgetExhausted,
    NonProductive,
    StepBudget,
    Stream,
    bounded_eq,
    cons,
    take,
)
from streamcalc import calculus
from streamcalc import gsos
from streamcalc import parse
from streamcalc.stream import Differ, Equal, unfold


class TestCons:
    def test_prepends(self):
        s = cons(0, calculus.ones(Q))
        assert prefix(s, 5) == [0, 1, 1, 1, 1]

    def test_two_cons(self):
        s = cons(0, cons(1, calculus.zeros(Q)))
        assert prefix(s, 4) == [0, 1, 0, 0]

    def test_cons_head_tail_is_identity(self):
        # the fundamental theorem at the observation level
        rng = seeded(101)
        for _ in range(50):
            s = rand_rational_stream(rng)
            rebuilt = cons(s.head, s.tail)
            assert isinstance(bounded_eq(rebuilt, s, 32), Equal)

    def test_algebra_checked(self):
        with pytest.raises(AlgebraMismatch):
            cons("nope", calculus.ones(Q))


class TestTake:
    def test_ones(self):
        assert prefix(calculus.ones(Q), 5) == [1, 1, 1, 1, 1]

    def test_empty(self):
        assert take(calculus.ones(Q), 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            take(calculus.ones(Q), -1)

    def test_nonproductive_even_loop(self):
        # s(0)=0, s' = even(s): the third element can never be produced
        spec = parse("algebra Q; s(0)=0; s' = even(s);")
        stream = gsos.solve_system_with_defs(spec.system)["s"]
        with pytest.raises(BudgetExhausted) as err:
            take(stream, 3)
        assert isinstance(err.value, NonProductive)
        assert err.value.index == 2
        # the first two elements are still observable
        assert take(stream, 2) == [0, 0]

    def test_budget_exhaustion_carries_index(self):
        s = calculus.nats(Q)  # a fresh cell per element
        with pytest.raises(BudgetExhausted) as err:
            take(s, 100, StepBudget(10))
        assert err.value.index == 10

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            StepBudget(0)


class TestLaziness:
    def test_construction_forces_nothing(self):
        forced = []

        def cell():
            forced.append(True)
            return Q.one, calculus.ones(Q)

        s = Stream(Q, cell)
        calculus.add(s, s)
        calculus.conv_mul(s, calculus.ones(Q))
        cons(0, s)
        assert forced == []
        assert s.head == 1
        assert forced == [True]

    def test_memoization_is_idempotent(self):
        count = [0]

        def cell():
            count[0] += 1
            return Q.one, calculus.zeros(Q)

        s = Stream(Q, cell)
        for _ in range(5):
            assert s.head == 1
            assert s.tail is s.tail
        assert count[0] == 1

    def test_interleaved_observations_agree(self):
        rng = seeded(7)
        for _ in range(20):
            s = rand_rational_stream(rng)
            first = prefix(s, 8)
            again = prefix(s, 16)
            assert again[:8] == first

    def test_unresolved_defer_raises(self):
        s = Stream.defer(Q)
        with pytest.raises(RuntimeError):
            s.head
        s.resolve(lambda: (Q.one, s))
        assert prefix(s, 3) == [1, 1, 1]
        with pytest.raises(RuntimeError):
            s.resolve(lambda: (Q.zero, s))


class TestBoundedEq:
    def test_equal(self):
        assert bounded_eq(calculus.ones(Q), calculus.ones(Q), 100) == Equal(100)

    def test_differ_at_zero(self):
        # (0,1,0,1,...) vs (1,0,1,0,...)
        a = unfold(Q, 0, lambda b: (b, 1 - b))
        b = unfold(Q, 1, lambda b: (b, 1 - b))
        assert bounded_eq(a, b, 10) == Differ(0, 0, 1)

    def test_fibonacci_gsos_vs_rational(self):
        from streamcalc import Poly, ratexpr_normalize
        from streamcalc.solvers import ratexpr_stream

        spec = parse("algebra Q; s(0)=0; s'(0)=1; s'' = s' + s;")
        by_gsos = gsos.solve_system_with_defs(spec.system)["s"]
        r = ratexpr_normalize(Poly.from_ints(Q, [0, 1]),
                              Poly.from_ints(Q, [1, -1, -1]))
        assert isinstance(bounded_eq(by_gsos, ratexpr_stream(r), 64), Equal)

    def test_mismatched_algebra(self):
        from streamcalc import gf

        with pytest.raises(AlgebraMismatch):
            bounded_eq(calculus.ones(Q), calculus.ones(gf(2)), 4)


class TestUnfold:
    def test_simple_cycle(self):
        s = unfold(Q, "a", lambda q: (1 if q == "a" else 0, "b" if q == "a" else "a"))
        assert prefix(s, 6) == [1, 0, 1, 0, 1, 0]

    def test_origin_recorded(self):
        # the unfold node keeps its start state and step; a later
        # position reads the same node
        step = lambda n: (n, n + 1)
        s = unfold(Q, 5, step)
        assert (s.node.start, s.node.step) == (5, step)
        assert s.tail.tail.node is s.node and s.tail.tail.index == 2


def test_drop():
    s = calculus.nats(Q)
    assert prefix(s.drop(3), 3) == [4, 5, 6]
