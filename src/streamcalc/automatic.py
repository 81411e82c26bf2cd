"""2-stream automata, even-odd specifications, and 2-automatic sequences.

An even-odd specification compiles to a zero-consistent 2-stream
automaton with one state per unknown.  Its solution streams come from
the finality of (head, even, odd) on streams; the n-th element can also
be read off directly by feeding the reverse binary encoding of n to the
automaton, and the two routes are kept as independent implementations.

k is fixed to 2 throughout; the shapes would generalise to any k, but
only k = 2 is built and tested.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import speclang
from .algebra import gf
from .errors import EvenDenominator, NotZeroConsistent, UnsupportedOp
from .stream import (BudgetExhausted, BudgetScope, Equal, Stream, bounded_eq,
                     take, unfold)
from .calculus import even, odd, zip_streams


@dataclass
class TwoAutomaton:
    """Finite <output, even-successor, odd-successor> automaton."""

    algebra: object
    outputs: dict
    d0: dict
    d1: dict
    zero_consistent: bool = False

    @property
    def states(self):
        return tuple(self.outputs)

    def dump(self):
        alg = self.algebra
        return "\n".join(
            f"{q}: out={alg.fmt(self.outputs[q])} 0->{self.d0[q]} 1->{self.d1[q]}"
            for q in self.outputs)


@dataclass(frozen=True, eq=False)
class EvenOddOrigin:
    automaton: TwoAutomaton
    state: object


def compile_evenodd(sys):
    """One automaton state per variable; requires zero consistency."""
    if not sys.evens:  # what classify() calls EVEN_ODD
        raise UnsupportedOp("not an even-odd specification")
    verdict = speclang.check_zero_consistency(sys)
    if isinstance(verdict, speclang.ZeroInconsistent):
        raise NotZeroConsistent(verdict.state)
    return TwoAutomaton(sys.algebra,
                        {v: sys.heads[v] for v in sys.variables},
                        dict(sys.evens), dict(sys.odds),
                        zero_consistent=True)


def bbin(n):
    """Binary encoding read backwards (least significant bit first)."""
    bits = []
    while n:
        bits.append(n & 1)
        n >>= 1
    return tuple(bits)


def value_at(aut, q, n):
    """n-th element by the bbin-indexing formula: o(d_bbin(n)(q))."""
    while n:
        q = (aut.d1 if n & 1 else aut.d0)[q]
        n >>= 1
    return aut.outputs[q]


def stream_of(aut, q0):
    """The behaviour stream of a zero-consistent automaton state.

    sigma_q = zip(sigma_even, sigma_odd) with head o(q); the tail is
    zip(sigma_odd, sigma_even'), which keeps every head available
    without re-entering the state being forced.
    """
    if not aut.zero_consistent:
        raise NotZeroConsistent(q0, "automaton is not zero-consistent")
    alg = aut.algebra
    cache = {}

    def s(q):
        st = cache.get(q)
        if st is None:
            def cell(q=q):
                tail = zip_streams(s(aut.d1[q]), s(aut.d0[q]).lazy_tail())
                return aut.outputs[q], tail

            st = Stream(alg, cell, origin=EvenOddOrigin(aut, q))
            cache[q] = st
        return st

    return s(q0)


@dataclass
class KernelFinite:
    automaton: TwoAutomaton
    exact: bool
    representatives: dict  # state name -> stream


@dataclass(frozen=True)
class KernelUnknown:
    budget: int


def kernel2(stream, budget=64, prefix=64, steps=None):
    """Close {sigma} under even/odd, identifying states.

    Exact when the stream came from a finite even-odd specification
    (identity is then decided on automaton states); otherwise states are
    identified by prefix comparison and a Finite answer is heuristic.
    Unknown is returned once more than `budget` states appear, or when
    the comparisons together run out of the `steps` forcing steps
    (default DEFAULT_BUDGET).
    """
    if isinstance(stream.origin, EvenOddOrigin):
        aut = stream.origin.automaton
        reachable = []
        queue = [stream.origin.state]
        while queue:
            q = queue.pop(0)
            if q in reachable:
                continue
            reachable.append(q)
            queue.extend((aut.d0[q], aut.d1[q]))
        sub = TwoAutomaton(aut.algebra,
                           {q: aut.outputs[q] for q in reachable},
                           {q: aut.d0[q] for q in reachable},
                           {q: aut.d1[q] for q in reachable},
                           zero_consistent=aut.zero_consistent)
        reps = {q: stream_of(aut, q) for q in reachable}
        return KernelFinite(sub, exact=True, representatives=reps)

    shared = BudgetScope(steps)  # one counter for the whole closure
    reps = [stream]
    pending = [0]
    edges = {}
    while pending:
        index = pending.pop(0)
        for bit, op in ((0, even), (1, odd)):
            candidate = op(reps[index])
            found = None
            for j, rep in enumerate(reps):
                try:
                    verdict = bounded_eq(rep, candidate, prefix, shared)
                except BudgetExhausted:
                    return KernelUnknown(budget)
                if isinstance(verdict, Equal):
                    found = j
                    break
            if found is None:
                reps.append(candidate)
                found = len(reps) - 1
                if len(reps) > budget:
                    return KernelUnknown(budget)
                pending.append(found)
            edges[(index, bit)] = found
    alg = stream.algebra
    names = [f"k{i}" for i in range(len(reps))]
    aut = TwoAutomaton(
        alg,
        {names[i]: take(reps[i], 1)[0] for i in range(len(reps))},
        {names[i]: names[edges[(i, 0)]] for i in range(len(reps))},
        {names[i]: names[edges[(i, 1)]] for i in range(len(reps))},
        zero_consistent=True)
    return KernelFinite(aut, exact=False,
                        representatives=dict(zip(names, reps)))


def binary_rational_stream(q):
    """B(q) as a bitstream over F2, unfolded from rational states.

    o(x) = numerator(x) mod 2 and d(x) = (x - o(x)) / 2; the state orbit
    is finite for every rational with odd denominator, so eventual
    periodicity is decidable on the origin states.
    """
    q = Fraction(q)
    if q.denominator % 2 == 0:
        raise EvenDenominator(f"{q} has an even denominator")

    def step(x):
        bit = x.numerator % 2
        return bit, (x - bit) / 2

    return unfold(gf(2), q, step)


def binary_encode_rational(q, n):
    """First n bits of the binary representation B(q)."""
    return take(binary_rational_stream(q), n)
