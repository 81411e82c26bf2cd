"""2-stream automata, even-odd specifications, and 2-automatic sequences.

An even-odd specification compiles to a zero-consistent 2-stream
automaton with one state per unknown.  A state's stream is its
`series` even-odd node (x(2k) = even(x)(k), x(2k+1) = odd(x)(k)); the
n-th element can also be read off directly by feeding the reverse
binary encoding of n to the automaton, and the two routes are kept as
independent implementations.

k is fixed to 2 throughout; the shapes would generalise to any k, but
only k = 2 is built and tested.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import series, speclang
from .algebra import gf
from .errors import EvenDenominator, NotZeroConsistent, UnsupportedOp
from .stream import BudgetExhausted, BudgetScope, Equal, at, bounded_eq, take, unfold
from .calculus import even, odd


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


def compile_evenodd(sys):
    """One automaton state per variable; requires zero consistency."""
    if not sys.evens:  # what classify() calls EVEN_ODD
        raise UnsupportedOp("not an even-odd specification")
    speclang.require_zero_consistency(sys)
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
    """The behaviour stream of a zero-consistent automaton state."""
    if not aut.zero_consistent:
        raise NotZeroConsistent(q0, "automaton is not zero-consistent")
    nodes = series.even_odd_nodes(aut.algebra, aut.outputs, aut.d0, aut.d1)
    return at(nodes[q0])


@dataclass
class KernelFinite:
    automaton: TwoAutomaton
    exact: bool


@dataclass(frozen=True)
class KernelUnknown:
    budget: int


def kernel2(stream, budget=64, prefix=64, steps=None, automaton=None, state=None):
    """Close {sigma} under even/odd, identifying states.

    Exact when given an `automaton` and its `state` in place of the
    stream, which may then be None (the kernel is the part reachable
    from `state`); otherwise states are identified by prefix comparison
    and a Finite answer is heuristic.  Unknown is returned once more
    than `budget` states appear, or when the comparisons together run
    out of the `steps` budget steps (default DEFAULT_BUDGET).
    """
    if automaton is not None:
        reachable = [state]
        for q in reachable:  # grows while it is read: breadth first
            for target in (automaton.d0[q], automaton.d1[q]):
                if target not in reachable:
                    reachable.append(target)
        sub = TwoAutomaton(automaton.algebra,
                           {q: automaton.outputs[q] for q in reachable},
                           {q: automaton.d0[q] for q in reachable},
                           {q: automaton.d1[q] for q in reachable},
                           zero_consistent=automaton.zero_consistent)
        return KernelFinite(sub, exact=True)

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
    return KernelFinite(aut, exact=False)


def binary_rational_stream(q):
    """B(q) as a bitstream over F2, unfolded from rational states.

    o(x) = numerator(x) mod 2 and d(x) = (x - o(x)) / 2; the state orbit
    is finite for every rational with odd denominator, so eventual
    periodicity is decidable on the unfold node's states.
    """
    q = Fraction(q)
    if q.denominator % 2 == 0:
        raise EvenDenominator(f"{q} has an even denominator")

    def step(x):
        bit = x.numerator % 2
        return bit, (x - bit) / 2

    return unfold(gf(2), q, step)


def binary_encode_rational(q, n):
    """First n bits of the binary representation B(q), in integers: with
    q = a/b, b odd, the bit is a mod 2 and the rest (q - bit) / 2 is
    ((a - bit*b) / 2) / b, so b stays and a is halved exactly."""
    q = Fraction(q)
    if q.denominator % 2 == 0:
        raise EvenDenominator(f"{q} has an even denominator")
    a, b = q.numerator, q.denominator
    bits = []
    for _ in range(n):
        bit = a & 1
        bits.append(bit)
        a = (a - bit * b) >> 1
    return bits
