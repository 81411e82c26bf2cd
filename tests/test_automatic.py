"""2-stream automata, bbin indexing, kernels, binary rationals."""

import random
from fractions import Fraction

import pytest

from conftest import Q, prefix, seeded
from streamcalc import EvenDenominator, NotZeroConsistent, bounded_eq, gf, parse
from streamcalc.automatic import (
    KernelFinite,
    KernelUnknown,
    TwoAutomaton,
    bbin,
    binary_encode_rational,
    binary_rational_stream,
    compile_evenodd,
    kernel2,
    stream_of,
    value_at,
)
from streamcalc.calculus import constant, even, odd
from streamcalc.stream import Equal

TM_SPEC = """
algebra F2;
tm(0)=0; even(tm)=tm; odd(tm)=n;
n(0)=1; even(n)=n; odd(n)=tm;
"""

TM8 = [0, 1, 1, 0, 1, 0, 0, 1]


class TestCompile:
    def test_thue_morse_two_states(self):
        aut = compile_evenodd(parse(TM_SPEC).system)
        assert set(aut.states) == {"tm", "n"}
        assert aut.zero_consistent
        assert aut.d0 == {"tm": "tm", "n": "n"}
        assert aut.d1 == {"tm": "n", "n": "tm"}

    def test_single_selfloop_constant(self):
        aut = compile_evenodd(parse("x(0)=5; even(x)=x; odd(x)=x;").system)
        assert prefix(stream_of(aut, "x"), 6) == [5] * 6

    def test_four_state_spec_zero_consistent(self):
        spec = parse("""
        a(0)=0; even(a)=a; odd(a)=b;
        b(0)=1; even(b)=c; odd(b)=d;
        c(0)=1; even(c)=c; odd(c)=a;
        d(0)=0; even(d)=d; odd(d)=b;
        """)
        aut = compile_evenodd(spec.system)
        # direct scan oracle
        assert all(aut.outputs[aut.d0[q]] == aut.outputs[q] for q in aut.states)

    def test_not_zero_consistent_raises(self):
        spec = parse("""
        x(0)=0; even(x)=y; odd(x)=x;
        y(0)=1; even(y)=y; odd(y)=y;
        """)
        with pytest.raises(NotZeroConsistent):
            compile_evenodd(spec.system)


class TestValueAt:
    def test_bbin_spot_checks(self):
        assert bbin(0) == ()
        assert bbin(1) == (1,)
        assert bbin(2) == (0, 1)
        assert bbin(5) == (1, 0, 1)
        assert bbin(6) == (0, 1, 1)

    def test_thue_morse_values(self):
        aut = compile_evenodd(parse(TM_SPEC).system)
        assert [value_at(aut, "tm", n) for n in range(8)] == TM8

    def test_constant(self):
        aut = compile_evenodd(parse("x(0)=7; even(x)=x; odd(x)=x;").system)
        assert all(value_at(aut, "x", n) == 7 for n in range(100))

    def test_bit_order_is_least_significant_first(self):
        # a depth-3 path automaton whose outputs record the positions of
        # the 1-letters taken: o(w) = sum of 2^i over w[i] = '1'.  Then
        # value_at(root, n) = n for n < 8 -- any other bit order breaks it.
        states = [""]
        frontier = [""]
        for _ in range(3):
            frontier = [w + b for w in frontier for b in "01"]
            states += frontier
        outputs = {w: sum(2 ** i for i, bit in enumerate(w) if bit == "1")
                   for w in states}
        d0 = {w: (w + "0" if len(w) < 3 else w) for w in states}
        d1 = {w: (w + "1" if len(w) < 3 else w) for w in states}
        aut = TwoAutomaton(Q, outputs, d0, d1, zero_consistent=True)
        assert all(outputs[d0[w]] == outputs[w] for w in states)
        assert [value_at(aut, "", n) for n in range(8)] == list(range(8))
        assert prefix(stream_of(aut, ""), 8) == list(range(8))

    def test_bbin_recursion(self):
        # value_at(q, 2n) = value_at(d0 q, n); value_at(q, 2n+1) = value_at(d1 q, n)
        rng = seeded(31)
        aut = _random_automaton(rng, 6)
        q0 = aut.states[0]
        for n in range(64):
            assert value_at(aut, q0, 2 * n) == value_at(aut, aut.d0[q0], n)
            assert value_at(aut, q0, 2 * n + 1) == value_at(aut, aut.d1[q0], n)


def _random_automaton(rng, size):
    """A random zero-consistent automaton: pick d0 first, then propagate
    outputs along d0-cycles."""
    names = [f"q{i}" for i in range(size)]
    d0 = {q: rng.choice(names) for q in names}
    d1 = {q: rng.choice(names) for q in names}
    outputs = {q: rng.randint(0, 1) for q in names}
    # force zero consistency: outputs constant on d0-orbits
    for q in names:
        seen = [q]
        cur = q
        while d0[cur] not in seen:
            cur = d0[cur]
            seen.append(cur)
        for s in seen:
            outputs[s] = outputs[seen[-1]]
    aut = TwoAutomaton(gf(2), outputs, d0, d1, zero_consistent=True)
    assert all(outputs[d0[q]] == outputs[q] for q in names)
    return aut


class TestStreamOf:
    def test_thue_morse(self):
        aut = compile_evenodd(parse(TM_SPEC).system)
        assert prefix(stream_of(aut, "tm"), 8) == TM8

    def test_agrees_with_value_at(self):
        rng = seeded(32)
        for _ in range(10):
            aut = _random_automaton(rng, rng.randint(1, 6))
            q0 = aut.states[0]
            got = prefix(stream_of(aut, q0), 256)
            assert got == [value_at(aut, q0, n) for n in range(256)]

    def test_even_odd_coherence(self):
        aut = compile_evenodd(parse(TM_SPEC).system)
        for q in aut.states:
            s = stream_of(aut, q)
            assert isinstance(
                bounded_eq(even(s), stream_of(aut, aut.d0[q]), 64), Equal)
            assert isinstance(
                bounded_eq(odd(s), stream_of(aut, aut.d1[q]), 64), Equal)

    def test_requires_zero_consistency(self):
        aut = TwoAutomaton(gf(2), {"a": 0, "b": 1}, {"a": "b", "b": "a"},
                           {"a": "a", "b": "b"}, zero_consistent=False)
        with pytest.raises(NotZeroConsistent):
            stream_of(aut, "a")


class TestKernel:
    def test_thue_morse_exact(self):
        aut = compile_evenodd(parse(TM_SPEC).system)
        result = kernel2(stream_of(aut, "tm"), automaton=aut, state="tm")
        assert isinstance(result, KernelFinite)
        assert result.exact
        assert result.automaton == aut

    def test_exact_kernel_is_the_reachable_part(self):
        # breadth first from a; b's two successors are one new state, d
        # is unreachable
        aut = TwoAutomaton(Q, {"a": 1, "b": 2, "c": 3, "d": 4},
                           {"a": "a", "b": "c", "c": "c", "d": "a"},
                           {"a": "b", "b": "c", "c": "c", "d": "d"}, zero_consistent=True)
        result = kernel2(stream_of(aut, "a"), automaton=aut, state="a")
        assert result.exact
        assert result.automaton.states == ("a", "b", "c")
        assert result.automaton.d0 == {"a": "a", "b": "c", "c": "c"}
        assert result.automaton.d1 == {"a": "b", "b": "c", "c": "c"}

    def test_constant_stream_heuristic(self):
        result = kernel2(constant(Q, 3))
        assert isinstance(result, KernelFinite)
        assert not result.exact
        # {3,0,0,...} closes with the all-zero stream: two states
        assert len(result.automaton.states) == 2

    def test_heuristic_kernel_matches_exact(self):
        # given the stream but not the automaton, the heuristic route
        # must rebuild an automaton whose behaviour matches the stream
        aut = compile_evenodd(parse(TM_SPEC).system)
        original = stream_of(aut, "tm")
        result = kernel2(original, budget=8, prefix=64)
        assert isinstance(result, KernelFinite)
        assert not result.exact
        assert len(result.automaton.states) <= 2
        start = result.automaton.states[0]
        rebuilt = stream_of(result.automaton, start)
        assert isinstance(bounded_eq(rebuilt, original, 64), Equal)

    def test_fibonacci_unknown(self):
        from streamcalc.gsos import solve_system_with_defs

        spec = parse("s(0)=0; s'(0)=1; s'' = s' + s;")
        fib = solve_system_with_defs(spec.system)["s"]
        result = kernel2(fib, budget=12, prefix=16)
        assert result == KernelUnknown(12)
        # oracle: the 16-prefixes of kernel members keep producing fresh
        # streams (values grow), so no finite kernel shows up at this budget
        members = {tuple(prefix(fib, 16))}
        frontier = [fib]
        for _ in range(12):
            nxt = []
            for s in frontier:
                for op in (even, odd):
                    t = op(s)
                    key = tuple(prefix(t, 16))
                    if key not in members:
                        members.add(key)
                        nxt.append(t)
            frontier = nxt
            if len(members) > 12:
                break
        assert len(members) > 12


class TestBinaryRational:
    def test_seventeen_fifths(self):
        assert binary_encode_rational(Fraction(17, 5), 11) \
            == [1, 0, 1, 1, 1, 0, 0, 1, 1, 0, 0]

    def test_pattern_repeats(self):
        bits = binary_encode_rational(Fraction(17, 5), 23)
        assert bits[:3] == [1, 0, 1]
        assert bits[3:] == [1, 1, 0, 0] * 5

    def test_zero(self):
        assert binary_encode_rational(Fraction(0), 8) == [0] * 8

    def test_orbit_passes_through_minus_three_fifths(self):
        node = binary_rational_stream(Fraction(17, 5)).node
        states = [node.start]
        for _ in range(5):
            states.append(node.step(states[-1])[1])
        assert states[4] == Fraction(-3, 5)

    def test_even_denominator_rejected(self):
        with pytest.raises(EvenDenominator, match="^1/2 has an even denominator$"):
            binary_encode_rational(Fraction(1, 2), 4)

    def test_integer_bits_are_the_unfolded_stream(self):
        # the integer loop against the rational-state unfold it replaced
        rng = seeded("bbin-integers")
        cases = [(Fraction(0), 200), (Fraction(-1), 200), (Fraction(1), 200)]
        for _ in range(60):
            num = rng.choice((-1, 1)) * rng.choice((rng.randint(0, 9), rng.randint(0, 10**12)))
            cases.append((Fraction(num, rng.choice((1, 3, 5, 7, 9, 11, 13, 15, 21, 1023))),
                          rng.randint(0, 200)))
        assert any(q < 0 for q, _ in cases) and any(q > 0 for q, _ in cases)
        for q, n in cases:
            bits = binary_encode_rational(q, n)
            assert bits == prefix(binary_rational_stream(q), n, 10**6), (q, n)
            assert all(type(b) is int for b in bits)

    def test_orbit_is_finite(self):
        rng = random.Random(33)
        for _ in range(50):
            num = rng.randint(-40, 40)
            den = rng.choice([1, 3, 5, 7, 9, 11])
            q = Fraction(num, den)
            if q.denominator % 2 == 0:
                continue
            seen = set()
            state = q
            bound = q.denominator * (abs(q.numerator) + q.denominator) + 4
            for _ in range(bound):
                if state in seen:
                    break
                seen.add(state)
                bit = state.numerator % 2
                state = (state - bit) / 2
            else:
                pytest.fail(f"no cycle for {q} within {bound} steps")
