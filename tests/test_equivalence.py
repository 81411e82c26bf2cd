"""Exact and budgeted equivalence checking with checkable certificates."""

import collections
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import Q, prefix, rand_ratexpr, seeded
from streamcalc import Poly, RatExpr, bounded_eq, parse, ratexpr_normalize
from streamcalc.algebra import get_algebra, gf
from streamcalc.errors import BudgetExhausted, SpecError, UnsupportedOp, UsageError
from streamcalc import calculus, equivalence, gsos
from streamcalc.equivalence import (
    COMMUTATIVE_OPS,
    Proved,
    RationalCertificate,
    Refuted,
    Unknown,
    _closure_membership,
    _match,
    _Relation,
    bisim_finite,
    closed_form,
    decide,
    equiv_rational,
    equiv_up_to,
    verify_bisim_certificate,
    verify_certificate,
    verify_rational_certificate,
    verify_up_to_certificate,
)
from streamcalc.gsos import Engine, load_system
from streamcalc.solvers import (
    SimpleAutomaton,
    rational_to_linear,
    ratexpr_stream,
    solve_linear_matrix,
)
from streamcalc.speclang import Const, EquationSystem, HLit, OpApp, Var
from streamcalc.stream import Differ, Equal


def P(*ints):
    return Poly.from_ints(Q, ints)


class TestEquivRational:
    def test_equal_after_unrelated_factors(self):
        fib = ratexpr_normalize(P(0, 1), P(1, -1, -1))
        other = ratexpr_normalize(P(0, 1) * P(1, -1), P(1, -1) * P(1, -1, -1))
        result = equiv_rational(fib, other)
        assert isinstance(result, Proved)
        assert verify_certificate(result)
        # oracle: 64-prefix agreement
        assert isinstance(
            bounded_eq(ratexpr_stream(fib), ratexpr_stream(other), 64), Equal)

    def test_refuted_with_first_index(self):
        ones = ratexpr_normalize(P(1), P(1, -1))
        doubles = ratexpr_normalize(P(1), P(1, -2))
        assert equiv_rational(ones, doubles) == Refuted(1, Fraction(1), Fraction(2))

    def test_nats_squared_form(self):
        built = ratexpr_normalize(P(1, 1), P(1, -1) * P(1, -1) * P(1, -1))
        given = ratexpr_normalize(P(1, 1), P(1, -3, 3, -1))
        result = equiv_rational(built, given)
        assert isinstance(result, Proved) and verify_certificate(result)

    def test_never_unknown_on_random_pairs(self):
        # agreement with prefix comparison on randomized rational pairs
        rng = seeded(99)
        for _ in range(500):
            r1 = rand_ratexpr(rng, max_deg=4)
            r2 = rand_ratexpr(rng, max_deg=4)
            result = equiv_rational(r1, r2)
            scan = bounded_eq(ratexpr_stream(r1), ratexpr_stream(r2), 128,
                              budget=1_000_000)
            if isinstance(result, Proved):
                assert isinstance(scan, Equal)
                assert verify_certificate(result)
            else:
                assert isinstance(result, Refuted)
                assert isinstance(scan, Differ)
                assert scan.index == result.index
                assert (result.left, result.right) == (scan.left, scan.right)

    @pytest.mark.parametrize("alg", [Q, gf(5)], ids=["Q", "Fp5"])
    def test_late_refutation_reads_the_series_coefficients(self, alg):
        # r and r + c*X^k agree up to index k; the refutation's elements
        # are the streams' own, as the derivatives' heads would give
        rng = seeded(98)
        for _ in range(60):
            num, den = ([alg.sample(rng) for _ in range(rng.randint(1, 5))]
                        for _ in range(2))
            den[0] = alg.one
            r = ratexpr_normalize(Poly(alg, num), Poly(alg, den))
            k, c = rng.randint(0, 12), alg.coerce(rng.randint(1, 4))
            other = r + RatExpr.from_poly(Poly(alg, [alg.zero] * k + [c]))
            result = equiv_rational(r, other)
            values = prefix(ratexpr_stream(r), k + 1)
            assert result == Refuted(k, values[k], alg.add(values[k], c))


FIG1 = SimpleAutomaton(Q, {"x0": 0, "x1": 1, "x2": 0, "x3": 0},
                       {"x0": "x1", "x1": "x2", "x2": "x1", "x3": "x3"})


class TestBisimFinite:
    def test_fig1_equal_states(self):
        result = bisim_finite(FIG1, "x0", FIG1, "x2")
        assert isinstance(result, Proved)
        assert ("x0", "x2") in result.certificate.relation
        assert verify_certificate(result, "x0", "x2")

    def test_fig1_refuted(self):
        assert bisim_finite(FIG1, "x0", FIG1, "x3") == Refuted(1, 1, 0)

    def test_diagonal(self):
        for state in FIG1.states:
            result = bisim_finite(FIG1, state, FIG1, state)
            assert isinstance(result, Proved)
            assert verify_certificate(result, state, state)

    def test_cross_automata(self):
        other = SimpleAutomaton(Q, {"a": 0, "b": 1}, {"a": "b", "b": "a"})
        result = bisim_finite(FIG1, "x0", other, "a")
        assert isinstance(result, Proved)
        assert verify_certificate(result, "x0", "a")

    def test_agrees_with_prefix_walk(self):
        from streamcalc.solvers import unfold_automaton

        rng = seeded(5)
        names = list(FIG1.states)
        for _ in range(50):
            n = rng.randint(2, 5)
            aut = SimpleAutomaton(
                Q,
                {f"q{i}": rng.randint(0, 1) for i in range(n)},
                {f"q{i}": f"q{rng.randrange(n)}" for i in range(n)})
            s1, s2 = (f"q{rng.randrange(n)}" for _ in range(2))
            verdict = bisim_finite(aut, s1, aut, s2)
            scan = bounded_eq(unfold_automaton(aut, s1),
                              unfold_automaton(aut, s2), n * n + 1)
            if isinstance(verdict, Proved):
                assert isinstance(scan, Equal)
            else:
                assert isinstance(scan, Differ)
                assert scan.index == verdict.index

    def test_coprime_cycles_are_proved_after_every_pair_of_phases(self):
        # a pair first repeats after lcm(3, 5) = 15 steps
        left, right = cycle("p", [1] * 3), cycle("q", [1] * 5)
        result = bisim_finite(left, "p0", right, "q0")
        assert isinstance(result, Proved)
        assert len(result.certificate.relation) == 15
        assert verify_certificate(result, "p0", "q0")

    def test_periods_3_and_5_first_differ_at_the_fine_wilf_bound(self):
        # p + q - gcd(p, q) - 1 = 6: the runs agree on indices 0..5
        left, right = cycle("p", [0, 1, 0]), cycle("q", [0, 1, 0, 0, 1])
        assert bisim_finite(left, "p0", right, "q0") == Refuted(6, 0, 1)

    @pytest.mark.parametrize("name", ["Nat", "Q", "F2"])
    def test_same_verdicts_as_the_whole_union_refinement(self, name):
        alg = get_algebra(name)
        rng = seeded(f"bisim:{name}")
        verdicts = collections.Counter()
        for _ in range(80):
            aut1, s1 = random_automaton(rng, alg, "p")
            if rng.random() < 0.5:
                # a renamed copy with more states: equal behaviours
                rename = {q: f"q{q[1:]}" for q in aut1.states}
                outputs = {rename[q]: o for q, o in aut1.outputs.items()}
                nxt = {rename[q]: rename[t] for q, t in aut1.next.items()}
                extra, _ = random_automaton(rng, alg, "r")
                aut2 = SimpleAutomaton(alg, {**outputs, **extra.outputs},
                                       {**nxt, **extra.next})
                s2 = rename[s1]
            else:
                aut2, s2 = random_automaton(rng, alg, "q")
            verdict = bisim_finite(aut1, s1, aut2, s2)
            reference = whole_union_bisim(aut1, s1, aut2, s2)
            assert type(verdict) is type(reference)
            verdicts[type(verdict)] += 1
            if isinstance(verdict, Refuted):
                assert verdict == reference
                continue
            assert verify_certificate(verdict, s1, s2)
            reach1, reach2 = unfold_states(aut1, s1), unfold_states(aut2, s2)
            # the walked pairs: bisimilar pairs of reachable states
            assert (s1, s2) in verdict.certificate.relation
            assert verdict.certificate.relation <= {
                (x, y) for x, y in reference.certificate.relation
                if x in reach1 and y in reach2}
            # the unreachable states are left out
            assert len(reach1) < len(aut1.states) or len(reach2) < len(aut2.states)
        assert verdicts[Proved] >= 20 and verdicts[Refuted] >= 20


def cycle(tag, outputs):
    """An automaton over Q whose run from state 0 repeats `outputs`."""
    n = len(outputs)
    return SimpleAutomaton(Q, {f"{tag}{i}": o for i, o in enumerate(outputs)},
                           {f"{tag}{i}": f"{tag}{(i + 1) % n}" for i in range(n)})


class TestVerifiersReject:
    def test_bisim_relation_without_the_root_pair(self):
        cert = bisim_finite(FIG1, "x0", FIG1, "x2").certificate
        assert cert.relation == {("x0", "x2"), ("x1", "x1"), ("x2", "x2")}
        assert verify_bisim_certificate(cert, "x0", "x2")
        without_root = replace(cert, relation=cert.relation - {("x0", "x2")})
        assert not verify_bisim_certificate(without_root, "x0", "x2")

    def test_bisim_relation_with_unequal_outputs(self):
        # the pair is its own successor, so only the outputs are wrong
        zeros, ones = cycle("a", [0]), cycle("b", [1])
        cert = equivalence.BisimCertificate(zeros, ones, frozenset({("a0", "b0")}))
        assert not verify_bisim_certificate(cert, "a0", "b0")

    def test_bisim_relation_missing_a_successor_pair(self):
        cert = bisim_finite(FIG1, "x0", FIG1, "x2").certificate
        # every output still agrees; (x1, x1) leads to the missing pair
        cut = replace(cert, relation=cert.relation - {("x2", "x2")})
        assert not verify_bisim_certificate(cut, "x0", "x2")

    def test_rational_certificate_with_a_wrong_product(self):
        fib = ratexpr_normalize(P(0, 1), P(1, -1, -1))
        other = ratexpr_normalize(P(0, 1) * P(1, -1), P(1, -1) * P(1, -1, -1))
        cert = equiv_rational(fib, other).certificate
        assert verify_rational_certificate(cert)
        wrong = replace(cert, product=cert.product + P(0, 0, 1))
        assert not verify_rational_certificate(wrong)

    def test_up_to_relation_with_one_pair_removed(self):
        fib = parse("s(0)=0; s'(0)=1; s'' = s' + s;")
        comp = companion_system(ratexpr_normalize(P(0, 1), P(1, -1, -1)))
        engine = Engine(Q)
        left = load_system(engine, fib.system)["s"]
        right = load_system(engine, comp)["x0"]
        cert = equiv_up_to(left, right, engine=engine).certificate
        assert verify_up_to_certificate(cert)
        assert len(cert.pairs) >= 2
        for k in range(len(cert.pairs)):
            cut = replace(cert, pairs=cert.pairs[:k] + cert.pairs[k + 1:])
            assert not verify_up_to_certificate(cut)


def random_automaton(rng, alg, tag):
    """A random automaton of 3-12 states over alg, and a state from which
    at least one other state is unreachable."""
    n = rng.randint(3, 12)
    states = [f"{tag}{i}" for i in range(n)]
    outputs = {q: alg.coerce(rng.randint(0, 2)) for q in states}
    nxt = {q: rng.choice(states) for q in states}
    start = rng.choice(states)
    reachable = unfold_states(SimpleAutomaton(alg, outputs, nxt), start)
    if len(reachable) == n:
        # an orphan state: no state leads to it
        orphan = f"{tag}{n}"
        outputs[orphan], nxt[orphan] = alg.coerce(rng.randint(0, 2)), rng.choice(states)
    return SimpleAutomaton(alg, outputs, nxt), start


def unfold_states(aut, start):
    seen = set()
    while start not in seen:
        seen.add(start)
        start = aut.next[start]
    return seen


def whole_union_bisim(aut1, s1, aut2, s2):
    """bisim_finite as Moore refinement over every state of both automata,
    the reference for its walk of the reachable pairs only."""
    alg = aut1.algebra
    states = [("L", x) for x in aut1.states] + [("R", y) for y in aut2.states]

    def automaton(tagged):
        return aut1 if tagged[0] == "L" else aut2

    outputs, block = [], {}
    for st in states:
        o = automaton(st).outputs[st[1]]
        key = next((k for k, seen in enumerate(outputs) if alg.eq(seen, o)), None)
        if key is None:
            key = len(outputs)
            outputs.append(o)
        block[st] = key
    while True:
        keys, new_block = {}, {}
        for st in states:
            sig = (block[st], block[(st[0], automaton(st).next[st[1]])])
            new_block[st] = keys.setdefault(sig, len(keys))
        if new_block == block:
            break
        block = new_block
    if block[("L", s1)] == block[("R", s2)]:
        return Proved(equivalence.BisimCertificate(aut1, aut2, frozenset(
            (x, y) for x in aut1.states for y in aut2.states
            if block[("L", x)] == block[("R", y)])))
    x, y = s1, s2
    for i in range(len(aut1.states) * len(aut2.states) + 1):
        if not alg.eq(aut1.outputs[x], aut2.outputs[y]):
            return Refuted(i, aut1.outputs[x], aut2.outputs[y])
        x, y = aut1.next[x], aut2.next[y]
    raise AssertionError("refinement and walk disagree")


def companion_system(r):
    ls = rational_to_linear(r)

    def row_term(row):
        parts = []
        for name, coeff in zip(ls.names, row):
            if Q.is_zero(coeff):
                continue
            parts.append(Var(name) if Q.eq(coeff, Q.one)
                         else OpApp("*", (Const(HLit(coeff)), Var(name))))
        if not parts:
            return Const(HLit(Q.zero))
        term = parts[0]
        for part in parts[1:]:
            term = OpApp("+", (term, part))
        return term

    return EquationSystem(Q, ls.names, dict(zip(ls.names, ls.o)),
                          rhs={name: row_term(row)
                               for name, row in zip(ls.names, ls.M)})


class TestEquivUpTo:
    def test_commutativity_of_sum(self):
        # sigma + tau ~ tau + sigma for universally quantified leaves
        engine = Engine(Q)
        result = equiv_up_to(OpApp("+", (Var("u"), Var("v"))),
                             OpApp("+", (Var("v"), Var("u"))),
                             engine=engine, sig_ops=frozenset({"+"}))
        assert isinstance(result, Proved)
        assert len(result.certificate.pairs) <= 1
        assert verify_certificate(result)
        assert not result.certificate.beyond_table1
        # oracle: 64-prefix equality on random instances
        from conftest import rand_rational_stream
        from streamcalc.calculus import add

        rng = seeded(6)
        for _ in range(20):
            s, t = rand_rational_stream(rng), rand_rational_stream(rng)
            assert isinstance(bounded_eq(add(s, t), add(t, s), 64), Equal)

    def test_fibonacci_vs_companion(self):
        fib = parse("s(0)=0; s'(0)=1; s'' = s' + s;")
        r = ratexpr_normalize(P(0, 1), P(1, -1, -1))
        comp = companion_system(r)
        engine = Engine(Q)
        left = load_system(engine, fib.system)["s"]
        right = load_system(engine, comp)["x0"]
        result = equiv_up_to(left, right, engine=engine)
        assert isinstance(result, Proved)
        assert verify_certificate(result)
        # the engine states really denote the same stream
        assert isinstance(
            bounded_eq(engine.behaviour(left),
                       ratexpr_stream(solve_linear_matrix(
                           rational_to_linear(r))[0]), 64), Equal)

    def test_ones_vs_nats_refuted(self):
        ones = parse("s(0)=1; s' = s;")
        nats = parse("n(0)=1; n' = n + t; t(0)=1; t' = t;")
        engine = Engine(Q)
        left = load_system(engine, ones.system)["s"]
        right = load_system(engine, nats.system)["n"]
        assert equiv_up_to(left, right, engine=engine) \
            == Refuted(1, Fraction(1), Fraction(2))

    def test_unknown_on_budget(self):
        # x' = [2]*x vs y' = y + y: equal streams, but the chain of states
        # never closes syntactically under a signature without '+'
        double = parse("x(0)=1; x' = 2*x;")
        summed = parse("y(0)=1; y' = y + y;")
        engine = Engine(Q)
        left = load_system(engine, double.system)["x"]
        right = load_system(engine, summed.system)["y"]
        result = equiv_up_to(left, right, engine=engine,
                             sig_ops=frozenset(), budget=40)
        assert isinstance(result, Unknown)

    def test_mixed_signature_flagged(self):
        # a proof that crosses a non-Table-1 operation is marked
        engine = Engine(Q)
        result = equiv_up_to(
            OpApp("zip", (Var("u"), Var("v"))),
            OpApp("zip", (Var("u"), Var("v"))),
            engine=engine)
        assert isinstance(result, Proved)  # identical states: reflexivity
        assert not result.certificate.beyond_table1
        result2 = equiv_up_to(
            OpApp("hadamard", (Var("u"), Var("v"))),
            OpApp("hadamard", (Var("v"), Var("u"))),
            engine=engine)
        assert isinstance(result2, Proved)
        assert result2.certificate.beyond_table1

    def test_zip_is_not_treated_as_commutative(self):
        # zip(u, v) and zip(v, u) genuinely differ; the prover must not
        # discharge them the way it does for the commutative operations
        engine = Engine(Q)
        result = equiv_up_to(OpApp("zip", (Var("u"), Var("v"))),
                             OpApp("zip", (Var("v"), Var("u"))),
                             engine=engine, budget=30)
        assert not isinstance(result, Proved)

    def test_symbolic_head_mismatch_is_unknown(self):
        # u vs v for distinct variables cannot be refuted concretely
        engine = Engine(Q)
        result = equiv_up_to(Var("u"), Var("v"), engine=engine)
        assert isinstance(result, Unknown)

    def test_non_causal_builtin_over_variable_is_unknown(self):
        # even(u) has no syntactic state for a quantified u: honest Unknown
        engine = Engine(Q)
        result = equiv_up_to(OpApp("even", (Var("u"),)),
                             OpApp("even", (Var("u"),)), engine=engine)
        assert isinstance(result, Unknown)

    def test_sound_against_rational_ground_truth(self):
        # randomized soundness harness: the up-to verdicts on linear
        # systems must agree with the exact rational decision
        from conftest import rand_linear_system
        from streamcalc.speclang import EquationSystem

        rng = seeded(777)

        def system_term(ls, i, flip):
            parts = []
            for j in range(ls.n):
                coeff = ls.M[i][j]
                if Q.is_zero(coeff):
                    continue
                parts.append(Var(ls.names[j]) if Q.eq(coeff, Q.one)
                             else OpApp("*", (Const(HLit(coeff)),
                                              Var(ls.names[j]))))
            if not parts:
                return Const(HLit(Q.zero))
            if flip:
                parts.reverse()
            term = parts[0]
            for part in parts[1:]:
                term = OpApp("+", (term, part))
            return term

        def as_equation_system(ls, rename, flip):
            names = tuple(n + rename for n in ls.names)
            renamed = type(ls)(Q, names, ls.o, ls.M)
            return EquationSystem(
                Q, names, dict(zip(names, ls.o)),
                rhs={names[i]: _rename_vars(system_term(renamed, i, flip))
                     for i in range(ls.n)})

        def _rename_vars(t):
            return t

        proved = refuted = unknown = 0
        for trial in range(60):
            # two variables at most: reversing a two-term sum is a pure
            # commutation, so equivalent pairs stay provable
            ls = rand_linear_system(rng, max_n=2, span=3)
            forms = solve_linear_matrix(ls)
            if rng.random() < 0.5:
                other = ls
            else:
                o = list(ls.o)
                o[rng.randrange(ls.n)] += 1
                other = type(ls)(Q, ls.names, tuple(o), ls.M)
            other_forms = solve_linear_matrix(other)
            truth = equiv_rational(forms[0], other_forms[0])

            engine = Engine(Q)
            left = gsos.load_system(engine, as_equation_system(ls, "", False))
            right = gsos.load_system(
                engine, as_equation_system(other, "_b", flip=True))
            verdict = equiv_up_to(left[ls.names[0]],
                                  right[other.names[0] + "_b"],
                                  engine=engine, budget=60)
            if isinstance(verdict, Proved):
                proved += 1
                assert isinstance(truth, Proved), "unsound Proved"
                assert verify_certificate(verdict)
            elif isinstance(verdict, Refuted):
                refuted += 1
                assert isinstance(truth, Refuted), "unsound Refuted"
                assert verdict.index == truth.index
            else:
                unknown += 1
        # the harness must actually exercise both decisive outcomes
        assert proved >= 10 and refuted >= 10


# ---------------------------------------------------------------------------
# The indexed hypothesis step against the linear scan it replaced


def scan_closure_membership(engine, pair, relation, sig_ops, used):
    """_closure_membership with the hypothesis step as a scan of the
    whole relation, in relation order: the reference for the index."""
    u, v = pair
    if u is v:
        return ("refl", u)
    for a, b in relation.pairs:
        theta = {}
        if _match(engine, a, u, theta) and _match(engine, b, v, theta):
            return ("hyp", (a, b))
    if (u.kind == "app" and v.kind == "app" and u.symbol == v.symbol
            and len(u.args) == len(v.args)
            and (sig_ops is None or u.symbol in sig_ops)):
        pairings = [tuple(zip(u.args, v.args))]
        if u.symbol in COMMUTATIVE_OPS and len(u.args) == 2:
            pairings.append(((u.args[0], v.args[1]), (u.args[1], v.args[0])))
        for pairing in pairings:
            subs = []
            for child in pairing:
                sub = scan_closure_membership(engine, child, relation, sig_ops, used)
                if sub is None:
                    subs = None
                    break
                subs.append(sub)
            if subs is not None:
                used.add(u.symbol)
                return ("cong", u.symbol, tuple(subs))
    return None


# algebra -> (coefficient literals, head literals, zero term)
UPTO_ALGEBRAS = {
    "Nat": (("1", "2", "3"), ("0", "1", "2"), "0"),
    "Q": (("1", "2", "-1", "1/2", "3"), ("0", "1", "-1", "1/2"), "0"),
    "Bool": (("1",), ("0", "1"), "0"),
    "Tropical": (("0", "1", "2", "3"), ("0", "1", "3"), "[inf]"),
}
SIG_OPS = (None, None, frozenset(), frozenset({"+"}), frozenset({"+", "*"}))


def cf_rhs(rng, alg, letters):
    """1-3 monomials of degree <= 2 over `letters` and X, plus a product
    of the first letter with itself; `{}` in place of each letter's
    name."""
    coefficients = UPTO_ALGEBRAS[alg][0]
    monomials = []
    for _ in range(rng.randint(1, 3)):
        factors = [rng.choice(letters + ("X",)) for _ in range(rng.choice((0, 1, 2, 2)))]
        if not factors or rng.random() < 0.5:
            factors.insert(0, rng.choice(coefficients))
        monomials.append("*".join(factors))
    monomials.append(f"{letters[0]}*{letters[0]}")
    return " + ".join(monomials)


def system_text(alg, heads, rhs):
    return f"algebra {alg};" + "".join(
        f" {v}(0) = {heads[v]}; {v}' = {rhs[v]};" for v in heads)


def renamed_pair(rng, alg):
    """A one-unknown context-free system against its renamed copy."""
    head, rhs = rng.choice(UPTO_ALGEBRAS[alg][1]), cf_rhs(rng, alg, ("{0}",))
    return ({"x": head}, {"x": rhs.format("x")}, "x"), ({"y": head}, {"y": rhs.format("y")}, "y")


def chain_pair(rng, alg):
    """x against y = x + c*X^k, through a renamed copy of x and a delay
    chain z1 .. zk whose last cell holds c."""
    coefficients, heads, zero = UPTO_ALGEBRAS[alg]
    k = rng.randint(1, 4)
    head, rhs = rng.choice(heads), cf_rhs(rng, alg, ("{0}",))
    zs = [f"z{i}" for i in range(1, k + 1)]
    b_heads = {"y": head, "w": head, **{z: "0" if alg != "Tropical" else "inf" for z in zs}}
    b_heads[zs[-1]] = rng.choice(coefficients)
    b_rhs = {"y": rhs.format("w") + f" + {zs[0]}", "w": rhs.format("w"),
             **{z: nxt for z, nxt in zip(zs, zs[1:] + [zero])}}
    return ({"x": head}, {"x": rhs.format("x")}, "x"), (b_heads, b_rhs, "y")


def rewrite_pair(rng, alg):
    """x' = x + ... + x (m terms) against y' = m*y (1*y over Bool)."""
    m, head = rng.randint(2, 4), rng.choice(UPTO_ALGEBRAS[alg][1])
    return (({"x": head}, {"x": " + ".join(["x"] * m)}, "x"),
            ({"y": head}, {"y": f"{1 if alg == 'Bool' else m}*y"}, "y"))


def linear_pair(rng, alg):
    """A 2-unknown linear system against its renamed, reordered copy.
    (The closure's cost grows exponentially with the states' depth, and a
    3-unknown sum chain can take minutes at budget 40.)"""
    coefficients, heads, _ = UPTO_ALGEBRAS[alg]
    n = 2
    rows = [[rng.choice(coefficients + ("1",) * 3) if rng.random() < 0.6 else None
             for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(rows):
        row[(i + 1) % n] = row[(i + 1) % n] or "1"
    start = [rng.choice(heads) for _ in range(n)]

    def system(prefix, order):
        names = [f"{prefix}{i}" for i in range(n)]
        rhs = [" + ".join(names[j] if c == "1" else f"{c}*{names[j]}"
                          for j, c in enumerate(row) if c) for row in rows]
        return ({names[i]: start[i] for i in order}, {names[i]: rhs[i] for i in order},
                names[0])

    order = list(range(n))
    rng.shuffle(order)
    return system("a", range(n)), system("b", order)


def schema_pairs():
    """Pairs of terms over universally quantified stream variables, and
    over a system unknown s with them."""
    u, v, w, s = Var("u"), Var("v"), Var("w"), Var("s")

    def op(symbol, *args):
        return OpApp(symbol, args)

    return [
        (op("+", u, v), op("+", v, u)),
        (op("*", u, v), op("*", v, u)),
        (op("zip", u, v), op("zip", v, u)),
        (op("hadamard", u, v), op("hadamard", v, u)),
        (u, v),
        (op("*", op("+", u, v), w), op("*", w, op("+", v, u))),
        (op("*", u, op("+", v, w)), op("+", op("*", u, v), op("*", u, w))),
        (op("+", op("*", op("X"), u), v), op("+", v, op("*", op("X"), u))),
        (op("+", u, u), op("*", Const(HLit(2)), u)),
        (s, op("+", s, op("-", u, u))),
        (op("*", s, u), op("*", u, s)),
        (op("+", s, op("*", op("X"), u)), op("+", op("*", op("X"), u), s)),
    ]


USER_DEFS = """
def twice(a) { out = a(0) + a(0); deriv = twice(a'); }
def mix3(a, b, c) { out = a(0) + c(0); deriv = mix3(b', a, c'); }
"""


def op_tree(rng, ops, depth):
    """A random term tree whose operations are drawn from ops (symbol ->
    arity), with the unknown, X and 2 at the leaves; never a leaf at the
    top."""
    symbol = rng.choice(sorted(ops))
    args = [rng.choice(("{0}", "{0}", "X", "2")) if depth <= 1 or rng.random() < 0.3
            else op_tree(rng, ops, depth - 1) for _ in range(ops[symbol])]
    return symbol, args


def render(tree, letter, swap=False):
    """The text of a term tree with `letter` for the unknown; with swap,
    the two arguments of every binary operation change places."""
    if isinstance(tree, str):
        return tree.format(letter)
    symbol, args = tree
    parts = [render(a, letter, swap) for a in args]
    if swap and len(parts) == 2:
        parts.reverse()
    if symbol in ("+", "-", "*"):
        return f"({parts[0]} {symbol} {parts[1]})"
    return f"{symbol}({', '.join(parts)})"


def op_pair_verdicts(monkeypatch, rng, alg, ops, swap, trials=8):
    """Searches on x' = t(x) against y' = t(y), or against t with binary
    arguments swapped, each under the full signature or under ops less
    the head symbol of t; asserts each equal to the scan's.  Counts the
    verdicts by (type, full signature) and the operations the proofs
    cross."""
    verdicts, crossed = collections.Counter(), collections.Counter()
    for _ in range(trials):
        tree, head = op_tree(rng, ops, 3), rng.choice(UPTO_ALGEBRAS[alg][1])
        sig_ops = rng.choice((None, frozenset(ops) - {tree[0]}))
        a, b = (parse(f"algebra {alg};{USER_DEFS}{v}(0) = {head}; {v}' = {t};")
                for v, t in (("x", render(tree, "x")), ("y", render(tree, "y", swap))))
        engine = Engine(a.algebra, a.defs)
        left, right = load_system(engine, a.system)["x"], load_system(engine, b.system)["y"]
        verdict = assert_same_search(monkeypatch, engine, left, right,
                                     rng.randint(20, 60), sig_ops)
        verdicts[type(verdict), sig_ops is None] += 1
        if isinstance(verdict, Proved):
            crossed.update(verdict.certificate.ops_used)
    return verdicts, crossed


def substitute(engine, state, theta):
    """The state with each stream variable x^(k) replaced by the k-th
    derivative of theta[x]."""
    if state.kind == "var":
        bound = theta[state.name]
        for _ in range(state.order):
            bound = engine.derivative(bound)
        return bound
    if state.kind != "app" or not state.has_vars:
        return state
    return engine.app(state.symbol, [substitute(engine, a, theta) for a in state.args])


def assert_same_search(monkeypatch, engine, left, right, budget, sig_ops, env=None):
    indexed = equiv_up_to(left, right, env=env, engine=engine, sig_ops=sig_ops,
                          budget=budget)
    with monkeypatch.context() as scan:
        scan.setattr(equivalence, "_closure_membership", scan_closure_membership)
        reference = equiv_up_to(left, right, env=env, engine=engine, sig_ops=sig_ops,
                                budget=budget)
    # the engine is shared, so the two searches build the same states:
    # equal verdicts are of one type with equal indices and reasons, and
    # equal certificates have the same pairs, discharge and ops_used
    assert indexed == reference
    if isinstance(indexed, Proved):
        assert verify_certificate(indexed)
    return indexed


class TestIndexedHypothesis:
    @pytest.mark.parametrize("make", [renamed_pair, chain_pair, rewrite_pair, linear_pair])
    @pytest.mark.parametrize("alg", sorted(UPTO_ALGEBRAS))
    def test_same_search_as_the_scan_on_systems(self, monkeypatch, make, alg):
        rng = seeded(f"{make.__name__}:{alg}")
        verdicts = collections.Counter()
        for _ in range(6):
            (ha, ra, va), (hb, rb, vb) = make(rng, alg)
            engine = Engine(parse(f"algebra {alg};").algebra)
            left = load_system(engine, parse(system_text(alg, ha, ra)).system)[va]
            right = load_system(engine, parse(system_text(alg, hb, rb)).system)[vb]
            verdicts[type(assert_same_search(monkeypatch, engine, left, right,
                                             rng.randint(20, 120), rng.choice(SIG_OPS)))] += 1
        # x + x against 2*x is never proved; every other kind decides some
        assert make is rewrite_pair or verdicts[Proved] + verdicts[Refuted]

    def test_same_search_as_the_scan_on_schemas(self, monkeypatch):
        rng = seeded(41)
        system = parse("s(0)=1; s' = s + X;").system
        verdicts = collections.Counter()
        for left, right in schema_pairs() * 3:
            engine = Engine(Q)
            env = load_system(engine, system)
            verdicts[type(assert_same_search(monkeypatch, engine, left, right,
                                             rng.randint(20, 120), rng.choice(SIG_OPS), env))] += 1
        assert verdicts[Proved] and verdicts[Unknown]

    @pytest.mark.parametrize("alg", ["Nat", "Q"])
    def test_user_definitions_of_arity_1_and_3(self, monkeypatch, alg):
        rng = seeded(f"user:{alg}")
        verdicts, crossed = op_pair_verdicts(monkeypatch, rng, alg,
                                             {"twice": 1, "mix3": 3, "+": 2, "*": 2}, False)
        assert verdicts[Proved, True] and crossed["twice"] and crossed["mix3"]

    def test_non_commutative_operations(self, monkeypatch):
        rng = seeded("minus-zip")
        ops = {"-": 2, "zip": 2, "+": 2}
        (same, _), (swapped, _) = (op_pair_verdicts(monkeypatch, rng, "Q", ops, swap)
                                   for swap in (False, True))
        assert same[Proved, True] and swapped[Refuted, True]

    @pytest.mark.parametrize("alg", ["Nat", "Q"])
    def test_crosswise_pairing_under_merge_and_shuffle(self, monkeypatch, alg):
        # the swapped copy is the same stream, and only the crosswise
        # pairing relates the two right-hand sides
        rng = seeded(f"crosswise:{alg}")
        verdicts, crossed = op_pair_verdicts(monkeypatch, rng, alg,
                                             {"merge": 2, "shuffle": 2, "+": 2}, True)
        assert verdicts[Proved, True] and crossed["merge"] and crossed["shuffle"]

    def test_a_relation_of_schema_and_ground_pairs(self):
        # the search only ever builds relations of one kind or the other,
        # so this one is made by hand and queried on pairs in its closure
        rng = seeded(47)
        engine = Engine(Q)
        system = load_system(engine, parse(
            "a(0)=1; a' = a + X; b(0)=2; b' = b*b; c(0)=0; c' = a - b;").system)
        ground = [system["a"], system["b"], system["c"], engine.derivative(system["a"]),
                  engine.lit(1), engine.app("X", ())]
        variables = [engine.var("u"), engine.var("v"), engine.var("u", 1)]

        def term(depth, atoms):
            if depth == 0 or rng.random() < 0.3:
                return rng.choice(atoms)
            symbol, arity = rng.choice(
                (("+", 2), ("*", 2), ("-", 2), ("zip", 2), ("shuffle", 2), ("-", 1)))
            return engine.app(symbol, [term(depth - 1, atoms) for _ in range(arity)])

        def generalize(state):
            # some subterm of the state replaced by u or v
            if rng.random() < 0.4:
                return rng.choice(variables[:2])
            if state.kind == "app" and state.args:
                args = list(state.args)
                at = rng.randrange(len(args))
                args[at] = generalize(args[at])
                return engine.app(state.symbol, args)
            return state

        kinds = collections.Counter()
        for _ in range(400):
            relation = _Relation()
            for _ in range(rng.randint(1, 6)):
                atoms = ground + variables if rng.random() < 0.5 else ground
                a, b = term(1, atoms), term(1, atoms)
                if rng.random() < 0.3:
                    # a schema of the next pair, ahead of it
                    relation.append((generalize(a), generalize(b)))
                relation.append((a, b))

            def query(depth):
                # a context over shared states, with relation pairs or
                # instances of them at some of its holes
                if depth == 0 or rng.random() < 0.3:
                    roll = rng.random()
                    if roll < 0.5:
                        a, b = rng.choice(relation.pairs)
                        theta = {"u": rng.choice(ground), "v": rng.choice(ground)}
                        return substitute(engine, a, theta), substitute(engine, b, theta)
                    if roll < 0.8:
                        shared = rng.choice(ground)
                        return shared, shared
                    return term(1, ground), term(1, ground)
                symbol = rng.choice(("+", "*", "-", "zip", "shuffle"))
                (a, b), (c, d) = query(depth - 1), query(depth - 1)
                if symbol in COMMUTATIVE_OPS and rng.random() < 0.5:
                    return engine.app(symbol, (a, c)), engine.app(symbol, (d, b))
                return engine.app(symbol, (a, c)), engine.app(symbol, (b, d))

            for _ in range(5):
                pair = query(3)
                sig_ops = rng.choice(SIG_OPS + (frozenset({"-", "zip", "shuffle"}),))
                indexed_used, scan_used = set(), set()
                derivation = _closure_membership(engine, pair, relation, sig_ops,
                                                 indexed_used)
                assert derivation == scan_closure_membership(engine, pair, relation,
                                                             sig_ops, scan_used)
                assert indexed_used == scan_used
                kinds[derivation[0] if derivation else None] += 1
                if derivation and derivation[0] == "hyp":
                    schema = any(s.has_vars for s in derivation[1])
                    kinds["schema" if schema else "ground"] += 1
                    if schema and derivation[1] != pair and pair in relation.pairs:
                        kinds["schema before ground"] += 1
        assert all(kinds[k] for k in ("refl", "hyp", "cong", None, "schema", "ground",
                                      "schema before ground"))

    def test_an_earlier_schema_pair_is_named_before_a_ground_one(self):
        # (u, v) is an instance of any pair, so it matches the ground pair
        # (c, d) as well; the derivation names whichever comes first
        engine = Engine(Q)
        system = load_system(engine, parse("c(0)=1; c' = c; d(0)=1; d' = d;").system)
        ground = (system["c"], system["d"])
        schema = (engine.var("u"), engine.var("v"))
        for order in ((schema, ground), (ground, schema)):
            relation = _Relation()
            for pair in order:
                relation.append(pair)
            for closure in (_closure_membership, scan_closure_membership):
                assert closure(engine, ground, relation, None, set()) == ("hyp", order[0])
        # a later ground pair is found past schemas that do not match it
        relation = _Relation()
        for pair in ((engine.var("u"), system["c"]), ground):
            relation.append(pair)
        assert _closure_membership(engine, ground, relation, None, set()) == ("hyp", ground)


# ---------------------------------------------------------------------------
# The closure's skipped calls, and the verifier's memo


def closure_fixture():
    """An engine with four unknown streams a, b, c, d and X."""
    engine = Engine(Q)
    states = load_system(engine, parse(
        "a(0)=1; a' = a; b(0)=2; b' = b; c(0)=0; c' = c; d(0)=3; d' = d;").system)
    return engine, states, engine.app("X", ())


def assert_same_closure(engine, pair, pairs, sig_ops=None):
    """_closure_membership of pair against the scan reference: the same
    derivation and the same operations in `used`."""
    relation = _Relation()
    for p in pairs:
        relation.append(p)
    used, scan_used = set(), set()
    derivation = _closure_membership(engine, pair, relation, sig_ops, used)
    assert derivation == scan_closure_membership(engine, pair, relation, sig_ops, scan_used)
    assert used == scan_used
    return derivation, used


class TestClosurePrefilter:
    def test_a_schema_pair_relates_states_of_different_symbols(self):
        # (s + X, t * X) is an instance of (u + X, w): with schema pairs
        # present the call on it is made
        engine, s, x = closure_fixture()
        a_x, b_x = engine.app("+", (s["a"], x)), engine.app("*", (s["b"], x))
        schema = (engine.app("+", (engine.var("u"), x)), engine.var("w"))
        pair = (engine.app("zip", (a_x, s["c"])), engine.app("zip", (b_x, s["c"])))
        assert assert_same_closure(engine, pair, [schema]) == (
            ("cong", "zip", (("hyp", schema), ("refl", s["c"]))), {"zip"})
        assert assert_same_closure(engine, pair, []) == (None, set())

    def test_a_ground_hypothesis_relates_states_of_different_symbols(self):
        engine, s, x = closure_fixture()
        a_x, b_x = engine.app("+", (s["a"], x)), engine.app("*", (s["b"], x))
        pair = (engine.app("-", (s["c"], a_x)), engine.app("-", (s["c"], b_x)))
        assert assert_same_closure(engine, pair, [(a_x, b_x)]) == (
            ("cong", "-", (("refl", s["c"]), ("hyp", (a_x, b_x)))), {"-"})
        # the crosswise pairing of + meets the hypothesis too
        pair = (engine.app("+", (a_x, s["c"])), engine.app("+", (s["c"], b_x)))
        assert assert_same_closure(engine, pair, [(a_x, b_x)]) == (
            ("cong", "+", (("hyp", (a_x, b_x)), ("refl", s["c"]))), {"+"})
        assert assert_same_closure(engine, pair, [(b_x, a_x)]) == (None, set())

    def test_unary_and_binary_minus_are_different_operations(self):
        # -a and a - b share the symbol - and the argument a: pairing their
        # arguments as far as the shorter list goes would relate them
        engine, s, _ = closure_fixture()
        for a, b in ((s["a"], s["b"]), (engine.var("u"), engine.var("w"))):
            pair = (engine.app("-", (a,)), engine.app("-", (a, b)))
            for sig_ops in (None, frozenset({"-"})):
                assert assert_same_closure(engine, pair, [], sig_ops) == (None, set())
                assert assert_same_closure(engine, pair[::-1], [], sig_ops) == (None, set())
        minus = OpApp("-", (Var("u"),))
        difference = OpApp("-", (Var("u"), Var("w")))
        result = equiv_up_to(minus, difference, algebra=Q, sig_ops=frozenset({"-"}))
        assert result == Unknown(2000, "symbolic heads not provably equal")

    def test_a_leaf_or_literal_against_an_application(self):
        engine, s, x = closure_fixture()
        a_x, c = engine.app("+", (s["a"], x)), s["c"]
        for atom in (engine.lit(1), engine.leaf(calculus.ones(Q))):
            hypothesis = (atom, a_x)
            straight = (engine.app("*", (atom, c)), engine.app("*", (a_x, c)))
            crosswise = (engine.app("*", (atom, c)), engine.app("*", (c, a_x)))
            for pair in (straight, crosswise):
                assert assert_same_closure(engine, pair, []) == (None, set())
                assert assert_same_closure(engine, pair, [hypothesis]) == (
                    ("cong", "*", (("hyp", hypothesis), ("refl", c))), {"*"})
            stream_variable = (engine.app("*", (engine.var("u"), c)), straight[1])
            assert assert_same_closure(engine, stream_variable, []) == (None, set())

    def test_a_failed_pairing_keeps_what_its_first_argument_used(self):
        # the straight pairing's first argument pair is proved by a
        # congruence step under *, its second pair cannot be: * stays in
        # `used`, as the scan leaves it
        engine, s, x = closure_fixture()
        left = engine.app("zip", (engine.app("*", (s["a"], s["c"])), engine.app("+", (s["a"], x))))
        right = engine.app("zip", (engine.app("*", (s["a"], s["d"])), engine.lit(1)))
        assert assert_same_closure(engine, (left, right), [(s["c"], s["d"])]) == (None, {"*"})

    def test_sig_ops_without_the_head_symbol(self):
        engine, s, x = closure_fixture()
        a_x, x_a = engine.app("+", (s["a"], x)), engine.app("+", (x, s["a"]))
        pair = (engine.app("zip", (a_x, s["c"])), engine.app("zip", (x_a, s["c"])))
        assert assert_same_closure(engine, pair, [], None)[0] is not None
        for sig_ops in (frozenset(), frozenset({"+"}), frozenset({"zip"}), frozenset({"*"})):
            assert assert_same_closure(engine, pair, [], sig_ops) == (None, set())
        # a ground hypothesis still holds where no congruence step may go
        assert assert_same_closure(engine, pair, [(a_x, x_a)], frozenset({"zip"})) == (
            ("cong", "zip", (("hyp", (a_x, x_a)), ("refl", s["c"]))), {"zip"})

    @pytest.mark.parametrize("alg", sorted(UPTO_ALGEBRAS))
    def test_random_pairs_without_schemas(self, alg):
        # ground relations over a pool of shared states, queried on
        # contexts with relation pairs, equal states and unrelated pairs
        # at their holes, so that many argument pairs differ in symbols
        rng = seeded(f"prefilter:{alg}")
        engine = Engine(parse(f"algebra {alg};").algebra)
        system = load_system(engine, parse(system_text(
            alg, {"p": "1", "q": "0"}, {"p": "p + X", "q": "q*p"})).system)
        atoms = [system["p"], system["q"], engine.app("X", ()), engine.lit(1),
                 engine.leaf(calculus.ones(engine.algebra))]

        def term(depth):
            if depth == 0 or rng.random() < 0.3:
                return rng.choice(atoms)
            symbol, arity = rng.choice(
                (("+", 2), ("*", 2), ("zip", 2), ("shuffle", 2), ("-", 1)))
            args = [term(depth - 1) for _ in range(arity)]
            return engine.app(symbol, args)

        def query(depth, pairs):
            if depth == 0 or rng.random() < 0.3:
                roll = rng.random()
                if roll < 0.4 and pairs:
                    return rng.choice(pairs)
                if roll < 0.7:
                    shared = term(1)
                    return shared, shared
                return term(1), term(1)
            symbol = rng.choice(("+", "*", "-", "zip", "shuffle"))
            (a, b), (c, d) = query(depth - 1, pairs), query(depth - 1, pairs)
            if symbol in COMMUTATIVE_OPS and rng.random() < 0.5:
                return engine.app(symbol, (a, c)), engine.app(symbol, (d, b))
            return engine.app(symbol, (a, c)), engine.app(symbol, (b, d))

        kinds = collections.Counter()
        for _ in range(300):
            pairs = [(term(2), term(2)) for _ in range(rng.randint(0, 4))]
            derivation, _ = assert_same_closure(engine, query(3, pairs), pairs,
                                                rng.choice(SIG_OPS))
            kinds[derivation[0] if derivation else None] += 1
        assert all(kinds[k] for k in ("refl", "hyp", "cong", None))


class TestVerifierMemo:
    def test_a_shared_dag_is_checked_once_per_pair(self, monkeypatch):
        # t_k = t_(k-1) + t_(k-1) over a proved relation: without a memo,
        # each pairing of + re-checks t_(k-1) on every path to it, 2^k
        # times over
        engine, s, _ = closure_fixture()
        left, other = s["a"], s["c"]
        right = load_system(engine, parse("e(0)=1; e' = e;").system)["e"]
        cert = equiv_up_to(left, right, engine=engine).certificate
        assert cert.pairs == [(left, right)]
        matches = collections.Counter()

        def counted(engine, pattern, state, theta):
            matches[pattern.sid, state.sid] += 1
            return _match(engine, pattern, state, theta)

        monkeypatch.setattr(equivalence, "_match", counted)
        for root_right, held in ((right, True), (other, False)):
            tall_left, tall_right = left, root_right
            for _ in range(12):
                tall_left = engine.app("+", (tall_left, tall_left))
                tall_right = engine.app("+", (tall_right, tall_right))
            matches.clear()
            assert verify_up_to_certificate(replace(cert, roots=(tall_left, tall_right))) is held
            assert max(matches.values()) <= 2


class TestPartialOperations:
    """No congruence step crosses an operation whose streams the algebra
    cannot compute: `-` without negation here."""

    @staticmethod
    def alternating(name):
        # s'' = -s, entered twice, the second copy as s#b and s#1#b
        alg = get_algebra(name)
        engine = Engine(alg)
        system = parse("s(0) = 0; s'(0) = 1; s'' = -s;", algebra=alg).system
        left = load_system(engine, system)
        right = load_system(engine, system, {"s": "s#b", "s#1": "s#1#b"})
        pairs = [(left["s"], right["s"]), (left["s#1"], right["s#1"])]
        return engine, pairs

    def test_the_verifier_refuses_a_step_over_minus_without_negation(self):
        # the relation closes by crossing - : (-s, -s#b) on the pair (s, s#b)
        for name, held in (("Z", True), ("Nat", False)):
            engine, pairs = self.alternating(name)
            cert = equivalence.UpToCertificate(engine, pairs[0], pairs, None, None)
            assert verify_up_to_certificate(cert) is held, name
            assert verify_up_to_certificate(replace(cert, sig_ops=frozenset("+-*"))) is held

    def test_the_search_computes_the_stream_instead(self):
        engine, pairs = self.alternating("Z")
        assert isinstance(equiv_up_to(*pairs[0], engine=engine), Proved)
        engine, pairs = self.alternating("Nat")
        for sig_ops in (None, frozenset("+-*")):
            with pytest.raises(UnsupportedOp, match="Nat has no negation"):
                equiv_up_to(*pairs[0], engine=engine, sig_ops=sig_ops)


def side(text, var):
    """A side of `decide`: a parsed spec, one of its unknowns and a file name."""
    return parse(text), var, "spec.sde"


class TestDecide:
    """`decide` picks the route by the class of the two systems, and each
    Proved certificate renders the lines `equiv` prints after Proved."""

    FIG1 = "x0(0) = 0; x0' = x1; x1(0) = 1; x1' = x2; x2(0) = 0; x2' = x1;"

    def test_closed_forms(self):
        result = decide(side(self.FIG1, "x0"), side(self.FIG1, "x2"), None, 64, 10_000)
        assert isinstance(result.certificate, RationalCertificate)
        assert result.certificate.render() == ["closed form: (X)/(1 - X^2)"]
        assert verify_certificate(result)
        # a refutation is equiv_rational's, from the same closed forms
        spec = parse(self.FIG1)
        forms = [closed_form(spec, var) for var in ("x0", "x1")]
        assert decide(side(self.FIG1, "x0"), side(self.FIG1, "x1"), None, 64,
                      10_000) == equiv_rational(*forms) == Refuted(0, 0, 1)

    def test_a_scan_refutation_keeps_its_index_and_elements(self):
        # over Z the route is the engine; its scan finds 1 != 2 at index 1
        text = "algebra Z; x(0) = 1; x' = x; y(0) = 1; y' = 2*y;"
        engine = Engine(get_algebra("Z"))
        states = load_system(engine, parse(text).system)
        scan = bounded_eq(engine.behaviour(states["x"]), engine.behaviour(states["y"]), 64)
        assert isinstance(scan, Differ)
        assert decide(side(text, "x"), side(text, "y"), None, 64, 10_000) == Refuted(
            scan.index, scan.left, scan.right) == Refuted(1, 1, 2)

    @pytest.mark.parametrize("text,var,header", [
        ("algebra Z; s(0) = 0; s'(0) = 1; s'' = -s;", "s", "stream calculus"),
        # the Hamming numbers (corpus/hamming.sde)
        ("g(0) = 1; g' = merge(2*g, merge(3*g, 5*g));", "g", "user signature"),
    ])
    def test_the_up_to_header(self, text, var, header):
        result = decide(side(text, var), side(text, var), None, 64, 10_000)
        lines = result.certificate.render()
        assert lines[0] == f"certificate (bisimulation-up-to, {header}):"
        assert lines[1] == f"  {var}  ~  {var}#b"
        assert len(lines) == len(result.certificate.pairs) + 1
        assert all(line.startswith("  ") and "  ~  " in line for line in lines[1:])
        assert verify_certificate(result)

    def test_an_unknown_keeps_its_reason(self):
        # equal streams, but no congruence step may cross an operation
        left = side("s(0) = 1; s' = s + s;", "s")
        right = side("x(0) = 1; x' = 2*x;", "x")
        assert decide(left, right, "", 0, 30) == Unknown(30, "state depth exceeded")

    def test_closed_form_reads_the_format_off_the_spec(self):
        # Catalan is context-free: refused by its format, before its
        # right-hand sides are read as a linear system
        with pytest.raises(UnsupportedOp, match="closed forms need a linear system, "
                                                 "got context-free"):
            closed_form(parse("algebra Q; s(0) = 1; s' = s*s;"), "s")

    def test_a_missing_unknown_names_its_file(self):
        text = "algebra Z; x(0) = 1; x' = x;"
        for left, right, message in (
                (("x", "a.sde"), ("nope", "b.sde"), "'nope' in b.sde"),
                (("nope", "a.sde"), ("x", "b.sde"), "'nope' in a.sde")):
            with pytest.raises(SpecError, match=f"^no variable {message}$"):
                decide((parse(text), *left), (parse(text), *right), None, 64, 10_000)
        with pytest.raises(SpecError, match="^no variable 'x' in defs.sde$"):
            decide((parse("algebra Z; def f(a) { out = a(0); deriv = f(a'); }"), "x",
                    "defs.sde"), (parse(text), "x", "b.sde"), None, 64, 10_000)

    def test_different_algebras_come_before_a_missing_unknown(self):
        with pytest.raises(UnsupportedOp, match="different algebras"):
            decide(side("algebra Z; x(0) = 1; x' = x;", "nope"),
                   side("algebra Q; x(0) = 1; x' = x;", "nope"), None, 64, 10_000)

    def test_conflicting_definitions_come_before_a_bad_up_to_name(self):
        text = "algebra Z; def f(a) { out = a(0); deriv = f(a'); } x(0) = 1; x' = f(x);"
        other = text.replace("out = a(0)", "out = a(0) + a(0)")
        with pytest.raises(SpecError, match="conflicting definitions of 'f'"):
            decide(side(text, "x"), side(other, "x"), "nosuch", 64, 10_000)
        with pytest.raises(UsageError, match="'nosuch' is no operation"):
            decide(side(text, "x"), side(text, "x"), "nosuch", 64, 10_000)


def matched(result):
    """Whether a Proved result comes from the match of the two systems'
    right-hand sides: its discharge is the hypothesis of the roots (the
    search's is so only where each root is its own derivative)."""
    cert = result.certificate
    return isinstance(cert, equivalence.UpToCertificate) and cert.discharge == ("hyp",
                                                                               cert.roots)


def relation(result):
    return [line.strip() for line in result.certificate.render()[1:]]


class TestMatch:
    """Before the up-to search, `equiv_up_to` matches the right-hand sides of
    the two systems `decide` loaded, and proves a pair whose unknowns they
    relate; anything else goes to the search unchanged."""

    CATALAN = "algebra Q; s(0) = 1; s' = s*s;"

    def test_a_relation_that_is_no_bijection(self):
        # s' = s*s against c' = c*d, d' = d*d: s is related to c and to d
        other = "algebra Q; c(0) = 1; c' = c*d; d(0) = 1; d' = d*d;"
        result = decide(side(self.CATALAN, "s"), side(other, "c"), None, 0, 10_000)
        assert matched(result) and verify_certificate(result)
        assert relation(result) == ["s  ~  c", "s  ~  d"]
        assert result.certificate.ops_used == {"*"}

    def test_a_deeper_head_mismatch_refutes_at_the_same_index(self):
        # the roots' heads agree, the unknowns their right-hand sides name
        # do not: the match fails there and the scan or the search refutes
        left = side("algebra Z; x(0) = 0; x' = y; y(0) = 1; y' = y;", "x")
        right = side("algebra Z; u(0) = 0; u' = v; v(0) = 2; v' = v;", "u")
        for prefix in (64, 0):
            assert decide(left, right, None, prefix, 10_000) == Refuted(1, 1, 2)

    def test_minus_outside_up_to_is_not_crossed(self):
        # the zero stream, renamed; --up-to +,*,X leaves - to no one
        rhs = "2*{0} + {0} - 1*{0}*{0}"
        left = side(f"algebra Q; x(0) = 0; x' = {rhs.format('x')};", "x")
        right = side(f"algebra Q; y(0) = 0; y' = {rhs.format('y')};", "y")
        assert decide(left, right, "+,*,X", 0, 100) == Unknown(100, "state depth exceeded")
        result = decide(left, right, None, 0, 100)
        assert matched(result) and verify_certificate(result)
        assert result.certificate.ops_used == {"+", "-", "*"}

    def test_minus_without_negation_is_not_crossed(self):
        # s'' = -s: over Nat the search computes the stream and fails
        engine, pairs = TestPartialOperations.alternating("Nat")
        with pytest.raises(UnsupportedOp, match="Nat has no negation"):
            equiv_up_to(*pairs[0], engine=engine, unknowns={*pairs[0], *pairs[1]})
        engine, pairs = TestPartialOperations.alternating("Z")
        result = equiv_up_to(*pairs[0], engine=engine, unknowns={*pairs[0], *pairs[1]})
        assert matched(result) and verify_certificate(result)

    def test_partial_operations_and_definitions_keep_the_search(self):
        # sqrt, inv and a user definition are never crossed
        sqrt = side("algebra Q; x(0) = 0; x' = sqrt(x);", "x")
        result = decide(sqrt, sqrt, None, 0, 10_000)
        assert not matched(result) and verify_certificate(result)
        assert result.certificate.render()[0] == (
            "certificate (bisimulation-up-to, user signature):")
        inv = side("algebra Q; x(0) = 1; x' = x + inv(x);", "x")
        with pytest.raises(BudgetExhausted, match=r"at index 30\)"):
            decide(inv, inv, None, 64, 10_000)
        result = decide(inv, inv, None, 0, 10_000)
        assert not matched(result) and verify_certificate(result)
        defined = side("algebra Z; def f(a) { out = a(0); deriv = f(a'); } "
                       "x(0) = 1; x' = f(x);", "x")
        result = decide(defined, defined, None, 0, 10_000)
        assert not matched(result) and verify_certificate(result)

    def test_swapped_summands_are_proved_by_the_search(self):
        left = side("algebra Z; x(0) = 1; x' = x + X;", "x")
        right = side("algebra Z; u(0) = 1; u' = X + u;", "u")
        result = decide(left, right, None, 64, 10_000)
        assert not matched(result) and verify_certificate(result)
        assert relation(result) == ["x  ~  u"]

    def test_catalan_against_itself_is_matched_after_the_scan(self, monkeypatch):
        # the default scan still runs out of budget first
        catalan = side(self.CATALAN, "s")
        with pytest.raises(BudgetExhausted, match=r"at index 30\)"):
            decide(catalan, catalan, None, 64, 10_000)
        monkeypatch.setattr(equivalence, "_closure_membership", None)  # no search
        result = decide(catalan, catalan, None, 0, 10_000)
        assert matched(result) and verify_certificate(result)
        assert relation(result) == ["s  ~  s#b"]

    def test_without_unknowns_only_the_search_runs(self, monkeypatch):
        # the three-unknown Bool sums against a copy with permuted names
        text = ("algebra Bool; a0(0) = 1; a0' = a0 + a1 + a2; a1(0) = 0; a1' = a1 + a2;"
                " a2(0) = 1; a2' = a0 + a1 + a2;")
        names = {"a0": "b2", "a1": "b0", "a2": "b1"}
        engine = Engine(get_algebra("Bool"))
        system = parse(text).system
        left, right = load_system(engine, system), load_system(engine, system, names)
        roots = left["a0"], right["a0"]
        assert_same_search(monkeypatch, engine, *roots, 10, None)
        assert equiv_up_to(*roots, engine=engine, budget=10) == Unknown(10)
        result = equiv_up_to(*roots, engine=engine, budget=10,
                             unknowns={*left.values(), *right.values()})
        assert matched(result) and verify_certificate(result)
        assert relation(result) == ["a0  ~  b2", "a1  ~  b0", "a2  ~  b1"]

    @pytest.mark.parametrize("make", [renamed_pair, chain_pair, rewrite_pair, linear_pair])
    @pytest.mark.parametrize("alg", sorted(UPTO_ALGEBRAS))
    def test_a_match_relates_equal_streams(self, make, alg):
        # renamed copies always match, the rewritten and delayed ones never
        rng = seeded(f"match:{make.__name__}:{alg}")
        for _ in range(6):
            (ha, ra, va), (hb, rb, vb) = make(rng, alg)
            engine = Engine(parse(f"algebra {alg};").algebra)
            left = load_system(engine, parse(system_text(alg, ha, ra)).system)
            right = load_system(engine, parse(system_text(alg, hb, rb)).system)
            roots = left[va], right[vb]
            cert = equivalence._match_systems(engine, *roots, {*left.values(),
                                                                *right.values()}, None)
            assert (cert is not None) is (make in (renamed_pair, linear_pair))
            if cert is not None:
                assert verify_certificate(Proved(cert))
                assert isinstance(bounded_eq(*map(engine.behaviour, roots), 20), Equal)
