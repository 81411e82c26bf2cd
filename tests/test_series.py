"""Coefficient-array solving against independent references.

The GSOS engine (gsos.solve_system_with_defs) is the reference for
ordinary systems: on seeded random builtin-only systems and on the
corpus's context-free and general systems, series.solve_by_coefficients
must give the same prefix, the same NonProductive index and the same
error.  Over an algebra without negation the engine's derivatives can
fail before any coefficient does, so there the engine's prefix must be
a prefix of the coefficients, and where both stop at the same element
with different errors, the engine's must be a derivative's.  Linear
systems are also checked against the coefficient-vector unfolding
(solvers.solve_linear_coinductive), simple systems against their
automaton unfolding (solvers.solve_simple), even-odd systems against
bbin indexing (automatic.value_at), and delta and ddx systems against
their index formulas, computed here from the definitions, and a Q
system with fractional coefficients under *, shuffle and inv against
the definitions of those operations, at 300 elements.  Seeded
systems of every format are checked against the references of the
format speclang.classify gives them.  Linear plans, solved as one vector
recurrence, are checked against the engine at 200 elements, delta and
ddx systems through tail systems with the same solutions.
"""

import copy
import inspect
import math
import pathlib
import re
import sys
from fractions import Fraction
from functools import reduce

import pytest

from conftest import seeded
from streamcalc import gsos, parse, series, solvers
from streamcalc.algebra import INF, get_algebra
from streamcalc.automatic import value_at
from streamcalc.errors import (
    BudgetExhausted,
    NonProductive,
    NotZeroConsistent,
    StreamCalcError,
    UnsupportedOp,
)
from streamcalc.speclang import (
    Const, EquationSystem, HLit, Kind, OpApp, Sum, Var, as_polynomial, classify,
)
from test_automatic import _random_automaton
from test_cli import NAMING_SPECS, invoke
from streamcalc.stream import BudgetScope, Node, at, take

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

ARITY = {"+": 2, "-": 2, "*": 2, "shuffle": 2, "hadamard": 2, "zip": 2,
         "merge": 2, "X": 0, "neg": 1, "inv": 1, "sqrt": 1,
         "even": 1, "odd": 1, "delta": 1, "ddx": 1}
NONCAUSAL = ("even", "odd", "delta", "ddx")
ALGEBRAS = ("Nat", "Z", "Q", "F2", "Fp(5)", "Bool", "Tropical")
SYSTEMS_PER_ALGEBRA = 16
DEPTH = 20


def allowed_ops(alg):
    """The builtins that can run past the head over this algebra."""
    ops = {"+", "*", "X", "shuffle", "hadamard", "zip", "even", "odd", "ddx"}
    if alg.neg is not None:
        # inv's tail needs a negation, and so does sqrt's through inv
        ops |= {"-", "neg", "delta", "inv"}
    if alg.ordered:
        ops.add("merge")
    if alg.kind == "field" and alg.characteristic != 2:
        ops.add("sqrt")  # sqrt(x)' divides by 2 * sqrt(x)(0)
    return ops


class _RandomSystem:
    """x-unknowns over all allowed operations; u-unknowns causal only, so
    that the non-causal operations applied to them stay productive."""

    def __init__(self, rng, alg, top_op, ops=None):
        self.rng, self.alg = rng, alg
        self.ops = sorted(ops or allowed_ops(alg))
        self.used = set()
        base = [f"u{i}" for i in range(rng.randint(0, 1))]
        names = [f"x{i}" for i in range(rng.randint(1, 2))]
        causal = [o for o in self.ops if o not in NONCAUSAL]
        heads, rhs = {}, {}
        for u in base:
            heads[u] = alg.sample(rng)
            rhs[u] = self.term(causal, base, 2, [])
        for x in names:
            heads[x] = alg.sample(rng)
            rhs[x] = self.term(self.ops, names + base, 3, base, top_op)
            top_op = None
        self.system = EquationSystem(alg, tuple(names + base), heads, rhs=rhs)
        self.target = names[0]

    def term(self, ops, names, depth, base, op=None):
        rng, alg = self.rng, self.alg
        if op is None and (depth == 0 or rng.random() < 0.3):
            pick = rng.random()
            if pick < 0.6:
                return Var(rng.choice(names))
            if pick < 0.8:
                return OpApp("X", ())
            return Const(HLit(alg.sample(rng)))
        op = op or rng.choice(ops)
        self.used.add(op)
        if op == "X":
            return OpApp("X", ())
        if op in NONCAUSAL:
            pool = base if base and rng.random() < 0.85 else names
            return OpApp(op, (Var(rng.choice(pool)),))
        if op in ("inv", "sqrt"):
            # [c] + X*t has head c: mostly a unit, or its square for sqrt
            c = alg.one if rng.random() < 0.8 else alg.sample(rng)
            if op == "sqrt" and rng.random() < 0.8:
                c = alg.mul(c, c)
            shifted = OpApp("*", (OpApp("X", ()), self.term(ops, names, depth - 1, base)))
            return OpApp(op, (OpApp("+", (Const(HLit(c)), shifted)),))
        args = tuple(self.term(ops, names, depth - 1, base) for _ in range(ARITY[op]))
        return OpApp("-" if op == "neg" else op, args)


def observe(streams, var, n, budget=300_000):
    """A prefix, or how its observation failed."""
    try:
        return ("ok", take(streams[var], n, budget))
    except NonProductive as err:
        return ("NonProductive", err.index)
    except BudgetExhausted:
        return ("budget",)
    except StreamCalcError as err:
        return (type(err).__name__, str(err))


def by_engine(sys_, var, n):
    return observe(gsos.solve_system_with_defs(sys_), var, n)


def by_coefficients(sys_, var, n):
    return observe(series.solve_by_coefficients(sys_), var, n)


def unbounded(sys_):
    """A copy of the system whose plan bounds no product: coefficient n
    of a product reads both factors up to n, as the engine's expansion
    does, so series answers exactly as the engine."""
    plan = sys_.plan
    steps = tuple((kind, series._UNBOUNDED if issubclass(kind, series._Product) else payload,
                   children) for kind, payload, children in plan.steps)
    copied = copy.copy(sys_)
    copied.plan = plan._replace(steps=steps)
    return copied


def extends(got, base):
    """Whether `got`, an observe_each of a system's own plan, can be
    `base`, that of its unbounded plan.  With the bounds a product reads
    a subset of the coefficients it reads without them, each by the
    same formula, so it prints base's elements, and maybe more; where it
    stops at the same element, the first error it meets may be another,
    one in a coefficient that the unbounded product did not reach."""
    if got == base:
        return True
    n = len(base[0])
    return (base[1] is not None and got[0][:n] == base[0]
            and (len(got[0]) > n or got[1] is not None))


def bounded_extends(sys_, var, n):
    """extends() of the system's own plan over its unbounded plan."""
    base = observe_each(series.solve_by_coefficients(unbounded(sys_))[var], n)
    return extends(observe_each(series.solve_by_coefficients(sys_)[var], n), base)


@pytest.mark.parametrize("alg_name", ALGEBRAS)
def test_random_systems_match_engine(alg_name):
    alg = get_algebra(alg_name)
    rng = seeded(f"series:{alg_name}")
    ops = sorted(allowed_ops(alg))
    used, answered = set(), 0
    for i in range(SYSTEMS_PER_ALGEBRA):
        # each allowed operation heads the first right-hand side once
        case = _RandomSystem(rng, alg, ops[i % len(ops)])
        used |= case.used
        want = by_engine(case.system, case.target, DEPTH)
        assert want[0] != "budget"
        assert by_coefficients(unbounded(case.system), case.target, DEPTH) == want, case.system
        assert bounded_extends(case.system, case.target, DEPTH), case.system
        answered += want[0] == "ok"
    assert used == allowed_ops(alg)
    assert answered >= SYSTEMS_PER_ALGEBRA // 2


SEMIRINGS = ("Nat", "Bool", "Tropical")
NEGATING_OPS = {"-", "neg", "delta", "inv"}


@pytest.mark.parametrize("alg_name", SEMIRINGS)
def test_random_semiring_systems_extend_the_engine(alg_name):
    # inv's derivative and delta's right-hand side fail in the engine,
    # after an element's output and before the next one, where no
    # coefficient needs a negation yet
    alg = get_algebra(alg_name)
    rng = seeded(f"series-semiring:{alg_name}")
    ops = allowed_ops(alg) | NEGATING_OPS
    derivative_errors = {f"{alg.name} has no negation", f"delta needs a ring, not {alg.name}"}
    used, outcomes = set(), {}
    for i in range(100):
        case = _RandomSystem(rng, alg, sorted(ops)[i % len(ops)], ops)
        used |= case.used
        want = observe_each(gsos.solve_system_with_defs(case.system)[case.target], DEPTH)
        got = observe_each(series.solve_by_coefficients(unbounded(case.system))[case.target],
                           DEPTH)
        assert got[0][:len(want[0])] == want[0], case.system
        if got == want:
            outcome = "same"
        elif len(got[0]) > len(want[0]):
            outcome = "further"
        else:
            # both stop at the same element: the engine's derivative
            # failed before the coefficient met another error
            outcome = "other error"
            assert want[1][1] in derivative_errors, case.system
        assert bounded_extends(case.system, case.target, DEPTH), case.system
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert used == ops
    assert outcomes["same"] >= 50 and outcomes["further"] >= 20


PREFIX_CF_SPECS = (
    ("catalan.sde", "s"), ("schroder.sde", "s"), ("hamming.sde", "g"),
    ("factorials.sde", "p"), ("a000831.sde", "s"), ("thue_morse_cf.sde", "t"),
)


@pytest.mark.parametrize("name,var", PREFIX_CF_SPECS)
def test_corpus_prefixes_match_engine(name, var):
    sys_ = parse((CORPUS / name).read_text()).system
    want = by_engine(sys_, var, 40)
    assert want[0] == "ok"
    assert by_coefficients(sys_, var, 40) == want


def test_catalan_200_by_binomials():
    sys_ = parse((CORPUS / "catalan.sde").read_text()).system
    got = take(series.solve_by_coefficients(sys_)["s"], 200)
    assert got == [math.comb(2 * n, n) // (n + 1) for n in range(200)]


def _by_definitions(sys_, n):
    """The first n coefficients of every unknown of a +, -, *, X, shuffle,
    inv system over Q, each operation's coefficient straight from its
    definition in plain Fractions, memoised per subterm and index."""
    xs = {v: [Fraction(sys_.heads[v])] for v in sys_.variables}
    memo = {}

    def coef(term, k):
        if isinstance(term, Var):
            return xs[term.name][k]
        if isinstance(term, Const):
            return Fraction(term.value.value) if k == 0 else Fraction(0)
        if isinstance(term, Sum):
            return sum((-coef(t, k) if neg else coef(t, k) for t, neg in term.summands),
                       Fraction(0))
        key = (term, k)
        if key not in memo:
            op, args = term.symbol, term.args
            if op == "X":
                value = Fraction(k == 1)
            elif op == "-" and len(args) == 1:
                value = -coef(args[0], k)
            elif op in "+-":
                value = coef(args[0], k) + (coef(args[1], k) if op == "+"
                                            else -coef(args[1], k))
            elif op == "*":
                value = sum(coef(args[0], i) * coef(args[1], k - i) for i in range(k + 1))
            elif op == "shuffle":
                value = sum(math.comb(k, i) * coef(args[0], i) * coef(args[1], k - i)
                            for i in range(k + 1))
            else:
                assert op == "inv"
                head = 1 / coef(args[0], 0)
                value = head if k == 0 else -head * sum(
                    coef(args[0], i) * coef(term, k - i) for i in range(1, k + 1))
            memo[key] = value
        return memo[key]

    for k in range(n - 1):
        nxt = {v: coef(sys_.rhs[v], k) for v in sys_.variables}
        for v in sys_.variables:
            xs[v].append(nxt[v])
    return xs


def test_fractional_convolutions_match_engine():
    # heads and coefficients with denominators 2 and 3 under *, shuffle
    # and inv: the Q kernel sums over the lcm of the denominators.  The
    # engine takes about 0.3 s per unknown for 30 elements and its cost
    # grows about cubically, so the 300 elements of `solve -n 300` are
    # checked against the definitions of the operations
    path = CORPUS / "q_fractions.sde"
    sys_ = parse(path.read_text()).system
    for var in sys_.variables:
        want = by_engine(sys_, var, 30)
        assert want[0] == "ok" and all(c.denominator > 1 for c in want[1])
        assert by_coefficients(sys_, var, 30) == want
    reference = _by_definitions(sys_, 300)
    for var in sys_.variables:
        code, out, err = invoke("solve", f"{path}#{var}", "-n", "300")
        assert (code, err) == (0, "")
        assert out == ", ".join(map(str, reference[var])) + "\n"


@pytest.mark.parametrize("alg_name", ["Q", "Nat", "F2", "Fp(3)", "Fp(7)", "Bool"])
def test_shuffle_row_is_pascals_in_integers(alg_name):
    # the binomials are integers, reduced mod p in characteristic p
    alg = get_algebra(alg_name)
    node = series.operation(alg, "shuffle", (series.Constant(alg, alg.one),
                                             series.operation(alg, "X", ())))
    p = alg.characteristic
    for n in range(40):
        node.get(n)
        row = [math.comb(n, i) % p if p else math.comb(n, i) for i in range(n + 1)]
        assert node.row == row and all(type(c) is int for c in node.row)
    # 1 shuffled with X is X
    assert node.coeffs == [alg.zero, alg.one] + [alg.zero] * 38


def test_a_zero_factor_skips_its_partners_top_coefficient():
    # X(0) = 0, so (X * even(s))(n) reads even(s)(n-1) = s(2n-2), not
    # even(s)(n): s(4) is the first coefficient that demands itself
    sys_ = parse("s(0) = 1; s' = X*even(s) + s*s;").system
    assert by_coefficients(sys_, "s", 4) == ("ok", [1, 1, 3, 10])
    assert by_coefficients(sys_, "s", 5) == ("NonProductive", 4)


# Over an algebra without negation, inv's derivative and delta's
# construction fail in the engine; a coefficient fails only when it
# needs the negation.  On these specs both stop at the same point, with
# another error before the negation is needed, or both answer because
# merge never reads the inv or delta.
DERIVATIVE_ERRORS = [
    "algebra Bool; x(0) = 1; x' = inv(X*inv(1 + X*x));",
    "algebra Tropical; x(0) = 1; x' = merge(x, inv(x));",
    "algebra Nat; x(0) = 1; x' = merge(x, 5 + inv(1 + X*x));",
    "algebra Nat; x(0) = 1; x' = merge(x, 5 + y); y(0) = 1; y' = delta(y);",
]


@pytest.mark.parametrize("text", DERIVATIVE_ERRORS)
def test_derivative_errors_match_engine(text):
    sys_ = parse(text).system
    assert by_coefficients(sys_, "x", 8) == by_engine(sys_, "x", 8)


def test_trap_before_a_derivative_error():
    # the engine fails on y's delta first; no coefficient of y needs a
    # negation before x(1) demands itself through odd(x)(0)
    sys_ = parse("algebra Nat; x(0) = 1; x' = even(y) + odd(x); "
                 "y(0) = 2; y' = delta(y);").system
    assert by_engine(sys_, "x", 8) == ("UnsupportedOp", "delta needs a ring, not Nat")
    assert by_coefficients(sys_, "x", 8) == ("NonProductive", 1)


def test_errors_wait_for_demand():
    sys_ = parse("algebra Nat; s(0) = 1; s' = s - s;").system
    streams = series.solve_by_coefficients(sys_)
    assert take(streams["s"], 1) == [1]
    assert observe(streams, "s", 2) == ("UnsupportedOp", "Nat has no negation")


def test_budget_counts_coefficients():
    # s and s*s compute one coefficient per element, except s*s for the
    # head; the returned stream is a position on s's node and pays nothing
    # of its own
    sys_ = parse("algebra Nat; s(0) = 1; s' = s*s;").system
    n = 30
    assert len(take(series.solve_by_coefficients(sys_)["s"], n, 2 * n - 1)) == n
    with pytest.raises(BudgetExhausted):
        take(series.solve_by_coefficients(sys_)["s"], n, 2 * n - 2)


@pytest.mark.parametrize("alg_name", ALGEBRAS)
def test_operation_names_match_engine(alg_name):
    # wherever both run the specs whose engine answers once hung on its
    # operation names, the engine and series answer alike
    compared = 0
    for text in NAMING_SPECS.values():
        spec = parse(text, algebra=get_algebra(alg_name))
        try:
            by_series = series.solve_by_coefficients(spec.system)
        except UnsupportedOp:
            continue  # an application of a user definition
        by_defs = gsos.solve_system_with_defs(spec.system, spec.defs)
        for var in spec.system.variables:
            assert observe(by_defs, var, 30) == observe(by_series, var, 30), (text, var)
            compared += 1
    assert compared == 4


def test_user_definitions_are_refused():
    spec = parse("def twice(a) { out = a(0) + a(0); deriv = twice(a'); }"
                 "s(0) = 1; s' = twice(s);")
    with pytest.raises(UnsupportedOp):
        series.solve_by_coefficients(spec.system)


# ---------------------------------------------------------------------------
# Simple systems against the automaton unfolding, even-odd systems
# against bbin indexing


@pytest.mark.parametrize("name", ["alt.sde", "fig1.sde", "ones.sde"])
def test_simple_corpus_matches_automaton_unfolding(name):
    sys_ = parse((CORPUS / name).read_text()).system
    assert classify(sys_) is Kind.SIMPLE
    want = solvers.solve_simple(sys_)
    got = series.solve_by_coefficients(sys_)
    for v in sys_.variables:
        assert take(got[v], 200) == take(want[v], 200)


def test_even_odd_matches_bbin_indexing():
    rng = seeded(57)
    for _ in range(12):
        aut = _random_automaton(rng, rng.randint(1, 8))
        text = "algebra F2;\n" + "".join(
            f"{q}(0) = {aut.outputs[q]}; even({q}) = {aut.d0[q]}; odd({q}) = {aut.d1[q]};\n"
            for q in aut.states)
        sys_ = parse(text).system
        assert classify(sys_) is Kind.EVEN_ODD
        streams = series.solve_by_coefficients(sys_)
        for q in aut.states:
            assert take(streams[q], 256) == [value_at(aut, q, n) for n in range(256)]


def test_even_odd_budget_counts_coefficients():
    # element m of tm reads odd or even target at m >> 1: tm computes
    # 2k coefficients and n k for the first 2k elements, and the
    # returned stream, a position on tm's node, pays nothing of its own
    sys_ = parse((CORPUS / "thue_morse_evenodd.sde").read_text()).system
    k = 16
    tm = series.solve_by_coefficients(sys_)["tm"]
    assert len(take(tm, 2 * k, 3 * k)) == 2 * k
    with pytest.raises(BudgetExhausted):
        take(series.solve_by_coefficients(sys_)["tm"], 2 * k, 3 * k - 1)


def test_zero_inconsistent_even_odd_is_refused():
    sys_ = parse("x(0)=0; even(x)=y; odd(x)=x; y(0)=1; even(y)=y; odd(y)=y;").system
    with pytest.raises(NotZeroConsistent, match="zero-consistency fails at 'x'"):
        series.solve_by_coefficients(sys_)


# ---------------------------------------------------------------------------
# Linear systems against the coefficient-vector unfolding


def _linear_pair(rng, alg, n):
    """A random dense linear system, as a LinearSystem and as equations."""
    names = tuple(f"v{i}" for i in range(n))
    heads = tuple(alg.sample(rng) for _ in names)
    rows = tuple(tuple(alg.sample(rng) for _ in names) for _ in names)
    rhs = {}
    for v, row in zip(names, rows):
        terms = [OpApp("*", (Const(HLit(c)), Var(w))) for c, w in zip(row, names)]
        rhs[v] = reduce(lambda a, b: OpApp("+", (a, b)), terms)
    ls = solvers.LinearSystem(alg, names, heads, rows)
    return ls, EquationSystem(alg, names, dict(zip(names, heads)), rhs=rhs)


@pytest.mark.parametrize("alg_name", ALGEBRAS)
def test_linear_systems_match_coinductive_unfolding(alg_name):
    alg = get_algebra(alg_name)
    rng = seeded(f"series-linear:{alg_name}")
    for _ in range(SYSTEMS_PER_ALGEBRA):
        ls, sys_ = _linear_pair(rng, alg, rng.randint(1, 5))
        want = solvers.solve_linear_coinductive(ls)
        got = series.solve_by_coefficients(sys_)
        for v in ls.names:
            assert take(got[v], DEPTH, 300_000) == take(want[v], DEPTH, 300_000)


# ---------------------------------------------------------------------------
# delta and ddx systems against their index formulas

def _coefficient(term, xs, n):
    """Coefficient n of a +, -, *, X term over the prefixes xs (ints or
    Fractions), straight from the definitions of the operations."""
    if isinstance(term, Var):
        return xs[term.name][n]
    if isinstance(term, Const):
        return term.value.value if n == 0 else 0
    args = term.args
    if term.symbol == "X":
        return 1 if n == 1 else 0
    if term.symbol == "+":
        return _coefficient(args[0], xs, n) + _coefficient(args[1], xs, n)
    if term.symbol == "-" and len(args) == 1:
        return -_coefficient(args[0], xs, n)
    if term.symbol == "-":
        return _coefficient(args[0], xs, n) - _coefficient(args[1], xs, n)
    assert term.symbol == "*"
    return sum(_coefficient(args[0], xs, i) * _coefficient(args[1], xs, n - i)
               for i in range(n + 1))


def _nonstd_oracle(sys_, n):
    """delta: x(k+1) = x(k) + r(k); ddx: x(k+1) = r(k) / (k+1)."""
    xs = {v: [sys_.heads[v]] for v in sys_.variables}
    for k in range(n - 1):
        r = {v: _coefficient(sys_.rhs[v], xs, k) for v in sys_.variables}
        for v in sys_.variables:
            if sys_.tail_op == "delta":
                xs[v].append(xs[v][k] + r[v])
            else:
                xs[v].append(Fraction(r[v], k + 1))
    return xs


def _random_rhs(rng, names, depth, linear):
    if linear:
        terms = [OpApp("*", (Const(HLit(rng.randint(-3, 3))), Var(v))) for v in names]
        return reduce(lambda a, b: OpApp(rng.choice("+-"), (a, b)), terms)
    if depth == 0 or rng.random() < 0.3:
        pick = rng.random()
        if pick < 0.6:
            return Var(rng.choice(names))
        return OpApp("X", ()) if pick < 0.8 else Const(HLit(rng.randint(-3, 3)))
    op = rng.choice(["+", "-", "*", "*", "neg"])
    if op == "neg":
        return OpApp("-", (_random_rhs(rng, names, depth - 1, False),))
    return OpApp(op, tuple(_random_rhs(rng, names, depth - 1, False) for _ in range(2)))


NONSTD_DEPTH = 12


@pytest.mark.parametrize("name", ["delta_powers.sde", "ddx_exp.sde"])
def test_corpus_nonstd_matches_index_formula(name):
    sys_ = parse((CORPUS / name).read_text()).system
    got = series.solve_by_coefficients(sys_)
    want = _nonstd_oracle(sys_, 30)
    assert take(got["x"], 30) == want["x"]


@pytest.mark.parametrize("tail_op,alg_name", [("delta", "Z"), ("ddx", "Q")])
@pytest.mark.parametrize("linear", [True, False], ids=["linear", "context-free"])
def test_random_nonstd_match_index_formula(tail_op, alg_name, linear):
    alg = get_algebra(alg_name)
    rng = seeded(f"series-nonstd:{tail_op}:{linear}")
    for _ in range(20):
        names = tuple(f"x{i}" for i in range(rng.randint(1, 3)))
        heads = {v: alg.coerce(rng.randint(-2, 2)) for v in names}
        rhs = {v: _random_rhs(rng, names, 3, linear) for v in names}
        sys_ = EquationSystem(alg, names, heads, tail_op=tail_op, rhs=rhs)
        want = _nonstd_oracle(sys_, NONSTD_DEPTH)
        got = series.solve_by_coefficients(sys_)
        for v in names:
            assert take(got[v], NONSTD_DEPTH, 300_000) == want[v], sys_


@pytest.mark.parametrize("text,message", [
    ("algebra Nat; x(0) = 1; delta(x) = x;", "delta systems need a ring"),
    ("algebra Z; x(0) = 1; ddx(x) = x;",
     "ddx systems need a field of characteristic 0 (division by the naturals)"),
])
def test_nonstd_capability_checks(text, message):
    sys_ = parse(text).system
    for solve in (series.solve_by_coefficients, solvers.solve_nonstd):
        with pytest.raises(UnsupportedOp, match=re.escape(message)):
            solve(sys_)


# ---------------------------------------------------------------------------
# The parser's n-ary sums against the engine's binary folding


def _random_sum(rng, alg, names, size, minus, nested=True):
    """A Sum of `size` summands: unknowns, scalar multiples, constants, X,
    products of unknowns and (once per level) a nested sum; each summand
    after the first is subtracted with probability 0.4 when `minus`."""
    parts = []
    for i in range(size):
        pick = rng.random()
        if pick < 0.4:
            t = Var(rng.choice(names))
        elif pick < 0.65:
            c, v = Const(HLit(alg.sample(rng))), Var(rng.choice(names))
            t = OpApp("*", (c, v) if rng.random() < 0.5 else (v, c))
        elif pick < 0.75:
            t = Const(HLit(alg.sample(rng)))
        elif pick < 0.85:
            t = OpApp("X", ())
        elif pick < 0.93 or not nested:
            t = OpApp("*", (Var(rng.choice(names)), Var(rng.choice(names))))
        else:
            t = _random_sum(rng, alg, names, rng.randint(2, 5), minus, nested=False)
            if rng.random() < 0.5:
                t = OpApp("*", (Var(rng.choice(names)), t))
        parts.append((t, i > 0 and minus and rng.random() < 0.4))
    return Sum(tuple(parts))


def observe_each(stream, n):
    """The elements read one at a time, and the error that stopped the
    reading as (class, message, index), or None."""
    values = []
    try:
        for _ in range(n):
            values.append(stream.head)
            stream = stream.tail
    except StreamCalcError as err:
        return values, (type(err).__name__, str(err), len(values))
    return values, None


@pytest.mark.parametrize("alg_name", ALGEBRAS)
def test_sums_match_engine_folding(alg_name):
    alg = get_algebra(alg_name)
    rng = seeded(f"series-sums:{alg_name}")
    errors, answered = set(), 0
    for i in range(12):
        names = tuple(f"x{j}" for j in range(rng.randint(1, 3)))
        heads = {v: alg.sample(rng) for v in names}
        rhs = {v: _random_sum(rng, alg, names, rng.randint(2, 60), minus=i % 2 == 1)
               for v in names}
        sys_ = EquationSystem(alg, names, heads, rhs=rhs)
        engine = gsos.solve_system_with_defs(sys_)
        nodes = series.solve_by_coefficients(sys_)
        for v in names:
            want = observe_each(engine[v], DEPTH)
            assert observe_each(nodes[v], DEPTH) == want, sys_
            if want[1] is None:
                answered += 1
            else:
                errors.add(want[1][:2])
    assert answered >= 6
    if alg.neg is None:
        assert errors == {("UnsupportedOp", f"{alg.name} has no negation")}
    else:
        assert not errors


def test_sum_hash_is_computed_once():
    inner = OpApp("*", (Const(HLit(2)), Var("s")))
    calls = []

    class Counted(Var):
        def __hash__(self):
            calls.append(self)
            return super().__hash__()

    term = Sum(((inner, False), (Counted("t"), True)))
    assert len(calls) == 1  # at construction
    nodes = {term: 1}
    assert nodes[term] == 1 and hash(term) == hash(term)
    assert len(calls) == 1
    # so is an operation's
    app = OpApp("-", (Counted("u"),))
    assert len(calls) == 2
    assert {app: 1}[app] == 1 and hash(app) == hash(OpApp("-", (Var("u"),)))
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# Linear combinations: one node for sums, negations and literal factors


def _minus(t):
    return OpApp("-", (t,))


def _random_linear(rng, alg, names, size, minus, nested=True):
    """A Sum of `size` summands: an unknown or X*unknown t alone, as
    [c]*t, t*[c] or -[c]*t, and with `minus` also as -t, -([c]*t), a
    negated literal or (once per level) a nested sum a + (b - c); each
    summand after the first is subtracted with probability 0.4 when
    `minus`."""
    parts = []
    for i in range(size):
        t = Var(rng.choice(names))
        if rng.random() < 0.2:
            t = OpApp("*", (OpApp("X", ()), t))
        c = Const(HLit(alg.sample(rng)))
        shapes = [t, OpApp("*", (c, t)), OpApp("*", (t, c)), c]
        if minus:
            shapes += [OpApp("*", (_minus(c), t)), _minus(t), _minus(OpApp("*", (c, t))),
                       _minus(c)]
            if nested:
                inner = _random_linear(rng, alg, names, rng.randint(2, 4), minus, False)
                shapes += [inner, _minus(inner)]
        parts.append((rng.choice(shapes), i > 0 and minus and rng.random() < 0.4))
    return Sum(tuple(parts))


@pytest.mark.parametrize("alg_name", ALGEBRAS)
def test_linear_combinations_match_engine(alg_name):
    # 60 elements of every unknown, the engine's own reading of each
    # negation, literal and sum the reference
    alg = get_algebra(alg_name)
    rng = seeded(f"series-linear:{alg_name}")
    errors, answered = set(), 0
    for i in range(12):
        names = tuple(f"x{j}" for j in range(rng.randint(1, 3)))
        heads = {v: alg.sample(rng) for v in names}
        rhs = {v: _random_linear(rng, alg, names, rng.randint(1, 8), minus=i % 3 != 0)
               for v in names}
        sys_ = EquationSystem(alg, names, heads, rhs=rhs)
        engine = gsos.solve_system_with_defs(sys_)
        nodes = series.solve_by_coefficients(unbounded(sys_))
        for v in names:
            want = observe_each(engine[v], 60)
            assert observe_each(nodes[v], 60) == want, sys_
            assert bounded_extends(sys_, v, 60), sys_
            if want[1] is None:
                answered += 1
            else:
                errors.add(want[1][:2])
    assert answered >= 6
    if alg.neg is None:
        assert errors == {("UnsupportedOp", f"{alg.name} has no negation")}
    else:
        assert not errors


@pytest.mark.parametrize("alg_name,c,head", [
    ("Nat", "2", 1), ("Bool", "1", True), ("Tropical", "2", Fraction(1)),
])
@pytest.mark.parametrize("rhs", ["x - {c}*y", "-{c}*x", "-x"])
def test_negation_without_a_ring_waits_for_demand(alg_name, c, head, rhs):
    # the literal -[c] is not folded without a negation: the error is
    # the one a negation node raised, at the element that needs it
    text = f"algebra {alg_name}; x(0) = 1; x' = {rhs.format(c=c)}; y(0) = 1; y' = y;"
    stream = series.solve_by_coefficients(parse(text).system)["x"]
    assert observe_each(stream, 5) == (
        [head], ("UnsupportedOp", f"{alg_name} has no negation", 1))


def test_a_system_keeps_its_plan(monkeypatch):
    # compiled once however often the system is solved; a compile that
    # raises is not kept, and the next solve compiles again
    compiled, failures = [], [UnsupportedOp("no plan")]
    original = series.compile_plan

    def compile_once(sys_):
        if failures:
            raise failures.pop()
        compiled.append(sys_)
        return original(sys_)

    monkeypatch.setattr(series, "compile_plan", compile_once)
    sys_ = parse("algebra Z; s(0) = 1; s' = 2*s + X;").system
    with pytest.raises(UnsupportedOp, match="no plan"):
        series.solve_by_coefficients(sys_)
    for _ in range(2):
        assert take(series.solve_by_coefficients(sys_)["s"], 5) == [1, 2, 5, 10, 20]
    assert compiled == [sys_]


def test_a_linear_right_hand_side_is_one_step():
    plan = series.compile_plan(parse(
        "algebra Q; x(0) = 1; x' = 2*x - 3*y + z; y(0) = 2; y' = y*5; "
        "z(0) = 0; z' = -2/3*x + -y - -(1/2);").system)
    # no Constant step is made for a fused literal
    assert [(kind.__name__, payload, children) for kind, payload, children in plan.steps] == [
        ("_Linear", (((Fraction(2), False), (Fraction(3), True), (None, False)),
                     (Fraction(2), Fraction(-3), Fraction(1))), (0, 1, 2)),
        ("_Linear", (((Fraction(5), False),), None), (1,)),
        ("Constant", (Fraction(-1, 2),), ()),
        ("_Linear", (((Fraction(-2, 3), False), (None, True), (None, True)),
                     (Fraction(-2, 3), Fraction(-1), Fraction(-1))), (0, 1, 5)),
    ]
    # -2/3*x is a scalar, not the convolution of -[2/3] and x
    for text in ("x' = -2/3*x;", "x' = x*-2/3;", "x' = -(2/3*x);", "x' = 1 - -2/3*x;"):
        steps = series.compile_plan(parse("algebra Q; x(0) = 1; " + text).system).steps
        assert [kind.__name__ for kind, _, _ in steps][-1] == "_Linear", text
        assert all(kind.__name__ != "_Mul" for kind, _, _ in steps), text
    # without a negation -[2] stays a negation under a convolution
    steps = series.compile_plan(parse("algebra Nat; x(0) = 1; x' = -2*x;").system).steps
    assert [kind.__name__ for kind, _, _ in steps] == ["Constant", "_Linear", "_Mul"]


class _Logged(Node):
    """Given coefficients, each computed one logged as (name, index)."""

    __slots__ = ("name", "values", "log")

    def __init__(self, alg, name, values, log):
        super().__init__(alg)
        self.name, self.values, self.log = name, values, log

    def compute(self, n):
        self.log.append((self.name, n))
        return self.values[n]


class _TermByTerm(Node):
    """The reference of a linear combination of (node, scalar or None,
    negated) terms: each term's coefficient demanded, multiplied by its
    scalar, negated and added, one term after the other."""

    __slots__ = ("terms",)

    def __init__(self, alg, terms):
        super().__init__(alg)
        self.terms = terms

    def compute(self, n):
        alg, total = self.alg, None
        for node, c, negated in self.terms:
            value = node.get(n)
            if c is not None:
                value = alg.mul(c, value)
            if negated:
                if alg.neg is None:
                    raise UnsupportedOp(f"{alg.name} has no negation")
                value = alg.neg(value)
            total = value if total is None else alg.add(total, value)
        return total


def _random_combination(rng, alg, names):
    """A Sum of two to five terms c*v, v*c or v, each maybe negated, at
    least one with a literal factor c, written -[c] for some c over an
    algebra with negation; and its terms as (name, scalar or None, negated)."""
    count = rng.randint(2, 5)
    scaled = {rng.randrange(count)} | {i for i in range(count) if rng.random() < 0.5}
    summands, terms = [], []
    for i in range(count):
        var, negated, c = Var(rng.choice(names)), rng.random() < 0.3, None
        term = var
        if i in scaled:
            c = alg.sample(rng)
            literal = Const(HLit(c))
            if alg.neg is not None and rng.random() < 0.3:
                literal, c = OpApp("-", (literal,)), alg.neg(c)
            term = OpApp("*", (literal, var) if rng.random() < 0.5 else (var, literal))
        summands.append((term, negated))
        terms.append((var.name, c, negated))
    return Sum(tuple(summands)), terms


def _observe_node(node, log, count, budget):
    try:
        values = take(at(node), count, budget)
    except BudgetExhausted as err:
        return ("BudgetExhausted", err.index), log
    except UnsupportedOp as err:
        return ("UnsupportedOp", str(err)), log
    return ("ok", [(type(v), v) for v in values]), log


@pytest.mark.parametrize("alg_name", ALGEBRAS)
def test_fused_combinations_match_the_term_by_term_sum(alg_name):
    # a combination of two or more terms with a literal factor is one
    # alg.dot per coefficient; against the sum written out term by term it
    # gives the same values of the same types (the True/False singletons,
    # Tropical's inf), refuses a negated term over an algebra without
    # negation after the same demands, and stops at the same budget index
    alg = get_algebra(alg_name)
    rng = seeded(f"series-fused:{alg_name}")
    names = ("y0", "y1", "y2")
    count = 12
    seen = set()

    def cases():
        for _ in range(60):
            term, terms = _random_combination(rng, alg, names)
            values = {v: [alg.sample(rng) for _ in range(count)] for v in names}
            if alg_name == "Tropical" and rng.random() < 0.3:
                values["y0"] = [INF] * count
            yield term, terms, values, rng.choice((None, rng.randrange(1, 3 * count)))
        if alg_name == "Tropical":
            # [2]*y0 + y1 + y2 over inf: a fused sum that is inf
            two = Const(HLit(alg.coerce(2)))
            term = Sum(((OpApp("*", (two, Var("y0"))), False), (Var("y1"), False),
                        (Var("y2"), False)))
            terms = [("y0", alg.coerce(2), False), ("y1", None, False), ("y2", None, False)]
            yield term, terms, {v: [INF] * count for v in names}, None

    for term, terms, values, budget in cases():
        compiler = series._Compiler(alg, names)
        compiler.slot(term)
        (kind, payload, children), = compiler.steps
        assert kind is series._Linear
        fused = payload[1] is not None
        # from two terms only over Q with a scalar that is no integer
        fusable = len(terms) >= (
            2 if alg_name == "Q" and any(type(c) is Fraction for _, c, _ in terms) else 3)
        assert fused == (fusable and (alg.neg is not None
                                      or not any(neg for _, _, neg in terms))), terms
        log = []
        leaves = [_Logged(alg, v, values[v], log) for v in names]
        got = _observe_node(kind(alg, *payload, *(leaves[i] for i in children)), log,
                            count, budget)
        log = []
        leaves = {v: _Logged(alg, v, values[v], log) for v in names}
        reference = _TermByTerm(alg, tuple((leaves[v], c, neg) for v, c, neg in terms))
        want = _observe_node(reference, log, count, budget)
        assert got == want, (term, values, budget)
        (outcome, detail), _ = got
        if outcome == "ok":
            last = detail[-1][1]
            seen.add(("ok", fused, last is True or last is False, last == INF))
        else:
            seen.add((outcome, fused))
    assert ("BudgetExhausted", True) in seen
    assert any(s[:2] == ("ok", True) for s in seen)
    if alg.neg is None:
        assert ("UnsupportedOp", False) in seen
    if alg_name == "Bool":
        assert ("ok", True, True, False) in seen
    if alg_name == "Tropical":
        assert ("ok", True, False, True) in seen


def test_fused_combinations_over_q_sum_mixed_denominators():
    sys_ = parse("algebra Q; x(0) = 0; x' = 1/2*a - a*2/3 + -5/7*b + b; "
                 "a(0) = 1/3; a' = a*3/4; b(0) = 2/5; b' = -1/6*b;").system
    steps = series.compile_plan(sys_).steps
    assert steps[0][1][1] == (Fraction(1, 2), Fraction(-2, 3), Fraction(-5, 7), Fraction(1))
    got = take(series.solve_by_coefficients(sys_)["x"], 8)
    a = [Fraction(1, 3) * Fraction(3, 4) ** n for n in range(7)]
    b = [Fraction(2, 5) * Fraction(-1, 6) ** n for n in range(7)]
    want = [Fraction(0)] + [Fraction(1, 2) * p - Fraction(2, 3) * p - Fraction(5, 7) * q + q
                            for p, q in zip(a, b)]
    # Q holds an integral value as an int and any other as a Fraction
    assert got == want and all(type(v) is (int if v.denominator == 1 else Fraction)
                               for v in got)


def test_coerce_errors_come_left_to_right():
    # the first literal written that the algebra refuses is the one reported
    for rhs, bad in (("[1/2]*(x + 1/3)", 2), ("(x + 1/3)*[1/2]", 3),
                     ("-[1/2]*x + 1/3", 2), ("x*-[1/2] - 1/3*x", 2)):
        sys_ = parse(f"algebra Q; x(0) = 1; x' = {rhs};").system
        sys_ = EquationSystem(get_algebra("Z"), sys_.variables, {"x": 1}, rhs=sys_.rhs)
        with pytest.raises(StreamCalcError, match=re.escape(f"Fraction(1, {bad})")):
            series.compile_plan(sys_)


def test_a_literal_factor_charges_nothing():
    # a linear system of one unknown costs one step per element, and the
    # scalars, the negations and -[2/3] add none
    sys_ = parse("algebra Q; s(0) = 1; s' = -2/3*s + 5*s - s*4 + -s;").system
    n = 30
    assert len(take(series.solve_by_coefficients(sys_)["s"], n, n)) == n
    with pytest.raises(BudgetExhausted):
        take(series.solve_by_coefficients(sys_)["s"], n, n - 1)


# ---------------------------------------------------------------------------
# Formats read from the polynomial form, against each format's reference

FORMAT_ALGEBRAS = ("Q", "Z", "Nat", "Bool", "Tropical", "F2", "Fp(3)")
FORMAT_DEPTH = 30


def _zero_term(rng, alg, t):
    """A term whose polynomial form is zero, made of copies of t."""
    shapes = [OpApp("*", (Const(HLit(alg.zero)), t))]
    if alg.neg is not None:
        shapes.append(Sum(((t, False), (t, True))))
    if alg.characteristic:
        shapes.append(Sum(((t, False),) * alg.characteristic))
    return rng.choice(shapes)


def _format_term(rng, alg, names, depth):
    """A term of unknowns, X, constants, +, -, *, unary minus and now and
    then a shuffle product or a zip, which have no polynomial form;
    some add a nonlinear part that cancels."""
    pick = rng.random()
    if depth == 0 or pick < 0.35:
        leaf = rng.random()
        if leaf < 0.75:
            return Var(rng.choice(names))
        return Const(HLit(alg.sample(rng))) if leaf < 0.9 else OpApp("X", ())

    def sub():
        return _format_term(rng, alg, names, depth - 1)

    if pick < 0.55:
        c, t = Const(HLit(alg.sample(rng))), sub()
        return OpApp("*", (c, t) if rng.random() < 0.5 else (t, c))
    if pick < 0.7:
        minus = alg.neg is not None
        return Sum(tuple((sub(), i > 0 and minus and rng.random() < 0.4)
                         for i in range(rng.randint(2, 3))))
    if pick < 0.8:
        product = OpApp("*", (Var(rng.choice(names)), Var(rng.choice(names))))
        return Sum(((sub(), False), (_zero_term(rng, alg, product), False)))
    if pick < 0.88:
        return OpApp("*", (sub(), sub()))
    if pick < 0.94 and alg.neg is not None:
        return OpApp("-", (sub(),))
    return OpApp(rng.choice(("shuffle", "zip")), (sub(), sub()))


def _powers_of_m(ls, n):
    """x^(k)(0) = (M^k o)_x for k < n, by iterating the matrix."""
    alg, vector, rows = ls.algebra, list(ls.o), []
    for _ in range(n):
        rows.append(vector)
        vector = [reduce(alg.add, map(alg.mul, row, vector), alg.zero) for row in ls.M]
    return {v: [row[i] for row in rows] for i, v in enumerate(ls.names)}


@pytest.mark.parametrize("alg_name", FORMAT_ALGEBRAS)
def test_formats_match_their_references(alg_name):
    alg = get_algebra(alg_name)
    rng = seeded(f"series-formats:{alg_name}")
    seen = []
    for _ in range(40):
        names = tuple(f"x{j}" for j in range(rng.randint(1, 3)))
        heads = {v: alg.sample(rng) for v in names}
        depth = rng.choice((0, 1, 1, 2))
        rhs = {v: _format_term(rng, alg, names, depth) for v in names}
        sys_ = EquationSystem(alg, names, heads, rhs=rhs)
        kind = classify(sys_)
        seen.append(kind)
        got = series.solve_by_coefficients(sys_)
        got = {v: take(got[v], FORMAT_DEPTH) for v in names}
        if kind is Kind.GENERAL:
            assert any(as_polynomial(t, alg) is None for t in rhs.values())
            continue
        references = [solvers.solve_context_free(solvers.context_free_system_of(sys_))]
        if kind in (Kind.SIMPLE, Kind.LINEAR):
            assert got == _powers_of_m(solvers.linear_system_of(sys_), FORMAT_DEPTH), sys_
        if kind is Kind.SIMPLE:
            references.append(solvers.solve_simple(sys_))
        for streams in references:
            assert {v: take(streams[v], FORMAT_DEPTH) for v in names} == got, sys_
    assert set(seen) == {Kind.SIMPLE, Kind.LINEAR, Kind.CONTEXT_FREE, Kind.GENERAL}, seen


# ---------------------------------------------------------------------------
# Products bounded by valuation and degree, and the schedule


def test_a_zero_factor_lets_a_difference_answer():
    # (X*s)(n+1) = s(n), so delta(X*s)(n) = s(n) - s(n-1) and
    # ddx(X*X*s)(n) = (n+1) * s(n-1) read no coefficient of s past n
    n = 12
    s = [1]
    for k in range(n - 1):
        s.append((k == 1) + s[k] - (s[k - 1] if k else 0))
    assert s[:8] == [1, 1, 1, 0, -1, -1, 0, 1]
    t = [1]
    for k in range(n - 1):
        t.append((k == 1) + (k + 1) * (t[k - 1] if k else 0))
    for rhs, want in (("X + delta(X*s)", s), ("X + ddx(X*X*s)", t)):
        text = f"algebra Q; s(0) = 1; s' = {rhs};"
        sys_ = parse(text).system
        assert not sys_.plan.scheduled
        assert take(series.solve_by_coefficients(sys_)["s"], n) == want, rhs


def test_valuations_and_degree_bounds():
    plan = series.compile_plan(parse(
        "algebra Z; s(0) = 1; s' = X*s + s*X + X*X*s + (1 + X)*s + s*s + shuffle(X, X)"
        " + hadamard(X*X, s) + 0*s*s;").system)
    products = [(kind.__name__, payload) for kind, payload, _ in plan.steps
                if issubclass(kind, series._Product)]
    inf = math.inf
    assert products == [
        ("_Mul", (1, 1, 0, inf)), ("_Mul", (0, inf, 1, 1)), ("_Mul", (1, 1, 1, 1)),
        ("_Mul", (2, 2, 0, inf)), ("_Mul", (0, 1, 0, inf)), ("_Mul", (0, inf, 0, inf)),
        ("_Shuffle", (1, 1, 1, 1)), ("_Mul", (inf, -inf, 0, inf))]
    s = take(series.solve_by_coefficients(parse(
        "algebra Z; s(0) = 1; s' = X*s;").system)["s"], 6)
    assert s == [1, 0, 1, 0, 1, 0]


def _scheduled_term(rng, alg, names, depth):
    """A term of unknowns, X and literals under literal factors, X
    factors, squares, products, shuffles, hadamard, sums and, over an
    algebra with negation, differences and inv([c] + X*t)."""
    if depth == 0 or rng.random() < 0.25:
        pick = rng.random()
        if pick < 0.6:
            return Var(rng.choice(names))
        return OpApp("X", ()) if pick < 0.8 else Const(HLit(alg.sample(rng)))

    def sub():
        return _scheduled_term(rng, alg, names, depth - 1)

    shapes = ["scaled", "x", "square", "*", "shuffle", "shuffle square", "hadamard", "+"]
    if alg.neg is not None:
        shapes += ["-", "inv"]
    shape = rng.choice(shapes)
    if shape == "scaled":
        c, t = Const(HLit(alg.sample(rng))), sub()
        return OpApp("*", (c, t) if rng.random() < 0.5 else (t, c))
    if shape == "x":
        x, t = OpApp("X", ()), sub()
        return OpApp("*", (x, t) if rng.random() < 0.5 else (t, x))
    if shape in ("square", "shuffle square"):
        t = sub()
        return OpApp("*" if shape == "square" else "shuffle", (t, t))
    if shape == "inv":
        # [c] + X*t has head c: mostly a unit, now and then zero
        c = rng.choice([alg.one] * 6 + [alg.zero, alg.sample(rng)])
        shifted = OpApp("*", (OpApp("X", ()), sub()))
        return OpApp("inv", (OpApp("+", (Const(HLit(c)), shifted)),))
    return OpApp(shape, (sub(), sub()))


def _scheduled_system(rng, alg):
    names = tuple(f"x{j}" for j in range(rng.randint(1, 3)))
    heads = {v: alg.sample(rng) for v in names}
    rhs = {v: _scheduled_term(rng, alg, names, rng.randint(1, 3)) for v in names}
    sys_ = EquationSystem(alg, names, heads, rhs=rhs)
    assert sys_.plan.scheduled, sys_
    return sys_


@pytest.mark.parametrize("alg_name", ALGEBRAS)
def test_scheduled_plans_match_engine(alg_name):
    # the engine is the reference of every scheduled plan: with its
    # products unbounded, the same elements and the same error class,
    # message and index; with the plan's bounds, those or more elements
    alg = get_algebra(alg_name)
    rng = seeded(f"series-scheduled:{alg_name}")
    outcomes, same = set(), 0
    for _ in range(30):
        sys_ = _scheduled_system(rng, alg)
        engine = gsos.solve_system_with_defs(sys_)
        base = series.solve_by_coefficients(unbounded(sys_))
        nodes = series.solve_by_coefficients(sys_)
        for v in sys_.variables:
            want = observe_each(engine[v], 14)
            assert observe_each(base[v], 14) == want, sys_
            got = observe_each(nodes[v], 14)
            assert extends(got, want), sys_
            same += got == want
            outcomes.add(want[1] and want[1][0])
    assert None in outcomes and same >= 40
    if alg.neg is not None:
        assert "HeadNotInvertible" in outcomes


def _observations(sys_, plan, order, budgets):
    """Each observation's outcome, and after each element every node's
    number of coefficients and the budget left."""
    nodes = series._instantiate(plan, sys_.algebra, series._successor(sys_, None), None)
    seen = []
    for (var, n), budget in zip(order, budgets):
        node = nodes[sys_.variables.index(var)]
        with BudgetScope(budget) as scope:
            try:
                for i in range(n):
                    node.get(i)
                    seen.append(([len(x.coeffs) for x in nodes], scope.frame[0]))
            except StreamCalcError as err:
                seen.append((type(err).__name__, str(err)))
        seen.append([x.coeffs[:] for x in nodes])
    return seen


@pytest.mark.parametrize("alg_name", ALGEBRAS)
def test_the_schedule_computes_what_demand_does(alg_name):
    # a scheduled plan against the same plan demand-driven, over three
    # observations of its unknowns in turn with budgets that run out:
    # the same coefficients after every element, the same budget left
    # and the same errors
    alg = get_algebra(alg_name)
    rng = seeded(f"series-schedule:{alg_name}")
    # integers and rationals grow fast under products
    length = 12 if alg_name in ("Z", "Q", "Nat", "Tropical") else 50
    inputs = []
    for _ in range(60):
        sys_ = _scheduled_system(rng, alg)
        order = [(rng.choice(sys_.variables), rng.randint(1, length)) for _ in range(3)]
        budgets = [rng.choice((None, None, rng.randrange(1, 20 * length))) for _ in order]
        inputs.append((sys_, order, budgets))
    # and x of one system up to element 7 under each budget up to the 50
    # steps that takes: x's settle is 4, so many run out inside an element
    # that the schedule computes where the budget covers it whole
    fixed = parse(f"algebra {alg_name}; x(0) = 1; x' = x * y + X * x; "
                  "y(0) = 1; y' = y * y + x;").system
    inputs += [(fixed, [("x", 8)], [budget]) for budget in range(1, 51)]
    for sys_, order, budgets in inputs:
        plan = sys_.plan
        assert (_observations(sys_, plan, order, budgets)
                == _observations(sys_, plan._replace(scheduled=False), order, budgets)), sys_


def test_a_scheduled_plan_takes_no_frame_per_node():
    # s' = s*s*...*s nests 399 products: demand-driven, an element would
    # recurse through every one of them; scheduled, it is read below a
    # limit that leaves 200 frames, and the limit is not raised
    sys_ = parse("algebra Fp(3); s(0) = 1; s' = " + "*".join(["s"] * 400) + ";").system
    assert sys_.plan.scheduled  # compiled at the default limit
    nodes = series._instantiate(sys_.plan._replace(scheduled=False), sys_.algebra, None, None)
    before = sys.getrecursionlimit()
    depth = len(inspect.stack(0))
    try:
        sys.setrecursionlimit(depth + 2000)
        want = take(at(nodes[0]), 30, 10**6)
        assert len(set(want)) > 1
        sys.setrecursionlimit(depth + 200)
        assert take(series.solve_by_coefficients(sys_)["s"], 30, 10**6) == want
        assert sys.getrecursionlimit() == depth + 200
    finally:
        sys.setrecursionlimit(before)


# ---------------------------------------------------------------------------
# Linear plans as one vector recurrence, against the GSOS engine

LINEAR_ROUTE_DEPTH = 200


def _vector_term(rng, alg, names, depth):
    """A linear combination of unknowns: sums, literal factors on either
    side and nested combinations such as 2*(x + y) - y, and over an
    algebra with negation differences, negations and negated literals."""
    if depth == 0 or rng.random() < 0.3:
        return Var(rng.choice(names))

    def sub():
        return _vector_term(rng, alg, names, depth - 1)

    def literal():
        c = Const(HLit(alg.sample(rng)))
        return _minus(c) if alg.neg is not None and rng.random() < 0.3 else c

    shapes = ["+", "scaled", "nested"]
    if alg.neg is not None:
        shapes += ["-", "neg"]
    shape = rng.choice(shapes)
    if shape == "scaled":
        c, t = literal(), sub()
        return OpApp("*", (c, t) if rng.random() < 0.5 else (t, c))
    if shape == "nested":
        inner = OpApp("*", (literal(), OpApp("+", (sub(), sub()))))
        return OpApp("-" if alg.neg is not None else "+", (inner, sub()))
    if shape == "neg":
        return _minus(sub())
    return OpApp(shape, (sub(), sub()))


def _vector_system(rng, alg, tail_op="tail"):
    """A seeded linear system, two of whose unknowns, where it has two,
    share one right-hand side."""
    names = tuple(f"x{j}" for j in range(rng.randint(1, 4)))
    heads = {v: alg.sample(rng) for v in names}
    rhs = {v: _vector_term(rng, alg, names, rng.randint(1, 3)) for v in names}
    if len(names) > 1:
        rhs[names[1]] = rhs[names[0]]
    return EquationSystem(alg, names, heads, tail_op=tail_op, rhs=rhs)


def _engine_reference(sys_, n):
    """Each unknown's first n elements by the GSOS engine: a delta system
    as x' = x + r, and a ddx system as the tail system y' = r, whose
    solution is y(k) = k! * x(k)."""
    alg = sys_.algebra
    rhs = sys_.rhs
    if sys_.tail_op == "delta":
        rhs = {v: OpApp("+", (Var(v), t)) for v, t in rhs.items()}
    tail = EquationSystem(alg, sys_.variables, sys_.heads, rhs=rhs)
    engine = gsos.solve_system_with_defs(tail)
    want = {v: take(engine[v], n, 10**7) for v in sys_.variables}
    if sys_.tail_op == "ddx":
        want = {v: [alg.mul(y, alg.inv(alg.coerce(math.factorial(k))))
                    for k, y in enumerate(ys)] for v, ys in want.items()}
    return want


def _typed(values):
    return [(type(v), v) for v in values]


@pytest.mark.parametrize("alg_name", ALGEBRAS)
def test_linear_plans_match_engine(alg_name):
    # 200 elements of every unknown of seeded linear systems solved as one
    # vector recurrence: the engine's values, and over Q its types too,
    # an int exactly where a value is integral; delta systems over every
    # ring, ddx systems over Q, and second-order equations
    alg = get_algebra(alg_name)
    rng = seeded(f"series-vectors:{alg_name}")
    systems = [_vector_system(rng, alg) for _ in range(6)]
    if alg.neg is not None:
        systems += [_vector_system(rng, alg, "delta") for _ in range(3)]
    if alg_name == "Q":
        systems += [_vector_system(rng, alg, "ddx") for _ in range(3)]
    two, three = ("1", "1") if alg_name == "Bool" else ("2", "3")
    minus = f"- {two}*t" if alg.neg is not None else f"+ t*{two}"
    systems.append(parse(f"algebra {alg_name}; s(0) = 1; s'(0) = 0; "
                         f"s'' = {two}*(s' + t) {minus} + s; "
                         f"t(0) = 1; t' = {three}*s + t;").system)
    for sys_ in systems:
        assert sys_.plan.linear, sys_
        want = _engine_reference(sys_, LINEAR_ROUTE_DEPTH)
        got = series.solve_by_coefficients(sys_)
        for v in sys_.variables:
            values = take(got[v], LINEAR_ROUTE_DEPTH, 10**7)
            assert _typed(values) == _typed(want[v]), (sys_, v)


def test_a_vector_is_computed_whole_or_not_at_all():
    # fib has two unknowns: each index costs two steps, charged when the
    # first unknown reaches it; five steps cover two vectors, and the
    # third is neither computed nor charged
    sys_ = parse((CORPUS / "fib.sde").read_text()).system
    assert sys_.plan.linear and len(sys_.variables) == 2
    streams = series.solve_by_coefficients(sys_)
    scope = BudgetScope(5)
    with pytest.raises(BudgetExhausted) as caught:
        take(streams["s"], 3, scope)
    assert caught.value.index == 2 and scope.frame[0] == 1
    assert len(streams["s"].node.vectors.vectors) == 2
    # the other unknown reads the vectors computed, for nothing
    assert take(streams[sys_.variables[1]], 2, scope) == [1, 1] and scope.frame[0] == 1
    scope = BudgetScope(2)
    assert take(streams["s"], 3, scope) == [0, 1, 1] and scope.frame[0] == 0
    assert take(streams[sys_.variables[1]], 1, scope) == [1] and scope.frame[0] == 0


def test_rational_vectors_keep_their_integers_small(tmp_path):
    # x = y = 1 while each step doubles the denominator: the common
    # content is divided out whenever the denominator's size has doubled
    text = ("algebra Q; x(0) = 1; x' = 1/2*x + 1/2*y; "
            "y(0) = 1; y' = 1/2*x + 1/2*y;")
    x = series.solve_by_coefficients(parse(text).system)["x"]
    assert take(x, 2000, 10**6) == [1] * 2000
    vectors = x.node.vectors
    assert max(vectors.dens) <= 2 and max(map(abs, vectors.vectors[-1])) <= 2
    path = tmp_path / "halves.sde"
    path.write_text(text + "\n")
    assert invoke("at", "20000", f"{path}#x", "--budget", "100000000") == (0, "1\n", "")


# ---------------------------------------------------------------------------
# Definitions that are builtins run as the builtins, against the engine
# running their clauses

# every builtin rule a definition can spell out (a head expression has no
# sqrt), under other operation and parameter names
BUILTIN_RULES = """
def add(p, q) { out = p(0) + q(0); deriv = add(p', q'); }
def sub(p, q) { out = p(0) - q(0); deriv = sub(p', q'); }
def opp(p) { out = -p(0); deriv = opp(p'); }
def mul(p, q) { out = p(0) * q(0); deriv = add(mul(p', q), mul([p(0)], q')); }
def rec(p) { out = inv(p(0)); deriv = mul([-inv(p(0))], mul(p', rec(p))); }
def ex() { out = 0; deriv = 1; }
def shuf(p, q) { out = p(0) * q(0); deriv = shuf(p', q) + shuf(p, q'); }
def had(p, q) { out = p(0) * q(0); deriv = had(p', q'); }
def zp(p, q) { out = p(0); deriv = zp(q, p'); }
def mrg(p, q) {
  when p(0) < q(0) => { out = p(0); deriv = mrg(p', q); }
  when p(0) = q(0) => { out = p(0); deriv = mrg(p', q'); }
  when p(0) > q(0) => { out = q(0); deriv = mrg(p, q'); }
}
"""
RULE_NAMES = {"add": "+", "sub": "-", "opp": "-", "mul": "*", "rec": "inv", "ex": "X",
              "shuf": "shuffle", "had": "hadamard", "zp": "zip", "mrg": "merge"}
# each definition applied in a system, and in a standalone term over its
# unknowns u and v, in shapes whose 200 elements the engine computes in
# well under a second
RULES_SYSTEM = """
u(0) = 1; u' = add(u, ex);
v(0) = 1; v' = zp(v, ex);
b(0) = 0; b' = sub(b, opp(v));
a(0) = 1; a' = mul(a, add([1], ex));
c(0) = 1; c' = rec(add([1], ex));
d(0) = 1; d' = shuf(d, ex);
e(0) = 1; e' = had(e, u);
m(0) = 1; m' = mrg(add(ex, u), mul(ex, m));
"""
RULES_TERMS = ("add(u, v)", "sub(u, v)", "opp(v)", "mul(add(ex, [1]), u)", "rec(opp(v'))",
               "ex", "shuf(u, add(ex, [1]))", "had(u, v)", "zp(u, v)", "mrg(u, v)")


@pytest.mark.parametrize("alg_name", ALGEBRAS)
def test_builtin_definitions_match_the_engine(alg_name):
    """200 elements of every unknown and term, or the same error, as the
    engine gives running the definitions' own clauses."""
    from streamcalc.speclang import parse_term

    alg = get_algebra(alg_name)
    spec = parse(BUILTIN_RULES + RULES_SYSTEM, algebra=alg)
    # over Tropical, 0 is no zero of the algebra, and `ex` no X
    assert spec.builtins == {name: symbol for name, symbol in RULE_NAMES.items()
                             if name != "ex" or alg_name != "Tropical"}
    engines = []

    def engine():
        engines.append(gsos.Engine(alg, spec.defs))
        return engines[-1]

    reference = gsos.solve_system_with_defs(spec.system, spec.defs)
    streams = series.solve_by_coefficients(spec.system, engine=engine)
    answered = 0
    for var in spec.system.variables:
        want = observe(reference, var, 200, 10**7)
        assert observe(streams, var, 200, 10**7) == want, var
        answered += want[0] == "ok"
    env = {v: reference[v] for v in ("u", "v")}
    for text in RULES_TERMS:
        term = parse_term(text, spec)
        want = observe({"t": gsos.eval_term(term, env, spec.defs, alg)}, "t", 200, 10**7)
        got = series.evaluate(term, alg, spec.system, spec.builtins, engine)
        assert observe({"t": got}, "t", 200, 10**7) == want, text
        answered += want[0] == "ok"
    # the engine runs only `ex` over Tropical
    assert bool(engines) == (alg_name == "Tropical")
    # the rest stop at the same element with the same error: no negation
    # over the semirings, no order over F2 and Fp(5)
    assert answered == {"Nat": 13, "Bool": 11, "Tropical": 11, "F2": 16, "Fp(5)": 16,
                        "Z": 18, "Q": 18}[alg_name]
