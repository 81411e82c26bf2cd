"""Coefficient-array solving against the GSOS engine.

The engine (gsos.solve_system_with_defs) is the reference: on seeded
random builtin-only systems and on the corpus's context-free and
general systems, series.solve_by_coefficients must give the same
prefix, the same NonProductive index and the same error.
"""

import math
import pathlib

import pytest

from conftest import seeded
from streamcalc import gsos, parse, series
from streamcalc.algebra import get_algebra
from streamcalc.errors import (
    BudgetExhausted,
    NonProductive,
    StreamCalcError,
    UnsupportedOp,
)
from streamcalc.speclang import Const, EquationSystem, HLit, OpApp, Var
from streamcalc.stream import take

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

    def __init__(self, rng, alg, top_op):
        self.rng, self.alg = rng, alg
        self.ops = sorted(allowed_ops(alg))
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
        assert by_coefficients(case.system, case.target, DEPTH) == want, case.system
        answered += want[0] == "ok"
    assert used == allowed_ops(alg)
    assert answered >= SYSTEMS_PER_ALGEBRA // 2


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


def test_zero_factors_are_demanded():
    # X(0) = 0, but X * even(s) still demands even(s)(1) = s(2)
    sys_ = parse("s(0) = 1; s' = X*even(s) + s*s;").system
    assert by_coefficients(sys_, "s", 5) == ("NonProductive", 2)


# Over an algebra without negation, inv's derivative and delta's
# construction fail.  The engine takes each derivative after the output,
# never derives the argument a merge did not advance, and derives what
# even/odd/delta/ddx read at once; each spec tells one of these apart.
DERIVATIVE_ERRORS = [
    "algebra Bool; x(0) = 1; x' = inv(X*inv(1 + X*x));",
    "algebra Tropical; x(0) = 1; x' = merge(x, inv(x));",
    "algebra Nat; x(0) = 1; x' = merge(x, 5 + inv(1 + X*x));",
    "algebra Nat; x(0) = 1; x' = merge(x, 5 + y); y(0) = 1; y' = delta(y);",
    "algebra Nat; x(0) = 1; x' = even(y) + odd(x); y(0) = 2; y' = delta(y);",
]


@pytest.mark.parametrize("text", DERIVATIVE_ERRORS)
def test_derivative_errors_match_engine(text):
    sys_ = parse(text).system
    assert by_coefficients(sys_, "x", 8) == by_engine(sys_, "x", 8)


def test_errors_wait_for_demand():
    sys_ = parse("algebra Nat; s(0) = 1; s' = s - s;").system
    streams = series.solve_by_coefficients(sys_)
    assert take(streams["s"], 1) == [1]
    assert observe(streams, "s", 2) == ("UnsupportedOp", "Nat has no negation")


def test_budget_counts_coefficients():
    # s and s*s compute one coefficient per element, except s*s for the
    # head; the returned stream pays one step per element read
    sys_ = parse("algebra Nat; s(0) = 1; s' = s*s;").system
    n = 30
    assert len(take(series.solve_by_coefficients(sys_)["s"], n, 3 * n - 1)) == n
    with pytest.raises(BudgetExhausted):
        take(series.solve_by_coefficients(sys_)["s"], n, 3 * n - 2)


def test_user_definitions_are_refused():
    spec = parse("def twice(a) { out = a(0) + a(0); deriv = twice(a'); }"
                 "s(0) = 1; s' = twice(s);")
    with pytest.raises(UnsupportedOp):
        series.solve_by_coefficients(spec.system)
