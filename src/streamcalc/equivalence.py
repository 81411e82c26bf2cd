"""Deciding and semi-deciding stream equality.

Three procedures, by decidability:

* rational streams: canonical forms make equality a cross-multiplication
  check -- never Unknown;
* finite stream automata: one walk of the two runs decides
  bisimilarity, refutations come with the first disagreeing index;
* terms over a GSOS signature: a budgeted bisimulation-up-to search.
  The candidate relation grows along the (deterministic) derivative
  chain; a pair is discharged when it lies in the congruence closure of
  the relation under the chosen operations, where closure membership
  also admits instantiating a relation pair whose leaves are stream
  variables (the heads of such pairs were compared as polynomials, so
  every instantiation is covered).

Every Proved result carries a certificate that an independent pass can
re-check and that renders its own lines.

`decide` is the one entry for two unknowns of parsed spec files: it
picks the procedure by the class of the two systems.
"""

from dataclasses import dataclass, field

from .algebra import RatExpr, format_ratexpr, ratexpr_coefficients, same_algebra
from .errors import SpecError, UnsupportedOp, UsageError
from .gsos import (Engine, State, SymbolicStuck, SymHead, load_system, sym_equal,
                   term_of_state)
from .solvers import linear_system_of, solve_linear_matrix
from .speclang import BUILTIN_ARITY, Kind
from .stream import Differ, bounded_eq, ensure_recursion_room


@dataclass(frozen=True)
class Proved:
    certificate: object


@dataclass(frozen=True)
class Refuted:
    index: int
    left: object
    right: object


@dataclass(frozen=True)
class Unknown:
    budget: int
    reason: str = "budget exceeded"


# Table 1 operations (constants are literal states, not applications).
TABLE1_OPS = frozenset({"+", "-", "*", "inv", "X"})

# The closure relates streams, not terms; for these operations the two
# operand orders denote the same stream (the coefficient algebras are
# commutative semirings), so congruence steps may also pair operands
# crosswise.
COMMUTATIVE_OPS = frozenset({"+", "*", "shuffle", "hadamard", "merge"})

# What an operation's streams need of the algebra (the derivatives of inv
# and sqrt negate, merge's guards compare).  No congruence step crosses an
# operation whose need is missing: it would relate streams that do not exist.
_NEEDS = {"-": "neg", "inv": "neg", "sqrt": "neg", "merge": "lt"}

# The operations whose head every algebra computes from their arguments'
# heads (`-` with negation only): the only ones _match_systems crosses.
_MATCHED_OPS = frozenset({"+", "-", "*", "X", "shuffle", "hadamard", "zip"})


# ---------------------------------------------------------------------------
# Rational streams


@dataclass(frozen=True)
class RationalCertificate:
    """Witness p1*q2 = p2*q1; checkable by independent convolution."""

    left: RatExpr
    right: RatExpr
    product: object  # the common cross product polynomial

    def render(self):
        return [f"closed form: {format_ratexpr(self.left)}"]


def equiv_rational(r1, r2):
    alg = same_algebra(r1.algebra, r2.algebra)
    lhs = r1.num * r2.den
    rhs = r2.num * r1.den
    if lhs == rhs:
        return Proved(RationalCertificate(r1, r2, lhs))
    diff = lhs - rhs
    index = next(i for i, c in enumerate(diff.coeffs) if not alg.is_zero(c))
    # the streams first differ where the cross products do (den(0) = 1)
    return Refuted(index, ratexpr_coefficients(r1, index + 1)[index],
                   ratexpr_coefficients(r2, index + 1)[index])


def _convolve(alg, p, q):
    # deliberately separate from Poly.__mul__: the verifier's own loop
    n = len(p) + len(q) - 1 if p and q else 0
    out = [alg.zero] * n
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = alg.add(out[i + j], alg.mul(a, b))
    while out and alg.is_zero(out[-1]):
        out.pop()
    return out


def verify_rational_certificate(cert):
    alg = cert.left.algebra
    lhs = _convolve(alg, cert.left.num.coeffs, cert.right.den.coeffs)
    rhs = _convolve(alg, cert.right.num.coeffs, cert.left.den.coeffs)
    if len(lhs) != len(rhs):
        return False
    if not all(alg.eq(a, b) for a, b in zip(lhs, rhs)):
        return False
    return list(cert.product.coeffs) == lhs


# ---------------------------------------------------------------------------
# Finite stream automata


@dataclass(frozen=True)
class BisimCertificate:
    """A bisimulation relation between two finite automata."""

    left: object
    right: object
    relation: frozenset  # pairs (x, y), x in left, y in right


def bisim_finite(aut1, s1, aut2, s2):
    """Decide the behaviours of two finite-automaton states.

    Every state has one successor, so running both automata from (s1, s2)
    meets one pair per step.  Within |Q1|*|Q2| steps either the outputs
    differ, at the first disagreeing index, or a pair repeats: then the
    walked pairs are a bisimulation, the certificate's relation.
    """
    alg = same_algebra(aut1.algebra, aut2.algebra)
    walked = set()
    x, y = s1, s2
    while (x, y) not in walked:
        a, b = aut1.outputs[x], aut2.outputs[y]
        if not alg.eq(a, b):
            return Refuted(len(walked), a, b)
        walked.add((x, y))
        x, y = aut1.next[x], aut2.next[y]
    return Proved(BisimCertificate(aut1, aut2, frozenset(walked)))


def verify_bisim_certificate(cert, s1, s2):
    alg = cert.left.algebra
    rel = cert.relation
    if (s1, s2) not in rel:
        return False
    for x, y in rel:
        if not alg.eq(cert.left.outputs[x], cert.right.outputs[y]):
            return False
        if (cert.left.next[x], cert.right.next[y]) not in rel:
            return False
    return True


# ---------------------------------------------------------------------------
# Bisimulation-up-to for GSOS terms


@dataclass
class UpToCertificate:
    """The relation built by the up-to search, plus its closure steps.

    pairs: the relation R (engine states).  discharge: the closure
    derivation showing the final derivative pair is in R-bar (for a
    matched proof, whose R holds the roots, ("hyp", roots)).  ops_used:
    operations exercised by congruence steps; proofs that leave Table 1
    are flagged (the classic theorem covers the stream calculus
    signature; the general-signature soundness rests on the abstract
    GSOS argument).
    """

    engine: Engine
    roots: tuple
    pairs: list
    discharge: object
    sig_ops: object
    ops_used: frozenset = field(default_factory=frozenset)

    @property
    def beyond_table1(self):
        return bool(self.ops_used - TABLE1_OPS)

    def render(self):
        scope = "user signature" if self.beyond_table1 else "stream calculus"
        return [f"certificate (bisimulation-up-to, {scope}):",
                *(f"  {term_of_state(u)}  ~  {term_of_state(v)}" for u, v in self.pairs)]


def _match(engine, pattern, state, theta):
    """Match a relation pair component against a state.

    Stream variables in the pattern are schema variables; bindings are
    kept per base name with a derivative-order anchor so that x and x'
    can only map to a state and its derivative.
    """
    if not pattern.has_vars:
        return pattern is state
    if pattern.kind == "var":
        anchor = theta.get(pattern.name)
        if anchor is None:
            theta[pattern.name] = (pattern.order, state)
            return True
        order, bound = anchor
        if pattern.order >= order:
            probe = bound
            for _ in range(pattern.order - order):
                probe = engine.derivative(probe)
            return probe is state
        probe = state
        for _ in range(order - pattern.order):
            probe = engine.derivative(probe)
        if probe is bound:
            theta[pattern.name] = (pattern.order, state)
            return True
        return False
    if pattern.kind == "app" and state.kind == "app":
        if pattern.symbol != state.symbol or len(pattern.args) != len(state.args):
            return False
        return all(_match(engine, p, s, theta)
                   for p, s in zip(pattern.args, state.args))
    return False


class _Relation:
    """The relation R of the up-to search, indexed for the hypothesis step.

    pairs: R in relation order.  A ground pair (no stream variables on
    either side) matches only its own two states, so it is looked up by
    their ids; the pairs with stream variables are matched in order.
    """

    def __init__(self):
        self.pairs = []
        self._ground = {}   # (a.sid, b.sid) -> position of the pair
        self._schemas = []  # (position, a, b) of the pairs with variables

    def append(self, pair):
        a, b = pair
        if a.has_vars or b.has_vars:
            self._schemas.append((len(self.pairs), a, b))
        else:
            self._ground.setdefault((a.sid, b.sid), len(self.pairs))
        self.pairs.append(pair)

    def instance_of(self, engine, u, v):
        """The first pair in R of which (u, v) is an instance, or None."""
        at = self._ground.get((u.sid, v.sid), len(self.pairs))
        for position, a, b in self._schemas:
            if position > at:
                break
            theta = {}
            if _match(engine, a, u, theta) and _match(engine, b, v, theta):
                return a, b
        return self.pairs[at] if at < len(self.pairs) else None


def _closure_membership(engine, pair, relation, sig_ops, used):
    """Derivation that pair is in R-bar, or None.

    R-bar: the diagonal, instances of relation pairs, and closure under
    the operations in sig_ops (congruence steps, also crosswise for
    commutative operations).  Argument pairs are tried in order, the
    crosswise pairing after the straight one.

    Without schema pairs, two states of different symbols (a leaf, a
    literal and a variable have none) are in R-bar only as a ground
    hypothesis, so the call on such an argument pair is not made: it
    could only fail.
    """
    ground, pairs = relation._ground, relation.pairs
    schemas = bool(relation._schemas)

    def member(u, v):
        # one frame per level of the two terms
        if u is v:
            return ("refl", u)
        if schemas:
            hypothesis = relation.instance_of(engine, u, v)
            if hypothesis is not None:
                return ("hyp", hypothesis)
        else:
            at = ground.get((u.sid, v.sid))
            if at is not None:
                return ("hyp", pairs[at])
        symbol = u.symbol  # None unless u is an application
        if (symbol is None or symbol != v.symbol
                or (sig_ops is not None and symbol not in sig_ops)):
            return None
        us, vs = u.args, v.args
        if len(us) != len(vs):
            return None
        # unrolled: folded into the loop below, equiv-upto lost ~40 % of its throughput
        if len(us) == 2:
            a, b = us
            c, d = vs
            if schemas or a.symbol == c.symbol or (a.sid, c.sid) in ground:
                first = member(a, c)
                if first is not None and (schemas or b.symbol == d.symbol
                                          or (b.sid, d.sid) in ground):
                    second = member(b, d)
                    if second is not None:
                        used.add(symbol)
                        return ("cong", symbol, (first, second))
            if symbol in COMMUTATIVE_OPS and (
                    schemas or a.symbol == d.symbol or (a.sid, d.sid) in ground):
                first = member(a, d)
                if first is not None and (schemas or b.symbol == c.symbol
                                          or (b.sid, c.sid) in ground):
                    second = member(b, c)
                    if second is not None:
                        used.add(symbol)
                        return ("cong", symbol, (first, second))
            return None
        subs = []
        for a, b in zip(us, vs):
            if not schemas and a.symbol != b.symbol and (a.sid, b.sid) not in ground:
                return None
            sub = member(a, b)
            if sub is None:
                return None
            subs.append(sub)
        used.add(symbol)
        return ("cong", symbol, tuple(subs))

    return member(*pair)


def _match_systems(engine, s1, s2, unknowns, sig_ops):
    """An up-to certificate for two unknowns of loaded systems whose
    right-hand sides match, or None.

    A guarded system has one solution, so a relation R of unknowns with
    equal heads is a bisimulation up to congruence when each pair's
    derivatives have the same operations of _MATCHED_OPS and sig_ops in
    the same places, identical literals, and pairs of R at the unknowns.
    R is no bijection; no arguments are paired crosswise.
    """
    ops = _MATCHED_OPS if sig_ops is None else _MATCHED_OPS & sig_ops
    pairs, seen, used = [(s1, s2)], {(s1, s2)}, set()

    def walk(a, b):
        if a in unknowns and b in unknowns:
            if (a, b) not in seen:
                seen.add((a, b))
                pairs.append((a, b))
            return True
        if a.kind == "lit" or b.kind == "lit":
            return a is b
        # a lone unknown's symbol is its name, which is no operation
        if a.symbol not in ops or a.symbol != b.symbol or len(a.args) != len(b.args):
            return False
        used.add(a.symbol)
        return all(walk(c, d) for c, d in zip(a.args, b.args))

    for u, v in pairs:  # grows as the walks relate new unknowns
        if not (engine.algebra.eq(engine.output(u), engine.output(v))
                and walk(engine.derivative(u), engine.derivative(v))):
            return None
    return UpToCertificate(engine, (s1, s2), pairs, ("hyp", (s1, s2)), sig_ops,
                           frozenset(used))


def equiv_up_to(t1, t2, defs=None, env=None, sig_ops=None, budget=2000,
                algebra=None, engine=None, unknowns=None):
    """Budgeted bisimulation-up-to between two terms.

    Terms may be speclang Terms (variables unbound in env become
    universally quantified stream variables) or prebuilt engine States.
    sig_ops restricts which operations congruence steps may cross;
    None means the full declared signature.  Given the states of the
    unknowns of loaded systems, it first tries `_match_systems`.
    """
    if engine is None:
        if algebra is None:
            raise UnsupportedOp("equiv_up_to needs an algebra or an engine")
        engine = Engine(algebra, defs)
    alg = engine.algebra

    def to_state(t):
        return t if isinstance(t, State) else engine.from_term(
            t, env, symbolic=True)

    try:
        s1, s2 = to_state(t1), to_state(t2)
    except SymbolicStuck as stuck:
        # e.g. a non-causal builtin applied to a universally quantified
        # variable: no syntactic state exists for it
        return Unknown(budget, str(stuck))
    partial = {op for op, need in _NEEDS.items() if getattr(alg, need) is None}
    if partial:  # each operation of the engine is a symbol of its definitions
        ops = {symbol for symbol, _ in engine.defs} if sig_ops is None else sig_ops
        sig_ops = frozenset(ops - partial)
    depth_cap = max(64, min(budget, 400))
    ensure_recursion_room(16 * depth_cap + 2000)
    if unknowns is not None:
        matched = _match_systems(engine, s1, s2, unknowns, sig_ops)
        if matched is not None:
            return Proved(matched)
    relation = _Relation()
    used = set()
    current = (s1, s2)
    index = 0
    while True:
        derivation = _closure_membership(engine, current, relation, sig_ops, used)
        if derivation is not None:
            if not (current[0].has_vars or current[1].has_vars):
                # the closure crossed inv, sqrt and definitions without their
                # heads, and a pair whose heads do not exist relates no streams
                engine.output(current[0])
                engine.output(current[1])
            cert = UpToCertificate(engine, (s1, s2), relation.pairs, derivation,
                                   sig_ops, frozenset(used))
            return Proved(cert)
        if max(current[0].depth, current[1].depth) > depth_cap:
            return Unknown(budget, "state depth exceeded")
        try:
            a = engine.output(current[0])
            b = engine.output(current[1])
            if not sym_equal(alg, a, b):
                if isinstance(a, SymHead) or isinstance(b, SymHead):
                    return Unknown(budget, "symbolic heads not provably equal")
                return Refuted(index, a, b)
            relation.append(current)
            if len(relation.pairs) > budget:
                return Unknown(budget)
            current = (engine.derivative(current[0]),
                       engine.derivative(current[1]))
        except SymbolicStuck as stuck:
            return Unknown(budget, str(stuck))
        index += 1


def verify_up_to_certificate(cert):
    """Re-check an up-to certificate against the up-to definition alone:
    every relation pair has equal outputs and its derivative pair in the
    closure, and the roots are covered."""
    engine = cert.engine
    alg = engine.algebra
    # the verifier's own memo: whether a pair of hash-consed states is in
    # the closure depends on nothing else, and without it the shared
    # subterms of a state dag are checked again on every path to them
    memo = {}
    # the verifier's own table of what an operation needs of the algebra
    needs = {"-": alg.neg, "inv": alg.neg, "sqrt": alg.neg, "merge": alg.lt}

    def instance(u, v):
        for a, b in cert.pairs:
            theta = {}
            if _match(engine, a, u, theta) and _match(engine, b, v, theta):
                return True
        return False

    def in_closure(pair):
        held = memo.get(pair)
        if held is not None:
            return held
        u, v = pair
        held = u is v or instance(u, v)
        if (not held and u.kind == "app" and v.kind == "app" and u.symbol == v.symbol
                and len(u.args) == len(v.args)
                and (cert.sig_ops is None or u.symbol in cert.sig_ops)
                and needs.get(u.symbol, True) is not None):
            held = True
            for p in zip(u.args, v.args):
                if not in_closure(p):
                    held = False
                    break
            if not held and u.symbol in COMMUTATIVE_OPS and len(u.args) == 2:
                held = (in_closure((u.args[0], v.args[1]))
                        and in_closure((u.args[1], v.args[0])))
        memo[pair] = held
        return held

    try:
        for u, v in cert.pairs:
            if not sym_equal(alg, engine.output(u), engine.output(v)):
                return False
            if not in_closure((engine.derivative(u), engine.derivative(v))):
                return False
        return in_closure(cert.roots)
    except SymbolicStuck:
        return False


def verify_certificate(result, *roots):
    """Dispatch on the certificate kind of a Proved result."""
    cert = result.certificate
    if isinstance(cert, RationalCertificate):
        return verify_rational_certificate(cert)
    if isinstance(cert, BisimCertificate):
        return verify_bisim_certificate(cert, *roots)
    if isinstance(cert, UpToCertificate):
        return verify_up_to_certificate(cert)
    return False


# ---------------------------------------------------------------------------
# Two unknowns of parsed spec files


def closed_form(spec, var):
    """The closed form of unknown `var` of the linear system of a spec that
    has one, None if the system has no such unknown; the system's own
    errors come first, and the engine of the file's definitions refuses an
    invalid one."""
    kind = spec.system.kind
    Engine(spec.algebra, spec.defs)
    if kind not in (Kind.SIMPLE, Kind.LINEAR):
        raise UnsupportedOp(f"closed forms need a linear system, got {kind.value}")
    ls = linear_system_of(spec.system)
    if var not in ls.names:
        solve_linear_matrix(ls, [])  # the field check
        return None
    (form,) = solve_linear_matrix(ls, [var])
    return form


def _fresh_names(unknowns, suffix, taken):
    """Each unknown v named v + suffix, the suffix repeated while the name
    is in `taken` or given to another unknown."""
    names, taken = {}, set(taken)
    for v in unknowns:
        name = v + suffix
        while name in taken:
            name += suffix
        taken.add(name)
        names[v] = name
    return names


def decide(left, right, up_to, prefix, budget):
    """Proved, Refuted or Unknown for the streams of two unknowns.

    Each side is (spec, var, path), path naming the spec's file in the
    error for an unknown its system lacks.  Two linear systems over a
    field compare by closed forms unless `up_to` names congruence
    operations (comma-separated); else one engine takes both files'
    definitions and systems, compares `prefix` elements, then matches the
    two systems' right-hand sides and runs the up-to search with `budget`
    if they do not match.
    """
    (spec_a, var_a, _), (spec_b, var_b, _) = left, right
    alg = spec_a.algebra
    if alg is not spec_b.algebra:
        raise UnsupportedOp("the two specifications use different algebras")
    for spec, var, path in (left, right):
        if spec.system is None or var not in spec.system.variables:
            raise SpecError(f"no variable {var!r} in {path}")
    sys_a, sys_b = spec_a.system, spec_b.system
    linear = (Kind.SIMPLE, Kind.LINEAR)
    if (sys_a.kind in linear and sys_b.kind in linear and alg.kind == "field"
            and up_to is None):
        return equiv_rational(closed_form(spec_a, var_a), closed_form(spec_b, var_b))
    defs = dict(spec_a.defs)
    for name, d in spec_b.defs.items():
        if name in defs and defs[name] != d:
            raise SpecError(f"conflicting definitions of {name!r}")
        defs[name] = d
    sig_ops = None
    if up_to is not None:
        sig_ops = frozenset(s.strip() for s in up_to.split(",") if s.strip())
        for name in sorted(sig_ops):
            if name not in BUILTIN_ARITY and name not in defs:
                raise UsageError(f"--up-to: {name!r} is no operation of the "
                                 "spec language or of the two files")
    # a side whose unknowns clash with the other file's unknowns or
    # definitions enters the engine with its unknowns named apart, by names
    # free in both files, the right side's ending in #b and the left
    # side's in #a
    taken = {*sys_a.variables, *sys_b.variables, *defs}
    names_a = names_b = None
    if not {*sys_a.variables, *spec_a.defs}.isdisjoint(sys_b.variables):
        names_b = _fresh_names(sys_b.variables, "#b", taken)
    if not spec_b.defs.keys().isdisjoint(sys_a.variables):
        names_a = _fresh_names(sys_a.variables, "#a", taken)
    engine = Engine(alg, defs)
    states_a = load_system(engine, sys_a, names_a)
    states_b = load_system(engine, sys_b, names_b)
    s1, s2 = states_a[var_a], states_b[var_b]
    if prefix > 0:
        scan = bounded_eq(engine.behaviour(s1), engine.behaviour(s2), prefix, budget)
        if isinstance(scan, Differ):
            return Refuted(scan.index, scan.left, scan.right)
    return equiv_up_to(s1, s2, engine=engine, sig_ops=sig_ops, budget=budget,
                       unknowns={*states_a.values(), *states_b.values()})
