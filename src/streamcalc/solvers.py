"""Solution methods for the equation-system formats.

Linear systems over Q or a prime field get exact closed forms
(I - X*M)^-1 * o, recovered by a division-free Berlekamp-Massey in
integers from the first 2n coefficients of each unknown (a dimension-n
closed form num/den has deg den <= n and deg num < n, so 2n terms fix
it).  Their prefixes, like those of simple systems and of
every other builtin-only system, come from series.solve_by_coefficients;
so do those of non-standard systems (delta, d/dX, delta_o), whose
unknowns follow the successor rule of their tail operation.

Three unfoldings stay here as independent reference implementations for
tests, reached from no command: simple systems over their finite
automaton, linear systems over coefficient-vector states, and
context-free systems over polynomials in words of unknowns.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import series, speclang
from .algebra import (
    Poly,
    RatExpr,
    prime_modulus,
    ratexpr_coefficients,
    ratexpr_derivative,
    ratexpr_head,
    ratexpr_normalize,
    rationals,
)
from .errors import UnsupportedOp
from .stream import Stream, UnfoldOrigin, unfold


# ---------------------------------------------------------------------------
# Simple systems


@dataclass
class SimpleAutomaton:
    """A finite stream automaton: one output and one successor per state."""

    algebra: object
    outputs: dict
    next: dict

    @property
    def states(self):
        return tuple(self.outputs)


def automaton_of_simple(sys):
    if sys.kind is not speclang.Kind.SIMPLE:
        raise UnsupportedOp("not a simple system")
    successors = {}
    for v in sys.variables:
        ((successor,),) = sys.polynomials[v]
        successors[v] = successor
    return SimpleAutomaton(sys.algebra, dict(sys.heads), successors)


def unfold_automaton(aut, state):
    return unfold(aut.algebra, state,
                  lambda q: (aut.outputs[q], aut.next[q]))


def solve_simple(sys):
    aut = automaton_of_simple(sys)
    return {v: unfold_automaton(aut, v) for v in sys.variables}


# ---------------------------------------------------------------------------
# Eventual periodicity


@dataclass(frozen=True)
class Periodic:
    """sigma^(k) = sigma^(n) with k < n."""

    k: int
    n: int


@dataclass(frozen=True)
class PeriodicityUnknown:
    pass


def detect_eventually_periodic(obj, bound=4096):
    """Decide eventual periodicity by walking decidable state spaces.

    Accepts a canonical RatExpr (states: canonical derivatives) or a
    Stream carrying an unfold origin (states: automaton states).  For
    anything else the question is not decidable from a prefix and
    PeriodicityUnknown is returned.
    """
    if isinstance(obj, RatExpr):
        step = lambda r: (None, ratexpr_derivative(r))
        state = obj
    elif isinstance(obj, Stream) and isinstance(obj.origin, UnfoldOrigin):
        origin = obj.origin
        step = origin.step
        state = origin.state
    else:
        return PeriodicityUnknown()
    seen = {}
    for i in range(bound):
        try:
            if state in seen:
                return Periodic(seen[state], i)
            seen[state] = i
        except TypeError:
            return PeriodicityUnknown()
        state = step(state)[1]
    return PeriodicityUnknown()


# ---------------------------------------------------------------------------
# Linear systems


@dataclass
class LinearSystem:
    """x_i' = sum_j M[i][j] * x_j with initial values o."""

    algebra: object
    names: tuple
    o: tuple
    M: tuple

    @property
    def n(self):
        return len(self.names)


def linear_system_of(sys):
    alg = sys.algebra
    rows = []
    heads = []
    for v in sys.variables:
        poly = sys.polynomials[v]
        if poly is None or poly is speclang.UNEXPANDED or not all(
                map(speclang.is_single_unknown, poly)):
            raise UnsupportedOp(f"equation for {v!r} is not linear")
        row = {w: c for (w,), c in poly.items()}
        unknown = set(row) - set(sys.variables)
        if unknown:
            raise UnsupportedOp(f"unknown variables {sorted(unknown)}")
        rows.append(tuple(row.get(w, alg.zero) for w in sys.variables))
        heads.append(sys.heads[v])
    return LinearSystem(alg, tuple(sys.variables), tuple(heads), tuple(rows))


def solve_linear_matrix(ls, names=None):
    """Closed forms of a linear system: one canonical RatExpr for each
    unknown in `names` (default: every unknown), in that order.

    The closed forms are the entries of (I - X*M)^-1 * o.  Each is a
    cofactor polynomial of degree <= n-1 over det(I - X*M), of degree
    <= n, so after cancelling their gcd every form p/q has linear
    complexity L = max(deg p + 1, deg q) <= n.  Berlekamp-Massey on the
    first 2n >= 2L coefficients (x^(k)(0) = (M^k o)_i) therefore finds
    each unknown's unique shortest recurrence: its connection polynomial
    is q up to a constant, and p is the prefix times q mod X^L.

    Everything up to the canonical form runs in Python integers, so the
    algebra must be rationals() or a prime field gf(p).  Over Q the
    power sequence t is a scaled copy of the coefficients, whose series
    is T(X/D)/E (see _power_sequences): with c the connection polynomial
    of t and p_t its numerator, den_j = c[j] / (c[0] * D^j) and
    num_j = p_t[j] / (c[0] * E * D^j).  Over gf(p), D = E = 1 and the
    division by c[0] is mod p.
    """
    alg = ls.algebra
    p = 0 if alg is rationals() else prime_modulus(alg)
    if p is None:
        raise UnsupportedOp("the matrix method needs a field algebra")
    rows = range(ls.n) if names is None else [ls.names.index(v) for v in names]
    seqs, d, e = _power_sequences(ls, rows, p)
    forms = []
    for seq in seqs:
        c, length = _berlekamp_massey(seq, p)
        num = [sum(map(mul, reversed(seq[:j + 1]), c)) for j in range(length)]
        if p:
            scale = pow(c[0], -1, p)
            den = [x * scale % p for x in c]
            num = [x * scale % p for x in num]
        else:
            den = [Fraction(x, c[0] * d ** j) for j, x in enumerate(c)]
            num = [Fraction(x, c[0] * e * d ** j) for j, x in enumerate(num)]
        forms.append(ratexpr_normalize(Poly(alg, num), Poly(alg, den)))
    return forms


def _power_sequences(ls, rows, p):
    """Integer sequences t of the coefficients (M^k o)_i, k < 2n, of each
    unknown i in `rows`, with the scales D and E: (M^k o)_i = t_k / (E * D^k).

    Over Q (p = 0), D is the lcm of M's denominators and E that of o's,
    and u_k = (D*M)^k (E*o) has integer entries, t_k = u_k[i].  The
    series of t is then T(X) = E * S(D*X) for the unknown's series S, so
    S(X) = T(X/D) / E.  Over gf(p), u_k = M^k o is iterated mod p and
    D = E = 1.
    """
    terms = 2 * ls.n
    if p:
        d = e = 1
        matrix, u = ls.M, ls.o
    else:
        d = lcm(*(c.denominator for row in ls.M for c in row))
        e = lcm(*(c.denominator for c in ls.o))
        matrix = [[c.numerator * (d // c.denominator) for c in row] for row in ls.M]
        u = [c.numerator * (e // c.denominator) for c in ls.o]
    seqs = [[u[i]] for i in rows]
    for _ in range(terms - 1):
        u = [sum(map(mul, row, u)) for row in matrix]
        if p:
            u = [x % p for x in u]
        for seq, i in zip(seqs, rows):
            seq.append(u[i])
    return seqs, d, e


def _berlekamp_massey(seq, p):
    """Shortest recurrence of an integer sequence over Q (p = 0) or over
    gf(p), without division (after Massey 1969).

    Returns the connection polynomial c (integer coefficients, c[0] not
    zero, mod p over gf(p)) and the length L with
    sum_j c[j] * seq[k - j] = 0 for every L <= k < len(seq).  Where the
    field algorithm subtracts (d/last) * X^m * b from c, this one sets
    c <- last*c - d*X^m*b, a multiple of the field's c by a unit, so
    c / c[0] is the field's connection polynomial.  Over Q each new c is
    divided by the gcd of its entries, and over gf(p) reduced mod p, to
    keep it small.
    """
    c = [1]
    b = [1]
    length = 0
    shift = 1
    last = 1  # discrepancy when b was last replaced
    for k in range(len(seq)):
        d = sum(map(mul, c, reversed(seq[k - length:k + 1])))
        if p:
            d %= p
        if not d:
            shift += 1
            continue
        prev = c
        c = [last * x for x in c] + [0] * (len(b) + shift - len(c))
        for j, bj in enumerate(b):
            c[j + shift] -= d * bj
        if p:
            c = [x % p for x in c]
        else:
            g = gcd(*c)
            if g > 1:
                c = [x // g for x in c]
        if 2 * length <= k:
            length, b, last, shift = k + 1 - length, prev, d, 1
        else:
            shift += 1
    return c, length


def solve_linear_coinductive(ls):
    """Streams whose states are coefficient vectors over the unknowns.

    Works over any semiring: evolving a state only adds and multiplies.
    A reference implementation for tests; the commands take prefixes
    from series.solve_by_coefficients.
    """
    alg = ls.algebra
    n = ls.n

    def step(vec):
        out = alg.zero
        for c, o in zip(vec, ls.o):
            out = alg.add(out, alg.mul(c, o))
        nxt = tuple(
            _dot(alg, vec, tuple(ls.M[j][k] for j in range(n)))
            for k in range(n)
        )
        return out, nxt

    basis = [tuple(alg.one if j == i else alg.zero for j in range(n))
             for i in range(n)]
    return {name: unfold(alg, basis[i], step)
            for i, name in enumerate(ls.names)}


def _dot(alg, u, v):
    acc = alg.zero
    for a, b in zip(u, v):
        acc = alg.add(acc, alg.mul(a, b))
    return acc


def ratexpr_stream(r):
    """Expand a rational expression by iterated head/derivative."""
    return unfold(r.algebra, r,
                  lambda state: (ratexpr_head(state), ratexpr_derivative(state)))


def rational_to_linear(r):
    """Companion linear system of a canonical rational expression.

    num/den with den(0) = 1 and gcd 1 has linear complexity
    L = max(deg num + 1, deg den): its first L derivatives are
    independent and x^(L) = -den[L]*x - ... - den[1]*x^(L-1).  The
    unknowns are those derivatives, their heads the first L
    coefficients.  The zero stream gets one unknown with x' = 0*x.
    """
    alg = r.algebra
    if r.is_zero():
        return LinearSystem(alg, ("x0",), (alg.zero,), ((alg.zero,),))
    num, den = r.num, r.den
    dim = max(num.degree + 1, den.degree)
    heads = ratexpr_coefficients(r, dim)
    rows = [tuple(alg.one if j == i + 1 else alg.zero for j in range(dim))
            for i in range(dim - 1)]
    rows.append(tuple(alg.neg(den.coeff(dim - j)) for j in range(dim)))
    return LinearSystem(alg, tuple(f"x{i}" for i in range(dim)),
                        tuple(heads), tuple(rows))


# ---------------------------------------------------------------------------
# Context-free systems


@dataclass
class ContextFreeSystem:
    """x' = polynomial over words of unknowns (and the X atom)."""

    algebra: object
    names: tuple
    o: dict
    d: dict


def context_free_system_of(sys):
    alg = sys.algebra
    d = {}
    for v in sys.variables:
        poly = sys.polynomials[v]
        if poly is None:
            raise UnsupportedOp(f"equation for {v!r} is not context-free")
        if poly is speclang.UNEXPANDED:
            raise UnsupportedOp(f"equation for {v!r} is too large to expand")
        letters = {x for w in poly for x in w} - set(sys.variables) - {"X"}
        if letters:
            raise UnsupportedOp(f"unknown variables {sorted(letters)}")
        d[v] = poly
    return ContextFreeSystem(alg, tuple(sys.variables),
                             {v: sys.heads[v] for v in sys.variables}, d)


def solve_context_free(cfs):
    """Unfold the automaton on polynomial states.

    Output of a word is the product of its letters' outputs; the
    derivative of a word is the Leibniz expansion where each letter is
    replaced by its defining polynomial, weighted by the heads of the
    letters before it.  Both are memoised per word.  A reference
    implementation for tests; the commands take prefixes from
    series.solve_by_coefficients.
    """
    alg = cfs.algebra
    letter_o = dict(cfs.o)
    letter_o["X"] = alg.zero
    letter_d = dict(cfs.d)
    letter_d["X"] = {(): alg.one}
    out_memo = {(): alg.one}
    deriv_memo = {}

    def word_out(w):
        value = out_memo.get(w)
        if value is None:
            value = alg.one
            for letter in w:
                value = alg.mul(value, letter_o[letter])
                if alg.is_zero(value):
                    break
            out_memo[w] = value
        return value

    def word_deriv(w):
        poly = deriv_memo.get(w)
        if poly is None:
            poly = {}
            prefix = alg.one
            for i, letter in enumerate(w):
                if i:
                    prefix = alg.mul(prefix, letter_o[w[i - 1]])
                    if alg.is_zero(prefix):
                        break
                suffix = w[i + 1:]
                for u, c in letter_d[letter].items():
                    coeff = alg.mul(prefix, c)
                    if alg.is_zero(coeff):
                        continue
                    word = u + suffix
                    acc = alg.add(poly[word], coeff) if word in poly else coeff
                    if alg.is_zero(acc):
                        poly.pop(word, None)
                    else:
                        poly[word] = acc
            deriv_memo[w] = poly
        return poly

    def poly_out(p):
        acc = alg.zero
        for w, c in p.items():
            acc = alg.add(acc, alg.mul(c, word_out(w)))
        return acc

    def poly_deriv(p):
        acc = {}
        for w, c in p.items():
            for u, cu in word_deriv(w).items():
                coeff = alg.mul(c, cu)
                s = alg.add(acc[u], coeff) if u in acc else coeff
                if alg.is_zero(s):
                    acc.pop(u, None)
                else:
                    acc[u] = s
        return acc

    def go(p):
        return Stream(alg, lambda: (poly_out(p), go(poly_deriv(p))))

    return {v: go({(v,): alg.one}) for v in cfs.names}


# ---------------------------------------------------------------------------
# Non-standard systems


def solve_nonstd(sys, delta_op=None, delta_op_inv=None):
    """Solve a delta-, ddx-, or delta_o-system coefficient by coefficient.

    Each unknown follows the successor rule of the tail operation
    (series.solve_by_coefficients): delta(x) = r gives
    x(n+1) = x(n) + r(n) and needs a ring; ddx(x) = r gives
    x(n+1) = r(n)/(n+1) and needs a field of characteristic zero;
    delta_o(x) = r gives x(n+1) = delta_op_inv(x(n), r(n)), the
    user-supplied inverse of b -> delta_op(a, b).
    """
    if sys.tail_op == "delta_o" and (delta_op is None or delta_op_inv is None):
        raise UnsupportedOp("delta_o systems need the operation and its inverse")
    if sys.tail_op not in ("delta", "ddx", "delta_o"):
        raise UnsupportedOp(f"not a non-standard system: {sys.tail_op!r}")
    return series.solve_by_coefficients(sys, delta_op_inv)
