"""The built-in stream operations on Stream values.

The source streams (zeros, constants, X, ones, the naturals and their
inverses), delta_o and the polynomial streams are built here.  Every
builtin operation of the DSL is the `series` node the equation solver
uses for it, over its argument streams' nodes, so the library, the GSOS
engine's native even/odd/delta/ddx and the even-odd automata all run on
one evaluator.  Each operation checks its algebra when it is built and
computes nothing until observed.
"""

from . import series
from .algebra import same_algebra
from .errors import NoExactSqrt, UnorderedAlgebra, UnsupportedOp
from .stream import Stream, at, cons, unfold

_ZEROS = {}


def zeros(alg):
    z = _ZEROS.get(alg)
    if z is None:
        z = Stream.defer(alg)
        z.resolve(lambda: (alg.zero, z))
        _ZEROS[alg] = z
    return z


def constant(alg, a):
    """[a] = (a, 0, 0, ...)."""
    a = alg.coerce(a)
    return Stream(alg, lambda: (a, zeros(alg)))


def x_stream(alg):
    """X = (0, 1, 0, 0, ...)."""
    return cons(alg.zero, constant(alg, alg.one))


def ones(alg):
    s = Stream.defer(alg)
    s.resolve(lambda: (alg.one, s))
    return s


def nats(alg):
    """(1, 2, 3, ...) by n-fold addition; defined over any semiring."""
    return unfold(alg, alg.one, lambda a: (a, alg.add(a, alg.one)))


def nats_inv(alg):
    """(1, 1/2, 1/3, ...); needs a field of characteristic zero."""
    if alg.kind != "field" or alg.characteristic != 0:
        raise UnsupportedOp("nats_inv needs a characteristic-zero field")
    return unfold(alg, alg.one, lambda a: (alg.inv(a), alg.add(a, alg.one)))


def _lift(alg, symbol, *args):
    """The stream of the series node of builtin `symbol` over the nodes
    of the streams `args`."""
    return at(series.operation(alg, symbol, [series.node_of(a) for a in args]))


def _need_ring(alg, what):
    if alg.neg is None:
        raise UnsupportedOp(f"{what} needs a ring, not {alg.name}")


def add(s, t):
    return _lift(same_algebra(s.algebra, t.algebra), "+", s, t)


def neg(s):
    _need_ring(s.algebra, "minus")
    return _lift(s.algebra, "-", s)


def sub(s, t):
    _need_ring(t.algebra, "minus")
    return _lift(same_algebra(s.algebra, t.algebra), "-", s, t)


def scalar(a, s):
    alg = s.algebra
    return at(series.operation(alg, "*", (series.Constant(alg, alg.coerce(a)),
                                          series.node_of(s))))


def conv_mul(s, t):
    """Convolution product: (s*t)(n) is the sum of s(i) * t(n-i)."""
    return _lift(same_algebra(s.algebra, t.algebra), "*", s, t)


def conv_inv(s):
    """Convolution inverse; needs an invertible head and a negation."""
    alg = s.algebra
    if alg.inv is None:
        raise UnsupportedOp(f"{alg.name} has no multiplicative inverses")
    _need_ring(alg, "convolution inverse")
    return _lift(alg, "inv", s)


def shuffle_mul(s, t):
    """Shuffle product: (s@t)(n) is the sum of C(n, i) * s(i) * t(n-i)."""
    return _lift(same_algebra(s.algebra, t.algebra), "shuffle", s, t)


def hadamard(s, t):
    return _lift(same_algebra(s.algebra, t.algebra), "hadamard", s, t)


def sqrt_stream(s):
    """Square root: head sqrt(s(0)), tail s' / ([sqrt(s(0))] + sqrt(s));
    the division needs a ring."""
    alg = s.algebra
    if alg.sqrt is None:
        raise NoExactSqrt(f"{alg.name} has no square roots")
    _need_ring(alg, "convolution inverse")
    return _lift(alg, "sqrt", s)


def even(s):
    return _lift(s.algebra, "even", s)


def odd(s):
    return _lift(s.algebra, "odd", s)


def zip_streams(s, t):
    """Interleave: zip(s, t) = (s0, t0, s1, t1, ...)."""
    return _lift(same_algebra(s.algebra, t.algebra), "zip", s, t)


def merge(s, t):
    """Sorted merge dropping duplicates; needs an ordered algebra."""
    alg = same_algebra(s.algebra, t.algebra)
    if not alg.ordered:
        raise UnorderedAlgebra(f"merge needs an order on {alg.name}")
    return _lift(alg, "merge", s, t)


def delta(s):
    """Forward difference (s(1)-s(0), s(2)-s(1), ...)."""
    _need_ring(s.algebra, "delta")
    return _lift(s.algebra, "delta", s)


def ddx(s):
    """Formal power series derivative (s(1), 2*s(2), 3*s(3), ...)."""
    return _lift(s.algebra, "ddx", s)


class _DeltaO(series._Unary):
    __slots__ = ("op",)

    def __init__(self, alg, arg, op):
        super().__init__(alg, arg)
        self.op = op

    def compute(self, n):
        return self.op(self.arg.get(n), self.arg.get(n + 1))


def delta_o(op, s):
    """(op(s0,s1), op(s1,s2), ...) for a user binary operation.

    For this to carry a final-automaton structure the user must ensure
    b -> op(a, b) is invertible for every a; the engine does not check.
    """
    return at(_DeltaO(s.algebra, series.node_of(s), op))


def stream_of_poly(p):
    """The stream of a polynomial's coefficients padded with zeros."""
    out = zeros(p.algebra)
    for c in reversed(p.coeffs):
        out = cons(c, out)
    return out


# builtin symbol -> the operation above, by arity
_BUILTINS = {
    ("+", 2): add, ("-", 1): neg, ("-", 2): sub, ("*", 2): conv_mul,
    ("inv", 1): conv_inv, ("X", 0): x_stream, ("shuffle", 2): shuffle_mul,
    ("hadamard", 2): hadamard, ("sqrt", 1): sqrt_stream, ("even", 1): even,
    ("odd", 1): odd, ("zip", 2): zip_streams, ("merge", 2): merge,
    ("delta", 1): delta, ("ddx", 1): ddx,
}


def apply_builtin(symbol, args, alg):
    op = _BUILTINS.get((symbol, len(args)))
    if op is None:
        raise UnsupportedOp(f"unknown builtin {symbol!r}")
    return op(*args) if args else op(alg)
