"""The calculus operations as series nodes over leaves: laziness, the
re-entrancy trap, and the errors each one raises when it is built."""

import pytest

from conftest import Q, prefix
from streamcalc import (
    AlgebraMismatch,
    NoExactSqrt,
    NonProductive,
    Stream,
    UnorderedAlgebra,
    UnsupportedOp,
    gf,
)
from streamcalc.algebra import Algebra, naturals
from streamcalc.calculus import (
    add,
    apply_builtin,
    conv_inv,
    conv_mul,
    ddx,
    delta,
    even,
    hadamard,
    merge,
    neg,
    odd,
    ones,
    scalar,
    shuffle_mul,
    sqrt_stream,
    sub,
    zip_streams,
)
from streamcalc.stream import take

N = naturals()

OPERATIONS = [
    ("add", lambda s, t: add(s, t)),
    ("neg", lambda s, t: neg(s)),
    ("sub", lambda s, t: sub(s, t)),
    ("scalar", lambda s, t: scalar(3, s)),
    ("conv_mul", lambda s, t: conv_mul(s, t)),
    ("conv_inv", lambda s, t: conv_inv(s)),
    ("shuffle_mul", lambda s, t: shuffle_mul(s, t)),
    ("hadamard", lambda s, t: hadamard(s, t)),
    ("sqrt_stream", lambda s, t: sqrt_stream(s)),
    ("even", lambda s, t: even(s)),
    ("odd", lambda s, t: odd(s)),
    ("zip_streams", lambda s, t: zip_streams(s, t)),
    ("merge", lambda s, t: merge(s, t)),
    ("delta", lambda s, t: delta(s)),
    ("ddx", lambda s, t: ddx(s)),
]


class Forced(Exception):
    pass


def _exploding():
    def cell():
        raise Forced()

    return Stream(Q, cell)


@pytest.mark.parametrize("name,build", OPERATIONS, ids=[n for n, _ in OPERATIONS])
def test_building_forces_nothing(name, build):
    built = build(_exploding(), _exploding())
    with pytest.raises(Forced):
        take(built, 2)


@pytest.mark.parametrize("op", [even, odd])
def test_self_reference_through_even_odd_is_nonproductive(op):
    x = Stream.defer(Q)
    x.resolve(lambda: (Q.one, op(x)))
    with pytest.raises(NonProductive):
        take(x, 4)


def test_self_reference_through_zip_is_productive():
    # x = 1 : zip(x, [2, 2, ...]) reads x(n) for element 2n + 1 only
    x = Stream.defer(Q)
    x.resolve(lambda: (Q.one, zip_streams(x, scalar(2, ones(Q)))))
    assert prefix(x, 9) == [1, 1, 2, 1, 2, 2, 2, 1, 2]


def _bare():
    """A semiring with neither inverses nor square roots nor an order."""
    return Algebra("Bare", "semiring", N.zero, N.one, N.add, N.mul, N.eq,
                   N.coerce, N.parse, N.fmt, N.sample)


CONSTRUCTION_ERRORS = [
    (lambda: add(ones(Q), ones(N)), AlgebraMismatch, "Q vs Nat"),
    (lambda: neg(ones(N)), UnsupportedOp, "minus needs a ring, not Nat"),
    (lambda: sub(ones(Q), ones(N)), UnsupportedOp, "minus needs a ring, not Nat"),
    (lambda: sub(ones(N), ones(Q)), AlgebraMismatch, "Nat vs Q"),
    (lambda: conv_mul(ones(gf(2)), ones(Q)), AlgebraMismatch, "F2 vs Q"),
    (lambda: conv_inv(ones(N)), UnsupportedOp,
     "convolution inverse needs a ring, not Nat"),
    (lambda: conv_inv(ones(_bare())), UnsupportedOp,
     "Bare has no multiplicative inverses"),
    (lambda: shuffle_mul(ones(Q), ones(N)), AlgebraMismatch, "Q vs Nat"),
    (lambda: hadamard(ones(Q), ones(N)), AlgebraMismatch, "Q vs Nat"),
    (lambda: sqrt_stream(ones(_bare())), NoExactSqrt, "Bare has no square roots"),
    (lambda: zip_streams(ones(Q), ones(N)), AlgebraMismatch, "Q vs Nat"),
    (lambda: merge(ones(Q), ones(N)), AlgebraMismatch, "Q vs Nat"),
    (lambda: merge(ones(gf(2)), ones(gf(2))), UnorderedAlgebra,
     "merge needs an order on F2"),
    (lambda: delta(ones(N)), UnsupportedOp, "delta needs a ring, not Nat"),
    (lambda: apply_builtin("nope", [ones(Q)], Q), UnsupportedOp,
     "unknown builtin 'nope'"),
]


@pytest.mark.parametrize("build,error,message", CONSTRUCTION_ERRORS)
def test_construction_errors_keep_class_and_message(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_sqrt_over_a_semiring_is_refused_when_built():
    # the square root's tail divides, which needs a negation
    with pytest.raises(UnsupportedOp) as raised:
        sqrt_stream(ones(N))
    assert str(raised.value) == "convolution inverse needs a ring, not Nat"


def test_apply_builtin_looks_up_every_arity():
    s = ones(Q)
    assert prefix(apply_builtin("-", [s], Q), 3) == [-1, -1, -1]
    assert prefix(apply_builtin("-", [s, s], Q), 3) == [0, 0, 0]
    assert prefix(apply_builtin("X", [], Q), 3) == [0, 1, 0]
    assert prefix(apply_builtin("zip", [s, neg(s)], Q), 4) == [1, -1, 1, -1]
