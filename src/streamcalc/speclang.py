"""Parser and static analysis for the stream-equation DSL.

Statements end with `;`.  Equation forms:

    v(0) = <elem>;        v'(0) = <elem>;      (initial values)
    v' = <term>;          v'' = <term>;        (derivative equations)
    delta(v) = <term>;    ddx(v) = <term>;     (non-standard derivatives)
    even(v) = w;          odd(v) = w;          (even-odd specifications)
    algebra Q;                                  (coefficient domain)

Operation definitions:

    def f(x1, ..., xk) { out = <headexpr>; deriv = <term>; }

optionally with guarded clause lists:

    def f(a, b) {
      when a(0) < b(0) => { out = a(0); deriv = f(a', b); }
      otherwise        => { out = b(0); deriv = f(a, b'); }
    }

Higher-order equations are flattened into first-order systems; the
fresh unknowns are named `<var>#k`.  A derivative of an unknown on a
right-hand side is only accepted when the unknown's own equation has
strictly higher order (so `c' = c';` is rejected outright).

`classify` reads a system's format from its equations (even-odd,
non-standard) or else from its right-hand sides, each read once as a
polynomial in the unknowns and X (`as_polynomial`).  A parsed system
keeps each reading of it once made: that polynomial reading
(`EquationSystem.polynomials`, for the readers in solvers), its format
(`EquationSystem.kind`) and its `series` plan (`EquationSystem.plan`).
"""

import enum
import re
from dataclasses import dataclass, field
from functools import cached_property

from .algebra import get_algebra, rationals
from .errors import (
    AlgebraMismatch,
    ArityMismatch,
    HeadNotInvertible,
    MissingInitialValue,
    NoExactSqrt,
    NotZeroConsistent,
    SpecSyntaxError,
    UnknownSymbol,
    UnsupportedOp,
)
from .stream import ensure_recursion_room

# builtin operation -> its arity, or the tuple of its arities
BUILTIN_ARITY = {
    "+": 2, "-": (1, 2), "*": 2, "inv": 1, "X": 0,
    "shuffle": 2, "hadamard": 2, "sqrt": 1,
    "even": 1, "odd": 1, "zip": 2, "merge": 2,
    "delta": 1, "ddx": 1,
}

KEYWORDS = {
    "algebra", "def", "when", "otherwise", "out", "deriv",
    "and", "or", "not", "inf", "true", "false",
} | {name for name in BUILTIN_ARITY if name.isalpha()}

# the builtins written as calls, f(t1, ..., tk)
_CALL_OPS = {name: arity for name, arity in BUILTIN_ARITY.items()
             if name.isalpha() and arity}


# ---------------------------------------------------------------------------
# AST
#
# A stream term is a Var, a DVar, a Const, an OpApp of an operation to
# its argument terms, a TermDeriv, or a Sum.  The parser reads every
# chain of `+` and `-` into one n-ary Sum, so a pass over a sum of k
# summands loops over them instead of recursing k deep.  Binary
# OpApp("+"/"-") terms built by hand are valid input too; the passes
# that read sums read both shapes through summands().


@dataclass(frozen=True)
class HLit:
    value: object


@dataclass(frozen=True)
class HArg:
    """Head of the index-th operation argument."""

    index: int


@dataclass(frozen=True)
class HOp:
    op: str  # + - * neg inv sqrt
    args: tuple


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class DVar:
    """Derivative of an argument; order >= 2 is outside the GSOS shape."""

    name: str
    order: int = 1


@dataclass(frozen=True)
class Const:
    """Constant stream [h] of a head expression."""

    value: object  # HLit / HArg / HOp


class OpApp:
    """An operation applied to the tuple of its argument terms.  As for
    Sum, the hash is computed once, at construction, so hashing a tall
    term does not recurse down it."""

    __slots__ = ("symbol", "args", "_hash")

    def __init__(self, symbol, args):
        self.symbol = symbol
        self.args = args
        self._hash = hash((symbol, args))

    def __eq__(self, other):
        return self is other or (type(other) is OpApp and self._hash == other._hash
                                 and self.symbol == other.symbol and self.args == other.args)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"OpApp(symbol={self.symbol!r}, args={self.args!r})"


class Sum:
    """A chain t1 +- t2 +- ... +- tk of k >= 2 summands, as one node.

    `summands` is the tuple of (term, negated) pairs in source order; the
    first summand is never negated.  The parser flattens a parenthesised
    sum that leads a chain into it, so `(a + b) - c` and `a + b - c` are
    the same node, but keeps `a + (b - c)` as a nested sum.  The hash is
    computed once, at construction, so looking a term up in a dict does
    not walk its summands again.
    """

    __slots__ = ("summands", "_hash")

    def __init__(self, summands):
        self.summands = summands
        self._hash = hash(summands)

    def __eq__(self, other):
        return self is other or (type(other) is Sum and self._hash == other._hash
                                 and self.summands == other.summands)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Sum({self.summands!r})"


def summands(t):
    """The (term, negated) summands of a sum, or None if `t` is no sum.

    Reads both shapes of a sum: the parser's Sum node, and a chain of
    binary OpApp("+"/"-") built by hand, walked along its left spine as
    the parser would have flattened it.
    """
    if type(t) is Sum:
        return t.summands
    parts = []
    while type(t) is OpApp and len(t.args) == 2 and t.symbol in ("+", "-"):
        parts.append((t.args[1], t.symbol == "-"))
        t = t.args[0]
    if not parts:
        return None
    parts.append((t, False))
    parts.reverse()
    return tuple(parts)


@dataclass(frozen=True)
class TermDeriv:
    """Parse-level derivative of a whole term; never valid GSOS."""

    term: object
    order: int


@dataclass(frozen=True)
class Cmp:
    op: str  # = != < <= > >=
    left: object
    right: object


@dataclass(frozen=True)
class BoolOp:
    op: str  # and / or
    args: tuple


@dataclass(frozen=True)
class Not:
    arg: object


@dataclass(frozen=True)
class GsosClause:
    guard: object  # None for the unconditional / otherwise clause
    out: object
    deriv: object
    span: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class GsosDef:
    symbol: str
    params: tuple
    clauses: tuple
    span: tuple = field(default=None, compare=False)

    @property
    def arity(self):
        return len(self.params)


class Kind(enum.Enum):
    SIMPLE = "simple"
    LINEAR = "linear"
    CONTEXT_FREE = "context-free"
    NONSTD = "non-standard"
    EVEN_ODD = "even-odd"
    GENERAL = "general"


@dataclass
class EquationSystem:
    """A first-order equation system (already flattened).

    tail_op is 'tail' for ordinary derivatives, or 'delta'/'ddx' for the
    non-standard ones; even-odd systems use evens/odds instead of rhs.
    """

    algebra: object
    variables: tuple
    heads: dict
    tail_op: str = "tail"
    rhs: dict = field(default_factory=dict)
    evens: dict = field(default_factory=dict)
    odds: dict = field(default_factory=dict)

    def __eq__(self, other):
        return (isinstance(other, EquationSystem)
                and self.algebra is other.algebra
                and self.variables == other.variables
                and self.heads == other.heads
                and self.tail_op == other.tail_op
                and self.rhs == other.rhs
                and self.evens == other.evens
                and self.odds == other.odds)

    @cached_property
    def polynomials(self):
        """as_polynomial of each right-hand side, by unknown, read on first use."""
        return {v: as_polynomial(t, self.algebra) for v, t in self.rhs.items()}

    @cached_property
    def kind(self):
        """classify of the system, read on first use."""
        return classify(self)

    @cached_property
    def plan(self):
        """series.compile_plan of the system, compiled on first use and not
        kept if it raises.  series imports this module, so it is imported
        here, when a system is first solved."""
        from . import series

        return series.compile_plan(self)


@dataclass
class SpecFile:
    algebra: object
    algebra_name: str
    defs: dict
    system: object  # EquationSystem or None

    def __eq__(self, other):
        return (isinstance(other, SpecFile)
                and self.algebra is other.algebra
                and self.defs == other.defs
                and self.system == other.system)


# ---------------------------------------------------------------------------
# Lexer
#
# A token is a (kind, text, span) tuple: kind is IDENT, NUMBER, SYM or
# EOF, span the (line, column) of its first character.  Symbol texts
# occur in no other kind of token, so the parser tests them by text alone.

# One alternative per token shape, each led by the blanks before it.  An
# identifier that starts with an ASCII letter or `_`, and a number of
# ASCII digits that no word character follows, are decided by the
# pattern alone.  Any other run of word characters and `#` (one with
# non-ASCII characters, or digits running into letters) is split by
# _word_tokens with the str predicates that define the grammar: an
# identifier starts with a letter or `_` and runs on over letters,
# digits, `_` and `#`; a number is a run of digits.  `\w` is exactly
# str.isalnum() or `_`.
_TOKEN = re.compile(r"""
    [ \t\r]*
    (?: (\n)
      | (=>|<=|>=|!=|[()\[\]{};,='+\-*<>/])
      | ([A-Za-z_][\w#]*)
      | ([0-9]+)(?![\w#])
      | ([\w#]+)
      | (.)
      | \Z)
""", re.VERBOSE | re.DOTALL)
_KINDS = (None, None, "SYM", "IDENT", "NUMBER")


def _word_tokens(word, line, col):
    tokens = []
    i = 0
    while i < len(word):
        c = word[i]
        if c.isalpha() or c == "_":
            tokens.append(("IDENT", word[i:], (line, col + i)))
            break
        if not c.isdigit():
            raise SpecSyntaxError(f"unexpected character {c!r}", (line, col + i))
        j = i + 1
        while j < len(word) and word[j].isdigit():
            j += 1
        tokens.append(("NUMBER", word[i:j], (line, col + i)))
        i = j
    return tokens


def _lex(source):
    tokens = []
    append = tokens.append
    line, line_start = 1, 0
    for match in _TOKEN.finditer(source):
        group = match.lastindex
        if group is None:  # trailing blanks
            continue
        start = match.start(group)
        if group == 1:
            line += 1
            line_start = start + 1
        elif group < 5:
            append((_KINDS[group], match[group], (line, start - line_start + 1)))
        elif group == 5:
            tokens += _word_tokens(match[5], line, start - line_start + 1)
        else:
            raise SpecSyntaxError(f"unexpected character {match[6]!r}",
                                  (line, start - line_start + 1))
    append(("EOF", "", (line, len(source) - line_start + 1)))
    return tokens


# ---------------------------------------------------------------------------
# Parser

# Each `(`, `[`, argument list and unary minus opens one nesting level,
# in terms, head expressions and guards alike; a deeper spec is refused
# at the opening token, so parsing and the recursive passes over the
# parsed terms stay within the interpreter's default recursion limit.
MAX_NESTING = 150

# A term's `*` chain, and a head expression's `+`, `-` and `*` at one
# nesting level, parse into a left-nested binary tree that the passes
# after parsing walk one level per operator; a longer chain is refused
# at the operator past the bound.  (A term's `+`/`-` chain is one Sum.)
MAX_CHAIN = 400

# Chains stacked through nesting add up: 40-factor products nested 13
# deep, or a 400-factor product inside 100 `inv(`, make a tree that the
# passes after parsing walk deeper than the default recursion limit.  So
# a term, head expression or guard whose parsed tree has a path of more
# than MAX_HEIGHT nodes below its root is refused too, and so is an
# equation's `[...]`, which is evaluated inside its term.
MAX_HEIGHT = 450


@dataclass
class _RawEquation:
    var: str
    order: int
    op: str  # tail / delta / ddx / even / odd / init
    rhs: object
    span: tuple


class _Parser:
    def __init__(self, source, algebra_override=None):
        # a second EOF lets the parser look one token past the end
        self.tokens = _lex(source)
        self.tokens.append(self.tokens[-1])
        self.pos = 0
        self.depth = 0
        self.links = 0  # operators in the chain being parsed
        self.algebra = algebra_override or rationals()
        self.algebra_name = self.algebra.name
        self.algebra_override = algebra_override
        self.saw_statement = False
        self.defs = {}
        self.inits = {}  # var -> {order: (value, span)}
        self.tails = {}  # var -> _RawEquation
        self.evens = {}
        self.odds = {}
        self.var_order = []

    # -- token helpers

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def expect_kind(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise SpecSyntaxError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}",
                                  tok[2])
        return tok

    def expect(self, text):
        """Consume the symbol or keyword `text`."""
        tok = self.next()
        if tok[1] != text:
            raise SpecSyntaxError(f"expected {text!r}, found {tok[1] or 'end of input'!r}",
                                  tok[2])
        return tok

    def eat(self, text):
        if self.tokens[self.pos][1] == text:
            self.pos += 1
            return True
        return False

    def enter(self, text):
        """Consume `text` and open a nesting level at it; the caller
        closes the level with leave() or by decrementing self.depth."""
        tok = self.expect(text)
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise SpecSyntaxError(f"nesting deeper than {MAX_NESTING} levels", tok[2])

    def leave(self, text):
        self.expect(text)
        self.depth -= 1

    def bounded(self, node, start):
        """`node`, parsed from the tokens from index `start` on, checked
        by check_height() if it is a whole term, head expression or
        guard (parsed at depth 0)."""
        if self.depth == 0:
            self.check_height(node, start)
        return node

    def check_height(self, node, start):
        """Refuse `node`, parsed from the tokens from index `start` on, if
        it is taller than MAX_HEIGHT.  Each level of a path takes a token
        of its own, so an expression of at most MAX_HEIGHT tokens is not
        walked."""
        if self.pos - start > MAX_HEIGHT and _taller_than(node, MAX_HEIGHT):
            raise SpecSyntaxError(f"expression deeper than {MAX_HEIGHT} levels",
                                  self.tokens[start][2])

    def link(self):
        """Consume the next operator of a chain, counting it."""
        tok = self.next()
        self.links += 1
        if self.links > MAX_CHAIN:
            raise SpecSyntaxError(f"chain longer than {MAX_CHAIN} operators", tok[2])

    # -- entry point

    def parse(self):
        while self.tokens[self.pos][0] != "EOF":
            self.statement()
        return self.finish()

    def statement(self):
        kind, text, span = self.peek()
        if kind != "IDENT":
            raise SpecSyntaxError(f"expected a statement, found {text!r}", span)
        if text == "algebra":
            self.algebra_statement()
            return
        self.saw_statement = True
        if text == "def":
            self.def_statement()
        elif text in ("even", "odd"):
            self.even_odd_statement()
        elif text in ("delta", "ddx"):
            self.nonstd_statement()
        else:
            self.equation_statement()

    def algebra_statement(self):
        tok = self.next()
        if self.saw_statement:
            raise SpecSyntaxError("algebra directive must precede the equations", tok[2])
        _, name, name_span = self.expect_kind("IDENT")
        if self.eat("("):
            arg = self.expect_kind("NUMBER")
            self.expect(")")
            name = f"{name}({arg[1]})"
        self.expect(";")
        try:
            alg = get_algebra(name)
        except Exception as err:
            raise SpecSyntaxError(str(err), name_span) from None
        self.algebra_name = name
        if self.algebra_override is None:
            self.algebra = alg

    def even_odd_statement(self):
        which = self.next()[1]
        self.expect("(")
        _, var, var_span = self.ident("stream variable")
        self.expect(")")
        self.expect("=")
        _, target, target_span = self.expect_kind("IDENT")
        self.expect(";")
        table = self.evens if which == "even" else self.odds
        if var in table:
            raise SpecSyntaxError(f"duplicate {which} equation for {var!r}", var_span)
        table[var] = (target, target_span)
        self.note_var(var)

    def nonstd_statement(self):
        which = self.next()[1]
        self.expect("(")
        _, var, var_span = self.ident("stream variable")
        self.expect(")")
        self.expect("=")
        rhs = self.term(None)
        self.expect(";")
        self.add_tail(_RawEquation(var, 1, which, rhs, var_span))

    def equation_statement(self):
        _, var, var_span = self.ident("stream variable")
        order = 0
        while self.eat("'"):
            order += 1
        if self.eat("("):
            _, zero, zero_span = self.expect_kind("NUMBER")
            if zero != "0":
                raise SpecSyntaxError("initial values are given at index 0", zero_span)
            self.expect(")")
            self.expect("=")
            value = self.element()
            self.expect(";")
            slot = self.inits.setdefault(var, {})
            if order in slot:
                raise SpecSyntaxError(
                    f"duplicate initial value for {var + chr(39) * order}", var_span)
            slot[order] = (value, var_span)
            self.note_var(var)
            return
        if order == 0:
            raise SpecSyntaxError(f"expected \"'\" or \"(0)\" after {var!r}", var_span)
        self.expect("=")
        rhs = self.term(None)
        self.expect(";")
        self.add_tail(_RawEquation(var, order, "tail", rhs, var_span))

    def add_tail(self, eq):
        if eq.var in self.tails:
            raise SpecSyntaxError(f"duplicate equation for {eq.var!r}", eq.span)
        self.tails[eq.var] = eq
        self.note_var(eq.var)

    def note_var(self, name):
        if name not in self.var_order:
            self.var_order.append(name)

    def ident(self, what):
        tok = self.next()
        if tok[0] != "IDENT" or tok[1] in KEYWORDS:
            raise SpecSyntaxError(f"expected {what}, found {tok[1]!r}", tok[2])
        return tok

    # -- operation definitions

    def def_statement(self):
        self.next()  # def
        _, name, name_span = self.ident("operation name")
        if name in self.defs or name in BUILTIN_ARITY:
            raise SpecSyntaxError(f"redefinition of {name!r}", name_span)
        self.expect("(")
        params = []
        if not self.eat(")"):
            params.append(self.ident("parameter name")[1])
            while self.eat(","):
                params.append(self.ident("parameter name")[1])
            self.expect(")")
        if len(set(params)) != len(params):
            raise SpecSyntaxError("duplicate parameter names", name_span)
        self.expect("{")
        clauses = []
        if self.peek()[1] in ("when", "otherwise"):
            while not self.eat("}"):
                clauses.append(self.guarded_clause(params))
        else:
            clauses.append(self.clause_body(params, None, self.peek()[2]))
            self.expect("}")
        self.defs[name] = GsosDef(name, tuple(params), tuple(clauses), span=name_span)

    def guarded_clause(self, params):
        _, text, span = self.next()
        if text == "when":
            guard = self.guard(params)
        elif text == "otherwise":
            guard = None
        else:
            raise SpecSyntaxError("expected 'when' or 'otherwise'", span)
        self.expect("=>")
        self.expect("{")
        clause = self.clause_body(params, guard, span)
        self.expect("}")
        return clause

    def clause_body(self, params, guard, span):
        self.expect("out")
        self.expect("=")
        out = self.headexpr(params)
        self.expect(";")
        self.expect("deriv")
        self.expect("=")
        deriv = self.term(params)
        self.expect(";")
        return GsosClause(guard, out, deriv, span=span)

    def guard(self, params):
        """or-separated conjunctions of comparisons and `not (guard)`."""
        start = self.pos
        parts = [self.conjunction(params)]
        while self.eat("or"):
            parts.append(self.conjunction(params))
        return self.bounded(parts[0] if len(parts) == 1 else BoolOp("or", tuple(parts)),
                            start)

    def conjunction(self, params):
        parts = [self.guard_atom(params)]
        while self.eat("and"):
            parts.append(self.guard_atom(params))
        return parts[0] if len(parts) == 1 else BoolOp("and", tuple(parts))

    def guard_atom(self, params):
        if self.eat("not"):
            self.enter("(")
            inner = self.guard(params)
            self.leave(")")
            return Not(inner)
        left = self.headexpr(params)
        _, op, span = self.next()
        if op not in ("=", "!=", "<", "<=", ">", ">="):
            raise SpecSyntaxError("expected a comparison operator", span)
        return Cmp(op, left, self.headexpr(params))

    # -- head expressions

    def headexpr(self, params):
        outer, self.links = self.links, 0
        start = self.pos
        left = self.headterm(params)
        op = self.tokens[self.pos][1]
        while op == "+" or op == "-":
            self.link()
            left = HOp(op, (left, self.headterm(params)))
            op = self.tokens[self.pos][1]
        self.links = outer
        return self.bounded(left, start)

    def headterm(self, params):
        left = self.headfactor(params)
        while self.tokens[self.pos][1] == "*":
            self.link()
            left = HOp("*", (left, self.headfactor(params)))
        return left

    def headfactor(self, params):
        kind, text, span = self.tokens[self.pos]
        if text == "-":
            self.enter("-")
            inner = self.headfactor(params)
            self.depth -= 1
            return HOp("neg", (inner,))
        if text == "(":
            self.enter("(")
            inner = self.headexpr(params)
            self.leave(")")
            return inner
        if kind == "NUMBER":
            return HLit(self.number_literal())
        if kind != "IDENT":
            raise SpecSyntaxError(f"unexpected {text!r} in head expression", span)
        if text == "inv":
            self.pos += 1
            self.enter("(")
            inner = self.headexpr(params)
            self.leave(")")
            return HOp("inv", (inner,))
        if text in ("inf", "true", "false"):
            self.pos += 1
            return HLit(self.parse_element(text, span))
        if params is not None and text in params:
            self.pos += 1
            self.expect("(")
            _, zero, zero_span = self.expect_kind("NUMBER")
            if zero != "0":
                raise SpecSyntaxError("argument heads are written x(0)", zero_span)
            self.expect(")")
            return HArg(params.index(text))
        raise UnknownSymbol(f"{text!r} is not usable in a head expression", span)

    def number_literal(self):
        _, text, span = self.next()  # a NUMBER
        tokens, pos = self.tokens, self.pos
        if tokens[pos][1] == "/" and tokens[pos + 1][0] == "NUMBER":
            text += "/" + tokens[pos + 1][1]
            self.pos += 2
        return self.parse_element(text, span)

    def parse_element(self, text, span):
        try:
            return self.algebra.parse(text)
        except AlgebraMismatch as err:
            raise SpecSyntaxError(str(err), span) from None

    def element(self):
        """An algebra element: a head expression with no argument heads."""
        expr = self.headexpr(params=None)
        try:
            return eval_headexpr(expr, (), self.algebra)
        except AlgebraMismatch as err:
            raise SpecSyntaxError(str(err), self.peek()[2]) from None

    # -- stream terms
    #
    # `params` is the parameter list inside a definition and None in an
    # equation.  One frame per factor: variables and numbers take the
    # direct path in factor(), the other primaries go through primary().

    def term(self, params):
        tokens = self.tokens
        start = self.pos
        first = self.product(params)
        op = tokens[self.pos][1]
        if op != "+" and op != "-":
            return self.bounded(first, start)
        # a parenthesised sum leading the chain joins it
        parts = list(first.summands) if type(first) is Sum else [(first, False)]
        while op == "+" or op == "-":
            self.pos += 1
            parts.append((self.product(params), op == "-"))
            op = tokens[self.pos][1]
        return self.bounded(Sum(tuple(parts)), start)

    def product(self, params):
        outer, self.links = self.links, 0
        left = self.factor(params)
        while self.tokens[self.pos][1] == "*":
            self.link()
            left = OpApp("*", (left, self.factor(params)))
        self.links = outer
        return left

    def factor(self, params):
        """A primary with its derivative marks, or a negated factor."""
        tokens = self.tokens
        tok = tokens[self.pos]
        kind, text, _ = tok
        if kind == "IDENT" and text not in KEYWORDS and tokens[self.pos + 1][1] != "(":
            self.pos += 1
            base = Var(text)
        elif kind == "NUMBER":
            base = Const(HLit(self.number_literal()))
        elif text == "-":
            self.enter("-")
            inner = self.factor(params)
            self.depth -= 1
            return OpApp("-", (inner,))
        else:
            base = self.primary(tok, params)
        order = 0
        while tokens[self.pos][1] == "'":
            self.pos += 1
            order += 1
        if order == 0:
            return base
        if isinstance(base, Var):
            return DVar(base.name, order)
        return TermDeriv(base, order)

    def primary(self, tok, params):
        kind, name, span = tok
        if name == "(":
            self.enter("(")
            inner = self.term(params)
            self.leave(")")
            return inner
        if name == "[":
            self.enter("[")
            start = self.pos
            expr = self.headexpr(params)
            self.leave("]")
            if params is None:
                # evaluated here, before the whole term's height is known,
                # above at most 5 parser frames per nesting level
                self.check_height(expr, start)
                ensure_recursion_room(5 * self.depth + 2 * MAX_HEIGHT + 1000)
                expr = HLit(eval_headexpr(expr, (), self.algebra))
            return Const(expr)
        if kind != "IDENT":
            raise SpecSyntaxError(f"unexpected {name!r} in term", span)
        if name == "X":
            self.pos += 1
            return OpApp("X", ())
        if name in _CALL_OPS:
            self.pos += 1
            args = self.call_args(params)
            arity = _CALL_OPS[name]
            if len(args) != arity:
                raise ArityMismatch(f"{name} takes {arity} argument(s)", span)
            return OpApp(name, args)
        if name in KEYWORDS:
            raise SpecSyntaxError(f"{name!r} cannot appear here", span)
        self.pos += 1  # a user operation: factor() saw the `(`
        return OpApp(name, self.call_args(params))

    def call_args(self, params):
        self.enter("(")
        args = []
        if not self.eat(")"):
            args.append(self.term(params))
            while self.eat(","):
                args.append(self.term(params))
            self.expect(")")
        self.depth -= 1
        return tuple(args)

    # -- resolution and flattening

    def finish(self):
        for d in self.defs.values():
            rule = self.def_rule(d)
            for clause in d.clauses:
                self.resolve(clause.deriv, rule, d.span)
        system = self.build_system() if (self.inits or self.tails or self.evens) else None
        return SpecFile(self.algebra, self.algebra_name, self.defs, system)

    def resolve(self, t, rule, span):
        """`t` with each Var and DVar replaced by rule(leaf), where rule
        reads the names of a definition, a system or a standalone term; a
        TermDeriv that rule() keeps is walked into.  Arity errors come at
        `span`.  A Sum or OpApp is rebuilt only if a part changed."""
        # loops, not comprehensions: one frame per level, not two
        cls = type(t)
        if cls is OpApp:
            self.check_arity(t, span)
            args = []
            for a in t.args:
                args.append(self.resolve(a, rule, span))
            for new, old in zip(args, t.args):
                if new is not old:
                    return OpApp(t.symbol, tuple(args))
        elif cls is Sum:
            parts = []
            for s, negated in t.summands:
                parts.append((self.resolve(s, rule, span), negated))
            for (new, _), (old, _) in zip(parts, t.summands):
                if new is not old:
                    return Sum(tuple(parts))
        elif cls is Var or cls is DVar:
            return rule(t)
        elif cls is TermDeriv:
            rule(t)
            self.resolve(t.term, rule, span)
        return t

    def check_arity(self, t, span):
        if t.symbol in BUILTIN_ARITY:
            arity = BUILTIN_ARITY[t.symbol]
            if len(t.args) not in (arity if isinstance(arity, tuple) else (arity,)):
                raise ArityMismatch(f"{t.symbol!r} applied to {len(t.args)} argument(s)",
                                    span)
        elif t.symbol in self.defs:
            if len(t.args) != self.defs[t.symbol].arity:
                raise ArityMismatch(
                    f"{t.symbol!r} takes {self.defs[t.symbol].arity} argument(s)", span)
        else:
            raise UnknownSymbol(f"unknown operation {t.symbol!r}", span)

    def def_rule(self, d):
        """A definition's names: its parameters."""
        def rule(t):
            if type(t) is not TermDeriv and t.name not in d.params:
                raise UnknownSymbol(f"{t.name!r} is not a parameter of {d.symbol!r}",
                                    d.span)
            return t
        return rule

    def system_rule(self, orders):
        """A system's names: its unknowns, x' below the order of x's
        equation as the auxiliary unknown x#1, and nullary definitions."""
        def rule(t):
            cls = type(t)
            if cls is Var:
                return t if t.name in orders or "#" in t.name else self.nullary_app(t)
            if cls is TermDeriv:
                raise SpecSyntaxError("derivative of a compound term on a right-hand side")
            order = orders.get(t.name)
            if order is None:
                raise UnknownSymbol(f"unknown stream variable {t.name!r}")
            if t.order >= order:
                raise SpecSyntaxError(
                    f"derivative {t.name + chr(39) * t.order} on a right-hand side "
                    "is not allowed (the equation has no unique solution)")
            return Var(f"{t.name}#{t.order}")
        return rule

    def term_rule(self, unknowns):
        """A standalone term's names: `unknowns`, nullary definitions."""
        def rule(t):
            if type(t) is TermDeriv:
                raise SpecSyntaxError("derivative of a compound term")
            if t.name in unknowns:
                return t
            if type(t) is Var:
                return self.nullary_app(t)
            raise UnknownSymbol(f"unknown stream variable {t.name!r}")
        return rule

    def nullary_app(self, t):
        """Var `t` as an application of the nullary definition it names."""
        d = self.defs.get(t.name)
        if d is None or d.arity:
            raise UnknownSymbol(f"unknown stream variable {t.name!r}")
        return OpApp(t.name, ())

    def build_system(self):
        if self.evens or self.odds:
            return self.build_even_odd()
        orders = {}
        for var, eq in self.tails.items():
            orders[var] = eq.order
        for var, slots in self.inits.items():
            if var not in self.tails:
                raise SpecSyntaxError(f"{var!r} has initial values but no equation",
                                      slots[min(slots)][1])
        ops = {eq.op for eq in self.tails.values()}
        if len(ops) > 1:
            raise SpecSyntaxError("cannot mix tail, delta, and ddx equations in one system")
        tail_op = ops.pop() if ops else "tail"
        if tail_op in ("delta", "ddx") and any(eq.order > 1 for eq in self.tails.values()):
            raise SpecSyntaxError("non-standard equations must be first order")

        # check initial values: order-n equation needs exactly orders 0..n-1
        heads = {}
        for var, eq in self.tails.items():
            slots = self.inits.get(var, {})
            for j in range(eq.order):
                if j not in slots:
                    missing = var + "'" * j
                    raise MissingInitialValue(
                        f"order-{eq.order} equation for {var!r} needs {missing}(0)",
                        eq.span)
            for j in slots:
                if j >= eq.order:
                    raise SpecSyntaxError(
                        f"initial value {var + chr(39) * j}(0) exceeds the equation order",
                        slots[j][1])
            heads[var] = slots[0][0]

        variables = []
        rhs = {}
        for var in self.var_order:
            if var not in self.tails:
                continue
            eq = self.tails[var]
            variables.append(var)
            if eq.order == 1:
                rhs[var] = eq.rhs
                continue
            for k in range(1, eq.order):
                fresh = f"{var}#{k}"
                variables.append(fresh)
                heads[fresh] = self.inits[var][k][0]
            rhs[var] = Var(f"{var}#1")
            for k in range(1, eq.order - 1):
                rhs[f"{var}#{k}"] = Var(f"{var}#{k + 1}")
            rhs[f"{var}#{eq.order - 1}"] = eq.rhs

        sys = EquationSystem(self.algebra, tuple(variables),
                             {v: heads[v] for v in variables},
                             tail_op=tail_op, rhs=rhs)
        rule = self.system_rule(orders)
        for var in variables:
            sys.rhs[var] = self.resolve(sys.rhs[var], rule, None)
        return sys

    def build_even_odd(self):
        if self.tails:
            raise SpecSyntaxError("cannot mix even-odd and derivative equations")
        variables = tuple(self.var_order)
        heads, evens, odds = {}, {}, {}
        for var in variables:
            slots = self.inits.get(var, {})
            if 0 not in slots:
                raise MissingInitialValue(f"{var!r} needs an initial value")
            heads[var] = slots[0][0]
            for table, label in ((self.evens, "even"), (self.odds, "odd")):
                if var not in table:
                    raise SpecSyntaxError(f"{var!r} has no {label} equation")
                target, span = table[var]
                if target not in self.var_order:
                    raise UnknownSymbol(f"unknown stream variable {target!r}", span)
                (evens if label == "even" else odds)[var] = target
        return EquationSystem(self.algebra, variables, heads,
                              tail_op="tail", evens=evens, odds=odds)


def _taller_than(root, limit):
    """Whether a parsed term, head expression or guard has a path of more
    than `limit` nodes below its root; walked level by level."""
    level = [root]
    for _ in range(limit + 1):
        level = [child for node in level for child in _children(node)]
        if not level:
            return False
    return True


def _children(node):
    cls = type(node)
    if cls is OpApp or cls is HOp or cls is BoolOp:
        return node.args
    if cls is Sum:
        return [t for t, _ in node.summands]
    if cls is Const:
        return (node.value,)
    if cls is TermDeriv:
        return (node.term,)
    if cls is Cmp:
        return (node.left, node.right)
    if cls is Not:
        return (node.arg,)
    return ()


def parse(text, algebra=None):
    """Parse DSL text into a SpecFile; `algebra` overrides the directive."""
    return _Parser(text, algebra_override=algebra).parse()


def parse_term(text, spec):
    """Parse a standalone term against a spec file's symbols."""
    parser = _Parser(text, algebra_override=spec.algebra)
    parser.defs = dict(spec.defs)
    term = parser.term(None)
    kind, text, span = parser.peek()
    if kind != "EOF":
        raise SpecSyntaxError(f"unexpected {text!r} after the term", span)
    unknowns = set(spec.system.variables) if spec.system else ()
    return parser.resolve(term, parser.term_rule(unknowns), None)


# ---------------------------------------------------------------------------
# Head expression evaluation


def eval_headexpr(expr, heads, alg):
    """Evaluate a head expression given the tuple of argument heads."""
    if isinstance(expr, HLit):
        return alg.coerce(expr.value)
    if isinstance(expr, HArg):
        return heads[expr.index]
    if isinstance(expr, HOp):
        # a loop, not a comprehension: one frame per level, not two
        args = []
        for a in expr.args:
            args.append(eval_headexpr(a, heads, alg))
        if expr.op == "+":
            return alg.add(*args)
        if expr.op == "*":
            return alg.mul(*args)
        if expr.op == "-" or expr.op == "neg":
            # the engine's message for either `-` of a definition's out
            if alg.neg is None:
                raise UnsupportedOp(f"{alg.name} has no negation")
            return alg.neg(args[0]) if expr.op == "neg" else alg.sub(*args)
        if expr.op == "inv" or expr.op == "sqrt":
            return head_root(expr.op, args[0], alg)
    raise AlgebraMismatch(f"bad head expression {expr!r}")


def head_root(op, value, alg):
    """`inv` or `sqrt` (`op`) of an element, as a head expression takes it."""
    if op == "inv":
        if alg.inv is None:
            raise UnsupportedOp(f"{alg.name} has no inverses")
        root = alg.inv(value)
        if root is None:
            raise HeadNotInvertible(f"{alg.fmt(value)} has no inverse")
        return root
    if alg.sqrt is None:
        raise NoExactSqrt(f"{alg.name} has no square roots")
    root = alg.sqrt(value)
    if root is None:
        raise NoExactSqrt(f"{alg.fmt(value)} has no exact square root")
    return root


# ---------------------------------------------------------------------------
# Classification
#
# The formats are shapes of the right-hand sides' polynomials, read with
# the algebra's arithmetic, so monomials that cancel (x*y - x*y, or
# 2*x*x over F2) do not make a system less specific.
#
# A product of two polynomials that each have a nonempty word has a word
# of two letters or more: words multiply freely, and no algebra of
# get_algebra has zero divisors.  So it is not linear, whatever it
# expands to, and only the cancellation of that word by other summands
# could make its right-hand side more specific than context-free.  Such a
# product with more than MAX_EXPANDED_MONOMIALS monomials before
# cancellation is not expanded, and a term that contains one reads as
# UNEXPANDED: (s+X)*...*(s+X) has 2^k words for k factors.
MAX_EXPANDED_MONOMIALS = 4096
UNEXPANDED = object()


def as_polynomial(t, alg):
    """Interpret a term as a polynomial over words of variables (and X).

    Returns {word-tuple: coefficient}, UNEXPANDED, or None.  The empty
    word stands for [1]; plain constants embed as coefficient * empty
    word.  No coefficient is zero.  None, no polynomial form, wins over
    UNEXPANDED, a polynomial that is not linear and too large to expand.
    """
    cls = type(t)
    if cls is Var:
        return {(t.name,): alg.one}
    if cls is Const:
        if type(t.value) is not HLit:
            return None
        c = alg.coerce(t.value.value)
        return {} if alg.is_zero(c) else {(): c}
    # products before sums: c*v is the commonest node of a linear system
    if cls is OpApp and t.symbol == "*" and len(t.args) == 2:
        left = as_polynomial(t.args[0], alg)
        right = as_polynomial(t.args[1], alg)
        if left is None or right is None:
            return None
        if left is UNEXPANDED or right is UNEXPANDED:
            return UNEXPANDED
        if len(left) * len(right) > MAX_EXPANDED_MONOMIALS and any(left) and any(right):
            return UNEXPANDED
        return poly_mul(left, right, alg)
    parts = summands(t)
    if parts is not None:
        total = {}
        for s, negated in parts:
            if negated and alg.neg is None:
                return None
            inner = as_polynomial(s, alg)
            if inner is None:
                return None
            if inner is UNEXPANDED or total is UNEXPANDED:
                total = UNEXPANDED
                continue
            for w, c in inner.items():
                _add_monomial(total, w, alg.neg(c) if negated else c, alg)
        return total
    if cls is OpApp:
        if t.symbol == "X" and not t.args:
            return {("X",): alg.one}
        if t.symbol == "-" and len(t.args) == 1 and alg.neg is not None:
            inner = as_polynomial(t.args[0], alg)
            if inner is None or inner is UNEXPANDED:
                return inner
            return {w: alg.neg(c) for w, c in inner.items()}
    return None


def _add_monomial(out, w, c, alg):
    """Add c*w, c nonzero, into the polynomial out, in place."""
    if w in out:
        c = alg.add(out[w], c)
        if alg.is_zero(c):
            del out[w]
            return
    out[w] = c


def poly_mul(p, q, alg):
    # no algebra of get_algebra has zero divisors, so the product of two
    # nonzero coefficients is nonzero
    out = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            _add_monomial(out, w1 + w2, alg.mul(c1, c2), alg)
    return out


def is_single_unknown(word):
    """Whether a word of as_polynomial is one unknown: not X, not the
    empty word of a constant, not a product."""
    return len(word) == 1 and word[0] != "X"


def classify(sys):
    """The most specific format an equation system falls in: even-odd or
    non-standard by its equations, else general if a right-hand side has
    no polynomial form, context-free if one is UNEXPANDED or a monomial
    is not a single unknown, simple if every right-hand side is one
    unknown with coefficient one, and linear if not."""
    if sys.evens:
        return Kind.EVEN_ODD
    if sys.tail_op != "tail":
        return Kind.NONSTD
    alg = sys.algebra
    polys = sys.polynomials.values()
    if any(p is None for p in polys):
        return Kind.GENERAL
    if any(p is UNEXPANDED for p in polys) or not all(
            is_single_unknown(w) for p in polys for w in p):
        return Kind.CONTEXT_FREE
    if all(len(p) == 1 and alg.eq(*p.values(), alg.one) for p in polys):
        return Kind.SIMPLE
    return Kind.LINEAR


# ---------------------------------------------------------------------------
# GSOS validation


@dataclass(frozen=True)
class Ok:
    sos: bool = False


@dataclass(frozen=True)
class Violation:
    reason: str
    span: tuple = field(default=None, compare=False)


def validate_gsos(d):
    """Check that a definition is in the stream GSOS shape.

    The derivative terms must live in T_Sigma({x1..xk, y1..yk}): no
    higher derivatives, no derivative applied to a compound term.  The
    guard list must be exhaustive: a final `otherwise`, or a complete
    three-way comparison of one pair of head expressions.
    """
    uses_x = False
    for clause in d.clauses:
        issue, clause_uses_x = _scan_deriv(clause.deriv)
        if issue is not None:
            return Violation(issue, d.span)
        uses_x = uses_x or clause_uses_x
    if not _guards_exhaustive(d.clauses):
        return Violation("guards are not exhaustive", d.span)
    return Ok(sos=not uses_x)


def _scan_deriv(t):
    if isinstance(t, TermDeriv):
        return "derivative applied to a compound term", False
    if isinstance(t, DVar):
        if t.order >= 2:
            return "higher derivative of an argument", False
        return None, False
    if isinstance(t, Var):
        return None, True
    if isinstance(t, (OpApp, Sum)):
        uses_x = False
        for a in t.args if isinstance(t, OpApp) else (s for s, _ in t.summands):
            issue, sub_x = _scan_deriv(a)
            if issue is not None:
                return issue, False
            uses_x = uses_x or sub_x
        return None, uses_x
    return None, False


def _guards_exhaustive(clauses):
    if clauses and clauses[-1].guard is None:
        return all(c.guard is not None for c in clauses[:-1])
    guards = [c.guard for c in clauses]
    if len(guards) != 3 or not all(isinstance(g, Cmp) for g in guards):
        return False
    pairs = {(g.left, g.right) for g in guards}
    if len(pairs) != 1:
        return False
    return {g.op for g in guards} == {"<", "=", ">"}


# ---------------------------------------------------------------------------
# Zero consistency for even-odd systems


@dataclass(frozen=True)
class ZeroConsistent:
    pass


@dataclass(frozen=True)
class ZeroInconsistent:
    state: str


def check_zero_consistency(sys):
    """Every variable must satisfy x(0) = (even x)(0)."""
    alg = sys.algebra
    for var in sys.variables:
        target = sys.evens[var]
        if not alg.eq(sys.heads[var], sys.heads[target]):
            return ZeroInconsistent(var)
    return ZeroConsistent()


def require_zero_consistency(sys):
    verdict = check_zero_consistency(sys)
    if isinstance(verdict, ZeroInconsistent):
        raise NotZeroConsistent(verdict.state)


# ---------------------------------------------------------------------------
# Printing (parse . print == identity on ASTs)


def format_headexpr(expr, alg, params, level=0):
    if isinstance(expr, HLit):
        text = alg.fmt(expr.value)
        if text.startswith("-") and level > 0:
            return f"({text})"
        return text
    if isinstance(expr, HArg):
        return f"{params[expr.index]}(0)"
    op = expr.op
    if op == "neg":
        return f"-{format_headexpr(expr.args[0], alg, params, 3)}"
    if op == "inv":
        return f"inv({format_headexpr(expr.args[0], alg, params)})"
    if op == "sqrt":
        return f"sqrt({format_headexpr(expr.args[0], alg, params)})"
    own = 1 if op in ("+", "-") else 2
    left = format_headexpr(expr.args[0], alg, params, own)
    right = format_headexpr(expr.args[1], alg, params, own + 1)
    text = f"{left} {op} {right}"
    return f"({text})" if own < level else text


def format_term(t, alg, params=(), level=0):
    if isinstance(t, Var):
        return t.name
    if isinstance(t, DVar):
        return t.name + "'" * t.order
    if isinstance(t, TermDeriv):
        return format_term(t.term, alg, params, 4) + "'" * t.order
    if isinstance(t, Const):
        return f"[{format_headexpr(t.value, alg, params)}]"
    parts = summands(t)
    if parts is not None:
        first, _ = parts[0]
        text = format_term(first, alg, params, 1) + "".join(
            f" {'-' if negated else '+'} {format_term(s, alg, params, 2)}"
            for s, negated in parts[1:])
        return f"({text})" if level > 1 else text
    if isinstance(t, OpApp):
        sym = t.symbol
        if sym == "X":
            return "X"
        if sym == "-" and len(t.args) == 1:
            return f"-{format_term(t.args[0], alg, params, 3)}"
        if sym == "*":
            left = format_term(t.args[0], alg, params, 2)
            right = format_term(t.args[1], alg, params, 3)
            text = f"{left} * {right}"
            return f"({text})" if level > 2 else text
        args = ", ".join(format_term(a, alg, params) for a in t.args)
        return f"{sym}({args})"
    raise TypeError(f"not a term: {t!r}")


def format_guard(g, alg, params):
    if isinstance(g, Cmp):
        return (f"{format_headexpr(g.left, alg, params)} {g.op} "
                f"{format_headexpr(g.right, alg, params)}")
    if isinstance(g, BoolOp):
        return f" {g.op} ".join(format_guard(a, alg, params) for a in g.args)
    if isinstance(g, Not):
        return f"not ({format_guard(g.arg, alg, params)})"
    raise TypeError(f"not a guard: {g!r}")


def print_spec(spec):
    lines = [f"algebra {spec.algebra_name};"]
    alg = spec.algebra
    for d in spec.defs.values():
        header = f"def {d.symbol}({', '.join(d.params)})"
        if len(d.clauses) == 1 and d.clauses[0].guard is None:
            c = d.clauses[0]
            lines.append(f"{header} {{ out = {format_headexpr(c.out, alg, d.params)}; "
                         f"deriv = {format_term(c.deriv, alg, d.params)}; }}")
        else:
            lines.append(header + " {")
            for c in d.clauses:
                head = ("otherwise" if c.guard is None
                        else f"when {format_guard(c.guard, alg, d.params)}")
                lines.append(f"  {head} => {{ out = {format_headexpr(c.out, alg, d.params)}; "
                             f"deriv = {format_term(c.deriv, alg, d.params)}; }}")
            lines.append("}")
    sys = spec.system
    if sys is not None:
        for var in sys.variables:
            lines.append(f"{var}(0) = {alg.fmt(sys.heads[var])};")
        for var in sys.variables:
            if sys.evens:
                lines.append(f"even({var}) = {sys.evens[var]};")
                lines.append(f"odd({var}) = {sys.odds[var]};")
            elif sys.tail_op == "tail":
                lines.append(f"{var}' = {format_term(sys.rhs[var], alg)};")
            else:
                lines.append(f"{sys.tail_op}({var}) = {format_term(sys.rhs[var], alg)};")
    return "\n".join(lines) + "\n"
