"""Command line front end.

Exit codes: 0 success / proof; 1 refutation or validation failure;
2 unknown / budget exhausted / non-productive; 3 parse or usage errors.
Output is plain deterministic text; diagnostics go to stderr as single
`error: <Kind>: <message>` lines.
"""

import argparse
import functools
import re
import sys

from . import automatic, equivalence, gsos, series, speclang
from .algebra import format_ratexpr, get_algebra, rationals
from .errors import (
    AlgebraMismatch,
    BudgetExhausted,
    GsosViolation,
    SpecError,
    StreamCalcError,
    UnsupportedOp,
    UsageError,
)
from .speclang import Kind
from .stream import take

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3


class _HelpRequested(Exception):
    """-h or --help, whose text argparse would print to sys.stdout."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())


def _int_at_least(low):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _build_parser():
    parser = _ArgumentParser(prog="streamcalc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget=True, count=True, algebra=True):
        if count:
            p.add_argument("-n", type=_int_at_least(0), default=20, dest="count")
        if budget:
            p.add_argument("--budget", type=_int_at_least(1), default=10_000)
        if algebra:
            p.add_argument("--algebra", default=None)

    p = sub.add_parser("solve", help="print a solution prefix")
    p.add_argument("selector", metavar="SPEC#VAR")
    common(p)

    p = sub.add_parser("eval", help="evaluate a term over a definition file")
    p.add_argument("--defs", required=True)
    p.add_argument("--term", required=True)
    common(p)

    p = sub.add_parser("closed-form", help="rational closed form of a linear system")
    p.add_argument("selector", metavar="SPEC#VAR")
    common(p, budget=False, count=False)

    p = sub.add_parser("equiv", help="decide or semi-decide stream equality")
    p.add_argument("left", metavar="SPECA#VAR")
    p.add_argument("right", metavar="SPECB#VAR")
    p.add_argument("--up-to", dest="up_to", default=None,
                   help="comma-separated operations for the congruence closure")
    p.add_argument("--prefix", type=_int_at_least(0), default=64,
                   help="refutation pre-scan depth")
    common(p, count=False)

    p = sub.add_parser("kernel", help="2-kernel of a stream")
    p.add_argument("selector", metavar="SPEC#VAR")
    common(p, count=False)

    p = sub.add_parser("at", help="single element by bbin indexing")
    p.add_argument("index", type=int)
    p.add_argument("selector", metavar="SPEC#VAR")
    common(p, count=False)

    p = sub.add_parser("bbin", help="binary expansion of a rational")
    p.add_argument("rational")
    common(p, budget=False, algebra=False)

    p = sub.add_parser("check", help="parse, classify, validate, probe")
    p.add_argument("spec")
    common(p, count=False)
    return parser


def _load(path, algebra_name):
    override = None
    if algebra_name:
        try:
            override = get_algebra(algebra_name)
        except UnsupportedOp as err:
            raise UsageError(str(err)) from None
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as unreadable:
        # a missing file, a directory, or a file that is not UTF-8 text
        raise UsageError(str(unreadable)) from None
    return _parsed(text, override)


SPEC_CACHE_SIZE = 64


@functools.lru_cache(maxsize=SPEC_CACHE_SIZE)
def _parsed(text, override):
    # parsing is a pure function of the text and the override, and a
    # parsed system keeps its format and series plan once read, so a text
    # seen again reuses all three; nothing that raises is kept, and no
    # command changes a parsed spec
    return speclang.parse(text, algebra=override)


# file.sde#var: the unknown is the longest suffix after a `#` that is an
# identifier as the lexer reads one (a letter or `_`, then word
# characters and `#`), so a file name may hold `#` and an auxiliary
# unknown such as `s#1` can be named
_SELECTOR = re.compile(r"(.*?)#([^\W\d][\w#]*)", re.DOTALL)


def _selector(text):
    match = _SELECTOR.fullmatch(text)
    if match is None:
        raise UsageError(f"selector {text!r} must look like file.sde#var")
    return match.groups()


def _system(spec):
    if spec.system is None:
        raise SpecError("the file defines no equation system")
    return spec.system


def _solve_spec(spec, engine=None):
    """Solution streams of a loaded spec's system, whatever its format; the
    engine of the file's definitions, which refuses an invalid one, applies
    them (a new one unless `engine` is given)."""
    engine = engine or gsos.Engine(spec.algebra, spec.defs)
    return series.solve_by_coefficients(_system(spec), engine=engine)


def _stream_of(spec, path, var):
    """The solution stream of unknown `var` of the system of `spec`, read
    from the file `path`."""
    streams = _solve_spec(spec)
    if var not in streams:
        raise SpecError(f"no variable {var!r} in {path}")
    return streams[var]


def _format_prefix(alg, values):
    return ", ".join(alg.fmt(v) for v in values)


def _cmd_solve(args, out):
    path, var = _selector(args.selector)
    spec = _load(path, args.algebra)
    values = take(_stream_of(spec, path, var), args.count, args.budget)
    print(_format_prefix(spec.algebra, values), file=out)
    return EXIT_OK


def _cmd_eval(args, out):
    spec = _load(args.defs, args.algebra)
    term = speclang.parse_term(args.term, spec)
    engine = gsos.Engine(spec.algebra, spec.defs)
    # a system's unknowns are the streams `solve` prints, leaves of the term
    env = _solve_spec(spec, engine) if spec.system else None
    state = engine.from_term(term, env)
    values = take(engine.behaviour(state), args.count, args.budget)
    print(_format_prefix(spec.algebra, values), file=out)
    return EXIT_OK


def _cmd_closed_form(args, out):
    path, var = _selector(args.selector)
    spec = _load(path, args.algebra)
    _system(spec)  # closed_form reads the system's format
    form = equivalence.closed_form(spec, var)
    if form is None:
        raise SpecError(f"no variable {var!r} in {path}")
    print(format_ratexpr(form), file=out)
    return EXIT_OK


def _cmd_equiv(args, out):
    path_a, var_a = _selector(args.left)
    path_b, var_b = _selector(args.right)
    spec_a = _load(path_a, args.algebra)
    spec_b = _load(path_b, args.algebra)
    verdict = equivalence.decide((spec_a, var_a, path_a), (spec_b, var_b, path_b),
                                 args.up_to, args.prefix, args.budget)
    if isinstance(verdict, equivalence.Proved):
        print("Proved", *verdict.certificate.render(), sep="\n", file=out)
        return EXIT_OK
    if isinstance(verdict, equivalence.Refuted):
        alg = spec_a.algebra
        print(f"Refuted at index {verdict.index}: {alg.fmt(verdict.left)} != "
              f"{alg.fmt(verdict.right)}", file=out)
        return EXIT_REFUTED
    print(f"Unknown ({verdict.reason})", file=out)
    return EXIT_UNKNOWN


def _cmd_kernel(args, out):
    path, var = _selector(args.selector)
    spec = _load(path, args.algebra)
    stream = _stream_of(spec, path, var)
    # an even-odd stream's kernel is exact: its members are automaton states
    sys_ = spec.system
    aut = automatic.compile_evenodd(sys_) if sys_.evens else None
    result = automatic.kernel2(stream, budget=min(args.budget, 512),
                               steps=args.budget, automaton=aut, state=var)
    if isinstance(result, automatic.KernelUnknown):
        print("Unknown (kernel did not close within the budget)", file=out)
        return EXIT_UNKNOWN
    label = "exact" if result.exact else "heuristic"
    print(f"2-kernel ({label}, {len(result.automaton.states)} states):", file=out)
    print(result.automaton.dump(), file=out)
    return EXIT_OK


def _cmd_at(args, out):
    path, var = _selector(args.selector)
    spec = _load(path, args.algebra)
    if args.index < 0:
        raise UsageError("the index must be nonnegative")
    stream = _stream_of(spec, path, var)
    if spec.system.evens:
        # bbin indexing on the 2-automaton, in time logarithmic in the index
        aut = automatic.compile_evenodd(spec.system)
        value = automatic.value_at(aut, var, args.index)
    else:
        value = take(stream, args.index + 1, args.budget)[-1]
    print(spec.algebra.fmt(value), file=out)
    return EXIT_OK


def _cmd_bbin(args, out):
    try:
        q = rationals().parse(args.rational)
    except AlgebraMismatch:
        raise UsageError(f"{args.rational!r} is not a rational number") from None
    bits = automatic.binary_encode_rational(q, args.count)
    print(" ".join(str(b) for b in bits), file=out)
    return EXIT_OK


def _cmd_check(args, out):
    spec = _load(args.spec, args.algebra)
    status = EXIT_OK
    defs = len(spec.defs)
    eqs = len(spec.system.variables) if spec.system else 0
    print(f"parse: ok (algebra {spec.algebra.name}, {eqs} unknown(s), "
          f"{defs} definition(s))", file=out)
    for name, d in spec.defs.items():
        verdict = speclang.validate_gsos(d)
        if isinstance(verdict, speclang.Ok):
            shape = "sos" if verdict.sos else "gsos"
            print(f"def {name}: ok ({shape})", file=out)
        else:
            print(f"def {name}: violation ({verdict.reason})", file=out)
            status = max(status, EXIT_REFUTED)
    sys_ = spec.system
    if sys_ is None:
        return status
    kind = sys_.kind
    print(f"kind: {kind.value}", file=out)
    if kind is Kind.EVEN_ODD:
        verdict = speclang.check_zero_consistency(sys_)
        if isinstance(verdict, speclang.ZeroConsistent):
            print("zero-consistency: ok", file=out)
        else:
            print(f"zero-consistency: violation at {verdict.state}", file=out)
            return max(status, EXIT_REFUTED)
    try:
        streams = _solve_spec(spec)
    except StreamCalcError as err:
        print(f"solve: failed ({err})", file=out)
        return max(status, EXIT_REFUTED)
    for var in sys_.variables:
        try:
            values = take(streams[var], 3, args.budget)
        except BudgetExhausted as err:
            kind_name = type(err).__name__
            print(f"probe {var}: {kind_name} at index {err.index}", file=out)
            status = max(status, EXIT_UNKNOWN)
        else:
            print(f"probe {var}: ok ({_format_prefix(spec.algebra, values)})",
                  file=out)
    return status


_COMMANDS = {
    "solve": _cmd_solve,
    "eval": _cmd_eval,
    "closed-form": _cmd_closed_form,
    "equiv": _cmd_equiv,
    "kernel": _cmd_kernel,
    "at": _cmd_at,
    "bbin": _cmd_bbin,
    "check": _cmd_check,
}


_PARSER = _build_parser()


def run(argv=None, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    # put back what deep inputs raised, so no request depends on earlier ones
    limit = sys.getrecursionlimit()
    try:
        args = _PARSER.parse_args(argv)
        return _COMMANDS[args.command](args, out)
    except _HelpRequested as shown:
        print(shown, file=out, end="")
        return EXIT_OK
    except UsageError as use:
        print(f"error: usage: {use}", file=err)
        return EXIT_USAGE
    except GsosViolation as violation:
        print(f"error: GsosViolation: {violation}", file=err)
        return EXIT_REFUTED
    except SpecError as spec_err:
        print(f"error: {type(spec_err).__name__}: {spec_err}", file=err)
        return EXIT_USAGE
    except BudgetExhausted as stalled:
        print(f"error: {type(stalled).__name__}: {stalled}", file=err)
        return EXIT_UNKNOWN
    except StreamCalcError as failure:
        print(f"error: {type(failure).__name__}: {failure}", file=err)
        return EXIT_REFUTED
    finally:
        sys.setrecursionlimit(limit)


def main():
    raise SystemExit(run())
