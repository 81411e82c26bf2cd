"""Command line front end.

Exit codes: 0 success / proof; 1 refutation or validation failure;
2 unknown / budget exhausted / non-productive; 3 parse or usage errors.
Output is plain deterministic text; diagnostics go to stderr as single
`error: <Kind>: <message>` lines.
"""

import functools
import re
import sys
from types import SimpleNamespace
from typing import NamedTuple

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


class _Argument(NamedTuple):
    """A positional or an option of a command: its value goes to `dest`,
    read as an int of at least `low` when `kind` is int.  An option
    absent from argv leaves `default`, unless it is `required`; every
    positional is required."""

    dest: str
    metavar: str
    help: str = ""
    kind: type = str
    low: int | None = None
    default: object = None
    required: bool = False

    def read(self, text):
        if self.kind is str:
            return text
        try:
            value = int(text)
        except ValueError:
            raise UsageError(f"invalid int value: {text!r}") from None
        if self.low is not None and value < self.low:
            raise UsageError(f"must be at least {self.low}, got {value}")
        return value


class _Command(NamedTuple):
    """A command: the function that runs it on the parsed arguments and
    `out`, its one-line help, its positionals in order, and its options
    by name."""

    run: object
    help: str
    positionals: tuple
    options: dict

    def help_text(self, name):
        flags = [f"{flag} {o.metavar}" if o.required else f"[{flag} {o.metavar}]"
                 for flag, o in self.options.items()]
        usage = " ".join(["usage: streamcalc", name, "[-h]", *flags,
                          *(p.metavar for p in self.positionals)])
        rows = [("-h, --help", "show this help message and exit")]
        for flag, o in self.options.items():
            default = "" if o.default is None else f" (default {o.default})"
            rows.append((f"{flag} {o.metavar}", o.help + default))
        return "\n".join([usage, "", self.help, "", "options:",
                          *(f"  {left:<20}{right}" for left, right in rows)])


_HELP = ("-h", "--help")


def _help(text, out):
    print(text, file=out)
    return EXIT_OK


def _top_help():
    rows = (f"  {name:<14}{command.help}" for name, command in _COMMANDS.items())
    return "\n".join(["usage: streamcalc [-h] <command> ...", "", __doc__.strip(), "",
                      "commands:", *rows, "",
                      "`streamcalc <command> -h` lists the arguments of a command."])


def _parse(argv):
    """The function that runs the command argv names, and the arguments
    it takes: a namespace of argv's values read against the command's
    table entry, or the help text to print.

    An option's value is the rest of its token after `=`, or else the
    next token, whatever it is; the last occurrence wins.  A token is an
    option if it starts with `-`, unless it is `-` alone or `-` and a
    digit, and comes before `--`.  -h or --help anywhere among the
    options asks for help, even after a value that is not valid."""
    tokens = iter(argv)
    name = next(tokens, None)
    if name is None:
        raise UsageError("the following arguments are required: command")
    if name in _HELP:
        return _help, _top_help()
    command = _COMMANDS.get(name)
    if command is None:
        choices = ", ".join(map(repr, _COMMANDS))
        raise UsageError(f"argument command: invalid choice: {name!r} "
                         f"(choose from {choices})")
    values = {o.dest: o.default for o in command.options.values()}
    positionals = iter(command.positionals)
    extra, problem, options_ended = [], None, False
    for token in tokens:
        if options_ended or token[:1] != "-" or token == "-" or "0" <= token[1] <= "9":
            argument, flag, value = next(positionals, None), None, token
            if argument is None:
                extra.append(token)
                continue
        elif token == "--":
            options_ended = True
            continue
        elif token in _HELP:
            return _help, command.help_text(name)
        else:
            flag, eq, value = token.partition("=")
            argument = command.options.get(flag)
            if argument is None:
                extra.append(token)
                continue
            if not eq:
                value = next(tokens, None)
                if value is None:
                    problem = problem or f"argument {flag}: expected one argument"
                    continue
        try:
            values[argument.dest] = argument.read(value)
        except UsageError as bad:
            problem = problem or f"argument {flag or argument.metavar}: {bad}"
    if problem:
        raise UsageError(problem)
    missing = [p.metavar for p in positionals] + [
        flag for flag, o in command.options.items() if o.required and values[o.dest] is None]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extra:
        raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
    return command.run, SimpleNamespace(**values)


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


def _engine(spec):
    """A function that makes the engine of a spec's definitions on its
    first call, and returns that engine on every call: one per request,
    and none where no definition runs on it; None for a spec without
    definitions.  The caller has refused an invalid definition
    (SpecFile.require_gsos)."""
    if not spec.defs:
        return None
    made = []

    def engine():
        if not made:
            made.append(gsos.Engine(spec.algebra, spec.defs, validated=True))
        return made[0]
    return engine


def _solve_spec(spec):
    """Solution streams of a loaded spec's system, whatever its format,
    once every definition of the file is found valid; a definition that
    is no builtin runs on the engine of the file's definitions."""
    spec.require_gsos()
    return series.solve_by_coefficients(spec.required_system(), engine=_engine(spec))


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
    spec.require_gsos()
    # a system's unknowns are the streams `solve` prints, leaves of the term
    stream = series.evaluate(term, spec.algebra, spec.system, spec.builtins, _engine(spec))
    values = take(stream, args.count, args.budget)
    print(_format_prefix(spec.algebra, values), file=out)
    return EXIT_OK


def _cmd_closed_form(args, out):
    path, var = _selector(args.selector)
    spec = _load(path, args.algebra)
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
    for name, verdict in spec.verdicts.items():
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


_SPEC_VAR = _Argument("selector", "SPEC#VAR")
_COUNT = {"-n": _Argument("count", "N", "elements to print", int, 0, 20)}
_BUDGET = {"--budget": _Argument("budget", "N", "evaluation step budget", int, 1, 10_000)}
_ALGEBRA = {"--algebra": _Argument("algebra", "NAME",
                                   "algebra in place of the one the file names")}

# every command: the function that runs it, its positionals, its options
_COMMANDS = {
    "solve": _Command(_cmd_solve, "print a solution prefix", (_SPEC_VAR,),
                      {**_COUNT, **_BUDGET, **_ALGEBRA}),
    "eval": _Command(_cmd_eval, "evaluate a term over a definition file", (), {
        "--defs": _Argument("defs", "FILE", "the definition file", required=True),
        "--term": _Argument("term", "TERM", "the term to evaluate", required=True),
        **_COUNT, **_BUDGET, **_ALGEBRA}),
    "closed-form": _Command(_cmd_closed_form, "rational closed form of a linear system",
                            (_SPEC_VAR,), _ALGEBRA),
    "equiv": _Command(_cmd_equiv, "decide or semi-decide stream equality", (
        _Argument("left", "SPECA#VAR"), _Argument("right", "SPECB#VAR")), {
        "--up-to": _Argument("up_to", "OPS",
                             "comma-separated operations for the congruence closure"),
        "--prefix": _Argument("prefix", "N", "refutation pre-scan depth", int, 0, 64),
        **_BUDGET, **_ALGEBRA}),
    "kernel": _Command(_cmd_kernel, "2-kernel of a stream", (_SPEC_VAR,),
                       {**_BUDGET, **_ALGEBRA}),
    "at": _Command(_cmd_at, "single element by bbin indexing",
                   (_Argument("index", "index", kind=int), _SPEC_VAR), {**_BUDGET, **_ALGEBRA}),
    "bbin": _Command(_cmd_bbin, "binary expansion of a rational",
                     (_Argument("rational", "rational"),), _COUNT),
    "check": _Command(_cmd_check, "parse, classify, validate, probe",
                      (_Argument("spec", "spec"),), {**_BUDGET, **_ALGEBRA}),
}


def run(argv=None, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    # put back what deep inputs raised, so no request depends on earlier ones
    limit = sys.getrecursionlimit()
    try:
        command, args = _parse(sys.argv[1:] if argv is None else argv)
        return command(args, out)
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
