"""Record the command line's answers on a set of specs, and compare them later.

    PYTHONPATH=src python tools/cli_parity.py record OUT.json [SPEC ...]
    PYTHONPATH=src python tools/cli_parity.py compare OUT.json

The specs default to corpus/*.sde.  For each spec the runs are `check`;
`eval --defs SPEC --term T -n 12` for each closed term T of EVAL_TERMS,
which together apply every GSOS builtin on the engine, and of
DEFS_TERMS too where the spec defines `plus` and `times`; where the spec
has a system, `eval` of UNKNOWN_TERM over its first unknown, so that a
system unknown and its derivative are resolved as free names of a term,
and of DEFS_UNKNOWN_TERM too where it defines `plus` and `times`;
and on every unknown `solve`, `solve -n 200 --budget 60`, `at 30`, `kernel`,
`closed-form`, `equiv` against the spec's first unknown, and `equiv
--prefix 0 --budget 60` against it, so that the up-to search answers and
not the prefix scan, and the same with `--up-to +,*`, so that its
congruence steps cross only those two operations, and with `--up-to
+,-,*`, whose `-` crosses unary and binary minus; each without an
algebra override and under each of the seven `--algebra` values.  Then
`solve -n 900` on every unknown without an override.  The unknowns and
definitions are those of the spec parsed without override; a spec that
does not parse gets its `check` and `eval` runs only.  `record` follows
the specs' runs with the fixed argvs of FRONT_END, which exercise how the command
line is read: usage errors, `--opt=value`, `--`, negative numbers and
option values that start with `-`.

Every run goes in-process through streamcalc.cli.run, with the package
that is importable, so recording under one PYTHONPATH and comparing
under another compares two versions of the code.  Each run starts from
the interpreter's recursion limit at start-up, as a fresh process would,
whatever an earlier run raised it to.  A run records its
exit code, stdout and stderr; an exception that escapes cli.run is
recorded as its class and message.  `compare` repeats the recorded
runs, each twice in a row, prints each one whose first answer differs
from the record or whose second differs from its first, then how many
of them differ only in that BudgetExhausted comes at an earlier index,
how many only in that it comes at a later one, how many only in a
verdict upgrade (an `equiv` that printed Unknown or ended in
BudgetExhausted now prints Proved), how many ran out of budget and now
answer (a run that ended in BudgetExhausted, or a `kernel` that did not
close within the budget, now exits 0), how many were NonProductive and
now exit 0 or run out of budget where they were NonProductive, at the
same or a later index, and how many differ in any other way, the
number of them per command, spec file and flags (the --algebra override
aside), and their total, and exits 1 if any differs.  cli.run keeps the parsed form of recent spec
texts and the `series` plan of their systems, so the second answer
comes from that cache and reuses the cached plan, and so do first
answers whose spec an earlier run has loaded.  (A second pass over the
whole shape would not find them there: the corpus shape loads more
distinct texts and --algebra values than the cache holds.)
"""

import argparse
import collections
import io
import json
import pathlib
import re
import sys

ALGEBRAS = (None, "Q", "Z", "Nat", "Bool", "Tropical", "F2", "Fp(5)")
PER_UNKNOWN = (
    ("solve",),
    ("solve", "-n", "200", "--budget", "60"),
    ("at", "30"),
    ("kernel",),
)
EQUIV_FLAGS = (
    (),
    ("--prefix", "0", "--budget", "60"),
    ("--prefix", "0", "--budget", "60", "--up-to", "+,*"),
    ("--prefix", "0", "--budget", "60", "--up-to", "+,-,*"),
)
# closed terms for `eval`: + * - X; neg shuffle inv; hadamard sqrt zip;
# merge, whose clauses have guards
EVAL_TERMS = (
    "(X + 2) * (1 + X*X) - X",
    "-shuffle(X + 1, inv(1 + X))",
    "hadamard(sqrt(1 + X), zip(X, 1 + X))",
    "merge(X + 1, 2*X + X*X)",
)
# and over the `plus` and `times` of corpus/defs_*.sde
DEFS_TERMS = ("plus(X, 1)", "times(1 + X, plus(X, times(X, 2)))")
# over the first unknown u of a spec's system: u' + u * X, and where the
# spec defines them, times(u, plus(u', X))
UNKNOWN_TERM = "{u}' + {u} * X"
DEFS_UNKNOWN_TERM = "times({u}, plus({u}', X))"
CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
_FIB, _DEFS = str(CORPUS / "fib.sde"), str(CORPUS / "defs_arith.sde")
# how argv is read, on two corpus files; no -h, whose text is not pinned
FRONT_END = (
    (),
    ("frob",),
    ("solve",),
    ("eval",),
    ("solve", f"{_FIB}#s", "-n"),
    ("solve", f"{_FIB}#s", "-n", "x"),
    ("at", "x", f"{_FIB}#s"),
    ("check", "a", "b"),
    ("solve", f"{_FIB}#s", "--bogus", "1"),
    ("solve", f"{_FIB}#s", "--budget=50", "-n=4"),
    ("solve", f"{_FIB}#s", "-n", "2", "-n", "3"),
    ("equiv", f"{_FIB}#s", f"{_FIB}#s", "--prefix=0", "--up-to=-,+"),
    ("eval", f"--defs={_DEFS}", "--term=-X", "-n", "3"),
    ("bbin", "-n", "6", "--", "-2/5"),
    ("solve", "-n", "3", "--", f"{_FIB}#s"),
    ("solve", "--", f"{_FIB}#s", "-n", "2"),
    ("at", "-1", f"{_FIB}#s"),
    ("at", "7", f"{_FIB}#s", "--budget", "-1"),
    ("solve", f"{_FIB}#s", "-n", "-1"),
    ("bbin", "-1", "-n", "4"),
    # answered only since options take the next token whatever it is, and a
    # token of `-` and a digit is a positional
    ("equiv", f"{_FIB}#s", f"{_FIB}#s", "--prefix", "0", "--up-to", "-,+"),
    ("eval", "--defs", _DEFS, "--term", "-X", "-n", "3"),
    ("bbin", "-2/5", "-n", "6"),
)
# the index in `error: BudgetExhausted: ... (at index N)` and in a
# `check` probe's `BudgetExhausted at index N`
BUDGET_INDEX = re.compile(r"(BudgetExhausted\b.*?\bindex )(\d+)")
# what `kernel` prints when its closure runs out of budget
KERNEL_UNKNOWN = "Unknown (kernel did not close within the budget)"
# a NonProductive error, and a `check` probe's, each with what it says
# where the budget runs out
NON_PRODUCTIVE = ("NonProductive: non-productive definition",
                  "BudgetExhausted: forcing budget exhausted")
NON_PRODUCTIVE_PROBE = ("NonProductive at", "BudgetExhausted at")
RECURSION_LIMIT = sys.getrecursionlimit()


def _read(path):
    """The unknowns of a spec parsed without override, and whether it
    defines `plus` and `times`; none and False if it does not parse."""
    from streamcalc import speclang

    try:
        spec = speclang.parse(pathlib.Path(path).read_text(encoding="utf-8"))
    except Exception:  # any failure to parse, an escaping one included
        return (), False
    unknowns = spec.system.variables if spec.system else ()
    return unknowns, {"plus", "times"} <= spec.defs.keys()


def shape(specs):
    """The argv of every run, in order."""
    runs = []
    for path in specs:
        unknowns, arithmetic = _read(path)
        terms = EVAL_TERMS + (DEFS_TERMS if arithmetic else ())
        if unknowns:
            terms += (UNKNOWN_TERM.format(u=unknowns[0]),)
            if arithmetic:
                terms += (DEFS_UNKNOWN_TERM.format(u=unknowns[0]),)
        for algebra in ALGEBRAS:
            override = ("--algebra", algebra) if algebra else ()
            runs.append(("check", path) + override)
            for term in terms:
                runs.append(("eval", "--defs", path, "--term", term, "-n", "12") + override)
            for var in unknowns:
                for command in PER_UNKNOWN:
                    if command[0] == "at":
                        runs.append(command + (f"{path}#{var}",) + override)
                    else:
                        runs.append(command[:1] + (f"{path}#{var}",) + command[1:]
                                    + override)
                runs.append(("closed-form", f"{path}#{var}") + override)
                for flags in EQUIV_FLAGS:
                    runs.append(("equiv", f"{path}#{var}", f"{path}#{unknowns[0]}")
                                + flags + override)
        runs += [("solve", f"{path}#{var}", "-n", "900") for var in unknowns]
    return runs


def run_one(argv):
    from streamcalc.cli import run

    out, err = io.StringIO(), io.StringIO()
    sys.setrecursionlimit(RECURSION_LIMIT)
    try:
        code = run(list(argv), out=out, err=err)
    except Exception as escaped:  # an escape is an answer to record too
        code = f"escaped {type(escaped).__name__}: {escaped}"
    return {"argv": list(argv), "code": code, "out": out.getvalue(),
            "err": err.getvalue()}


def record(specs):
    return [run_one(argv) for argv in (*shape(specs), *FRONT_END)]


def compare(recorded):
    """The (recorded, new) pair of every recorded run that differs now,
    the new answer being the first of two runs, or the second where only
    that one differs."""
    diffs = []
    for old in recorded:
        first, second = run_one(old["argv"]), run_one(old["argv"])
        new = first if first != old else second
        if new != old:
            diffs.append((old, new))
    return diffs


def later_budget_index(old, new):
    """Whether a run's new answer differs from the recorded one only in
    that each BudgetExhausted comes at the same or a later index."""
    if old["code"] != new["code"]:
        return False
    for key in ("out", "err"):
        if BUDGET_INDEX.sub(r"\1N", old[key]) != BUDGET_INDEX.sub(r"\1N", new[key]):
            return False
        indices = zip(BUDGET_INDEX.findall(old[key]), BUDGET_INDEX.findall(new[key]))
        if any(int(was) > int(now) for (_, was), (_, now) in indices):
            return False
    return True


def earlier_budget_index(old, new):
    """Whether a run's new answer differs from the recorded one only in
    that each BudgetExhausted comes at the same or an earlier index."""
    return later_budget_index(new, old)


def verdict_upgrade(old, new):
    """Whether a run's new answer is an `equiv` proof where the recorded
    one was Unknown or ended in BudgetExhausted."""
    return (old["argv"][0] == "equiv" and new["code"] == 0
            and new["out"].startswith("Proved\n")
            and (old["out"].startswith("Unknown (") or "BudgetExhausted" in old["err"]))


def answers_within_budget(old, new):
    """Whether a run that ran out of budget now answers: the recorded
    one ended in BudgetExhausted or in a kernel that did not close
    within the budget, and the new one exits 0.  A verdict upgrade is
    counted there and not here."""
    ran_out = "BudgetExhausted" in old["err"] or old["out"].startswith(KERNEL_UNKNOWN)
    return ran_out and new["code"] == 0 and not verdict_upgrade(old, new)


def productive_now(old, new):
    """Whether a run that was NonProductive now exits 0, or runs out of
    budget where it was NonProductive, at the same or a later index."""
    if "NonProductive" not in old["out"] + old["err"]:
        return False
    ran_out = {key: old[key].replace(*NON_PRODUCTIVE).replace(*NON_PRODUCTIVE_PROBE)
               for key in ("out", "err")}
    return new["code"] == 0 or later_budget_index(dict(old, **ran_out), new)


def group(argv):
    """The command, spec file name and flags of a run's argv, without
    its --algebra override; the argv itself for a FRONT_END run."""
    if tuple(argv) in FRONT_END:
        return "front end", "", " ".join(argv)
    command, *rest = argv
    if command == "eval":
        del rest[rest.index("--defs")]
    spec = rest.pop(1 if command == "at" else 0)
    if command == "equiv":
        rest.pop(0)  # the right-hand selector, in the same spec file
    if "--algebra" in rest:
        at = rest.index("--algebra")
        del rest[at:at + 2]
    return command, pathlib.Path(spec.split("#")[0]).name, " ".join(rest)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("record", "compare"))
    parser.add_argument("file")
    parser.add_argument("specs", nargs="*", help="record only; default corpus/*.sde")
    args = parser.parse_args(argv)
    if args.mode == "record":
        runs = record(args.specs or sorted(str(p) for p in CORPUS.glob("*.sde")))
        pathlib.Path(args.file).write_text(json.dumps(runs, indent=1) + "\n")
        print(f"recorded {len(runs)} runs")
        return 0
    recorded = json.loads(pathlib.Path(args.file).read_text())
    diffs = compare(recorded)
    for old, new in diffs:
        print(json.dumps({"was": old, "now": new}))
    earlier = sum(earlier_budget_index(old, new) for old, new in diffs)
    later = sum(later_budget_index(old, new) for old, new in diffs)
    upgraded = sum(verdict_upgrade(old, new) for old, new in diffs)
    answered = sum(answers_within_budget(old, new) for old, new in diffs)
    productive = sum(productive_now(old, new) for old, new in diffs)
    print(f"{earlier:5d}  differ only by an earlier BudgetExhausted index")
    print(f"{later:5d}  differ only by a later BudgetExhausted index")
    print(f"{upgraded:5d}  differ only by a verdict upgrade (Unknown or "
          "BudgetExhausted to Proved)")
    print(f"{answered:5d}  ran out of budget and now answer")
    print(f"{productive:5d}  were NonProductive and now answer or run out of "
          "budget later")
    print(f"{len(diffs) - earlier - later - upgraded - answered - productive:5d}  "
          "differ in any other way")
    groups = collections.Counter(group(old["argv"]) for old, _ in diffs)
    for key, count in sorted(groups.items(), key=lambda item: (-item[1], item[0])):
        print(f"{count:5d}  " + "  ".join(filter(None, key)))
    print(f"{len(diffs)} of {len(recorded)} recorded runs differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
