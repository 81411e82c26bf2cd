"""Seeded request mixes for the benchmark's four workloads.

A workload is built from a seed alone: the same seed gives byte-identical
spec files, argv lists and oracle data.  Each workload is a list of
rounds with a fixed composition (the seed varies sizes, coefficients and
names, never the mix), so the latency percentiles and the per-round
throughput of two seeds measure the same traffic.  Every request carries
an oracle check built from how its input was generated.
"""

import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

import oracles

INF = math.inf
BIG_BUDGET = "100000000"
# A request still running after this many seconds is abandoned and
# counted as failed; the largest regular request takes under 1 s.
DEADLINE_S = 3.0


@dataclass
class Request:
    """One request: CLI argv, or a bisim_finite call when `automata` is set.

    check(code, text) returns (ok, decided); decided is None for requests
    that are not equivalence queries.
    """

    kind: str
    argv: tuple
    check: object = field(repr=False)
    automata: tuple = None

    @property
    def equiv(self):
        return self.kind in ("equiv", "bisim")


@dataclass
class Plan:
    files: dict
    warmup: list
    rounds: list


class _Names:
    """Fresh, seed-dependent identifiers, unique within a plan."""

    def __init__(self, rng):
        self.tag = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3))
        self.count = 0

    def __call__(self, base):
        self.count += 1
        return f"{base}{self.tag}{self.count}"


# ---------------------------------------------------------------------------
# Spec text


def _elem(alg, v):
    if alg == "Bool":
        return "1" if v else "0"
    if alg == "Tropical" and v == INF:
        return "inf"
    return str(v)


def _rhs_text(alg, monos):
    r = oracles.ring(alg)
    parts = []
    for c, word in monos:
        factors = list(word)
        if not word or c != r.one:
            factors.insert(0, _elem(alg, c))
        parts.append("*".join(factors))
    # a bare `inf` is not a term; the bracketed constant is
    zero = "[inf]" if alg == "Tropical" else _elem(alg, r.zero)
    return (" + ".join(parts) or zero).replace("+ -", "- ")


def system_text(alg, heads, rhs):
    """Spec text of x(0) = head; x' = sum of monomials, in `heads` order."""
    lines = [f"algebra {alg};"]
    for v in heads:
        lines.append(f"{v}(0) = {_elem(alg, heads[v])};")
        lines.append(f"{v}' = {_rhs_text(alg, rhs[v])};")
    return "\n".join(lines) + "\n"


def _linear_rhs(names, row):
    return [(c, (names[j],)) for j, c in enumerate(row) if c != 0]


def _coef(rng, alg):
    if alg == "Nat":
        return rng.randint(1, 3)
    if alg == "Z":
        return rng.choice([1, 2, 3, -1, -2])
    if alg == "Q":
        return Fraction(rng.choice([1, -1, 2, -2, 3]), rng.choice([1, 1, 2, 3]))
    if alg == "Bool":
        return True
    if alg == "Tropical":
        return Fraction(rng.randint(1, 3))
    p = 2 if alg == "F2" else int(alg[3:-1])
    return rng.randint(1, p - 1)


def _head(rng, alg):
    if alg == "Nat":
        return rng.randint(0, 2)
    if alg == "Z":
        return rng.randint(-2, 2)
    if alg == "Q":
        return Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
    if alg == "Bool":
        return rng.random() < 0.5
    if alg == "Tropical":
        return Fraction(rng.randint(0, 3))
    p = 2 if alg == "F2" else int(alg[3:-1])
    return rng.randrange(p)


def _shape(*key):
    """The random source of a request's structure: fixed per slot, never
    seeded, so that two seeds send the same shapes with other values."""
    return random.Random(":".join(map(str, key)))


def random_cf(rng, alg, names, letters=(), shape=None):
    """x' = 1-3 monomials of degree <= 2 over the unknowns, X and `letters`;
    the first unknown gets a product of unknowns, so the system is never
    linear.  `shape` draws the monomials and `rng` their coefficients."""
    shape = shape or rng
    pool = list(names) + ["X"] + list(letters)
    rhs = {}
    for v in names:
        monos = []
        for _ in range(shape.randint(1, 3)):
            degree = shape.choice([0, 1, 2, 2])
            monos.append((_coef(rng, alg), tuple(shape.choice(pool) for _ in range(degree))))
        rhs[v] = monos
    rhs[names[0]].append((_coef(rng, alg), (names[-1], names[0])))
    return {v: _head(rng, alg) for v in names}, rhs


def random_matrix(rng, alg, d, density, shape=None):
    """Random d x d matrix; `shape` draws the nonzero pattern."""
    shape = shape or rng
    pattern = [[shape.random() < density for _ in range(d)] for _ in range(d)]
    for i, row in enumerate(pattern):
        if not any(row):
            row[(i + 1) % d] = True
    return [[_coef(rng, alg) if nonzero else 0 for nonzero in row] for row in pattern]


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# Oracle checks


def expect_text(expected):
    """Exit 0 and exactly the text expected() returns."""

    def check(code, text):
        return code == 0 and text.strip() == expected(), None

    return check


def expect_prefix(alg, values):
    """Exit 0 and the prefix line of the sequence values() returns."""
    return expect_text(lambda: oracles.fmt_prefix(oracles.ring(alg), values()))


def expect_verdict(alg, left, right):
    """An equivalence verdict against the two sequences left() and right().

    Proved needs equal sequences, Refuted the first differing index and
    the two elements there; Unknown (exit 2) is allowed but undecided.
    """

    def check(code, text):
        a, b = left(), right()
        first = oracles.first_difference(a, b)
        line = text.strip().split("\n")[0]
        r = oracles.ring(alg)
        if code == 0 and line == "Proved":
            return first is None, True
        if code == 1 and line.startswith("Refuted at index "):
            if first is None:
                return False, True
            want = f"Refuted at index {first}: {r.fmt(a[first])} != {r.fmt(b[first])}"
            return line == want, True
        if code == 2:
            return True, False
        return False, None

    return check


# ---------------------------------------------------------------------------
# prefix-cf: solve requests on the GSOS engine

CORPUS = {
    # family: (file, unknowns, queried unknown, oracle)
    "catalan": ("catalan.sde", ("s",), "s", oracles.catalan),
    "schroder": ("schroder.sde", ("s",), "s", oracles.schroder),
    "hamming": ("hamming.sde", ("g",), "g", oracles.hamming),
    "factorials": ("factorials.sde", ("p",), "p", oracles.factorials),
    "a000831": ("a000831.sde", ("s",), "s", oracles.a000831),
    "thue_morse": ("thue_morse_cf.sde", ("t", "s", "m", "n"), "t", oracles.thue_morse),
}

# (family, N) slots of one round: every corpus family at an N costing about
# 0.25 s and about 0.06 s on a 2-core x86 machine under CPython 3.11 when
# this benchmark was written, and random context-free and
# general systems of fixed shapes at small N.  The seed jitters N by one.
PREFIX_SLOTS = (
    ("catalan", 44), ("schroder", 47), ("hamming", 109), ("factorials", 41),
    ("a000831", 50), ("thue_morse", 57),
    ("catalan", 27), ("schroder", 26), ("hamming", 58), ("factorials", 27),
    ("a000831", 29), ("thue_morse", 28),
    ("random", 16), ("random", 16), ("random", 16),
    ("general", 14), ("general", 14), ("general", 14),
)
CF_ALGEBRAS = ("Nat", "Q", "F2", "Fp(3)", "Fp(5)", "Fp(7)")
PREFIX_ROUNDS = 30


def _rename(text, mapping):
    pattern = r"\b(" + "|".join(map(re.escape, mapping)) + r")\b"
    return re.sub(pattern, lambda m: mapping[m.group(1)], text)


def _prefix_request(rng, names, family, n, files, corpus_dir, slot=0):
    fname = names("p") + ".sde"
    if family in CORPUS:
        source, unknowns, target, seq = CORPUS[family]
        mapping = {u: names(u) for u in unknowns}
        files[fname] = _rename((corpus_dir / source).read_text(), mapping)
        # the named sequences are integers, printed alike in Nat, Q and F2
        alg = "Nat"
        var, values = mapping[target], (lambda: seq(n))
    else:
        alg = CF_ALGEBRAS[slot % len(CF_ALGEBRAS)]
        shape = _shape("prefix-cf", slot)
        if family == "random":
            unknowns = [names(b) for b in "pqr"[:shape.randint(1, 3)]]
            heads, rhs = random_cf(rng, alg, unknowns, shape=shape)
            files[fname] = system_text(alg, heads, rhs)
            var = unknowns[0]

            def values():
                return oracles.cf_prefix(oracles.ring(alg), heads, rhs, n)[var]
        else:
            # a non-causal builtin of an independent unknown u: the
            # engine falls back to the native even/odd streams
            u, w = names("u"), names("w")
            u_heads, u_rhs = random_cf(rng, alg, [u], shape=shape)
            op = shape.choice(["even", "odd"])
            w_heads, w_rhs = random_cf(rng, alg, [w], letters=[f"{op}({u})"], shape=shape)
            w_rhs[w].append((_coef(rng, alg), (f"{op}({u})",)))
            files[fname] = system_text(alg, {**u_heads, **w_heads}, {**u_rhs, **w_rhs})
            var = w

            def values():
                r = oracles.ring(alg)
                us = oracles.cf_prefix(r, u_heads, u_rhs, 2 * n + 2)[u]
                known = {u: us, f"{op}({u})": us[0 if op == "even" else 1::2]}
                return oracles.cf_prefix(r, w_heads, w_rhs, n, known)[w]
    argv = ("solve", f"{fname}#{var}", "-n", str(n), "--budget", BIG_BUDGET)
    return Request("solve", argv, expect_prefix(alg, values))


def plan_prefix_cf(seed, corpus_dir):
    rng = random.Random(f"prefix-cf:{seed}")
    names, files = _Names(rng), {}
    warmup = [_prefix_request(rng, names, f, 6, files, corpus_dir)
              for f in ("catalan", "hamming", "random")]
    rounds = []
    for _ in range(PREFIX_ROUNDS):
        batch = [_prefix_request(rng, names, family, n + rng.randint(-1, 1), files,
                                 corpus_dir, slot)
                 for slot, (family, n) in enumerate(PREFIX_SLOTS)]
        rounds.append(_shuffled(rng, batch))
    return Plan(files, warmup, rounds)


# ---------------------------------------------------------------------------
# closed-form: matrix-method closed forms, rational equivalence, linear solve

CLOSED_ROUNDS = 40
CLOSED_DENSITY = 0.5
# closed-form dimensions of one round; three at 8 put p90 inside that tier.
# Each slot has a fixed nonzero pattern, so a seed changes values only.
CLOSED_FORM_DIMS = (4, 5, 6, 7, 8, 8, 8)
# (dimension, pair): equal by renaming, equal by the companion system, or
# a companion system differing first at an index before / past dimension
EQUIV_SLOTS = ((3, "rename"), (4, "companion"), (4, "differ-early"), (4, "differ-late"))
SOLVE_DIMS = (2, 5, 8)


def _linear_spec(rng, names, files, d, matrix=None, heads=None, shape=None):
    """File with x' = M x over Q; returns (file name, unknowns, M, heads)."""
    unknowns = [names("x") for _ in range(d)]
    matrix = matrix or random_matrix(rng, "Q", d, CLOSED_DENSITY, shape)
    heads = heads or [Fraction(_head(rng, "Q")) for _ in range(d)]
    rhs = {v: _linear_rhs(unknowns, row) for v, row in zip(unknowns, matrix)}
    fname = names("c") + ".sde"
    files[fname] = system_text("Q", dict(zip(unknowns, heads)), rhs)
    return fname, unknowns, matrix, heads


def _sequence(matrix, heads, index, n):
    return oracles.linear_prefix(oracles.ring("Q"), matrix, heads, n)[index]


def _companion(seq_head, recurrence):
    """Companion matrix of x(n+D) = sum a_k x(n+k); heads are x(0..D-1)."""
    dim = len(recurrence)
    matrix = [[Fraction(1) if j == i + 1 else Fraction(0) for j in range(dim)]
              for i in range(dim - 1)]
    matrix.append(list(recurrence))
    return matrix, list(seq_head)


def _closed_form_check(matrix, heads, index):
    def check(code, text):
        if code != 0:
            return False, None
        line = text.strip().split("\n")[-1].removeprefix("closed form: ")
        num, den = oracles.parse_ratexpr(line)
        k = len(num) + len(den) + len(matrix) + 2
        return oracles.expand_ratexpr(num, den, k) == _sequence(matrix, heads, index, k), None

    return check


def _equiv_pair(rng, names, files, d, pair, slot):
    shape = _shape("closed-form", "equiv", slot)
    fa, ua, ma, ha = _linear_spec(rng, names, files, d, shape=shape)
    i = shape.randrange(d)
    if pair == "rename":
        # the same system, renamed and with its equations reordered
        order = _shuffled(shape, range(d))
        mb = [[ma[r][c] for c in order] for r in order]
        hb = [ha[r] for r in order]
        fb, ub, _, _ = _linear_spec(rng, names, files, d, mb, hb)
        vb = ub[order.index(i)]
    else:
        # companion system of the Cayley-Hamilton recurrence, widened by
        # (t - 1)^m and with head k perturbed when the pair must differ
        c = oracles.charpoly(ma)
        k = rng.randrange(1, d) if pair == "differ-early" else rng.randint(d, d + 1)
        for _ in range(max(0, k + 1 - d) if pair == "differ-late" else 0):
            c = [(c[j - 1] if j else 0) - (c[j] if j < len(c) else 0)
                 for j in range(len(c) + 1)]
        dim = len(c) - 1
        seq = _sequence(ma, ha, i, dim)
        if pair != "companion":
            seq[k] += rng.choice([1, -1, Fraction(1, 2)])
        mb, hb = _companion(seq, [-x for x in c[:-1]])
        fb, ub, _, _ = _linear_spec(rng, names, files, dim, mb, hb)
        vb = ub[0]
    n = len(ma) + len(mb) + 2
    left = lambda: _sequence(ma, ha, i, n)
    right = lambda: _sequence(mb, hb, ub.index(vb), n)
    inner = expect_verdict("Q", left, right)

    def check(code, text):
        ok, decided = inner(code, text)
        if ok and code == 0:
            ok = _closed_form_check(ma, ha, i)(code, text)[0]
        return ok, decided

    return Request("equiv", ("equiv", f"{fa}#{ua[i]}", f"{fb}#{vb}"), check)


def plan_closed_form(seed, corpus_dir):
    rng = random.Random(f"closed-form:{seed}")
    names, files = _Names(rng), {}

    def closed_form(d, slot):
        shape = _shape("closed-form", "closed-form", slot)
        fname, unknowns, matrix, heads = _linear_spec(rng, names, files, d, shape=shape)
        i = shape.randrange(d)
        return Request("closed-form", ("closed-form", f"{fname}#{unknowns[i]}"),
                       _closed_form_check(matrix, heads, i))

    def solve(d, slot):
        shape = _shape("closed-form", "solve", slot)
        fname, unknowns, matrix, heads = _linear_spec(rng, names, files, d, shape=shape)
        i, n = shape.randrange(d), rng.randint(15, 25)
        return Request("solve", ("solve", f"{fname}#{unknowns[i]}", "-n", str(n)),
                       expect_prefix("Q", lambda: _sequence(matrix, heads, i, n)))

    warmup = [closed_form(2, -1), solve(2, -1), _equiv_pair(rng, names, files, 2, "rename", -1)]
    rounds = []
    for _ in range(CLOSED_ROUNDS):
        batch = [closed_form(d, slot) for slot, d in enumerate(CLOSED_FORM_DIMS)]
        batch += [_equiv_pair(rng, names, files, d, pair, slot)
                  for slot, (d, pair) in enumerate(EQUIV_SLOTS)]
        batch += [solve(d, slot) for slot, d in enumerate(SOLVE_DIMS)]
        rounds.append(_shuffled(rng, batch))
    return Plan(files, warmup, rounds)


# ---------------------------------------------------------------------------
# equiv-upto: bisimulation-up-to proofs and refutations, bisim_finite

UPTO_ROUNDS = 50
# Slots of one round; the seed picks coefficients, heads and names.
# bisim_finite: (algebra, states, equal)
BISIM_SLOTS = (("Nat", 40, True), ("Q", 140, True), ("F2", 90, False), ("Nat", 190, False))
# one-unknown systems against their renaming: (algebra, --up-to)
RENAME_SLOTS = (("Nat", None), ("Bool", None), ("Tropical", None), ("Q", "+,*,X"))
# x against x + c*X^k: (algebra, k, --prefix, --up-to); prefix > k refutes
# in the prefix scan, prefix <= k in the up-to search
CHAIN_SLOTS = (("Nat", 4, 6, None), ("Bool", 6, 9, None), ("Tropical", 5, 2, None),
               ("Nat", 8, 3, None), ("Q", 5, 0, "+,*,X"))
# x + ... + x against m*x: (algebra, m, budget, --up-to); the cost doubles
# from budget 100 to 110, and the three at 100 put p90 inside that tier
REWRITE_SLOTS = (("Nat", 2, 40, None), ("Q", 2, 60, "+,*"), ("Nat", 2, 100, None),
                 ("Nat", 2, 100, None), ("Nat", 2, 100, None))
# linear systems against their renamed, reordered copies: (algebra, unknowns, budget)
LINEAR_SLOTS = (("Nat", 2, 15), ("Tropical", 3, 30))


def _cf_file(names, files, alg, heads, rhs):
    fname = names("e") + ".sde"
    files[fname] = system_text(alg, heads, rhs)
    return fname


def _renamed(heads, rhs, mapping):
    def word(w):
        return tuple(mapping.get(a, a) for a in w)

    return ({mapping[v]: h for v, h in heads.items()},
            {mapping[v]: [(c, word(w)) for c, w in monos] for v, monos in rhs.items()})


def _upto_request(alg, fa, va, fb, vb, left, right, prefix, budget, up_to=None):
    argv = ["equiv", f"{fa}#{va}", f"{fb}#{vb}", "--prefix", str(prefix)]
    if budget is not None:
        argv += ["--budget", str(budget)]
    if up_to:
        argv += ["--up-to", up_to]
    return Request("equiv", tuple(argv), expect_verdict(alg, left, right))


def _seq(alg, heads, rhs, var, n):
    return oracles.cf_prefix(oracles.ring(alg), heads, rhs, n)[var]


def _rename_pair(rng, names, files, alg, slot, up_to=None):
    """A one-unknown system against its renaming: equal, provable."""
    shape = _shape("equiv-upto", "rename", slot)
    x, y = names("x"), names("y")
    heads, rhs = random_cf(rng, alg, [x], shape=shape)
    hb, rb = _renamed(heads, rhs, {x: y})
    fa, fb = _cf_file(names, files, alg, heads, rhs), _cf_file(names, files, alg, hb, rb)
    prefix = shape.randint(2, 8)
    n = prefix + 4
    return _upto_request(alg, fa, x, fb, y, lambda: _seq(alg, heads, rhs, x, n),
                         lambda: _seq(alg, hb, rb, y, n), prefix,
                         rng.randint(2000, 8000), up_to)


def _chain_pair(rng, names, files, alg, k, prefix, slot, up_to=None):
    """x against y = x + c*X^k: equal before index k, different at k.

    y is x's right-hand side over a renamed copy of x, plus the head of a
    delay chain z1 .. zk whose last cell holds c.
    """
    r = oracles.ring(alg)
    shape = _shape("equiv-upto", "chain", slot)
    while True:
        x = names("x")
        heads, rhs = random_cf(rng, alg, [x], shape=shape)
        xs = _seq(alg, heads, rhs, x, k + 1)
        # the perturbation must change x(k): Bool adds by `or`, and
        # Tropical by `min` with no negative literals
        if alg == "Bool" and xs[k] or alg == "Tropical" and xs[k] < 1:
            continue
        break
    if alg == "Tropical":
        c = xs[k] - 1 if xs[k] != INF else Fraction(rng.randint(0, 3))
    else:
        c = _coef(rng, alg)
    y, xb = names("y"), names("x")
    zs = [names("z") for _ in range(k)]
    hb, rb = _renamed(heads, rhs, {x: xb})
    y_heads = {y: r.add(heads[x], c) if k == 0 else heads[x]}
    y_rhs = {y: [(cc, w) for cc, w in rb[xb]] + ([(r.one, (zs[0],))] if zs else [])}
    z_heads = {z: (c if i == k - 1 else r.zero) for i, z in enumerate(zs)}
    z_rhs = {z: ([(r.one, (zs[i + 1],))] if i + 1 < k else []) for i, z in enumerate(zs)}
    b_heads, b_rhs = {**y_heads, **hb, **z_heads}, {**y_rhs, **rb, **z_rhs}
    fa = _cf_file(names, files, alg, heads, rhs)
    fb = _cf_file(names, files, alg, b_heads, b_rhs)
    n = k + 2
    return _upto_request(alg, fa, x, fb, y, lambda: _seq(alg, heads, rhs, x, n),
                         lambda: _seq(alg, b_heads, b_rhs, y, n), prefix,
                         rng.randint(2000, 8000), up_to)


def _rewrite_pair(rng, names, files, alg, m, budget, up_to=None):
    """x' = x + ... + x (m terms) against y' = m*y: equal, and a search
    that grows with the budget."""
    x, y = names("x"), names("y")
    h = rng.randint(1, 3)
    ha, ra = {x: h}, {x: [(1, (x,))] * m}
    hb, rb = {y: h}, {y: [(m, (y,))]}
    fa, fb = _cf_file(names, files, alg, ha, ra), _cf_file(names, files, alg, hb, rb)
    return _upto_request(alg, fa, x, fb, y, lambda: _seq(alg, ha, ra, x, 8),
                         lambda: _seq(alg, hb, rb, y, 8), 0, budget, up_to)


def runaway_plan(seed):
    """x + x against 2*x at the CLI default budget, which does not finish
    within 60 s.  Kept out of the rounds, where no request may fail; the
    tests run it to show the deadline firing."""
    rng = random.Random(f"runaway:{seed}")
    names, files = _Names(rng), {}
    request = _rewrite_pair(rng, names, files, "Nat", 2, None)
    return Plan(files, [], [[request]])


def _linear_rename_pair(rng, names, files, alg, d, budget, slot):
    """A linear system against its renamed, reordered copy."""
    shape = _shape("equiv-upto", "linear", slot)
    xs = [names("x") for _ in range(d)]
    matrix = random_matrix(rng, alg, d, 0.6, shape)
    heads = {v: _head(rng, alg) for v in xs}
    rhs = {v: _linear_rhs(xs, row) for v, row in zip(xs, matrix)}
    mapping = {v: names("y") for v in xs}
    hb, rb = _renamed(heads, rhs, mapping)
    order = _shuffled(shape, hb)
    hb, rb = {v: hb[v] for v in order}, {v: rb[v] for v in order}
    fa, fb = _cf_file(names, files, alg, heads, rhs), _cf_file(names, files, alg, hb, rb)
    x = xs[0]
    return _upto_request(alg, fa, x, fb, mapping[x], lambda: _seq(alg, heads, rhs, x, 8),
                         lambda: _seq(alg, hb, rb, mapping[x], 8), 0, budget)


def _bisim_request(rng, alg, n, equal):
    """bisim_finite on a random n-state automaton and a renamed copy,
    expanded by duplicated states (equal) or with one reachable output
    changed."""
    labels = [0, 1] if alg == "F2" else [0, 1, 2]
    wrap = Fraction if alg == "Q" else int
    out1 = {f"a{i}": wrap(rng.choice(labels)) for i in range(n)}
    states = list(out1)
    next1 = {q: rng.choice(states) for q in states}
    s1 = rng.choice(states)
    rename = {q: f"b{i}" for i, q in enumerate(states)}
    out2 = {rename[q]: v for q, v in out1.items()}
    next2 = {rename[q]: rename[t] for q, t in next1.items()}
    if equal:
        for q in rng.sample(states, n // 4):
            dup = rename[q] + "d"
            out2[dup], next2[dup] = out2[rename[q]], next2[rename[q]]
            sources = [s for s in states if next1[s] == q]
            if sources:
                next2[rename[rng.choice(sources)]] = dup
    else:
        q = s1
        for _ in range(rng.randint(0, n)):
            q = next1[q]
        out2[rename[q]] = wrap(next(v for v in labels if v != out1[q]))
    s2 = rename[s1]
    r = oracles.ring(alg)

    def check(code, text):
        k = oracles.moore_split_index(out1, next1, s1, out2, next2, s2)
        if k is None:
            return text == "Proved" and equal, True
        a, b = s1, s2
        for _ in range(k):
            a, b = next1[a], next2[b]
        want = f"Refuted at index {k}: {r.fmt(out1[a])} != {r.fmt(out2[b])}"
        return text == want and not equal, True

    argv = ("bisim_finite", alg, f"{len(out1)}x{len(out2)}", s1, s2)
    return Request("bisim", argv, check, (alg, out1, next1, s1, out2, next2, s2))


def plan_equiv_upto(seed, corpus_dir):
    rng = random.Random(f"equiv-upto:{seed}")
    names, files = _Names(rng), {}

    warmup = [_rename_pair(rng, names, files, "Nat", -1), _bisim_request(rng, "Nat", 20, True),
              _rewrite_pair(rng, names, files, "Nat", 2, 20)]
    rounds = []
    for i in range(UPTO_ROUNDS):
        batch = [_bisim_request(rng, alg, n + rng.randint(-5, 5), equal)
                 for alg, n, equal in BISIM_SLOTS]
        batch += [_rename_pair(rng, names, files, alg, slot, up_to)
                  for slot, (alg, up_to) in enumerate(RENAME_SLOTS)]
        batch += [_chain_pair(rng, names, files, alg, k, prefix, slot, up_to)
                  for slot, (alg, k, prefix, up_to) in enumerate(CHAIN_SLOTS)]
        batch += [_rewrite_pair(rng, names, files, alg, m, budget, up_to)
                  for alg, m, budget, up_to in REWRITE_SLOTS]
        batch += [_linear_rename_pair(rng, names, files, alg, d, budget + rng.randint(-1, 1), slot)
                  for slot, (alg, d, budget) in enumerate(LINEAR_SLOTS)]
        rounds.append(_shuffled(rng, batch))
    return Plan(files, warmup, rounds)


# ---------------------------------------------------------------------------
# small-requests: cheap requests drawn with repetition from a spec pool

SMALL_ROUNDS = 60
# (unknowns, density) of the large generated linear specs for `check`
# (50-60 unknowns, 15-20 KB); the probe in `check` is cubic in the unknowns
BIG_SPECS = ((50, 1.0), (55, 0.9), (60, 0.8))


class _PoolSpec:
    """A pool spec: file name, kind line, algebra, unknowns and a function
    giving the first n elements of an unknown."""

    def __init__(self, fname, kind, alg, unknowns, values):
        self.fname, self.kind, self.alg = fname, kind, alg
        self.unknowns, self.values = unknowns, values


def _pool_linear(rng, names, files, alg, d, density, kind="linear", op="tail"):
    xs = [names("v") for _ in range(d)]
    if kind == "simple":
        matrix = [[1 if j == t else 0 for j in range(d)]
                  for t in (rng.randrange(d) for _ in range(d))]
    else:
        matrix = random_matrix(rng, alg, d, density)
        if d > 1:  # two terms in one row: never a simple system
            matrix[0][0], matrix[0][1] = _coef(rng, alg), _coef(rng, alg)
    heads = [_head(rng, alg) for _ in range(d)]
    r = oracles.ring(alg)
    lines = [f"algebra {alg};"]
    for v, h, row in zip(xs, heads, matrix):
        lines.append(f"{v}(0) = {_elem(alg, h)};")
        rhs = _rhs_text(alg, _linear_rhs(xs, row))
        lines.append(f"{op}({v}) = {rhs};" if op != "tail" else f"{v}' = {rhs};")
    fname = names("s") + ".sde"
    files[fname] = "\n".join(lines) + "\n"

    def values(var, n):
        seqs = [[h] for h in heads]
        vec = list(heads)
        for m in range(n - 1):
            image = [oracles._dot(r, row, vec) for row in matrix]
            if op == "ddx":
                vec = [v / (m + 1) for v in image]
            elif op == "delta":
                vec = [a + b for a, b in zip(vec, image)]
            else:
                vec = image
            for seq, v in zip(seqs, vec):
                seq.append(v)
        return seqs[xs.index(var)]

    kind_line = "non-standard" if op != "tail" else kind
    return _PoolSpec(fname, kind_line, alg, xs, values)


def _pool_even_odd(rng, names, files, alg, d):
    qs = [names("q") for _ in range(d)]
    d0 = {q: rng.choice(qs) for q in qs}
    d1 = {q: rng.choice(qs) for q in qs}
    # zero consistency: out(q) = out(d0(q)), so outputs are constant on
    # the components of the even-successor graph
    root = {}
    for q in qs:
        seen = [q]
        while d0[seen[-1]] not in seen:
            seen.append(d0[seen[-1]])
        root[q] = min(seen[seen.index(d0[seen[-1]]):], key=qs.index)
    value = {q: rng.randint(0, 1 if alg == "F2" else 4) for q in qs if root[q] == q}
    out = {q: value[root[q]] for q in qs}
    lines = [f"algebra {alg};"]
    for q in qs:
        lines += [f"{q}(0) = {out[q]};", f"even({q}) = {d0[q]};", f"odd({q}) = {d1[q]};"]
    fname = names("s") + ".sde"
    files[fname] = "\n".join(lines) + "\n"
    spec = _PoolSpec(fname, "even-odd", alg, qs,
                     lambda var, n: [oracles.even_odd_at(out, d0, d1, var, i)
                                     for i in range(n)])
    spec.automaton = (out, d0, d1)
    return spec


def _check_text(spec):
    r = oracles.ring(spec.alg)
    lines = [f"parse: ok (algebra {spec.alg}, {len(spec.unknowns)} unknown(s), "
             "0 definition(s))", f"kind: {spec.kind}"]
    if spec.kind == "even-odd":
        lines.append("zero-consistency: ok")
    for v in spec.unknowns:
        lines.append(f"probe {v}: ok ({oracles.fmt_prefix(r, spec.values(v, 3))})")
    return "\n".join(lines)


def _kernel_check(spec, q0):
    out, d0, d1 = spec.automaton
    reach, todo = [], [q0]
    while todo:
        q = todo.pop()
        if q not in reach:
            reach.append(q)
            todo += [d0[q], d1[q]]

    def check(code, text):
        lines = text.strip().split("\n")
        body = {f"{q}: out={out[q]} 0->{d0[q]} 1->{d1[q]}" for q in reach}
        return (code == 0 and lines[0] == f"2-kernel (exact, {len(reach)} states):"
                and len(lines) == len(reach) + 1 and set(lines[1:]) == body), None

    return check


def _eval_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["X", f"[{rng.randint(0, 5)}]"])
    op = rng.choice(["plus", "times"])
    return f"{op}({_eval_term(rng, depth - 1)}, {_eval_term(rng, depth - 1)})"


def _eval_values(term, n):
    """Coefficients of a plus/times term over [c] and X, truncated to n."""

    def parse(i):
        if term.startswith("X", i):
            return ([0, 1] + [0] * n)[:n], i + 1
        if term[i] == "[":
            j = term.index("]", i)
            return [int(term[i + 1:j])] + [0] * (n - 1), j + 1
        op = "plus" if term.startswith("plus", i) else "times"
        a, i = parse(i + len(op) + 1)
        b, i = parse(i + 2)
        if op == "plus":
            return [x + y for x, y in zip(a, b)], i + 1
        return [sum(a[k] * b[m - k] for k in range(m + 1)) for m in range(len(a))], i + 1

    return parse(0)[0]


def plan_small_requests(seed, corpus_dir):
    rng = random.Random(f"small-requests:{seed}")
    names, files = _Names(rng), {}
    files["defs_arith.sde"] = (corpus_dir / "defs_arith.sde").read_text()
    # the pool's shapes are fixed; the seed picks coefficients and names
    simple = [_pool_linear(rng, names, files, "Q", d, 0, "simple") for d in (2, 3, 4)]
    linear = [_pool_linear(rng, names, files, alg, d, 0.6)
              for alg, d in (("Q", 2), ("Q", 3), ("Z", 4), ("Nat", 3), ("Nat", 4))]
    nonstd = [_pool_linear(rng, names, files, "Q", 2, 0.6, op="ddx"),
              _pool_linear(rng, names, files, "Z", 2, 0.6, op="delta")]
    even_odd = [_pool_even_odd(rng, names, files, alg, d)
                for alg, d in (("F2", 2), ("F2", 4), ("Nat", 3), ("Q", 5))]
    big = [_pool_linear(rng, names, files, "Z", d, density) for d, density in BIG_SPECS]
    solvable = simple + linear + nonstd + even_odd
    defs_check = ("parse: ok (algebra Q, 0 unknown(s), 2 definition(s))\n"
                  "def plus: ok (sos)\ndef times: ok (gsos)")

    def check(spec):
        if spec is None:
            return Request("check", ("check", "defs_arith.sde"), expect_text(lambda: defs_check))
        return Request("check", ("check", spec.fname),
                       expect_text(lambda: _check_text(spec)))

    def prefix(kind, spec, var, n, argv):
        r = oracles.ring(spec.alg)
        return Request(kind, argv, expect_text(
            lambda: oracles.fmt_prefix(r, spec.values(var, n))))

    def solve():
        spec = rng.choice(solvable)
        var, n = rng.choice(spec.unknowns), rng.randint(5, 30)
        return prefix("solve", spec, var, n, ("solve", f"{spec.fname}#{var}", "-n", str(n)))

    def at_index(spec, index):
        var = rng.choice(spec.unknowns)
        r = oracles.ring(spec.alg)
        if spec.kind == "even-odd":
            out, d0, d1 = spec.automaton
            expected = lambda: r.fmt(oracles.even_odd_at(out, d0, d1, var, index))
        else:
            expected = lambda: r.fmt(spec.values(var, index + 1)[-1])
        return Request("at", ("at", str(index), f"{spec.fname}#{var}"), expect_text(expected))

    def bbin():
        den = rng.choice([1, 3, 5, 7, 9, 11, 13, 15])
        # a leading '-' would read as an option, so numerators are positive
        num, n = rng.randint(1, 80), rng.randint(8, 64)
        return Request("bbin", ("bbin", f"{num}/{den}", "-n", str(n)), expect_text(
            lambda: " ".join(map(str, oracles.binary_rational(num, den, n)))))

    def kernel():
        spec = rng.choice(even_odd)
        var = rng.choice(spec.unknowns)
        return Request("kernel", ("kernel", f"{spec.fname}#{var}"), _kernel_check(spec, var))

    def evaluate():
        term, n = _eval_term(rng, 2), rng.randint(3, 10)
        return Request("eval", ("eval", "--defs", "defs_arith.sde", "--term", term,
                                "-n", str(n)),
                       expect_prefix("Q", lambda: _eval_values(term, n)))

    warmup = [check(None), solve(), bbin()]
    rounds = []
    for _ in range(SMALL_ROUNDS):
        # every large spec once in 120 requests, so that each round has
        # the same mix
        batch = [check(spec) for spec in big]
        for _ in range(3):
            batch += [check(rng.choice(solvable + [None])) for _ in range(7)]
            batch += [solve() for _ in range(12)]
            batch += [at_index(rng.choice(even_odd), round(_log_uniform(rng, 1, 1e9)))
                      for _ in range(6)]
            batch += [at_index(rng.choice(linear), rng.randint(0, 30)) for _ in range(2)]
            batch += [bbin() for _ in range(4)] + [kernel() for _ in range(4)]
            batch += [evaluate() for _ in range(4)]
        rounds.append(_shuffled(rng, batch))
    return Plan(files, warmup, rounds)


PLANS = {
    "prefix-cf": plan_prefix_cf,
    "closed-form": plan_closed_form,
    "equiv-upto": plan_equiv_upto,
    "small-requests": plan_small_requests,
}
