"""Reference answers for the benchmark, written without the streamcalc package.

Each function recomputes what a request should print from how its input
was generated, by a method unrelated to the program's own (closed
formulas, coefficient recurrences, direct convolution, matrix iteration,
long division, Moore partition refinement), so a wrong answer from the
program cannot also be the expected one.
"""

import heapq
import math
from fractions import Fraction

INF = math.inf


class Ring:
    """Coefficient arithmetic and printing for one algebra name."""

    def __init__(self, zero, one, add, mul, fmt):
        self.zero = zero
        self.one = one
        self.add = add
        self.mul = mul
        self.fmt = fmt


def ring(name):
    if name == "Q":
        return Ring(Fraction(0), Fraction(1), lambda a, b: a + b, lambda a, b: a * b, str)
    if name in ("Nat", "Z"):
        return Ring(0, 1, lambda a, b: a + b, lambda a, b: a * b, str)
    if name == "Bool":
        return Ring(False, True, lambda a, b: a or b, lambda a, b: a and b,
                    lambda a: "1" if a else "0")
    if name == "Tropical":
        return Ring(INF, Fraction(0), min, lambda a, b: a + b,
                    lambda a: "inf" if a == INF else str(a))
    if name == "F2" or name.startswith("Fp("):
        p = 2 if name == "F2" else int(name[3:-1])
        return Ring(0, 1, lambda a, b: (a + b) % p, lambda a, b: (a * b) % p, str)
    raise ValueError(f"no oracle ring for {name!r}")


def fmt_prefix(r, values):
    """The program's prefix line: elements joined by ', '."""
    return ", ".join(r.fmt(v) for v in values)


# ---------------------------------------------------------------------------
# Named sequences


def catalan(n):
    return [math.comb(2 * k, k) // (k + 1) for k in range(n)]


def schroder(n):
    """Large Schroeder numbers: s(m+1) = s(m) + sum_k s(k) s(m-k)."""
    s = [1]
    while len(s) < n:
        m = len(s) - 1
        s.append(s[m] + sum(s[k] * s[m - k] for k in range(m + 1)))
    return s[:n]


def a000831(n):
    """s(m+1) = [m = 0] + sum_k C(m, k) s(k) s(m-k)."""
    s = [1]
    while len(s) < n:
        m = len(s) - 1
        s.append((1 if m == 0 else 0)
                 + sum(math.comb(m, k) * s[k] * s[m - k] for k in range(m + 1)))
    return s[:n]


def hamming(n):
    out, seen, heap = [], {1}, [1]
    while len(out) < n:
        h = heapq.heappop(heap)
        out.append(h)
        for f in (2, 3, 5):
            if h * f not in seen:
                seen.add(h * f)
                heapq.heappush(heap, h * f)
    return out


def thue_morse(n):
    return [bin(k).count("1") % 2 for k in range(n)]


def factorials(n):
    return [math.factorial(k) for k in range(n)]


# ---------------------------------------------------------------------------
# Context-free and linear systems


def cf_prefix(r, heads, rhs, n, known=None):
    """First n elements of every unknown of x' = sum c * word, |word| <= 2.

    rhs maps an unknown to [(coefficient, word)], a word being a tuple of
    unknowns, 'X' and names of the sequences in `known` (computed
    beforehand, such as even(u)).  Element m+1 of x is element m of its
    right-hand side, which by convolution needs elements 0..m of the
    letters only.
    """
    seqs = {v: [heads[v]] for v in heads}
    table = dict(known or {})
    table["X"] = [r.zero, r.one] + [r.zero] * n

    def letter(a, k):
        return seqs[a][k] if a in seqs else table[a][k]

    for m in range(n - 1):
        nxt = {}
        for v, monos in rhs.items():
            acc = r.zero
            for c, word in monos:
                if not word:
                    term = r.one if m == 0 else r.zero
                elif len(word) == 1:
                    term = letter(word[0], m)
                else:
                    term = r.zero
                    for k in range(m + 1):
                        term = r.add(term, r.mul(letter(word[0], k),
                                                 letter(word[1], m - k)))
                acc = r.add(acc, r.mul(c, term))
            nxt[v] = acc
        for v in seqs:
            seqs[v].append(nxt[v])
    return seqs


def linear_prefix(r, matrix, heads, n):
    """x(m+1) = M x(m) by iteration; returns one sequence per row."""
    vec = list(heads)
    seqs = [[v] for v in vec]
    for _ in range(n - 1):
        vec = [_dot(r, row, vec) for row in matrix]
        for seq, v in zip(seqs, vec):
            seq.append(v)
    return seqs


def _dot(r, u, v):
    acc = r.zero
    for a, b in zip(u, v):
        acc = r.add(acc, r.mul(a, b))
    return acc


def charpoly(matrix):
    """c[0..d] with det(t I - M) = sum c[k] t^k, by Faddeev-LeVerrier."""
    d = len(matrix)
    c = [Fraction(0)] * d + [Fraction(1)]
    aux = [[Fraction(0)] * d for _ in range(d)]
    for k in range(1, d + 1):
        aux = [[sum(matrix[i][j] * aux[j][m] for j in range(d))
                + (c[d - k + 1] if i == m else 0) for m in range(d)]
               for i in range(d)]
        trace = sum(matrix[i][j] * aux[j][i] for i in range(d) for j in range(d))
        c[d - k] = -trace / k
    return c


def even_odd_at(out, d0, d1, q, n):
    """Element n of an even-odd stream: s_q(2m) = s_d0(q)(m), s_q(2m+1) = s_d1(q)(m)."""
    while n:
        q, n = (d1 if n % 2 else d0)[q], n // 2
    return out[q]


def binary_rational(num, den, n):
    """First n bits of the 2-adic expansion of num/den (den odd)."""
    x = num * pow(den, -1, 2 ** n) % 2 ** n
    return [(x >> i) & 1 for i in range(n)]


def first_difference(a, b):
    """First index where two equally long sequences differ, or None."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), None)


# ---------------------------------------------------------------------------
# Closed forms


def parse_poly(text):
    """Coefficients of `a0 + a1*X - a2*X^2 ...` as Fractions."""
    coeffs = {}
    tokens = text.replace("- ", "-").replace("+ ", "+").split()
    for tok in tokens:
        sign = 1
        if tok[0] in "+-":
            sign = -1 if tok[0] == "-" else 1
            tok = tok[1:]
        if "X" in tok:
            mag, _, xpow = tok.partition("X")
            mag = mag.rstrip("*") or "1"
            power = int(xpow[1:]) if xpow.startswith("^") else 1
        else:
            mag, power = tok, 0
        coeffs[power] = coeffs.get(power, 0) + sign * Fraction(mag)
    top = max(coeffs, default=-1)
    return [coeffs.get(i, Fraction(0)) for i in range(top + 1)]


def parse_ratexpr(text):
    """(num coefficients, den coefficients) of `(num)/(den)`."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")") and ")/(" in text):
        raise ValueError(f"not a closed form: {text!r}")
    num, den = text[1:-1].split(")/(")
    return parse_poly(num), parse_poly(den)


def expand_ratexpr(num, den, n):
    """First n coefficients of num/den by long division (den[0] != 0)."""
    out = []
    rem = list(num) + [Fraction(0)] * n
    for k in range(n):
        c = rem[k] / den[0]
        out.append(c)
        for j, d in enumerate(den):
            if k + j < len(rem):
                rem[k + j] -= c * d
    return out


# ---------------------------------------------------------------------------
# Finite automata


def moore_split_index(out1, next1, s1, out2, next2, s2):
    """Index of the first disagreement of two automaton states, or None.

    Moore refinement on the disjoint union: after round k two states
    share a block exactly when their first k+1 outputs agree, so the
    round that separates s1 from s2 is their first differing index.
    """
    states = [("L", q) for q in out1] + [("R", q) for q in out2]

    def out(t):
        return (out1 if t[0] == "L" else out2)[t[1]]

    def nxt(t):
        return (t[0], (next1 if t[0] == "L" else next2)[t[1]])

    labels = {}
    block = {t: labels.setdefault(out(t), len(labels)) for t in states}
    a, b = ("L", s1), ("R", s2)
    rounds = 0
    while block[a] == block[b]:
        keys = {}
        refined = {t: keys.setdefault((block[t], block[nxt(t)]), len(keys))
                   for t in states}
        if len(keys) == len(set(block.values())):
            return None
        block = refined
        rounds += 1
    return rounds
