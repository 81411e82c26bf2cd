"""Command-line behaviour: golden outputs and exit codes for the corpus."""

import functools
import io
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from streamcalc import equivalence
from streamcalc.cli import run
from streamcalc.errors import StreamCalcError
from streamcalc.speclang import MAX_CHAIN, MAX_HEIGHT, MAX_NESTING
from test_speclang import CHAINS, chain_text, stacked_bracket, stacked_products, tall_text

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run([str(a) for a in argv], out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def corpus(name):
    return str(CORPUS / name)


GOLDEN = [
    (("solve", corpus("fib.sde") + "#s", "-n", "8"),
     "0, 1, 1, 2, 3, 5, 8, 13\n"),
    (("solve", corpus("ones.sde") + "#s", "-n", "5"),
     "1, 1, 1, 1, 1\n"),
    (("solve", corpus("alt.sde") + "#t", "-n", "6"),
     "0, 1, 0, 1, 0, 1\n"),
    (("solve", corpus("powers2.sde") + "#s", "-n", "6"),
     "1, 2, 4, 8, 16, 32\n"),
    (("solve", corpus("nats.sde") + "#t", "-n", "6"),
     "0, 1, 2, 3, 4, 5\n"),
    (("solve", corpus("naturals.sde") + "#s", "-n", "6"),
     "1, 2, 3, 4, 5, 6\n"),
    (("solve", corpus("powers3.sde") + "#s", "-n", "5"),
     "1, 3, 9, 27, 81\n"),
    (("solve", corpus("catalan.sde") + "#s", "-n", "9"),
     "1, 1, 2, 5, 14, 42, 132, 429, 1430\n"),
    # the same stream through user definitions, which the GSOS engine applies
    (("solve", corpus("defs_catalan.sde") + "#s", "-n", "9"),
     "1, 1, 2, 5, 14, 42, 132, 429, 1430\n"),
    (("solve", corpus("schroder.sde") + "#s", "-n", "9"),
     "1, 2, 6, 22, 90, 394, 1806, 8558, 41586\n"),
    (("solve", corpus("hamming.sde") + "#g", "-n", "12"),
     "1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16\n"),
    (("solve", corpus("thue_morse_cf.sde") + "#t", "-n", "8"),
     "0, 1, 1, 0, 1, 0, 0, 1\n"),
    # independent oracle: TM(n) is the parity of the binary digit sum of n
    (("solve", corpus("thue_morse_cf.sde") + "#t", "-n", "64",
      "--budget", "2000000"),
     ", ".join(str(bin(n).count("1") % 2) for n in range(64)) + "\n"),
    (("solve", corpus("thue_morse_evenodd.sde") + "#tm", "-n", "8"),
     "0, 1, 1, 0, 1, 0, 0, 1\n"),
    (("solve", corpus("factorials.sde") + "#p", "-n", "6"),
     "1, 1, 2, 6, 24, 120\n"),
    (("solve", corpus("a000831.sde") + "#s", "-n", "6"),
     "1, 2, 4, 16, 80, 512\n"),
    (("solve", corpus("delta_powers.sde") + "#x", "-n", "6"),
     "1, 2, 4, 8, 16, 32\n"),
    (("solve", corpus("ddx_exp.sde") + "#x", "-n", "6"),
     "1, 1, 1/2, 1/6, 1/24, 1/120\n"),
    (("closed-form", corpus("fib.sde") + "#s"),
     "(X)/(1 - X - X^2)\n"),
    (("closed-form", corpus("naturals.sde") + "#s"),
     "(1)/(1 - 2*X + X^2)\n"),
    (("closed-form", corpus("alternating.sde") + "#s"),
     "(X)/(1 + X^2)\n"),
    (("closed-form", corpus("nth_powers.sde") + "#p2"),
     "(1 + X)/(1 - 3*X + 3*X^2 - X^3)\n"),
    (("closed-form", corpus("nth_powers.sde") + "#p3"),
     "(1 + 4*X + X^2)/(1 - 4*X + 6*X^2 - 4*X^3 + X^4)\n"),
    (("bbin", "17/5", "-n", "11"),
     "1 0 1 1 1 0 0 1 1 0 0\n"),
    (("at", "5", corpus("thue_morse_evenodd.sde") + "#tm"),
     "0\n"),
    (("at", "6", corpus("fib.sde") + "#s"),
     "8\n"),
    (("kernel", corpus("thue_morse_evenodd.sde") + "#tm"),
     "2-kernel (exact, 2 states):\n"
     "tm: out=0 0->tm 1->n\n"
     "n: out=1 0->n 1->tm\n"),
    (("eval", "--defs", corpus("defs_arith.sde"), "--term", "times([5], [2])",
      "-n", "4"),
     "10, 0, 0, 0\n"),
    (("solve", corpus("fig1.sde") + "#x0", "-n", "6"),
     "0, 1, 0, 1, 0, 1\n"),
    (("equiv", corpus("fig1.sde") + "#x0", corpus("fig1.sde") + "#x2"),
     "Proved\nclosed form: (X)/(1 - X^2)\n"),
    (("eval", "--defs", corpus("defs_arith.sde"),
      "--term", "[2] * inv([1] + sqrt([1] - 4*X))", "-n", "9"),
     "1, 1, 2, 5, 14, 42, 132, 429, 1430\n"),
]


@pytest.mark.parametrize("argv,expected", GOLDEN, ids=lambda v: " ".join(
    str(x).rsplit("/", 1)[-1] for x in v) if isinstance(v, tuple) else v)
def test_golden(argv, expected):
    code, out, err = invoke(*argv)
    assert err == ""
    assert code == 0
    assert out == expected


def test_output_is_deterministic():
    first = invoke("solve", corpus("hamming.sde") + "#g", "-n", "12")
    second = invoke("solve", corpus("hamming.sde") + "#g", "-n", "12")
    assert first == second


class TestExitCodes:
    def test_parse_error_is_3(self):
        code, out, err = invoke("check", corpus("bad_eq47.sde"))
        assert code == 3
        assert "error: SpecSyntaxError" in err

    def test_nonproductive_check_is_2(self):
        code, out, err = invoke("check", corpus("bad_eq53.sde"))
        assert code == 2
        assert "NonProductive at index 2" in out

    def test_nonproductive_solve_is_2(self):
        code, out, err = invoke("solve", corpus("bad_eq53.sde") + "#s", "-n", "3")
        assert code == 2
        assert "NonProductive" in err

    def test_equiv_proved_is_0(self):
        code, out, _ = invoke("equiv", corpus("fib.sde") + "#s",
                              corpus("fib.sde") + "#s")
        assert code == 0
        assert out.startswith("Proved")

    def test_equiv_refuted_is_1(self):
        code, out, _ = invoke("equiv", corpus("ones.sde") + "#s",
                              corpus("naturals.sde") + "#s")
        assert code == 1
        assert out == "Refuted at index 1: 1 != 2\n"

    def test_equiv_fig1_refuted(self):
        code, out, _ = invoke("equiv", corpus("fig1.sde") + "#x0",
                              corpus("fig1.sde") + "#x3")
        assert code == 1
        assert out == "Refuted at index 1: 1 != 0\n"

    def test_usage_error_is_3(self, tmp_path):
        code, _, err = invoke("solve", "no-separator")
        assert code == 3
        assert err.startswith("error: usage:")
        # a directory, and a file that is not UTF-8 text
        binary = tmp_path / "binary.sde"
        binary.write_bytes(b"s(0) = 1;\xff\xfe s' = s;\n")
        for path in (tmp_path, binary):
            for argv in (("check", path), ("solve", f"{path}#s")):
                code, out, err = invoke(*argv)
                assert (code, out) == (3, "")
                assert err.startswith("error: usage:")
                assert err.count("\n") == 1

    def test_missing_file_is_3(self):
        code, _, err = invoke("solve", "nowhere.sde#s")
        assert code == 3

    def test_unordered_merge_is_1(self):
        import tempfile, os

        with tempfile.NamedTemporaryFile("w", suffix=".sde", delete=False) as fh:
            fh.write("algebra F2; s(0)=1; s' = merge(s, s);\n")
            path = fh.name
        try:
            code, _, err = invoke("solve", path + "#s", "-n", "3")
            assert code == 1
            assert "UnorderedAlgebra" in err
        finally:
            os.unlink(path)


class TestSelector:
    """The unknown is the longest identifier after a `#`; the file name
    is everything before it."""

    def tail(self, path):
        return invoke("solve", f"{path}#s", "-n", "6")[1].split(", ", 1)[1]

    @pytest.mark.parametrize("name", ["alternating.sde", "fib.sde"])
    def test_auxiliary_unknown(self, name):
        # s#1 is the derivative s' that the higher-order equation adds
        path = corpus(name)
        assert invoke("solve", f"{path}#s#1", "-n", "5") == (0, self.tail(path), "")

    def test_hash_in_the_file_name(self, tmp_path):
        path = tmp_path / "x#y.sde"
        path.write_text(pathlib.Path(corpus("fib.sde")).read_text())
        assert invoke("solve", f"{path}#s", "-n", "5") == (0, "0, 1, 1, 2, 3\n", "")
        assert invoke("solve", f"{path}#s#1", "-n", "5") == (0, self.tail(path), "")

    @pytest.mark.parametrize("directory", ["run#1", "run#a", "run#a#"])
    def test_hash_in_a_directory_name(self, tmp_path, directory):
        path = tmp_path / directory / "fib.sde"
        path.parent.mkdir()
        path.write_text(pathlib.Path(corpus("fib.sde")).read_text())
        assert invoke("solve", f"{path}#s", "-n", "5") == (0, "0, 1, 1, 2, 3\n", "")

    def test_non_ascii_unknown(self, tmp_path):
        path = tmp_path / "u.sde"
        path.write_text("\u00e9(0) = 1; \u00e9' = 2*\u00e9;\n", encoding="utf-8")
        assert invoke("solve", f"{path}#\u00e9", "-n", "4") == (0, "1, 2, 4, 8\n", "")

    @pytest.mark.parametrize("suffix", ["", "#", "#1", "#1s", "#s.t"])
    def test_no_identifier_after_a_hash_is_a_usage_error(self, suffix):
        selector = corpus("fib.sde") + suffix
        assert invoke("solve", selector) == (
            3, "", f"error: usage: selector {selector!r} must look like file.sde#var\n")


class TestCheck:
    def test_reports_kind_and_probe(self):
        code, out, _ = invoke("check", corpus("fib.sde"))
        assert code == 0
        assert "kind: linear" in out
        assert "probe s: ok (0, 1, 1)" in out

    def test_reports_gsos_shape(self):
        code, out, _ = invoke("check", corpus("defs_arith.sde"))
        assert code == 0
        assert "def plus: ok (sos)" in out
        assert "def times: ok (gsos)" in out

    def test_even_odd_zero_consistency(self):
        code, out, _ = invoke("check", corpus("thue_morse_evenodd.sde"))
        assert code == 0
        assert "zero-consistency: ok" in out


class TestEquivUpToCli:
    def test_general_route_with_certificate(self):
        code, out, _ = invoke("equiv", corpus("hamming.sde") + "#g",
                              corpus("hamming.sde") + "#g")
        assert code == 0
        assert out.startswith("Proved")

    def test_budget_flag(self):
        code, out, _ = invoke("equiv", corpus("powers2.sde") + "#s",
                              corpus("double.sde") + "#x",
                              "--up-to", "", "--prefix", "0", "--budget", "30")
        # equal streams, but an empty congruence signature cannot close
        assert code == 2
        assert out.startswith("Unknown")


# Two files whose names clash across them: a's y#b is the name b's y
# took when renamed, and d's nullary definition c is u's unknown
CLASHING_FILES = {
    "a": "algebra Z;\nx(0) = 1;\nx' = x + y#b;\ny#b(0) = 0;\ny#b' = y#b;\n",
    "b": "algebra Z;\nx(0) = 1;\nx' = x + y;\ny(0) = 0;\ny' = y;\n",
    "d": "algebra Z;\ndef c() { out = 1; deriv = c(); }\nx(0) = 1;\nx' = x;\n",
    "u": "algebra Z;\nc(0) = 1;\nc' = c;\n",
}
# the pairs of unknowns that ended in `SpecError: symbol ... already
# defined`, and each one's certificate where it proves
CLASHED = {
    ("a#x", "b#x"): None, ("a#x", "b#y"): None, ("a#y#b", "b#x"): None,
    ("a#y#b", "b#y"): "y#b  ~  y#b#b", ("d#x", "u#c"): "x  ~  c#b",
    ("u#c", "d#x"): "c#a  ~  x",
}
# the certificate of every other pair that proves, as printed before
PROVED = {
    ("a#y#b", "a#y#b"): "y#b  ~  y#b#b", ("b#y", "a#y#b"): "y  ~  y#b#b",
    ("b#y", "b#y"): "y  ~  y#b", ("d#x", "d#x"): "x  ~  x#b", ("u#c", "u#c"): "c  ~  c#b",
}
# the pairs of a's and b's x, which printed Unknown (state depth exceeded)
# until their right-hand sides were matched: each relation has the pair of
# x's and the pair of the unknowns that x + y names
MATCHED = {
    ("a#x", "a#x"): "y#b  ~  y#b#b", ("a#x", "b#x"): "y#b  ~  y#b#b",
    ("b#x", "a#x"): "y  ~  y#b#b", ("b#x", "b#x"): "y  ~  y#b",
}


def _clashing_answer(left, right):
    """The answer of `equiv left right --prefix 3` on CLASHING_FILES: a
    refutation at the head where the heads differ; for two streams of
    ones an unknown verdict where a's or b's x is one side against d's x
    or u's c; otherwise a proof."""
    heads = {"a#x": 1, "a#y#b": 0, "b#x": 1, "b#y": 0, "d#x": 1, "u#c": 1}
    if heads[left] != heads[right]:
        return 1, f"Refuted at index 0: {heads[left]} != {heads[right]}\n", ""
    pair = (left, right)
    if pair in MATCHED:
        certificate = f"x  ~  x#b\n  {MATCHED[pair]}"
    elif pair not in PROVED and CLASHED.get(pair) is None:
        return 2, "Unknown (state depth exceeded)\n", ""
    else:
        certificate = PROVED.get(pair) or CLASHED[pair]
    return 0, f"Proved\ncertificate (bisimulation-up-to, stream calculus):\n  {certificate}\n", ""


def test_equiv_renames_the_clashing_side(tmp_path):
    paths = {}
    for name, text in CLASHING_FILES.items():
        paths[name] = tmp_path / f"{name}.sde"
        paths[name].write_text(text)
    unknowns = ("a#x", "a#y#b", "b#x", "b#y", "d#x", "u#c")
    for left in unknowns:
        for right in unknowns:
            argv = [f"{paths[side[0]]}#{side[2:]}" for side in (left, right)]
            # every pair answers, and those that answered before print
            # the same bytes; b's unknowns are renamed past a's y#b, and
            # the side whose unknown is the other file's definition is
            # renamed, b with #b and a with #a
            assert invoke("equiv", *argv, "--prefix", "3") == _clashing_answer(left, right), (
                left, right)
    # the reverse of each clashed pair answers as it does, under the
    # default scan too; the certificates name the unknowns of each side
    forward, backward = (invoke("equiv", f"{paths[p]}#x", f"{paths[q]}#x")
                         for p, q in (("a", "b"), ("b", "a")))
    assert forward[0] == backward[0] == 0
    assert forward[1].endswith("  y#b  ~  y#b#b\n") and backward[1].endswith("  y  ~  y#b#b\n")


class TestMatchedSystems:
    """Pairs the up-to search could not prove in minutes, or at all, that
    the match of the two systems' right-hand sides proves at once; each
    runs in its own process, so that a regression fails at the timeout."""

    def test_three_unknown_bool_sums_against_a_copy_with_permuted_names(self, tmp_path):
        # the search alone printed Unknown after 179 s
        text = ("algebra Bool;\n{0}(0) = 1;\n{0}' = {0} + {1} + {2};\n{1}(0) = 0;\n"
                "{1}' = {1} + {2};\n{2}(0) = 1;\n{2}' = {0} + {1} + {2};\n")
        left, right = tmp_path / "a.sde", tmp_path / "b.sde"
        left.write_text(text.format("a0", "a1", "a2"))
        right.write_text(text.format("b2", "b0", "b1"))
        assert invoke_in_a_fresh_process(
            "equiv", f"{left}#a0", f"{right}#b2", "--prefix", "0", "--budget", "20",
            timeout=20) == (0, "Proved\ncertificate (bisimulation-up-to, stream calculus):\n"
                            "  a0  ~  b2\n  a1  ~  b0\n  a2  ~  b1\n", "")

    def test_a_z_system_against_itself(self, tmp_path):
        # the search alone grew its memory without end at default flags
        path = tmp_path / "ones.sde"
        path.write_text("algebra Z;\nx(0) = 1;\nx' = 2*x - y;\ny(0) = 1;\ny' = y;\n")
        assert invoke_in_a_fresh_process("equiv", f"{path}#x", f"{path}#x", timeout=20) == (
            0, "Proved\ncertificate (bisimulation-up-to, stream calculus):\n"
            "  x  ~  x#b\n  y  ~  y#b\n", "")

    def test_the_match_runs_after_the_prefix_scan(self, monkeypatch):
        catalan = corpus("catalan.sde") + "#s"
        assert invoke("equiv", catalan, catalan) == (
            2, "", "error: BudgetExhausted: forcing budget exhausted (at index 30)\n")
        monkeypatch.setattr(equivalence, "_closure_membership", None)  # no search
        assert invoke("equiv", catalan, catalan, "--prefix", "0") == (
            0, "Proved\ncertificate (bisimulation-up-to, stream calculus):\n  s  ~  s#b\n", "")


def test_equiv_refutations_print_alike(tmp_path):
    # closed forms, the prefix scan and the up-to search each refute
    path = tmp_path / "r.sde"
    path.write_text("algebra Z;\nx(0) = 1;\nx' = x;\ny(0) = 1;\ny' = 2*y;\n")
    refuted = (1, "Refuted at index 1: 1 != 2\n", "")
    for flags in ((), ("--prefix", "0")):
        assert invoke("equiv", f"{path}#x", f"{path}#y", *flags) == refuted
    assert invoke("equiv", f"{path}#x", f"{path}#y", "--algebra", "Q") == refuted


# Specs whose answers on the GSOS engine once hung on its operation
# names: a definition named neg, an unknown named neg, a definition and
# an unknown both named f, and a unary minus between two copies of one
# system.  Operations are (symbol, arity) pairs, and unary minus is -.
NAMING_SPECS = {
    "def_neg": "algebra Z;\ndef neg(a) { out = a(0); deriv = neg(a'); }\n"
               "x(0) = 1;\nx' = -x * x;\n",
    "unknown_neg": "neg(0) = 1;\nneg' = neg;\n",
    "f": "algebra Nat;\ndef f(a) { out = a(0); deriv = f(a'); }\nf(0) = 1;\nf' = f(f) * f;\n",
    "minus": "algebra Z;\nx(0) = 1;\nx' = -x;\ny(0) = 1;\ny' = -y;\n",
}


@pytest.fixture
def naming_specs(tmp_path):
    paths = {}
    for name, text in NAMING_SPECS.items():
        paths[name] = tmp_path / f"{name}.sde"
        paths[name].write_text(text)
    return paths


class TestOperationNames:
    def test_a_definition_named_neg_is_no_unary_minus(self, naming_specs, tmp_path):
        signed = (0, "1, -1, 2, -5, 14, -42, 132, -429\n", "")
        # on the engine, as the definition puts it there, and on series
        assert invoke("solve", f"{naming_specs['def_neg']}#x", "-n", "8") == signed
        plain = tmp_path / "plain.sde"
        plain.write_text("algebra Z;\nx(0) = 1;\nx' = -x * x;\n")
        assert invoke("solve", f"{plain}#x", "-n", "8") == signed

    def test_an_unknown_named_neg_enters_the_engine(self, naming_specs, tmp_path):
        path = naming_specs["unknown_neg"]
        assert invoke("eval", "--defs", path, "--term", "X", "-n", "3") == (0, "0, 1, 0\n", "")
        assert invoke("eval", "--defs", path, "--term=-neg", "-n", "3") == (
            0, "-1, -1, -1\n", "")
        ones = tmp_path / "ones.sde"
        ones.write_text("x(0) = 1;\nx' = x;\n")
        assert invoke("equiv", f"{path}#neg", f"{ones}#x", "--algebra", "Nat") == (
            0, "Proved\ncertificate (bisimulation-up-to, stream calculus):\n  neg  ~  x\n", "")

    def test_a_definition_and_an_unknown_share_a_name(self, naming_specs):
        path = naming_specs["f"]
        assert invoke("solve", f"{path}#f", "-n", "6") == (0, "1, 1, 2, 5, 14, 42\n", "")
        code, out, _ = invoke("check", path)
        assert code == 0 and "kind: general\nprobe f: ok (1, 1, 2)\n" in out

    def test_up_to_minus_crosses_unary_minus(self, naming_specs):
        sides = (f"{naming_specs['minus']}#x", f"{naming_specs['minus']}#y")
        flags = ("--prefix", "0", "--budget", "50")
        assert invoke("equiv", *sides, *flags, "--up-to", "-") == (
            0, "Proved\ncertificate (bisimulation-up-to, stream calculus):\n  x  ~  y#b\n", "")
        assert invoke("equiv", *sides, *flags, "--up-to", "+,*") == (
            2, "Unknown (budget exceeded)\n", "")

    def test_up_to_names_operations(self, naming_specs, tmp_path):
        sides = (f"{naming_specs['minus']}#x", f"{naming_specs['minus']}#y")
        flags = ("--prefix", "0", "--budget", "50")
        for name in ("neg", "x"):
            assert invoke("equiv", *sides, *flags, "--up-to", f"+,{name}") == (
                3, "", f"error: usage: --up-to: {name!r} is no operation of the spec "
                "language or of the two files\n")
        # no operation at all is a signature too
        assert invoke("equiv", *sides, *flags, "--up-to", "") == (
            2, "Unknown (budget exceeded)\n", "")
        # a definition of either file is an operation
        flipped = tmp_path / "flip.sde"
        flipped.write_text("algebra Z;\ndef flip(a) { out = -a(0); deriv = flip(a'); }\n"
                           "z(0) = 1;\nz' = flip(z);\n")
        for pair in ((sides[0], f"{flipped}#z"), (f"{flipped}#z", sides[0])):
            code, out, err = invoke("equiv", *pair, *flags, "--up-to", "flip,-")
            assert (code, err) == (2, "") and out.startswith("Unknown"), pair

    def test_no_congruence_step_relates_unary_and_binary_minus(self, tmp_path):
        # a' = -c and b' = c - q: the pair (-c, c - q) shares the symbol -
        # and the argument c, a definition both sides apply, so only the
        # arities keep the closure from relating them, and the heads
        # refute it
        path = tmp_path / "minus.sde"
        path.write_text("algebra Z;\ndef c() { out = 1; deriv = c(); }\n"
                        "a(0) = 0;\na' = -c;\nb(0) = 0;\nb' = c - q;\nq(0) = 0;\nq' = q;\n")
        assert invoke("equiv", f"{path}#a", f"{path}#b", "--prefix", "0",
                      "--up-to", "-") == (1, "Refuted at index 1: -1 != 1\n", "")

    def test_conflicting_definitions(self, tmp_path):
        one, other = tmp_path / "one.sde", tmp_path / "other.sde"
        one.write_text("def f(a) { out = a(0); deriv = f(a'); }\nx(0) = 1;\nx' = f(x);\n")
        other.write_text("def f(a) { out = 2 * a(0); deriv = f(a'); }\ny(0) = 1;\ny' = y;\n")
        assert invoke("equiv", f"{one}#x", f"{other}#y") == (
            3, "", "error: SpecError: conflicting definitions of 'f'\n")


class TestEvalOverEveryFormat:
    """A system's unknowns, whatever its format, are the streams `solve`
    prints, leaves of the evaluated term."""

    def test_tail_system(self):
        # loaded into the eval engine, s ended BudgetExhausted at index 39
        catalan = corpus("catalan.sde")
        solved = invoke("solve", f"{catalan}#s", "-n", "60")
        assert solved[0] == 0 and solved[1].count(", ") == 59
        assert invoke("eval", "--defs", catalan, "--term", "s", "-n", "60") == solved

    def test_even_odd(self):
        path = corpus("thue_morse_evenodd.sde")
        assert invoke("eval", "--defs", path, "--term", "X", "-n", "3") == (0, "0, 1, 0\n", "")
        assert invoke("eval", "--defs", path, "--term", "tm' + tm * X", "-n", "6") == (
            0, "1, 1, 1, 0, 0, 1\n", "")

    def test_non_standard(self):
        assert invoke("eval", "--defs", corpus("delta_powers.sde"), "--term", "x' + x",
                      "-n", "4") == (0, "3, 6, 12, 24\n", "")
        assert invoke("eval", "--defs", corpus("ddx_exp.sde"), "--term", "x * x",
                      "-n", "4") == (0, "1, 2, 2, 4/3\n", "")

    def test_the_systems_own_refusals(self):
        assert invoke("eval", "--defs", corpus("delta_powers.sde"), "--term", "X",
                      "--algebra", "Nat") == (
            1, "", "error: UnsupportedOp: delta systems need a ring\n")
        code, out, err = invoke("eval", "--defs", corpus("ddx_exp.sde"), "--term", "X",
                                "--algebra", "Z")
        assert (code, out) == (1, "") and err.startswith(
            "error: UnsupportedOp: ddx systems need a field of characteristic 0")

    def test_one_engine_for_the_term_and_the_system(self, monkeypatch):
        from streamcalc import gsos

        built = []
        monkeypatch.setattr(gsos, "Engine", lambda *a, _engine=gsos.Engine, **k:
                            built.append(a) or _engine(*a, **k))
        assert invoke("eval", "--defs", corpus("defs_catalan.sde"), "--term", "s + X",
                      "-n", "4") == (0, "1, 2, 2, 5\n", "")
        assert len(built) == 1

    def test_the_terms_own_errors(self):
        # as over a tail system
        for spec in ("thue_morse_evenodd.sde", "ones.sde"):
            assert invoke("eval", "--defs", corpus(spec), "--term", "X - 1",
                          "--algebra", "Nat") == (
                1, "", "error: UnsupportedOp: Nat has no negation\n"), spec


class TestUpToOverPartialOperations:
    """The up-to closure crosses no operation whose streams the algebra
    cannot compute, so `equiv` of such a stream against itself ends with
    the error `solve` gives, where it printed Proved."""

    @pytest.mark.parametrize("up_to", ((), ("--up-to", "+,-,*")))
    @pytest.mark.parametrize("algebra", ("Nat", "Bool", "Tropical"))
    def test_without_negation(self, tmp_path, algebra, up_to):
        inverse = tmp_path / "inv.sde"
        inverse.write_text("x(0) = 1;\nx' = inv(x);\n")
        for selector in (corpus("alternating.sde") + "#s", f"{inverse}#x"):
            solved = invoke("solve", selector, "--algebra", algebra)
            assert solved == (1, "", f"error: UnsupportedOp: {algebra} has no negation\n")
            assert invoke("equiv", selector, selector, "--prefix", "0", "--budget", "60",
                          "--algebra", algebra, *up_to) == solved, selector

    @pytest.mark.parametrize("up_to", ((), ("--up-to", "+,-,*,merge")))
    @pytest.mark.parametrize("algebra", ("Bool", "Tropical", "F2", "Fp(5)"))
    def test_without_an_order(self, tmp_path, algebra, up_to):
        path = tmp_path / "merge.sde"
        path.write_text("x(0) = 1;\nx' = merge(x, x);\n")
        solved = invoke("solve", f"{path}#x", "--algebra", algebra)
        assert solved == (1, "", f"error: UnorderedAlgebra: {algebra} has no order for guards\n")
        assert invoke("equiv", f"{path}#x", f"{path}#x", "--prefix", "0", "--budget", "60",
                      "--algebra", algebra, *up_to) == solved

    def test_with_negation_and_an_order(self):
        alternating = corpus("alternating.sde") + "#s"
        assert invoke("equiv", alternating, alternating, "--prefix", "0", "--budget", "60",
                      "--algebra", "Z") == (
            0, "Proved\ncertificate (bisimulation-up-to, stream calculus):\n  s  ~  s#b\n"
            "  s#1  ~  s#1#b\n", "")

    @pytest.mark.parametrize("spec,flags,error", [
        ("algebra Z;\nx(0) = 2;\nx' = inv(x);\n", (),
         "HeadNotInvertible: 2 has no inverse"),
        ("algebra Q;\nx(0) = 2;\nx' = sqrt(x);\n", (),
         "NoExactSqrt: 2 has no exact square root"),
        ("defs_signed.sde", ("--algebra", "Nat"), "UnsupportedOp: Nat has no negation"),
    ], ids=["inv-Z", "sqrt-Q", "flip-Nat"])
    def test_the_discharged_pair_has_heads(self, tmp_path, spec, flags, error):
        # the closure crosses inv, sqrt and a definition without computing a
        # head, so the pair it discharges must have heads of its own
        if spec.endswith(".sde"):
            selector = corpus(spec) + "#t"
        else:
            path = tmp_path / "head.sde"
            path.write_text(spec)
            selector = f"{path}#x"
        solved = invoke("solve", selector, *flags)
        assert solved == (1, "", f"error: {error}\n")
        assert invoke("equiv", selector, selector, "--prefix", "0", *flags) == solved


def test_gsos_violation_at_solve_is_1():
    import os
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".sde", delete=False) as fh:
        fh.write("def evn(a) { out = a(0); deriv = evn(a''); }\n"
                 "s(0)=0; s' = evn(s);\n")
        path = fh.name
    try:
        code, _, err = invoke("solve", path + "#s", "-n", "3")
        assert code == 1
        assert "GsosViolation" in err
    finally:
        os.unlink(path)


# ---------------------------------------------------------------------------
# Context-free and builtin-only general systems solve by coefficient arrays.
# Each row was recorded through the GSOS engine before that route existed:
# (name, spec, solve (code, out, err), check (code, out, err)).

FAILING_SPECS = [
    ("merge_f2", "algebra F2;\ns(0) = 1;\ns' = merge(s, s);\n",
     (1, '', 'error: UnorderedAlgebra: F2 has no order for guards\n'),
     (1, 'parse: ok (algebra F2, 1 unknown(s), 0 definition(s))\nkind: general\n',
      'error: UnorderedAlgebra: F2 has no order for guards\n')),
    ("minus_nat", "algebra Nat;\ns(0) = 1;\ns' = s - s;\n",
     (1, '', 'error: UnsupportedOp: Nat has no negation\n'),
     (1, 'parse: ok (algebra Nat, 1 unknown(s), 0 definition(s))\nkind: general\n',
      'error: UnsupportedOp: Nat has no negation\n')),
    ("inv_zero_q", "algebra Q;\ns(0) = 0;\ns' = inv(s);\n",
     (1, '', 'error: HeadNotInvertible: 0 has no inverse\n'),
     (1, 'parse: ok (algebra Q, 1 unknown(s), 0 definition(s))\nkind: general\n',
      'error: HeadNotInvertible: 0 has no inverse\n')),
    ("inv_nat", "algebra Nat;\ns(0) = 1;\ns' = inv(s);\n",
     (1, '', 'error: UnsupportedOp: Nat has no negation\n'),
     (1, 'parse: ok (algebra Nat, 1 unknown(s), 0 definition(s))\nkind: general\n',
      'error: UnsupportedOp: Nat has no negation\n')),
    ("sqrt2_q", "algebra Q;\ns(0) = 2;\ns' = sqrt(s);\n",
     (1, '', 'error: NoExactSqrt: 2 has no exact square root\n'),
     (1, 'parse: ok (algebra Q, 1 unknown(s), 0 definition(s))\nkind: general\n',
      'error: NoExactSqrt: 2 has no exact square root\n')),
    ("sqrt_f2", "algebra F2;\ns(0) = 1;\ns' = sqrt(s);\n",
     (1, '', 'error: HeadNotInvertible: 0 has no inverse\n'),
     (1, 'parse: ok (algebra F2, 1 unknown(s), 0 definition(s))\nkind: general\n',
      'error: HeadNotInvertible: 0 has no inverse\n')),
    ("x_even_q", "algebra Q;\ns(0) = 1;\ns' = X*even(s) + s*s;\n",
     (2, '', 'error: NonProductive: non-productive definition (at index 2)\n'),
     (2, 'parse: ok (algebra Q, 1 unknown(s), 0 definition(s))\nkind: general\n'
      'probe s: NonProductive at index 2\n', '')),
    ("delta_q", "algebra Q;\nx(0) = 1;\nx' = delta(x);\n",
     (2, '', 'error: NonProductive: non-productive definition (at index 1)\n'),
     (2, 'parse: ok (algebra Q, 1 unknown(s), 0 definition(s))\nkind: general\n'
      'probe x: NonProductive at index 1\n', '')),
    ("delta_nat", "algebra Nat;\nx(0) = 1;\nx' = delta(x);\n",
     (1, '', 'error: UnsupportedOp: delta needs a ring, not Nat\n'),
     (1, 'parse: ok (algebra Nat, 1 unknown(s), 0 definition(s))\nkind: general\n',
      'error: UnsupportedOp: delta needs a ring, not Nat\n')),
]

# prefix lengths at which the same specs still answer; over Nat a
# capability error comes with the coefficient that needs it, so inv_nat
# and delta_nat print one element more than the engine did
SHORT_PREFIXES = [
    ("inv_nat", "1", (0, '1\n', '')),
    ("inv_nat", "2", (0, '1, 1\n', '')),
    ("sqrt_f2", "2", (0, '1, 1\n', '')),
    ("x_even_q", "2", (0, '1, 1\n', '')),
    ("delta_nat", "1", (0, '1\n', '')),
]


def _write_spec(tmp_path, name):
    text = next(row[1] for row in FAILING_SPECS if row[0] == name)
    path = tmp_path / f"{name}.sde"
    path.write_text(text)
    return path, "x" if "x(0)" in text else "s"


@pytest.mark.parametrize("name,text,solved,checked", FAILING_SPECS,
                         ids=[row[0] for row in FAILING_SPECS])
def test_failing_specs_keep_engine_output(tmp_path, name, text, solved, checked):
    path, var = _write_spec(tmp_path, name)
    assert invoke("solve", f"{path}#{var}") == solved
    assert invoke("check", path) == checked


@pytest.mark.parametrize("name,count,expected", SHORT_PREFIXES)
def test_failing_specs_short_prefixes(tmp_path, name, count, expected):
    path, var = _write_spec(tmp_path, name)
    assert invoke("solve", f"{path}#{var}", "-n", count) == expected


def test_bad_eq53_keeps_engine_output():
    assert invoke("solve", corpus("bad_eq53.sde") + "#s") == (
        2, '', 'error: NonProductive: non-productive definition (at index 2)\n')
    assert invoke("check", corpus("bad_eq53.sde")) == (
        2, 'parse: ok (algebra Q, 1 unknown(s), 0 definition(s))\nkind: general\n'
        'probe s: NonProductive at index 2\n', '')


@pytest.mark.parametrize("argv,usage", [
    (["--help"], "usage: streamcalc [-h]"), (["-h"], "usage: streamcalc [-h]"),
    (["solve", "--help"], "usage: streamcalc solve"),
    (["kernel", "missing.sde#s", "-h"], "usage: streamcalc kernel")])
def test_help_is_written_to_out(capsys, argv, usage):
    code, out, err = invoke(*argv)
    assert (code, err) == (0, "")
    assert out.startswith(usage) and out.endswith("\n")
    assert capsys.readouterr() == ("", "")


class TestSolveRoutes:
    """Every system is solved coefficient by coefficient (`series`); the
    engine of the file's definitions applies them and refuses an invalid
    one, whatever the system's format."""

    INVALID = "def evn(a) { out = a(0); deriv = evn(a''); }"
    REFUSED = ("error: GsosViolation: 2:5: definition of 'evn' is not in the "
               "GSOS format: higher derivative of an argument\n")

    @pytest.fixture
    def calls(self, monkeypatch):
        from streamcalc import gsos, series

        seen = []
        for module, name in ((gsos, "solve_system_with_defs"),
                             (series, "solve_by_coefficients")):
            original = getattr(module, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                seen.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        return seen

    def test_user_definition_is_applied_by_the_engine(self, tmp_path, calls):
        path = tmp_path / "twice.sde"
        path.write_text("def twice(a) { out = a(0) + a(0); deriv = twice(a'); }\n"
                        "s(0) = 1; s' = twice(s);\n")
        assert invoke("solve", f"{path}#s", "-n", "5") == (0, "1, 2, 4, 8, 16\n", "")
        assert calls == ["solve_by_coefficients"]

    def test_an_unused_definition_changes_nothing(self, calls):
        argv = ("-n", "40")
        code, out, err = invoke("solve", corpus("defs_unused.sde") + "#s", *argv)
        assert (code, err) == (0, "") and out.count(",") == 39
        assert invoke("solve", corpus("catalan.sde") + "#s", *argv) == (code, out, err)
        assert calls == ["solve_by_coefficients"] * 2

    @pytest.mark.parametrize("system", [
        "s(0) = 1; s' = s*s;",
        "s(0) = 1; s' = 2*s;",
        "s(0) = 1; delta(s) = s;",
        "s(0) = 0; even(s) = s; odd(s) = t;\nt(0) = 1; even(t) = t; odd(t) = s;"],
        ids=["context-free", "linear", "non-standard", "even-odd"])
    def test_an_invalid_definition_is_refused_in_every_format(self, tmp_path, calls,
                                                              system):
        path = tmp_path / "unused.sde"
        path.write_text(f"algebra Z;\n{self.INVALID}\n{system}\n")
        sel = f"{path}#s"
        for argv in (("solve", sel), ("at", "5", sel), ("kernel", sel),
                     ("closed-form", sel), ("equiv", sel, sel),
                     ("eval", "--defs", path, "--term", "s")):
            assert invoke(*argv) == (1, "", self.REFUSED), argv
        code, out, _ = invoke("check", path)
        assert code == 1 and "def evn: violation" in out
        assert calls == []

    def test_cancelled_nonlinear_part_takes_series(self, tmp_path, calls):
        path = tmp_path / "cancelled.sde"
        path.write_text("def id(a) { out = a(0); deriv = id(a'); }\n"
                        "s(0) = 1; s' = s*s - s*s + s;\n")
        assert invoke("solve", f"{path}#s", "-n", "3") == (0, "1, 1, 1\n", "")
        assert calls == ["solve_by_coefficients"]

    def test_a_nonstd_system_applies_a_definition(self, tmp_path, calls):
        path = tmp_path / "flip.sde"
        path.write_text("algebra Z; def flip(a) { out = -a(0); deriv = flip(a'); }\n"
                        "x(0) = 1; delta(x) = x + flip(x);\n")
        assert invoke("solve", f"{path}#x", "-n", "5") == (0, "1, 1, 1, 1, 1\n", "")
        assert invoke("solve", corpus("defs_delta.sde") + "#x", "-n", "5") == (
            0, "1, 3, 9, 27, 81\n", "")
        assert calls == ["solve_by_coefficients"] * 2

    @pytest.mark.parametrize("name,var", [
        ("catalan.sde", "s"), ("hamming.sde", "g"), ("nth_powers.sde", "p3"),
        ("fib.sde", "s"), ("delta_powers.sde", "x"), ("ddx_exp.sde", "x"),
        ("ones.sde", "s"), ("fig1.sde", "x0"), ("thue_morse_evenodd.sde", "tm"),
        # and systems that apply definitions
        ("defs_catalan.sde", "s"), ("defs_signed.sde", "t"), ("defs_delta.sde", "y")])
    def test_builtin_systems_solve_by_coefficients(self, calls, name, var):
        code, _, _ = invoke("solve", corpus(name) + "#" + var, "-n", "5")
        assert code == 0
        assert calls == ["solve_by_coefficients"]

    def test_nonstd_ignores_definitions(self, tmp_path, calls):
        path = tmp_path / "unused.sde"
        path.write_text("algebra Z;\n"
                        "def id(a) { out = a(0); deriv = id(a'); }\n"
                        "x(0) = 1; delta(x) = x;\n")
        assert invoke("solve", f"{path}#x", "-n", "4") == (0, "1, 2, 4, 8\n", "")
        assert calls == ["solve_by_coefficients"]

    def test_linear_and_nonstd_corpus_reach_900(self):
        # one budget step per node coefficient: every corpus simple,
        # linear, non-standard and even-odd unknown still gives 900
        # elements by default
        from streamcalc import parse
        from streamcalc.speclang import Kind, classify

        checked = 0
        for path in sorted(CORPUS.glob("*.sde")):
            try:
                sys_ = parse(path.read_text()).system
            except StreamCalcError:
                continue
            if sys_ is None or classify(sys_) not in (
                    Kind.SIMPLE, Kind.LINEAR, Kind.NONSTD, Kind.EVEN_ODD):
                continue
            for var in sys_.variables:
                budget = ()
                if path.name == "linear_q_dense.sde":
                    # seven dense unknowns: about 13 node coefficients an
                    # element, one per unknown and one per right-hand side,
                    # so the default budget ends before 900
                    code, out, err = invoke("solve", f"{path}#{var}", "-n", "900")
                    assert (code, out) == (2, "") and re.fullmatch(
                        r"error: BudgetExhausted: forcing budget exhausted "
                        r"\(at index 7\d\d\)\n", err), (var, err)
                    budget = ("--budget", "30000")
                code, out, err = invoke("solve", f"{path}#{var}", "-n", "900", *budget)
                assert (code, err) == (0, ""), (path.name, var)
                assert out.count(",") == 899
                checked += 1
        assert checked >= 28

    @pytest.mark.parametrize("command", ["solve", "kernel"])
    def test_zero_inconsistent_even_odd(self, tmp_path, command):
        path = tmp_path / "zi.sde"
        path.write_text("algebra F2;\n"
                        "x(0) = 0; even(x) = y; odd(x) = x;\n"
                        "y(0) = 1; even(y) = y; odd(y) = y;\n")
        for var in ("x", "y", "z"):
            assert invoke(command, f"{path}#{var}") == (
                1, "", "error: NotZeroConsistent: zero-consistency fails at 'x'\n")

    def test_budget_counts_node_coefficients(self):
        assert invoke("solve", corpus("nth_powers.sde") + "#p3", "-n", "200",
                      "--budget", "60") == (
            2, "", "error: BudgetExhausted: forcing budget exhausted (at index 8)\n")

    def test_catalan_44_within_default_budget(self):
        import math

        code, out, err = invoke("solve", corpus("catalan.sde") + "#s", "-n", "44")
        assert (code, err) == (0, "")
        assert out == ", ".join(str(math.comb(2 * n, n) // (n + 1))
                                for n in range(44)) + "\n"

    def test_thue_morse_kernel_closes(self):
        # the engine's streams ran out of the kernel's prefix budget here
        code, out, _ = invoke("kernel", corpus("thue_morse_cf.sde") + "#t")
        assert code == 0
        assert out == ("2-kernel (heuristic, 2 states):\n"
                       "k0: out=0 0->k0 1->k1\n"
                       "k1: out=1 0->k1 1->k0\n")

    def test_small_budget_still_exhausts(self):
        code, out, err = invoke("solve", corpus("catalan.sde") + "#s",
                                "-n", "200", "--budget", "50")
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: BudgetExhausted: forcing budget exhausted "
                            r"\(at index \d+\)\n", err)


def _answered(stream, n):
    """The first elements of a stream, up to n, that observation gives
    within the default budget before any error."""
    from streamcalc.stream import BudgetScope

    values = []
    with BudgetScope(None):
        try:
            for _ in range(n):
                values.append(stream.head)
                stream = stream.tail
        except StreamCalcError:
            pass
    return values


@pytest.mark.parametrize("name", ["defs_catalan.sde", "defs_signed.sde"])
def test_definitions_agree_with_the_engine_reference(name):
    """Where both answer, `solve` prints the elements of the engine's own
    solution of the system (gsos.solve_system_with_defs)."""
    from streamcalc import cli, gsos, speclang
    from streamcalc.algebra import get_algebra

    path, compared = corpus(name), 0
    for algebra in ("Q", "Z", "Nat", "Bool", "Tropical", "F2", "Fp(5)"):
        try:
            spec = speclang.parse(pathlib.Path(path).read_text(),
                                  algebra=get_algebra(algebra))
        except StreamCalcError:
            continue
        reference = gsos.solve_system_with_defs(spec.system, spec.defs)
        streams = cli._solve_spec(cli._load(path, algebra))
        for var in spec.system.variables:
            want = _answered(reference[var], 60)
            got = _answered(streams[var], 60)
            common = min(len(want), len(got))
            assert got[:common] == want[:common], (algebra, var)
            if common:
                printed = ", ".join(map(spec.algebra.fmt, want[:common])) + "\n"
                assert invoke("solve", f"{path}#{var}", "-n", common,
                              "--algebra", algebra) == (0, printed, ""), (algebra, var)
                compared += common
    assert compared >= 100


@pytest.mark.parametrize("text,expected", [
    ("algebra Z;\nx(0) = 1;\ndelta(x) = zip(x, X);\n",
     "1, 2, 2, 4, 5, 7, 7, 11, 11\n"),
    ("algebra Q;\nx(0) = 1;\nddx(x) = shuffle(x, X);\n",
     "1, 0, 1/2, 0, 3/8, 0, 5/16, 0, 35/128\n"),
])
def test_nonstd_beyond_context_free(tmp_path, text, expected):
    # refused with UnsupportedOp while delta/ddx right-hand sides were
    # limited to + - * X
    path = tmp_path / "nonstd.sde"
    path.write_text(text)
    assert invoke("solve", f"{path}#x", "-n", "9") == (0, expected, "")


# systems whose polynomial form is more specific than their syntax: the
# nonlinear monomials of the first three cancel, so `check` called them
# context-free and `closed-form` refused them; the corpus four were linear
MOST_SPECIFIC = [
    ("x(0) = 1; x' = x*y - x*y + 2*y; y(0) = 1; y' = y;", None, "linear"),
    ("x(0) = 1; x' = X*[0] + y; y(0) = 2; y' = x + y;", None, "linear"),
    ("x(0) = 1; x' = 2*x*x + y; y(0) = 1; y' = x + y;", "F2", "linear"),
    ("alternating.sde", "F2", "simple"),
    ("powers2.sde", "Bool", "simple"),
    ("powers2.sde", "Tropical", "simple"),
    ("powers3.sde", "F2", "simple"),
]


@pytest.mark.parametrize("text,algebra,kind", MOST_SPECIFIC)
def test_format_is_read_from_the_polynomial_form(tmp_path, text, algebra, kind):
    from streamcalc import format_ratexpr, parse
    from streamcalc.algebra import get_algebra, ratexpr_coefficients
    from streamcalc.solvers import linear_system_of, solve_linear_matrix

    if text.endswith(".sde"):
        path = pathlib.Path(corpus(text))
    else:
        path = tmp_path / "spec.sde"
        path.write_text(text + "\n")
    override = ("--algebra", algebra) if algebra else ()
    code, out, err = invoke("check", path, *override)
    assert (code, err) == (0, "") and f"\nkind: {kind}\n" in out
    spec = parse(path.read_text(), algebra=algebra and get_algebra(algebra))
    var = spec.system.variables[0]
    code, prefix, err = invoke("solve", f"{path}#{var}", "-n", "12", *override)
    assert (code, err) == (0, "")
    if spec.algebra.kind != "field":
        return
    (form,) = solve_linear_matrix(linear_system_of(spec.system), [var])
    printed = ", ".join(spec.algebra.fmt(c) for c in ratexpr_coefficients(form, 12))
    assert printed + "\n" == prefix
    assert invoke("closed-form", f"{path}#{var}", *override) == (
        0, f"{format_ratexpr(form)}\n", "")
    # equiv over a field decides by closed forms
    assert invoke("equiv", f"{path}#{var}", f"{path}#{var}", *override) == (
        0, f"Proved\nclosed form: {format_ratexpr(form)}\n", "")


def _dense_z_spec(tmp_path, prefix, n):
    """A random linear Z system of n unknowns, each using about 80 % of
    them, seeded by n."""
    rng = random.Random(n)
    names = [f"{prefix}{i}" for i in range(n)]
    lines = ["algebra Z;"]
    for v in names:
        terms = [f"{rng.choice([1, 2, 3, -1, -2])}*{w}" for w in names
                 if rng.random() < 0.8]
        lines += [f"{v}(0) = {rng.randint(-2, 2)};",
                  f"{v}' = {' + '.join(terms)};".replace("+ -", "- ")]
    path = tmp_path / "dense.sde"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_check_probes_large_dense_linear_spec(tmp_path):
    # every unknown of a 60-unknown dense Z system within the probe budget
    path = _dense_z_spec(tmp_path, "v", 60)
    code, out, err = invoke("check", path)
    assert (code, err) == (0, "")
    probes = out.splitlines()[2:]
    assert len(probes) == 60
    assert all(re.fullmatch(r"probe v\d+: ok \(.*\)", line) for line in probes)


class TestNumericFlags:
    @pytest.mark.parametrize("argv,flag", [
        (("solve", corpus("fib.sde") + "#s", "-n", "-1"), "-n"),
        (("solve", corpus("fib.sde") + "#s", "--budget", "0"), "--budget"),
        (("bbin", "1/3", "-n", "-5"), "-n"),
        (("equiv", corpus("fib.sde") + "#s", corpus("fib.sde") + "#s",
          "--prefix", "-7"), "--prefix"),
    ])
    def test_out_of_range_is_usage_error(self, argv, flag):
        code, out, err = invoke(*argv)
        assert (code, out) == (3, "")
        assert err.startswith(f"error: usage: argument {flag}: must be at least")
        assert err.count("\n") == 1

    def test_defaults_do_not_leak_between_calls(self):
        # the argument parser is built once and shared by every call
        assert invoke("solve", corpus("ones.sde") + "#s", "-n", "5") == (
            0, "1, 1, 1, 1, 1\n", "")
        assert invoke("solve", corpus("ones.sde") + "#s") == (
            0, ", ".join(["1"] * 20) + "\n", "")

    def test_kernel_takes_no_count(self):
        # kernel never read -n, so it does not accept one
        assert invoke("kernel", corpus("thue_morse_evenodd.sde") + "#tm", "-n", "3") == (
            3, "", "error: usage: unrecognized arguments: -n 3\n")

    def test_bounds_are_inclusive(self):
        assert invoke("solve", corpus("fib.sde") + "#s", "-n", "0",
                      "--budget", "1") == (0, "\n", "")


@pytest.mark.parametrize("algebra", ["Nat", "Bool", "Tropical"])
@pytest.mark.parametrize("text", [
    "x(0) = 1 - 1;\nx' = x;\n",
    "x(0) = 1;\nx' = [1 - 1]*x;\n",
    "def f(a) { out = a(0) - a(0); deriv = f(a'); }\nx(0) = 1;\nx' = f(x);\n",
])
def test_subtraction_in_a_head_expression_needs_negation(tmp_path, algebra, text):
    # the parser folds an initial value and a bracket, the engine a
    # definition's out, and both refuse `-` with one message
    path = tmp_path / "sub.sde"
    path.write_text(f"algebra {algebra};\n{text}")
    assert invoke("solve", f"{path}#x", "-n", "3") == (
        1, "", f"error: UnsupportedOp: {algebra} has no negation\n")


class TestClosedFormErrorOrder:
    """closed-form computes the selected unknown only, yet a missing
    unknown fails as the whole system did: format, then algebra, then name."""

    @pytest.mark.parametrize("spec,flags,expected", [
        ("fib.sde", ("--algebra", "Z"),
         (1, "", "error: UnsupportedOp: the matrix method needs a field algebra\n")),
        ("catalan.sde", (),
         (1, "", "error: UnsupportedOp: closed forms need a linear system, "
                 "got context-free\n")),
        ("catalan.sde", ("--algebra", "Z"),
         (1, "", "error: UnsupportedOp: closed forms need a linear system, "
                 "got context-free\n")),
    ])
    def test_missing_unknown_fails_as_the_system(self, spec, flags, expected):
        assert invoke("closed-form", corpus(spec) + "#nope", *flags) == expected
        assert invoke("closed-form", corpus(spec) + "#s", *flags) == expected

    def test_missing_unknown_of_a_linear_system(self):
        path = corpus("fib.sde")
        assert invoke("closed-form", path + "#nope") == (
            3, "", f"error: SpecError: no variable 'nope' in {path}\n")
        assert invoke("equiv", path + "#s", path + "#nope") == (
            3, "", f"error: SpecError: no variable 'nope' in {path}\n")

    def test_every_unknown_alone(self):
        path = corpus("nth_powers.sde")
        forms = {var: invoke("closed-form", f"{path}#{var}") for var in
                 ("p0", "p1", "p2", "p3")}
        assert forms["p2"] == (0, "(1 + X)/(1 - 3*X + 3*X^2 - X^3)\n", "")
        for var, (code, out, err) in forms.items():
            assert (code, err) == (0, "")
            assert invoke("equiv", f"{path}#{var}", f"{path}#{var}") == (
                0, f"Proved\nclosed form: {out}", "")


# Files for the order of `equiv`'s checks: the unknown x of each, over Z
# unless named q; ev and od are invalid definitions, f1 and f2 define f
# apart, and delta's system has a non-tail equation
ORDER_FILES = {
    "z": "algebra Z;\nx(0) = 1;\nx' = x;\n",
    "q": "algebra Q;\nx(0) = 1;\nx' = x;\n",
    "nosys": "algebra Z;\ndef f(a) { out = a(0); deriv = f(a'); }\n",
    "ev_q": "algebra Q;\ndef ev(a) { out = a(0); deriv = ev(a''); }\nx(0) = 1;\nx' = x;\n",
    "od_q": "algebra Q;\ndef od(a) { out = a(0); deriv = od(a''); }\nx(0) = 1;\nx' = x;\n",
    "f1": "algebra Z;\ndef f(a) { out = a(0); deriv = f(a'); }\nx(0) = 1;\nx' = f(x);\n",
    "f2": "algebra Z;\ndef f(a) { out = a(0) + a(0); deriv = f(a'); }\nx(0) = 1;\n"
          "x' = f(x);\n",
    "ev_delta": "algebra Z;\ndef ev(a) { out = a(0); deriv = ev(a''); }\nx(0) = 1;\n"
                "delta(x) = x;\n",
    "delta": "algebra Z;\nx(0) = 1;\ndelta(x) = x;\n",
}


def _violation(name):
    return (1, f"error: GsosViolation: 2:5: definition of {name!r} is not in the GSOS "
               "format: higher derivative of an argument\n")


class TestEquivCheckOrder:
    """Each row has two faults, and `equiv` reports the one it checks first:
    selectors, loads, algebras, unknowns, then per route the definitions,
    the --up-to names, the merged engine and the systems it loads."""

    @pytest.mark.parametrize("left,right,flags,expected", [
        ("nohash1", "nohash2", (),
         (3, "error: usage: selector 'nohash1' must look like file.sde#var\n")),
        ("missing_a#x", "nohash2", (),
         (3, "error: usage: selector 'nohash2' must look like file.sde#var\n")),
        ("missing_a#x", "missing_b#x", (),
         (3, "error: usage: [Errno 2] No such file or directory: '{missing_a}'\n")),
        ("z#x", "missing_b#x", (),
         (3, "error: usage: [Errno 2] No such file or directory: '{missing_b}'\n")),
        ("z#nope", "q#nope", (),
         (1, "error: UnsupportedOp: the two specifications use different algebras\n")),
        ("z#nope1", "z#nope2", (), (3, "error: SpecError: no variable 'nope1' in {z}\n")),
        ("nosys#x", "z#x", (), (3, "error: SpecError: no variable 'x' in {nosys}\n")),
        ("ev_q#nope", "od_q#x", (), (3, "error: SpecError: no variable 'nope' in {ev_q}\n")),
        ("ev_q#x", "od_q#x", (), _violation("ev")),
        ("q#x", "od_q#x", (), _violation("od")),
        ("f1#x", "f2#x", ("--up-to", "nosuch"),
         (3, "error: SpecError: conflicting definitions of 'f'\n")),
        ("ev_delta#x", "z#x", ("--up-to", "nosuch"),
         (3, "error: usage: --up-to: 'nosuch' is no operation of the spec language "
             "or of the two files\n")),
        ("ev_delta#x", "z#x", (), _violation("ev")),
        ("delta#x", "z#x", (),
         (1, "error: UnsupportedOp: only ordinary tail systems run on the engine\n")),
    ])
    def test_the_first_fault_is_reported(self, tmp_path, left, right, flags, expected):
        paths = {name: tmp_path / f"{name}.sde" for name in (*ORDER_FILES, "missing_a",
                                                            "missing_b")}
        for name, text in ORDER_FILES.items():
            paths[name].write_text(text)

        def argument(side):
            name, hashed, var = side.partition("#")
            return f"{paths[name]}#{var}" if hashed else side

        code, err = expected
        err = err.format(**paths)
        assert invoke("equiv", argument(left), argument(right), *flags) == (code, "", err)


class TestNonPrimeModulus:
    def test_algebra_flag_is_usage_error(self):
        code, out, err = invoke("closed-form", corpus("fib.sde") + "#s",
                                "--algebra", "Fp(4)")
        assert (code, out, err) == (3, "", "error: usage: 4 is not prime\n")

    def test_file_directive_is_syntax_error(self, tmp_path):
        spec = tmp_path / "fp4.sde"
        spec.write_text("algebra Fp(4); s(0)=1; s'=s;\n")
        code, out, err = invoke("closed-form", str(spec) + "#s")
        assert (code, out) == (3, "")
        assert err == "error: SpecSyntaxError: 1:9: 4 is not prime\n"

    # primality by trial division ran past 10 s on 1000000016000000063
    # (1000000007 * 1000000009) and on the prime 1000000000000000003, and
    # the square root loop on Fp(1000000007) took 6 s
    @pytest.mark.parametrize("modulus,message", [
        (1000000016000000063, "1000000016000000063 is not prime"),
        (2 ** 64, f"modulus {2 ** 64} is too large: Fp needs a prime below 2^64"),
    ])
    def test_large_moduli_end(self, tmp_path, modulus, message):
        assert invoke("solve", corpus("fib.sde") + "#s", "--algebra", f"Fp({modulus})") == (
            3, "", f"error: usage: {message}\n")
        spec = tmp_path / "big.sde"
        spec.write_text(f"algebra Fp({modulus}); s(0)=1; s'=s;\n")
        assert invoke("solve", str(spec) + "#s") == (
            3, "", f"error: SpecSyntaxError: 1:9: {message}\n")

    def test_large_prime_modulus_answers(self, tmp_path):
        assert invoke("solve", corpus("fib.sde") + "#s", "-n", "5",
                      "--algebra", "Fp(1000000000000000003)") == (0, "0, 1, 1, 2, 3\n", "")
        spec = tmp_path / "sqrt.sde"
        spec.write_text("algebra Fp(1000000007); x(0) = 3; x' = sqrt(x);\n")
        assert invoke("solve", str(spec) + "#x", "-n", "3") == (
            0, "3, 82062379, 500000004\n", "")


class TestNesting:
    """Nesting past speclang.MAX_NESTING is a syntax error, not a crash."""

    @staticmethod
    def spec(tmp_path, opener, closer, depth):
        path = tmp_path / "deep.sde"
        path.write_text(f"s(0) = 1;\ns' = X*{opener * depth}s{closer * depth};\n")
        return str(path)

    @pytest.mark.parametrize("opener,closer", [("(", ")"), ("inv(", ")")])
    def test_at_the_limit_solves(self, tmp_path, opener, closer):
        from streamcalc.speclang import MAX_NESTING

        code, out, err = invoke("solve", self.spec(tmp_path, opener, closer, MAX_NESTING)
                                + "#s", "-n", "4")
        # s' = X*s: inv taken an even number of times is the identity
        assert MAX_NESTING % 2 == 0
        assert (code, out, err) == (0, "1, 0, 1, 0\n", "")

    @pytest.mark.parametrize("opener,closer,depth", [
        ("(", ")", None), ("inv(", ")", None), ("(", ")", 300), ("inv(", ")", 2000)])
    def test_deeper_is_a_syntax_error(self, tmp_path, opener, closer, depth):
        from streamcalc.speclang import MAX_NESTING

        depth = depth or MAX_NESTING + 1
        code, out, err = invoke("solve", self.spec(tmp_path, opener, closer, depth) + "#s")
        assert (code, out) == (3, "")
        assert err.count("\n") == 1
        assert err.startswith("error: SpecSyntaxError: 2:")
        assert f"nesting deeper than {MAX_NESTING} levels" in err


def _int_of(digits):
    """int() of a decimal string of any length, 1000 digits at a time."""
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


class TestLargeIntegers:
    """Exact values beyond CPython's 4300-digit int/str conversion limit."""

    def test_ddx_exp_1700(self):
        code, out, err = invoke("solve", corpus("ddx_exp.sde") + "#x", "-n", "1700")
        assert (code, err) == (0, "")
        last = out.strip().split(", ")[-1]
        numerator, denominator = last.split("/")
        assert numerator == "1"
        assert _int_of(denominator) == math.factorial(1699)

    def test_at_800_over_z(self, tmp_path):
        path = tmp_path / "pow.sde"
        path.write_text("s(0) = 1; s' = 1000000*s;\n")
        assert invoke("at", "800", str(path) + "#s", "--algebra", "Z") == (
            0, "1" + "0" * 4800 + "\n", "")

    @pytest.mark.parametrize("algebra", ["Q", "Z", "Nat"])
    def test_long_head_literal_round_trips(self, tmp_path, algebra):
        literal = "".join(str(i % 10) for i in range(1, 5001))
        path = tmp_path / "lit.sde"
        path.write_text(f"algebra {algebra};\nx(0) = {literal};\nx' = x;\n")
        assert invoke("solve", str(path) + "#x", "-n", "1") == (0, literal + "\n", "")

    def test_long_rational_literal(self, tmp_path):
        path = tmp_path / "frac.sde"
        path.write_text(f"x(0) = 1/{'9' * 4500}; x' = 2*x;\n")
        code, out, err = invoke("solve", str(path) + "#x", "-n", "2")
        assert (code, err) == (0, "")
        assert out == f"1/{'9' * 4500}, 2/{'9' * 4500}\n"

    def test_bbin_of_a_long_rational(self):
        num = 10 ** 4400 + 1
        x, bits = Fraction(num, 3), []
        for _ in range(16):  # B(x): bit x mod 2, then (x - bit) / 2
            bit = x.numerator % 2
            bits.append(str(bit))
            x = (x - bit) / 2
        text = "1" + "0" * 4399 + "1/3"
        assert invoke("bbin", text, "-n", "16") == (0, " ".join(bits) + "\n", "")


def test_kernel_comparisons_use_the_budget():
    # 23 states, each told apart from the others by a 64-element prefix
    # comparison; the default 10000 steps do not cover them
    argv = ("kernel", corpus("fib.sde") + "#s", "--algebra", "Fp(5)")
    assert invoke(*argv)[:2] == (2, "Unknown (kernel did not close within the budget)\n")
    code, out, err = invoke(*argv, "--budget", "1000000")
    assert (code, err) == (0, "")
    assert out.startswith("2-kernel (heuristic, 23 states):\n")


@pytest.mark.parametrize("argv", [
    ("check", "{big}"),
    ("solve", "{big}#v3", "-n", "3"),
    ("at", "5", "{big}#v3"),
    ("kernel", corpus("thue_morse_evenodd.sde") + "#tm"),
    ("at", "5", corpus("thue_morse_evenodd.sde") + "#tm"),
    ("closed-form", corpus("fib.sde") + "#s"),
    ("equiv", corpus("fib.sde") + "#s", corpus("fib.sde") + "#s"),
])
def test_each_system_is_classified_once(tmp_path, monkeypatch, argv):
    path = tmp_path / "big.sde"
    path.write_text("".join(f"v{i}(0) = 1;\nv{i}' = v{i} + 2*v{(i + 1) % 8};\n"
                            for i in range(8)))
    argv = [a.format(big=path) for a in argv]
    # a text seen before is neither parsed nor classified again, so the
    # first request starts from an empty cache
    _empty_spec_cache(monkeypatch)
    calls = _count_calls(monkeypatch)
    code, _, err = invoke(*argv)
    assert (code, err) == (0, "")
    classified = calls["classify"]
    assert len(classified) == len({id(s) for s in classified})
    # solve, at and kernel solve every format alike and classify nothing
    assert bool(classified) is (argv[0] in ("check", "closed-form", "equiv"))
    calls["parse"].clear()
    calls["classify"].clear()
    assert invoke(*argv)[::2] == (0, "")
    assert calls == {"parse": [], "classify": []}


def _empty_spec_cache(monkeypatch):
    """Give cli an empty spec cache of the same bound until the test ends."""
    from streamcalc import cli

    cache = functools.lru_cache(maxsize=cli.SPEC_CACHE_SIZE)(cli._parsed.__wrapped__)
    monkeypatch.setattr(cli, "_parsed", cache)
    return cache


def _count_calls(monkeypatch):
    """Record the arguments of every speclang.parse and classify call."""
    from streamcalc import speclang

    calls = {"parse": [], "classify": []}
    for name, seen in calls.items():
        original = getattr(speclang, name)
        monkeypatch.setattr(speclang, name,
                            lambda *a, original=original, seen=seen, **k:
                            seen.append(a[0]) or original(*a, **k))
    return calls


class TestSpecCache:
    def test_a_rewritten_file_gives_the_new_answer(self, tmp_path, monkeypatch):
        _empty_spec_cache(monkeypatch)
        path = tmp_path / "s.sde"
        path.write_text("s(0) = 1; s' = 2*s;\n")
        assert invoke("solve", f"{path}#s", "-n", "4") == (0, "1, 2, 4, 8\n", "")
        path.write_text("s(0) = 1; s' = 3*s;\n")
        assert invoke("solve", f"{path}#s", "-n", "4") == (0, "1, 3, 9, 27\n", "")
        path.write_text("s(0) = 1; s' = 2*s;\n")
        assert invoke("solve", f"{path}#s", "-n", "4") == (0, "1, 2, 4, 8\n", "")

    def test_one_text_under_two_paths_is_one_entry(self, tmp_path, monkeypatch):
        cache = _empty_spec_cache(monkeypatch)
        calls = _count_calls(monkeypatch)
        for name in ("a.sde", "b.sde"):
            (tmp_path / name).write_text("s(0) = 1; s' = 2*s;\n")
            assert invoke("at", "3", f"{tmp_path / name}#s") == (0, "8\n", "")
            assert invoke("closed-form", f"{tmp_path / name}#s") == (0, "(1)/(1 - 2*X)\n", "")
        assert len(calls["parse"]) == len(calls["classify"]) == 1
        assert cache.cache_info().currsize == 1

    def test_the_algebra_override_is_part_of_the_key(self, tmp_path, monkeypatch):
        cache = _empty_spec_cache(monkeypatch)
        calls = _count_calls(monkeypatch)
        path = tmp_path / "q.sde"
        path.write_text("algebra Q; s(0) = 1; s' = 2*s;\n")
        for _ in range(2):
            for override, name in (((), "Q"), (("--algebra", "Z"), "Z")):
                code, out, err = invoke("check", path, *override)
                assert (code, err) == (0, "")
                assert out.startswith(f"parse: ok (algebra {name}, 1 unknown(s)")
        assert len(calls["parse"]) == 2
        assert cache.cache_info().currsize == 2

    def test_a_syntax_error_is_not_kept(self, tmp_path, monkeypatch):
        cache = _empty_spec_cache(monkeypatch)
        calls = _count_calls(monkeypatch)
        path = tmp_path / "bad.sde"
        path.write_text("s(0) = 1; s' = 2*;\n")
        first = invoke("solve", f"{path}#s")
        assert first[0] == 3 and first[2].startswith("error: SpecSyntaxError: ")
        assert invoke("solve", f"{path}#s") == first
        assert len(calls["parse"]) == 2
        assert cache.cache_info().currsize == 0

    def test_a_system_free_file_is_refused_each_time(self, tmp_path, monkeypatch):
        _empty_spec_cache(monkeypatch)
        path = tmp_path / "defs.sde"
        path.write_text("def one(a) { out = 1; deriv = one(a'); }\n")
        for _ in range(2):
            assert invoke("solve", f"{path}#s") == (
                3, "", "error: SpecError: the file defines no equation system\n")

    def test_the_bound_drops_the_least_recently_used(self, tmp_path, monkeypatch):
        from streamcalc import cli

        cache = _empty_spec_cache(monkeypatch)
        calls = _count_calls(monkeypatch)
        paths = []
        for i in range(cli.SPEC_CACHE_SIZE + 1):
            paths.append(tmp_path / f"c{i}.sde")
            paths[-1].write_text(f"s(0) = {i}; s' = s;\n")

        def parses(path):
            before = len(calls["parse"])
            assert invoke("at", "0", f"{path}#s")[0] == 0
            assert cache.cache_info().currsize <= cli.SPEC_CACHE_SIZE
            return len(calls["parse"]) - before

        assert [parses(p) for p in paths[:-1]] == [1] * cli.SPEC_CACHE_SIZE
        assert parses(paths[0]) == 0  # now the most recently used
        assert parses(paths[-1]) == 1  # evicts paths[1], the least recently used
        assert cache.cache_info().currsize == cli.SPEC_CACHE_SIZE
        assert parses(paths[0]) == 0
        assert parses(paths[1]) == 1

    def test_no_command_changes_a_cached_spec(self, monkeypatch):
        from streamcalc import cli, speclang
        from streamcalc.algebra import get_algebra

        cache = _empty_spec_cache(monkeypatch)
        specs = sorted(CORPUS.glob("*.sde"))
        for path in specs:
            for override in ((), ("--algebra", "Z")):
                invoke("check", path, *override)
                try:
                    system = speclang.parse(path.read_text()).system
                except StreamCalcError:
                    continue
                unknowns = system.variables if system else ()
                for var in unknowns:
                    sel = f"{path}#{var}"
                    for argv in (("solve", sel, "-n", "30"), ("at", "12", sel),
                                 ("kernel", sel, "--budget", "3000"),
                                 ("closed-form", sel),
                                 ("equiv", sel, sel, "--budget", "200"),
                                 ("equiv", sel, sel, "--up-to", "+,*",
                                  "--budget", "200"),
                                 ("eval", "--defs", path, "--term", var)):
                        invoke(*argv, *override)
        parsed = cache.cache_info().misses
        for path in specs:
            text = path.read_text()
            for name in (None, "Z"):
                override = get_algebra(name) if name else None
                try:
                    fresh = speclang.parse(text, algebra=override)
                except StreamCalcError:
                    continue
                loaded = cli._load(str(path), name)
                assert loaded == fresh, path.name
                if fresh.system is not None:
                    assert loaded.system.kind is speclang.classify(fresh.system)
        assert cache.cache_info().misses == parsed  # every entry was still kept


def _count_compiles(monkeypatch):
    """Record the system of every series.compile_plan call."""
    from streamcalc import series

    compiled = []
    original = series.compile_plan
    monkeypatch.setattr(series, "compile_plan",
                        lambda sys_: compiled.append(sys_) or original(sys_))
    return compiled


class TestSeriesPlan:
    """The spec cache keeps a system's series plan; every request makes
    its own nodes from it, so no coefficient, busy flag or budget charge
    is shared between requests."""

    def test_a_budget_runs_out_at_the_same_index_each_time(self, monkeypatch):
        _empty_spec_cache(monkeypatch)
        argv = ("solve", corpus("fib.sde") + "#s", "-n", "200", "--budget", "60")
        first = invoke(*argv)
        assert first == (2, "", "error: BudgetExhausted: forcing budget exhausted "
                                "(at index 15)\n")
        assert invoke(*argv) == first

    def test_a_non_productive_system_is_refused_each_time(self, tmp_path, monkeypatch):
        _empty_spec_cache(monkeypatch)
        path = tmp_path / "np.sde"
        path.write_text("algebra Z; s(0) = 1; s' = even(s);\n")
        for _ in range(2):
            assert invoke("solve", f"{path}#s", "-n", "5") == (
                2, "", "error: NonProductive: non-productive definition (at index 2)\n")
            assert invoke("check", path)[:2] == (2, "parse: ok (algebra Z, 1 unknown(s), "
                                                    "0 definition(s))\nkind: general\n"
                                                    "probe s: NonProductive at index 2\n")

    def test_each_algebra_override_has_its_own_plan(self, tmp_path, monkeypatch):
        _empty_spec_cache(monkeypatch)
        compiled = _count_compiles(monkeypatch)
        path = tmp_path / "three.sde"
        path.write_text("s(0) = 1; s' = 3*s + X;\n")
        for _ in range(2):
            for algebra, expected in (("Z", "1, 3, 10, 30, 90\n"),
                                      ("F2", "1, 1, 0, 0, 0\n")):
                assert invoke("solve", f"{path}#s", "-n", "5", "--algebra", algebra) == (
                    0, expected, "")
        assert [sys_.algebra.name for sys_ in compiled] == ["Z", "F2"]

    def test_one_compile_per_cached_text(self, tmp_path, monkeypatch):
        _empty_spec_cache(monkeypatch)
        compiled = _count_compiles(monkeypatch)
        path = tmp_path / "fib.sde"
        path.write_text(pathlib.Path(corpus("fib.sde")).read_text())
        for argv in (("solve", f"{path}#s", "-n", "5"), ("at", "7", f"{path}#s"),
                     ("check", path), ("kernel", f"{path}#s", "--budget", "50")):
            for _ in range(2):
                assert invoke(*argv)[0] in (0, 2)
        assert len(compiled) == 1
        invoke("solve", corpus("fib.sde") + "#s")  # another path, the same text
        assert len(compiled) == 1

    def test_a_build_error_is_not_kept(self, tmp_path, monkeypatch):
        from streamcalc import series
        from streamcalc.errors import UnsupportedOp

        _empty_spec_cache(monkeypatch)
        compiled = _count_compiles(monkeypatch)
        counted, failures = series.compile_plan, [UnsupportedOp("no plan")]

        def fail_once(sys_):
            if failures:
                raise failures.pop()
            return counted(sys_)

        monkeypatch.setattr(series, "compile_plan", fail_once)
        path = tmp_path / "fib.sde"
        path.write_text(pathlib.Path(corpus("fib.sde")).read_text())
        argv = ("solve", f"{path}#s", "-n", "5")
        assert invoke(*argv) == (1, "", "error: UnsupportedOp: no plan\n")
        for _ in range(2):
            assert invoke(*argv) == (0, "0, 1, 1, 2, 3\n", "")
        assert len(compiled) == 1  # compiled after the failure, then kept

    def test_the_successor_rule_is_refused_before_the_build(self, tmp_path, monkeypatch):
        # a ddx system over Z that also uses a user operation
        _empty_spec_cache(monkeypatch)
        compiled = _count_compiles(monkeypatch)
        path = tmp_path / "ddx_z.sde"
        path.write_text("algebra Z; def f(a) { out = a(0); deriv = f(a'); }\n"
                        "x(0) = 1; ddx(x) = f(x);\n")
        for _ in range(2):
            assert invoke("solve", f"{path}#x") == (
                1, "", "error: UnsupportedOp: ddx systems need a field of "
                       "characteristic 0 (division by the naturals)\n")
        assert compiled == []

    def test_a_large_spec_checks_alike_compiled_cached_and_fresh(self, tmp_path, monkeypatch):
        _empty_spec_cache(monkeypatch)
        compiled = _count_compiles(monkeypatch)
        path = _dense_z_spec(tmp_path, "v", 60)
        first = invoke("check", path)
        assert first[0] == 0 and first[1].count("\nprobe v") == 60
        assert invoke("check", path) == first
        assert len(compiled) == 1
        assert invoke_in_a_fresh_process("check", str(path)) == first


def _sum_spec(tmp_path, algebra, rhs):
    path = tmp_path / f"sum-{algebra}.sde"
    path.write_text(f"algebra {algebra}; s(0) = 1; s' = {rhs};\n")
    return path


def _long_sum_answers(tmp_path, rhs, c):
    """solve, check, at and closed-form of s' = rhs, where rhs is c * s."""
    z, q = _sum_spec(tmp_path, "Z", rhs), _sum_spec(tmp_path, "Q", rhs)
    assert invoke("solve", f"{z}#s", "-n", "4") == (
        0, f"1, {c}, {c ** 2}, {c ** 3}\n", "")
    assert invoke("check", z) == (
        0, "parse: ok (algebra Z, 1 unknown(s), 0 definition(s))\nkind: linear\n"
           f"probe s: ok (1, {c}, {c ** 2})\n", "")
    assert invoke("at", "3", f"{z}#s") == (0, f"{c ** 3}\n", "")
    assert invoke("closed-form", f"{q}#s") == (0, f"(1)/(1 - {c}*X)\n", "")


@pytest.mark.parametrize("k", [400, 20000])
def test_long_sums_solve(tmp_path, k):
    # a RecursionError escaped cli.run from about 400 summands on
    _long_sum_answers(tmp_path, " + ".join(["s"] * k), k)


def test_a_product_of_many_sums_answers_quickly(tmp_path):
    # classify expanded (s+X)^k into all its 2^k words: 0.64 s at 18
    # factors, hours at 30.  The two files differ in spacing, so neither
    # command finds the other's classification in the spec cache.
    power = "*".join(["(s+X)"] * 30)
    check, solve = tmp_path / "check.sde", tmp_path / "solve.sde"
    check.write_text(f"algebra Z; s(0) = 1; s' = {power};\n")
    solve.write_text(f"algebra Z; s(0)=1; s'={power};\n")
    for argv, expected in (
            (("check", check), "parse: ok (algebra Z, 1 unknown(s), 0 definition(s))\n"
                               "kind: context-free\nprobe s: ok (1, 1, 60)\n"),
            (("solve", f"{solve}#s", "-n", "3"), "1, 1, 60\n")):
        start = time.perf_counter()
        assert invoke(*argv) == (0, expected, "")
        assert time.perf_counter() - start < 1


# calls cli.run under argv[1] more frames, with the arguments after it
DEEPER = """import sys
from streamcalc.cli import run

def deeper(k):
    return deeper(k - 1) if k else run(sys.argv[2:])

sys.exit(deeper(int(sys.argv[1])))
"""


def invoke_in_a_fresh_process(*argv, frames=0, timeout=60):
    """Like invoke, in a new interpreter with the default recursion limit,
    with cli.run called `frames` frames deeper than `python -m` calls it,
    killed after `timeout` seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(CORPUS.parent / "src"), os.environ.get("PYTHONPATH")))))
    command = ["-c", DEEPER, str(frames)] if frames else ["-m", "streamcalc"]
    proc = subprocess.run([sys.executable, *command, *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def test_long_product_in_a_fresh_process(tmp_path):
    # the series builder recursed three frames per factor and escaped with
    # a RecursionError at 400 factors; a fresh process has the default limit
    path = tmp_path / "product.sde"
    path.write_text("algebra Z; s(0) = 1; s' = " + " * ".join(["s"] * 400) + ";\n")
    for argv, expected in ((("solve", f"{path}#s", "-n", "4"), "1, 1, 400, 239800\n"),
                           (("at", "3", f"{path}#s"), "239800\n")):
        assert invoke_in_a_fresh_process(*argv) == (0, expected, "")


@pytest.mark.parametrize("links", [1000, 20000])
@pytest.mark.parametrize("shape", sorted(CHAINS))
def test_long_chains_are_syntax_errors_in_a_fresh_process(tmp_path, shape, links):
    # each shape escaped cli.run with a RecursionError from about 490 links
    path = tmp_path / "chain.sde"
    path.write_text(chain_text(shape, links) + "\n")
    for argv in (("solve", f"{path}#s"), ("check", str(path))):
        code, out, err = invoke_in_a_fresh_process(*argv)
        assert (code, out) == (3, "")
        assert re.fullmatch(rf"error: SpecSyntaxError: 1:\d+: chain longer than {MAX_CHAIN} "
                            r"operators\n", err)


@pytest.mark.parametrize("text", [
    stacked_products(20, 40),
    "algebra Z; s(0) = 1; s' = X*" + "inv(" * 120 + "s" + "*s" * 399 + ")" * 120 + ";",
    stacked_bracket(30, 40),
], ids=["stacked-products", "product-in-invs", "stacked-bracket"])
def test_stacked_chains_are_syntax_errors_in_a_fresh_process(tmp_path, text):
    # all escaped cli.run with a RecursionError: each chain and each
    # nesting was within its bound, but not the tree they made together
    path = tmp_path / "stacked.sde"
    path.write_text(text + "\n")
    for argv in (("solve", f"{path}#s"), ("check", str(path))):
        code, out, err = invoke_in_a_fresh_process(*argv)
        assert (code, out) == (3, "")
        assert re.fullmatch(rf"error: SpecSyntaxError: 1:\d+: expression deeper than "
                            rf"{MAX_HEIGHT} levels\n", err)


def test_tallest_expressions_solve_in_a_fresh_process(tmp_path):
    # a longest chain under -( levels up to the bound, in the rhs and a head;
    # an equation's bracket is evaluated inside its term, so one at the bound
    # goes under `(` up to MAX_NESTING (it escaped with a RecursionError)
    term, head = tmp_path / "term.sde", tmp_path / "head.sde"
    term.write_text(tall_text("term", MAX_HEIGHT) + "\n")
    head.write_text(tall_text("head", MAX_HEIGHT) + "\n")
    bracket, parens = tmp_path / "bracket.sde", MAX_NESTING - 1 - (MAX_HEIGHT - MAX_CHAIN)
    bracket.write_text(tall_text("bracket", MAX_HEIGHT).replace("[", "(" * parens + "[")
                       .replace("* s;", "* s" + ")" * parens + ";") + "\n")
    assert (MAX_HEIGHT - MAX_CHAIN) % 2 == 0  # an even number of negations
    for argv, expected in ((("solve", f"{term}#s", "-n", "4"), "1, 1, 401, 241001\n"),
                           (("at", "3", f"{term}#s"), "241001\n"),
                           (("solve", f"{head}#s", "-n", "3"), "1, 1, 1\n"),
                           (("solve", f"{bracket}#s", "-n", "3"), "1, 1, 1\n"),
                           (("closed-form", f"{head}#s"), "(1)/(1 - X)\n")):
        assert invoke_in_a_fresh_process(*argv) == (0, expected, "")


def tall_def_text():
    """A definition whose guard, `out` and `deriv` are each MAX_HEIGHT
    levels tall, the guard's comparison counted."""
    def tall(opener, closer, first, link, height):
        openers = height - MAX_CHAIN
        return opener * openers + first + link * MAX_CHAIN + closer * openers

    guard = tall("-", "", "a(0)", "*a(0)", MAX_HEIGHT - 1)
    out = tall("-", "", "a(0)", "*a(0)", MAX_HEIGHT)
    deriv = tall("-(", ")", "a'", "*a'", MAX_HEIGHT)
    body = f"{{ out = {out}; deriv = {deriv}; }}"
    return (f"def f(a) {{ when {guard} = 0 => {body} otherwise => {body} }}"
            " s(0) = 1; s' = f(s);")


def test_tallest_definition_answers_from_a_deeper_caller(tmp_path):
    # the engine's head values, and the parser's passes over a system
    # term and a head expression, spent two frames per level on a list
    # comprehension: this escaped cli.run with a RecursionError when the
    # caller was about 90 frames deep.  The engine compiles the clauses as
    # the definition enters it, and that pass too must spend one frame per level
    path = tmp_path / "tall_def.sde"
    path.write_text(tall_def_text() + "\n")
    assert invoke_in_a_fresh_process("solve", f"{path}#s", "-n", "4", frames=200) == (
        0, "1, 1, 1, 401\n", "")
    code, out, err = invoke_in_a_fresh_process("check", str(path), frames=200)
    assert (code, err) == (0, "")
    assert out.endswith("kind: general\nprobe s: ok (1, 1, 1)\n")
    # a free term and an equivalence run the definition's compiled clauses
    assert invoke_in_a_fresh_process("eval", "--defs", str(path), "--term", "f(s)", "-n", "4",
                                     frames=200) == (0, "1, 1, 401, 241001\n", "")
    assert invoke_in_a_fresh_process("equiv", f"{path}#s", f"{path}#s", "--prefix", "3",
                                     frames=200) == (
        0, "Proved\ncertificate (bisimulation-up-to, user signature):\n  s  ~  s#b\n", "")


def test_tallest_terms_answer_from_a_deeper_caller(tmp_path):
    # hashing a system term recursed once per level in OpApp.__hash__, and
    # a standalone term's passes spent two frames per level on generator
    # expressions and a list comprehension: each escaped cli.run with a
    # RecursionError when the caller was about 90 frames deep
    path, defs = tmp_path / "term.sde", tmp_path / "defs.sde"
    path.write_text(tall_text("term", MAX_HEIGHT) + "\n")
    defs.write_text("algebra Z;\n")
    assert invoke_in_a_fresh_process("solve", f"{path}#s", "-n", "4", frames=200) == (
        0, "1, 1, 401, 241001\n", "")
    code, out, err = invoke_in_a_fresh_process("check", str(path), frames=200)
    assert (code, err) == (0, "")
    assert out.endswith("kind: context-free\nprobe s: ok (1, 1, 401)\n")
    term = "X + " + "-(" * (MAX_HEIGHT - MAX_CHAIN) + "X" + "*X" * (MAX_CHAIN - 1) + ")" * (
        MAX_HEIGHT - MAX_CHAIN)
    assert invoke_in_a_fresh_process("eval", "--defs", str(defs), "--term", term, "-n", "4",
                                     frames=200) == (0, "0, 1, 0, 0\n", "")
    # renaming the right side's unknowns spent two frames per level of
    # the term and escaped with a RecursionError
    assert invoke_in_a_fresh_process("equiv", f"{path}#s", f"{path}#s", "--prefix", "0",
                                     frames=200) == (
        0, "Proved\ncertificate (bisimulation-up-to, stream calculus):\n  s  ~  s#b\n", "")


def test_long_mixed_sum(tmp_path):
    rng = random.Random(2000)
    signs = [rng.choice("+-") for _ in range(1999)]
    rhs = "s" + "".join(f" {sign} s" for sign in signs)
    _long_sum_answers(tmp_path, rhs, 1 + signs.count("+") - signs.count("-"))
    # over Nat the first subtraction fails, as it does in a short chain
    nat, short = _sum_spec(tmp_path, "Nat", rhs), tmp_path / "short.sde"
    short.write_text("algebra Nat; s(0) = 1; s' = s - s + s;\n")
    for argv in (("solve", "{}#s", "-n", "4"), ("check", "{}"), ("at", "3", "{}#s")):
        got = invoke(*(a.format(nat) for a in argv))
        assert got == invoke(*(a.format(short) for a in argv))
        assert got[0] == 1 and got[2] == "error: UnsupportedOp: Nat has no negation\n"


def test_check_probes_follow_the_budget(tmp_path):
    # a dense 200-unknown Z system: its probes need more than the 1000
    # steps that once capped every probe, whatever --budget said
    path = _dense_z_spec(tmp_path, "x", 200)
    code, out, err = invoke("check", path, "--budget", "100000")
    assert (code, err) == (0, "")
    probes = out.splitlines()[2:]
    assert len(probes) == 200
    assert all(re.fullmatch(r"probe x\d+: ok \(.*\)", line) for line in probes)
    code, out, err = invoke("check", path, "--budget", "500")
    assert (code, err) == (2, "")
    assert "probe x0: BudgetExhausted at index 2\n" in out


def _parity_tool():
    import importlib.util

    tool = CORPUS.parent / "tools" / "cli_parity.py"
    loader = importlib.util.spec_from_file_location("cli_parity", tool)
    cli_parity = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(cli_parity)
    return cli_parity


def test_parity_harness_records_and_compares(tmp_path, capsys):
    cli_parity = _parity_tool()
    specs = [corpus("ones.sde"), corpus("alt.sde")]
    out = tmp_path / "parity.json"
    assert cli_parity.main(["record", str(out), *specs]) == 0
    runs = json.loads(out.read_text())
    # per spec: check and 5 eval runs (the last over the first unknown) under
    # 8 algebra settings, 9 commands per unknown under each, and solve -n 900
    # per unknown (1 in ones, 2 in alt)
    assert len(runs) == (8 * (1 + 5 + 9) + 1) + (8 * (1 + 5 + 9 * 2) + 2)
    assert {tuple(r["argv"][:2] + r["argv"][3:]) for r in runs if r["argv"][0] == "eval"} \
        == {("eval", "--defs", "--term", term, "-n", "12") + override
            for term in cli_parity.EVAL_TERMS + ("s' + s * X",)
            for override in [()] + [("--algebra", a) for a in cli_parity.ALGEBRAS[1:]]}
    assert {tuple(r["argv"][:1] + r["argv"][2:]) for r in runs if r["argv"][0] == "equiv"} \
        == {("equiv", f"{spec}#s") + flags + override for spec in specs
            for flags in [(), ("--prefix", "0", "--budget", "60"),
                          ("--prefix", "0", "--budget", "60", "--up-to", "+,*"),
                          ("--prefix", "0", "--budget", "60", "--up-to", "+,-,*")]
            for override in [()] + [("--algebra", a) for a in cli_parity.ALGEBRAS[1:]]}
    # a spec that defines plus and times also evaluates the terms over them
    arithmetic = cli_parity.shape([corpus("defs_arith.sde")])
    assert len(arithmetic) == 8 * (1 + 6)
    assert [argv[4] for argv in arithmetic[1:7]] == list(
        cli_parity.EVAL_TERMS + cli_parity.DEFS_TERMS)
    assert cli_parity.main(["compare", str(out)]) == 0
    runs[1]["out"] += "changed\n"
    out.write_text(json.dumps(runs))
    assert cli_parity.main(["compare", str(out)]) == 1
    assert capsys.readouterr().out.endswith("1 of 315 recorded runs differ\n")


def test_parity_compare_counts_differences_by_group(tmp_path, capsys):
    cli_parity = _parity_tool()
    assert cli_parity.group(["at", "30", "corpus/ones.sde#s", "--algebra", "Z"]) == (
        "at", "ones.sde", "30")
    assert cli_parity.group(["equiv", "corpus/alt.sde#t", "corpus/alt.sde#s",
                             "--algebra", "Q"]) == ("equiv", "alt.sde", "")
    assert cli_parity.group(["eval", "--defs", "corpus/alt.sde", "--term", "X", "-n", "12",
                             "--algebra", "F2"]) == ("eval", "alt.sde", "--term X -n 12")
    runs = cli_parity.record([corpus("ones.sde")])
    for run in runs:
        if run["argv"][0] == "kernel" or "--budget" in run["argv"]:
            run["out"] += "changed\n"
    runs[0]["code"] = 9
    out = tmp_path / "parity.json"
    out.write_text(json.dumps(runs))
    assert cli_parity.main(["compare", str(out)]) == 1
    assert capsys.readouterr().out.splitlines()[-7:] == [
        "    8  equiv  ones.sde  --prefix 0 --budget 60",
        "    8  equiv  ones.sde  --prefix 0 --budget 60 --up-to +,*",
        "    8  equiv  ones.sde  --prefix 0 --budget 60 --up-to +,-,*",
        "    8  kernel  ones.sde",
        "    8  solve  ones.sde  -n 200 --budget 60",
        "    1  check  ones.sde",
        "41 of 121 recorded runs differ"]


def test_parity_compare_tallies_later_budget_indices(tmp_path, capsys):
    cli_parity = _parity_tool()
    later = cli_parity.later_budget_index
    was = {"argv": ["solve"], "code": 2, "out": "",
           "err": "error: BudgetExhausted: forcing budget exhausted (at index 6)\n"}
    now = dict(was, err=was["err"].replace("6", "8"))
    assert later(was, now) and not later(now, was)
    assert not later(was, dict(now, code=1)) and not later(was, dict(now, out="1\n"))
    assert not later(was, {"argv": ["solve"], "code": 0, "out": "1, 2\n", "err": ""})
    probes = {"argv": ["check"], "code": 2, "err": "",
              "out": "probe x: BudgetExhausted at index 2\nprobe y: ok (1, 2, 3)\n"}
    assert later(probes, dict(probes, out=probes["out"].replace("2\n", "3\n")))
    assert not later(probes, dict(probes, out=probes["out"].replace("3)", "4)")))
    # compare prints both counts ahead of the groups
    recorded = [cli_parity.run_one(argv) for argv in (
        ("solve", corpus("nth_powers.sde") + "#p3", "-n", "200", "--budget", "60"),
        ("solve", corpus("ones.sde") + "#s", "-n", "3"),
        ("solve", corpus("ones.sde") + "#s", "-n", "4"))]
    recorded[0]["err"] = re.sub(r"index \d+", "index 1", recorded[0]["err"])
    recorded[1]["out"] += "changed\n"
    path = tmp_path / "parity.json"
    path.write_text(json.dumps(recorded))
    assert cli_parity.main(["compare", str(path)]) == 1
    assert capsys.readouterr().out.splitlines()[-6:] == [
        "    1  differ only by a later BudgetExhausted index",
        "    0  differ only by a verdict upgrade (Unknown or BudgetExhausted to Proved)",
        "    1  differ in any other way",
        "    1  solve  nth_powers.sde  -n 200 --budget 60",
        "    1  solve  ones.sde  -n 3",
        "2 of 3 recorded runs differ"]


def test_parity_compare_tallies_earlier_budget_indices(tmp_path, capsys):
    cli_parity = _parity_tool()
    earlier = cli_parity.earlier_budget_index
    was = {"argv": ["eval"], "code": 2, "out": "",
           "err": "error: BudgetExhausted: forcing budget exhausted (at index 39)\n"}
    now = dict(was, err=was["err"].replace("39", "12"))
    assert earlier(was, now) and not earlier(now, was)
    assert not earlier(was, dict(now, code=1)) and not earlier(was, dict(now, out="1\n"))
    assert not earlier(was, {"argv": ["eval"], "code": 0, "out": "1, 2\n", "err": ""})
    # one probe earlier and another later is neither
    probes = {"argv": ["check"], "code": 2, "err": "",
              "out": "probe x: BudgetExhausted at index 2\nprobe y: BudgetExhausted at index 5\n"}
    mixed = dict(probes, out=probes["out"].replace("2\n", "3\n").replace("5\n", "4\n"))
    assert not earlier(probes, mixed) and not cli_parity.later_budget_index(probes, mixed)
    recorded = [cli_parity.run_one(argv) for argv in (
        ("solve", corpus("nth_powers.sde") + "#p3", "-n", "200", "--budget", "60"),
        ("solve", corpus("nth_powers.sde") + "#p3", "-n", "200", "--budget", "61"),
        ("solve", corpus("ones.sde") + "#s", "-n", "3"))]
    recorded[0]["err"] = re.sub(r"index \d+", "index 1", recorded[0]["err"])
    recorded[1]["err"] = re.sub(r"index \d+", "index 900", recorded[1]["err"])
    recorded[2]["out"] += "changed\n"
    path = tmp_path / "parity.json"
    path.write_text(json.dumps(recorded))
    assert cli_parity.main(["compare", str(path)]) == 1
    assert capsys.readouterr().out.splitlines()[-8:] == [
        "    1  differ only by an earlier BudgetExhausted index",
        "    1  differ only by a later BudgetExhausted index",
        "    0  differ only by a verdict upgrade (Unknown or BudgetExhausted to Proved)",
        "    1  differ in any other way",
        "    1  solve  nth_powers.sde  -n 200 --budget 60",
        "    1  solve  nth_powers.sde  -n 200 --budget 61",
        "    1  solve  ones.sde  -n 3",
        "3 of 3 recorded runs differ"]


def test_parity_compare_tallies_verdict_upgrades(tmp_path, capsys):
    cli_parity = _parity_tool()
    upgrade = cli_parity.verdict_upgrade
    proved = {"argv": ["equiv"], "code": 0, "err": "",
              "out": "Proved\ncertificate (bisimulation-up-to, stream calculus):\n  x  ~  y\n"}
    unknown = dict(proved, code=2, out="Unknown (budget exceeded)\n")
    exhausted = dict(proved, code=2, out="",
                     err="error: BudgetExhausted: forcing budget exhausted (at index 30)\n")
    refuted = dict(proved, code=1, out="Refuted at index 1: 1 != 2\n")
    assert upgrade(unknown, proved) and upgrade(exhausted, proved)
    assert not upgrade(proved, unknown) and not upgrade(refuted, proved)
    assert not upgrade(unknown, refuted) and not upgrade(proved, proved)
    assert not upgrade(dict(unknown, argv=["check"]), dict(proved, argv=["check"]))
    # an equiv that ran out of budget and one that printed Unknown both
    # prove now; a third run changed in another way
    argv = ("equiv", corpus("catalan.sde") + "#s", corpus("catalan.sde") + "#s")
    recorded = [cli_parity.run_one(argv + ("--prefix", "0")) for _ in range(2)]
    recorded.append(cli_parity.run_one(("solve", corpus("ones.sde") + "#s", "-n", "3")))
    recorded[0].update(code=2, out="", err=exhausted["err"])
    recorded[1].update(code=2, out=unknown["out"])
    recorded[2]["out"] += "changed\n"
    path = tmp_path / "parity.json"
    path.write_text(json.dumps(recorded))
    assert cli_parity.main(["compare", str(path)]) == 1
    assert capsys.readouterr().out.splitlines()[-7:] == [
        "    0  differ only by an earlier BudgetExhausted index",
        "    0  differ only by a later BudgetExhausted index",
        "    2  differ only by a verdict upgrade (Unknown or BudgetExhausted to Proved)",
        "    1  differ in any other way",
        "    2  equiv  catalan.sde  --prefix 0",
        "    1  solve  ones.sde  -n 3",
        "3 of 3 recorded runs differ"]


def test_parity_compare_runs_each_argv_twice(monkeypatch):
    cli_parity = _parity_tool()
    recorded = cli_parity.record([corpus("ones.sde")])[:3]
    calls = []
    run_one = cli_parity.run_one

    def second_differs(argv):
        calls.append(argv)
        answer = run_one(argv)
        if len(calls) == 4:  # the second run of the second argv
            answer["out"] += "changed\n"
        return answer

    monkeypatch.setattr(cli_parity, "run_one", second_differs)
    diffs = cli_parity.compare(recorded)
    assert calls == [run["argv"] for run in recorded for _ in range(2)]
    assert [(old["argv"], new["out"]) for old, new in diffs] == [
        (recorded[1]["argv"], recorded[1]["out"] + "changed\n")]


def test_recursion_limit_is_restored(tmp_path):
    # a dense 60-unknown system raises the limit while it is solved;
    # a later request must not inherit that
    path = _dense_z_spec(tmp_path, "v", 60)
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        code, out, _ = invoke("solve", f"{path}#v0", "-n", "3")
        assert code == 0 and out.count(",") == 2
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(before)


def test_engine_native_fallback(tmp_path):
    # a definition keeps the GSOS engine, which runs even and delta natively
    path = tmp_path / "native.sde"
    path.write_text("def plus(a, b) { out = a(0) + b(0); deriv = plus(a', b'); }\n"
                    "u(0) = 1;\nu' = plus(u, u);\nw(0) = 2;\nw' = even(u) + delta(u);\n")
    assert invoke("solve", f"{path}#w", "-n", "12", "--algebra", "Z") == (
        0, "2, 2, 6, 20, 72, 272, 1056, 4160, 16512, 65792, 262656, 1049600\n", "")
    assert invoke("solve", f"{path}#w", "-n", "12", "--algebra", "Nat") == (
        1, "", "error: UnsupportedOp: delta needs a ring, not Nat\n")


def test_engine_native_fallback_nonproductive(tmp_path):
    path = tmp_path / "native_np.sde"
    path.write_text("def plus(a, b) { out = a(0) + b(0); deriv = plus(a', b'); }\n"
                    "x(0) = 1;\nx' = plus(even(x), x);\n")
    assert invoke("solve", f"{path}#x", "-n", "12") == (
        2, "", "error: NonProductive: non-productive definition (at index 2)\n")
