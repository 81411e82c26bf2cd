"""Per-layer tracing of streamcalc, installed from outside the package.

Tracer.install() replaces module functions and Engine methods with
wrappers and uninstall() puts the originals back; the program's files
are not edited.  Python resolves module globals at call time, so a
wrapped module attribute also catches calls from inside its module; a
name copied into another module by `from x import y` is found by
identity and wrapped there too (cli.take, solvers.gauss_solve, ...).

Layer-boundary functions get spans (name, start, end, parent, request),
kept in memory and written out by write().  The per-node Engine methods
run about 10^5 times per large request and get counters only.
"""

import json
import sys
import time
from collections import Counter

# (layer, module, function): a span per call
SPANNED = (
    ("cli", "cli", "run"),
    ("speclang", "speclang", "parse"),
    ("speclang", "speclang", "classify"),
    ("speclang", "speclang", "validate_gsos"),
    ("stream", "stream", "take"),
    ("stream", "stream", "bounded_eq"),
    ("solvers", "solvers", "solve_linear_matrix"),
    ("solvers", "solvers", "rational_to_linear"),
    ("solvers", "solvers", "solve_simple"),
    ("solvers", "solvers", "solve_linear_coinductive"),
    ("solvers", "solvers", "solve_context_free"),
    ("solvers", "solvers", "solve_nonstd"),
    ("algebra", "algebra", "gauss_solve"),
    ("algebra", "algebra", "poly_gcd"),
    ("equivalence", "equivalence", "equiv_up_to"),
    ("equivalence", "equivalence", "equiv_rational"),
    ("equivalence", "equivalence", "bisim_finite"),
    ("automatic", "automatic", "compile_evenodd"),
    ("automatic", "automatic", "value_at"),
    ("automatic", "automatic", "kernel2"),
)
# (module, function, counter): a count per call
COUNTED = (
    ("algebra", "ratexpr_normalize", "algebra.normalize_calls"),
    ("calculus", "apply_builtin", "calculus.native_calls"),
)
# Engine methods returning hash-consed states, and the counted hot methods
STATE_METHODS = ("app", "lit", "leaf", "var")
HOT_METHODS = (("output", "gsos.output_calls"), ("derivative", "gsos.derivative_calls"))

# per-layer time metric -> the spanned functions it sums (outermost calls)
TIME_METRICS = {
    "speclang.parse_s": ("speclang.parse",),
    "speclang.classify_s": ("speclang.classify",),
    "speclang.validate_gsos_s": ("speclang.validate_gsos",),
    "stream.take_s": ("stream.take",),
    "stream.bounded_eq_s": ("stream.bounded_eq",),
    "solvers.matrix_s": ("solvers.solve_linear_matrix",),
    "solvers.rational_to_linear_s": ("solvers.rational_to_linear",),
    "solvers.build_s": ("solvers.solve_simple", "solvers.solve_linear_coinductive",
                        "solvers.solve_context_free", "solvers.solve_nonstd"),
    "algebra.gauss_solve_s": ("algebra.gauss_solve",),
    "algebra.poly_gcd_s": ("algebra.poly_gcd",),
    "equivalence.up_to_s": ("equivalence.equiv_up_to",),
    "equivalence.rational_s": ("equivalence.equiv_rational",),
    "equivalence.bisim_finite_s": ("equivalence.bisim_finite",),
    "automatic.compile_s": ("automatic.compile_evenodd",),
    "automatic.value_at_s": ("automatic.value_at",),
    "automatic.kernel_s": ("automatic.kernel2",),
}
COUNT_METRICS = (
    "stream.elements", "gsos.states", "gsos.output_calls", "gsos.derivative_calls",
    "calculus.native_calls", "algebra.poly_gcd_calls", "algebra.normalize_calls",
    "equivalence.up_to_pairs", "equivalence.proved", "equivalence.refuted",
    "equivalence.unknown",
)
LAYERS = ("cli", "speclang", "stream", "solvers", "algebra", "equivalence", "automatic")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, request id]
        self.stack = []
        self.counts = Counter()
        self.request = None
        self._states = set()
        self._patched = []  # (owner, attribute, original)

    # -- installation

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "streamcalc" or name.startswith("streamcalc.")}
        for layer, module, fn in SPANNED:
            original = getattr(modules[f"streamcalc.{module}"], fn)
            self._replace(modules, original, self._span(f"{layer}.{fn}", original))
        for module, fn, counter in COUNTED:
            original = getattr(modules[f"streamcalc.{module}"], fn)
            self._replace(modules, original, self._counter(counter, original))
        engine = modules["streamcalc.gsos"].Engine
        for name in STATE_METHODS:
            self._patch(engine, name, self._state_counter(getattr(engine, name)))
        for name, counter in HOT_METHODS:
            self._patch(engine, name, self._counter(counter, getattr(engine, name)))

    def uninstall(self):
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def _replace(self, modules, original, wrapper):
        for mod in modules.values():
            for attribute, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attribute, wrapper)

    def _patch(self, owner, attribute, wrapper):
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    # -- wrappers

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            self._observe(name, args, result)
            return result

        return wrapper

    def _counter(self, counter, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _state_counter(self, fn):
        states = self._states

        def wrapper(engine, *args, **kwargs):
            state = fn(engine, *args, **kwargs)
            states.add((id(engine), state.sid))
            return state

        return wrapper

    def _observe(self, name, args, result):
        counts = self.counts
        if name == "speclang.parse":
            counts["speclang.parse_bytes"] += len(args[0].encode())
        elif name == "stream.take":
            counts["stream.elements"] += len(result)
        elif name == "algebra.poly_gcd":
            counts["algebra.poly_gcd_calls"] += 1
        elif name.startswith("equivalence."):
            verdict = type(result).__name__.lower()
            counts[f"equivalence.{verdict}"] += 1
            if name == "equivalence.equiv_up_to" and verdict == "proved":
                counts["equivalence.up_to_pairs"] += len(result.certificate.pairs)

    def begin_request(self, request_id):
        """Engines live for one request, so distinct states are per request."""
        self.counts["gsos.states"] += len(self._states)
        self._states.clear()
        self.request = request_id

    # -- results

    def metrics(self):
        self.begin_request(None)
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        inclusive, layer_self = Counter(), Counter()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            layer_self[name.split(".")[0]] += end - start - children[i]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                inclusive[name] += end - start
        out = {f"{layer}.self_s": (layer_self[layer], "s") for layer in LAYERS}
        for metric, names in TIME_METRICS.items():
            out[metric] = (sum(inclusive[n] for n in names), "s")
        parse_s = inclusive["speclang.parse"]
        out["speclang.parse_bytes_per_s"] = (
            self.counts["speclang.parse_bytes"] / parse_s if parse_s else 0.0, "B/s")
        for metric in COUNT_METRICS:
            out[metric] = (self.counts[metric], "count")
        elements = self.counts["stream.elements"]
        out["gsos.states_per_element"] = (
            self.counts["gsos.states"] / elements if elements else 0.0, "ratio")
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "request": request}) + "\n")
