"""Span tracing of splitoct from outside, at its module boundaries.

Only the traced run installs the wrappers; the untraced run never
imports this module.  A function wrapper is bound under every name by
which a splitoct module looks the function up (so both
splitoct.cli.eval_descriptor and splitoct.orbits.eval_descriptor are
patched), a method wrapper on its class.  `uninstall` restores them.

Every call records a span: name, start, end, parent span and request
id.  Spans stay in memory, up to SPAN_CAP of them, and are written out
at the end.  The scalar, polynomial, trace-expression and octonion
operators run millions of times a run, so their calls are counted and
timed but not kept as spans.  Per-boundary calls, self time and
failures are always complete.  A call of a boundary from inside the
same boundary (the recursion of words.evaluate, TraceExpr subtraction
through addition) belongs to the outer span.  Self time is a span's duration minus the
time of its direct child spans.
"""

import functools
import json
import sys
import time

SPAN_CAP = 200_000

# Boundary -> (end-to-end metrics it should move, workload that shows it).
LAYER_MAP = {
    "cli.parse_tuple_file": ("latency_p50_ms setup_s", "eval-separate"),
    "cli.main": ("latency_p50_ms setup_s", "eval-separate"),
    "scalars.GF": ("setup_s", "eval-separate"),
    "scalars.FpElement.mul": ("throughput_ops_s peak_rss_mb", "eval-separate"),
    "scalars.FpElement.add": ("throughput_ops_s peak_rss_mb", "eval-separate"),
    "scalars.Polynomial.mul": ("throughput_ops_s latency_tail_ms", "symbolic-invariance"),
    "scalars.Polynomial.substitute": ("throughput_ops_s latency_tail_ms",
                                      "symbolic-invariance"),
    "octonion.mul.qq": ("throughput_ops_s", "eval-separate"),
    "octonion.mul.fp": ("throughput_ops_s", "eval-separate"),
    "octonion.mul.poly": ("throughput_ops_s", "symbolic-invariance"),
    "words.normalize_trace": ("throughput_ops_s latency_tail_ms", "normalize-words"),
    "words.TraceExpr.mul": ("throughput_ops_s", "normalize-words"),
    "words.TraceExpr.add": ("throughput_ops_s", "normalize-words"),
    "words.evaluate": ("throughput_ops_s", "eval-separate"),
    "invariants.eval_descriptor": ("throughput_ops_s", "eval-separate"),
    "invariants.descriptor_polynomial": ("latency_p50_ms", "symbolic-invariance"),
    "invariants.psi": ("latency_p50_ms", "symbolic-invariance"),
    "symbolic.verify_identity": ("latency_p50_ms", "symbolic-invariance"),
    "group.enumerate_group_array": ("setup_s", "eval-separate"),
    "group.coordinate_action": ("latency_tail_ms", "symbolic-invariance"),
    "orbits.separate": ("throughput_ops_s latency_p50_ms", "eval-separate"),
    "orbits.orbit_equal_oracle": ("throughput_ops_s latency_p50_ms", "eval-separate"),
    "orbits.limit": ("throughput_ops_s latency_p50_ms", "eval-separate"),
    "linalg.inverse": ("latency_tail_ms", "symbolic-invariance"),
    "linalg.echelon": ("latency_tail_ms", "symbolic-invariance"),
}
# normalize_trace is also reported split by word degree
NORMALIZE_DEGREES = range(3, 9)

# (module, function) wrapped under the boundary "<module>.<function>"
_FUNCTIONS = (
    ("cli", "parse_tuple_file"), ("cli", "main"), ("scalars", "GF"),
    ("words", "evaluate"), ("invariants", "eval_descriptor"),
    ("invariants", "descriptor_polynomial"), ("invariants", "psi"),
    ("symbolic", "verify_identity"), ("group", "enumerate_group_array"),
    ("group", "coordinate_action"), ("orbits", "separate"),
    ("orbits", "orbit_equal_oracle"), ("orbits", "limit"),
    ("linalg", "inverse"), ("linalg", "echelon"),
)
# (module, class, methods, boundary, whether its calls are kept as spans)
_METHODS = (
    ("scalars", "FpElement", ("__mul__", "__rmul__"), "scalars.FpElement.mul", False),
    ("scalars", "FpElement", ("__add__", "__radd__", "__sub__"),
     "scalars.FpElement.add", False),
    ("scalars", "Polynomial", ("__mul__", "__rmul__"), "scalars.Polynomial.mul", False),
    ("scalars", "Polynomial", ("substitute",), "scalars.Polynomial.substitute", True),
    ("words", "TraceExpr", ("__mul__", "__rmul__"), "words.TraceExpr.mul", False),
    ("words", "TraceExpr", ("__add__", "__radd__", "__sub__"), "words.TraceExpr.add",
     False),
)
_RING_TAGS = {"RationalField": "qq", "PrimeField": "fp", "PolynomialRing": "poly"}


class Tracer:
    def __init__(self):
        self.active = False
        self.request = "setup"
        self.stack = []      # frames [name, span id, time of direct children]
        self.stats = {}      # name -> [calls, total ns, self ns, failed]
        self.spans = []
        self.spans_dropped = 0
        self._next_id = 0
        self._patches = []

    def call(self, name, keep, fn, args, kwargs):
        stack = self.stack
        if not self.active or (stack and stack[-1][0] == name):
            return fn(*args, **kwargs)
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1][1] if stack else None
        frame = [name, span_id, 0]
        stack.append(frame)
        failed = True
        start = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
            failed = False
            return out
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            dur = end - start
            if stack:
                stack[-1][2] += dur
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0, 0, 0]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[2]
            st[3] += failed
            if keep and len(self.spans) < SPAN_CAP:
                self.spans.append((span_id, name, start, end, parent, self.request))
            elif keep:
                self.spans_dropped += 1

    # -- installing and removing the wrappers

    def _wrap(self, name, fn, keep=True):
        call = self.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, keep, fn, args, kwargs)
        return wrapper

    def _wrap_named(self, name_of, fn, keep=True):
        call = self.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name_of(*args), keep, fn, args, kwargs)
        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        from splitoct import octonion, words
        mods = {k.split(".", 1)[1]: m for k, m in sys.modules.items()
                if k.startswith("splitoct.")}
        users = [m for k, m in sys.modules.items()
                 if k == "splitoct" or k.startswith("splitoct.")]
        wrappers = {}
        for mod, fn_name in _FUNCTIONS:
            orig = getattr(mods[mod], fn_name)
            wrappers[id(orig)] = (orig, self._wrap("%s.%s" % (mod, fn_name), orig))
        orig = words.normalize_trace
        wrappers[id(orig)] = (orig, self._wrap_named(
            lambda w, *a, **k: "words.normalize_trace.deg%d" % words.degree(w), orig))
        for user in users:
            for attr, val in list(vars(user).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(user, attr, hit[1])
        for mod, cls_name, methods, name, keep in _METHODS:
            cls = getattr(mods[mod], cls_name)
            for meth in methods:
                self._set(cls, meth, self._wrap(name, cls.__dict__[meth], keep))
        self._set(octonion.Octonion, "__mul__", self._wrap_named(
            lambda a, b: "octonion.mul." + _RING_TAGS.get(type(a.ring).__name__,
                                                          "other"),
            octonion.Octonion.__dict__["__mul__"], keep=False))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results

    def layer_metrics(self):
        """calls, self_s and failed of every boundary in LAYER_MAP, with
        normalize_trace summed over its per-degree spans."""
        stats = {k: list(v) for k, v in self.stats.items()}
        total = [0, 0, 0, 0]
        for name, st in self.stats.items():
            if name.startswith("words.normalize_trace.deg"):
                total = [a + b for a, b in zip(total, st)]
        stats["words.normalize_trace"] = total
        names = list(LAYER_MAP) + ["words.normalize_trace.deg%d" % d
                                   for d in NORMALIZE_DEGREES]
        out = {}
        for name in names:
            calls, _total, self_ns, failed = stats.get(name, (0, 0, 0, 0))
            out[name + ".calls"] = (calls, "count")
            out[name + ".self_s"] = (self_ns / 1e9, "s")
            out[name + ".failed"] = (failed, "count")
        return out

    def write_spans(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, spans_dropped=self.spans_dropped)) + "\n")
            for span_id, name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "request": request}) + "\n")
