"""Span tracing of the prolate layers, installed by wrapping functions.

Each traced function is replaced in every prolate module that binds it, so
a call is caught in the module where its caller looks the name up (for
example eigh_tridiagonal in prolate.spectrum, signed_log_sum in
prolate.eigenvalues, exponent_term in prolate.bounds and
prolate.sequences).  Spans stay in memory with a link to the span that was
open when they started; a span's self time is its duration minus the
durations of its children.  A traced name missing from the package is
recorded as absent, and every metric that needs it is reported as absent
instead of failing the run.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

TAIL_RTOL = 1e-20   # a coefficient below this share of the peak is dead


def _first_len(args, kwargs):
    return len(args[0])


def _first_int(args, kwargs):
    return int(args[0])


def _ctx_n(args, kwargs):
    return (args[0].c, int(args[1]))


def _points(args, kwargs):
    return args[1].size if hasattr(args[1], "size") else 1


# (span name, defining module, attribute, what the span records from its arguments)
TARGETS = (
    ("solve", "prolate.spectrum", "eigh_tridiagonal", _first_len),
    ("build_matrix", "prolate.spectrum", "build_matrix", None),
    ("mode", "prolate.spectrum", "ProlateContext.mode", _ctx_n),
    ("psi_value", "prolate.spectrum", "psi_value", _points),
    ("lambda_log", "prolate.eigenvalues", "lambda_log", _ctx_n),
    ("profile", "prolate.eigenvalues", "_two_sided_profile", _first_len),
    ("lambda_quadrature", "prolate.eigenvalues", "lambda_quadrature", None),
    ("signed_log_sum", "prolate.logscale", "signed_log_sum", None),
    ("gauss_legendre", "prolate.legendre", "gauss_legendre", _first_int),
    ("weights", "prolate.legendre", "even_values_at_zero", _first_int),
    ("weights", "prolate.legendre", "odd_derivs_at_zero", _first_int),
    ("exponent_term", "prolate.elliptic", "exponent_term", None),
    ("zeta", "prolate.bounds", "zeta", None),
    ("delta_of_n", "prolate.bounds", "delta_of_n", None),
    ("aux_H", "prolate.bounds", "aux_H", None),
    ("trace", "prolate.sequences", "trace", None),
)

# the per-pass totals reported for each span name
LAYER_COUNTS = (
    ("solve", ("calls", "self_s", "rows")),
    ("build_matrix", ("self_s",)),
    ("mode", ("calls",)),
    ("psi_value", ("self_s", "points")),
    ("lambda_log", ("calls", "self_s")),
    ("profile", ("self_s", "rows")),
    ("lambda_quadrature", ("self_s",)),
    ("signed_log_sum", ("calls", "self_s")),
    ("gauss_legendre", ("calls", "self_s", "points")),
    ("weights", ("calls", "self_s", "rows")),
    ("exponent_term", ("calls", "self_s")),
    ("zeta", ("calls", "self_s")),
    ("delta_of_n", ("calls", "self_s")),
    ("aux_H", ("calls", "self_s")),
    ("trace", ("calls", "self_s")),
)
UNITS = {"calls": "count", "self_s": "s", "rows": "count", "points": "count"}

_NAME, _PARENT, _T0, _T1, _WORK, _RESULT = range(6)


def _live_rows(mode) -> int:
    """Rows up to the last coefficient at or above TAIL_RTOL of the peak."""
    mags = abs(mode.coeffs)
    live = (mags >= TAIL_RTOL * mags.max()).nonzero()[0]
    return int(live[-1]) + 1


def _share(num, den):
    return num / den if den else 0.0


class Tracer:
    """Wraps the TARGETS while installed and aggregates spans per pass."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []       # (owner, attribute, wrapper, original)
        self.passes = 0
        self.totals = {}
        self._seen_rules = set()
        for name, module, attr, work in TARGETS:
            owner_path, _, leaf = attr.rpartition(".")
            owner = importlib.import_module(module)
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, work)
            owners = [owner] if owner_path else [
                mod for key, mod in sorted(sys.modules.items())
                if key == "prolate" or key.startswith("prolate.")]
            for own in owners:
                for binding, value in list(vars(own).items()):
                    if value is original:
                        self._patches.append((own, binding, wrapper, original))
        # a name is absent only when none of its targets exist
        self.absent = ({name for name, _, _, _ in TARGETS}
                       - {wrapper.__name__ for _, _, wrapper, _ in self._patches})

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack
        keep_result = name == "mode"

        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, 0.0, 0.0,
                      work(args, kwargs) if work else None, None]
            sid = len(spans)
            spans.append(record)
            stack.append(sid)
            record[_T0] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[_T1] = perf_counter()
                stack.pop()
            if keep_result:
                record[_RESULT] = out
            return out

        wrapper.__name__ = name
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for owner, binding, wrapper, _ in self._patches:
            setattr(owner, binding, wrapper)

    def uninstall(self):
        for owner, binding, _, original in self._patches:
            setattr(owner, binding, original)

    def call(self, name, fn, *args):
        """Run fn as a root span (one benchmark row)."""
        return self._wrap(name, fn, None)(*args)

    # -- aggregation ---------------------------------------------------------

    def collect(self):
        """Fold the spans of one traced pass into the totals and drop them."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[_PARENT] >= 0:
                child[s[_PARENT]] += s[_T1] - s[_T0]
        t = self.totals

        def add(key, value):
            t[key] = t.get(key, 0) + value

        keys, mode_keys = set(), set()
        for i, s in enumerate(spans):
            name, work = s[_NAME], s[_WORK]
            add(name + ".calls", 1)
            add(name + ".self_s", s[_T1] - s[_T0] - child[i])
            if name in ("solve", "profile", "weights"):
                add(name + ".rows", work)
            elif name == "psi_value":
                add("psi_value.points", work)
            elif name == "gauss_legendre":
                add("gauss_legendre.points", work)
                add("gauss_legendre.repeats", work in self._seen_rules)
                self._seen_rules.add(work)
            elif name in ("mode", "lambda_log"):
                keys.add(work)
                if name == "mode":
                    add("mode.repeats", work in mode_keys)
                    mode_keys.add(work)
                    if s[_RESULT] is not None:
                        add("mode.live_rows", _live_rows(s[_RESULT]))
                        add("mode.dim_rows", s[_RESULT].coeffs.size)
        add("distinct_modes", len(keys))
        self.passes += 1
        spans.clear()

    def metrics(self):
        """Per-pass layer metrics {name: (value, unit)}, and the absent ones."""
        t, passes = self.totals, max(self.passes, 1)

        def per_pass(key):
            return lambda: t.get(key, 0) / passes

        def share(num, den):
            return lambda: _share(t.get(num, 0), t.get(den, 0))

        table = [(f"{name}.{kind}", UNITS[kind], [name], per_pass(f"{name}.{kind}"))
                 for name, kinds in LAYER_COUNTS for kind in kinds]
        table += [
            ("mode.repeat_share", "ratio", ["mode"], share("mode.repeats", "mode.calls")),
            ("solves_per_mode", "ratio", ["solve"], share("solve.calls", "distinct_modes")),
            ("live_fraction", "ratio", ["mode"], share("mode.live_rows", "mode.dim_rows")),
            ("profile_per_lambda", "ratio", ["profile", "lambda_log"],
             share("profile.calls", "lambda_log.calls")),
            ("gauss_legendre.repeat_share", "ratio", ["gauss_legendre"],
             share("gauss_legendre.repeats", "gauss_legendre.calls")),
        ]
        out, absent = {}, []
        for metric, unit, needs, value in table:
            if self.absent.intersection(needs):
                absent.append(metric)
                out[metric] = (0, unit)
            else:
                out[metric] = (value(), unit)
        return out, absent
