"""In-memory span tracer and the instrumentation of tailtest's public layers.

Tracing is done from the benchmark alone: ``instrumented(tracer)`` rebinds
each traced function in every ``tailtest`` module that holds it (the defining
module and every module that imported it by name) and wraps the traced
methods on their classes, then restores the originals on exit. The package
source is never modified.

A span records its name, start, end and parent through the tracer's stack.
Self time is a span's duration minus the time covered by its direct child
spans. A call into a span name that is already open further up the stack
(``chisq_quantile`` calling ``chisq_cdf``, for example) is not a new span:
counts are of outermost entries into a layer.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, defining module, attribute): plain functions, rebound wherever
# a tailtest module holds the same object.
FUNCTIONS = (
    ("numerics.chisq", "tailtest.numerics", "chisq_cdf"),
    ("numerics.chisq", "tailtest.numerics", "chisq_sf"),
    ("numerics.chisq", "tailtest.numerics", "chisq_quantile"),
    ("margins.to_pareto", "tailtest.margins", "to_pareto"),
    ("margins.to_pseudo", "tailtest.margins", "to_pseudo"),
    ("margins.rank_transform", "tailtest.margins", "_rank_transform"),
    ("margins.ordinal_ranks", "tailtest.margins", "_ordinal_ranks"),
    ("partitions.count_cells", "tailtest.partitions", "count_cells"),
    ("divergence.kl_divergence", "tailtest.divergence", "kl_divergence"),
    ("inference.bootstrap_null", "tailtest.inference", "bootstrap_null"),
    ("inference.run_test", "tailtest.inference", "run_test"),
    ("copulas.sample", "tailtest.copulas", "sample"),
    ("copulas.conditional_cdf", "tailtest.copulas", "conditional_cdf"),
    ("experiments.ks_one_sample", "tailtest.experiments", "ks_statistic_one_sample"),
    ("experiments.study", "tailtest.experiments", "size_power_study"),
    ("experiments.study", "tailtest.experiments", "k_sensitivity_study"),
    ("experiments.study", "tailtest.experiments", "null_histogram_study"),
    ("ingest.load_csv", "tailtest.ingest", "load_csv"),
    ("ingest.build_pairs", "tailtest.ingest", "build_pairs"),
    ("ingest.seasonal_tests", "tailtest.ingest", "seasonal_tests"),
    ("cli.main", "tailtest.cli", "main"),
)

# (span name, defining module, class, method): wrapped on the class itself.
METHODS = (
    ("numerics.stream_init", "tailtest.numerics", "RngStream", "__init__"),
    ("numerics.permutation", "tailtest.numerics", "RngStream", "permutation"),
    ("partitions.classify", "tailtest.partitions", "Partition", "classify"),
    ("partitions.risk", "tailtest.partitions", "RiskFunctional", "__call__"),
)


class Tracer:
    """Aggregates spans per name; keeps the per-op key sets for the ratios."""

    def __init__(self):
        self._stack: list[list] = []       # open spans: [name, child_time]
        self._open: set[str] = set()
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.top_self_s = 0.0              # self time of spans with no parent
        self.calls_by_parent: Counter = Counter()  # (name, parent name) -> calls
        self.rows_parsed = 0
        # Work-sharing keys of the current op, logged per op when it ends.
        self._op_keys: defaultdict = defaultdict(set)
        self._op_draws: Counter = Counter()
        self.op_log: list[dict] = []       # per op: kind, layer -> (distinct, draws)

    def begin_op(self):
        self._op_keys.clear()
        self._op_draws.clear()

    def end_op(self, kind: str):
        shares = {name: (len(keys), self._op_draws[name]) for name, keys in self._op_keys.items()}
        self.op_log.append({"kind": kind, "distinct_draws": shares})

    def distinct_ratio(self, name: str, kind=None):
        """Distinct keys over draws, keys counted per op; None if nothing
        was drawn. Restricted to ops of ``kind`` when given."""
        distinct = draws = 0
        for entry in self.op_log:
            if kind is None or entry["kind"] == kind:
                d, n = entry["distinct_draws"].get(name, (0, 0))
                distinct += d
                draws += n
        return distinct / draws if draws else None

    def note_key(self, name: str, key):
        self._op_keys[name].add(key)
        self._op_draws[name] += 1

    def call(self, name: str, fn, args, kwargs):
        if name in self._open:
            return fn(*args, **kwargs)
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [name, 0.0]
        stack.append(frame)
        self._open.add(name)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            stack.pop()
            self._open.discard(name)
            own = duration - frame[1]
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += own
            if parent is None:
                self.top_self_s += own
                self.calls_by_parent[name, None] += 1
            else:
                parent[1] += duration
                self.calls_by_parent[name, parent[0]] += 1


def _extras(tracer: Tracer, name: str, original):
    """Per-layer extras: a before-call hook noting work-sharing keys, or an
    after-call hook counting parsed rows."""
    if name == "numerics.permutation":
        def hook(args, kwargs):
            stream = args[0]
            tracer.note_key(name, (stream.master_seed, stream.stream_id))
        return hook, None
    if name == "ingest.build_pairs":
        signature = inspect.signature(original)

        def hook(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            values = dict(bound.arguments)
            values["series"] = id(values["series"])
            tracer.note_key(name, tuple(sorted(values.items())))
        return hook, None
    if name == "ingest.load_csv":
        def after(series):
            tracer.rows_parsed += series.n + series.n_malformed
        return None, after
    return None, None


def _wrap(tracer: Tracer, name: str, fn, hook=None, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if hook is not None:
            hook(args, kwargs)
        result = tracer.call(name, fn, args, kwargs)
        if after is not None:
            after(result)
        return result
    return traced


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Rebind every traced layer to a span-recording wrapper for the block."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "tailtest" or n.startswith("tailtest."))]
    restore: list[tuple[object, str, object]] = []
    try:
        for name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = _wrap(tracer, name, original, *_extras(tracer, name, original))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        restore.append((module, key, original))
                        setattr(module, key, wrapper)
        for name, module_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            restore.append((cls, attr, original))
            setattr(cls, attr, _wrap(tracer, name, original, *_extras(tracer, name, original)))
        yield tracer
    finally:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)
