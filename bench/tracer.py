"""Outside-in span tracer for the qsot benchmark.

The tracer wraps module attributes and public class methods of the library
from the benchmark's own code; nothing inside ``src/qsot`` is edited.  The
library resolves names such as ``alg.power``, ``maps.channel_state`` and
``sot.evaluate`` through module attributes at call time, and calls a
module's own functions through its globals, so replacing every binding of a
function object also catches the library's internal calls.

Each call of a wrapped function records one span: name, start, end, parent
span and op id.  Spans are kept in compact in-memory arrays while the run
lasts and written out at the end (``write``).  Self time is a span's
duration minus the time covered by its child spans.
"""
from __future__ import annotations

import importlib
import os
import time
from array import array
from collections import Counter

import numpy as np

SETUP_OP = -1  # op id of spans recorded while the inputs are generated
OP_SPAN = "bench.op"  # root span around every op (and around set-up)


def _family_tag(args, kwargs):
    family = args[0] if args else kwargs.get("family")
    return getattr(family, "tag", type(family).__name__)


def _property(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("prop")


def _count_trials(tracer, args, kwargs, result):
    tracer.counters["axioms.trials_evaluated"] += result.trials


def _count_read(tracer, args, kwargs, result):
    tracer.counters["io.bytes_read"] += os.path.getsize(args[0])


def _count_written(tracer, args, kwargs, result):
    tracer.counters["io.bytes_written"] += os.path.getsize(args[1])


# (module, attribute path, variant, counter).  A variant turns the call's
# arguments into a suffix of the span name, "sot.evaluate[rs]" say; a
# counter adds to ``Tracer.counters`` after the call returns.
TARGETS = (
    ("algebra", "label_key", None, None),
    ("algebra", "tensor", None, None),
    ("algebra", "power", None, None),
    ("algebra", "spectral_decompose", None, None),
    ("algebra", "AlgebraShape.tensor", None, None),
    ("algebra", "AlgebraElement.__matmul__", None, None),
    ("maps", "from_action", None, None),
    ("maps", "channel_state", None, None),
    ("maps", "apply_to_factor", None, None),
    ("maps", "time_reversal_tau", None, None),
    ("maps", "LinearMap.tilde", None, None),
    ("maps", "LinearMap.compose", None, None),
    ("maps", "LinearMap.__call__", None, None),
    ("sampling", "random_cptp", None, None),
    ("sampling", "random_state", None, None),
    ("sampling", "random_measure_prepare", None, None),
    ("sot", "evaluate", _family_tag, None),
    ("bayes", "petz", None, None),
    ("bayes", "rotated_petz", None, None),
    ("bayes", "sth_inverse", None, None),
    ("bayes", "bloom_bayes", None, None),
    ("bayes", "symmetric_bloom_bayes", None, None),
    ("bayes", "rs_bayes", None, None),
    ("bayes", "gce_solve", None, None),
    ("bayes", "bayes_residual", None, None),
    ("bayes", "generic_bayes", None, None),
    ("bayes", "closed_form_bayes", None, None),
    ("axioms", "certify", _property, _count_trials),
    ("axioms", "block_positivity_violation", None, None),
    ("axioms", "check_associativity", None, None),
    ("axioms", "replay_violation", None, None),
    ("io", "load", None, _count_read),
    ("io", "dump", None, _count_written),
    ("io", "serialize_matrix", None, None),
    ("io", "parse_matrix", None, None),
    ("scenarios", "pem_reverse", None, None),
    ("scenarios", "state_update", None, None),
    ("scenarios", "two_state", None, None),
    ("scenarios", "two_time_correlator", None, None),
    ("cli", "main", None, None),
    ("cli", "cmd_sot", None, None),
    ("cli", "cmd_bayes", None, None),
    ("cli", "cmd_scenario", None, None),
)

MODULES = ("algebra", "maps", "sampling", "sot", "bayes", "axioms", "io",
           "scenarios", "cli")


FAMILY_TAGS = ("uncorrelated", "ohya", "leifer-spekkens", "t-rotated", "sth",
               "symmetric-bloom", "right-bloom", "left-bloom", "rs", "theta")
TABLE_PROPERTIES = ("P1", "P2", "P3", "P4", "P5", "P7", "A")
UNITS = {"calls": "count", "raised": "count", "total_s": "s", "self_s": "s"}


def _stats(span: str, *stats: str, name: str | None = None) -> list[tuple]:
    """Metric specs ``(metric name, span, stat)``; a span ending in ``[*]``
    sums over every variant of the name."""
    name = name or span.replace("[*]", "")
    return [(f"{name}.{stat}", span, stat) for stat in stats]


# Every per-layer metric a --trace 1 run reports, in order.
PER_LAYER = (
    _stats("algebra.label_key", "calls", "self_s")
    + _stats("algebra.tensor", "calls", "self_s")
    + _stats("algebra.AlgebraShape.tensor", "calls", "self_s")
    + _stats("algebra.power", "calls", "self_s")
    + _stats("algebra.AlgebraElement.__matmul__", "self_s")
    + _stats("algebra.spectral_decompose", "self_s")
    + _stats("maps.from_action", "calls", "self_s")
    + _stats("maps.channel_state", "calls", "self_s")
    + _stats("maps.LinearMap.tilde", "calls", "self_s")
    + _stats("maps.LinearMap.compose", "self_s")
    + _stats("maps.LinearMap.__call__", "self_s")
    + _stats("maps.apply_to_factor", "self_s")
    + _stats("maps.time_reversal_tau", "self_s")
    + _stats("sampling.random_cptp", "calls", "total_s")
    + _stats("sampling.random_state", "total_s")
    + _stats("sampling.random_measure_prepare", "total_s")
    + _stats("sot.evaluate[*]", "calls", "self_s", "raised")
    + [s for tag in FAMILY_TAGS
       for s in _stats(f"sot.evaluate[{tag}]", "total_s", name=f"sot.evaluate.{tag}")]
    + [s for fn in ("petz", "rotated_petz", "sth_inverse", "bloom_bayes",
                    "symmetric_bloom_bayes", "rs_bayes", "gce_solve", "bayes_residual")
       for s in _stats(f"bayes.{fn}", "total_s")]
    + _stats("bayes.generic_bayes", "total_s", "self_s")
    + _stats("bayes.closed_form_bayes", "raised")
    + [s for prop in TABLE_PROPERTIES
       for s in _stats(f"axioms.certify[{prop}]", "total_s", name=f"axioms.certify.{prop}")]
    + _stats("axioms.block_positivity_violation", "self_s")
    + _stats("axioms.check_associativity", "total_s", "raised")
    + _stats("axioms.replay_violation", "total_s")
    + [("axioms.trials_evaluated", None, "count")]
    + [s for fn in ("load", "dump") for s in _stats(f"io.{fn}", "total_s")]
    + [s for fn in ("serialize_matrix", "parse_matrix") for s in _stats(f"io.{fn}", "self_s")]
    + [("io.bytes_read", None, "bytes"), ("io.bytes_written", None, "bytes")]
    + [s for fn in ("pem_reverse", "state_update", "two_state", "two_time_correlator")
       for s in _stats(f"scenarios.{fn}", "total_s")]
    + [s for fn in ("cmd_sot", "cmd_bayes", "cmd_scenario") for s in _stats(f"cli.{fn}", "total_s")]
    + _stats("cli.main", "self_s")
    + [("trace.overhead_s", None, "s")]
)


def metric_unit(stat: str) -> str:
    return UNITS.get(stat, stat)


def metric_better(name: str) -> str:
    return "higher" if name == "axioms.trials_evaluated" else "lower"


def per_layer_metrics(tracer: "Tracer", overhead_s: float) -> dict[str, dict]:
    """Every PER_LAYER metric from a tracer's spans and counters; a span that
    never ran reports zero."""
    summary = tracer.summary()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raised": 0}
    out = {}
    for name, span, stat in PER_LAYER:
        if span is None:
            value = overhead_s if name == "trace.overhead_s" else tracer.counters[name]
        elif span.endswith("[*]"):
            prefix = span[:-2]
            value = sum(v[stat] for key, v in summary.items() if key.startswith(prefix))
        else:
            value = summary.get(span, zero)[stat]
        out[name] = {"value": value, "unit": metric_unit(stat)}
    return out


class Tracer:
    """Records spans of wrapped library calls while ``on`` is true."""

    def __init__(self):
        self.on = False
        self.op = SETUP_OP
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # 1 unless a span of the same name is open
        self._stack: list[int] = []
        self._depth: list[int] = []
        self.raised: Counter = Counter()  # (span name, exception class) -> count
        self.counters: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.outer.append(self._depth[nid] == 0)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, nid: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[nid] -= 1

    def call(self, op: int, fn):
        """Run ``fn`` with recording on, inside a root span for op ``op``."""
        nid = self.name_id(OP_SPAN)
        self.op, self.on = op, True
        idx = self.open(nid)
        try:
            return fn()
        finally:
            self.close(idx, nid)
            self.op, self.on = SETUP_OP, False

    # --------------------------------------------------------------- wrapping
    def _wrap(self, fn, name: str, variant, counter):
        tracer = self
        base = self.name_id(name)

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            nid = base if variant is None else tracer.name_id(
                f"{name}[{variant(args, kwargs)}]")
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx, nid)
                tracer.raised[(nid, type(exc).__name__)] += 1
                raise
            tracer.close(idx, nid)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every binding of each target with a recording wrapper:
        the class attribute for methods, and for functions every attribute of
        every library module (the package namespace included) that holds the
        same function object."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module("qsot")] + [
            importlib.import_module(f"qsot.{m}") for m in MODULES]
        for mod_name, path, variant, counter in TARGETS:
            mod = importlib.import_module(f"qsot.{mod_name}")
            name = f"{mod_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(mod, cls_name)
                fn = owner.__dict__[attr]
                self._set(owner, attr, self._wrap(fn, name, variant, counter))
                continue
            fn = getattr(mod, path)
            wrapper = self._wrap(fn, name, variant, counter)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        self._set(holder, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        self.on = False

    # ------------------------------------------------------------ aggregation
    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "op": np.frombuffer(self.op_id, dtype=np.int32).copy(),
                "start": start.copy(), "end": end.copy(),
                "outer": np.frombuffer(self.outer, dtype=np.int8).astype(bool)}

    @staticmethod
    def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
        """Span duration minus the time covered by its direct children."""
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                              minlength=duration.size)
        return duration - covered

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s (outermost spans only, so recursion
        is not counted twice), self_s, and raised (exceptions that escaped)."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        own = self.self_times(spans["parent"], duration)
        n = len(self.names)
        calls = np.bincount(spans["name"], minlength=n)
        total = np.bincount(spans["name"], weights=np.where(spans["outer"], duration, 0.0),
                            minlength=n)
        self_s = np.bincount(spans["name"], weights=own, minlength=n)
        raised = Counter()
        for (nid, _), count in self.raised.items():
            raised[nid] += count
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(self_s[i]), "raised": int(raised[i])}
                for i, name in enumerate(self.names)}

    def raised_by_class(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for (nid, cls), count in sorted(self.raised.items()):
            out.setdefault(self.names[nid], {})[cls] = count
        return out

    def write(self, path: str) -> None:
        """Write every span (and the name table) to a ``.npz`` file."""
        spans = self.arrays()
        np.savez(path, names=np.array(self.names), **spans)
