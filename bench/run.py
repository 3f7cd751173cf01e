"""qsot benchmark: one command per workload run.

    python3 bench/run.py --workload cert-table --seed 1 --seconds 25 --trace 0

Builds the workload's inputs from ``--seed``, times set-up, warms up, then
runs whole passes over the workload's fixed op list: as many as end within
``--seconds``, and never fewer than give 100 op samples (so that 10 lie
beyond p90).  Every op's output is checked in every pass.  ``attempted``
and ``failed`` count the first timed pass only, so that they depend on the
seed and the code and not on how many passes the host's speed allowed; a
failure outside the near-singular share in any pass makes the run
incorrect.  With ``--trace 1`` the run
instead traces set-up and one pass from outside the library, after one
untraced pass that serves as the overhead baseline, and reports per-layer
metrics.

Times are reported at a reference host speed.  A fixed probe (pure Python
and a small LAPACK call, no library code) is timed before and after every op
and around every set-up step; each time is scaled by ``PROBE_REF_S`` over the
probe's mean time there.  A fresh-interpreter import of the library is
scaled the same way by the import of numpy alone in a fresh interpreter,
timed before and after it: import time follows file and memory load on the
host, which the probe does not track.  On a shared host whose speed drifts by tens of
percent within minutes, this keeps the host's drift out of the comparison
while a change in the library's own cost shows in full.  The raw times are
in the run record.

Standard output: one run-record line (machine, BLAS, revision, the
workload's reason, every metric with unit and sample count, failures),
then, as the last line, ``{"correct", "attempted", "failed", "metrics"}``.
The library is imported from ``src/`` of the checkout this file sits in;
without it the run exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# A fixed BLAS thread count, no higher than the core count; main() pins it
# before numpy is first imported.
BLAS_THREADS = 1
MIN_SAMPLES = 100        # p90 then has at least 10 samples beyond it
IMPORT_REPEATS = 7       # fresh-interpreter imports timed per run
GENERATE_REPEATS = 3     # input generations timed per run
# The probe's time on the host the bounds were set on (2-vCPU Xeon VM, fast
# phases); a scaled time is the time the op would take at that speed.
PROBE_REF_S = 1.3e-3
# numpy's fresh-interpreter import time on that host: the reference for
# scaling the library's import time.
IMPORT_GAUGE_REF_S = 0.06
SAFETY_SECONDS = 150.0   # stop starting passes after this, whatever --seconds says

# (name, unit, better) of every end-to-end metric a --trace 0 run reports.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import qsot; "
                 "print(time.perf_counter() - t)")
_IMPORT_GAUGE = ("import time; t = time.perf_counter(); import numpy; "
                 "print(time.perf_counter() - t)")


def pin_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


class SetupError(Exception):
    """The checkout cannot run the benchmark (no library sources, say)."""


def load_library():
    """Import qsot from this checkout's ``src/`` and nowhere else."""
    package = SRC / "qsot"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no library sources at {package}")
    sys.path.insert(0, str(SRC))
    import qsot
    if Path(qsot.__file__).resolve().parent != package.resolve():
        raise SetupError(f"qsot was imported from {qsot.__file__}, not {package}")
    return qsot


# ------------------------------------------------------------------ run record
def _git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_runtime_threads(np) -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, when it has one."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "blas_threads_runtime": _blas_runtime_threads(np),
            "git_revision": _git_revision()}


# ---------------------------------------------------------------- host speed
class SpeedProbe:
    """Times a fixed piece of pure-Python and LAPACK work that never touches
    the library, as a gauge of how fast the host runs at that moment."""

    def __init__(self):
        import numpy as np
        matrix = np.random.default_rng(12345).normal(size=(32, 32))
        self._matrix = matrix + matrix.T
        self._eigh = np.linalg.eigh

    def __call__(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(8000):
            acc += i * i
        for _ in range(8):
            self._eigh(self._matrix)
        return time.perf_counter() - start

    def around(self, measure) -> tuple[float, float]:
        """(raw, scaled) seconds of ``measure()``, which returns the raw
        seconds it measured; the probe runs right before and right after."""
        before = self()
        raw = measure()
        return raw, raw * 2 * PROBE_REF_S / (before + self())


def elapsed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# --------------------------------------------------------------------- set-up
def import_seconds(program: str = _IMPORT_PROBE) -> float:
    """Time to import the library (or, given ``_IMPORT_GAUGE``, numpy alone)
    in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", program, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def scaled_imports() -> list[tuple[float, float]]:
    """(raw, scaled) seconds of ``IMPORT_REPEATS`` library imports, each
    scaled by the mean of the numpy imports timed right before and after."""
    before = import_seconds(_IMPORT_GAUGE)
    imports = []
    for _ in range(IMPORT_REPEATS):
        raw = import_seconds()
        after = import_seconds(_IMPORT_GAUGE)
        imports.append((raw, raw * 2 * IMPORT_GAUGE_REF_S / (before + after)))
        before = after
    return imports


def measure_setup(workload, probe: SpeedProbe) -> dict:
    """Set-up time: the median fresh-interpreter import time plus the median
    input-generation time, each scaled.  The inputs of the last generation
    are the ones the run uses."""
    imports = scaled_imports()
    generates = [probe.around(lambda: elapsed(workload.generate))
                 for _ in range(GENERATE_REPEATS)]
    return {"setup_s": (statistics.median(s for _, s in imports)
                        + statistics.median(s for _, s in generates)),
            "raw": (statistics.median(r for r, _ in imports)
                    + statistics.median(r for r, _ in generates)),
            "samples": min(IMPORT_REPEATS, GENERATE_REPEATS),
            "import_s": [r for r, _ in imports], "generate_s": [r for r, _ in generates]}


# ----------------------------------------------------------------- op running
class Tally:
    """Outcome counts of the ops of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0   # failures that make the run incorrect
        self.reasons: dict[str, int] = {}

    def record(self, op, reason: str | None, documented: bool = True) -> None:
        """Count one op; ``reason`` is None when it passed.  A documented
        failure (a failed check or a library error) on a stress op is the
        known defect those ops exist to show; any other failure makes the run
        incorrect."""
        self.attempted += 1
        if reason is None:
            return
        self.failed += 1
        if not (op.stress and documented):
            self.unexpected += 1
        key = f"{op.label}: {reason}"
        self.reasons[key] = self.reasons.get(key, 0) + 1


def merged_reasons(tallies: list[Tally]) -> dict[str, int]:
    """Failure reasons with their counts summed over the passes."""
    merged: dict[str, int] = {}
    for tally in tallies:
        for key, count in tally.reasons.items():
            merged[key] = merged.get(key, 0) + count
    return merged


def run_op(op, qsot_error, tally: Tally, tracer=None, index: int = 0) -> float:
    """Run one op and time it, then check it outside the timed region."""
    start = time.perf_counter()
    try:
        result = op.run() if tracer is None else tracer.call(index, op.run)
    except qsot_error as exc:
        elapsed = time.perf_counter() - start
        tally.record(op, f"{type(exc).__name__}: {exc}")
        return elapsed
    except Exception as exc:  # recorded, and the run is reported incorrect
        elapsed = time.perf_counter() - start
        tally.record(op, f"unexpected {type(exc).__name__}: {exc}", documented=False)
        return elapsed
    elapsed = time.perf_counter() - start
    try:
        tally.record(op, op.check(result))
    except Exception as exc:  # a check that crashes is a broken check
        tally.record(op, f"check raised {type(exc).__name__}: {exc}", documented=False)
    return elapsed


def run_pass(ops, qsot_error, tally: Tally, samples: list, probe: SpeedProbe,
             tracer=None) -> float:
    """One pass over the op list.  Appends ``(label, raw s, scaled s)`` per
    op to ``samples`` and returns the pass's summed raw op time."""
    total = 0.0
    before = probe()
    for index, op in enumerate(ops):
        raw = run_op(op, qsot_error, tally, tracer, index)
        after = probe()
        samples.append((op.label, raw, raw * 2 * PROBE_REF_S / (before + after)))
        before = after
        total += raw
    return total


def summarize(samples: list, column: int) -> dict[str, float]:
    """wall_s, ops_per_s, op_ms_p50 and op_ms_p90 from one column of the
    samples (1 raw, 2 scaled).  wall_s is the pass assembled from every op's
    median time over the passes; labels are unique within a pass.  op_ms_p50
    is the median over ops of those per-op medians: over the raw samples it
    would fall in the gap between two groups of ops (an op list of even
    length puts it exactly there) and read the slowest sample of one group
    and the fastest of the other.  op_ms_p90 is over every sample, so that
    at least 10 lie beyond it."""
    import numpy as np
    by_label: dict[str, list[float]] = {}
    for sample in samples:
        by_label.setdefault(sample[0], []).append(sample[column])
    op_medians = [statistics.median(v) for v in by_label.values()]
    ms = np.array([sample[column] for sample in samples]) * 1e3
    return {"wall_s": sum(op_medians),
            "ops_per_s": len(ms) / (ms.sum() / 1e3),
            "op_ms_p50": statistics.median(op_medians) * 1e3,
            "op_ms_p90": float(np.percentile(ms, 90))}


def op_medians_ms(samples: list) -> dict[str, float]:
    """Median raw time in ms of every op."""
    by_label: dict[str, list[float]] = {}
    for label, raw, _ in samples:
        by_label.setdefault(label, []).append(raw * 1e3)
    return {label: statistics.median(v) for label, v in by_label.items()}


# ----------------------------------------------------------------------- main
def measure(workload, seconds: float, qsot_error) -> tuple[dict, dict, list[Tally]]:
    probe = SpeedProbe()
    setup = measure_setup(workload, probe)
    workload.warmup()
    ops = workload.ops()
    if len({op.label for op in ops}) != len(ops):
        raise ValueError("op labels must be unique within a pass")
    tallies, samples, pass_times = [], [], []
    start = time.perf_counter()
    while True:
        tallies.append(Tally())
        pass_times.append(run_pass(ops, qsot_error, tallies[-1], samples, probe))
        spent = time.perf_counter() - start
        if spent >= SAFETY_SECONDS:
            break
        # stop once another pass would end after the time given
        if (len(samples) >= MIN_SAMPLES
                and spent + statistics.mean(pass_times) > seconds):
            break
    scaled, raw = summarize(samples, 2), summarize(samples, 1)
    values = {"setup_s": setup["setup_s"], **scaled,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    raw.update(setup_s=setup["raw"], peak_rss_mb=values["peak_rss_mb"])
    counts = {"setup_s": setup["samples"], "wall_s": len(pass_times),
              "ops_per_s": len(samples), "op_ms_p50": len(ops),
              "op_ms_p90": len(samples), "peak_rss_mb": 1}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    detail = {name: {"value": values[name], "unit": unit, "samples": counts[name],
                     "raw": raw[name]}
              for name, unit, _ in END_TO_END}
    detail["op_ms_p90"]["beyond"] = sum(1 for s in samples
                                        if s[2] * 1e3 > values["op_ms_p90"])
    detail["wall_s"]["passes_raw"] = pass_times
    detail["setup_s"].update(import_s=setup["import_s"], generate_s=setup["generate_s"])
    detail["failed_frac"] = {"value": tallies[0].failed / tallies[0].attempted,
                             "unit": "fraction", "samples": tallies[0].attempted}
    detail["ops_per_pass"] = len(ops)
    detail["op_ms_raw_medians"] = op_medians_ms(samples)
    detail["op_samples_ms"] = [[label, r * 1e3, s * 1e3] for label, r, s in samples]
    return metrics, detail, tallies


def measure_traced(workload, qsot_error, trace_path: Path) -> tuple[dict, dict, list[Tally]]:
    from tracer import SETUP_OP, Tracer, per_layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        tracer.call(SETUP_OP, workload.generate)
    finally:
        tracer.uninstall()
    workload.warmup()
    ops = workload.ops()
    probe = SpeedProbe()
    tallies, samples = [Tally(), Tally()], []
    untraced = run_pass(ops, qsot_error, tallies[0], samples, probe)
    tracer.install()
    try:
        traced = run_pass(ops, qsot_error, tallies[1], samples, probe, tracer)
    finally:
        tracer.uninstall()
    # scaled pass times, as wall_s is, so that host drift between the two
    # passes does not pass for tracing cost
    scaled = [sum(s[2] for s in samples[:len(ops)]), sum(s[2] for s in samples[len(ops):])]
    metrics = per_layer_metrics(tracer, overhead_s=scaled[1] - scaled[0])
    detail = {"untraced_pass_s": untraced, "traced_pass_s": traced,
              "op_ms_raw_medians": op_medians_ms(samples),
              "spans": len(tracer.name), "raised": tracer.raised_by_class()}
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(str(trace_path))
    detail["trace_file"] = str(trace_path.relative_to(ROOT))
    return metrics, detail, tallies


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for smoke tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    try:
        qsot = load_library()
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, args.size, str(workdir))
    try:
        if args.trace:
            trace_path = OUT_DIR / f"trace-{args.workload}.npz"
            metrics, detail, tallies = measure_traced(workload, qsot.errors.QsotError,
                                                      trace_path)
        else:
            metrics, detail, tallies = measure(workload, args.seconds,
                                               qsot.errors.QsotError)
    finally:
        workload.close()

    first = tallies[0]
    record = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size,
              "loop": "closed, one caller", "machine": machine_record(),
              "detail": detail, "attempted": first.attempted, "failed": first.failed,
              "failures": merged_reasons(tallies),
              "failed_per_pass": [t.failed for t in tallies],
              "unexpected_per_pass": [t.unexpected for t in tallies]}
    result = {"correct": all(t.unexpected == 0 for t in tallies),
              "attempted": first.attempted, "failed": first.failed, "metrics": metrics}
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
