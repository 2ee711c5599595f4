"""End-to-end and per-layer benchmark of the ``blowups`` command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {recover,orders,canon,equiv} \\
        --seed N --seconds S --trace {0,1}

One client in one process, no threads, closed loop: each op is a call of
``blowups.cli.main(argv)`` on generated JSON documents (or, for
``recover``, the pipeline ``tensor | recover``), and the next op starts
when it returns.  Whole passes over the seed's inputs repeat until the
ops have taken ``--seconds`` and at least ``MIN_OPS`` ops have run.
Every op's output is checked against answers computed independently of
``blowups`` (see ``workloads.py``); a wrong output, an unexpected exit
code or an exception counts the op as failed and the run goes on.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps the
library's layers (see ``tracer.py``), reports the per-layer metrics, and
self-tests the trace: the first groups of the pass are run again
untraced (stdout must be byte-identical) and traced with a fresh tracer
(every counter must repeat exactly).  Both modes run one op as
``PYTHONPATH=src python -m blowups ...`` and require byte-identical
stdout, and time a fixed pure-Python loop before and after the run as a
host-noise probe.  The last stdout line is the JSON result; spans of a
traced run are written to ``.perfbench-out/``.

The host this runs on is shared, and its speed drifts by a factor of up
to two over minutes.  So every reported time is scaled to a reference
host speed: a fixed calibration loop runs between ops after every
``CALIBRATE_EVERY_S`` of op time (and after each set-up), and the run's
times are multiplied by ``HostScale.factor``, from the loop's median time.
The loop is benchmark code, so a change to ``blowups`` cannot move it.
The unscaled wall-clock figures are printed in the summary line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from io import StringIO
from time import perf_counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100
SETUPS = 7
MODULES = ("cli", "contraction", "equivalence", "tensor", "io", "forest")
REFERENCE_MS = 10.0  # the calibration loop's time on the reference host
HOST_EXPONENT = 0.75  # op time moves as (calibration time) ** HOST_EXPONENT
CALIBRATE_EVERY_S = 0.25


def calibration_ms() -> float:
    """A fixed pure-Python loop of tuple keys, dict updates and integer arithmetic."""
    start = perf_counter()
    table: dict = {}
    for i in range(25_000):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0) + i * i % 7
    return (perf_counter() - start) * 1000


def host_probe_ms() -> float:
    """Median of ten calibration loops: how fast the host runs right now."""
    return statistics.median(calibration_ms() for _ in range(10))


class HostScale:
    """How fast the host runs during a run, from calibrations taken between ops.

    A calibration follows every ``CALIBRATE_EVERY_S`` of op time.  One
    calibration is noisy, so the run's times are all scaled by one factor,
    ``(REFERENCE_MS / median calibration) ** HOST_EXPONENT``.  Op times do
    not follow the loop one for one: on a shared 2-core VM the exponent
    that left the least spread over ten seeds was about 0.5 for ``orders``,
    0.7 for ``recover`` and 0.75 to 1 for ``canon`` and ``equiv``.
    """

    def __init__(self):
        self.samples = [calibration_ms()]
        self.since = 0.0

    def after(self, seconds: float) -> None:
        """Count ``seconds`` of op time; calibrate if enough has passed.  Call between ops only."""
        self.since += seconds
        if self.since >= CALIBRATE_EVERY_S:
            self.calibrate()

    def calibrate(self) -> None:
        self.samples.append(calibration_ms())
        self.since = 0.0

    @property
    def factor(self) -> float:
        return (REFERENCE_MS / statistics.median(self.samples)) ** HOST_EXPONENT


def import_library() -> SimpleNamespace:
    """Import ``blowups`` afresh, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "blowups" or n.startswith("blowups.")]:
        del sys.modules[name]
    return SimpleNamespace(**{name: importlib.import_module(f"blowups.{name}") for name in MODULES})


def setup(workload: str, seed: int, work: str):
    """Import, generate and write the inputs ``SETUPS`` times; ``setup_s`` is the median, scaled."""
    raw, digests = [], []
    scale = HostScale()
    for k in range(SETUPS):
        start = perf_counter()
        lib = import_library()
        root = os.path.join(work, f"docs{k}")
        os.mkdir(root)
        groups, docs = workloads.build(workload, seed, root)
        raw.append(perf_counter() - start)
        scale.calibrate()
        digests.append(docs.sha.hexdigest())
        if k < SETUPS - 1:
            shutil.rmtree(root)
    deterministic = len(set(digests)) == 1
    median = statistics.median(raw)
    return lib, groups, median * scale.factor, median, deterministic, docs.count


def run_op(lib, op: workloads.Op) -> tuple[float, workloads.OpResult]:
    """Time one op in-process, capturing each call's stdout and exit code."""
    result = workloads.OpResult()
    saved = sys.stdin, sys.stdout, sys.stderr
    previous = ""
    start = perf_counter()
    try:
        for call in op.calls:
            sys.stdout = out = StringIO()
            sys.stderr = StringIO()
            feed = previous if call.pipe_in else call.stdin
            if feed is not None:
                sys.stdin = StringIO(feed)
            try:
                code = lib.cli.main(call.argv)
            except SystemExit as exc:
                code = exc.code
            previous = out.getvalue()
            result.codes.append(code)
            result.stdout.append(previous)
    except Exception:  # an op that raises is a failed op; the run goes on
        result.error = traceback.format_exc(limit=-3)
    finally:
        elapsed = perf_counter() - start
        sys.stdin, sys.stdout, sys.stderr = saved
    for path in op.files:
        if os.path.exists(path):
            with open(path, "rb") as handle:
                result.files[path] = handle.read()
    return elapsed, result


class Checker:
    """Counts failed ops; each distinct output of a group is checked once."""

    def __init__(self):
        self.verdicts: dict[bytes, list[str | None]] = {}
        self.messages: list[str] = []

    def check(self, group: workloads.Group, results: list[workloads.OpResult]) -> int:
        errors: list[str | None] = []
        for op, r in zip(group.ops, results):
            expected = [call.expect_code for call in op.calls]
            errors.append(r.error or (None if r.codes == expected else f"exit codes {r.codes}, expected {expected}"))
        if not any(errors):
            key = hashlib.sha256(
                repr((group.key, [(r.stdout, sorted(r.files.items())) for r in results])).encode()
            ).digest()
            if key not in self.verdicts:
                try:
                    self.verdicts[key] = group.check(results)
                except Exception:  # a malformed output fails every op of the group
                    self.verdicts[key] = [traceback.format_exc(limit=-2)] * len(results)
            errors = self.verdicts[key]
        for op_index, error in enumerate(errors):
            if error and len(self.messages) < 5:
                self.messages.append(f"{group.key} op {op_index}: {error}")
        return sum(1 for error in errors if error)


def bytes_out(result: workloads.OpResult) -> int:
    return sum(len(s.encode()) for s in result.stdout) + sum(len(b) for b in result.files.values())


def measure(lib, groups, seconds: float, min_ops: int, checker: Checker, tracer=None, keep: int = 0):
    """Whole passes until the ops have taken ``seconds`` and ``min_ops`` ran.

    Returns the wall-clock op times, the run's ``HostScale``, failed ops,
    passes, and for the first ``keep`` groups of the first pass each op's
    result and counters.
    """
    latencies: list[float] = []
    scale = HostScale()
    failed = passes = 0
    kept: list[tuple[workloads.OpResult, dict]] = []
    gc.collect()
    while passes == 0 or sum(latencies) < seconds or len(latencies) < min_ops:
        for index, group in enumerate(groups):
            results = []
            for op in group.ops:
                if tracer:
                    tracer.begin_op(len(latencies))
                elapsed, result = run_op(lib, op)
                counts = {}
                if tracer:
                    tracer.counts["bytes_out"] += bytes_out(result)
                    counts = dict(tracer.end_op())
                if passes == 0 and index < keep:
                    kept.append((result, counts))
                latencies.append(elapsed)
                results.append(result)
            failed += checker.check(group, results)
            scale.after(sum(latencies[-len(group.ops) :]))
        passes += 1
    return latencies, scale, failed, passes, kept


def selftest(lib, groups, kept) -> tuple[list[str], float]:
    """Re-run the kept ops untraced and traced; returns mismatches and the traced/untraced speed ratio."""
    ops = [op for group in groups for op in group.ops][: len(kept)]
    problems = []
    plain = traced = 0.0
    for n, (op, (want, _)) in enumerate(zip(ops, kept)):
        elapsed, result = run_op(lib, op)
        plain += elapsed
        if (result.codes, result.stdout, result.files) != (want.codes, want.stdout, want.files):
            problems.append(f"op {n}: untraced output differs from traced output")
    fresh = tracing.Tracer()
    tracing.instrument(fresh, lib)
    try:
        for n, (op, (_, want)) in enumerate(zip(ops, kept)):
            fresh.begin_op(n)
            elapsed, result = run_op(lib, op)
            traced += elapsed
            fresh.counts["bytes_out"] += bytes_out(result)
            if dict(fresh.end_op()) != want:
                problems.append(f"op {n}: counters differ between two traced runs")
    finally:
        fresh.uninstall()
    return problems, plain / traced


def parity(op: workloads.Op, want: workloads.OpResult) -> str | None:
    """Run one op as ``PYTHONPATH=src python -m blowups ...``; stdout and files must match."""
    env = dict(os.environ, PYTHONPATH="src")
    previous = b""
    for call, out, code in zip(op.calls, want.stdout, want.codes):
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "blowups", *call.argv],
                cwd=ROOT,
                env=env,
                input=previous if call.pipe_in else (call.stdin or "").encode(),
                capture_output=True,
                timeout=120,
            )
        except subprocess.TimeoutExpired:
            return f"subprocess `{' '.join(call.argv[:2])}` ran over 120 s"
        if proc.stdout != out.encode() or proc.returncode != code:
            return f"subprocess `{' '.join(call.argv[:2])}` differs from the in-process op"
        previous = proc.stdout
    for path in op.files:
        with open(path, "rb") as handle:
            if handle.read() != want.files.get(path):
                return f"subprocess wrote a different {os.path.basename(path)}"
    return None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "blowups", "cli.py")):
        print(f"perfbench: no blowups sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: str) -> int:
    lib, groups, setup_s, setup_raw, deterministic, documents = setup(args.workload, args.seed, work)
    checker = Checker()
    probe_before = host_probe_ms()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer, lib)
    keep = workloads.SELFTEST_GROUPS[args.workload] if args.trace else 1
    try:
        # Per-layer figures are per-op averages over whole passes, so a traced run needs no minimum.
        min_ops = 0 if tracer else MIN_OPS
        latencies, scale, failed, passes, kept = measure(lib, groups, args.seconds, min_ops, checker, tracer, keep)
    finally:
        if tracer:
            tracer.uninstall()
    problems = [] if deterministic else ["two set-ups with one seed wrote different documents"]
    if tracer:
        found, overhead = selftest(lib, groups, kept)
        problems += found
    mismatch = parity(groups[0].ops[0], kept[0][0])
    if mismatch:
        problems.append(mismatch)
    probe_after = host_probe_ms()

    ops = len(latencies)
    busy = sum(latencies)
    if tracer:
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv.gz"))
        metrics = {
            name: metric(value, tracing.LAYER_METRICS[name])
            for name, value in tracing.layer_metrics(tracer, ops).items()
        }
        metrics["trace.overhead"] = metric(overhead, "ratio")
        metrics["trace.op_ms"] = metric(busy / ops * 1000, "ms")
        metrics["host.probe_before_ms"] = metric(probe_before, "ms")
        metrics["host.probe_after_ms"] = metric(probe_after, "ms")
    else:
        scaled = [seconds * scale.factor for seconds in latencies]
        metrics = {
            "ops_per_s": metric(ops / sum(scaled), "1/s"),
            "op_p50_ms": metric(statistics.median(scaled) * 1000, "ms"),
            "op_p90_ms": metric(p90(scaled) * 1000, "ms"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    for message in checker.messages + problems:
        print(f"perfbench: FAIL {message}", file=sys.stderr)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "documents": documents,
        "groups_per_pass": len(groups),
        "passes": passes,
        "ops": ops,
        "error_rate": failed / ops,
        "host_probe_ms": [probe_before, probe_after],
        "calibration_ms": statistics.median(scale.samples),
        "wall_ops_per_s": ops / busy,
        "wall_op_p50_ms": statistics.median(latencies) * 1000,
        "wall_op_p90_ms": p90(latencies) * 1000,
        "wall_setup_s": setup_raw,
        "problems": problems,
    }
    print("perfbench: " + json.dumps(summary))
    result = {"correct": failed == 0 and not problems, "attempted": ops, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
