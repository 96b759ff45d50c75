"""Benchmark for entrobound: one workload per process, driven through the CLI.

Usage, from the repository root:

    python3 bench/run.py --workload mc-light --seed 1 --seconds 30 --trace 0

Set-up (import plus input generation) is timed in CPU time five times,
once here and four times in fresh interpreters, and reported as the
median. One warm-up op per model family runs untimed. Then the whole op list runs in as many
timed passes as fit in ``--seconds`` at the first pass's pace (at least
one). Tracing is off for ``--trace 0``. ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the traced
ones, plus the tracing overhead.

The gated times are CPU times of this process (all its threads), not
wall-clock times: on the shared host, time the virtual CPU spends
descheduled varied from 4% to 14% of a pass. With ``--trace 0`` a fixed
calibration routine, which calls no entrobound code, also runs after every
op, and the op CPU times are scaled by the host's speed during their pass
(``REFERENCE_CALIBRATION_S`` over the pass's median calibration CPU time),
so they read as CPU seconds on the reference host. The raw wall-clock and
CPU times are printed above the result line.

Outputs are checked after each op, outside its timing: each op's output
digest must match the digest recorded for this seed in
``bench/references/`` (and every pass must match the first), every
report must re-derive under ``verify_bound`` with no FAIL verdict, and
the certify ops' entropy, MGF and sample-size claims must hold. The last
stdout line is a JSON object; the exit code is 1 if any op failed or any
output check did not hold.

``--record`` runs one pass and stores this seed's digests as the
reference instead of checking against it.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 5
# Median CPU time of _calibration() on the reference host (2-vCPU Xeon VM with
# AVX-512, Python 3.11.7, numpy 2.4.6, quiet stretch). Only a scale: keep it
# fixed, or every recorded figure changes with it.
REFERENCE_CALIBRATION_S = 2.4e-3
WORKLOAD_NAMES = ("mc-light", "mc-heavy", "certify-deep")


def _setup(workload: str, seed: int, workdir: Path):
    """Import the package and build this seed's inputs; its CPU time is setup_s."""
    start = time.process_time()
    import workloads

    ops = workloads.prepare(workloads.generate(workload, seed), workdir)
    return ops, time.process_time() - start


def _probe_setup(workload: str, seed: int) -> float:
    """Time one set-up in a fresh interpreter."""
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
             "--probe-setup", tmp],
            capture_output=True, text=True, timeout=120, check=True,
        )
    return float(done.stdout.strip().splitlines()[-1])


def _calibration() -> float:
    """CPU seconds taken by a fixed mix of interpreter work and small numpy calls,
    the kind of work entrobound's ops do, with no entrobound code in it. The
    shared host's speed drifts by tens of percent over minutes, longer than a
    run; this routine's time tracks that drift."""
    import numpy as np

    start = time.process_time()
    total = 0.0
    for i in range(60):
        total += float(np.log(np.random.default_rng(i).random(200)).sum())
    table: dict[int, int] = {}
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0) + i
    return time.process_time() - start


class Pass(NamedTuple):
    wall: float  # seconds in ops
    latencies: list[float]  # per op, wall clock
    cpu: list[float]  # per op, CPU time of the process
    replicates: int
    calibrations: list[float]  # CPU seconds, one per op if calibrating


class Run:
    """Timed passes over one workload's ops, with their output checks."""

    def __init__(self, ops, workdir: Path, reference):
        import workloads

        self.w = workloads
        self.ops, self.workdir, self.reference = ops, workdir, reference
        self.first: list[str] | None = None
        self.mismatched: set[int] = set()
        self.failed = 0
        self.attempted = 0
        self.fail_verdicts = 0
        self.problems: list[str] = []
        self.errors: list[str] = []

    def warm_up(self) -> None:
        seen = set()
        for op in self.ops:
            family = op.spec.split(":")[0]
            if family not in seen:
                seen.add(family)
                self.w.execute(op, self.workdir)

    def one_pass(self, tracer=None, calibrate=False) -> Pass:
        """Run every op once, with a calibration after each if ``calibrate``."""
        latencies, cpu, outcomes, calibrations = [], [], [], []
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
            start, start_cpu = time.perf_counter(), time.process_time()
            try:
                outcome = self.w.execute(op, self.workdir)
            except Exception as exc:  # an op that raises counts as failed, run continues
                outcome = self.w.Outcome(-1, b"", f"{type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - start)
            cpu.append(time.process_time() - start_cpu)
            outcomes.append(outcome)
            if calibrate:
                calibrations.append(_calibration())
        self._account(outcomes)
        replicates = sum(o.replicates for o in outcomes if o.code == 0)
        return Pass(sum(latencies), latencies, cpu, replicates, calibrations)

    def _account(self, outcomes) -> None:
        digests = [self.w.digest(o.output) for o in outcomes]
        checking = self.first is None
        if checking:
            self.first = digests
        for i, (op, outcome, d) in enumerate(zip(self.ops, outcomes, digests)):
            self.attempted += 1
            if outcome.code != 0:
                self.failed += 1
                self.errors.append(f"{op.spec}: exit {outcome.code}: {outcome.error}")
                continue
            expected = self.first[i]
            if self.reference is not None:
                expected = self.reference[i] if i < len(self.reference) else None
            if d != expected or d != self.first[i]:
                self.mismatched.add(i)
            if checking:
                verdicts, problems = self.w.check(op, outcome)
                self.fail_verdicts += verdicts
                self.problems += problems

    @property
    def correct(self) -> bool:
        return not (self.mismatched or self.fail_verdicts or self.problems or self.failed)


def _passes(seconds: float, body) -> list:
    """Call ``body`` as many times as fit in ``seconds`` by the first call's
    duration, at least once; a fixed count keeps runs alike."""
    start = time.perf_counter()
    results = [body()]
    count = max(1, round(seconds / (time.perf_counter() - start)))
    return results + [body() for _ in range(count - 1)]


def _quantile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _end_to_end(run: Run, seconds: float) -> tuple[dict, list[str]]:
    results = _passes(seconds, lambda: run.one_pass(calibrate=True))
    # Each op's median over passes damps bursts that hit one pass only; the
    # scaled CPU times also take out the host's drift from pass to pass.
    scales = [REFERENCE_CALIBRATION_S / statistics.median(r.calibrations) for r in results]
    n = len(run.ops)
    per_op = [statistics.median(r.cpu[i] * k for r, k in zip(results, scales)) for i in range(n)]
    cpu = [statistics.median(r.cpu[i] for r in results) for i in range(n)]
    wall = [statistics.median(r.latencies[i] for r in results) for i in range(n)]
    replicates = results[0].replicates
    metrics = {
        "cpu_ref_s": (sum(per_op), "s"),
        "op_cpu_p50_ref_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_cpu_p90_ref_ms": (_quantile(per_op, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    rate = f"{replicates / sum(wall):.6g}" if replicates else "n/a (no replicates in this workload)"
    notes = [
        f"{len(results)} timed passes of {n} ops; each op's time is its median over passes; "
        f"totals sum them and the percentiles are over the {n} ops",
        f"host speed against the reference: {statistics.median(scales):.4g} "
        f"(passes {min(scales):.4g} to {max(scales):.4g})",
        f"raw CPU: cpu_s {sum(cpu):.6g} s, op_cpu_p50_ms {statistics.median(cpu) * 1e3:.6g} ms, "
        f"op_cpu_p90_ms {_quantile(cpu, 0.9) * 1e3:.6g} ms",
        f"raw wall clock: wall_s {sum(wall):.6g} s, op_p50_ms {statistics.median(wall) * 1e3:.6g} ms, "
        f"op_p90_ms {_quantile(wall, 0.9) * 1e3:.6g} ms",
        f"replicates_per_s (wall clock): {rate}",
    ]
    return metrics, notes


def _per_layer(run: Run, seconds: float, span_file: Path) -> tuple[dict, list[str]]:
    import numpy as np
    import tracing

    tracer = tracing.Tracer()
    plain, traced, layers, counts_seen = [], [], [], []

    def pair():
        plain.append(run.one_pass().wall)
        uninstall = tracing.install(tracer)
        try:
            wall = run.one_pass(tracer).wall
        finally:
            uninstall()
        spans, counts = tracer.take()
        traced.append(wall)
        counts_seen.append(counts)
        layers.append(_layer_seconds(tracer, spans))
        return spans

    spans = _passes(seconds, pair)[-1]
    if any(c != counts_seen[0] for c in counts_seen):
        run.problems.append(f"work counts differ between traced passes: {counts_seen}")
    counts = counts_seen[0]
    metrics = {name: (statistics.median(l[name] for l in layers), "s") for name in layers[0]}
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    metrics["distributions.cdf_bytes_computed"] = (8 * counts.get("distributions.cdf_entries", 0), "B")
    base, slow = statistics.median(plain), statistics.median(traced)
    metrics["trace.untraced_wall_s"] = (base, "s")
    metrics["trace.traced_wall_s"] = (slow, "s")
    metrics["trace.overhead_s"] = (slow - base, "s")
    metrics["trace.overhead_pct"] = (100.0 * (slow - base) / base, "%")
    np.savez(span_file, spans=spans, names=np.array(tracer.names))
    notes = [
        f"{len(traced)} traced and {len(plain)} untraced passes of {len(run.ops)} ops",
        f"spans of the last traced pass written to {span_file.relative_to(ROOT)}",
    ]
    return metrics, notes


BUSY = (
    "montecarlo.replicate_means", "montecarlo.seed", "montecarlo.report",
    "distributions.draw", "distributions.cdf_extend", "distributions.log_pmf_array",
    "summation.indexed_chunk_sum", "certify.ratio", "certify.powerlaw",
    "certify.entropy_interval", "bounds.mgf_exact", "bounds.select_r", "bounds.inversions",
    "cli.parse_model_spec",
)
SELF = ("montecarlo.estimate", "cli.main")
COUNTS = (
    "montecarlo.replicates", "distributions.draws", "distributions.cdf_entries",
    "distributions.log_pmf_array.calls", "distributions.log_pmf_array.terms",
    "summation.terms", "certify.ratio.scan_steps", "certify.powerlaw.terms",
    "bounds.select_r.certifications",
)


def _layer_seconds(tracer, spans) -> dict:
    import tracing

    out = {f"{n}.s": tracing.busy_seconds(tracer, spans, n) for n in BUSY}
    out.update({f"{n}.self_s": tracing.self_seconds(tracer, spans, n) for n in SELF})
    return out


def _load_reference(workload: str, seed: int):
    path = BENCH / "references" / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def _record(workload: str, seed: int, digests: list[str]) -> Path:
    path = BENCH / "references" / f"{workload}.json"
    payload = json.loads(path.read_text()) if path.is_file() else {"workload": workload, "seeds": {}}
    payload["seeds"][str(seed)] = digests
    payload["seeds"] = dict(sorted(payload["seeds"].items(), key=lambda kv: int(kv[0])))
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="store this seed's output digests")
    parser.add_argument("--probe-setup", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "entrobound" / "__init__.py").is_file():
        print(f"error: no entrobound sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.probe_setup:
        print(_setup(args.workload, args.seed, Path(args.probe_setup))[1])
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-"))
    try:
        ops, first_setup = _setup(args.workload, args.seed, workdir)
        import entrobound

        if Path(entrobound.__file__).resolve().parent != (SRC / "entrobound").resolve():
            print(f"error: imported entrobound from {entrobound.__file__}", file=sys.stderr)
            return 2
        reference = None if args.record else _load_reference(args.workload, args.seed)
        run = Run(ops, workdir, reference)
        if args.record:
            run.one_pass()
            if not run.correct:
                print("\n".join(run.errors + run.problems), file=sys.stderr)
                return 1
            print(f"recorded {len(run.first)} digests in {_record(args.workload, args.seed, run.first)}")
            return 0
        setups = [first_setup] + [_probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        run.warm_up()
        if args.trace:
            metrics, notes = _per_layer(run, args.seconds, WORK / f"trace-{args.workload}.npz")
            wanted = spec["per_layer"]
        else:
            metrics, notes = _end_to_end(run, args.seconds)
            metrics["setup_s"] = (statistics.median(setups), "s")
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    error_rate = run.failed / run.attempted
    notes += [
        f"error_rate: {error_rate:.6g} ({run.failed} of {run.attempted} op runs failed)",
        f"output_mismatch: {len(run.mismatched)} ops (reference digests "
        f"{'recorded' if reference is not None else 'absent for this seed; passes compared with each other'})",
        f"fail_verdicts: {run.fail_verdicts}",
    ]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:40s} {value:14.6g} {unit}")
    for line in notes + run.errors[:10] + run.problems[:10]:
        print(f"  {line}")
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
