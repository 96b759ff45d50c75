"""Workload inputs, operations and output checks for the entrobound benchmark.

Every model parameter comes from the workload seed. Each range is split
into one stratum per op and each op draws inside its own stratum, with
parameters of one op paired by a fixed pattern of strata, so each seed
gets a different op list with the same spread of work. Plain uniform
draws let one extreme op (a tiny geometric p at slack 1e-6, a zeta near
alpha = 2.5 at a small slack) swing a whole run.

Workloads:

- ``mc-light``: ``simulate`` through ``cli.main`` on light-tailed,
  ratio-certified models. The replicate loop (seeding, ``draw``, a
  200-term ``log_pmf_array``) is most of each op, the inverse-CDF cache
  stays small and certification takes milliseconds.
- ``mc-heavy``: ``sweep`` through ``cli.main``, one zeta config file per
  op, so every op parses a fresh model and rebuilds an inverse-CDF cache
  of 10^4 to a few 10^6 entries. alpha stays at or above 2.1: the cache
  must cover the largest of an op's 400k uniforms, and below 2.1 that
  occasionally needs 10^7 to 10^8 entries (GBs, or the 2^27-entry cap
  raises), which makes a run's time and memory depend on one draw.
  Each config fixes r = 0.15 so the radii (0.05, 0.1, 0.2) can be small
  enough that hit counts are not all zero, which the output check needs
  to see the sampler, while the entropy cut at the tolerance those radii
  imply stays cheap.
- ``certify-deep``: certify, bound and samplesize through ``cli.main``,
  then ``entropy_interval`` and ``mgf_exact`` on a 9-point lambda grid,
  plus ``select_r`` for poisson and negbinomial. No sampling. Zeta slack
  stops at 1e-5: Zeta(2.5) at slack 1e-6 sums 10^8 terms in one op.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from entrobound import bounds, certify, cli, montecarlo

WORKLOADS = ("mc-light", "mc-heavy", "certify-deep")

# A seed no tuning of the benchmark used; re-check gains on it.
HELD_OUT_SEED = 90210

MC_LIGHT_EPS = "0.2,0.4,0.8"
MC_HEAVY_EPS = [0.05, 0.1, 0.2]
ENTROPY_TOL = 1e-4
MGF_TOL = 1e-4
MGF_GRID = np.linspace(-0.8, 0.8, 9)  # multiples of the certificate's r
STRATUM_JITTER = 0.25


@dataclass(frozen=True)
class Op:
    """One benchmark operation: what a user would run for one model."""

    kind: str  # "simulate", "sweep" or "certify"
    spec: str
    seed: int = 0
    slack: str = ""
    config: str = ""  # sweep config path, written at set-up


@dataclass
class Outcome:
    code: int
    output: bytes
    error: str = ""
    replicates: int = 0
    values: dict = field(default_factory=dict)


def _strata(rng: np.random.Generator, count: int, lo: float, hi: float, log: bool = False,
            step: int = 1):
    """One draw per equal-width stratum of [lo, hi]. Draw i lies in stratum
    (i * step) mod count, so two ranges paired with different ``step``s cover
    the same grid of cells for every seed; only the jitter inside each
    stratum, the op seeds and the op order change with the seed. The jitter
    stays within the middle STRATUM_JITTER of the stratum: with jitter over
    the whole stratum, the ops near certify-deep's median and 90th
    percentile moved those percentiles by 7-8% from seed to seed."""
    u = [((i * step) % count + 0.5 + STRATUM_JITTER * (x - 0.5)) / count
         for i, x in enumerate(rng.random(count))]
    if log:
        return [10 ** (math.log10(lo) + x * (math.log10(hi) - math.log10(lo))) for x in u]
    return [lo + x * (hi - lo) for x in u]


def _g(x: float) -> str:
    return f"{x:.4g}"


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31, size=count)]


def generate(workload: str, seed: int) -> list[Op]:
    """The workload's op list for ``seed``; the same seed gives the same list."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))
    if workload == "mc-light":
        m = 40
        specs = [f"geometric:{_g(p)}" for p in _strata(rng, m, 0.3, 0.7)]
        specs += [f"poisson:{_g(x)}" for x in _strata(rng, m, 0.5, 4.0)]
        specs += [
            f"negbinomial:{_g(a)},{_g(b)}"
            for a, b in zip(_strata(rng, m, 1.0, 5.0), _strata(rng, m, 0.2, 0.6, step=3))
        ]
        ops = [Op("simulate", s, seed=x) for s, x in zip(specs, _seeds(rng, len(specs)))]
    elif workload == "mc-heavy":
        m = 100
        specs = [f"zeta:{_g(a)}" for a in _strata(rng, m, 2.1, 2.5)]
        ops = [Op("sweep", s, seed=x) for s, x in zip(specs, _seeds(rng, m))]
    elif workload == "certify-deep":
        m = 25
        specs = [f"geometric:{_g(p)}" for p in _strata(rng, m, 1e-3, 10**-1.5, log=True)]
        specs += [f"poisson:{_g(x)}" for x in _strata(rng, m, 1.0, 30.0)]
        specs += [
            f"negbinomial:{_g(a)},{_g(b)}"
            for a, b in zip(_strata(rng, m, 1.0, 5.0), _strata(rng, m, 0.2, 0.8, step=7))
        ]
        specs += [f"zeta:{_g(a)}" for a in _strata(rng, m, 2.5, 4.0)]
        slacks = [x for _ in range(3) for x in _strata(rng, m, 1e-6, 1e-3, log=True, step=11)]
        slacks += _strata(rng, m, 1e-5, 1e-3, log=True, step=11)
        ops = [Op("certify", s, slack=f"{x:.3g}") for s, x in zip(specs, slacks)]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return [ops[i] for i in rng.permutation(len(ops))]


def prepare(ops: list[Op], workdir: Path) -> list[Op]:
    """Write the files the ops read (one sweep config per op)."""
    prepared = []
    for i, op in enumerate(ops):
        if op.kind == "sweep":
            path = workdir / f"sweep-{i:03d}.json"
            entry = {
                "model": op.spec,
                "n": 2000,
                "eps": MC_HEAVY_EPS,
                "replicates": 200,
                "seed": op.seed,
                "r": 0.15,
                "slack": 1e-2,
            }
            path.write_text(json.dumps([entry]))
            op = Op(op.kind, op.spec, seed=op.seed, config=str(path))
        prepared.append(op)
    return prepared


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def execute(op: Op, workdir: Path) -> Outcome:
    """Run one op the way a user would. Library errors surface as exit codes."""
    if op.kind == "simulate":
        argv = [
            "simulate", op.spec, "--n", "200", "--eps", MC_LIGHT_EPS,
            "--replicates", "1000", "--seed", str(op.seed), "--workers", "1",
            "--format", "csv",
        ]
        code, out, err = _cli(argv)
        return Outcome(code, out.encode(), err.strip(), replicates=1000)
    if op.kind == "sweep":
        code, out, err = _cli(["sweep", "--config", op.config, "--workers", "1", "--format", "csv"])
        return Outcome(code, out.encode(), err.strip(), replicates=200)
    return _execute_certify(op, workdir)


def _execute_certify(op: Op, workdir: Path) -> Outcome:
    cert_path = str(workdir / "cert.json")
    pieces: list[str] = []
    for argv in (
        ["certify", op.spec, "--slack", op.slack, "--out", cert_path, "--format", "json"],
        ["bound", "--cert", cert_path, "--n", "1000", "--eps", "0.05,0.1,0.2,0.5", "--format", "csv"],
        ["samplesize", "--cert", cert_path, "--eps", "0.1", "--delta", "0.05", "--format", "json"],
    ):
        code, out, err = _cli(argv)
        if code != 0:
            return Outcome(code, "".join(pieces).encode(), err.strip())
        pieces.append(out)
    cert_text = Path(cert_path).read_text()
    model = cli.parse_model_spec(op.spec)
    cert = certify.MomentCertificate.from_dict(json.loads(cert_text))
    entropy = certify.entropy_interval(model, cert, ENTROPY_TOL)
    lams = [float(x * cert.r) for x in MGF_GRID]
    mgf = [bounds.mgf_exact(model, cert, entropy, lam, tol=MGF_TOL) for lam in lams]
    chosen_r = None
    if op.spec.startswith(("poisson", "negbinomial")):
        chosen_r = bounds.select_r(model, eps=float(op.slack), target_eps=0.2)
    pieces += [cert_text, repr((entropy.lower, entropy.upper)), repr(mgf), repr(chosen_r)]
    values = {
        "cert": cert,
        "entropy": entropy,
        "lams": lams,
        "mgf": mgf,
        "samplesize": json.loads(pieces[2]),
        "chosen_r": chosen_r,
    }
    return Outcome(0, "\n--\n".join(pieces).encode(), values=values)


def digest(output: bytes) -> str:
    return hashlib.sha256(output).hexdigest()[:16]


def check(op: Op, outcome: Outcome) -> tuple[int, list[str]]:
    """Re-derive what an op's output claims. Returns (FAIL verdicts, problems)."""
    if op.kind == "certify":
        return 0, _check_certify(op, outcome.values)
    rows = list(csv.reader(io.StringIO(outcome.output.decode())))
    if not rows or rows[0] != montecarlo.CSV_COLUMNS:
        return 0, [f"{op.spec}: CSV header is {rows[:1]!r}"]
    records = [dict(zip(rows[0], row)) for row in rows[1:]]
    want = len(MC_HEAVY_EPS) if op.kind == "sweep" else len(MC_LIGHT_EPS.split(","))
    if len(records) != want:
        return 0, [f"{op.spec}: {len(records)} CSV rows, expected {want}"]
    head = records[0]
    report = montecarlo.SimulationReport(
        model=head["model"],
        n=int(head["n"]),
        replicates=int(head["replicates"]),
        seed=int(head["seed"]),
        certificate=certify.MomentCertificate(
            r=float(head["r"]),
            C_r=float(head["C_r"]),
            slack=float(head["slack"]),
            truncation_index=0,
            provenance="ratio",
        ),
        entropy=certify.EntropyInterval(0.0, 0.0, 0.0),
        records=tuple(
            montecarlo.EpsRecord(
                eps=float(r["eps"]),
                hit_count=int(r["hit_count"]),
                frequency=float(r["frequency"]),
                stderr=float(r["stderr"]),
                bound_value=float(r["bound_value"]),
                verdict=r["verdict"],
            )
            for r in records
        ),
        elapsed=0.0,
    )
    try:
        tally = montecarlo.verify_bound(report)
    except montecarlo.ReportIntegrityError as exc:
        return 0, [f"{op.spec}: {exc}"]
    return tally["FAIL"], []


def _check_certify(op: Op, values: dict) -> list[str]:
    problems = []
    cert, entropy = values["cert"], values["entropy"]
    if not entropy.upper - entropy.lower <= ENTROPY_TOL:
        problems.append(f"{op.spec}: entropy interval wider than {ENTROPY_TOL:g}")
    if not entropy.lower <= certify.entropy_upper_coarse(cert):
        problems.append(f"{op.spec}: entropy lower end above the coarse cap C_r/(e r)")
    for lam, (lo, hi) in zip(values["lams"], values["mgf"]):
        envelope = math.exp(bounds.mgf_log_bound(cert, lam))
        if not (lo <= hi and hi - lo <= MGF_TOL and lo <= envelope * (1 + 1e-12)):
            problems.append(f"{op.spec}: MGF [{lo!r}, {hi!r}] at lambda={lam!r} vs envelope {envelope!r}")
    constants = bounds.bernstein_constants(cert)
    size = values["samplesize"]
    n = size["n"]
    if not bounds.deviation_bound(constants, n, size["eps"]) <= size["delta"]:
        problems.append(f"{op.spec}: samplesize n={n} misses its failure budget")
    if n > 1 and bounds.deviation_bound(constants, n - 1, size["eps"]) <= size["delta"]:
        problems.append(f"{op.spec}: samplesize n={n} is not the smallest")
    chosen = values["chosen_r"]
    if chosen is not None and not 0.0 < chosen < 1.0:
        problems.append(f"{op.spec}: select_r gave r={chosen!r}")
    return problems
