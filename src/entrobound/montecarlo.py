"""Seeded Monte Carlo validation of the certified deviation bounds.

A simulation estimates, for each requested radius eps, how often the
empirical mean log-likelihood of n fresh draws lands at least eps away
from its expectation. The expectation is unknown in closed form, so runs
centre on the midpoint of a certified entropy interval whose width is
forced far below every radius of interest.

Reproducibility contract: replicate i draws from a generator seeded by
(seed, i) through numpy's SeedSequence spawn mechanism, so results do
not depend on scheduling, worker count, or chunk boundaries. Identical
(config, certificate) inputs give bit-identical reports.

The replicate engine derives those streams a seeding block of replicates
at a time: numpy's SeedSequence mixes the seed into its entropy pool, and
the replay starts at the spawn key. The spawn keys, the output words and
PCG64's 128-bit seeding step run on uint32 and uint64 arrays, the 128-bit
products on 64-bit (high, low) halves. It loads each replicate's state by
writing the four uint64 words of PCG64's ``state`` and ``inc`` straight
into one generator, where numpy's layout passes a check made once per
process: one replicate loaded so must match ``_replicate_rng``'s public
``state``. Elsewhere the ``state`` setter loads them. It then fills and
scores each block in cache-sized tiles, into buffers allocated once per
call and reused by every tile. Each tile grows the model's inverse-CDF
cache once, as far as its largest uniform needs, and is scored through the
cache's guide: one gather of a log-mass per draw from a table of one
log-mass per bucket of [0, 1), and a binary search only for the few draws
in buckets that a CDF entry splits. Every stream stays identical to the
one ``_replicate_rng(seed, i)`` builds, draw for draw, every score is the
log-mass of the outcome a binary search of the CDF selects, and each
replicate's mean is taken over its own row, as ``np.mean`` takes it, so
neither blocks, tiles nor the guide change any report.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import operator
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .bounds import BernsteinConstants, bernstein_constants, deviation_bound
from .certify import DEFAULT_SLACK, EntropyInterval, MomentCertificate, certify_moment, entropy_interval
from .distributions import PmfModel, _LookupBuffers, json_float
from .errors import ReportIntegrityError, ResourceCapError, SweepAborted

__all__ = [
    "DEFAULT_REPLICATES",
    "SimulationConfig",
    "EpsRecord",
    "SimulationReport",
    "replicate_log_likelihood_means",
    "estimate_deviation_probability",
    "estimate_mgf",
    "sweep",
    "verify_bound",
    "reports_to_csv",
    "reports_to_json",
]

DEFAULT_REPLICATES = 10_000

CSV_COLUMNS = [
    "model",
    "n",
    "replicates",
    "seed",
    "r",
    "C_r",
    "slack",
    "eps",
    "hit_count",
    "frequency",
    "stderr",
    "bound_value",
    "verdict",
]


@dataclass(frozen=True)
class SimulationConfig:
    """One simulation: a model, a sample size, and the radii to probe.

    ``entropy_tolerance`` defaults to min(eps) / 100 and may only be
    tightened; centring error must stay negligible next to every radius.
    """

    model: PmfModel
    n: int
    eps: tuple[float, ...]
    replicates: int = DEFAULT_REPLICATES
    seed: int = 0
    entropy_tolerance: float | None = None

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        eps = self.eps
        malformed = f"eps must be a number or a list of deviation radii, got {eps!r}"
        # a string is iterable, but its characters are not radii
        if isinstance(eps, str):
            raise ValueError(malformed)
        try:
            eps = tuple(json_float(e, "eps") for e in ((eps,) if isinstance(eps, (int, float)) else eps))
        except TypeError:
            raise ValueError(malformed) from None
        if not eps:
            raise ValueError("at least one deviation radius is required")
        if any(not (e > 0 and math.isfinite(e)) for e in eps):
            raise ValueError(f"deviation radii must be positive and finite, got {eps!r}")
        object.__setattr__(self, "eps", eps)
        if not (isinstance(self.replicates, int) and self.replicates >= 100):
            raise ValueError(f"replicates must be an integer >= 100, got {self.replicates!r}")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        cap = min(eps) / 100.0
        tol = self.entropy_tolerance
        if tol is None:
            tol = cap
        if not (0.0 < tol <= cap):
            raise ValueError(
                f"entropy_tolerance must lie in (0, {cap:g}] so centring error is "
                f"negligible at every radius, got {tol!r}"
            )
        object.__setattr__(self, "entropy_tolerance", float(tol))


@dataclass(frozen=True)
class EpsRecord:
    eps: float
    hit_count: int
    frequency: float
    stderr: float
    bound_value: float
    verdict: str


@dataclass(frozen=True)
class SimulationReport:
    model: str
    n: int
    replicates: int
    seed: int
    certificate: MomentCertificate
    entropy: EntropyInterval
    records: tuple[EpsRecord, ...]
    elapsed: float = field(compare=False)


def _replicate_rng(seed: int, index: int) -> np.random.Generator:
    # Equivalent to SeedSequence(seed).spawn(...)[index]; spelling it out
    # lets workers reconstruct any replicate's stream independently.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


# Constants of numpy's SeedSequence (numpy/random/bit_generator.pyx) and of
# its PCG64 (the default 128-bit LCG multiplier). numpy mixes the seed into
# the pool; _spawn_states replays the rest, on uint32 and uint64 arrays, one
# replicate per column.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# The replicate engine derives generator states for a seeding block of
# about _BLOCK_DRAWS draws at once, which spreads the fixed cost of each
# vectorised seeding step, and fills and scores each block a tile of about
# _TILE_DRAWS draws at a time, so the uniforms and the lookup's buffers
# (256 KiB each) stay in a core's L2 cache. Blocks and tiles hold whole
# replicates: a replicate longer than either is one of its own.
_BLOCK_DRAWS = 2**20
_TILE_DRAWS = 2**15

# Caps on one simulation, checked before anything is allocated: a replicate
# of _MAX_DRAWS draws keeps its row of uniforms and each lookup buffer
# at 128 MiB, and _MAX_REPLICATES means take 1 GiB.
_MAX_DRAWS = 2**24
_MAX_REPLICATES = 2**27


def _hashmix(values: np.ndarray, count: int, init: int, mult: int, step: int) -> np.ndarray:
    """SeedSequence's hashmix as one (count, R) uint32 array, hash step
    ``step + j`` on row j of ``values``, which is (count, R) or a broadcast
    (R,). The hash constant at step i is ``init * mult**i mod 2**32``, so
    any step can start without replaying those before it."""
    consts = [init * pow(mult, j, 2**32) & _MASK32 for j in range(step, step + count + 1)]
    steps = np.array(consts, dtype=np.uint32)[:, None]
    mixed = values ^ steps[:-1]
    mixed *= steps[1:]
    mixed ^= mixed >> np.uint32(16)
    return mixed


def _absorb(pool: np.ndarray, word: np.ndarray, step: int) -> np.ndarray:
    """Mix one spawn-key word per index into each of the four pool words,
    from hash step ``step``: ``pool`` is (4, 1) or (4, R) uint32 and
    ``word`` is (R,) uint32."""
    hashed = _hashmix(word, _POOL_SIZE, _INIT_A, _MULT_A, step)
    mixed = np.uint32(_MIX_MULT_L) * pool - np.uint32(_MIX_MULT_R) * hashed
    mixed ^= mixed >> np.uint32(16)
    return mixed


_LOW32 = np.uint64(_MASK32)
_SHIFT32 = np.uint64(32)


def _mulhi64(x: np.ndarray, c: int) -> np.ndarray:
    """High 64 bits of ``x * c`` for a uint64 array ``x`` and a 64-bit int
    ``c``, from four 32x32-bit partial products."""
    x0, x1 = x & _LOW32, x >> _SHIFT32
    c0, c1 = np.uint64(c & _MASK32), np.uint64(c >> 32)
    low, cross, other = x0 * c0, x0 * c1, x1 * c0
    carry = (low >> _SHIFT32) + (cross & _LOW32) + (other & _LOW32)
    return x1 * c1 + (cross >> _SHIFT32) + (other >> _SHIFT32) + (carry >> _SHIFT32)


def _spawn_states(seed: int, indices: np.ndarray) -> np.ndarray:
    """PCG64 ``state`` and ``inc`` of ``_replicate_rng(seed, i)`` for each index,
    one row ``[state_lo, state_hi, inc_lo, inc_hi]`` of uint64 words per index.

    Starts from the pool of ``SeedSequence(seed)``, which numpy has mixed
    from the seed's words, and replays the rest on arrays, one column per
    index: absorbing the spawn key ``(i,)``, ``generate_state(4, uint64)``
    and PCG64's seeding step.
    """
    seed = operator.index(seed)
    pool = np.random.SeedSequence(seed).pool
    # Mixing a seed of w words took 16 + 4 * max(0, w - 4) hash steps: one
    # per pool word, one per ordered pair of pool words, and four for each
    # word past the pool. The spawn key's steps carry on from there.
    words = max(1, -(-seed.bit_length() // 32))
    steps = 16 + _POOL_SIZE * max(0, words - _POOL_SIZE)

    indices = np.asarray(indices, dtype=np.uint64)
    mixed = _absorb(pool[:, None], indices.astype(np.uint32), steps)
    high = np.flatnonzero(indices >> _SHIFT32)
    if high.size:
        # Indices of 2**32 and beyond carry a second spawn-key word.
        second = (indices[high] >> _SHIFT32).astype(np.uint32)
        mixed[:, high] = _absorb(mixed[:, high], second, steps + _POOL_SIZE)

    # generate_state(4, uint64) cycles through the pool twice; each uint64
    # is two little-endian uint32 words, giving the seed and the increment
    # as (high, low) pairs.
    w = _hashmix(mixed[[0, 1, 2, 3, 0, 1, 2, 3]], 8, _INIT_B, _MULT_B, 0).astype(np.uint64)
    seed_hi, seed_lo, seq_hi, seq_lo = w[0::2] | w[1::2] << _SHIFT32
    # PCG64 seeding: inc = seq << 1 | 1, state = (inc + seed) * MULT + inc,
    # mod 2**128 on (high, low) halves; uint64 arithmetic wraps mod 2**64.
    inc_lo = seq_lo << np.uint64(1) | np.uint64(1)
    inc_hi = seq_hi << np.uint64(1) | seq_lo >> np.uint64(63)
    sum_lo = inc_lo + seed_lo
    sum_hi = inc_hi + seed_hi + (sum_lo < inc_lo)
    mult_lo, mult_hi = _PCG64_MULT & (2**64 - 1), _PCG64_MULT >> 64
    state_lo = sum_lo * np.uint64(mult_lo) + inc_lo
    state_hi = (
        _mulhi64(sum_lo, mult_lo)
        + sum_lo * np.uint64(mult_hi)
        + sum_hi * np.uint64(mult_lo)
        + inc_hi
        + (state_lo < inc_lo)
    )
    return np.stack([state_lo, state_hi, inc_lo, inc_hi], axis=1)


def _struct_words(bit_generator: np.random.PCG64) -> np.ndarray | None:
    """A writable uint64 view of the first four words of the generator's
    ``pcg64_random_t``, valid while ``bit_generator`` lives, or None where
    ctypes cannot reach it.

    ``ctypes.state_address`` points at numpy's ``pcg64_state``, whose first
    field points at the ``pcg64_random_t``: two ``pcg128_t``, native
    ``__uint128_t`` where the compiler has one and a ``{high, low}`` struct
    elsewhere.
    """
    try:
        import ctypes
    except ImportError:  # a Python built without _ctypes
        return None
    address = ctypes.c_void_p.from_address(bit_generator.ctypes.state_address).value
    if not address:
        return None
    return np.frombuffer((ctypes.c_uint64 * 4).from_address(address), dtype=np.uint64)


@functools.cache
def _layout_holds() -> bool:
    """Whether a ``_spawn_states`` row written through ``_struct_words``
    loads the state ``_replicate_rng`` builds. numpy's build fixes the
    layout for every generator, so one replicate checks it once per
    process: its seed has several words and its spawn key two."""
    seed, index = 2**128 + 3, 2**32 + 7
    bit_generator = np.random.PCG64(0)
    view = _struct_words(bit_generator)
    if view is None:
        return False
    view[:] = _spawn_states(seed, np.array([index]))[0]
    return bit_generator.state == _replicate_rng(seed, index).bit_generator.state


def _state_words(bit_generator: np.random.PCG64) -> np.ndarray | None:
    """A writable uint64 view ``[state_lo, state_hi, inc_lo, inc_hi]`` of the
    generator's 128-bit ``state`` and ``inc``, valid while ``bit_generator``
    lives, or None where numpy's private layout is not that."""
    return _struct_words(bit_generator) if _layout_holds() else None


class _StateSetter:
    """Loads ``view[:] = words`` through the public ``state`` setter, for
    builds whose PCG64 layout fails the check in ``_layout_holds``."""

    def __init__(self, bit_generator: np.random.PCG64):
        self._bit_generator = bit_generator
        self._loaded = bit_generator.state

    def __setitem__(self, key: slice, words: np.ndarray) -> None:
        state_lo, state_hi, inc_lo, inc_hi = words.tolist()
        self._loaded["state"] = {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo}
        self._bit_generator.state = self._loaded


def _means_range(model: PmfModel, n: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """Mean log-likelihood of replicates lo..hi-1.

    Generator states are derived a seeding block at a time, and each
    block is filled, scored and averaged a scoring tile at a time, in
    tile-sized buffers allocated once per call, so they stay in cache and
    no tile allocates. Each row of a tile is filled from one
    generator reloaded with that replicate's ``_replicate_rng`` state, so
    the uniforms, and hence the means, are exactly those of drawing each
    replicate on its own.
    """
    out = np.empty(hi - lo, dtype=np.float64)
    rows = max(1, _BLOCK_DRAWS // n)
    tile = max(1, _TILE_DRAWS // n)
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    view = _state_words(bit_generator)
    if view is None:
        view = _StateSetter(bit_generator)
    uniforms = np.empty((min(tile, hi - lo), n), dtype=np.float64)
    work = _LookupBuffers(uniforms.size)
    for start in range(lo, hi, rows):
        stop = min(start + rows, hi)
        states = iter(_spawn_states(seed, np.arange(start, stop)))
        for first in range(start, stop, tile):
            block = uniforms[: min(tile, stop - first)]
            # zip takes a row before a state, so the block's states carry on
            # from one tile to the next
            for row, words in zip(block, states):
                view[:] = words
                generator.random(out=row)
            scores = model._lookup(block).scores(block, work)
            # np.mean's own steps, into the output
            means = out[first - lo : first - lo + len(block)]
            np.add.reduce(scores, axis=1, out=means)
            np.divide(means, n, out=means)
    return out


def replicate_log_likelihood_means(
    model: PmfModel, n: int, replicates: int, seed: int, workers: int = 1
) -> np.ndarray:
    """Mean log-likelihood of n draws, per replicate, assembled by index.

    The result is a pure function of (model, n, replicates, seed), where
    ``seed`` is an integer >= 0; ``workers`` only changes how the work is
    scheduled.
    """
    # The seed is checked as every replicate's stream checks it, before any
    # runs, so a bad seed fails alike with 0 replicates and with many.
    np.random.SeedSequence(operator.index(seed))
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if not (isinstance(replicates, int) and replicates >= 0):
        raise ValueError(f"replicates must be an integer >= 0, got {replicates!r}")
    if n > _MAX_DRAWS:
        raise ResourceCapError(f"n = {n} draws per replicate exceeds the cap of {_MAX_DRAWS}")
    if replicates > _MAX_REPLICATES:
        raise ResourceCapError(f"replicates = {replicates} exceeds the cap of {_MAX_REPLICATES}")
    if workers <= 1 or replicates < 2 * workers:
        return _means_range(model, n, seed, 0, replicates)
    from concurrent.futures import ProcessPoolExecutor

    edges = np.linspace(0, replicates, workers + 1, dtype=int)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(
            _means_range,
            [model] * workers,
            [n] * workers,
            [seed] * workers,
            edges[:-1].tolist(),
            edges[1:].tolist(),
        )
        return np.concatenate(list(parts))


def _stderr(hit_count: int, replicates: int) -> float:
    if hit_count >= 5:
        f = hit_count / replicates
        return math.sqrt(f * (1.0 - f) / replicates)
    # Wilson-adjusted at one standard normal unit; never collapses to
    # zero width when no replicate hits.
    centre = (hit_count + 0.5) / (replicates + 1.0)
    return math.sqrt(centre * (1.0 - centre) / (replicates + 1.0))


def _verdict(frequency: float, stderr: float, bound_value: float) -> str:
    if bound_value >= 1.0:
        return "VACUOUS"
    if frequency - 3.0 * stderr > bound_value:
        return "FAIL"
    return "PASS"


def _record(
    eps: float, hits: int, replicates: int, n: int, constants: BernsteinConstants
) -> EpsRecord:
    """The record of radius ``eps`` that ``hits`` of ``replicates`` reached."""
    frequency = hits / replicates
    stderr = _stderr(hits, replicates)
    bound_value = deviation_bound(constants, n, eps)
    verdict = _verdict(frequency, stderr, bound_value)
    return EpsRecord(eps, hits, frequency, stderr, bound_value, verdict)


def estimate_deviation_probability(
    config: SimulationConfig,
    certificate: MomentCertificate | None = None,
    workers: int = 1,
) -> SimulationReport:
    """Run one simulation and compare hit frequencies against the bound.

    A certificate may be supplied to control the moment order and slack;
    otherwise the model is certified with the default rule and slack.
    """
    start = time.perf_counter()
    model = config.model
    if certificate is None:
        certificate = certify_moment(model, eps=DEFAULT_SLACK)
    enclosure = entropy_interval(model, certificate, config.entropy_tolerance)
    constants = bernstein_constants(certificate)
    means = replicate_log_likelihood_means(
        model, config.n, config.replicates, config.seed, workers=workers
    )
    # E[log P(X)] = -H, so the centred statistic is the mean plus H.
    deviations = np.abs(means + enclosure.midpoint)
    records = tuple(
        _record(e, int(np.count_nonzero(deviations >= e)), config.replicates, config.n, constants)
        for e in config.eps
    )
    return SimulationReport(
        model=model.describe(),
        n=config.n,
        replicates=config.replicates,
        seed=config.seed,
        certificate=certificate,
        entropy=enclosure,
        records=records,
        elapsed=time.perf_counter() - start,
    )


def estimate_mgf(
    model: PmfModel,
    entropy: EntropyInterval,
    lam: float,
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of the centred log-likelihood MGF at lam.

    Returns the sample mean of exp(lam * (log P(X) + H_mid)) and its
    standard error, from a single seeded stream.
    """
    if not (isinstance(samples, int) and samples >= 1):
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    u = np.random.default_rng(np.random.SeedSequence(seed)).random(samples)
    values = np.exp(lam * (model._lookup(u).scores(u) + entropy.midpoint))
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return mean, stderr


def sweep(
    configs: list[SimulationConfig],
    certificates: list[MomentCertificate | None] | None = None,
    workers: int = 1,
) -> list[SimulationReport]:
    """Run configs in order; each one uses exactly its own seed.

    The first hard error aborts the sweep with the finished reports
    attached to the raised ``SweepAborted``.
    """
    if certificates is None:
        certificates = [None] * len(configs)
    if len(certificates) != len(configs):
        raise ValueError(
            f"got {len(certificates)} certificates for {len(configs)} configs"
        )
    reports: list[SimulationReport] = []
    for config, certificate in zip(configs, certificates):
        try:
            report = estimate_deviation_probability(config, certificate, workers=workers)
        except Exception as exc:
            raise SweepAborted(
                f"sweep aborted on config {len(reports)} ({config.model.describe()}): {exc}",
                partial=reports,
            ) from exc
        reports.append(report)
    return reports


def verify_bound(report: SimulationReport) -> dict:
    """Re-derive every stored record and check it is self-consistent.

    Returns a verdict tally; raises ReportIntegrityError on any mismatch.
    Running it twice on the same report is a no-op by construction.
    """
    constants = bernstein_constants(report.certificate)
    tally = {"PASS": 0, "VACUOUS": 0, "FAIL": 0}
    for record in report.records:
        derived = _record(record.eps, record.hit_count, report.replicates, report.n, constants)
        if record != derived:
            raise ReportIntegrityError(
                f"record at eps={record.eps:g} is inconsistent: stored {record}, "
                f"re-derived {derived}"
            )
        tally[derived.verdict] += 1
    tally["overall"] = "FAIL" if tally["FAIL"] else "PASS"
    return tally


# -- serialisation -----------------------------------------------------------


def reports_to_csv(reports: list[SimulationReport]) -> str:
    """One row per (config, eps). Deliberately excludes wall time."""
    buffer = io.StringIO()
    # csv writes a float, numpy's included, as repr: the full float, stable
    # across runs, which the byte-identical output contract relies on.
    writer = csv.DictWriter(buffer, CSV_COLUMNS, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    for report in reports:
        # the fields themselves: asdict would deep-copy every report
        row = {**vars(report), **vars(report.certificate)}
        for record in report.records:
            writer.writerow({**row, **vars(record)})
    return buffer.getvalue()


def report_to_dict(report: SimulationReport) -> dict:
    payload = asdict(report)
    payload["records"] = list(payload["records"])
    payload["elapsed_seconds"] = payload.pop("elapsed")
    return payload


def reports_to_json(reports: list[SimulationReport]) -> str:
    return json.dumps([report_to_dict(r) for r in reports], indent=2, sort_keys=True) + "\n"
