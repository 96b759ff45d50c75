"""Discrete distributions on the 1-based positive integers with tail control.

Every model exposes exact log-probabilities, reproducible inverse-CDF
sampling, and a tail certificate describing how fast its masses decay.
Certificates come in two shapes: a power-law cap on individual masses,
and a geometric cap on successive mass ratios. They are the entry point
for everything else in this package; moment certification, entropy
intervals, and deviation bounds all consume them.

Outcomes are indexed k = 1, 2, 3, ... throughout. Families that are
conventionally supported on counts starting at zero (Poisson, negative
binomial) are shifted so that outcome k carries the mass of count k - 1.
"""

from __future__ import annotations

import abc
import bisect
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import AdmissibilityError, MissingCertificateError, ModelError, ResourceCapError
from .summation import CHUNK, compensated_sum

__all__ = [
    "PowerLawTail",
    "GeometricRatioTail",
    "PmfModel",
    "Poisson",
    "Geometric",
    "NegativeBinomial",
    "Zeta",
    "Tabulated",
    "tail_from_dict",
]

NORMALIZATION_TOL = 1e-12

# Inverse-CDF caches refuse to grow past this many entries. The cap is
# a memory guard (float64 entries), not a correctness limit, so it is
# deliberately far below the truncation cap used for certified sums.
_CDF_INDEX_CAP = 2**27

# Inverse-CDF caches grow this many outcomes at a time (128 KiB of float64,
# so a block's masses stay in cache from exp to cumsum), and a growth stops
# at the first block whose cumulative mass passes the draw.
_CDF_BLOCK = 2**14

# A guide starts at 2**10 buckets and doubles, up to 2**16, while more than
# this share of them are split: a CDF entry lies inside them, so a uniform
# landing there needs a binary search, where one in any other bucket is
# scored with one gather from the guide. Chosen by measurement (2-vCPU Xeon,
# numpy 2.4, three 8 s benchmark runs each at seed 3): mc-heavy cpu_ref_s
# took 1.03 s at 1/32, 0.93 s at 1/128 and 0.95-0.97 s at 1/512, whose
# larger guides miss cache more and cost more to build; mc-light took
# 0.72-0.82 s at each share. At 1/128 light-tailed guides get 2**11
# buckets, zeta guides for exponents 2.5 down to 2.1 get 2**13 to 2**15, and
# Geometric(1e-3) or Poisson(1e6), whose entries spread over [0, 1), reach
# 2**16 with 8-9% of the buckets split.
_GUIDE_SPLIT_SHARE = 1 / 128

# Absolute slack, on the log scale, granted when spot-checking certificate
# inequalities that the model satisfies with equality up to rounding.
_SPOT_CHECK_SLACK = 1e-9


def _special():
    """``scipy.special``, imported on first use: only the Poisson, negative
    binomial and zeta models need it, and the import costs more CPU than
    certifying a light-tailed model."""
    import scipy.special

    return scipy.special


# The outcomes 1, 2, 3, ... as read-only float64, from which the package
# takes the outcomes it passes to ``log_pmf_array``, in place of a fresh
# index array per call. Built on first use, not at import, with 1024 entries,
# and rebuilt at the next power of two when a range needs more, up to CHUNK.
_outcome_table: np.ndarray | None = None


class _Outcomes(np.ndarray):
    """Consecutive outcomes lo..hi as float64 that the package built itself,
    with 1 <= lo and hi < 2**53, so each is exact. ``_check_indices`` passes
    them on as they are, without the cast and the check it gives a caller's
    indices."""


def _outcomes(lo: int, hi: int, out: np.ndarray | None = None) -> _Outcomes:
    """The outcomes lo..hi, for 1 <= lo <= hi < 2**53 and at most ``CHUNK``
    of them: a read-only view of the outcome table when hi <= ``CHUNK``,
    else its first hi - lo + 1 entries plus lo - 1, written into ``out``
    (or a fresh array). Either is bitwise ``np.arange(lo, hi + 1)`` cast to
    float64, as every kernel casts it."""
    global _outcome_table
    size = hi if hi <= CHUNK else hi - lo + 1
    table = _outcome_table
    if table is None or table.size < size:
        table = np.arange(1, min(CHUNK, max(1024, 1 << (size - 1).bit_length())) + 1, dtype=np.float64)
        table.setflags(write=False)
        _outcome_table = table
    if hi <= CHUNK:
        return table[lo - 1 : hi].view(_Outcomes)
    return np.add(table[:size], lo - 1, out=out).view(_Outcomes)


class _TailCertificate:
    """What both tail shapes share: one validation per power, and spot checks."""

    def remainder(self, model: "PmfModel", s: float):
        """``k -> `` a certified upper bound on sum_{j > k} p_j**s for k >= k0,
        with s in (0, 1] and the model validated here, once, not per call."""
        if not (0.0 < s <= 1.0):
            raise ValueError(f"power must lie in (0, 1], got {s!r}")
        return self._remainder(model, s)

    def spot_check(self, model: "PmfModel", probes: int = 100, span: int = 10**6, seed: int = 0) -> None:
        """Probe pseudo-random indices in k0+1 .. min(k0 + span, table end)
        and verify the cap at each."""
        hi = self.k0 + span if model.max_index() is None else min(self.k0 + span, model.max_index())
        if hi > self.k0:
            self._check(model, np.random.default_rng(seed).integers(self.k0 + 1, hi + 1, size=probes))


@dataclass(frozen=True)
class PowerLawTail(_TailCertificate):
    """Asserts p_k <= c0 * k**(-alpha) for every k > k0."""

    k0: int
    c0: float
    alpha: float

    kind = "power-law"

    def __post_init__(self) -> None:
        if not (isinstance(self.k0, int) and self.k0 >= 0):
            raise ModelError(f"power-law tail start must be an integer >= 0, got {self.k0!r}")
        if not (self.c0 > 0 and math.isfinite(self.c0)):
            raise ModelError(f"power-law tail constant must be positive and finite, got {self.c0!r}")
        if not (self.alpha > 1 and math.isfinite(self.alpha)):
            raise ModelError(f"power-law tail exponent must exceed 1, got {self.alpha!r}")

    @property
    def r_max(self) -> float:
        """End of the admissible orders: alpha * (1 - r) > 1 keeps p_k**(1 - r) summable."""
        return (self.alpha - 1.0) / self.alpha

    def _remainder(self, model: "PmfModel", s: float):
        # The integral bound on sum_{j > k} c0**s * j**(-alpha*s).
        decay = self.alpha * s - 1.0
        if decay <= 0.0:
            raise AdmissibilityError(
                f"power sum at exponent {s:g} is not certified by a power-law tail "
                f"with alpha={self.alpha:g}; need alpha * exponent > 1"
            )
        scale = self.c0**s
        return lambda k: scale * float(k) ** (-decay) / decay

    def _check(self, model: "PmfModel", ks: np.ndarray) -> None:
        """Verify the mass cap at every index in ``ks`` (each > k0)."""
        log_cap = math.log(self.c0) - self.alpha * np.log(ks.astype(np.float64))
        log_p = model.log_pmf_array(ks)
        bad = np.nonzero(log_p > log_cap + _SPOT_CHECK_SLACK)[0]
        if bad.size:
            k = int(ks[bad[0]])
            raise ModelError(
                f"power-law tail certificate violated at k={k}: "
                f"log p = {float(log_p[bad[0]]):.6g} exceeds cap {float(log_cap[bad[0]]):.6g}"
            )

    def to_dict(self) -> dict:
        return {"type": "powerlaw", "k0": self.k0, "c0": self.c0, "alpha": self.alpha}


@dataclass(frozen=True)
class GeometricRatioTail(_TailCertificate):
    """Asserts p_{k+1} / p_k <= q for every k >= k0."""

    k0: int
    q: float

    kind = "ratio"
    r_max = 1.0  # every order in (0, 1) is summable under a ratio cap

    def __post_init__(self) -> None:
        if not (isinstance(self.k0, int) and self.k0 >= 1):
            raise ModelError(f"ratio tail start must be an integer >= 1, got {self.k0!r}")
        if not (0.0 < self.q < 1.0):
            raise ModelError(f"ratio tail factor must lie in (0, 1), got {self.q!r}")

    def _remainder(self, model: "PmfModel", s: float):
        # A geometric series from the first excluded mass p_{k+1}; past a
        # table's end, that mass is capped by chaining q from the last one.
        n = model.max_index()
        if n is not None and n < self.k0:
            raise ModelError(
                f"ratio tail certificate starts at k0={self.k0}, beyond the {n} listed "
                "masses; no anchor exists for the unlisted tail"
            )
        log_end = None if n is None else float(model.log_pmf_array(np.asarray([n], dtype=np.int64))[0])
        log_q, denom = math.log(self.q), 1.0 - self.q**s

        def bound(k: int) -> float:
            if n is None or k < n:
                return math.exp(s * model.log_pmf(k + 1)) / denom
            return math.exp(s * (log_end + (k + 1 - n) * log_q)) / denom

        return bound

    def cut_guesses(self, model: "PmfModel", powers, eps: float, lo: int, hi: int) -> list[int]:
        """For each power s, the first k in [lo, hi] whose log p_{k+1} is at
        most log(eps * (1 - q**s)) / s, the log-mass at which the bound meets
        ``eps`` but for rounding, so a guess can miss by one; else hi, which
        lies below the head's cap. The log-masses do not increase past k0, so
        all powers share one ``np.searchsorted`` over a view of the head.
        Past a table's end the bound chains q from the last mass, so a guess
        past the end is hi."""
        n = model.max_index()
        last = hi if n is None else min(hi, n - 1)  # p_{k+1} is listed for k <= last
        if lo > last:
            return [hi] * len(powers)
        log_eps = math.log(eps)
        levels = [(log_eps + math.log(1.0 - self.q**s)) / s for s in powers]
        # negated, so that both ascend
        found = np.negative(model.log_pmf_range(lo + 1, last + 1)).searchsorted([-v for v in levels])
        return [min(lo + i, hi) for i in found.tolist()]

    def _check(self, model: "PmfModel", ks: np.ndarray) -> None:
        """Verify p_k / p_{k-1} <= q at every k in ``ks`` (each > k0). The
        slack never admits a mass above the one before it."""
        ratios = model.log_pmf_array(ks) - model.log_pmf_array(ks - 1)
        bad = np.nonzero(ratios > min(math.log(self.q) + _SPOT_CHECK_SLACK, 0.0))[0]
        if bad.size:
            k = int(ks[bad[0]]) - 1
            raise ModelError(
                f"ratio tail certificate violated at k={k}: "
                f"log ratio {float(ratios[bad[0]]):.6g} exceeds log q = {math.log(self.q):.6g}"
            )

    def to_dict(self) -> dict:
        return {"type": "ratio", "k0": self.k0, "q": self.q}


def json_int(value, name: str) -> int:
    """An integer JSON field; ``int`` would accept a boolean or a string,
    or truncate a fraction."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ModelError(f"{name} must be an integer, got {value!r}")
    return int(value)


def json_float(value, name: str) -> float:
    """A number JSON field; ``float`` would read a boolean as 0.0 or 1.0,
    a string as whatever number it spells, and raise ``OverflowError`` on
    an integer past the float range."""
    if isinstance(value, (bool, str)):
        raise ModelError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ModelError(f"{name} must be a number, got an integer too large for a float") from None


# The documented spelling of each tail kind and the one ``to_dict`` writes;
# both are read.
_TAIL_KINDS = {
    "power_law": PowerLawTail, "powerlaw": PowerLawTail,
    "geometric_ratio": GeometricRatioTail, "ratio": GeometricRatioTail,
}


def tail_from_dict(payload: dict) -> PowerLawTail | GeometricRatioTail:
    """Inverse of ``to_dict`` on either tail certificate shape.

    Reads ``{"kind": "power_law" | "geometric_ratio", ...}`` and, as an
    alias, ``{"type": "powerlaw" | "ratio", ...}``, with the fields of the
    shape named. A missing or malformed field is a ``ModelError``.
    """
    if not isinstance(payload, dict):
        raise ModelError(f"a tail certificate must be a JSON object, got {payload!r}")
    kind = payload.get("kind", payload.get("type"))
    shape = _TAIL_KINDS.get(kind) if isinstance(kind, str) else None
    if shape is None:
        raise ModelError(
            f"unknown tail certificate kind {kind!r}; expected 'power_law' or 'geometric_ratio'"
        )
    try:
        k0, *params = fields(shape)
        k0 = json_int(payload[k0.name], "tail k0")
        params = [json_float(payload[field.name], f"tail {field.name}") for field in params]
    except KeyError as exc:
        raise ModelError(f"{shape.kind} tail certificate is missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ModelError(f"{shape.kind} tail certificate has a malformed value: {exc}") from None
    return shape(k0, *params)


def _distinct(ascending: np.ndarray) -> np.ndarray:
    """Each value of a sorted array of integers >= 0, once."""
    return ascending[np.diff(ascending, prepend=-1) > 0]


class _InverseCdf:
    """One state of a model's inverse-CDF cache.

    Holds the cumulative masses of outcomes offset+1..offset+size, their
    log-masses (a view of the model's head), whether growing further is
    futile, and a guide table over [0, 1) built on first use. The
    ``offset`` outcomes before them have cumulative mass exactly 0.0 and
    are not stored (``_extend_cdf`` moves them into the offset): a binary
    search for any u >= 0 passes over them, so no draw selects one. A cache
    that grows is a new record, so the guide always describes its own CDF.
    When the cache ends inside a growth chunk, ``base`` and ``carry`` are
    that chunk's starting mass and the running sum of its masses so far,
    from which ``PmfModel._extend_cdf`` resumes it.

    The guide (indexed search: Chen & Asau 1974; Devroye 1986, III.2.4)
    splits [0, 1) into m = 2**b equal buckets and holds one log-mass per
    bucket. With below[j] the number of CDF entries <= j/m, every uniform
    in [j/m, (j+1)/m) selects position below[j], clamped to the last one,
    unless a CDF entry lies in (j/m, (j+1)/m]; bucket j holds the log-mass
    at that position, or NaN where such an entry splits it. ``scores``
    then scores a uniform with one gather, and only one in a split bucket
    with a binary search. m starts at 2**10 and doubles while more than
    ``_GUIDE_SPLIT_SHARE`` of the buckets are split, up to 2**16 (512
    KiB). Because m is a power of two, u * m and j / m are exact, so every
    score is bit for bit the log-mass at the binary search's position.
    """

    def __init__(
        self, cdf: np.ndarray, log_pmf: np.ndarray, offset: int = 0, base: float = 0.0, carry: float = 0.0
    ) -> None:
        self.cdf, self.log_pmf, self.offset = cdf, log_pmf, offset
        self.base, self.carry = base, carry
        self.exhausted = False
        self._guide: np.ndarray | None = None

    @property
    def top(self) -> float:
        """Cumulative mass of the last stored outcome, 0.0 if none is stored."""
        return float(self.cdf[-1]) if self.cdf.size else 0.0

    def index(self, u: np.ndarray) -> np.ndarray:
        """``np.searchsorted(cdf, u, side="right")`` clamped to ``size - 1``,
        for uniforms ``u`` in [0, 1) of any shape. This is a position in the
        stored masses; the outcome drawn is ``offset + 1`` plus it. A draw
        past the cached mass, which happens only when the remaining tail is
        below float resolution, folds onto the last cached outcome."""
        return np.minimum(np.searchsorted(self.cdf, u, side="right"), self.cdf.size - 1)

    def scores(self, u: np.ndarray, work: _LookupBuffers | None = None) -> np.ndarray:
        """``log_pmf[index(u)]``, bit for bit, for uniforms ``u`` in [0, 1) of
        any shape, written into ``work`` or into fresh buffers."""
        guide = self._guide
        if guide is None:
            guide = self._guide = self._build_guide()
        if work is None:
            work = _LookupBuffers(u.size)
        bucket, values, split = work.views(u.shape)
        # u * m is exact and below m, so the cast's truncation is its floor,
        # and mode="clip" never clips
        np.multiply(u, guide.size, out=bucket, casting="unsafe")
        np.take(guide, bucket, out=values, mode="clip")
        np.isnan(values, out=split)
        at = np.flatnonzero(split)
        if at.size:
            values.reshape(-1)[at] = self.log_pmf[self.index(u.reshape(-1)[at])]
        return values

    def _build_guide(self) -> np.ndarray:
        # An entry c <= 1 lies in bucket ceil(c * m) - 1. For m = 2**16 >>
        # shift that is (ceil(c * 2**16) - 1) >> shift, scaling by a power of
        # two being exact, so every size is read off the finest buckets.
        # Those of the entries <= 1 - 2**-16 are computed, which skips the
        # pile of entries a heavy tail has just below 1; the entries past
        # them, up to 1, all lie in the last finest bucket, and one stands
        # for them. An entry equal to (j+1)/m, and the last entry alone in
        # its bucket, split a bucket whose uniforms all select one position;
        # that costs a binary search, not a score.
        cdf, last = self.cdf, self.cdf.size - 1
        head = cdf[: np.searchsorted(cdf, 1.0 - 2.0**-16, side="right")]
        finest = np.ceil(head * 2.0**16).astype(np.intp) - 1
        if np.searchsorted(cdf, 1.0, side="right") > head.size:
            finest = np.append(finest, (1 << 16) - 1)
        # the entries are sorted, so their buckets are too
        occupied = _distinct(finest)
        shift = 6
        split = _distinct(occupied >> shift)
        while shift and split.size > (1 << (16 - shift)) * _GUIDE_SPLIT_SHARE:
            shift -= 1
            split = _distinct(occupied >> shift)
        # Each run of unsplit buckets, from bucket 0 and after each split
        # one, selects one position: the number of entries in the buckets
        # before the run, whose finest buckets lie below the run's first.
        starts = np.append(-1, split)
        before = np.searchsorted(finest, ((starts + 1) << shift) - 1, side="right")
        values = np.full(2 * starts.size - 1, np.nan)
        values[::2] = self.log_pmf[np.minimum(before, last)]
        lengths = np.ones(values.size, dtype=np.intp)
        lengths[::2] = np.diff(starts, append=1 << (16 - shift)) - 1
        return np.repeat(values, lengths)


class _LookupBuffers:
    """The scratch arrays of guided scoring of up to ``size`` uniforms: the
    guide bucket, the scores and a bool mask of the split buckets. A caller
    that scores tile after tile passes one of these to every ``scores``;
    what ``scores`` returns is a view into it, valid until the next call."""

    def __init__(self, size: int) -> None:
        self.bucket = np.empty(size, dtype=np.intp)
        self.values = np.empty(size, dtype=np.float64)
        self.mask = np.empty(size, dtype=np.bool_)

    def views(self, shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        """The bucket, score and mask buffers, as arrays of ``shape``."""
        size = math.prod(shape)
        return tuple(a[:size].reshape(shape) for a in (self.bucket, self.values, self.mask))


def _cap_message(cap: int) -> str:
    return f"inverse-CDF cache would exceed {cap} entries; the requested draw lies too deep in the tail"


def _reserve(buf: np.ndarray | None, used: int, need: int, cap: int) -> np.ndarray:
    """``buf`` when it has room for ``need`` entries, else a new buffer of
    twice its capacity, at least ``need`` and at most ``cap``, holding a
    copy of its first ``used`` entries."""
    if buf is not None and need <= buf.size:
        return buf
    size = 0 if buf is None else buf.size
    grown = np.empty(min(cap, max(need, 2 * size)), dtype=np.float64)
    if used:
        grown[:used] = buf[:used]
    return grown


class PmfModel(abc.ABC):
    """A probability mass function on {1, 2, 3, ...}.

    Subclasses define the log-pmf and a tail certificate; this base class
    supplies scalar lookups, equality on parameters, and inverse-CDF
    sampling. The model's one log-pmf memo is the head, log p_1 ..
    log p_size: a read-only view of the filled prefix of a buffer whose
    capacity doubles, into which ``log_pmf_array`` writes the outcomes the
    head lacks, so growth computes no entry twice and copies entries only
    when the capacity doubles. The outcomes it is given are views of one
    shared table of outcomes, or that table plus an offset written into the
    buffer itself, never a fresh index array. Scalar lookups grow the head
    to their outcome rounded up to a multiple of 1024 and series ranges to
    their last outcome, up to ``CHUNK`` (8 MiB) and the table end; the
    sampling cache of cumulative masses grows it as far as its own, a block
    of ``_CDF_BLOCK`` outcomes at a time and only until it covers the
    largest uniform of a lookup, up to ``_CDF_INDEX_CAP`` and the table end,
    first reserving the buffer as far as that growth must reach. No
    buffer's capacity passes the cap of the caller that grows it. The
    cumulative masses grow into a buffer of their own the same way, and the
    cache is one record viewing its filled prefix, replaced when it grows,
    so a lookup never mixes two states of it; it never affects sampled
    values, only speed. Pickling drops the cache, the head and their
    buffers.
    """

    def __init__(self) -> None:
        self._cache: _InverseCdf | None = None
        self._head: np.ndarray | None = None
        self._head_buf: np.ndarray | None = None
        self._cdf_buf: np.ndarray | None = None

    @property
    def _cdf(self) -> np.ndarray | None:
        """Stored cumulative masses, or None before the first draw. They
        start at outcome ``_cache.offset + 1``, the first whose cumulative
        mass is not exactly 0.0."""
        return None if self._cache is None else self._cache.cdf

    # -- identity ----------------------------------------------------------

    @abc.abstractmethod
    def _params(self) -> tuple:
        """Hashable parameter tuple used for equality and repr."""

    @abc.abstractmethod
    def describe(self) -> str:
        """Canonical ``family:params`` text form, as accepted by the CLI."""

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._params() == other._params()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._params()))

    def __repr__(self) -> str:
        args = ", ".join(repr(p) for p in self._params())
        return f"{type(self).__name__}({args})"

    # -- pmf ----------------------------------------------------------------

    @abc.abstractmethod
    def log_pmf_array(self, ks: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Vectorised natural-log pmf at integer outcomes ``ks`` (each >= 1),
        written into the float64 array ``out`` of the same size when given
        (and returned), with the same operations in the same order, so the
        values are bitwise those of a fresh array."""

    def _head_cap(self) -> int:
        """The last outcome scalar lookups and series ranges grow the head
        to: ``CHUNK`` or the table end, whichever comes first."""
        return min(CHUNK, self.max_index() or CHUNK)

    def log_pmf(self, k: int) -> float:
        """log p_k for a single outcome k >= 1, read from the head when k <=
        ``_head_cap()``. A head that lacks k is first grown to k rounded up
        to a multiple of 1024, so nearby lookups find it there and a lookup
        just past a power of two computes about k log-masses, not 2k."""
        head = self._head
        if head is None or not 1 <= k <= head.size:
            cap = self._head_cap()
            if not 1 <= k <= cap:
                return float(self.log_pmf_array(np.asarray([k], dtype=np.int64))[0])
            head = self._grow_head(min(cap, -(-int(k) // 1024) * 1024))
        return head.item(k - 1)

    def log_pmf_range(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        """``log_pmf_array`` at the outcomes lo..hi (lo <= hi). A range the
        head holds, or that lies within ``_head_cap()``, is a read-only view
        of the head, grown to end exactly at hi if it ends before, so a
        series computes the log-masses it reads and no more; ``out`` is then
        left alone. Any other is computed into ``out`` (hi - lo + 1 entries)
        or a fresh array, and not stored: from the outcome table, for a range
        of outcomes from 1 to below 2**53 of at most ``CHUNK`` entries, and
        otherwise from the int64 indices a caller would pass, which are
        checked as theirs are."""
        if lo >= 1:
            head = self._head
            if head is not None and hi <= head.size:
                return head[lo - 1 : hi]
            if hi <= self._head_cap():
                return self._grow_head(hi)[lo - 1 : hi]
            if hi - lo < CHUNK and hi < 2**53:
                out = np.empty(hi - lo + 1, dtype=np.float64) if out is None else out
                return self.log_pmf_array(_outcomes(lo, hi, out), out)
        return self.log_pmf_array(np.arange(lo, hi + 1, dtype=np.int64), out)

    def _doubling(self, k: int) -> int:
        """The capacity of a head buffer that holds outcome ``k``: doubled
        from 1024 outcomes, at most ``_head_cap()``."""
        return min(self._head_cap(), max(1024, 1 << (k - 1).bit_length()))

    def _grow_head(self, want: int) -> np.ndarray:
        """The head, grown to hold outcomes 1..``want`` (at most
        ``_head_cap()``), computing only the outcomes it lacks, from a view
        of the outcome table. Its buffer's capacity is set by ``_doubling``,
        so a run of growths copies the head only when they pass a power of
        two, and fills the buffer without copying in between."""
        have = 0 if self._head is None else self._head.size
        if want > have:
            buf = self._head_buf = _reserve(self._head_buf, have, self._doubling(want), self._head_cap())
            self.log_pmf_array(_outcomes(have + 1, want), buf[have:want])
            self._fill_head(want)
        return self._head

    def _fill_head(self, size: int) -> None:
        """Publish the first ``size`` entries of the head buffer as the head."""
        head = self._head_buf[:size]
        head.setflags(write=False)
        self._head = head

    def _check_indices(self, ks: np.ndarray) -> np.ndarray:
        """``ks`` as int64 outcomes, refused when one is below 1; outcomes
        the package built (``_Outcomes``) pass as the float64 they are."""
        if type(ks) is _Outcomes:
            return ks.view(np.ndarray)
        ks = np.asarray(ks, dtype=np.int64)
        if ks.size and int(ks.min()) < 1:
            raise ModelError(f"outcomes are 1-based, got index {int(ks.min())}")
        return ks

    @abc.abstractmethod
    def tail_certificate(self) -> PowerLawTail | GeometricRatioTail:
        """Tail decay certificate for this model."""

    def max_index(self) -> int | None:
        """Largest outcome with a listed mass, or None when unbounded."""
        return None

    def is_complete(self) -> bool:
        """Whether the listed masses carry all the mass, so no tail needs bounding."""
        return False

    # -- sampling -----------------------------------------------------------

    def sample(self, seed: int, count: int) -> np.ndarray:
        """Draw ``count`` outcomes reproducibly from ``seed``.

        Uses inverse-transform sampling against cached cumulative sums, so
        the sampled law matches the stored pmf exactly up to float64
        rounding of the partial sums.
        """
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        rng = np.random.default_rng(seed)
        return self.draw(rng, count)

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Like ``sample`` but consuming an existing generator stream."""
        u = rng.random(count)
        return self._invert(u)

    def _invert(self, u: np.ndarray) -> np.ndarray:
        if u.size == 0:
            return np.zeros(0, dtype=np.int64)
        cache = self._lookup(u)
        return (cache.index(u) + cache.offset + 1).astype(np.int64)

    def _tail_mass_floor(self, k: int) -> float:
        """A certified lower bound on the mass of the outcomes past ``k``.

        A model that gives a positive one must also keep every doubling
        chunk of its inverse-CDF cache up to ``k`` from being futile while
        that mass exceeds ``k * 2**-52``, so that ``_reach`` refuses a draw
        exactly where growing the cache would have reached the cap.
        """
        return 0.0

    def _lookup(self, u: np.ndarray) -> _InverseCdf:
        """The cache, grown as far as the uniforms ``u`` (in [0, 1), any
        shape) need, whose ``index`` and ``scores`` then place and score
        them. Every draw goes through here."""
        target = float(u.max()) if u.size else 0.0
        cache = self._cache
        if cache is None or (cache.top <= target and not cache.exhausted):
            self._extend_cdf(target)
            cache = self._cache
        return cache

    def _reach(self, target: float, cap: int) -> int:
        """How far a growth of the cache to pass ``target`` must fill it, in
        outcomes from 1, rounded up to ``_CDF_BLOCK``: (J + 1) blocks for
        the largest J whose last outcome k = J * ``_CDF_BLOCK`` leaves more
        than 1 - target past it, by more than k * 2**-52, the rounding of a
        float running sum of k masses, at most ``cap``. Then the cumulative
        mass at k stays at or below ``target``, and growth, never futile
        before k, passes k. The floor does not grow with k, so
        ``bisect.bisect_left`` finds J on blocks up to the cap; 0 where even
        J = 1 fails, as for every table, whose floor is 0. Raises
        ``ResourceCapError`` where k = ``cap`` leaves that much too: growth
        would end at the cap, in that error, below ``target``."""
        block = _CDF_BLOCK

        def short(k: int) -> bool:
            return self._tail_mass_floor(k) - k * 2.0**-52 > 1.0 - target

        if short(cap):
            raise ResourceCapError(_cap_message(cap))
        if not short(block):
            return 0
        last = bisect.bisect_left(range(1, cap // block + 1), True, key=lambda j: not short(j * block))
        return min(cap, (last + 1) * block)

    def _extend_cdf(self, target: float) -> None:
        """Grow the cache until its mass passes ``target`` or it is exhausted,
        and raise ``ResourceCapError`` when that would pass the cap (before
        any allocation, where ``_reach`` can tell).

        Outcomes join in chunks that end at 1024 * 2**j and at the table end.
        Each stored mass is its chunk's base, the cumulative mass where the
        chunk starts, plus a float running sum of the chunk's masses, so it
        is ``base + np.cumsum(masses)`` over the whole chunk. A chunk is
        summed a block of ``_CDF_BLOCK`` at a time, with the running sum
        carried from block to block, and growth stops after the first block
        that passes ``target``; the record keeps the carry for the next
        growth. A chunk that leaves its positive base unchanged finds the
        tail below float resolution: it is futile, dropped whole, and the
        cache is exhausted. The cumulative masses and the log-masses the
        head lacks are written past the filled prefixes of their buffers,
        which only the new record and head then view; the head supplies
        each log-mass it holds and loses none. A buffer that lacks room is
        reserved once, as far as ``_reach`` finds this growth must fill it
        (or to twice its capacity, where that is further), so a deep growth
        copies neither buffer on the way.
        """
        cache = self._cache
        end = self.max_index()
        cap = _CDF_INDEX_CAP if end is None else end
        if cache is None:
            offset, stored, top, base, carry = 0, 0, 0.0, 0.0, 0.0
        else:
            offset, stored, top = cache.offset, cache.cdf.size, cache.top
            base, carry = cache.base, cache.carry
        have = before = offset + stored
        known = 0 if self._head is None else self._head.size
        head, sums = self._head_buf, self._cdf_buf
        reach = self._reach(target, cap)
        # scratch[0] holds the carry and scratch[1:] a block's masses, so one
        # cumsum continues the chunk's running sum
        scratch = np.empty(_CDF_BLOCK + 1, dtype=np.float64)
        chunk = have  # where the current chunk, or this growth, starts
        exhausted = capped = False
        while top <= target:
            if have >= cap:
                capped = end is None
                exhausted = not capped
                break
            start = 0 if have < 1024 else 1 << (have.bit_length() - 1)
            chunk_end = min(cap, max(1024, 2 * start))
            if have == start:
                base, carry, chunk = top, 0.0, have
            stop = min(chunk_end, have + _CDF_BLOCK)
            size = stop - have
            if stop > known:  # the head lacks outcomes new .. stop
                new = max(known, have)
                head = _reserve(head, new, max(stop, reach), cap)
                self.log_pmf_array(_outcomes(new + 1, stop, head[new:stop]), head[new:stop])
            np.exp(head[have:stop], out=scratch[1 : size + 1])
            scratch[0] = carry
            np.cumsum(scratch[: size + 1], out=scratch[: size + 1])
            carry = float(scratch[size])
            masses = scratch[1 : size + 1]
            if not stored:
                # outcomes whose cumulative mass is exactly 0.0 (base is 0.0
                # too) join the offset instead
                zeros = int(np.searchsorted(masses, 0.0, side="right"))
                offset, masses = offset + zeros, masses[zeros:]
            need = stored + masses.size
            if masses.size:  # the offset is final once a mass is stored
                need = max(need, reach - offset)
            sums = _reserve(sums, stored, need, cap - offset)
            np.add(masses, base, out=sums[stored : stored + masses.size])
            stored += masses.size
            have = stop
            top = float(sums[stored - 1]) if stored else 0.0
            if stop == chunk_end and base > 0.0 and top <= base:
                have = chunk
                stored = have - offset
                exhausted = True
                break
        self._head_buf, self._cdf_buf = head, sums
        if max(known, have) > known:
            self._fill_head(max(known, have))
        if have > before:
            cdf = sums[:stored]
            cdf.setflags(write=False)
            log_pmf = self._head[offset : offset + stored]
            cache = self._cache = _InverseCdf(cdf, log_pmf, offset, base, carry)
        if exhausted:
            cache.exhausted = True
        if capped:
            raise ResourceCapError(_cap_message(cap))

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_cache": None, "_head": None, "_head_buf": None, "_cdf_buf": None}


class Poisson(PmfModel):
    """Poisson counts, shifted so outcome k carries the mass of count k - 1."""

    def __init__(self, rate: float):
        if not (isinstance(rate, (int, float)) and math.isfinite(rate) and rate > 0):
            raise ModelError(f"poisson rate must be positive and finite, got {rate!r}")
        super().__init__()
        self.rate = float(rate)

    def _params(self) -> tuple:
        return (self.rate,)

    def describe(self) -> str:
        return f"poisson:{self.rate!r}"

    def log_pmf_array(self, ks: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # -rate + counts * log(rate) - gammaln(counts + 1), in place
        counts = np.subtract(self._check_indices(ks), 1.0, out=out)
        factorial = np.add(counts, 1.0)
        _special().gammaln(factorial, out=factorial)
        logs = np.multiply(counts, math.log(self.rate), out=counts)
        np.add(logs, -self.rate, out=logs)
        return np.subtract(logs, factorial, out=logs)

    def tail_certificate(self) -> GeometricRatioTail:
        # Successive masses shrink by rate/k, which is at most one half for
        # every outcome index k >= ceil(2 * rate).
        if not 2.0 * self.rate < 2.0**53:
            raise ResourceCapError(
                f"poisson rate {self.rate!r} starts its ratio tail at index ceil(2 * rate), "
                f"past every truncation cap"
            )
        return GeometricRatioTail(k0=math.ceil(2.0 * self.rate), q=0.5)

    def _tail_mass_floor(self, k: int) -> float:
        # The mass past outcome k is P(N >= k) = 1 - P(N <= x), x = k - 1,
        # and for x < rate the Chernoff bound gives P(N <= x) <= exp(-rate)
        # * (e * rate / x)**x. Its exponent is widened by 2**-48 of the sizes
        # of its terms, far above their rounding, and the result is rounded
        # down. A positive floor needs k - 1 < rate, so the masses of
        # outcomes 1..k rise, each ratio rate / count being over 1: a
        # doubling (h, 2h] with 2h <= k adds at least its base, which is no
        # futile growth.
        x, rate = k - 1.0, self.rate
        if not x < rate:
            return 0.0
        gain = x * (1.0 + math.log(rate / x)) if x > 0.0 else 0.0
        exponent = min(0.0, gain - rate + 2.0**-48 * (gain + rate))
        return -math.expm1(exponent) * (1.0 - 2.0**-50)


class Geometric(PmfModel):
    """p_k = (1 - prob)**(k - 1) * prob on k = 1, 2, ..."""

    def __init__(self, prob: float):
        if not (isinstance(prob, (int, float)) and 0.0 < prob < 1.0):
            raise ModelError(f"geometric success probability must lie in (0, 1), got {prob!r}")
        super().__init__()
        self.prob = float(prob)

    def _params(self) -> tuple:
        return (self.prob,)

    def describe(self) -> str:
        return f"geometric:{self.prob!r}"

    def log_pmf_array(self, ks: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # (ks - 1) * log1p(-prob) + log(prob), in place
        logs = np.subtract(self._check_indices(ks), 1.0, out=out)
        np.multiply(logs, math.log1p(-self.prob), out=logs)
        return np.add(logs, math.log(self.prob), out=logs)

    def tail_certificate(self) -> GeometricRatioTail:
        return GeometricRatioTail(k0=1, q=1.0 - self.prob)

    def _tail_mass_floor(self, k: int) -> float:
        # The mass past k is exactly (1 - prob)**k = exp(k * log1p(-prob)).
        # Scaling the exponent by 1 + 2**-50 outweighs the rounding of log1p
        # and of the products (under 2**-51 together), and the last factor
        # that of exp. A doubling (h, 2h] with 2h <= k holds h masses, each
        # at least (1 - prob)**(2h - 1) times each of the h masses before
        # it, so it adds at least its base times (1 - prob)**k, which is
        # over k * 2**-52 >= 2h * 2**-52 while the floor matters: far above
        # the rounding of a running sum of h masses and half an ulp of the
        # base, so no growth up to k is futile.
        return math.exp(k * math.log1p(-self.prob) * (1.0 + 2.0**-50)) * (1.0 - 2.0**-50)


class NegativeBinomial(PmfModel):
    """Negative binomial counts, shifted so outcome k carries count k - 1.

    Parametrised so that ``prob`` is the geometric decay rate of the
    masses: count c has mass C(c + size - 1, c) * (1 - prob)**size *
    prob**c, and the successive-mass ratio tends to ``prob`` from
    whichever side ``size`` dictates. ``size`` may be any positive real.
    """

    def __init__(self, size: float, prob: float):
        if not (isinstance(size, (int, float)) and math.isfinite(size) and size > 0):
            raise ModelError(f"negative binomial size must be positive and finite, got {size!r}")
        if not (isinstance(prob, (int, float)) and 0.0 < prob < 1.0):
            raise ModelError(f"negative binomial prob must lie in (0, 1), got {prob!r}")
        super().__init__()
        self.size = float(size)
        self.prob = float(prob)

    def _params(self) -> tuple:
        return (self.size, self.prob)

    def describe(self) -> str:
        return f"negbinomial:{self.size!r},{self.prob!r}"

    def log_pmf_array(self, ks: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # gammaln(counts + size) - gammaln(size) - gammaln(counts + 1)
        # + size * log1p(-prob) + counts * log(prob), in this order, in place
        counts = np.subtract(self._check_indices(ks), 1.0, out=out)
        gammaln = _special().gammaln
        logs = np.add(counts, self.size)
        gammaln(logs, out=logs)
        np.subtract(logs, gammaln(self.size), out=logs)
        factorial = np.add(counts, 1.0)
        gammaln(factorial, out=factorial)
        np.subtract(logs, factorial, out=logs)
        np.add(logs, self.size * math.log1p(-self.prob), out=logs)
        np.multiply(counts, math.log(self.prob), out=counts)
        return np.add(logs, counts, out=counts)

    def _tail_mass_floor(self, k: int) -> float:
        # The mass past outcome k is P(N >= k) = 1 - P(N <= x), x = k - 1.
        # For x below the mean size * prob / (1 - prob), the Chernoff bound
        # from the MGF, P(N <= x) <= min over z in (0, 1] of z**-x *
        # ((1 - prob) / (1 - prob * z))**size, is attained at z = x / (prob
        # * (size + x)) and equals exp(gain - loss), with gain = x *
        # log1p(size / x) + size * log1p(x / size) and loss = -(x * log(prob)
        # + size * log1p(-prob)), both nonnegative. The exponent is widened by
        # 2**-48 of gain + loss, far above the rounding of its terms, and the
        # result is rounded down. A positive floor also needs the masses of
        # outcomes 1..k to rise: each ratio (count + size) / (count + 1) *
        # prob, count < x, is at least the last, (x - 1 + size) / x * prob,
        # checked here to be over 1 with a margin past its rounding. Then a
        # doubling (h, 2h] with 2h <= k adds at least its base, which is no
        # futile growth. The last ratio over 1 puts x below the mode, so
        # below the mean.
        x, size, prob = k - 1.0, self.size, self.prob
        if not (x - 1.0 + size) * prob > x * (1.0 + 2.0**-48):
            return 0.0
        gain = x * math.log1p(size / x) + size * math.log1p(x / size) if x > 0.0 else 0.0
        loss = -(x * math.log(prob) + size * math.log1p(-prob))
        exponent = min(0.0, gain - loss + 2.0**-48 * (gain + loss))
        return -math.expm1(exponent) * (1.0 - 2.0**-50)

    def _mass_ratio(self, k: int) -> float:
        # p_{k+1} / p_k with count c = k - 1 equals (c + size) / (c + 1) * prob.
        return (k - 1.0 + self.size) / k * self.prob

    def tail_certificate(self) -> GeometricRatioTail:
        q = (1.0 + self.prob) / 2.0
        # The ratio is monotone in k with limit prob < q, so the first index
        # satisfying the cap starts a run that never ends. Closed form first,
        # then gallop from the start to an index on each side of the exact
        # boundary, and bisect that bracket. Near prob = 1 the float ratio is
        # flat over billions of indices, so a unit step would not end.
        if self.size <= 1.0:
            return GeometricRatioTail(k0=1, q=q)
        start = 2.0 * self.prob * (self.size - 1.0) / (1.0 - self.prob)
        if not start < 2.0**53:
            # Past 2**53 a step of k0 no longer moves the float ratio; the
            # start is past any truncation cap.
            raise ResourceCapError(
                f"negative binomial size {self.size!r} with prob {self.prob!r} starts "
                f"its ratio tail at index {start:.3g}, past every truncation cap"
            )

        def capped(k: int) -> bool:
            return self._mass_ratio(k) <= q

        # lo is below the run, or 0 once every index down to 1 is in it;
        # hi is in the run once the gallops stop, so k0 lies in (lo, hi]
        hi = max(1, math.ceil(start))
        lo, step = hi - 1, 1
        while lo > 0 and capped(lo):
            lo, hi, step = max(0, lo - step), lo, 2 * step
        while not capped(hi):
            lo, hi, step = hi, hi + step, 2 * step
        k0 = lo + 1 + bisect.bisect_left(range(lo + 1, hi), True, key=capped)
        return GeometricRatioTail(k0=k0, q=q)


class Zeta(PmfModel):
    """p_k proportional to k**(-exponent), normalised by the zeta function."""

    def __init__(self, exponent: float):
        if not (isinstance(exponent, (int, float)) and math.isfinite(exponent) and exponent > 1):
            raise ModelError(f"zeta exponent must exceed 1, got {exponent!r}")
        super().__init__()
        self.exponent = float(exponent)
        self._zeta_value = float(_special().zeta(self.exponent))

    def _params(self) -> tuple:
        return (self.exponent,)

    def describe(self) -> str:
        return f"zeta:{self.exponent!r}"

    def log_pmf_array(self, ks: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # -exponent * log(ks) - log(zeta(exponent)), in place
        logs = np.log(self._check_indices(ks), out=out, dtype=np.float64)
        np.multiply(logs, -self.exponent, out=logs)
        return np.subtract(logs, math.log(self._zeta_value), out=logs)

    def tail_certificate(self) -> PowerLawTail:
        return PowerLawTail(k0=1, c0=1.0 / self._zeta_value, alpha=self.exponent)

    def _tail_mass_floor(self, k: int) -> float:
        # Integral test: sum_{j > k} j**(-a) >= int_{k+1}^inf x**(-a) dx.
        # A doubling (h, 2h] with 2h <= k adds at least (a - 1) / 2 of the
        # mass past k. While that mass exceeds k * 2**-52, a doubling adds
        # over (a - 1) * k * 2**-53, far above half an ulp of any cumulative
        # mass, which is below 1 and below (1 + ln k) / zeta(a), itself
        # below (1 + ln k) * (a - 1): no growth up to the cap is futile.
        a = self.exponent
        return (k + 1.0) ** (1.0 - a) / ((a - 1.0) * self._zeta_value)


class Tabulated(PmfModel):
    """An explicit finite mass table, optionally extended by a tail certificate.

    When the listed masses fall short of total mass 1 by more than the
    normalisation tolerance, a tail certificate is mandatory and is checked
    for consistency: the certified cap on the unlisted mass must cover what
    is missing. Certificates bound the unlisted masses but do not define
    them, so exact mass lookups beyond the table and tail sampling are
    refused.
    """

    def __init__(
        self,
        masses,
        tail: PowerLawTail | GeometricRatioTail | None = None,
        label: str | None = None,
    ):
        arr = np.asarray(masses, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ModelError("tabulated masses must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr > 1.0):
            raise ModelError("tabulated masses must all lie in (0, 1]")
        total = compensated_sum(arr)
        if total > 1.0 + NORMALIZATION_TOL:
            raise ModelError(f"tabulated masses sum to {total:.17g}, exceeding 1")
        super().__init__()
        self.masses = arr
        self.masses.setflags(write=False)
        self.total = total
        self.missing = max(0.0, 1.0 - total)
        self.tail = tail
        self.label = label
        if tail is None and not self.is_complete():
            raise MissingCertificateError(
                f"listed masses sum to {total:.17g}; a tail certificate is required "
                "to account for the remaining mass"
            )
        if tail is not None:
            self._check_tail_consistency()

    def _check_tail_consistency(self) -> None:
        # Every listed mass the certificate covers must obey it, complete
        # table or not; then the unlisted mass must fit under its cap.
        n = self.masses.size
        tail = self.tail
        if tail.k0 < n:
            tail._check(self, np.arange(tail.k0 + 1, n + 1, dtype=np.int64))
        if self.is_complete():
            return
        # Either shape leaves the masses n+1..k0 unbounded when k0 > n.
        if tail.k0 > n:
            raise ModelError(
                f"{tail.kind} tail certificate starts at k0={tail.k0}, beyond the "
                f"{n} listed masses; it cannot bound the unlisted mass"
            )
        cap = tail.remainder(self, 1.0)(n)
        if cap < self.missing - 1e-15:
            raise ModelError(
                f"tail certificate caps the unlisted mass at {cap:.6g} but "
                f"{self.missing:.6g} is missing; certificate rejected as inconsistent"
            )

    def _params(self) -> tuple:
        return (self.masses.tobytes(), self.tail)

    def describe(self) -> str:
        if self.label:
            return f"tabulated:{self.label}"
        return f"tabulated:<{self.masses.size} masses>"

    def __repr__(self) -> str:
        return f"Tabulated(<{self.masses.size} masses>, tail={self.tail!r})"

    def max_index(self) -> int:
        return int(self.masses.size)

    def log_pmf_array(self, ks: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        ks = self._check_indices(ks)
        if ks.size and int(ks.max()) > self.masses.size:
            raise ModelError(
                f"mass unknown: outcome {int(ks.max())} lies beyond the "
                f"{self.masses.size} listed masses and no exact tail is available"
            )
        masses = np.take(self.masses, ks.astype(np.intp, copy=False) - 1, out=out)
        return np.log(masses, out=masses)

    def tail_certificate(self) -> PowerLawTail | GeometricRatioTail:
        if self.tail is None:
            raise MissingCertificateError(
                "no certificate available: the tabulated model was built without one"
            )
        return self.tail

    def is_complete(self) -> bool:
        return self.missing <= NORMALIZATION_TOL

    def _lookup(self, u: np.ndarray) -> _InverseCdf:
        if not self.is_complete():
            raise ModelError(
                f"cannot sample tail: {self.missing:.6g} of the mass is unlisted and "
                "a certificate only bounds it"
            )
        return super()._lookup(u)

    @classmethod
    def from_dict(cls, payload: dict, label: str | None = None) -> "Tabulated":
        if not isinstance(payload, dict):
            raise ModelError(f"a tabulated model must be a JSON object, got {payload!r}")
        if not isinstance(payload.get("probs"), list):
            raise ModelError('tabulated JSON must contain a "probs" array')
        tail = tail_from_dict(payload["tail"]) if payload.get("tail") is not None else None
        masses = [json_float(p, "probs") for p in payload["probs"]]
        return cls(masses, tail=tail, label=label)

    @classmethod
    def load(cls, path: str | Path) -> "Tabulated":
        path = Path(path)
        with path.open() as fh:
            payload = json.load(fh)
        return cls.from_dict(payload, label=str(path))

    def to_dict(self) -> dict:
        payload: dict = {"probs": [float(m) for m in self.masses]}
        if self.tail is not None:
            payload["tail"] = self.tail.to_dict()
        return payload
