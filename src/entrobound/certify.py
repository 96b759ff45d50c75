"""Moment certification: explicit, slack-controlled bounds on power sums.

The certified quantity is C_r, an upper estimate of the series
sum_k p_k**(1 - r) for a moment order r in (0, 1). Certificates record
the truncation index actually summed and the slack added on top, and
they serialise to a stable JSON shape so a certification can be reused
by later bound computations.

Each tail certificate shape carries its own math: ``tail.r_max`` ends the
admissible orders and ``tail.remainder(model, s)`` bounds the power sum
past a truncation index. On infinite support a power-law cap takes that
index from a closed form driven by its integral bound; a ratio cap, and
either cap on a finite table, takes the smallest index whose remainder
bound meets the slack, never past the table end. A complete table needs
no remainder past its end, so it is certified with or without a tail.
"""

from __future__ import annotations

import bisect
import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distributions import GeometricRatioTail, PmfModel, PowerLawTail, json_float, json_int
from .errors import AdmissibilityError, MissingCertificateError, ModelError, ResourceCapError
from .summation import CHUNK, indexed_chunk_sum

__all__ = [
    "DEFAULT_SLACK",
    "TRUNCATION_CAP",
    "MomentCertificate",
    "EntropyInterval",
    "admissible_r_interval",
    "default_r",
    "certify_moment",
    "certify_moment_powerlaw",
    "certify_moment_ratio",
    "power_sum_partial",
    "entropy_interval",
    "entropy_upper_coarse",
]

DEFAULT_SLACK = 1e-6

# Partial sums refuse to run past this index; tolerances that need more
# terms surface as clean errors instead of multi-hour loops.
TRUNCATION_CAP = 10**9

_PROVENANCES = ("powerlaw", "ratio", "exact")


@dataclass(frozen=True)
class MomentCertificate:
    """A certified upper estimate C_r of sum_k p_k**(1 - r).

    ``truncation_index`` is the last index included in the exact partial
    sum; ``slack`` is the amount added to cover the remaining tail. Ratio
    and exact certificates bound that remainder by ``slack``, so C_r lies
    between the series, up to float rounding, and the series plus ``slack``.
    A power-law certificate bounds it only by ``slack * c0**(-r)``, so its
    C_r can undershoot the series by up to ``slack * (c0**(-r) - 1)``
    (ROADMAP.md, open item 1)."""

    r: float
    C_r: float
    slack: float
    truncation_index: int
    provenance: str

    def __post_init__(self) -> None:
        if not (0.0 < self.r < 1.0):
            raise AdmissibilityError(f"moment order r must lie in (0, 1), got {self.r!r}")
        if not (self.C_r > 0 and math.isfinite(self.C_r)):
            raise ValueError(f"C_r must be positive and finite, got {self.C_r!r}")
        if not (self.slack >= 0 and math.isfinite(self.slack)):
            raise ValueError(f"slack must be nonnegative, got {self.slack!r}")
        if not (isinstance(self.truncation_index, int) and self.truncation_index >= 0):
            raise ValueError(f"truncation_index must be an integer >= 0, got {self.truncation_index!r}")
        if self.provenance not in _PROVENANCES:
            raise ValueError(f"provenance must be one of {_PROVENANCES}, got {self.provenance!r}")

    def to_dict(self) -> dict:
        # the fields in order; they are all scalars, so asdict's deep copy
        # would only cost time
        return dict(vars(self))

    @classmethod
    def from_dict(cls, payload: dict) -> "MomentCertificate":
        """Inverse of ``to_dict``; a malformed payload is a ``ModelError``."""
        if not isinstance(payload, dict):
            raise ModelError(f"a moment certificate must be a JSON object, got {payload!r}")
        try:
            fields = dict(
                r=json_float(payload["r"], "r"),
                C_r=json_float(payload["C_r"], "C_r"),
                slack=json_float(payload["slack"], "slack"),
                truncation_index=json_int(payload["truncation_index"], "truncation_index"),
                provenance=str(payload["provenance"]),
            )
        except KeyError as exc:
            raise ModelError(f"moment certificate is missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ModelError(f"moment certificate has a malformed value: {exc}") from None
        return cls(**fields)

    def to_json(self) -> str:
        """The saved form: indented JSON with sorted keys and a final newline."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "MomentCertificate":
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class EntropyInterval:
    """Two-sided enclosure of a model's entropy, in nats."""

    lower: float
    upper: float
    tolerance: float

    def __post_init__(self) -> None:
        if not (self.lower <= self.upper):
            raise ValueError(f"empty entropy interval [{self.lower}, {self.upper}]")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


def admissible_r_interval(tail: PowerLawTail | GeometricRatioTail | None) -> tuple[float, float]:
    """Open interval of moment orders the tail certificate admits; (0, 1)
    for a complete table without a tail."""
    return (0.0, 1.0 if tail is None else tail.r_max)


def default_r(tail: PowerLawTail | GeometricRatioTail | None) -> float:
    """Default moment order: the midpoint of the admissible interval, so
    one half for ratio tails and for a complete table without a tail."""
    return admissible_r_interval(tail)[1] / 2.0


def power_sum_partial(model: PmfModel, r: float, k_max: int) -> float:
    """Exact partial sum of p_k**(1 - r) for k = 1..k_max.

    Always a lower bound on the full series. Terms are evaluated in
    log space and accumulated in increasing k with compensation.
    """
    if not (0.0 < r < 1.0):
        raise AdmissibilityError(f"moment order r must lie in (0, 1), got {r!r}")
    return _log_pmf_sum(model, _mass_power(1.0 - r), 1, k_max)


def _mass_power(c: float):
    """The series term p_k**c = exp(c * log p_k), as ``term(lp, out)``."""

    def term(lp: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        scaled = np.multiply(lp, c, out=out)
        return np.exp(scaled, out=scaled)

    return term


def _entropy_term(lp: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """The series term -p_k * log p_k = -exp(lp) * lp, as ``term(lp, out)``."""
    terms = np.exp(lp, out=out)
    np.negative(terms, out=terms)
    return np.multiply(terms, lp, out=terms)


def _log_pmf_sum(model: PmfModel, term, start: int, stop: int) -> float:
    """Sum ``term(log p_k, out)`` over k in [start, stop] by
    ``indexed_chunk_sum``, reading each chunk's log-pmf through
    ``model.log_pmf_range``, a view of the head inside the head's cap. A
    range of one chunk takes fresh arrays. A longer one reuses one pair of
    buffers for every chunk: a chunk past the head's cap is computed into
    the first, its terms into the second. ``term`` writes into ``out`` when
    given, with the operations it would apply to a fresh array."""
    if stop - start < CHUNK:
        return indexed_chunk_sum(lambda lo, hi: term(model.log_pmf_range(lo, hi), None), start, stop)
    pair = [np.empty(CHUNK, dtype=np.float64) for _ in range(2)]

    def chunk(lo: int, hi: int) -> np.ndarray:
        size = hi - lo + 1
        return term(model.log_pmf_range(lo, hi, pair[0][:size]), pair[1][:size])

    return indexed_chunk_sum(chunk, start, stop)


def _cap_error(what: str) -> ResourceCapError:
    return ResourceCapError(f"{what} needs partial sums beyond the cap of {TRUNCATION_CAP}")


def _truncation_ladder(
    model: PmfModel,
    tail: PowerLawTail | GeometricRatioTail | None,
    s: float,
    k_min: int,
    what: Callable[[], str],
    remainder: Callable[[int], float] | None = None,
):
    """Yield rungs ``(k, bound on sum_{j > k} p_j**s)`` at k = max(k_min, k0)
    times 1, 2, 4, ..., clamped (when at least k0) to the table end and to
    ``TRUNCATION_CAP``. A complete table needs no ``tail`` and is one rung
    at its end with remainder 0.0. Asked past its last rung, the ladder
    raises: a ``ModelError`` that ``what()`` is unreachable with the listed
    masses at a table end, a ``ResourceCapError`` naming ``what()`` at the
    cap. ``what`` formats its description only then, not on every walk.
    ``remainder`` is ``tail.remainder(model, s)`` when the caller has built it.
    """
    end = model.max_index()
    if model.is_complete():
        yield end, 0.0
    else:
        if remainder is None:
            remainder = tail.remainder(model, s)
        stop = TRUNCATION_CAP if end is None else end
        k = max(k_min, tail.k0)
        while k < stop:
            yield k, remainder(k)
            k *= 2
        if tail.k0 <= stop:
            yield stop, remainder(stop)
        if end is None:
            raise _cap_error(what())
    raise ModelError(f"{what()} is unreachable with only {end} listed masses")


def _certification_tail(model: PmfModel, tail, shape: type):
    """``tail``, or the model's own, once it has the shape a certification needs."""
    if tail is None:
        tail = model.tail_certificate()
    if not isinstance(tail, shape):
        raise ModelError(f"{shape.kind} certification needs a {shape.kind} tail, got {tail!r}")
    return tail


def certify_moment_powerlaw(
    model: PmfModel,
    r: float,
    eps: float = DEFAULT_SLACK,
    tail: PowerLawTail | None = None,
) -> MomentCertificate:
    """Certify C_r for a model whose tail carries a power-law mass cap.

    On infinite support the truncation index is the closed form
    k1 = max(k0, ceil((eps * (alpha*(1-r) - 1) / c0) ** (-1 / (alpha*(1-r) - 1))))
    and C_r is the exact partial sum through k1 plus eps. A finite table,
    complete or not, is certified as ``certify_moment_ratio`` certifies
    one, with the power-law remainder bound, so it never sums past its end.
    """
    return _certify(model, _certification_tail(model, tail, PowerLawTail), r, eps)


def certify_moment_ratio(
    model: PmfModel,
    r: float,
    eps: float = DEFAULT_SLACK,
    tail: GeometricRatioTail | None = None,
) -> MomentCertificate:
    """Certify C_r for a model whose tail carries a ratio cap.

    Finds the smallest m >= k0 whose geometric remainder bound
    p_{m+1}**(1-r) / (1 - q**(1-r)) is at most eps, then returns the exact
    partial sum through m plus eps. Because the remainder bound genuinely
    dominates the discarded tail, C_r here never undershoots the series.
    A complete table needs no remainder past its last listed mass.
    """
    return _certify(model, _certification_tail(model, tail, GeometricRatioTail), r, eps)


def certify_moment(
    model: PmfModel,
    r: float | None = None,
    eps: float = DEFAULT_SLACK,
) -> MomentCertificate:
    """Certify C_r, dispatching on the model's own tail certificate.

    When ``r`` is omitted the default order rule applies. A complete
    table built without a tail certificate is summed exactly through its
    end, with provenance ``"exact"``.
    """
    tail = _own_tail(model)
    return _certify(model, tail, default_r(tail) if r is None else r, eps)


def _own_tail(model: PmfModel) -> PowerLawTail | GeometricRatioTail | None:
    """The model's tail certificate; None for a complete table built without one."""
    try:
        return model.tail_certificate()
    except MissingCertificateError:
        if not model.is_complete():
            raise
        return None


def _certify(
    model: PmfModel, tail: PowerLawTail | GeometricRatioTail | None, r: float, eps: float
) -> MomentCertificate:
    """The certificate at order ``r`` under ``tail``, the certificate the
    model's own tail is resolved to (None for a complete table built without
    one): every certification but a grid's confirmed guesses
    (``_certify_orders``) goes through here. An order outside the
    admissible interval raises ``AdmissibilityError``, then an unusable
    slack ``ValueError``. A power-law tail on infinite support takes the
    closed form; every other case walks the truncation ladder, with
    provenance ``"powerlaw"``, ``"ratio"``, or ``"exact"`` without a tail.
    """
    r_max = admissible_r_interval(tail)[1]
    if not (0.0 < r < r_max):
        raise AdmissibilityError(
            f"inadmissible r: {r!r} lies outside the admissible interval (0, {r_max:g})"
        )
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"slack must be positive and finite, got {eps!r}")
    if tail is None:
        return _certificate(model, r, eps, model.max_index(), "exact")
    if isinstance(tail, GeometricRatioTail):
        return _certify_on_ladder(model, tail, r, eps, "ratio")
    if model.max_index() is not None:
        return _certify_on_ladder(model, tail, r, eps, "powerlaw")
    return _certify_powerlaw_closed_form(model, tail, r, eps)


def _certify_orders(
    model: PmfModel,
    tail: PowerLawTail | GeometricRatioTail | None,
    rs: list[float],
    eps: float,
) -> list[MomentCertificate | Exception]:
    """A certificate for each order in ``rs`` under ``tail``, each the one
    ``_certify`` gives, bit for bit, or the ``ResourceCapError``,
    ``ModelError`` or ``AdmissibilityError`` it raised; an unusable slack
    raises ``ValueError``.

    The orders are certified largest first, each alone but for one case.
    Once one succeeds under a ratio tail with its cut m inside the head's
    cap, a smaller order's bound is no larger at any k, so its cut lies in
    [k0, m]: ``tail.cut_guesses`` guesses every smaller order's cut in one
    search of the head. A guess g is kept only where the scalar test
    ``remainder(k) <= eps`` confirms it: it passes at g and, unless g is
    k0, fails at g - 1, as at the cut ``_certify`` finds. Every other
    order is certified alone, so a wrong guess costs time, not a result.
    """
    order = sorted(set(rs), reverse=True)
    results: dict[float, MomentCertificate | Exception] = {}
    guesses: dict[float, int] = {}
    for i, r in enumerate(order):
        try:
            cut = guesses.get(r)
            if cut is not None:
                bound = tail.remainder(model, 1.0 - r)
                if not (bound(cut) <= eps and (cut == tail.k0 or not bound(cut - 1) <= eps)):
                    cut = None
            if cut is None:
                cert = results[r] = _certify(model, tail, r, eps)
            else:
                cert = results[r] = _certificate(model, r, eps, cut, "ratio")
        except (AdmissibilityError, ModelError, ResourceCapError) as exc:
            results[r] = exc
            continue
        if (
            not guesses
            and isinstance(tail, GeometricRatioTail)
            and tail.k0 <= cert.truncation_index < model._head_cap()
        ):
            smaller = order[i + 1 :]
            cuts = tail.cut_guesses(model, [1.0 - r for r in smaller], eps, tail.k0, cert.truncation_index)
            guesses = dict(zip(smaller, cuts))
    return [results[r] for r in rs]


def _certify_powerlaw_closed_form(
    model: PmfModel, tail: PowerLawTail, r: float, eps: float
) -> MomentCertificate:
    """The certificate at the closed-form index k1 of
    ``certify_moment_powerlaw``; past the cap, ``ResourceCapError``."""
    decay = tail.alpha * (1.0 - r) - 1.0
    try:
        raw = (eps * decay / tail.c0) ** (-1.0 / decay)
    except OverflowError:
        raw = math.inf
    if raw > TRUNCATION_CAP or tail.k0 > TRUNCATION_CAP:
        raise _cap_error(f"slack {eps:g} at r={r:g}")
    return _certificate(model, r, eps, max(tail.k0, math.ceil(raw), 1), "powerlaw")


def _certify_on_ladder(
    model: PmfModel,
    tail: PowerLawTail | GeometricRatioTail,
    r: float,
    eps: float,
    provenance: str,
) -> MomentCertificate:
    """C_r summed through the smallest m >= max(k0, 1) whose remainder bound
    under ``tail`` is at most eps, plus eps. The ladder's rungs are walked to
    the first that meets eps, and since the bound does not increase past k0,
    m is found by bisection between the last two rungs with the scalar test
    ``remainder(k) <= eps``. Past the ladder's last rung this raises the
    ``ResourceCapError`` or ``ModelError`` the ladder raised, and a bound the
    tail refuses raises ``AdmissibilityError``. A complete table is one rung
    at its end with remainder 0.0, so m never passes the end; with k0 past
    that end, the end is the only cut.
    """
    end = model.max_index()
    if model.is_complete() and tail.k0 > end:
        return _certificate(model, r, eps, end, provenance)
    bound = tail.remainder(model, 1.0 - r)
    lo = max(tail.k0, 1) - 1
    for hi, remainder in _truncation_ladder(
        model, tail, 1.0 - r, 1, lambda: f"slack {eps:g} at r={r:g}", bound
    ):
        if remainder <= eps:
            break
        lo = hi
    cut = lo + 1 + bisect.bisect_left(range(lo + 1, hi), True, key=lambda k: bound(k) <= eps)
    return _certificate(model, r, eps, cut, provenance)


def _certificate(model: PmfModel, r: float, eps: float, cut: int, provenance: str) -> MomentCertificate:
    """C_r summed through ``cut``, plus eps."""
    partial = power_sum_partial(model, r, cut)
    return MomentCertificate(
        r=r, C_r=partial + eps, slack=eps, truncation_index=cut, provenance=provenance
    )


def entropy_interval(model: PmfModel, certificate: MomentCertificate, tol: float) -> EntropyInterval:
    """Enclose the entropy H = -sum p_k log p_k in an interval of width <= tol.

    The lower endpoint is an exact partial sum (every term is nonnegative,
    so truncation can only undershoot). The upper endpoint adds the
    certified tail remainder of the power sum at order ``certificate.r``,
    scaled by 1/(e*r): pointwise, -p log p <= p**(1-r) / (e*r).
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    r = certificate.r
    scale = 1.0 / (math.e * r)
    rungs = _truncation_ladder(
        model, _own_tail(model), 1.0 - r, 64, lambda: f"entropy tolerance {tol:g} at r={r:g}"
    )
    for k_cut, remainder in rungs:
        remainder *= scale
        if remainder <= tol:
            break
    lower = _log_pmf_sum(model, _entropy_term, 1, k_cut)
    return EntropyInterval(lower=lower, upper=lower + remainder, tolerance=tol)


def entropy_upper_coarse(certificate: MomentCertificate) -> float:
    """One-line entropy cap C_r / (e * r), no extra summation required."""
    return certificate.C_r / (math.e * certificate.r)
