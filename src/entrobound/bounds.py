"""Bernstein-style deviation bounds for the empirical average log-likelihood.

Most of this is plain arithmetic on certified constants; ``mgf_exact``
sums series on the truncation ladder, and ``select_r`` certifies a grid
of orders. Given a moment certificate (r, C_r), the two Bernstein
constants are

    c1 = 2 * C_r / (sqrt(pi) * r**2)        (variance proxy)
    c2 = 2 / r                              (scale proxy)

and the two-sided deviation bound for the mean of n i.i.d. log-likelihood
terms at radius eps is 2 * exp(-n * eps**2 / (c1 + c2 * eps)). The same
constants drive the closed-form inversions for sample size and radius,
and the MGF envelope used to sanity-check simulations.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .certify import (
    DEFAULT_SLACK,
    EntropyInterval,
    MomentCertificate,
    _certify_orders,
    _log_pmf_sum,
    _mass_power,
    _own_tail,
    _truncation_ladder,
    admissible_r_interval,
    default_r,
)
from .distributions import PmfModel
from .errors import AdmissibilityError, ResourceCapError

__all__ = [
    "SQRT_PI",
    "BernsteinConstants",
    "bernstein_constants",
    "deviation_bound",
    "heterogeneous_deviation_bound",
    "mgf_log_bound",
    "mgf_exact",
    "chernoff_lambda_star",
    "min_sample_size",
    "epsilon_for",
    "select_r",
]

# The only definition of sqrt(pi) in the package.
SQRT_PI = math.sqrt(math.pi)

# Past 2**53 a float n * eps**2 no longer changes when n steps by one, so
# the rounding loops of ``min_sample_size`` might never end.
_MAX_SAMPLE_SIZE = 2**53


@dataclass(frozen=True)
class BernsteinConstants:
    c1: float
    c2: float

    def __post_init__(self) -> None:
        if not (self.c1 >= 0 and math.isfinite(self.c1)):
            raise ValueError(f"c1 must be nonnegative and finite, got {self.c1!r}")
        if not (self.c2 > 0 and math.isfinite(self.c2)):
            raise ValueError(f"c2 must be positive and finite, got {self.c2!r}")


def _variance_proxy(C_r: float, r: float) -> float:
    """c1 = 2 * C_r / (sqrt(pi) * r**2), refused where it leaves the float range."""
    scale = SQRT_PI * r * r
    c1 = 2.0 * C_r / scale if scale > 0 else math.inf
    if not math.isfinite(c1):
        raise ValueError(
            f"moment order r={r!r} with C_r={C_r!r} gives c1 = 2*C_r/(sqrt(pi)*r**2), "
            f"which is not a finite float"
        )
    return c1


def bernstein_constants(certificate: MomentCertificate) -> BernsteinConstants:
    """Constants (c1, c2) induced by a moment certificate."""
    r = certificate.r
    return BernsteinConstants(c1=_variance_proxy(certificate.C_r, r), c2=2.0 / r)


def _check_n(n: int) -> int:
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"sample size must be an integer >= 1, got {n!r}")
    return int(n)


def deviation_bound(constants: BernsteinConstants, n: int, eps: float) -> float:
    """Two-sided tail bound 2 * exp(-n * eps**2 / (c1 + c2 * eps)).

    Values above 1 are returned verbatim; whether a bound is vacuous is
    the caller's verdict to make.
    """
    n = _check_n(n)
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"deviation radius must be positive and finite, got {eps!r}")
    return 2.0 * math.exp(-(n * eps * eps) / (constants.c1 + constants.c2 * eps))


def heterogeneous_deviation_bound(
    certificates: Sequence[MomentCertificate], n: int, eps: float
) -> float:
    """Deviation bound for independent but non-identical draws.

    All certificates must share the same moment order exactly; the bound
    is the homogeneous formula with the mean of the C_r values.
    """
    n = _check_n(n)
    if len(certificates) != n:
        raise ValueError(f"need one certificate per draw: got {len(certificates)} for n={n}")
    r = certificates[0].r
    if any(c.r != r for c in certificates):
        raise AdmissibilityError("certificates carry mixed moment orders; recertify at a shared r")
    mean_c = math.fsum(c.C_r for c in certificates) / n
    constants = BernsteinConstants(c1=_variance_proxy(mean_c, r), c2=2.0 / r)
    return deviation_bound(constants, n, eps)


def mgf_log_bound(certificate: MomentCertificate, lam: float) -> float:
    """Log of the certified envelope on the centred log-likelihood MGF.

    Defined for |lam| < r only:
    C_r * lam**2 / r**2 * 1 / (1 - |lam|/r) * 1 / (2 * sqrt(pi)).
    """
    r = certificate.r
    if not (math.isfinite(lam) and abs(lam) < r):
        raise ValueError(f"lambda must lie in (-r, r) = (-{r:g}, {r:g}), got {lam!r}")
    # the envelope is c1 / 4 * lam**2 / (1 - |lam|/r), so it also needs c1
    _variance_proxy(certificate.C_r, r)
    return (
        certificate.C_r
        * (lam * lam)
        / (r * r)
        / (1.0 - abs(lam) / r)
        / (2.0 * SQRT_PI)
    )


def chernoff_lambda_star(certificate: MomentCertificate, n: int, t: float) -> float:
    """Optimising tilt t / (n * C_r / (sqrt(pi) * r**2) + t / r).

    Lands strictly inside (0, r), or raises ``ValueError``: an r so small
    that c1 leaves the float range raises that of ``_variance_proxy``, and
    an n past the float range, or an n and t so far apart that the tilt
    rounds to 0 or to r, one naming them.
    """
    n = _check_n(n)
    if not (t > 0 and math.isfinite(t)):
        raise ValueError(f"total deviation t must be positive and finite, got {t!r}")
    r = certificate.r
    # the denominator is n * c1 / 2 + t / r, so it also needs c1
    _variance_proxy(certificate.C_r, r)
    try:
        size = float(n)
    except OverflowError:
        raise ValueError(f"sample size n of {len(str(n))} digits lies past the float range") from None
    tilt = t / (size * certificate.C_r / (SQRT_PI * r * r) + t / r)
    if not 0.0 < tilt < r:
        raise ValueError(
            f"sample size n={n} and total deviation t={t!r} put the optimising tilt "
            f"at {tilt!r}, not strictly inside (0, r={r!r}) in float arithmetic"
        )
    return tilt


def min_sample_size(constants: BernsteinConstants, eps: float, delta: float) -> int:
    """Smallest n with deviation_bound(constants, n, eps) <= delta.

    Closed form n >= (c1 + c2*eps) * log(2/delta) / eps**2, verified by
    one evaluation. Targets delta in [1, 2) are vacuous but legal; the
    bound starts below 2, so small n already suffices. A closed form that
    is not finite (eps**2 underflows) or exceeds 2**53 raises
    ``ResourceCapError``.
    """
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"deviation radius must be positive and finite, got {eps!r}")
    if not (0.0 < delta < 2.0):
        raise ValueError(f"target probability must lie in (0, 2), got {delta!r}")
    level = math.log(2.0 / delta)
    square = eps * eps
    raw = (constants.c1 + constants.c2 * eps) * level / square if square > 0.0 else math.inf
    if not raw <= _MAX_SAMPLE_SIZE:
        raise ResourceCapError(
            f"sample size {raw:.3g} for radius {eps:g} at delta {delta:g} exceeds the cap of 2**53"
        )
    n = max(1, math.ceil(raw))
    # The closed form is exact in real arithmetic; these two loops absorb
    # float rounding on either side so the result is truly minimal.
    while deviation_bound(constants, n, eps) > delta:
        n += 1
    while n > 1 and deviation_bound(constants, n - 1, eps) <= delta:
        n -= 1
    return n


def epsilon_for(constants: BernsteinConstants, n: int, delta: float) -> float:
    """Radius at which the deviation bound equals delta, for fixed n.

    Closed form root of the quadratic n*eps**2 = (c1 + c2*eps)*log(2/delta):
    eps = (c2*L + sqrt(c2**2*L**2 + 4*n*c1*L)) / (2*n) with L = log(2/delta).
    """
    n = _check_n(n)
    if not (0.0 < delta < 2.0):
        raise ValueError(f"target probability must lie in (0, 2), got {delta!r}")
    level = math.log(2.0 / delta)
    c1, c2 = constants.c1, constants.c2
    return (c2 * level + math.sqrt(c2 * c2 * level * level + 4.0 * n * c1 * level)) / (2.0 * n)


def mgf_exact(
    model: PmfModel,
    certificate: MomentCertificate,
    entropy: EntropyInterval,
    lam: float,
    tol: float = 1e-9,
) -> tuple[float, float]:
    """Certified interval around the exact centred log-likelihood MGF.

    The MGF factorises as (sum_k p_k**(1+lam)) * exp(lam * H). The series
    is bracketed by an exact partial sum plus a certified tail bound: for
    lam >= 0 the tail terms are dominated by the masses themselves, and
    for lam < 0 by p_k**(1-r), since 1+lam > 1-r inside the certified
    domain. The entropy factor is bracketed by the supplied interval.
    """
    r = certificate.r
    if not (math.isfinite(lam) and abs(lam) < r):
        raise ValueError(f"lambda must lie in (-r, r) = (-{r:g}, {r:g}), got {lam!r}")
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    if lam == 0.0:
        # The series is the total mass, which is 1 by normalisation.
        return (1.0, 1.0)

    if lam > 0:
        factor_lo, factor_hi = math.exp(lam * entropy.lower), math.exp(lam * entropy.upper)
        s = 1.0
    else:
        factor_lo, factor_hi = math.exp(lam * entropy.upper), math.exp(lam * entropy.lower)
        s = 1.0 - r

    term = _mass_power(1.0 + lam)
    partial, summed = 0.0, 0
    rungs = _truncation_ladder(model, _own_tail(model), s, 64, lambda: f"MGF tolerance {tol:g}")
    for k_cut, remainder in rungs:
        partial += _log_pmf_sum(model, term, summed + 1, k_cut)
        summed = k_cut
        lo = partial * factor_lo
        hi = (partial + remainder) * factor_hi
        if hi - lo <= tol:
            return (lo, hi)
        # The entropy interval sets a floor no amount of summation beats.
        if partial * (factor_hi - factor_lo) > tol:
            raise ResourceCapError(
                f"MGF tolerance {tol:g} is unreachable: the entropy interval alone "
                f"contributes width {partial * (factor_hi - factor_lo):.3g}"
            )


def select_r(
    model: PmfModel,
    eps: float = DEFAULT_SLACK,
    target_eps: float | None = None,
) -> float:
    """Pick a moment order for a model.

    Without a target radius this is the default rule (midpoint of the
    admissible interval for power-law tails, one half for ratio tails and
    for a complete table without a tail). With one, a 21-point grid over
    the admissible interval is certified and the order minimising
    c1 + c2 * target_eps wins; grid points whose certification exceeds
    the truncation budget are skipped. Each grid point's certificate is
    the one ``certify_moment`` gives, bit for bit; the model's tail is
    resolved once, and each order is certified alone, except that under a
    ratio tail, once an order's cut lies inside the head, a smaller order
    keeps its guessed cut where the scalar test confirms it, as
    ``certify._certify_orders`` describes.
    """
    tail = _own_tail(model)
    if target_eps is None:
        return default_r(tail)
    if not (target_eps > 0 and math.isfinite(target_eps)):
        raise ValueError(f"target radius must be positive and finite, got {target_eps!r}")
    _, r_max = admissible_r_interval(tail)
    grid = [r_max * i / 22.0 for i in range(1, 22)]
    best_r, best_objective = None, math.inf
    failure: Exception | None = None
    for r, cert in zip(grid, _certify_orders(model, tail, grid, eps)):
        if isinstance(cert, (ResourceCapError, AdmissibilityError)):
            failure = cert
            continue
        if isinstance(cert, Exception):
            raise cert
        constants = bernstein_constants(cert)
        objective = constants.c1 + constants.c2 * target_eps
        if objective < best_objective:
            best_r, best_objective = r, objective
    if best_r is None:
        raise ResourceCapError(
            f"no grid point over (0, {r_max:g}) could be certified at slack {eps:g}"
        ) from failure
    return best_r
