"""Moment certification and entropy intervals.

Closed forms used as oracles here:
  * Geometric(p) power sum: sum_k p_k**(1-r) = p**(1-r) / (1 - (1-p)**(1-r)),
    which at p = 1/2, r = 1/2 equals sqrt(2) + 1.
  * Zeta(2) power sum at r = 1/4: zeta(3/2) / zeta(2)**(3/4), frozen below
    from a 50-digit computation.
  * Geometric(1/2) entropy: 2 log 2. Poisson(1) and Zeta(2) entropies frozen
    from 50-digit partial sums with certified tail control.
"""

import dataclasses
import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entrobound.certify as certify_module
import entrobound.distributions as distributions_module
from entrobound import (
    AdmissibilityError,
    DEFAULT_SLACK,
    EntropyInterval,
    Geometric,
    GeometricRatioTail,
    MomentCertificate,
    ModelError,
    NegativeBinomial,
    Poisson,
    PowerLawTail,
    ResourceCapError,
    Tabulated,
    Zeta,
    admissible_r_interval,
    bernstein_constants,
    certify_moment,
    certify_moment_powerlaw,
    certify_moment_ratio,
    default_r,
    entropy_interval,
    entropy_upper_coarse,
    power_sum_partial,
    select_r,
)
from entrobound.summation import CHUNK, indexed_chunk_sum

SQRT2_PLUS_1 = 2.414213562373095
# zeta(1.5) / zeta(2)**0.75 and 1/zeta(2), both from mpmath at 50 digits
ZETA2_POWER_SUM_R25 = 1.7985569984691312
ZETA2_C0 = 0.6079271018540266

H_GEOM_HALF = 1.3862943611198906  # 2 log 2
H_POISSON_1 = 1.3048422422562515
H_ZETA_2 = 1.6376222886598110


def geometric_power_sum(prob: float, r: float) -> float:
    s = 1.0 - r
    return prob**s / (1.0 - (1.0 - prob) ** s)


# -- certification against closed forms --------------------------------------


@pytest.mark.parametrize("slack", [1e-2, 1e-4, 1e-6])
def test_geometric_certificate_brackets_closed_form(geom_half, slack):
    cert = certify_moment(geom_half, r=0.5, eps=slack)
    assert cert.provenance == "ratio"
    assert cert.slack == slack
    # ratio certification never undershoots and overshoots by at most slack
    assert -1e-12 <= cert.C_r - SQRT2_PLUS_1 <= slack * (1.0 + 1e-12)


def test_zeta_certificate_truncation_and_value(zeta_two):
    cert = certify_moment(zeta_two, r=0.25, eps=0.01)
    assert cert.provenance == "powerlaw"
    assert cert.truncation_index == 14784
    assert abs(cert.C_r - ZETA2_POWER_SUM_R25) <= 0.01
    # The power-law truncation rule controls the discarded tail only up to
    # a factor c0**(-r) when c0 < 1, so the certified value may undershoot
    # the true series by slack * (c0**(-r) - 1). That is the honest bracket.
    allowance = 0.01 * (ZETA2_C0 ** (-0.25) - 1.0)
    assert cert.C_r >= ZETA2_POWER_SUM_R25 - allowance - 1e-9
    assert cert.C_r <= ZETA2_POWER_SUM_R25 + 0.01 + 1e-12


@given(
    prob=st.floats(0.05, 0.95),
    r=st.floats(0.05, 0.9),
    exponent=st.integers(-6, -1),
)
@settings(max_examples=60, deadline=None)
def test_ratio_certificates_bracket_geometric_closed_form(prob, r, exponent):
    eps = 10.0**exponent
    cert = certify_moment(Geometric(prob), r=r, eps=eps)
    truth = geometric_power_sum(prob, r)
    overshoot = cert.C_r - truth
    assert -1e-9 <= overshoot <= eps * (1.0 + 1e-9) + 1e-12


def test_ratio_certificate_with_loose_slack(geom_half):
    # slack so large that the very first index already satisfies the bound
    cert = certify_moment(geom_half, r=0.5, eps=10.0)
    assert cert.truncation_index == 1
    assert cert.C_r == pytest.approx(2.0**-0.5 + 10.0, rel=1e-15)


def test_poisson_certificate_value(poisson_one):
    cert = certify_moment(poisson_one, r=0.5, eps=1e-9)
    assert -1e-12 <= cert.C_r - 2.1043619538235984 <= 1e-9 + 1e-12


def test_certify_moment_dispatch_and_defaults(geom_half, zeta_two):
    g = certify_moment(geom_half)
    assert g.r == 0.5 and g.provenance == "ratio" and g.slack == DEFAULT_SLACK
    z = certify_moment(zeta_two, eps=1e-2)
    assert z.r == 0.25 and z.provenance == "powerlaw"


def test_truncation_rule_matches_independent_evaluation(zeta_two):
    """Spot tuples for the max/ceiling truncation rule, at 50 digits."""
    mpmath.mp.dps = 50
    cases = [
        (2.0, 0.25, 0.01, ZETA2_C0, 1),
        (2.5, 0.3, 0.05, 1.3, 10),
        (3.0, 0.45, 0.001, 0.9, 5),
        (1.8, 0.1, 0.2, 0.4, 2),
    ]
    for alpha, r, eps, c0, k0 in cases:
        decay = mpmath.mpf(alpha) * (1 - mpmath.mpf(r)) - 1
        raw = (mpmath.mpf(eps) * decay / mpmath.mpf(c0)) ** (-1 / decay)
        expected = max(k0, int(mpmath.ceil(raw)), 1)
        tail = PowerLawTail(k0=k0, c0=c0, alpha=alpha)
        cert = certify_moment_powerlaw(Zeta(alpha), r, eps, tail=tail)
        assert cert.truncation_index == expected, (alpha, r, eps, c0, k0)


def test_power_sum_partial_matches_direct_sum(geom_half):
    direct = math.fsum(
        math.exp(0.5 * geom_half.log_pmf(k)) for k in range(1, 201)
    )
    assert power_sum_partial(geom_half, 0.5, 200) == pytest.approx(direct, rel=1e-14)


def _per_chunk_sum(model, term, start, stop):
    """A series summed as the package summed it before the head served sums:
    every chunk of ``CHUNK`` outcomes from a fresh ``log_pmf_array``, its
    terms a fresh array, ``np.sum`` per chunk and ``math.fsum`` over them."""
    parts = []
    for lo in range(start, stop + 1, CHUNK):
        hi = min(lo + CHUNK - 1, stop)
        parts.append(float(np.sum(term(model.log_pmf_array(np.arange(lo, hi + 1, dtype=np.int64))))))
    return math.fsum(parts)


@pytest.mark.parametrize("warm", [None, "head", "sampler"])
def test_series_across_chunk_equal_the_per_chunk_reference(warm):
    model = Zeta(2.5)
    if warm == "head":
        model.log_pmf(2**20)
    elif warm == "sampler":
        model._lookup(np.array([1 - 1e-10]))  # a head past CHUNK
        assert model._head.size > CHUNK
    stop, s, lam = CHUNK + 5000, 1.0 - 0.3, -0.25
    assert power_sum_partial(model, 0.3, stop) == _per_chunk_sum(model, lambda lp: np.exp(s * lp), 1, stop)
    entropy = certify_module._log_pmf_sum(model, certify_module._entropy_term, 1, stop)
    assert entropy == _per_chunk_sum(model, lambda lp: -np.exp(lp) * lp, 1, stop)
    # an MGF rung's range, starting inside the head's cap and ending past it
    mgf = certify_module._log_pmf_sum(model, certify_module._mass_power(1.0 + lam), 2**19 + 1, 2**21 + 7)
    assert mgf == _per_chunk_sum(model, lambda lp: np.exp((1.0 + lam) * lp), 2**19 + 1, 2**21 + 7)


def _mp_tail_power_sum(model, k, s):
    """sum_{j > k} p_j**s from the model's parameters, exact as binary
    floats, at the working precision. Zeta's tail is a Hurwitz zeta value;
    ``nsum`` on it is slow and, at s = 0.5, off by 1e-13 relative."""
    if isinstance(model, Zeta):
        alpha = mpmath.mpf(model.exponent)
        return mpmath.zeta(alpha * s, k + 1) / mpmath.zeta(alpha) ** s
    return mpmath.nsum(lambda j: mpmath.exp(s * _mp_log_mass(model, j)), [k + 1, mpmath.inf])


def _mp_log_mass(model, j):
    if isinstance(model, Geometric):
        p = mpmath.mpf(model.prob)
        return mpmath.log(p) + (j - 1) * mpmath.log1p(-p)
    if isinstance(model, Poisson):
        lam = mpmath.mpf(model.rate)
        return -lam + (j - 1) * mpmath.log(lam) - mpmath.loggamma(j)
    size, prob, c = mpmath.mpf(model.size), mpmath.mpf(model.prob), j - 1
    return (
        mpmath.loggamma(c + size) - mpmath.loggamma(size) - mpmath.loggamma(c + 1)
        + size * mpmath.log1p(-prob) + c * mpmath.log(prob)
    )


@pytest.mark.parametrize("s", [1.0, 0.75, 0.5])
@pytest.mark.parametrize(
    "model",
    [Geometric(0.5), Geometric(0.3), Poisson(4.0), NegativeBinomial(3.0, 0.4), Zeta(2.5)],
    ids=repr,
)
def test_tail_remainder_dominates_the_mpmath_tail(model, s):
    tail = model.tail_certificate()
    remainder = tail.remainder(model, s)
    # Geometric's ratio cap holds with equality, so its bound is the tail
    # itself in real arithmetic and float rounding may land either side;
    # making the bound hold in floats is ROADMAP Direction 2. Every other
    # bound here is strict, and is checked with no allowance.
    allowance = 1e-14 if isinstance(model, Geometric) else 0.0
    with mpmath.workdps(40):
        for k in (tail.k0, tail.k0 + 5, 8 * tail.k0 + 60):
            truth = _mp_tail_power_sum(model, k, s)
            assert mpmath.mpf(remainder(k)) >= truth * (1 - allowance), (k, remainder(k), truth)


def test_powerlaw_remainder_requires_convergence(zeta_two):
    tail = zeta_two.tail_certificate()
    with pytest.raises(AdmissibilityError):
        tail.remainder(zeta_two, 0.5)  # alpha*s = 1 diverges
    for s in (0.0, 1.5):
        with pytest.raises(ValueError, match="power must lie in"):
            tail.remainder(zeta_two, s)


# -- admissibility ------------------------------------------------------------


def test_admissible_interval_shapes(geom_half, zeta_two):
    assert admissible_r_interval(geom_half.tail_certificate()) == (0.0, 1.0)
    assert admissible_r_interval(zeta_two.tail_certificate()) == (0.0, 0.5)
    assert default_r(geom_half.tail_certificate()) == 0.5
    assert default_r(zeta_two.tail_certificate()) == 0.25


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_zeta_boundary_order_rejected(alpha):
    model = Zeta(alpha)
    boundary = (alpha - 1.0) / alpha
    for r in (boundary, min(0.99, boundary + 0.05)):
        with pytest.raises(AdmissibilityError, match="inadmissible r"):
            certify_moment(model, r=r, eps=0.5)
    cert = certify_moment(model, r=0.5 * boundary, eps=0.5)
    assert cert.C_r > 0


@pytest.mark.parametrize("r", [0.0, 1.0, -0.25, 1.5])
def test_degenerate_orders_rejected(geom_half, r):
    with pytest.raises(AdmissibilityError):
        certify_moment(geom_half, r=r)


def test_certificate_slack_validation(geom_half):
    with pytest.raises(ValueError):
        certify_moment(geom_half, r=0.5, eps=0.0)
    with pytest.raises(ValueError):
        certify_moment(geom_half, r=0.5, eps=-1e-3)


def test_wrong_tail_shape_is_rejected(geom_half, zeta_two):
    with pytest.raises(ModelError):
        certify_moment_powerlaw(geom_half, 0.5, 1e-3)
    with pytest.raises(ModelError):
        certify_moment_ratio(zeta_two, 0.25, 1e-3)


# -- the truncation search against the linear scan it replaced -----------------


def _reference_log_pmf(model, k):
    """log p_k straight from ``log_pmf_array``, never from the model's head."""
    return float(model.log_pmf_array(np.asarray([k], dtype=np.int64))[0])


def _reference_log_mass_upper(model, tail, k):
    n = model.max_index()
    if n is None or k <= n:
        return _reference_log_pmf(model, k)
    if n < tail.k0:
        raise ModelError("no anchor exists for the unlisted tail")
    return _reference_log_pmf(model, n) + (k - n) * math.log(tail.q)


def _reference_ratio_scan(model, r, eps):
    """Ratio certification as a linear scan over m = k0, k0 + 1, ...: the
    smallest m whose remainder bound meets eps, one index at a time. It
    reads no log-pmf head, and sums the way the package did before it had
    one."""
    tail = model.tail_certificate()
    s = 1.0 - r
    denom = 1.0 - tail.q**s
    limit = model.max_index() if model.max_index() is not None else certify_module.TRUNCATION_CAP
    m = tail.k0
    while True:
        if math.exp(s * _reference_log_mass_upper(model, tail, m + 1)) / denom <= eps:
            break
        m += 1
        if m > limit:
            if model.max_index() is not None:
                raise ModelError("slack is unreachable with the listed masses")
            raise ResourceCapError("needs partial sums beyond the cap")
    partial = indexed_chunk_sum(
        lambda lo, hi: np.exp(s * model.log_pmf_array(np.arange(lo, hi + 1, dtype=np.int64))), 1, m
    )
    return MomentCertificate(
        r=r, C_r=partial + eps, slack=eps, truncation_index=m, provenance="ratio"
    )


@st.composite
def ratio_tables(draw):
    """A table whose masses past k0 shrink by at most q, closed off by a
    ratio tail that covers a random share of its cap (none: complete)."""
    n = draw(st.integers(1, 40))
    k0 = draw(st.integers(1, n))
    q = draw(st.floats(0.05, 0.95))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=k0, max_size=k0))
    for shrink in draw(st.lists(st.floats(0.05, 1.0), min_size=n - k0, max_size=n - k0)):
        weights.append(weights[-1] * q * shrink)
    unlisted = draw(st.sampled_from([0.0, 1e-3, 0.5, 0.99]))
    w = np.asarray(weights)
    masses = w / (w.sum() + unlisted * w[-1] * q / (1.0 - q))
    return Tabulated(masses, tail=GeometricRatioTail(k0=k0, q=q))


ratio_models = st.one_of(
    st.builds(Geometric, st.floats(1e-3, 0.999)),
    st.builds(Poisson, st.floats(0.01, 60.0)),
    st.builds(NegativeBinomial, st.floats(0.1, 20.0), st.floats(0.01, 0.95)),
    ratio_tables(),
)


@given(
    model=ratio_models,
    r=st.floats(0.01, 0.9),
    slack=st.one_of(st.floats(-9.0, 0.0).map(lambda e: 10.0**e), st.just(10.0)),
)
@settings(max_examples=300, deadline=None)
def test_ratio_search_matches_linear_scan(model, r, slack):
    try:
        expected = _reference_ratio_scan(model, r, slack)
    except (ModelError, ResourceCapError) as exc:
        if isinstance(exc, ModelError) and model.is_complete():
            # A complete table needs no remainder past its end; the scan
            # still asked the ratio cap for one and gave up.
            cert = certify_moment_ratio(model, r, slack)
            assert cert.truncation_index == model.max_index()
            assert cert.C_r == power_sum_partial(model, r, model.max_index()) + slack
            return
        with pytest.raises(type(exc)):
            certify_moment_ratio(model, r, slack)
        return
    assert certify_moment_ratio(model, r, slack) == expected


@pytest.mark.parametrize("prob", np.geomspace(2e-3, 5e-2, 24).tolist())
def test_ratio_search_matches_linear_scan_at_the_cap(monkeypatch, prob):
    # With the cap at 1000 the ladder 1, 2, ..., 512 ends on a rung clamped
    # to the cap; indices between the last power of two and the cap must
    # still be found, and those past it refused.
    monkeypatch.setattr(certify_module, "TRUNCATION_CAP", 1000)
    model = Geometric(prob)
    try:
        expected = _reference_ratio_scan(model, 0.5, 1e-6)
    except ResourceCapError:
        with pytest.raises(ResourceCapError, match="beyond the cap of 1000"):
            certify_moment_ratio(model, 0.5, 1e-6)
        return
    assert certify_moment_ratio(model, 0.5, 1e-6) == expected


def test_ratio_cap_trips_at_once():
    # m would be about 5e10; a scan took hours to refuse it
    start = time.perf_counter()
    with pytest.raises(ResourceCapError, match="beyond the cap"):
        certify_moment(Geometric(1e-9))
    assert time.perf_counter() - start < 5.0


def test_complete_table_certifies_through_its_end():
    masses = [0.5, 0.3, 0.2]
    t = Tabulated(masses, tail=GeometricRatioTail(k0=1, q=0.7))
    cert = certify_moment(t, r=0.5, eps=1e-6)
    assert cert.truncation_index == 3
    assert cert.C_r == pytest.approx(math.fsum(m**0.5 for m in masses) + 1e-6, rel=1e-15)


_HALVES = [0.5**k for k in range(1, 60)] + [0.5**59]


@pytest.mark.parametrize(
    "masses,tail,eps,cut,provenance",
    [
        ([0.5, 0.25, 0.125, 0.125], PowerLawTail(k0=1, c0=2.0, alpha=2.0), 1e-3, 4, "powerlaw"),
        ([0.5, 0.25, 0.125, 0.125], None, 1e-3, 4, "exact"),
        # k0 past the end: the ratio cap covers no listed mass
        ([0.5, 0.25, 0.125, 0.125], GeometricRatioTail(k0=20, q=0.5), 1e-3, 4, "ratio"),
        # the power-law remainder 2**0.75 * k**-0.5 / 0.5 meets 0.5 at k = 46
        (_HALVES, PowerLawTail(k0=1, c0=2.0, alpha=2.0), 0.5, 46, "powerlaw"),
    ],
    ids=["powerlaw", "no-tail", "ratio-k0-past-end", "powerlaw-cut-before-end"],
)
def test_complete_table_certifies_with_any_tail(masses, tail, eps, cut, provenance):
    # the closed-form k1 summed past the end ("mass unknown"), and a table
    # without a tail had no certificate to certify from
    cert = certify_moment(Tabulated(masses, tail=tail), eps=eps)
    assert (cert.truncation_index, cert.provenance, cert.slack) == (cut, provenance, eps)
    assert cert.r == (0.25 if isinstance(tail, PowerLawTail) else 0.5)
    exact = math.fsum(m ** (1.0 - cert.r) for m in masses[:cut])
    assert cert.C_r == pytest.approx(exact + eps, rel=1e-15)


# -- a grid of orders on one walk up the ladder ---------------------------------


def _select_r_per_order(model, eps, target_eps):
    """``select_r`` as it was: one ``certify_moment`` call per grid point."""
    _, r_max = admissible_r_interval(certify_module._own_tail(model))
    best_r, best_objective, failure = None, math.inf, None
    for i in range(1, 22):
        r = r_max * i / 22.0
        try:
            cert = certify_moment(model, r=r, eps=eps)
        except (ResourceCapError, AdmissibilityError) as exc:
            failure = exc
            continue
        constants = bernstein_constants(cert)
        objective = constants.c1 + constants.c2 * target_eps
        if objective < best_objective:
            best_r, best_objective = r, objective
    if best_r is None:
        raise ResourceCapError(f"no grid point over (0, {r_max:g}) could be certified at slack {eps:g}") from failure
    return best_r


def _outcome(fn, *args, **kwargs):
    """What ``fn`` returns, or the type and message of the error it raises."""
    try:
        return fn(*args, **kwargs)
    except (AdmissibilityError, ModelError, ResourceCapError) as exc:
        return type(exc), str(exc)


@st.composite
def powerlaw_tables(draw):
    """A table whose masses past k0 lie under c0 * k**-alpha, closed off by
    that power-law tail with a random share of its cap unlisted (none:
    complete)."""
    n = draw(st.integers(1, 60))
    alpha = draw(st.floats(1.2, 5.0))
    k0 = draw(st.integers(0, n))
    ks = np.arange(1, n + 1, dtype=np.float64)
    rise = [draw(st.floats(0.05, 3.0 if k <= k0 else 1.0)) for k in range(1, n + 1)]
    w = np.asarray(rise) * ks**-alpha
    unlisted = draw(st.sampled_from([0.0, 0.5, 0.99])) * n ** (1.0 - alpha) / (alpha - 1.0)
    scale = w.sum() + unlisted
    return Tabulated(w / scale, tail=PowerLawTail(k0=k0, c0=float(1.0 / scale), alpha=alpha))


@st.composite
def complete_tables(draw):
    n = draw(st.integers(1, 60))
    w = np.asarray(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    return Tabulated(w / w.sum())


grid_models = st.one_of(
    st.builds(Geometric, st.floats(0.01, 0.999)),
    st.builds(Poisson, st.floats(0.01, 60.0)),
    st.builds(NegativeBinomial, st.floats(0.1, 20.0), st.floats(0.01, 0.9)),
    st.builds(Zeta, st.floats(4.0, 6.0)),
    ratio_tables(),
    powerlaw_tables(),
    complete_tables(),
)


def _warm(model, how):
    """Leave the head empty, or grown by a scalar lookup or by a series."""
    end = model.max_index() or 5000
    if how == "lookup":
        model.log_pmf(end)
    elif how == "series":
        power_sum_partial(model, 0.5 * admissible_r_interval(certify_module._own_tail(model))[1], end)


@given(model=grid_models, data=st.data(), warm=st.sampled_from([None, "lookup", "series"]))
@settings(max_examples=300, deadline=None)
def test_grid_is_the_per_order_certification(model, data, warm):
    tail = certify_module._own_tail(model)
    r_max = admissible_r_interval(tail)[1]
    grid = [r_max * i / 22.0 for i in range(1, 22)]
    # below slack 1, a zeta order near r_max sums up to 10^9 terms
    exponents = st.floats(0.0, 0.5) if isinstance(model, Zeta) else st.floats(-9.0, 0.0)
    eps = data.draw(exponents.map(lambda e: 10.0**e), label="eps")
    on_ladder = model.max_index() is not None or isinstance(tail, GeometricRatioTail)
    if tail is not None and on_ladder and data.draw(st.booleans(), label="eps on a bound"):
        # where the scalar test holds with equality, or just fails, so that
        # the guess and the test can disagree by rounding either way
        r = grid[data.draw(st.integers(0, 20), label="order")]
        end = model.max_index() or 2000
        k = data.draw(st.integers(min(max(tail.k0, 1), end), end), label="k")
        try:
            bound = tail.remainder(model, 1.0 - r)(k)
        except AdmissibilityError:
            bound = 0.0
        if 0.0 < bound < math.inf:
            eps = data.draw(st.sampled_from([bound, math.nextafter(bound, 0.0)]), label="eps at k")
    _warm(model, warm)
    results = certify_module._certify_orders(model, tail, grid, eps)
    for r, result in zip(grid, results):
        got = (type(result), str(result)) if isinstance(result, Exception) else result
        assert got == _outcome(certify_moment, model, r=r, eps=eps)
    assert _outcome(select_r, model, eps, 0.2) == _outcome(_select_r_per_order, model, eps, 0.2)


def test_grid_skips_orders_past_the_cap(monkeypatch):
    monkeypatch.setattr(certify_module, "TRUNCATION_CAP", 2000)
    model = Geometric(0.01)
    grid = [i / 22.0 for i in range(1, 22)]
    results = certify_module._certify_orders(model, model.tail_certificate(), grid, 1e-6)
    capped = [isinstance(result, ResourceCapError) for result in results]
    assert any(capped) and not all(capped)
    assert capped == sorted(capped)  # only the largest orders pass the cap
    for r, result in zip(grid, results):
        got = (type(result), str(result)) if isinstance(result, Exception) else result
        assert got == _outcome(certify_moment, model, r=r, eps=1e-6)
    assert select_r(model, 1e-6, 0.2) == _select_r_per_order(model, 1e-6, 0.2)


def _count_cut_guesses(monkeypatch) -> list:
    """Record every ``cut_guesses`` call, on either tail shape, from here on."""
    calls = []
    for shape in (GeometricRatioTail, PowerLawTail):
        guesses = getattr(shape, "cut_guesses", None)
        if guesses is not None:

            def counted(self, *args, guesses=guesses):
                calls.append(type(self))
                return guesses(self, *args)

            monkeypatch.setattr(shape, "cut_guesses", counted)
    return calls


@pytest.mark.parametrize("model", [Geometric(0.05), Poisson(7.0), NegativeBinomial(3.0, 0.6)], ids=repr)
@pytest.mark.parametrize("wrong", ["below", "above", "k0", "hi"])
def test_a_grid_certifies_each_unconfirmed_guess_alone(monkeypatch, model, wrong):
    # Guessed cuts are kept only where the scalar test confirms them; any
    # other guess, however near, costs that order one certification alone.
    grid = [i / 22.0 for i in range(1, 22)]
    truth = {1.0 - r: certify_moment(model, r=r, eps=1e-6).truncation_index for r in grid}
    guessed = []

    def guesses(self, model, powers, eps, lo, hi):
        shifted = {"below": lambda k: k - 1, "above": lambda k: k + 1, "k0": lambda k: lo, "hi": lambda k: hi}
        found = [min(max(shifted[wrong](truth[s]), lo), hi) for s in powers]
        guessed.extend(k != truth[s] for s, k in zip(powers, found))
        return found

    certified = []

    def certify_alone(*args):
        certified.append(args[2])
        return _certify(*args)

    _certify = certify_module._certify
    monkeypatch.setattr(GeometricRatioTail, "cut_guesses", guesses)
    monkeypatch.setattr(certify_module, "_certify", certify_alone)
    results = certify_module._certify_orders(model, model.tail_certificate(), grid, 1e-6)
    assert len(guessed) == 20 and any(guessed)
    assert len(certified) == 1 + sum(guessed)
    for r, result in zip(grid, results):
        assert result == certify_moment(model, r=r, eps=1e-6)


def test_grid_past_the_head_cap_certifies_each_order_alone(monkeypatch):
    # With the head capped at 64 outcomes, every order's cut lies past it, so
    # no order shares another's walk: each walks the ladder and bisects alone.
    monkeypatch.setattr(distributions_module, "CHUNK", 64)
    calls = _count_cut_guesses(monkeypatch)
    grid = [i / 22.0 for i in range(1, 22)]
    results = certify_module._certify_orders(Geometric(0.05), Geometric(0.05).tail_certificate(), grid, 1e-6)
    assert calls == []
    assert min(result.truncation_index for result in results) > 64
    for r, result in zip(grid, results):
        assert result == certify_moment(Geometric(0.05), r=r, eps=1e-6)


def test_grid_on_a_power_law_table_certifies_each_order_alone(monkeypatch):
    # A power-law tail shares no walk. With a vacuous cap (c0 = 160 > 1) and
    # a slack of 90, the integral bound at k = 1 grows with the power: the
    # smallest order misses the slack at k = 1, where every larger one meets
    # it, so its cut lies past theirs. The largest misses the slack at the
    # table end.
    calls = _count_cut_guesses(monkeypatch)
    table = Tabulated([0.5, 0.25], tail=PowerLawTail(k0=1, c0=160.0, alpha=2.5))
    grid = [0.6 * i / 22.0 for i in range(1, 22)]
    results = certify_module._certify_orders(table, table.tail, grid, 90.0)
    assert calls == []
    assert [result.truncation_index for result in results[:-1]] == [2] + [1] * 19
    assert isinstance(results[-1], ModelError)
    for r, result in zip(grid, results):
        got = (type(result), str(result)) if isinstance(result, Exception) else result
        assert got == _outcome(certify_moment, table, r=r, eps=90.0)


# -- resource caps ------------------------------------------------------------


def test_powerlaw_resource_cap():
    with pytest.raises(ResourceCapError):
        certify_moment(Zeta(2.0), r=0.25, eps=1e-9)
    with pytest.raises(ResourceCapError):
        certify_moment(Zeta(1.05), eps=1e-6)


def test_tabulated_slack_floor_is_a_model_error():
    t = Tabulated([0.5, 0.25, 0.125], tail=GeometricRatioTail(k0=3, q=0.5))
    with pytest.raises(ModelError, match="unreachable"):
        certify_moment(t, r=0.5, eps=1e-6)
    cert = certify_moment(t, r=0.5, eps=0.9)
    assert cert.truncation_index == 3


# -- entropy intervals --------------------------------------------------------


def test_geometric_entropy_interval(geom_half):
    cert = certify_moment(geom_half, r=0.5, eps=1e-8)
    interval = entropy_interval(geom_half, cert, 1e-6)
    assert interval.upper - interval.lower <= 1e-6
    assert interval.lower - 1e-12 <= H_GEOM_HALF <= interval.upper + 1e-12
    assert entropy_upper_coarse(cert) >= interval.upper


def test_poisson_entropy_interval(poisson_one):
    cert = certify_moment(poisson_one, r=0.5, eps=1e-8)
    interval = entropy_interval(poisson_one, cert, 1e-6)
    assert interval.upper - interval.lower <= 1e-6
    assert interval.lower - 1e-12 <= H_POISSON_1 <= interval.upper + 1e-12


def test_zeta_entropy_interval(zeta_two):
    cert = certify_moment(zeta_two, r=0.25, eps=0.01)
    interval = entropy_interval(zeta_two, cert, 2e-3)
    assert interval.upper - interval.lower <= 2e-3
    assert interval.lower - 1e-12 <= H_ZETA_2 <= interval.upper + 1e-12
    assert entropy_upper_coarse(cert) == pytest.approx(
        cert.C_r / (math.e * cert.r), rel=1e-15
    )
    assert entropy_upper_coarse(cert) >= interval.upper


def test_entropy_interval_tolerance_cap(zeta_two):
    cert = certify_moment(zeta_two, r=0.25, eps=0.01)
    with pytest.raises(ResourceCapError):
        entropy_interval(zeta_two, cert, 1e-6)


def test_complete_table_entropy_is_exact():
    masses = [0.5, 0.25, 0.125, 0.125]
    t = Tabulated(masses)
    cert = MomentCertificate(
        r=0.5, C_r=float(sum(m**0.5 for m in masses)), slack=0.0,
        truncation_index=4, provenance="ratio",
    )
    interval = entropy_interval(t, cert, 1e-9)
    exact = -math.fsum(m * math.log(m) for m in masses)
    assert interval.lower == pytest.approx(exact, rel=1e-15)
    assert interval.upper == pytest.approx(exact, rel=1e-15)


def test_entropy_interval_midpoint():
    interval = EntropyInterval(lower=1.0, upper=1.5, tolerance=0.5)
    assert interval.midpoint == 1.25
    with pytest.raises(ValueError):
        EntropyInterval(lower=2.0, upper=1.0, tolerance=0.1)


# -- certificate serialisation -------------------------------------------------


def test_certificate_round_trip(tmp_path, geom_half):
    cert = certify_moment(geom_half, r=0.5, eps=1e-6)
    path = tmp_path / "cert.json"
    cert.save(path)
    again = MomentCertificate.load(path)
    assert again == cert


def test_to_dict_matches_asdict_and_is_a_copy(geom_half):
    cert = certify_moment(geom_half, r=0.5, eps=1e-6)
    payload = cert.to_dict()
    assert list(payload.items()) == list(dataclasses.asdict(cert).items())
    payload["C_r"] = 0.0
    assert cert.to_dict() == dataclasses.asdict(cert)
    assert cert.C_r > 0


def test_certificate_validation():
    with pytest.raises(AdmissibilityError):
        MomentCertificate(r=1.2, C_r=1.0, slack=0.0, truncation_index=1, provenance="ratio")
    with pytest.raises(ValueError):
        MomentCertificate(r=0.5, C_r=-1.0, slack=0.0, truncation_index=1, provenance="ratio")
    with pytest.raises(ValueError):
        MomentCertificate(r=0.5, C_r=1.0, slack=-0.1, truncation_index=1, provenance="ratio")
    with pytest.raises(ValueError):
        MomentCertificate(r=0.5, C_r=1.0, slack=0.0, truncation_index=-1, provenance="ratio")
    with pytest.raises(ValueError):
        MomentCertificate(r=0.5, C_r=1.0, slack=0.0, truncation_index=1, provenance="guess")
