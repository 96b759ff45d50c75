"""Model layer: log-pmfs, tail certificates, sampling, tabulated I/O."""

import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entrobound.distributions as dist
from entrobound import (
    Geometric,
    GeometricRatioTail,
    MissingCertificateError,
    ModelError,
    NegativeBinomial,
    PmfModel,
    Poisson,
    PowerLawTail,
    ResourceCapError,
    Tabulated,
    Zeta,
    certify_moment,
    entropy_interval,
    mgf_exact,
    power_sum_partial,
    tail_from_dict,
)

# -- log-pmf values ----------------------------------------------------------


def test_geometric_log_pmf_values(geom_half):
    # p_k = 2**-k
    assert geom_half.log_pmf(1) == pytest.approx(math.log(0.5), rel=1e-15)
    assert geom_half.log_pmf(3) == pytest.approx(-3.0 * math.log(2.0), rel=1e-15)
    assert geom_half.log_pmf(10) == pytest.approx(-10.0 * math.log(2.0), rel=1e-15)


def test_poisson_log_pmf_values(poisson_one):
    # outcome 1 carries count 0: p = e**-1, so log p = -1 exactly
    assert poisson_one.log_pmf(1) == pytest.approx(-1.0, abs=1e-15)
    assert poisson_one.log_pmf(4) == pytest.approx(-1.0 - math.log(6.0), rel=1e-14)


def test_zeta_log_pmf_values(zeta_two):
    # p_1 = 1/zeta(2) = 6/pi**2
    assert zeta_two.log_pmf(1) == pytest.approx(math.log(6.0 / math.pi**2), rel=1e-14)
    assert zeta_two.log_pmf(10) == pytest.approx(
        -2.0 * math.log(10.0) + math.log(6.0 / math.pi**2), rel=1e-14
    )


@pytest.mark.parametrize("k", [1, 2, 3, 7, 40])
def test_families_match_scipy(k):
    """Cross-check each family's pmf against the scipy.stats reference.

    The package shifts count supports to start at 1, so scipy sees k - 1
    where our models see k; the negative binomial swaps the roles of the
    success and failure probabilities relative to scipy's convention.
    """
    assert Poisson(2.5).log_pmf(k) == pytest.approx(
        scipy.stats.poisson.logpmf(k - 1, 2.5), rel=1e-12
    )
    assert Geometric(0.3).log_pmf(k) == pytest.approx(
        scipy.stats.geom.logpmf(k, 0.3), rel=1e-12
    )
    assert NegativeBinomial(3.0, 0.4).log_pmf(k) == pytest.approx(
        scipy.stats.nbinom.logpmf(k - 1, 3.0, 0.6), rel=1e-12
    )
    assert Zeta(2.0).log_pmf(k) == pytest.approx(
        scipy.stats.zipf.logpmf(k, 2.0), rel=1e-12
    )


def test_outcomes_are_one_based(geom_half, zeta_two):
    with pytest.raises(ModelError):
        geom_half.log_pmf(0)
    with pytest.raises(ModelError):
        zeta_two.log_pmf_array(np.array([3, -1]))


def test_model_identity(geom_half):
    assert Geometric(0.5) == geom_half
    assert Geometric(0.5) != Geometric(0.25)
    assert Poisson(1.0) != Geometric(0.5)
    assert hash(Geometric(0.5)) == hash(geom_half)
    assert repr(Zeta(2.0)) == "Zeta(2.0)"
    assert Geometric(0.5).describe() == "geometric:0.5"
    assert NegativeBinomial(3, 0.4).describe() == "negbinomial:3.0,0.4"


@pytest.mark.parametrize(
    "family,bad",
    [
        (Geometric, 0.0),
        (Geometric, 1.0),
        (Geometric, -0.2),
        (Poisson, 0.0),
        (Poisson, math.inf),
        (Zeta, 1.0),
        (Zeta, 0.5),
    ],
)
def test_bad_parameters_rejected(family, bad):
    with pytest.raises(ModelError):
        family(bad)


def test_negative_binomial_bad_parameters():
    with pytest.raises(ModelError):
        NegativeBinomial(0.0, 0.4)
    with pytest.raises(ModelError):
        NegativeBinomial(3.0, 1.0)


# -- normalisation -----------------------------------------------------------


def _partial_mass(model: PmfModel, k_max: int) -> float:
    ks = np.arange(1, k_max + 1, dtype=np.int64)
    return float(math.fsum(np.exp(model.log_pmf_array(ks))))


@pytest.mark.parametrize(
    "model,k_max",
    [
        (Geometric(0.5), 100),
        (Geometric(0.05), 1500),
        (Poisson(1.0), 150),
        (Poisson(7.5), 200),
        (NegativeBinomial(3.0, 0.4), 300),
        (NegativeBinomial(0.5, 0.8), 800),
    ],
)
def test_light_tail_normalisation(model, k_max):
    """Partial mass plus the certified geometric tail cap brackets 1.

    The bracket must be tight: these tails decay fast enough that the
    chosen k_max leaves well under 1e-9 of mass uncovered.
    """
    partial = _partial_mass(model, k_max)
    tail = model.tail_certificate()
    assert k_max >= tail.k0
    p_last = math.exp(model.log_pmf(k_max))
    tail_cap = p_last * tail.q / (1.0 - tail.q)
    assert partial <= 1.0 + 1e-12
    assert partial + tail_cap >= 1.0 - 1e-12
    assert 1.0 - partial <= 1e-9


def test_zeta_normalisation(zeta_two):
    # Heavy tail: the bracket is honest but wide, shrinking like 1/k_max.
    k_max = 10_000
    partial = _partial_mass(zeta_two, k_max)
    tail = zeta_two.tail_certificate()
    tail_cap = tail.c0 * k_max ** (1.0 - tail.alpha) / (tail.alpha - 1.0)
    assert partial <= 1.0
    assert partial + tail_cap >= 1.0
    assert tail_cap < 1e-4


# -- tail certificates -------------------------------------------------------


def test_tail_certificate_shapes(geom_half, poisson_one, zeta_two):
    assert geom_half.tail_certificate() == GeometricRatioTail(k0=1, q=0.5)
    assert poisson_one.tail_certificate() == GeometricRatioTail(k0=2, q=0.5)
    z = zeta_two.tail_certificate()
    assert isinstance(z, PowerLawTail)
    assert z.k0 == 1 and z.alpha == 2.0
    assert z.c0 == pytest.approx(6.0 / math.pi**2, rel=1e-14)


def test_spot_checks_pass_on_own_certificates(geom_half, poisson_one, zeta_two):
    for model in (geom_half, poisson_one, zeta_two, NegativeBinomial(5.0, 0.6)):
        model.tail_certificate().spot_check(model, probes=1000)


def test_spot_check_catches_a_lie(zeta_two):
    # claim a much faster power-law decay than the true masses have
    lie = PowerLawTail(k0=1, c0=1.0 / zeta_two._zeta_value, alpha=4.0)
    with pytest.raises(ModelError, match="violated at k="):
        lie.spot_check(zeta_two, probes=200)


def test_ratio_spot_check_catches_a_lie(geom_half):
    lie = GeometricRatioTail(k0=1, q=0.25)
    with pytest.raises(ModelError, match="violated at k="):
        lie.spot_check(geom_half, probes=50)


@given(size=st.floats(0.1, 30.0), prob=st.floats(0.02, 0.95))
@settings(max_examples=60, deadline=None)
def test_negative_binomial_certificate_is_sound(size, prob):
    """The chosen k0 really starts a run where every ratio is capped by q.

    The ratio (k - 1 + size)/k * prob is monotone in k, so checking the
    first index and a probe batch pins the whole tail.
    """
    model = NegativeBinomial(size, prob)
    tail = model.tail_certificate()
    assert tail.q == (1.0 + prob) / 2.0
    assert model._mass_ratio(tail.k0) <= tail.q + 1e-12
    if tail.k0 > 1:
        # minimality: one step earlier the cap must fail
        assert model._mass_ratio(tail.k0 - 1) > tail.q
    tail.spot_check(model, probes=50, span=10_000)


@pytest.mark.parametrize("size", [0.3, 1.0, 1.0 + 2.0**-40, 1.5, 2.0, 3.0, 7.5, 20.0, 300.0, 4e4])
def test_negative_binomial_k0_is_the_first_capped_index(size):
    # k0 is, by definition, the first k >= 1 whose float ratio is capped by
    # q; the same float operations, vectorised, scan every k below 10**5
    ks = np.arange(1, 10**5 + 1, dtype=np.float64)
    for prob in (0.01, 0.2, 0.5, 0.6, 0.9, 0.99, 0.999, 0.9999, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12):
        model = NegativeBinomial(size, prob)
        capped = np.flatnonzero((ks - 1.0 + size) / ks * prob <= (1.0 + prob) / 2.0)
        if capped.size:
            assert model.tail_certificate().k0 == capped[0] + 1, prob
        else:
            try:
                assert model.tail_certificate().k0 > 10**5, prob
            except ResourceCapError:
                pass


@given(prob=st.floats(0.02, 0.98))
@settings(max_examples=40, deadline=None)
def test_geometric_certificate_is_exact(prob):
    model = Geometric(prob)
    tail = model.tail_certificate()
    ratio = math.exp(model.log_pmf(8) - model.log_pmf(7))
    assert ratio == pytest.approx(tail.q, rel=1e-12)


def test_tail_dict_round_trip():
    for tail in (PowerLawTail(3, 0.7, 2.5), GeometricRatioTail(2, 0.5)):
        assert tail_from_dict(tail.to_dict()) == tail
    with pytest.raises(ModelError):
        tail_from_dict({"type": "exponential", "rate": 1.0})
    # the documented spelling reads the same certificates as the alias
    assert tail_from_dict({"kind": "power_law", "k0": 3, "c0": 0.7, "alpha": 2.5}) == PowerLawTail(3, 0.7, 2.5)
    assert tail_from_dict({"kind": "geometric_ratio", "k0": 2, "q": 0.5}) == GeometricRatioTail(2, 0.5)
    with pytest.raises(ModelError, match="geometric_ratio"):
        tail_from_dict({"kind": "ratio_cap", "k0": 2, "q": 0.5})
    with pytest.raises(ModelError):
        tail_from_dict([2, 0.5])
    # k0 is read as an integer: an integral float is one, a fraction or a boolean is refused
    assert tail_from_dict({"kind": "geometric_ratio", "k0": 2.0, "q": 0.5}) == GeometricRatioTail(2, 0.5)
    for k0 in (2.9, True):
        with pytest.raises(ModelError, match="tail k0 must be an integer"):
            tail_from_dict({"kind": "power_law", "k0": k0, "c0": 0.7, "alpha": 2.5})


def test_tail_validation():
    with pytest.raises(ModelError):
        PowerLawTail(k0=-1, c0=1.0, alpha=2.0)
    with pytest.raises(ModelError):
        PowerLawTail(k0=1, c0=0.0, alpha=2.0)
    with pytest.raises(ModelError):
        PowerLawTail(k0=1, c0=1.0, alpha=1.0)
    with pytest.raises(ModelError):
        GeometricRatioTail(k0=0, q=0.5)
    with pytest.raises(ModelError):
        GeometricRatioTail(k0=1, q=1.0)


# -- sampling ----------------------------------------------------------------


def test_sampling_is_deterministic(geom_half, zeta_two):
    for model in (geom_half, zeta_two):
        a = model.sample(seed=42, count=5000)
        b = model.sample(seed=42, count=5000)
        assert np.array_equal(a, b)
        c = model.sample(seed=43, count=5000)
        assert not np.array_equal(a, c)


def test_sample_edge_cases(geom_half):
    assert geom_half.sample(seed=0, count=0).shape == (0,)
    with pytest.raises(ValueError):
        geom_half.sample(seed=0, count=-1)


def test_sampled_frequencies_match_pmf(geom_half, zeta_two):
    n = 100_000
    ks = geom_half.sample(seed=7, count=n)
    f1 = np.mean(ks == 1)
    # p_1 = 0.5; allow 4 binomial standard errors
    assert abs(f1 - 0.5) < 4.0 * math.sqrt(0.25 / n)

    zs = zeta_two.sample(seed=7, count=n)
    p1 = 6.0 / math.pi**2
    g1 = np.mean(zs == 1)
    assert abs(g1 - p1) < 4.0 * math.sqrt(p1 * (1 - p1) / n)


def test_sampled_law_total_variation(geom_half):
    """TV distance between empirical and exact law stays near MC noise."""
    n = 100_000
    ks = geom_half.sample(seed=11, count=n)
    top = 40
    counts = np.bincount(ks, minlength=top + 1)[1 : top + 1]
    exact = np.exp(geom_half.log_pmf_array(np.arange(1, top + 1, dtype=np.int64)))
    tv = 0.5 * float(np.abs(counts / n - exact).sum())
    tv += 0.5 * float(np.sum(ks > top) / n + 2.0 ** -float(top))
    assert tv < 0.01


def test_deep_tail_draw_hits_resource_cap(monkeypatch):
    monkeypatch.setattr(dist, "_CDF_INDEX_CAP", 4096)
    heavy = Zeta(1.05)
    with pytest.raises(ResourceCapError, match="inverse-CDF cache"):
        heavy._invert(np.array([0.9999]))


def test_zeta_cap_trips_before_the_cache_grows():
    # the draws reach past the mass a cache at the cap would hold
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="inverse-CDF cache would exceed 134217728 entries"):
            Zeta(1.5).sample(0, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


@pytest.mark.parametrize("exponent", [1.05, 1.5, 2.1, 3.0])
def test_zeta_tail_mass_floor_is_a_lower_bound(exponent):
    model = Zeta(exponent)
    for k in (1, 10, 1000, dist._CDF_INDEX_CAP):
        # the Hurwitz zeta function sums j**(-exponent) over j > k
        past = scipy.special.zeta(exponent, k + 1) / scipy.special.zeta(exponent)
        assert 0.0 < model._tail_mass_floor(k) <= past
    assert NegativeBinomial(2.5, 0.4)._tail_mass_floor(10) == 0.0


def test_early_refusal_is_where_growth_reaches_the_cap(monkeypatch):
    monkeypatch.setattr(dist, "_CDF_INDEX_CAP", 4096)
    u = np.array([0.9999])
    refused = Zeta(1.5)
    assert 1.0 - u[0] < refused._tail_mass_floor(4096)
    with pytest.raises(ResourceCapError, match="exceed 4096 entries"):
        refused._lookup(u)
    assert refused._cache is None
    # without the floor, the cache grows to the cap and then refuses
    monkeypatch.setattr(Zeta, "_tail_mass_floor", dist.PmfModel._tail_mass_floor)
    grown = Zeta(1.5)
    with pytest.raises(ResourceCapError, match="exceed 4096 entries"):
        grown._lookup(u)
    assert grown._cache.cdf.size == 4096


@pytest.mark.parametrize("prob", [1e-9, 1e-4, 0.003, 0.5])
def test_geometric_tail_mass_floor_is_a_lower_bound(prob):
    model = Geometric(prob)
    with mpmath.workdps(40):
        for k in (1, 10, 1000, 2**20, dist._CDF_INDEX_CAP):
            past = (1 - mpmath.mpf(prob)) ** k  # prob's exact binary value
            floor = model._tail_mass_floor(k)
            assert 0.0 <= floor <= past
            if past > 1e-300:
                assert floor >= past * (1 - mpmath.mpf(1e-12))


@pytest.mark.parametrize("rate", [3.0, 1e4, 1e6, 2e8])
def test_poisson_tail_mass_floor_is_a_lower_bound(rate):
    model = Poisson(rate)
    for k in (1, 2, int(rate / 2) + 1, int(rate), int(rate) + 2, dist._CDF_INDEX_CAP):
        # the mass past outcome k, P(count >= k), is the regularized lower
        # incomplete gamma function P(k, rate)
        past = scipy.special.gammainc(k, rate)
        assert 0.0 <= model._tail_mass_floor(k) <= past
    assert model._tail_mass_floor(1) > 0.0 and model._tail_mass_floor(int(rate) + 2) == 0.0


@pytest.mark.parametrize("size, prob", [(2.5, 0.4), (50.0, 0.9), (1e4, 0.5), (3.0, 0.999), (2e8, 0.5)])
def test_negative_binomial_tail_mass_floor_is_a_lower_bound(size, prob):
    model = NegativeBinomial(size, prob)
    mode = (size - 1.0) * prob / (1.0 - prob)
    ks = (1, 2, 10, int(mode / 2) + 1, int(mode), int(mode) + 2, dist._CDF_INDEX_CAP)
    with mpmath.workdps(40):
        n, p = mpmath.mpf(size), mpmath.mpf(prob)  # their exact binary values
        for k in ks:
            floor, x = model._tail_mass_floor(k), k - 1
            assert floor >= 0.0
            if floor == 0.0:
                continue
            # the mass past outcome k is that of the counts x + 1, x + 2, ...
            if x <= 20000:
                below, mass = 0, (1 - p) ** n
                for count in range(x + 1):
                    below += mass
                    mass *= (count + n) / (count + 1) * p
                past = 1 - below
            else:
                # the masses of counts 0..x rise, so they sum to at most x + 1
                # times the last
                assert (x - 1 + n) * p >= x
                last = mpmath.exp(
                    mpmath.loggamma(x + n) - mpmath.loggamma(n) - mpmath.loggamma(x + 1)
                    + n * mpmath.log1p(-p) + x * mpmath.log(p)
                )
                past = 1 - (x + 1) * last
            assert floor <= past
    # a floor past outcome 1, and none past the mode
    assert model._tail_mass_floor(1) > 0.0 and model._tail_mass_floor(int(mode) + 2) == 0.0


@pytest.mark.parametrize("model", [Geometric(1e-9), Poisson(2e8), NegativeBinomial(2e8, 0.5)], ids=repr)
def test_light_tail_cap_trips_before_the_cache_grows(model):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="inverse-CDF cache would exceed 134217728 entries"):
            model.sample(0, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


@pytest.mark.parametrize(
    "family, args", [(Geometric, (1e-4,)), (Poisson, (1e4,)), (NegativeBinomial, (2e4, 0.5))]
)
def test_light_tail_early_refusal_is_where_growth_reaches_the_cap(monkeypatch, family, args):
    monkeypatch.setattr(dist, "_CDF_INDEX_CAP", 4096)
    u = np.array([0.5])
    refused = family(*args)
    assert 1.0 - u[0] < refused._tail_mass_floor(4096)
    with pytest.raises(ResourceCapError, match="exceed 4096 entries"):
        refused._lookup(u)
    assert refused._cache is None
    # without the floor, the cache grows to the cap and then refuses
    monkeypatch.setattr(family, "_tail_mass_floor", dist.PmfModel._tail_mass_floor)
    grown = family(*args)
    with pytest.raises(ResourceCapError, match="exceed 4096 entries"):
        grown._lookup(u)
    assert grown._cache.offset + grown._cache.cdf.size == 4096


def test_cdf_cache_is_shared_and_consistent(geom_half):
    fresh = Geometric(0.25)
    first = fresh.sample(seed=1, count=100)
    # a second batch reuses the cache; values must match a cold model
    second = fresh.sample(seed=2, count=100)
    cold = Geometric(0.25)
    assert np.array_equal(second, cold.sample(seed=2, count=100))
    assert np.array_equal(first, cold.sample(seed=1, count=100))


def test_models_pickle_without_cache(zeta_two):
    zeta_two.sample(seed=0, count=10)
    clone = pickle.loads(pickle.dumps(zeta_two))
    assert clone == zeta_two
    assert clone._cdf is None
    assert np.array_equal(clone.sample(seed=5, count=50), zeta_two.sample(seed=5, count=50))


# -- log-pmf head ----------------------------------------------------------------


def _direct(model, k):
    """log p_k without the head."""
    return float(model.log_pmf_array(np.asarray([k], dtype=np.int64))[0])


@st.composite
def _head_tables(draw):
    """A random table, complete (no tail) or closed off by a ratio tail."""
    n = draw(st.integers(1, 3000))
    w = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(n) + 0.01
    if draw(st.booleans()):
        return Tabulated(w / w.sum())
    q = 0.999
    w = np.sort(w)[::-1] * q ** np.arange(n)
    return Tabulated(w / (w.sum() + 0.5 * w[-1] * q / (1 - q)), tail=GeometricRatioTail(k0=1, q=q))


_head_models = st.one_of(
    st.builds(Geometric, st.floats(1e-4, 0.999)),
    st.builds(Poisson, st.floats(0.01, 1e4)),
    st.builds(NegativeBinomial, st.floats(0.1, 50.0), st.floats(0.01, 0.99)),
    st.builds(Zeta, st.floats(1.01, 6.0)),
    _head_tables(),
)


@settings(max_examples=60, deadline=None)
@given(_head_models, st.integers(1, 5000))
def test_head_is_bitwise_log_pmf_array(model, k):
    k = min(k, model.max_index() or k)
    value = model.log_pmf(k)
    head = model._head
    assert not head.flags.writeable
    direct = model.log_pmf_array(np.arange(1, head.size + 1, dtype=np.int64))
    assert head.tobytes() == direct.tobytes()
    assert np.float64(value).tobytes() == np.float64(_direct(model, k)).tobytes()
    # Grown in a second step, the head still equals one direct call.
    deeper = min(4 * head.size, model.max_index() or 4 * head.size)
    model.log_pmf(deeper)
    direct = model.log_pmf_array(np.arange(1, model._head.size + 1, dtype=np.int64))
    assert model._head.tobytes() == direct.tobytes()


@pytest.mark.parametrize("k", [1, 1023, 1024, 1025, 2049, 65537, 2**20, 2**20 + 1])
def test_head_sizes_at_the_doubling_edges(k):
    fresh = Geometric(1e-6)
    assert fresh.log_pmf(k) == _direct(fresh, k)
    # k rounded up to a multiple of 1024, not to a power of two
    want = {1: 1024, 1023: 1024, 1024: 1024, 1025: 2048, 2049: 3072, 65537: 66560, 2**20: 2**20}.get(k)
    assert (None if fresh._head is None else fresh._head.size) == want
    # On a model whose head is already full, the same outcome reads the same.
    full = Geometric(1e-6)
    full.log_pmf(2**20)
    assert full.log_pmf(k) == _direct(fresh, k)
    assert full._head.size == 2**20


def test_a_ladder_leaves_a_head_sized_to_its_cut():
    # Its rungs probe p_(2**j + 1), and each probe grows the head only to
    # the next multiple of 1024.
    model = Geometric(0.001054)
    cut = certify_moment(model, eps=1.14e-6).truncation_index
    assert cut == 33_768
    assert model._head.size <= 2 * cut + 1024


# outcomes where the head, the outcome table and the ranges past it change
_EDGES = sorted(
    {1, 1023, 1024, 1025, dist.CHUNK - 1, dist.CHUNK, dist.CHUNK + 1}
    | {2**k + d for k in range(1, 22) for d in (-1, 0, 1)}
)
_outcome = st.one_of(st.sampled_from(_EDGES), st.integers(1, dist.CHUNK + 2**16))


def _fresh(model):
    """A copy of ``model`` with no head and no sampling cache."""
    return pickle.loads(pickle.dumps(model))


def _arange_bytes(model, lo, hi):
    return model.log_pmf_array(np.arange(lo, hi + 1, dtype=np.int64)).tobytes()


def _head_is_arange(model):
    return model._head is None or model._head.tobytes() == _arange_bytes(model, 1, model._head.size)


@settings(max_examples=40, deadline=None)
@given(_head_models, _outcome, _outcome, st.booleans())
@example(Geometric(1e-4), 1023, 1025, False)
@example(Zeta(2.5), dist.CHUNK - 1, dist.CHUNK + 1, False)
@example(Poisson(3e4), dist.CHUNK + 1, dist.CHUNK + 2**16, False)
@example(NegativeBinomial(2.5, 0.99), 2**17 + 1, dist.CHUNK, False)
@example(Tabulated(np.full(3000, 1 / 3000)), 2049, 1, True)
@example(Tabulated([0.5, 0.25], tail=GeometricRatioTail(k0=1, q=0.5)), 1, 2, True)
def test_every_way_to_a_log_mass_is_bitwise_log_pmf_array(model, a, b, at_end):
    end = model.max_index()
    if end is not None:
        a, b = min(a, end), end if at_end else min(b, end)
    lo, hi = min(a, b), max(a, b)
    direct = _arange_bytes(model, lo, hi)
    cap = model._head_cap()
    # a range, as a view of a head grown to it or computed past the cap
    ranged = _fresh(model)
    assert ranged.log_pmf_range(lo, hi).tobytes() == direct
    out = np.empty(hi - lo + 1)
    assert ranged.log_pmf_range(lo, hi, out).tobytes() == direct
    assert (ranged._head is None) == (hi > cap) and _head_is_arange(ranged)
    # a head grown by ranges, in two steps
    grown = _fresh(model)
    grown.log_pmf_range(lo, lo)
    grown.log_pmf_range(1, min(hi, cap))
    assert grown._head.size == min(hi, cap) and _head_is_arange(grown)
    # a head grown by scalar probes
    probed = _fresh(model)
    for k in (lo, hi):
        assert np.float64(probed.log_pmf(k)).tobytes() == np.float64(_direct(model, k)).tobytes()
    inside = [k for k in (lo, hi) if k <= cap]
    if inside:  # each probe rounds the head up to a multiple of 1024
        assert probed._head.size == min(cap, -(-max(inside) // 1024) * 1024)
    assert _head_is_arange(probed)
    # a head grown by the sampling cache, up to about outcome hi
    sampled = _fresh(model)
    masses = np.exp(model.log_pmf_array(np.arange(1, hi + 1, dtype=np.int64)))
    sampled._extend_cdf(math.fsum(masses) * (1 - 2**-40))
    assert _head_is_arange(sampled)


@settings(max_examples=20, deadline=None)
@given(_head_models, _outcome, st.integers(0, 3))
def test_ranges_keep_the_errors_of_log_pmf_array(model, hi, below):
    end = model.max_index()
    ranges = [(-below, hi)] + ([] if end is None else [(min(hi, end), end + 1 + below)])
    for lo, top in ranges:
        with pytest.raises(ModelError) as direct:
            model.log_pmf_array(np.arange(lo, top + 1, dtype=np.int64))
        with pytest.raises(ModelError) as ranged:
            _fresh(model).log_pmf_range(lo, top)
        assert str(ranged.value) == str(direct.value)


def test_ranges_the_outcome_table_cannot_hold_take_int64_outcomes():
    model = Geometric(1e-3)
    for lo, hi in [(2**53 - 2, 2**53 + 2), (5, dist.CHUNK + 5)]:
        assert model.log_pmf_range(lo, hi).tobytes() == _arange_bytes(model, lo, hi)
    assert model._head is None


def test_a_deep_zeta_power_sum_is_bitwise_the_per_chunk_sum():
    # the benchmark's deepest power-law sum: zeta near 2.53 at r = r_max / 2
    model, alpha, stop = Zeta(2.533), 2.533, 2_808_368
    r = (alpha - 1.0) / (2.0 * alpha)
    parts = []
    for lo in range(1, stop + 1, dist.CHUNK):
        ks = np.arange(lo, min(lo + dist.CHUNK - 1, stop) + 1, dtype=np.int64)
        parts.append(float(np.add.reduce(np.exp(model.log_pmf_array(ks) * (1.0 - r)))))
    assert power_sum_partial(model, r, stop) == math.fsum(parts)


def test_ranges_read_the_head_they_lie_in():
    model = Geometric(0.001)
    power_sum_partial(model, 0.5, 5000)
    assert model._head.size == 5000  # a series grows the head to its last outcome
    assert model._head_buf.size == 8192  # in a buffer sized as a scalar lookup sizes it
    view = model.log_pmf_range(3, 1024)
    assert not view.flags.writeable
    direct = model.log_pmf_array(np.arange(3, 1025, dtype=np.int64))
    assert view.tobytes() == direct.tobytes()
    crossing = model.log_pmf_range(8000, 8200)  # past the head's end, within the cap
    assert not crossing.flags.writeable and model._head.size == 8200
    assert model._head_buf.size == 16384
    assert crossing.tobytes() == model.log_pmf_array(np.arange(8000, 8201, dtype=np.int64)).tobytes()
    # past the cap, computed into the buffer given and not stored
    out = np.empty(40)
    past = model.log_pmf_range(2**20 - 9, 2**20 + 30, out)
    assert past is out
    assert past.tobytes() == model.log_pmf_array(np.arange(2**20 - 9, 2**20 + 31, dtype=np.int64)).tobytes()
    assert model._head.size == 8200


def test_head_stops_at_chunk_and_table_end():
    model = Geometric(1e-7)
    model.log_pmf(2**20 + 5000)
    assert model._head is None
    model.log_pmf(2**20)
    assert model._head.size == 2**20
    model.log_pmf(2**20 + 5000)
    assert model._head.size == 2**20
    table = Tabulated(np.full(1500, 1.0 / 1500))
    table.log_pmf(3)
    assert table._head.size == 1024
    table.log_pmf(1025)
    assert table._head.size == 1500


def test_tabulated_head_ends_with_the_table():
    t = Tabulated([0.5, 0.25, 0.125], tail=GeometricRatioTail(k0=3, q=0.5))
    assert t.log_pmf(3) == _direct(t, 3) == math.log(0.125)
    assert t._head.size == 3
    with pytest.raises(ModelError, match="mass unknown: outcome 4 lies beyond the 3 listed"):
        _direct(t, 4)
    with pytest.raises(ModelError, match="mass unknown: outcome 4 lies beyond the 3 listed"):
        t.log_pmf(4)
    with pytest.raises(ModelError, match="mass unknown"):
        t.log_pmf_range(2, 4)


@pytest.mark.parametrize("warm", [False, True])
def test_head_refuses_outcomes_below_one(warm):
    model = Zeta(2.0)
    if warm:
        model.log_pmf(10)
    for k in (0, -1):
        with pytest.raises(ModelError, match="1-based"):
            model.log_pmf(k)
    with pytest.raises(ModelError, match="1-based"):
        model.log_pmf_range(0, 4)


def test_models_pickle_without_head():
    model = Poisson(3.0)
    model.log_pmf(2**20)
    model.sample(0, 10)
    assert model._head.nbytes == 8 * 2**20 and model._cdf_buf is not None
    blob = pickle.dumps(model)
    assert len(blob) < 4096
    clone = pickle.loads(blob)
    assert clone == model and clone._head is None
    assert clone._head_buf is None and clone._cdf_buf is None
    assert clone.log_pmf(77) == model.log_pmf(77)


def test_certify_then_sample_computes_each_log_mass_once(monkeypatch):
    terms = []
    original = Geometric.log_pmf_array

    def counted(self, ks, out=None):
        terms.append(len(ks))
        return original(self, ks, out)

    monkeypatch.setattr(Geometric, "log_pmf_array", counted)
    model = Geometric(0.002)
    certify_moment(model, r=0.05)
    certified = model._head.size
    model.sample(0, 1000)
    model._lookup(np.array([1.0 - 1e-15]))  # grows the cache past the certified head
    assert model._head.size > certified and not model._cache.exhausted
    assert sum(terms) == model._head.size


def test_a_futile_cdf_extension_leaves_the_head_as_it_was():
    # The last extension finds the tail below float resolution and keeps nothing.
    model = Geometric(0.003)
    model._lookup(np.array([np.nextafter(1.0, 0.0)]))
    assert model._cache.exhausted
    assert model._head.size == model._cache.offset + model._cache.cdf.size
    assert not model._head.flags.writeable
    # A head certification grew first is never shrunk below its size.
    model = Geometric(0.003)
    certify_moment(model)
    certified = model._head.size
    model._lookup(np.array([np.nextafter(1.0, 0.0)]))
    assert model._head.size == certified > model._cache.offset + model._cache.cdf.size


def _one_expression_log_pmf(model, ks):
    """Each family's log-pmf as one numpy expression on fresh arrays, the way
    ``log_pmf_array`` computed it before it could write into a buffer."""
    if isinstance(model, Tabulated):
        return np.log(model.masses[ks - 1])
    ks = ks.astype(np.float64)
    if isinstance(model, Geometric):
        return (ks - 1.0) * math.log1p(-model.prob) + math.log(model.prob)
    if isinstance(model, Zeta):
        return -model.exponent * np.log(ks) - math.log(model._zeta_value)
    counts, gammaln = ks - 1.0, scipy.special.gammaln
    if isinstance(model, Poisson):
        return -model.rate + counts * math.log(model.rate) - gammaln(counts + 1.0)
    return (
        gammaln(counts + model.size)
        - gammaln(model.size)
        - gammaln(counts + 1.0)
        + model.size * math.log1p(-model.prob)
        + counts * math.log(model.prob)
    )


@settings(max_examples=60, deadline=None)
@given(_head_models, st.lists(st.integers(1, 5000), min_size=1, max_size=300), st.integers(0, 3))
def test_log_pmf_array_into_a_buffer_is_bitwise_a_fresh_array(model, ks, skip):
    ks = np.minimum(np.asarray(ks, dtype=np.int64), model.max_index() or 5000)
    fresh = model.log_pmf_array(ks)
    assert fresh.tobytes() == _one_expression_log_pmf(model, ks).tobytes()
    # a view into a larger buffer, at any offset, as the head and the sums pass
    buf = np.full(ks.size + skip + 2, np.nan)
    out = buf[skip : skip + ks.size]
    assert model.log_pmf_array(ks, out=out) is out
    assert out.tobytes() == fresh.tobytes()
    assert np.isnan(buf[:skip]).all() and np.isnan(buf[skip + ks.size :]).all()


def test_series_and_sampling_compute_each_log_mass_at_most_once(monkeypatch):
    computed = []
    original = Zeta.log_pmf_array

    def counted(self, ks, out=None):
        computed.append(np.array(ks, dtype=np.int64))
        return original(self, ks, out)

    monkeypatch.setattr(Zeta, "log_pmf_array", counted)
    model = Zeta(3.0)
    cert = certify_moment(model, eps=1e-3)
    interval = entropy_interval(model, cert, 1e-4)
    for x in (-0.9, -0.6, -0.3, -0.1, 0.1, 0.3, 0.6, 0.9):
        mgf_exact(model, cert, interval, x * cert.r, tol=1e-4)
    model.sample(0, 5000)
    ks = np.concatenate(computed)
    assert np.unique(ks).size == ks.size  # no outcome computed twice
    assert model._head.size == ks.size  # and every one computed is kept


def test_a_series_computes_exactly_the_log_masses_it_sums(monkeypatch):
    computed = []
    original = Zeta.log_pmf_array

    def counted(self, ks, out=None):
        computed.append(np.array(ks, dtype=np.int64))
        return original(self, ks, out)

    monkeypatch.setattr(Zeta, "log_pmf_array", counted)
    model = Zeta(2.533)
    total = power_sum_partial(model, 0.3026, 452_749)
    ks = np.concatenate(computed)
    assert ks.size == 452_749 and np.array_equal(np.sort(ks), np.arange(1, 452_750))
    assert model._head.size == 452_749
    log_masses = original(model, np.arange(1, 452_750, dtype=np.int64))
    assert total == float(np.add.reduce(np.exp(np.multiply(log_masses, 1.0 - 0.3026))))
    # a longer series computes only the outcomes the first one did not
    computed.clear()
    power_sum_partial(model, 0.3026, 600_000)
    assert np.array_equal(np.concatenate(computed), np.arange(452_750, 600_001))
    assert model._head.size == 600_000


# -- block-grown inverse-CDF cache ---------------------------------------------


def _doubling_build(model, size):
    """Cumulative masses of outcomes 1..size as a build of whole chunks makes
    them: chunks end at 1024 * 2**j and at the table end, and each is
    ``base + np.cumsum(np.exp(log_pmf))``, base the mass before it."""
    end = model.max_index() or math.inf
    have, base, chunks = 0, 0.0, []
    while have < size:
        want = min(end, max(1024, 2 * have))
        logs = model.log_pmf_array(np.arange(have + 1, want + 1, dtype=np.int64))
        chunks.append(base + np.cumsum(np.exp(logs)))
        have, base = want, float(chunks[-1][-1])
    return np.concatenate(chunks)[:size]


def _stored(model) -> int:
    return model._cache.offset + model._cache.cdf.size


def _assert_doubling_build(model):
    """The cache and head bit for bit as whole-chunk builds and one
    ``log_pmf_array`` call give them, and a guide that meets the split rule."""
    cache = model._cache
    whole = np.concatenate([np.zeros(cache.offset), cache.cdf])
    assert whole.tobytes() == _doubling_build(model, _stored(model)).tobytes()
    head = model._head
    assert head.size >= _stored(model) and not head.flags.writeable
    assert head.tobytes() == model.log_pmf_array(np.arange(1, head.size + 1, dtype=np.int64)).tobytes()
    assert cache.log_pmf.tobytes() == head[cache.offset : _stored(model)].tobytes()
    guide = cache._build_guide()
    assert 2**10 <= guide.size <= 2**16
    if guide.size < 2**16:
        assert np.count_nonzero(np.isnan(guide)) <= guide.size * dist._GUIDE_SPLIT_SHARE
    return whole


_TOP = np.nextafter(1.0, 0.0)
_BLOCK_GROWN = {
    # stops inside the chunk (2**17, 2**18], then resumes it and passes it
    "zeta": (lambda: Zeta(2.1), [0.3, 1 - 1e-6, 1 - 2e-6, 1 - 3e-7]),
    "geometric": (lambda: Geometric(1e-3), [0.5, 1 - 1e-9, _TOP]),
    # the last chunk is futile near 1
    "geometric-futile": (lambda: Geometric(0.003), [_TOP]),
    # its first 961,846 cumulative masses are 0.0
    "poisson-1e6": (lambda: Poisson(1e6), [0.5, 1 - 1e-12]),
    "negbinomial": (lambda: NegativeBinomial(2.5, 0.4), [0.5, _TOP]),
    # complete, its CDF ends below 1 at the table end
    "table": (lambda: Tabulated(np.full(3000, (1.0 - 4e-13) / 3000)), [0.5, 0.9, 1 - 1e-13]),
}


@pytest.mark.parametrize("block", [None, 700])
@pytest.mark.parametrize("name", sorted(_BLOCK_GROWN))
def test_block_grown_cache_is_the_doubling_build(monkeypatch, name, block):
    if block is not None:
        monkeypatch.setattr(dist, "_CDF_BLOCK", block)
    make, targets = _BLOCK_GROWN[name]
    model = make()
    for target in targets:
        before = 0 if model._cache is None else _stored(model)
        model._lookup(np.array([target]))
        whole = _assert_doubling_build(model)
        if model._cache.exhausted:
            assert model._cache.top <= target
        elif _stored(model) > before:
            # the growth stopped in the block holding the first mass past the draw
            first = int(np.searchsorted(whole, target, side="right"))
            assert first < _stored(model) <= first + dist._CDF_BLOCK
    if name == "table":
        assert _stored(model) == 3000 and model._cache.exhausted
    if name.endswith("futile"):
        assert model._cache.exhausted and model._head.size == _stored(model)


def _trial_by_trial_guide(cache):
    """The guide from its definition, with no counts shared between sizes:
    at each trial size m, a binary search of every bucket edge j / m gives
    below[j], the entries <= j / m, and bucket j is split when an entry
    lies in (j / m, (j + 1) / m]."""
    cdf, last = cache.cdf, cache.cdf.size - 1
    m = 1 << 10
    while True:
        counts = np.searchsorted(cdf, np.arange(m + 1) / m, side="right")
        below = counts[:-1]
        split = counts[1:] > below
        if m == 1 << 16 or np.count_nonzero(split) <= m * dist._GUIDE_SPLIT_SHARE:
            break
        m *= 2
    return np.where(split, np.nan, cache.log_pmf[np.minimum(below, last)])


@pytest.mark.parametrize(
    "model",
    [Geometric(1e-4), Geometric(1e-3), Poisson(1e6), Zeta(2.1), Tabulated(np.full(3000, 1.0 / 3000))],
    ids=repr,
)
def test_guide_from_the_finest_counts_is_the_trial_by_trial_build(model):
    cache = model._lookup(np.random.default_rng(0).random(400_000))
    guide = cache._build_guide()
    assert guide.dtype == np.float64 and guide.tobytes() == _trial_by_trial_guide(cache).tobytes()


def test_a_growth_stops_inside_a_chunk_and_the_next_resumes_it():
    model = Zeta(2.1)
    model._lookup(np.array([1 - 1e-6]))
    stopped = _stored(model)
    assert 2**17 < stopped < 2**18 and stopped % dist._CDF_BLOCK == 0
    assert model._head.size == stopped  # the head grew as far as the cache
    model._lookup(np.array([1 - 3e-7]))
    assert _stored(model) > 2**18
    _assert_doubling_build(model)


def test_a_deep_growth_reserves_each_buffer_once(monkeypatch):
    reserved = []
    original = dist._reserve

    def counted(buf, used, need, cap):
        grown = original(buf, used, need, cap)
        if grown is not buf:
            reserved.append(grown.size)
        return grown

    monkeypatch.setattr(dist, "_reserve", counted)
    deep = Zeta(2.174)
    deep._lookup(np.array([1 - 7e-8]))
    assert _stored(deep) == deep._head.size == 770_048
    # the head, then the CDF, each once, at the size the growth fills
    assert reserved == [770_048, 770_048]
    monkeypatch.undo()
    # many small growths store the same masses
    grown = Zeta(2.174)
    for gap in np.geomspace(0.5, 7e-8, 40):
        grown._lookup(np.array([1 - gap]))
    assert grown._cdf.tobytes() == deep._cdf.tobytes()
    assert grown._head.tobytes() == deep._head.tobytes()
    _assert_doubling_build(deep)


@st.composite
def _growths(draw):
    """A fresh model of any family and a uniform it is grown to, 1 - 10**-x
    for x >= 0 or the largest: 1 - 1e-7 for zeta, whose cache then stays
    near 10**6 entries, the largest uniform below 1 for the others."""
    family = draw(st.sampled_from(["geometric", "poisson", "negbinomial", "zeta", "table"]))
    top = 1 - 1e-7 if family == "zeta" else _TOP
    gap = 10.0 ** -draw(st.floats(0.0, -math.log10(1.0 - top)))
    target = draw(st.sampled_from([1.0 - gap, top]))
    log_uniform = lambda lo, hi: 10.0 ** draw(st.floats(math.log10(lo), math.log10(hi)))
    # mostly models whose floor reserves: a growth past 2**14 outcomes
    if family == "geometric":
        model = Geometric(log_uniform(3e-5, 0.5))
    elif family == "poisson":
        model = Poisson(log_uniform(0.5, 1e6))
    elif family == "negbinomial":
        model = NegativeBinomial(draw(st.floats(0.5, 50.0)), 1.0 - log_uniform(1e-4, 0.5))
    elif family == "zeta":
        model = Zeta(draw(st.floats(2.1, 3.0)))
    else:
        model = Tabulated(np.full(40_000, 1.0 / 40_000))
    return model, target


@settings(max_examples=60, deadline=None)
@given(_growths())
@example((Zeta(2.174), 1 - 7e-8))
@example((Poisson(1e6), 0.5))  # outcomes 1..961,846 join the offset
def test_a_growth_reserves_no_more_than_it_fills(growth):
    model, target = growth
    reach = model._reach(target, dist._CDF_INDEX_CAP)
    assert reach % dist._CDF_BLOCK == 0
    if isinstance(model, Tabulated):
        assert reach == 0  # a table's floor is 0, so its buffers double
    model._lookup(np.array([target]))
    block = dist._CDF_BLOCK
    filled = -(-_stored(model) // block) * block
    assert reach <= filled
    if reach:  # reserved at the first block, past which growth went on
        assert model._head_buf.size >= reach and model._cdf_buf.size >= reach - model._cache.offset


@pytest.mark.parametrize(
    "model",
    [Geometric(3e-6), Poisson(4e5), NegativeBinomial(3.0, 1 - 1e-5), Zeta(1.5), Tabulated([0.5, 0.5])],
    ids=repr,
)
def test_reach_is_the_largest_short_block(model):
    # _reach's definition, scanned block by block: (J + 1) blocks for the
    # largest J whose last outcome is short of the target, at most the cap;
    # 0 with no such J, and a refusal where the cap itself is short
    block = dist._CDF_BLOCK
    cap = 40 * block + 3

    def short(k, target):
        return model._tail_mass_floor(k) - k * 2.0**-52 > 1.0 - target

    for target in [i / 40 for i in range(40)] + [1.0 - 10.0**-x for x in np.linspace(1.0, 13.0, 49)] + [_TOP]:
        if short(cap, target):
            with pytest.raises(ResourceCapError):
                model._reach(target, cap)
            continue
        last = max((j for j in range(1, cap // block + 1) if short(j * block, target)), default=0)
        assert model._reach(target, cap) == (min(cap, (last + 1) * block) if last else 0), target


@pytest.mark.parametrize("block", [None, 700])
def test_a_growth_to_a_small_cap_is_the_doubling_build(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(dist, "_CDF_BLOCK", block)
    # not a power of two, so the last chunk ends at the cap, as at a table end
    monkeypatch.setattr(dist, "_CDF_INDEX_CAP", 3000)
    monkeypatch.setattr(Zeta, "_tail_mass_floor", dist.PmfModel._tail_mass_floor)
    model = Zeta(1.5)
    model._lookup(np.array([0.5]))
    with pytest.raises(ResourceCapError, match="exceed 3000 entries"):
        model._lookup(np.array([0.9999]))
    assert _stored(model) == 3000 and not model._cache.exhausted
    _assert_doubling_build(model)


@pytest.mark.parametrize(
    "model, large", [(Geometric(1e-3), True), (Poisson(1e6), True), (Zeta(2.1), False)], ids=repr
)
def test_wide_light_tails_keep_large_guides(model, large):
    # entries spread over the buckets split more than the share of them at
    # every size, so the guide grows to its cap; a power law piles its
    # entries just below 1 and stops short of it
    model._lookup(np.array([1 - 1e-6]))
    assert (model._cache._build_guide().size == 2**16) == large


# -- guided inverse-CDF lookup -------------------------------------------------


def _binary_search_index(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The lookup the guide table replaces: a binary search, then the fold
    of past-the-end draws onto the last cached outcome."""
    return np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)


def _probe_uniforms(cdf: np.ndarray, covered: float, seed: int) -> np.ndarray:
    """Uniforms in [0, covered): the CDF points, the bucket edges j / 2**b
    (b = 10..16, every guide size) around each point, both float neighbours
    of all of these, 0.0, the largest uniform below ``covered`` and a
    random batch."""
    points = np.unique(cdf)
    if points.size > 3000:
        points = points[np.random.default_rng(seed).choice(points.size, 3000, replace=False)]
    edges = [np.floor(points * 2.0**b) / 2.0**b + d / 2.0**b for b in range(10, 17) for d in (0, 1)]
    u = np.concatenate([points, *edges, np.random.default_rng(seed).random(2000) * covered])
    u = np.concatenate([u, np.nextafter(u, 0.0), np.nextafter(u, 1.0), [0.0, np.nextafter(covered, 0.0)]])
    return u[(u >= 0.0) & (u < covered)]


_MASSES = st.one_of(
    st.just(0.0),
    st.sampled_from([2.0**-e for e in (1, 3, 10, 11, 16, 17, 40)]),
    st.floats(1e-300, 1.0),
)


@st.composite
def _sorted_cdfs(draw):
    """Cumulative sums of runs of equal masses, zero runs included (such as
    the head of Poisson(1e6), whose first ~960k masses underflow), up to
    ~10**5 entries so every guide size from 2**10 to 2**16 buckets occurs."""
    runs = draw(st.lists(st.tuples(_MASSES, st.integers(1, 4000)), min_size=1, max_size=25))
    cdf = np.cumsum(np.repeat([m for m, _ in runs], [n for _, n in runs]))
    end = draw(st.sampled_from(["raw", "dyadic", "below one", "just above one"]))
    if cdf[-1] > 0.0 and end == "dyadic":
        # scaling by a power of two keeps dyadic sums on the bucket edges
        cdf = cdf * 2.0 ** -math.ceil(math.log2(cdf[-1]))
    elif cdf[-1] > 0.0 and end != "raw":
        target = 1.0 - 1e-13 if end == "below one" else 1.0 + 2.0**-52
        cdf = cdf / cdf[-1] * target
    return cdf


def _assert_scored(cache, u, want):
    """``scores`` bit for bit the stored log-masses at the positions ``want``,
    for ``u`` of any shape, into fresh buffers and into a workspace larger
    than the tile, as the engine's last, partial tile uses it."""
    expected = cache.log_pmf[want].tobytes()
    scored = cache.scores(u)
    assert scored.shape == u.shape and scored.tobytes() == expected
    work = dist._LookupBuffers(u.size + 7)
    assert cache.scores(u, work).tobytes() == expected


@settings(max_examples=300, deadline=None)
@given(_sorted_cdfs(), st.integers(0, 2**32 - 1))
def test_guided_index_equals_binary_search(cdf, seed):
    # the leading exact zeros are not stored, and the offset counts them,
    # as PmfModel._extend_cdf builds the cache
    zeros = int(np.searchsorted(cdf, 0.0, side="right"))
    log_pmf = np.random.default_rng(seed).standard_normal(cdf.size - zeros)
    cache = dist._InverseCdf(cdf[zeros:], log_pmf, zeros)
    if not cache.cdf.size:
        return  # an all-zero CDF covers no uniform, so it is never looked up
    u = _probe_uniforms(cdf, 1.0, seed)
    assert u[-1] == _TOP and 0.0 in u
    want = _binary_search_index(cdf, u)
    assert np.array_equal(cache.offset + cache.index(u), want)
    _assert_scored(cache, u, want - zeros)
    # any shape, as the replicate engine passes a block of rows, and a part
    # of the block in a workspace sized for all of it
    block = u[:1000].reshape(100, 10)
    want = _binary_search_index(cdf, block)
    assert np.array_equal(cache.offset + cache.index(block), want)
    _assert_scored(cache, block, want - zeros)
    work = dist._LookupBuffers(block.size)
    for rows in (100, 37, 1, 100):
        scored = cache.scores(block[:rows], work)
        assert scored.shape == (rows, 10) and scored.tobytes() == log_pmf[want[:rows] - zeros].tobytes()


def _covered(model) -> float:
    """Uniforms below this bound are served without growing the cache."""
    cache = model._cache
    return 1.0 if cache.exhausted else min(float(cache.cdf[-1]), 1.0)


def _assert_guided(model, u):
    """The lookup against a binary search of the whole CDF, whose unstored
    head holds exact zeros, and its scores against the log-pmf there."""
    cache = model._lookup(u)
    assert cache is model._cache and cache.cdf[0] > 0.0
    whole = np.concatenate([np.zeros(cache.offset), cache.cdf])
    want = _binary_search_index(whole, u)
    assert np.array_equal(cache.offset + cache.index(u), want)
    # the log-masses the cache scores with are those of the stored outcomes
    stored = np.arange(cache.offset + 1, cache.offset + cache.cdf.size + 1, dtype=np.int64)
    assert cache.log_pmf.size == cache.cdf.size and not cache.log_pmf.flags.writeable
    assert cache.log_pmf.tobytes() == model.log_pmf_array(stored).tobytes()
    _assert_scored(cache, u, want - cache.offset)
    # log_pmf[min(searchsorted(whole_cdf, u, "right"), size - 1)], outcomes from 1
    expected = model.log_pmf_array(want.reshape(-1) + 1).reshape(u.shape)
    assert cache.scores(u).tobytes() == expected.tobytes()
    assert np.array_equal(model._invert(u), want + 1)


_GUIDED_MODELS = {
    "geometric": lambda: Geometric(1e-3),
    "poisson-1e6": lambda: Poisson(1e6),
    "zeta": lambda: Zeta(2.0),
    "negbinomial": lambda: NegativeBinomial(2.5, 0.4),
    # complete within the normalisation tolerance, so its CDF ends below 1
    "table-below-one": lambda: Tabulated([0.5, 0.25, 0.125, 0.125 - 5e-13]),
}


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(sorted(_GUIDED_MODELS)), st.integers(0, 2**32 - 1))
@example("poisson-1e6", 0)  # its first 961,846 cumulative masses are 0.0
def test_guided_lookup_equals_binary_search_on_models(name, seed):
    model = _GUIDED_MODELS[name]()
    model._lookup(np.array([0.5]))
    if model._cache.offset:
        # only outcomes whose cumulative mass is exactly 0.0 are left out
        head = np.exp(model.log_pmf_array(np.arange(1, model._cache.offset + 1)))
        assert not head.any()
    _assert_guided(model, _probe_uniforms(model._cdf, _covered(model), seed))
    # a draw past the cached mass grows the cache, which gets a new guide
    first, covered = model._cache, _covered(model)
    if covered < 1.0:
        _assert_guided(model, np.array([min((covered + 1.0) / 2.0, _TOP)]))
        assert model._cache is not first or model._cache.exhausted
        _assert_guided(model, _probe_uniforms(model._cdf, _covered(model), seed))
    # a pickled model drops its cache and rebuilds the same one
    u = _probe_uniforms(model._cdf, _covered(model), seed)
    clone = pickle.loads(pickle.dumps(model))
    assert clone._cdf is None
    _assert_guided(clone, u)
    assert clone._lookup(u).scores(u).tobytes() == model._lookup(u).scores(u).tobytes()
    # the largest uniform grows the cache to its end, or until its tail is
    # below float resolution, and scores on the last outcome; a zeta cache
    # would pass the cap first
    if name != "zeta":
        _assert_guided(model, np.array([0.0, _TOP]))
        assert model._cache.exhausted or model._cache.top > _TOP
        _assert_guided(model, _probe_uniforms(model._cdf, 1.0, seed))


@pytest.mark.parametrize("name", sorted(_GUIDED_MODELS))
def test_lookup_into_a_workspace_matches_fresh_buffers(name):
    model = _GUIDED_MODELS[name]()
    tile = np.random.default_rng(5).random((7, 13))
    model._lookup(tile).scores(tile)
    # midpoints of buckets that a CDF entry splits, which take the binary
    # search
    guide = model._cache._guide
    split = np.flatnonzero(np.isnan(guide))[:: max(1, np.count_nonzero(np.isnan(guide)) // 13)]
    tile[0, : min(13, split.size)] = (split[:13] + 0.5) / guide.size
    model._lookup(tile)  # grows the cache for the new draws, if need be
    work = dist._LookupBuffers(tile.size)
    for rows in (7, 3, 1, 7):  # a full tile, partial ones, and a full one again
        u = tile[:rows]
        cache = model._lookup(u)
        idx = cache.index(u)
        assert idx.shape == u.shape
        assert np.array_equal(model._invert(u), idx + cache.offset + 1)
        scores = cache.scores(u, work)
        assert scores.shape == u.shape
        assert scores.tobytes() == cache.scores(u).tobytes() == cache.log_pmf[idx].tobytes()


# -- tabulated models --------------------------------------------------------


def _complete_table():
    return Tabulated([0.5, 0.25, 0.125, 0.125])


def test_tabulated_complete_table_basics():
    t = _complete_table()
    assert t.max_index() == 4
    assert t.missing == 0.0
    assert t.log_pmf(2) == pytest.approx(math.log(0.25), rel=1e-15)
    assert t.describe() == "tabulated:<4 masses>"
    assert Tabulated([0.5, 0.25, 0.125, 0.125]) == t


def test_tabulated_complete_table_samples_exactly():
    t = _complete_table()
    ks = t.sample(seed=3, count=50_000)
    assert ks.min() >= 1 and ks.max() <= 4
    f = np.bincount(ks, minlength=5)[1:] / ks.size
    assert np.all(np.abs(f - t.masses) < 4.0 * np.sqrt(t.masses / ks.size))


def test_tabulated_refuses_lookup_beyond_table():
    t = Tabulated([0.5, 0.25, 0.125], tail=GeometricRatioTail(k0=3, q=0.5))
    with pytest.raises(ModelError, match="mass unknown"):
        t.log_pmf(4)


def test_tabulated_refuses_tail_sampling():
    t = Tabulated([0.5, 0.25, 0.125], tail=GeometricRatioTail(k0=3, q=0.5))
    with pytest.raises(ModelError, match="cannot sample tail"):
        t.sample(seed=0, count=10)


def test_tabulated_missing_mass_requires_certificate():
    with pytest.raises(MissingCertificateError):
        Tabulated([0.5, 0.25, 0.125])
    t = _complete_table()
    assert t.tail is None
    with pytest.raises(MissingCertificateError, match="no certificate available"):
        t.tail_certificate()


def test_tabulated_rejects_inconsistent_tail():
    # the claimed cap cannot cover the 1/8 of missing mass
    with pytest.raises(ModelError, match="inconsistent"):
        Tabulated([0.5, 0.25, 0.125], tail=GeometricRatioTail(k0=3, q=0.01))
    with pytest.raises(ModelError, match="inconsistent"):
        Tabulated([0.5, 0.25, 0.125], tail=PowerLawTail(k0=3, c0=1e-6, alpha=3.0))
    # a certificate anchored beyond the table is unusable, though a
    # power-law cap from k0 = 20 would cover the missing 2**-10
    with pytest.raises(ModelError, match="beyond"):
        Tabulated([0.5, 0.25, 0.125], tail=GeometricRatioTail(k0=7, q=0.5))
    with pytest.raises(ModelError, match="k0=20, beyond the 10 listed masses"):
        Tabulated([0.5**k for k in range(1, 11)], tail=PowerLawTail(k0=20, c0=0.6, alpha=2.0))


def test_tabulated_rejects_masses_that_contradict_the_tail():
    # sums to exactly 1, so no mass is unlisted; p_4 / p_3 = 1e13 still
    # contradicts the ratio cap, and certification trusted it
    masses = [0.6, 0.2, 1e-14, 0.1, 0.05, 0.05 - 1e-14]
    with pytest.raises(ModelError, match="ratio tail certificate violated at k=3"):
        Tabulated(masses, tail=GeometricRatioTail(k0=1, q=0.5))
    with pytest.raises(ModelError, match="power-law tail certificate violated at k=2"):
        Tabulated([0.5, 0.3, 0.2], tail=PowerLawTail(k0=1, c0=0.5, alpha=2.0))
    with pytest.raises(ModelError, match="violated at k=3"):
        Tabulated([0.5, 0.2, 0.1, 0.09], tail=GeometricRatioTail(k0=2, q=0.5))


def test_sampling_past_masses_that_underflow():
    # Poisson(1e6) masses underflow to 0 far beyond the first cache chunk
    code = (
        "from entrobound import Poisson\n"
        "print(*Poisson(1e6).sample(0, 5).tolist())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(dist.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    draws = [int(k) for k in result.stdout.split()]
    assert len(draws) == 5
    assert all(abs(k - 1_000_001) < 10_000 for k in draws)


def test_tabulated_accepts_consistent_tails():
    Tabulated([0.5, 0.25, 0.125], tail=GeometricRatioTail(k0=2, q=0.5))
    Tabulated([0.5, 0.25, 0.125], tail=PowerLawTail(k0=3, c0=2.0, alpha=2.0))


def test_tabulated_input_validation():
    with pytest.raises(ModelError):
        Tabulated([])
    with pytest.raises(ModelError):
        Tabulated([0.5, 0.0])
    with pytest.raises(ModelError):
        Tabulated([0.5, -0.1])
    with pytest.raises(ModelError):
        Tabulated([0.9, 0.2])  # sums past 1
    with pytest.raises(ModelError):
        Tabulated([[0.5], [0.5]])


def test_tabulated_json_round_trip(tmp_path):
    payload = {
        "probs": [0.5, 0.25, 0.125],
        "tail": {"type": "ratio", "k0": 3, "q": 0.5},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    t = Tabulated.load(path)
    assert t.tail == GeometricRatioTail(k0=3, q=0.5)
    assert t.describe() == f"tabulated:{path}"
    again = Tabulated.from_dict(t.to_dict())
    assert again == Tabulated.from_dict(payload)
    with pytest.raises(ModelError, match='"probs"'):
        Tabulated.from_dict({"tail": None})
