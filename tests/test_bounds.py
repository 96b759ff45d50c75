"""Deviation bounds, inversions, and the MGF envelope.

The frozen constants below come from evaluating the closed forms at
50 digits with C_r = sqrt(2) + 1 (the exact Geometric(1/2) power sum at
r = 1/2) and rounding to the nearest float.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entrobound.certify as certify_module
from entrobound import (
    AdmissibilityError,
    BernsteinConstants,
    EntropyInterval,
    Geometric,
    GeometricRatioTail,
    ModelError,
    MomentCertificate,
    NegativeBinomial,
    Poisson,
    ResourceCapError,
    SQRT_PI,
    Tabulated,
    Zeta,
    bernstein_constants,
    certify_moment,
    chernoff_lambda_star,
    deviation_bound,
    entropy_interval,
    epsilon_for,
    heterogeneous_deviation_bound,
    mgf_exact,
    mgf_log_bound,
    min_sample_size,
    select_r,
)
from entrobound.cli import parse_model_spec

EXACT_GEOM_CERT = MomentCertificate(
    r=0.5, C_r=2.414213562373095, slack=0.0, truncation_index=0, provenance="ratio"
)

# frozen evaluations at C_r = sqrt(2) + 1, r = 1/2
C1_EXACT = 10.896593154804973
BOUND_N100_EPS_HALF = 0.28784035779606438
BOUND_N1000_EPS_HALF = 7.6251237699037650e-09
EPS_FOR_N1E6 = 0.0063474308375444889
LAMBDA_STAR_N100_T50 = 0.07753985785210438
MGF_LOG_BOUND_QUARTER = 0.34051853608765541
MGF_EXACT_PLUS_QUARTER = 1.0259713891429513
MGF_EXACT_MINUS_QUARTER = 1.0371285081720181


def exact_constants() -> BernsteinConstants:
    return bernstein_constants(EXACT_GEOM_CERT)


# -- arithmetic oracles --------------------------------------------------------


def test_bernstein_constants_values():
    constants = exact_constants()
    assert constants.c1 == pytest.approx(C1_EXACT, rel=1e-15)
    assert constants.c2 == 4.0


def test_deviation_bound_values():
    constants = exact_constants()
    assert deviation_bound(constants, 100, 0.5) == pytest.approx(
        BOUND_N100_EPS_HALF, rel=1e-14
    )
    assert deviation_bound(constants, 1000, 0.5) == pytest.approx(
        BOUND_N1000_EPS_HALF, rel=1e-13
    )


def test_deviation_bound_above_one_is_returned_verbatim():
    constants = exact_constants()
    value = deviation_bound(constants, 1, 0.1)
    assert value > 1.0  # vacuous but legal


def test_deviation_bound_validation():
    constants = exact_constants()
    with pytest.raises(ValueError):
        deviation_bound(constants, 0, 0.5)
    with pytest.raises(ValueError):
        deviation_bound(constants, 100, 0.0)
    with pytest.raises(ValueError):
        deviation_bound(constants, 100, math.inf)


def test_extreme_radius_does_not_overflow():
    constants = exact_constants()
    assert deviation_bound(constants, 1, 1e9) == 0.0


def test_min_sample_size_value():
    assert min_sample_size(exact_constants(), 0.5, 0.05) == 191


def test_epsilon_for_value():
    assert epsilon_for(exact_constants(), 10**6, 0.05) == pytest.approx(
        EPS_FOR_N1E6, rel=1e-14
    )


def test_chernoff_lambda_star_value():
    assert chernoff_lambda_star(EXACT_GEOM_CERT, 100, 50.0) == pytest.approx(
        LAMBDA_STAR_N100_T50, rel=1e-14
    )


def test_mgf_log_bound_value():
    assert mgf_log_bound(EXACT_GEOM_CERT, 0.25) == pytest.approx(
        MGF_LOG_BOUND_QUARTER, rel=1e-14
    )
    # symmetric in lambda
    assert mgf_log_bound(EXACT_GEOM_CERT, -0.25) == mgf_log_bound(EXACT_GEOM_CERT, 0.25)


def test_mgf_log_bound_domain():
    for lam in (0.5, -0.5, 0.7, math.nan):
        with pytest.raises(ValueError):
            mgf_log_bound(EXACT_GEOM_CERT, lam)
    assert mgf_log_bound(EXACT_GEOM_CERT, 0.0) == 0.0


# r * r underflows to zero at 1e-300 (a ZeroDivisionError) and to a
# subnormal at 1e-160 (an infinite c1, refused without naming r)
@pytest.mark.parametrize("r", [1e-300, 1e-160])
def test_an_order_whose_square_underflows_is_refused_by_name(r):
    cert = MomentCertificate(r=r, C_r=1.5, slack=0.0, truncation_index=0, provenance="ratio")
    message = re.escape(f"moment order r={r!r} with C_r=1.5 gives c1")
    with pytest.raises(ValueError, match=message):
        bernstein_constants(cert)
    with pytest.raises(ValueError, match=message):
        heterogeneous_deviation_bound([cert], 1, 0.5)
    with pytest.raises(ValueError, match=message):
        mgf_log_bound(cert, r / 2)
    # its tilt divides by r**2 too, and must stay strictly inside (0, r)
    with pytest.raises(ValueError, match=message):
        chernoff_lambda_star(cert, 100, 50.0)


def test_chernoff_tilt_outside_the_float_range_is_refused_by_name():
    cert = certify_moment(Geometric(0.5), r=0.5)
    # the tilt underflows to 0.0 at the smallest t, and rounds up to r where
    # t / r swamps the rest of the denominator
    for n, t, tilt in [(100, 5e-324, "0.0"), (10**308, 1.0, "0.0"), (1, 1e300, "0.5")]:
        message = re.escape(f"n={n} and total deviation t={t!r} put the optimising tilt at {tilt},")
        with pytest.raises(ValueError, match=message):
            chernoff_lambda_star(cert, n, t)
    # an n past the float range is named, not an OverflowError from n * C_r
    with pytest.raises(ValueError, match="sample size n of 401 digits lies past the float range"):
        chernoff_lambda_star(cert, 10**400, 50.0)


def test_constants_validation():
    with pytest.raises(ValueError):
        BernsteinConstants(c1=-1.0, c2=4.0)
    with pytest.raises(ValueError):
        BernsteinConstants(c1=1.0, c2=0.0)


# -- monotonicity and inversions ------------------------------------------------


@given(
    n=st.integers(1, 10_000),
    eps=st.floats(0.01, 3.0),
)
@settings(max_examples=100, deadline=None)
def test_bound_decreases_in_n_and_eps(n, eps):
    constants = exact_constants()
    value = deviation_bound(constants, n, eps)
    assert 0.0 <= value <= 2.0
    assert deviation_bound(constants, n + 1, eps) <= value
    assert deviation_bound(constants, n, eps * 1.1) <= value


@given(
    eps=st.floats(0.01, 3.0),
    delta=st.floats(1e-6, 1.99),
)
@settings(max_examples=100, deadline=None)
def test_min_sample_size_round_trip(eps, delta):
    constants = exact_constants()
    n = min_sample_size(constants, eps, delta)
    assert deviation_bound(constants, n, eps) <= delta
    if n > 1:
        assert deviation_bound(constants, n - 1, eps) > delta


@given(
    n=st.integers(1, 10**7),
    delta=st.floats(1e-6, 1.99),
)
@settings(max_examples=100, deadline=None)
def test_epsilon_for_round_trip(n, delta):
    constants = exact_constants()
    eps = epsilon_for(constants, n, delta)
    assert deviation_bound(constants, n, eps) == pytest.approx(delta, rel=1e-9)


def test_inversion_domain():
    constants = exact_constants()
    with pytest.raises(ValueError):
        min_sample_size(constants, 0.5, 0.0)
    with pytest.raises(ValueError):
        min_sample_size(constants, 0.5, 2.0)
    with pytest.raises(ValueError):
        epsilon_for(constants, 100, 2.5)
    # near-vacuous targets are legal and give tiny n
    assert min_sample_size(constants, 0.5, 1.999) == 1


@given(
    n=st.integers(1, 10**6),
    t=st.floats(1e-3, 1e6),
)
@settings(max_examples=100, deadline=None)
def test_chernoff_tilt_stays_inside_domain(n, t):
    lam = chernoff_lambda_star(EXACT_GEOM_CERT, n, t)
    assert 0.0 < lam < EXACT_GEOM_CERT.r


# -- heterogeneous draws ---------------------------------------------------------


def test_heterogeneous_matches_homogeneous_for_equal_certificates():
    certs = [EXACT_GEOM_CERT] * 100
    assert heterogeneous_deviation_bound(certs, 100, 0.5) == deviation_bound(
        exact_constants(), 100, 0.5
    )


def test_heterogeneous_uses_mean_constant():
    a = EXACT_GEOM_CERT
    b = MomentCertificate(r=0.5, C_r=4.0, slack=0.0, truncation_index=0, provenance="ratio")
    mixed = heterogeneous_deviation_bound([a, b], 2, 0.5)
    mean_c = (a.C_r + b.C_r) / 2.0
    constants = BernsteinConstants(c1=2.0 * mean_c / (SQRT_PI * 0.25), c2=4.0)
    assert mixed == pytest.approx(deviation_bound(constants, 2, 0.5), rel=1e-15)


def test_heterogeneous_rejects_mixed_orders():
    a = EXACT_GEOM_CERT
    b = MomentCertificate(r=0.4, C_r=3.0, slack=0.0, truncation_index=0, provenance="ratio")
    with pytest.raises(AdmissibilityError, match="mixed"):
        heterogeneous_deviation_bound([a, b], 2, 0.5)


def test_heterogeneous_requires_one_certificate_per_draw():
    with pytest.raises(ValueError, match="one certificate per draw"):
        heterogeneous_deviation_bound([EXACT_GEOM_CERT] * 3, 4, 0.5)


# -- exact MGF intervals ----------------------------------------------------------


@pytest.fixture(scope="module")
def geom_mgf_setup():
    model = Geometric(0.5)
    cert = certify_moment(model, r=0.5, eps=1e-9)
    interval = entropy_interval(model, cert, 1e-12)
    return model, cert, interval


def test_mgf_exact_frozen_values(geom_mgf_setup):
    model, cert, interval = geom_mgf_setup
    lo, hi = mgf_exact(model, cert, interval, 0.25, tol=1e-9)
    assert hi - lo <= 1e-9
    assert lo - 1e-12 <= MGF_EXACT_PLUS_QUARTER <= hi + 1e-12
    lo, hi = mgf_exact(model, cert, interval, -0.25, tol=1e-9)
    assert hi - lo <= 1e-9
    assert lo - 1e-12 <= MGF_EXACT_MINUS_QUARTER <= hi + 1e-12


def test_mgf_exact_at_zero_is_one(geom_mgf_setup):
    model, cert, interval = geom_mgf_setup
    assert mgf_exact(model, cert, interval, 0.0) == (1.0, 1.0)


def test_mgf_exact_domain(geom_mgf_setup):
    model, cert, interval = geom_mgf_setup
    with pytest.raises(ValueError):
        mgf_exact(model, cert, interval, 0.5)
    with pytest.raises(ValueError):
        mgf_exact(model, cert, interval, 0.25, tol=0.0)


def test_mgf_exact_entropy_floor(geom_mgf_setup):
    model, cert, _ = geom_mgf_setup
    sloppy = EntropyInterval(lower=1.0, upper=2.0, tolerance=1.0)
    with pytest.raises(ResourceCapError, match="entropy interval"):
        mgf_exact(model, cert, sloppy, 0.25, tol=1e-9)


def test_a_table_that_runs_out_before_a_tolerance_is_a_model_error():
    # twenty listed masses cannot meet either tolerance; certification
    # refuses such a slack with the same error
    table = Tabulated([0.5**k for k in range(1, 21)], tail=GeometricRatioTail(k0=1, q=0.5))
    cert = certify_moment(table, r=0.5, eps=0.01)
    with pytest.raises(ModelError, match="entropy tolerance 0.001 at r=0.5 is unreachable with only 20 listed masses"):
        entropy_interval(table, cert, 1e-3)
    # a zero-width entropy interval keeps the check clear of its entropy floor
    with pytest.raises(ModelError, match="MGF tolerance 1e-09 is unreachable with only 20 listed masses"):
        mgf_exact(table, cert, EntropyInterval(1.38, 1.38, 1e-9), 0.1)


def test_mgf_envelope_dominates_exact_values(geom_mgf_setup):
    model, cert, interval = geom_mgf_setup
    for lam in np.linspace(-0.45, 0.45, 19):
        lam = float(lam)
        lo, _ = mgf_exact(model, cert, interval, lam, tol=1e-9)
        assert math.exp(mgf_log_bound(cert, lam)) >= lo


def test_mgf_envelope_holds_at_tight_slack_upper_endpoint(geom_mgf_setup):
    # the envelope evaluated near the edge of its domain still dominates
    model, cert, interval = geom_mgf_setup
    lam = 0.499
    lo, hi = mgf_exact(model, cert, interval, lam, tol=1e-6)
    assert math.exp(mgf_log_bound(cert, lam)) >= hi


# -- order selection ---------------------------------------------------------------


def test_select_r_defaults(geom_half, zeta_two):
    assert select_r(geom_half) == 0.5
    assert select_r(zeta_two) == 0.25


def test_select_r_with_target_minimises_grid_objective(geom_half):
    target = 0.3
    chosen = select_r(geom_half, eps=1e-6, target_eps=target)
    assert 0.0 < chosen < 1.0

    def objective(r: float) -> float:
        constants = bernstein_constants(certify_moment(geom_half, r=r, eps=1e-6))
        return constants.c1 + constants.c2 * target

    best = objective(chosen)
    for i in range(1, 22):
        assert best <= objective(1.0 * i / 22.0) + 1e-12


def test_select_r_target_validation(geom_half):
    with pytest.raises(ValueError):
        select_r(geom_half, target_eps=0.0)


def test_select_r_reports_total_failure():
    with pytest.raises(ResourceCapError):
        select_r(Zeta(1.05), eps=1e-6, target_eps=0.5)


@pytest.mark.parametrize("spec", ["poisson:15.3", "negbinomial:2.2,0.79"])
def test_select_r_resolves_the_tail_once_and_walks_the_ladder_once(monkeypatch, spec):
    model = parse_model_spec(spec)
    calls = {"tail": 0, "bounds": 0}
    rungs = []
    tail_certificate = type(model).tail_certificate

    def counted_tail(self):
        calls["tail"] += 1
        return tail_certificate(self)

    remainder = GeometricRatioTail._remainder

    def counted_remainder(self, model, s):
        bound = remainder(self, model, s)

        def counted(k):
            calls["bounds"] += 1
            return bound(k)

        return counted

    ladder = certify_module._truncation_ladder

    def counted_ladder(*args):
        for rung in ladder(*args):
            rungs.append(rung[0])
            yield rung

    monkeypatch.setattr(type(model), "tail_certificate", counted_tail)
    monkeypatch.setattr(GeometricRatioTail, "_remainder", counted_remainder)
    monkeypatch.setattr(certify_module, "_truncation_ladder", counted_ladder)
    select_r(model, eps=1e-6, target_eps=0.2)
    assert calls["tail"] == 1
    # one bound per rung, a bisection of the largest order's last bracket,
    # then a guess settled by at most two scalar tests per other order; a
    # walk and a bisection per order took 8 to 13 here
    bracket = rungs[-1] - (rungs[-2] if len(rungs) > 1 else 0)
    assert calls["bounds"] <= len(rungs) + bracket.bit_length() + 2 * 20


# -- order independence -------------------------------------------------------------


def _ratio_table():
    q = 0.99
    masses = q ** np.arange(3000)
    return Tabulated(masses / (masses.sum() + 0.5 * masses[-1] * q / (1 - q)), tail=GeometricRatioTail(k0=1, q=q))


_ORDER_MODELS = {
    "geometric": lambda: Geometric(0.003),
    "poisson": lambda: Poisson(17.3),
    "negbinomial": lambda: NegativeBinomial(2.5, 0.7),
    "zeta": lambda: Zeta(3.0),
    "complete-table": lambda: Tabulated(np.full(1500, 1.0 / 1500)),
    "ratio-table": _ratio_table,
}


def _results(make, warm: str | None):
    """Each entry point on its own model, fresh (``None``), with a head
    already filled by a deeper scalar lookup (``"head"``), or with a head
    the sampler grew first (``"sampler"``), past 2**20 outcomes on zeta.
    With ``"series"`` every entry point runs, in turn, on one model whose
    head the entropy series grew first, to 2**20 outcomes on zeta."""
    eps = 1e-2 if isinstance(make(), Zeta) else 1e-6
    if warm == "series":
        shared = make()
        entropy_interval(shared, certify_moment(make(), eps=eps), 1e-6)
        assert shared._head.size == 2**20 or not isinstance(shared, Zeta)

    def model():
        if warm == "series":
            return shared
        m = make()
        if warm == "head":
            m.log_pmf(min(2**20, m.max_index() or 2**20))
        elif warm == "sampler":
            m._lookup(np.array([1 - 2e-13 if isinstance(m, Zeta) else np.nextafter(1.0, 0.0)]))
            assert m._head.size > 2**20 or not isinstance(m, Zeta)
        return m

    cert = certify_moment(model(), eps=eps)
    entropy = entropy_interval(model(), cert, 1e-6)
    mgf = [mgf_exact(model(), cert, entropy, x * cert.r, tol=1e-6) for x in (-0.8, -0.3, 0.4, 0.8)]
    # at r = 0.54 the zeta sums run past 2**20 outcomes (k1 = 1,440,992)
    deep = certify_moment(model(), r=0.54, eps=eps)
    selected = select_r(model(), eps=eps, target_eps=0.2)
    # then a sample, where the model can draw one
    m = model()
    drawn = None if m.max_index() and not m.is_complete() else m.sample(3, 2000).tobytes()
    return cert, entropy, mgf, deep, selected, drawn


@pytest.mark.parametrize("name", sorted(_ORDER_MODELS))
def test_results_do_not_depend_on_a_warm_head(name):
    make = _ORDER_MODELS[name]
    cold = _results(make, warm=None)
    assert _results(make, warm="head") == cold
    assert _results(make, warm="series") == cold
    if name != "ratio-table":  # a table with unlisted mass refuses to sample
        assert _results(make, warm="sampler") == cold
