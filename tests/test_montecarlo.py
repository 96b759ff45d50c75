"""Simulation harness: reproducibility, exact small-n laws, integrity checks."""

import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

from entrobound import (
    Geometric,
    GeometricRatioTail,
    ModelError,
    NegativeBinomial,
    Poisson,
    ReportIntegrityError,
    ResourceCapError,
    SimulationConfig,
    SweepAborted,
    Tabulated,
    Zeta,
    certify_moment,
    entropy_interval,
    estimate_deviation_probability,
    estimate_mgf,
    replicate_log_likelihood_means,
    reports_to_csv,
    reports_to_json,
    sweep,
    verify_bound,
)
from entrobound import montecarlo
from entrobound.montecarlo import CSV_COLUMNS, report_to_dict

MGF_EXACT_PLUS_QUARTER = 1.0259713891429513


# -- configuration -------------------------------------------------------------


def test_config_normalises_eps(geom_half):
    config = SimulationConfig(model=geom_half, n=10, eps=0.5, replicates=100, seed=0)
    assert config.eps == (0.5,)
    config = SimulationConfig(model=geom_half, n=10, eps=[0.5, 0.2], replicates=100, seed=0)
    assert config.eps == (0.5, 0.2)
    # default entropy tolerance is a hundredth of the smallest radius
    assert config.entropy_tolerance == pytest.approx(0.002)


def test_config_validation(geom_half):
    with pytest.raises(ValueError):
        SimulationConfig(model=geom_half, n=0, eps=0.5)
    with pytest.raises(ValueError):
        SimulationConfig(model=geom_half, n=10, eps=())
    with pytest.raises(ValueError):
        SimulationConfig(model=geom_half, n=10, eps=-0.5)
    with pytest.raises(ValueError):
        SimulationConfig(model=geom_half, n=10, eps=0.5, replicates=99)
    with pytest.raises(ValueError):
        # tolerance must not exceed min(eps)/100
        SimulationConfig(model=geom_half, n=10, eps=0.5, entropy_tolerance=0.01)
    tight = SimulationConfig(model=geom_half, n=10, eps=0.5, entropy_tolerance=1e-6)
    assert tight.entropy_tolerance == 1e-6
    # the seed is checked before any certification or sampling runs
    with pytest.raises(ValueError, match="seed"):
        SimulationConfig(model=geom_half, n=10, eps=0.5, seed=-1)
    with pytest.raises(ValueError, match="seed"):
        SimulationConfig(model=geom_half, n=10, eps=0.5, seed=1.5)
    # seeds of 2**64 and beyond are several words of SeedSequence entropy
    big = SimulationConfig(model=geom_half, n=10, eps=0.5, replicates=100, seed=2**64 + 5)
    means = replicate_log_likelihood_means(geom_half, big.n, big.replicates, big.seed)
    assert np.array_equal(means, _reference_means(geom_half, big.n, big.seed, 0, big.replicates))


# -- replicate means -------------------------------------------------------------


def test_replicate_means_are_deterministic(geom_half):
    a = replicate_log_likelihood_means(geom_half, n=20, replicates=300, seed=7)
    b = replicate_log_likelihood_means(geom_half, n=20, replicates=300, seed=7)
    assert np.array_equal(a, b)
    c = replicate_log_likelihood_means(geom_half, n=20, replicates=300, seed=8)
    assert not np.array_equal(a, c)


def test_parallel_equals_serial(geom_half):
    # at the second size the engine's block edges differ between serial and parallel runs
    for n, replicates in ((10, 500), (2000, 1200)):
        serial = replicate_log_likelihood_means(geom_half, n=n, replicates=replicates, seed=99)
        for workers in (2, 3):
            parallel = replicate_log_likelihood_means(
                geom_half, n=n, replicates=replicates, seed=99, workers=workers
            )
            assert np.array_equal(serial, parallel)


def test_replicate_means_have_the_right_center(geom_half):
    means = replicate_log_likelihood_means(geom_half, n=100, replicates=2000, seed=5)
    # E[log P(X)] = -2 log 2 for this model
    assert np.mean(means) == pytest.approx(-2.0 * math.log(2.0), abs=0.01)


# -- replicate engine against the per-replicate reference --------------------------


def _reference_means(model, n: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """The loop the blocked engine replaced: one stream per replicate, a
    binary search of the model's cached CDF, and a fresh log-pmf.

    Only the cache growth goes through the model's own lookup; the index
    comes from a plain binary search, so the engine's guide table is
    checked against code it does not share."""
    out = np.empty(hi - lo, dtype=np.float64)
    for i in range(lo, hi):
        u = montecarlo._replicate_rng(seed, i).random(n)
        model._lookup(u)
        cdf, first = model._cdf, model._cache.offset + 1  # the stored CDF starts at outcome first
        ks = np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1) + first
        out[i - lo] = float(np.mean(model.log_pmf_array(ks)))
    return out


@pytest.mark.parametrize(
    "seed", [0, 1, 2**31 - 1, 2**32, 2**64 + 5, 2**96 + 1, 2**128, 2**128 + 3, 2**200 + 1, 2**300 - 1]
)
def test_spawned_states_match_replicate_streams(seed):
    # seeds of 4 to 10 words reach the pool size and run past it, which
    # moves where the spawn key's hash steps start; spawn keys of 2**32 and
    # beyond are two words of entropy
    indices = np.array([*range(2048), 2**32 - 1, 2**32, 2**40 + 7, 2**64 - 1], dtype=np.uint64)
    words = montecarlo._spawn_states(seed, indices)
    assert words.shape == (indices.size, 4) and words.dtype == np.uint64
    for index, (state_lo, state_hi, inc_lo, inc_hi) in zip(indices.tolist(), words.tolist()):
        expected = montecarlo._replicate_rng(seed, index).bit_generator.state["state"]
        state, inc = state_hi << 64 | state_lo, inc_hi << 64 | inc_lo
        assert (state, inc) == (expected["state"], expected["inc"]), index


_ENGINE_MODELS = {
    "geometric": Geometric(0.3),
    "poisson": Poisson(3.5),
    "negbinomial": NegativeBinomial(2.5, 0.4),
    "zeta": Zeta(2.2),
    "tabulated": Tabulated([0.4, 0.3, 0.2, 0.1]),
}


@pytest.mark.parametrize(
    "model,load",
    [
        pytest.param(model, load, id=name if load == "in-place" else f"{name}-{load}")
        for load in ("in-place", "setter")
        for name, model in _ENGINE_MODELS.items()
    ],
)
def test_engine_matches_reference_loop(monkeypatch, model, load):
    # 100-draw blocks: seven replicates of 13 draws per block, so 40
    # replicates make five full blocks and a partial one; a replicate of
    # 150 draws is a block of its own. 30-draw tiles hold two replicates
    # of 13 draws, so full and partial blocks both end on a partial tile;
    # a 200-draw tile is larger than its block; a replicate of 150 draws
    # is a tile of its own
    monkeypatch.setattr(montecarlo, "_BLOCK_DRAWS", 100)
    if load == "setter":
        # the path of builds whose PCG64 layout fails the check
        monkeypatch.setattr(montecarlo, "_state_words", lambda bit_generator: None)
    for tile in (30, 200):
        monkeypatch.setattr(montecarlo, "_TILE_DRAWS", tile)
        for n in (13, 150):
            for seed in (7, 2**64 + 5):
                engine = montecarlo._means_range(model, n, seed, 3, 43)
                expected = _reference_means(model, n, seed, 3, 43)
                assert np.array_equal(engine, expected), (tile, n, seed)


@pytest.fixture
def fresh_layout_check():
    """The process's layout verdict, forgotten before and after the test."""
    montecarlo._layout_holds.cache_clear()
    yield
    montecarlo._layout_holds.cache_clear()


@pytest.mark.skipif(
    not (sys.platform.startswith("linux") and sys.maxsize > 2**32),
    reason="numpy's PCG64 holds its 128-bit words as __uint128_t on 64-bit Linux builds",
)
def test_state_layout_check_passes_where_pcg128_is_native(fresh_layout_check):
    # a check that quietly failed here would only slow the engine down
    assert montecarlo._layout_holds()
    bit_generator = np.random.PCG64(0)
    montecarlo._state_words(bit_generator)[:] = montecarlo._spawn_states(3, np.array([11]))[0]
    assert bit_generator.state == montecarlo._replicate_rng(3, 11).bit_generator.state


def test_layout_verdict_is_reached_once_per_process(monkeypatch, fresh_layout_check):
    checks = []

    def recording(seed, index):
        checks.append((seed, index))
        return replicate_rng(seed, index)

    # the check builds one replicate's generator, and nothing else in the
    # engine does
    replicate_rng = montecarlo._replicate_rng
    monkeypatch.setattr(montecarlo, "_replicate_rng", recording)
    generators = [np.random.PCG64(0) for _ in range(3)]
    views = [montecarlo._state_words(g) for g in generators]
    assert len(checks) == 1
    seed, index = checks[0]
    assert seed.bit_length() > 32 and index >= 2**32
    # each generator still gets a view of its own words
    if views[-1] is not None:
        views[-1][:] = montecarlo._spawn_states(3, np.array([11]))[0]
        assert generators[-1].state == replicate_rng(3, 11).bit_generator.state
    # the verdict holds for the next engine call too
    montecarlo._means_range(Geometric(0.5), 13, 0, 0, 40)
    assert len(checks) == 1


class _SwappedHalves:
    """The words of a build whose ``pcg128_t`` is a ``{high, low}`` struct:
    each 128-bit value's two 64-bit halves are stored the other way round."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def __setitem__(self, key: slice, row: np.ndarray) -> None:
        self._words[[1, 0, 3, 2]] = row


def test_a_layout_that_fails_the_check_loads_states_through_the_setter(monkeypatch, fresh_layout_check):
    struct_words = montecarlo._struct_words
    monkeypatch.setattr(
        montecarlo, "_struct_words", lambda bit_generator: _SwappedHalves(struct_words(bit_generator))
    )
    assert not montecarlo._layout_holds()
    assert montecarlo._state_words(np.random.PCG64(0)) is None
    model = Zeta(2.2)
    for n in (13, 150):
        engine = montecarlo._means_range(model, n, 7, 3, 43)
        assert np.array_equal(engine, _reference_means(model, n, 7, 3, 43)), n


def test_engine_checks_the_layout_once_and_leaves_no_buffered_word(monkeypatch):
    generators = []

    def recording(bit_generator):
        generators.append(bit_generator)
        return state_words(bit_generator)

    state_words = montecarlo._state_words
    monkeypatch.setattr(montecarlo, "_state_words", recording)
    # 100-draw blocks of 13-draw replicates: six seeding blocks in one call
    monkeypatch.setattr(montecarlo, "_BLOCK_DRAWS", 100)
    montecarlo._means_range(Geometric(0.5), 13, 0, 0, 40)
    assert len(generators) == 1
    # as after the setter, which loads has_uint32 = 0 with every state
    assert generators[0].state["has_uint32"] == 0


@pytest.mark.parametrize(
    "n,replicates,fragment",
    [
        (10**12, 100, "n = 1000000000000 draws per replicate exceeds the cap of 16777216"),
        (montecarlo._MAX_DRAWS + 1, 100, "n = 16777217 draws per replicate exceeds the cap of 16777216"),
        (200, 10**12, "replicates = 1000000000000 exceeds the cap of 134217728"),
        (200, montecarlo._MAX_REPLICATES + 1, "replicates = 134217729 exceeds the cap of 134217728"),
    ],
)
def test_engine_caps_trip_before_any_allocation(geom_half, n, replicates, fragment):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match=fragment):
            replicate_log_likelihood_means(geom_half, n, replicates, seed=0, workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize(
    "n,replicates,fragment",
    [
        (0, 3, "n must be an integer >= 1, got 0"),
        (2.5, 3, "n must be an integer >= 1, got 2.5"),
        (200, -3, "replicates must be an integer >= 0, got -3"),
        (200, 3.0, "replicates must be an integer >= 0, got 3.0"),
        # checked before the caps: each of these is also past one
        (10**12, -1, "replicates must be an integer >= 0, got -1"),
        (0, 10**12, "n must be an integer >= 1, got 0"),
    ],
)
def test_engine_rejects_malformed_arguments_first(geom_half, n, replicates, fragment):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=fragment):
            replicate_log_likelihood_means(geom_half, n, replicates, seed=0, workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_engine_runs_no_replicates():
    means = replicate_log_likelihood_means(Geometric(0.5), 5, 0, seed=0)
    assert means.shape == (0,) and means.dtype == np.float64


def test_engine_memory_stays_tile_sized():
    # 5,000 replicates of 200 draws fit one seeding block; filled whole, its
    # uniforms and each lookup temporary would take about 8 MiB apiece
    model = Geometric(0.5)
    tracemalloc.start()
    try:
        replicate_log_likelihood_means(model, 200, 5000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_engine_refuses_a_table_with_unlisted_mass():
    partial = Tabulated([0.5, 0.25, 0.125], tail=GeometricRatioTail(k0=2, q=0.5))
    with pytest.raises(ModelError, match="cannot sample tail"):
        replicate_log_likelihood_means(partial, n=10, replicates=100, seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_engine_rejects_seeds_that_seed_sequence_rejects(geom_half, seed):
    # a negative seed is a ValueError and a non-integer one a TypeError, also
    # when no replicate runs
    error = ValueError if isinstance(seed, int) else TypeError
    with pytest.raises(error):
        np.random.SeedSequence(seed)
    for replicates in (0, 3, 100):
        with pytest.raises(error):
            replicate_log_likelihood_means(geom_half, n=5, replicates=replicates, seed=seed)


def test_engine_takes_numpy_integer_seeds(geom_half):
    indices = np.array([0, 5, 2**32 + 1], dtype=np.uint64)
    for seed in (7, 2**63 + 5):
        expected = montecarlo._spawn_states(seed, indices)
        assert np.array_equal(montecarlo._spawn_states(np.uint64(seed), indices), expected)
    means = replicate_log_likelihood_means(geom_half, n=5, replicates=100, seed=np.int64(7))
    assert np.array_equal(means, replicate_log_likelihood_means(geom_half, n=5, replicates=100, seed=7))


# -- deviation estimation ----------------------------------------------------------


def _enumerated_frequency(model, entropy_mid: float, eps: float, k_max: int = 60) -> float:
    """Exact P(|log p_K + H| >= eps) for a single draw, by enumeration."""
    ks = np.arange(1, k_max + 1, dtype=np.int64)
    log_p = model.log_pmf_array(ks)
    hits = np.abs(log_p + entropy_mid) >= eps
    mass = float(np.exp(log_p)[hits].sum())
    # every outcome beyond k_max deviates by more than any radius probed here
    return mass + float(1.0 - np.exp(log_p).sum())


def test_n1_frequencies_match_enumeration(geom_half):
    config = SimulationConfig(
        model=geom_half, n=1, eps=(0.1, 0.5, 1.0, 2.0), replicates=100_000, seed=13
    )
    report = estimate_deviation_probability(config)
    for record in report.records:
        exact = _enumerated_frequency(geom_half, report.entropy.midpoint, record.eps)
        assert abs(record.frequency - exact) <= 4.0 * record.stderr, (
            record.eps, record.frequency, exact,
        )


def test_report_is_reproducible(geom_half):
    config = SimulationConfig(model=geom_half, n=25, eps=(0.3, 0.7), replicates=500, seed=21)
    first = estimate_deviation_probability(config)
    second = estimate_deviation_probability(config)
    # elapsed differs between runs and is excluded from equality
    assert first == second
    assert tuple(rec.eps for rec in first.records) == (0.3, 0.7)


def test_parallel_report_equals_serial_report(geom_half):
    config = SimulationConfig(model=geom_half, n=25, eps=(0.3,), replicates=500, seed=21)
    assert estimate_deviation_probability(config, workers=2) == estimate_deviation_probability(config)


def test_explicit_certificate_is_honoured(geom_half):
    config = SimulationConfig(model=geom_half, n=25, eps=(0.3,), replicates=200, seed=2)
    cert = certify_moment(geom_half, r=0.25, eps=1e-4)
    report = estimate_deviation_probability(config, cert)
    assert report.certificate == cert


def test_centering_is_robust_to_interval_width(geom_half):
    """Shrinking the entropy tolerance must not flip any verdict.

    The tolerance cap (a hundredth of the smallest radius) exists exactly
    so that centring error stays decorative.
    """
    verdicts = []
    for tol in (2e-3, 2e-4, 2e-5):
        config = SimulationConfig(
            model=geom_half, n=50, eps=(0.2, 0.5), replicates=2000, seed=77,
            entropy_tolerance=tol,
        )
        report = estimate_deviation_probability(config)
        verdicts.append(tuple(rec.verdict for rec in report.records))
    assert verdicts[0] == verdicts[1] == verdicts[2]


def test_vacuous_verdict_on_trivial_bound(geom_half):
    config = SimulationConfig(model=geom_half, n=1, eps=(0.1,), replicates=200, seed=1)
    report = estimate_deviation_probability(config)
    record = report.records[0]
    assert record.bound_value >= 1.0
    assert record.verdict == "VACUOUS"


def test_fail_verdict_on_an_unsound_certificate(geom_half):
    # a fabricated certificate far below the true power sum must be caught
    from entrobound import MomentCertificate

    bogus = MomentCertificate(r=0.5, C_r=1e-12, slack=0.0, truncation_index=0, provenance="ratio")
    config = SimulationConfig(model=geom_half, n=100, eps=(0.1,), replicates=2000, seed=1)
    report = estimate_deviation_probability(config, bogus)
    assert report.records[0].verdict == "FAIL"


# -- MGF estimation -----------------------------------------------------------------


def test_estimate_mgf_matches_certified_value(geom_half):
    cert = certify_moment(geom_half, r=0.5, eps=1e-9)
    interval = entropy_interval(geom_half, cert, 1e-12)
    mean, stderr = estimate_mgf(geom_half, interval, 0.25, samples=200_000, seed=31)
    assert stderr < 1e-3
    assert abs(mean - MGF_EXACT_PLUS_QUARTER) <= 4.0 * stderr


def test_estimate_mgf_scores_draws_from_the_head(monkeypatch):
    # The draws are scored from the memoised head the inverse CDF already
    # reads, not by evaluating the log-pmf once per draw.
    terms = []
    log_pmf_array = Geometric.log_pmf_array

    def counted(self, ks, out=None):
        terms.append(np.size(ks))
        return log_pmf_array(self, ks, out)

    model = Geometric(0.5)
    cert = certify_moment(model, r=0.5, eps=1e-9)
    interval = entropy_interval(model, cert, 1e-12)
    monkeypatch.setattr(Geometric, "log_pmf_array", counted)
    estimate_mgf(model, interval, 0.25, samples=200_000, seed=31)
    assert sum(terms) <= 2048


def test_estimate_mgf_validation(geom_half):
    cert = certify_moment(geom_half, r=0.5, eps=1e-9)
    interval = entropy_interval(geom_half, cert, 1e-12)
    with pytest.raises(ValueError):
        estimate_mgf(geom_half, interval, 0.25, samples=0, seed=0)


# -- integrity ------------------------------------------------------------------------


def test_verify_bound_accepts_genuine_reports(geom_half):
    config = SimulationConfig(model=geom_half, n=30, eps=(0.2, 0.6), replicates=400, seed=9)
    report = estimate_deviation_probability(config)
    tally = verify_bound(report)
    assert tally["overall"] == "PASS"
    assert tally["PASS"] + tally["VACUOUS"] + tally["FAIL"] == 2
    # idempotent: a second pass sees the same numbers
    assert verify_bound(report) == tally


def test_verify_bound_catches_tampering(geom_half):
    config = SimulationConfig(model=geom_half, n=30, eps=(0.2,), replicates=400, seed=9)
    report = estimate_deviation_probability(config)
    doctored = dataclasses.replace(
        report,
        records=(dataclasses.replace(report.records[0], frequency=0.0),),
    )
    with pytest.raises(ReportIntegrityError, match="inconsistent"):
        verify_bound(doctored)


# -- sweeps ---------------------------------------------------------------------------


def test_sweep_runs_each_config_with_its_own_seed(geom_half, poisson_one):
    configs = [
        SimulationConfig(model=geom_half, n=20, eps=(0.4,), replicates=300, seed=1),
        SimulationConfig(model=poisson_one, n=20, eps=(0.4,), replicates=300, seed=2),
    ]
    reports = sweep(configs)
    assert [r.seed for r in reports] == [1, 2]
    # a sweep of one config equals a direct run of that config
    assert reports[0] == estimate_deviation_probability(configs[0])


def test_sweep_certificate_list_must_align(geom_half):
    configs = [SimulationConfig(model=geom_half, n=10, eps=(0.4,), replicates=100, seed=0)]
    with pytest.raises(ValueError, match="certificates"):
        sweep(configs, certificates=[None, None])


def test_sweep_abort_carries_partial_results(geom_half):
    uncertifiable = Zeta(1.05)  # the default slack needs sums past the cap
    configs = [
        SimulationConfig(model=geom_half, n=10, eps=(0.4,), replicates=100, seed=0),
        SimulationConfig(model=uncertifiable, n=10, eps=(0.4,), replicates=100, seed=0),
    ]
    with pytest.raises(SweepAborted) as excinfo:
        sweep(configs)
    assert len(excinfo.value.partial) == 1
    assert excinfo.value.partial[0].model == "geometric:0.5"
    assert isinstance(excinfo.value.__cause__, ResourceCapError)


# -- serialisation ----------------------------------------------------------------------


def test_csv_shape_and_float_round_trip(geom_half):
    config = SimulationConfig(model=geom_half, n=30, eps=(0.2, 0.6), replicates=400, seed=9)
    report = estimate_deviation_probability(config)
    text = reports_to_csv([report])
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert cells[0] == "geometric:0.5"
    # repr floats parse back to the exact stored values
    assert float(cells[9]) == report.records[0].frequency
    assert float(cells[11]) == report.records[0].bound_value
    # wall time never appears in machine output
    assert "elapsed" not in text


def test_csv_is_stable_across_runs(geom_half):
    config = SimulationConfig(model=geom_half, n=30, eps=(0.2,), replicates=400, seed=9)
    a = reports_to_csv([estimate_deviation_probability(config)])
    b = reports_to_csv([estimate_deviation_probability(config)])
    assert a == b


def test_numpy_float_certificate_fields_serialise_as_plain_floats(geom_half):
    cert = certify_moment(geom_half, r=np.float64(0.3), eps=1e-4)
    config = SimulationConfig(model=geom_half, n=30, eps=(0.2,), replicates=400, seed=9)
    report = estimate_deviation_probability(config, cert)
    row = reports_to_csv([report]).split("\n")[1].split(",")
    assert row[CSV_COLUMNS.index("r")] == "0.3"
    assert '"r": 0.3,' in reports_to_json([report])


def test_json_payload_shape(geom_half):
    config = SimulationConfig(model=geom_half, n=30, eps=(0.2,), replicates=400, seed=9)
    report = estimate_deviation_probability(config)
    payload = report_to_dict(report)
    assert payload["model"] == "geometric:0.5"
    assert payload["certificate"]["provenance"] == "ratio"
    assert payload["entropy"]["lower"] <= payload["entropy"]["upper"]
    assert len(payload["records"]) == 1
    assert "elapsed_seconds" in payload
    text = reports_to_json([report])
    assert text.endswith("\n")
