"""Command line behaviour: parsing, formats, files, exit codes."""

import contextlib
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entrobound
from entrobound import (
    DEFAULT_SLACK,
    Geometric,
    MomentCertificate,
    NegativeBinomial,
    Poisson,
    Zeta,
    bernstein_constants,
    certify_moment,
    min_sample_size,
)
from entrobound import cli
from entrobound.cli import (
    EXIT_INADMISSIBLE,
    EXIT_NO_CERTIFICATE,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_SIM_FAIL,
    EXIT_USAGE,
    main,
    parse_model_spec,
)
from entrobound.errors import AdmissibilityError, ModelError, ResourceCapError


# -- model spec grammar ---------------------------------------------------------


def test_parse_model_spec_families():
    assert parse_model_spec("geometric:0.5") == Geometric(0.5)
    assert parse_model_spec("poisson:2.5") == Poisson(2.5)
    assert parse_model_spec("zeta:2.0") == Zeta(2.0)
    assert parse_model_spec("negbinomial:3,0.4") == NegativeBinomial(3.0, 0.4)
    assert parse_model_spec("GEOMETRIC: 0.5 ") == Geometric(0.5)


def test_parse_model_spec_tabulated(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"probs": [0.5, 0.5]}))
    model = parse_model_spec(f"tabulated:{path}")
    assert model.max_index() == 2


@pytest.mark.parametrize(
    "spec,fragment",
    [
        ("weird:1.0", "unknown model family"),
        ("geometric", "needs 1 parameter"),
        ("geometric:", "needs 1 parameter"),
        ("negbinomial:3", "takes 2 parameter"),
        ("geometric:0.5,0.4", "takes 1 parameter"),
        ("poisson:abc", "bad numeric parameter 'abc'"),
        ("tabulated:", "needs a file path"),
        ("tabulated:/nonexistent/probs.json", "not found"),
    ],
)
def test_parse_model_spec_errors(spec, fragment):
    with pytest.raises(ModelError, match=fragment):
        parse_model_spec(spec)


# -- certify ------------------------------------------------------------------


def test_certify_text_output(capsys):
    assert main(["certify", "geometric:0.5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "model: geometric:0.5" in out
    assert "r: 0.5 (default)" in out
    assert "provenance: ratio" in out
    assert "entropy upper bound (coarse):" in out


def test_certify_json_output(capsys):
    assert main(["certify", "zeta:2.0", "--slack", "0.01", "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["truncation_index"] == 14784
    assert payload["provenance"] == "powerlaw"


def test_certify_saves_a_loadable_certificate(tmp_path, capsys):
    path = tmp_path / "cert.json"
    assert main(["certify", "geometric:0.5", "--r", "0.5", "--out", str(path)]) == EXIT_OK
    cert = MomentCertificate.load(path)
    assert cert == certify_moment(Geometric(0.5), r=0.5)
    assert f"saved to: {path}" in capsys.readouterr().out


def test_certify_renders_the_saved_and_printed_json_once(tmp_path, capsys, monkeypatch):
    renders = []
    dumps = json.dumps

    def counted(*args, **kwargs):
        renders.append(args)
        return dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", counted)
    path = tmp_path / "cert.json"
    assert main(["certify", "poisson:3.3", "--out", str(path), "--format", "json"]) == EXIT_OK
    printed = capsys.readouterr().out
    assert len(renders) == 1
    expected = dumps(certify_moment(Poisson(3.3)).to_dict(), indent=2, sort_keys=True) + "\n"
    assert printed == path.read_text() == expected


def test_certify_with_target_radius(capsys):
    assert main(["certify", "geometric:0.5", "--target-eps", "0.3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "(default)" not in out.splitlines()[1]


# -- bound and samplesize --------------------------------------------------------


def test_bound_from_model_and_from_saved_certificate(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert main(["certify", "geometric:0.5", "--out", str(cert_path)]) == EXIT_OK
    capsys.readouterr()

    assert main(["bound", "geometric:0.5", "--n", "100", "--eps", "0.5"]) == EXIT_OK
    from_model = capsys.readouterr().out
    assert main(["bound", "--cert", str(cert_path), "--n", "100", "--eps", "0.5"]) == EXIT_OK
    from_cert = capsys.readouterr().out
    # same certificate, same numbers
    assert from_model.splitlines()[-1] == from_cert.splitlines()[-1]


def test_bound_csv_and_json_formats(capsys):
    assert main(
        ["bound", "geometric:0.5", "--n", "100", "--eps", "0.5,1.0", "--format", "csv"]
    ) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "eps,bound_value"
    assert len(lines) == 3

    assert main(
        ["bound", "geometric:0.5", "--n", "100", "--eps", "0.5", "--format", "json"]
    ) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 100
    assert len(payload["bounds"]) == 1


def test_bound_requires_model_or_certificate(capsys):
    assert main(["bound", "--n", "100", "--eps", "0.5"]) == EXIT_USAGE
    assert "either a model spec or --cert" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args,fragment",
    [
        (["bound", "--n", "100", "--eps", "0.5", "--r", "0.3"], "--cert cannot be combined with --r"),
        (
            ["bound", "--n", "100", "--eps", "0.5", "--r", "0.3", "--slack", "0.1", "--target-eps", "0.2"],
            "combined with --r, --slack, --target-eps",
        ),
        (["samplesize", "--eps", "0.5", "--delta", "0.05", "--slack", "0.1"], "combined with --slack"),
        (["samplesize", "--eps", "0.5", "--delta", "0.05", "--target-eps", "0.2"], "combined with --target-eps"),
        (["simulate", "geometric:0.5", "--n", "30", "--eps", "0.6", "--r", "0.3"], "combined with --r"),
        (["bound", "geometric:0.5", "--n", "100", "--eps", "0.5"], "combined with a model spec"),
        (["samplesize", "geometric:0.5", "--eps", "0.5", "--delta", "0.05"], "combined with a model spec"),
    ],
)
def test_a_saved_certificate_refuses_conflicting_inputs(tmp_path, capsys, args, fragment):
    # a loaded certificate fixes r and slack and was checked against no model
    cert_path = tmp_path / "cert.json"
    assert main(["certify", "geometric:0.5", "--out", str(cert_path)]) == EXIT_OK
    capsys.readouterr()
    assert main([*args, "--cert", str(cert_path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert fragment in captured.err


def test_bound_huge_radius_is_finite(capsys):
    assert main(["bound", "geometric:0.5", "--n", "1", "--eps", "1e9"]) == EXIT_OK
    assert "bound=0.0" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command,payload,fragment",
    [
        (["bound", "--n", "100", "--eps", "0.5"], {"r": 0.5}, "missing key 'C_r'"),
        (["samplesize", "--eps", "0.5", "--delta", "0.05"], {"C_r": 2.0, "r": 0.5}, "missing key 'slack'"),
        (["bound", "--n", "100", "--eps", "0.5"], [1, 2], "must be a JSON object"),
        (
            ["bound", "--n", "100", "--eps", "0.5"],
            {"r": "half", "C_r": 2.0, "slack": 0.0, "truncation_index": 3, "provenance": "ratio"},
            "malformed value",
        ),
        (
            ["samplesize", "--eps", "0.5", "--delta", "0.05"],
            {"r": 0.5, "C_r": None, "slack": 0.0, "truncation_index": 3, "provenance": "ratio"},
            "malformed value",
        ),
        (
            ["bound", "--n", "100", "--eps", "0.5"],
            {"r": 0.5, "C_r": 2.5, "slack": 0.0, "truncation_index": 7.9, "provenance": "ratio"},
            "truncation_index must be an integer, got 7.9",
        ),
        # booleans are not numbers, though float() reads them as 0.0 and 1.0
        (
            ["bound", "--n", "100", "--eps", "0.5"],
            {"r": 0.5, "C_r": True, "slack": 0.0, "truncation_index": 3, "provenance": "ratio"},
            "C_r must be a number, got True",
        ),
        (
            ["bound", "--n", "100", "--eps", "0.5"],
            {"r": 0.5, "C_r": 2.0, "slack": False, "truncation_index": 3, "provenance": "ratio"},
            "slack must be a number, got False",
        ),
        (
            ["samplesize", "--eps", "0.5", "--delta", "0.05"],
            {"r": True, "C_r": 2.0, "slack": 0.0, "truncation_index": 3, "provenance": "ratio"},
            "malformed value: r must be a number, got True",
        ),
        # neither are strings, though float() reads them as the number they spell
        (
            ["bound", "--n", "100", "--eps", "0.5"],
            {"r": 0.5, "C_r": "2.4142137483611488", "slack": 1e-6, "truncation_index": 43, "provenance": "ratio"},
            "malformed value: C_r must be a number, got '2.4142137483611488'",
        ),
        (
            ["bound", "--n", "100", "--eps", "0.5"],
            {"r": "0.5", "C_r": 2.4142137483611488, "slack": 1e-6, "truncation_index": 43, "provenance": "ratio"},
            "malformed value: r must be a number, got '0.5'",
        ),
        # nor is a string an integer, though int() reads the number it spells
        (
            ["bound", "--n", "100", "--eps", "0.5"],
            {"r": 0.5, "C_r": 2.4142137483611488, "slack": 1e-6, "truncation_index": "3", "provenance": "ratio"},
            "malformed value: truncation_index must be an integer, got '3'",
        ),
        # an integer past the float range is a malformed value, not an OverflowError
        (
            ["bound", "--n", "100", "--eps", "0.5"],
            {"r": 0.5, "C_r": 10**400, "slack": 1e-6, "truncation_index": 43, "provenance": "ratio"},
            "C_r must be a number, got an integer too large for a float",
        ),
    ],
)
def test_malformed_certificate_is_a_usage_error(tmp_path, capsys, command, payload, fragment):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(payload))
    assert main([*command, "--cert", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


def test_samplesize_forward(capsys):
    assert main(
        ["samplesize", "geometric:0.5", "--r", "0.5", "--eps", "0.5", "--delta", "0.05"]
    ) == EXIT_OK
    out = capsys.readouterr().out
    expected = min_sample_size(
        bernstein_constants(certify_moment(Geometric(0.5), r=0.5)), 0.5, 0.05
    )
    assert out.strip().endswith(str(expected))


def test_samplesize_inverse(capsys):
    assert main(
        ["samplesize", "geometric:0.5", "--n", "1000000", "--delta", "0.05",
         "--format", "json"]
    ) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "radius"
    assert 0.006 < payload["eps"] < 0.007


def test_samplesize_near_vacuous_target(capsys):
    assert main(
        ["samplesize", "geometric:0.5", "--eps", "0.5", "--delta", "1.999"]
    ) == EXIT_OK
    assert capsys.readouterr().out.strip().endswith("1")


class _PastOneSecond(Exception):
    """Not an ``OSError``, which ``main`` would report as a usage error."""


def _alarm(signum, frame):
    raise _PastOneSecond


@pytest.mark.parametrize("eps", ["1e-300", "1e-160", "1e-140"])
def test_samplesize_at_a_tiny_radius_hits_the_cap(capsys, eps):
    # eps**2 underflows to 0 (1e-300) or to a subnormal the closed form
    # overflows on (1e-160); at 1e-140 the closed form is finite but far past
    # 2**53, where stepping n by one no longer changes n * eps**2.
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        code = main(["samplesize", "geometric:0.5", "--delta", "0.05", "--eps", eps])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert code == EXIT_RESOURCE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"radius {eps} at delta 0.05" in err and "2**53" in err


def test_samplesize_just_below_the_cap(capsys):
    assert main(["samplesize", "geometric:0.5", "--delta", "0.05", "--eps", "1e-7"]) == EXIT_OK
    assert capsys.readouterr().out.strip().endswith(" 4019622318081783")


def test_samplesize_needs_exactly_one_mode(capsys):
    assert main(["samplesize", "geometric:0.5", "--delta", "0.05"]) == EXIT_USAGE
    assert main(
        ["samplesize", "geometric:0.5", "--eps", "0.5", "--n", "10", "--delta", "0.05"]
    ) == EXIT_USAGE


# -- simulate --------------------------------------------------------------------


def test_simulate_text_output(capsys):
    code = main(
        ["simulate", "geometric:0.5", "--n", "50", "--eps", "0.4,0.8",
         "--replicates", "300", "--seed", "5"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "entropy interval:" in out
    assert out.count("eps=") == 2


def test_simulate_csv_is_byte_identical_across_runs(capsys):
    argv = ["simulate", "geometric:0.5", "--n", "30", "--eps", "0.2,0.6",
            "--replicates", "400", "--seed", "9", "--format", "csv"]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("model,n,replicates,seed,")


def test_simulate_writes_output_file(tmp_path, capsys):
    out_path = tmp_path / "run.csv"
    assert main(
        ["simulate", "geometric:0.5", "--n", "30", "--eps", "0.6",
         "--replicates", "300", "--seed", "4", "--out", str(out_path)]
    ) == EXIT_OK
    # text goes to the terminal, machine-readable rows to the file
    assert "eps=" in capsys.readouterr().out
    assert out_path.read_text().startswith("model,n,")


_SIMULATE_ARGV = ["simulate", "geometric:0.5", "--n", "30", "--eps", "0.6", "--replicates", "300", "--seed", "4"]

# Each --out writer: (argv writing the file, argv printing the file's bytes).
_OUT_WRITERS = {
    "certify": (["certify", "geometric:0.5"], ["certify", "geometric:0.5", "--format", "json"]),
    "bound": (
        ["bound", "geometric:0.5", "--n", "100", "--eps", "0.5,1.0"],
        ["bound", "geometric:0.5", "--n", "100", "--eps", "0.5,1.0"],
    ),
    "simulate-csv": ([*_SIMULATE_ARGV, "--format", "csv"], [*_SIMULATE_ARGV, "--format", "csv"]),
    "simulate-text": ([*_SIMULATE_ARGV, "--format", "text"], [*_SIMULATE_ARGV, "--format", "csv"]),
}


@pytest.mark.parametrize("writer", _OUT_WRITERS)
def test_out_overwrites_a_longer_file_with_exactly_the_new_bytes(tmp_path, capsys, writer):
    argv, printing = _OUT_WRITERS[writer]
    assert main(printing) == EXIT_OK
    expected = capsys.readouterr().out.encode()
    path = tmp_path / "out"
    path.write_bytes(b"x" * (3 * len(expected)))
    assert main([*argv, "--out", str(path)]) == EXIT_OK
    assert path.read_bytes() == expected


def test_simulate_json_format(capsys):
    assert main(
        ["simulate", "poisson:1.0", "--n", "30", "--eps", "0.6",
         "--replicates", "300", "--seed", "4", "--format", "json"]
    ) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["model"] == "poisson:1.0"


def test_simulate_with_saved_certificate(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    main(["certify", "geometric:0.5", "--out", str(cert_path)])
    capsys.readouterr()
    assert main(
        ["simulate", "geometric:0.5", "--n", "30", "--eps", "0.6",
         "--replicates", "300", "--seed", "4", "--cert", str(cert_path)]
    ) == EXIT_OK


def test_simulate_refuses_a_certificate_its_model_refutes(tmp_path, capsys):
    # Geometric(0.9)'s C_r is 1.387; Geometric(0.3)'s power sum through its
    # own truncation index 85 is 3.353, so the loaded certificate is unsound
    cert_path = tmp_path / "g.json"
    assert main(["certify", "geometric:0.9", "--out", str(cert_path)]) == EXIT_OK
    capsys.readouterr()
    argv = ["simulate", "geometric:0.3", "--cert", str(cert_path),
            "--n", "200", "--replicates", "2000", "--eps", "0.2,0.4,0.8"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "claims C_r = 1.3874264479802045, below 3.35326" in captured.err
    assert "through k = 85" in captured.err


def test_simulate_with_the_models_own_saved_certificate_matches_certifying(tmp_path, capsys):
    cert_path = tmp_path / "g.json"
    assert main(["certify", "geometric:0.3", "--out", str(cert_path)]) == EXIT_OK
    capsys.readouterr()
    argv = ["simulate", "geometric:0.3", "--n", "200", "--replicates", "2000",
            "--eps", "0.2,0.4,0.8", "--format", "csv"]
    assert main(argv) == EXIT_OK
    certified = capsys.readouterr().out
    assert main([*argv, "--cert", str(cert_path)]) == EXIT_OK
    assert capsys.readouterr().out == certified


def test_simulate_fail_verdict_exit_code(tmp_path, capsys):
    # a certificate claiming an absurdly small power sum gets caught
    cert_path = tmp_path / "bogus.json"
    MomentCertificate(
        r=0.5, C_r=1e-12, slack=0.0, truncation_index=0, provenance="ratio"
    ).save(cert_path)
    code = main(
        ["simulate", "geometric:0.5", "--n", "100", "--eps", "0.1",
         "--replicates", "2000", "--seed", "1", "--cert", str(cert_path)]
    )
    assert code == EXIT_SIM_FAIL
    assert "FAIL" in capsys.readouterr().out


def test_simulate_rejects_bad_entropy_tolerance(capsys):
    code = main(
        ["simulate", "geometric:0.5", "--n", "30", "--eps", "0.5",
         "--replicates", "300", "--entropy-tol", "0.01"]
    )
    assert code == EXIT_USAGE
    assert "entropy_tolerance" in capsys.readouterr().err


# -- sweep -----------------------------------------------------------------------


def test_sweep_from_config_file(tmp_path, capsys):
    config = [
        {"model": "geometric:0.5", "n": 30, "eps": [0.4, 0.8], "replicates": 300, "seed": 1},
        {"model": "poisson:1.0", "n": 30, "eps": 0.8, "replicates": 300, "seed": 2,
         "r": 0.5, "slack": 1e-7},
    ]
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(path)]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4  # header + 3 eps rows
    assert lines[3].split(",")[6] == "1e-07"  # per-config slack honoured


def test_sweep_accepts_wrapped_config(tmp_path, capsys):
    payload = {"configs": [
        {"model": "geometric:0.5", "n": 30, "eps": 0.8, "replicates": 300, "seed": 1},
    ]}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(payload))
    assert main(["sweep", "--config", str(path)]) == EXIT_OK
    capsys.readouterr()


def test_sweep_abort_flushes_partial_results(tmp_path, capsys):
    config = [
        {"model": "geometric:0.5", "n": 30, "eps": 0.8, "replicates": 300, "seed": 1},
        # certified inside the sweep, past the truncation cap
        {"model": "zeta:1.05", "n": 30, "eps": 0.8, "replicates": 300, "seed": 2},
    ]
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    code = main(["sweep", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_RESOURCE
    assert "sweep aborted on config 1" in captured.err
    # the finished geometric rows were still written
    assert "geometric:0.5" in captured.out


def test_sweep_entry_certified_while_reading_flushes_nothing(tmp_path, capsys):
    # an entry with "slack" is certified before any entry runs, so the
    # geometric entry before it never runs
    config = [
        {"model": "geometric:0.5", "n": 30, "eps": 0.8, "replicates": 300, "seed": 1},
        {"model": "zeta:1.01", "n": 30, "eps": 0.8, "replicates": 300, "seed": 2, "slack": 1e-6},
    ]
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(path)]) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("[]", "nonempty"),
        ("{}", "nonempty"),
        ("{not json", "not valid JSON"),
        ('[{"n": 3}]', "missing key"),
        ('[{"model": "geometric:0.5", "n": null, "eps": 0.5}]', "malformed sweep config entry"),
        ('[{"model": "geometric:0.5", "n": 30, "eps": null}]', "deviation radii"),
        ('[{"model": 5, "n": 30, "eps": 0.5}]', "model spec must be a string"),
        ('[{"model": "geometric:0.5", "n": 30, "eps": 0.5, "r": "x"}]', "malformed sweep config entry"),
        ('[{"model": "geometric:0.5", "n": 30, "eps": 0.5, "replicates": null}]',
         "malformed sweep config entry"),
        ('[{"model": "geometric:0.5", "n": 2.7, "eps": 0.5}]', "n must be an integer, got 2.7"),
        ('[{"model": "geometric:0.5", "n": true, "eps": 0.5}]', "n must be an integer, got True"),
        ('[{"model": "geometric:0.5", "n": 1e999, "eps": 0.5}]', "n must be an integer, got inf"),
        ('[{"model": "geometric:0.5", "n": 30, "eps": 0.5, "seed": 3.7}]', "seed must be an integer"),
        ('[{"model": "geometric:0.5", "n": 30, "eps": 0.5, "replicates": 300.5}]',
         "replicates must be an integer"),
        ('[{"model": "geometric:0.5", "n": 30, "eps": [true]}]', "eps must be a number, got True"),
        ('[{"model": "geometric:0.5", "n": 30, "eps": true}]', "eps must be a number, got True"),
        # a string is not a radius, though float() reads "5" and a list reads "12" as "1", "2"
        ('[{"model": "geometric:0.5", "n": 30, "eps": "12", "replicates": 100}]',
         "eps must be a number or a list of deviation radii, got '12'"),
        ('[{"model": "geometric:0.5", "n": 30, "eps": "5", "replicates": 100}]',
         "eps must be a number or a list of deviation radii, got '5'"),
        ('[{"model": "geometric:0.5", "n": 30, "eps": ["0.1"], "replicates": 100}]',
         "eps must be a number, got '0.1'"),
        ('[{"model": "geometric:0.5", "n": 30, "eps": 0.5, "r": true}]', "r must be a number, got True"),
        ('[{"model": "geometric:0.5", "n": 30, "eps": 0.5, "slack": true}]', "slack must be a number, got True"),
        ('[{"model": "geometric:0.5", "n": 30, "eps": 0.5, "entropy_tol": false}]',
         "entropy_tol must be a number, got False"),
        # strings are not integers, though int() reads "10" as 10
        ('[{"model": "geometric:0.5", "n": "10", "eps": 0.5, "replicates": 100, "seed": 3}]',
         "n must be an integer, got '10'"),
        ('[{"model": "geometric:0.5", "n": 10, "eps": 0.5, "replicates": "100", "seed": 3}]',
         "replicates must be an integer, got '100'"),
        ('[{"model": "geometric:0.5", "n": 10, "eps": 0.5, "replicates": 100, "seed": "3"}]',
         "seed must be an integer, got '3'"),
        # integers past the float range
        pytest.param('[{"model": "geometric:0.5", "n": 30, "eps": 0.5, "slack": 1%s}]' % ("0" * 400),
                     "slack must be a number, got an integer too large for a float", id="slack-10**400"),
        pytest.param('[{"model": "geometric:0.5", "n": 30, "eps": 1%s, "replicates": 100}]' % ("0" * 400),
                     "eps must be a number, got an integer too large for a float", id="eps-10**400"),
    ],
)
def test_sweep_config_validation(tmp_path, capsys, content, fragment):
    path = tmp_path / "sweep.json"
    path.write_text(content)
    assert main(["sweep", "--config", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert fragment in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("workers", [0, -1, 3])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_workers_outside_the_available_cpus_are_a_usage_error(tmp_path, capsys, monkeypatch, command, workers):
    # two CPUs available, so 3 is one past the limit; the check starts no process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps([{"model": "geometric:0.5", "n": 30, "eps": 0.5, "replicates": 300}]))
    args = {
        "simulate": ["simulate", "geometric:0.5", "--n", "30", "--eps", "0.5", "--replicates", "300"],
        "sweep": ["sweep", "--config", str(config)],
    }[command]
    assert main([*args, "--workers", str(workers)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --workers must lie in 1..2, the CPUs available, got {workers}\n"


# -- exit codes -------------------------------------------------------------------


def test_simulate_a_model_whose_head_masses_underflow():
    # Poisson(1e6) masses underflow to 0 for the first thousand outcomes
    package_root = str(Path(entrobound.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "entrobound.cli", "simulate", "poisson:1e6",
         "--n", "10", "--replicates", "100", "--eps", "0.5"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=package_root),
    )
    assert result.returncode == EXIT_OK, result.stderr
    assert "eps=0.5: hits=" in result.stdout


def test_exit_code_usage(capsys):
    assert main(["certify", "weird:1.0"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["certify", "poisson:abc"]) == EXIT_USAGE
    capsys.readouterr()
    assert main([]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "n,replicates,fragment",
    [
        (10**12, 100, "n = 1000000000000 draws per replicate exceeds the cap"),
        (200, 10**12, "replicates = 1000000000000 exceeds the cap"),
    ],
)
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_simulation_size_caps_exit_before_allocating(tmp_path, capsys, command, n, replicates, fragment):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps([{"model": "geometric:0.5", "n": n, "eps": 0.5, "replicates": replicates}]))
    args = {
        "simulate": ["simulate", "geometric:0.5", "--n", str(n), "--replicates", str(replicates), "--eps", "0.5"],
        "sweep": ["sweep", "--config", str(config)],
    }[command]
    assert main(args) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert fragment in captured.err


def test_exit_code_inadmissible(capsys):
    assert main(["certify", "zeta:2.0", "--r", "0.6"]) == EXIT_INADMISSIBLE
    assert "inadmissible r" in capsys.readouterr().err


@pytest.mark.parametrize(
    "tail",
    [
        {"kind": "power_law", "k0": 10, "c0": 0.6, "alpha": 2.0},
        {"kind": "geometric_ratio", "k0": 5, "q": 0.5},
    ],
)
def test_certify_reads_the_documented_tail_schema(tmp_path, capsys, tail):
    # the table format the README documents: listed masses closed off by a tail
    table = tmp_path / "t.json"
    table.write_text(json.dumps({"probs": [0.5**k for k in range(1, 11)], "tail": tail}))
    # ten listed masses leave a tail that only a loose slack can cover
    assert main(["certify", f"tabulated:{table}", "--slack", "1.0"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "C_r" in captured.out


@pytest.mark.parametrize(
    "tail,fragment",
    [
        ({"kind": "ratio", "k0": 1}, "ratio tail certificate is missing key 'q'"),
        ({"kind": "geometric_ratio", "k0": 1, "q": None}, "ratio tail certificate has a malformed value"),
        ({"kind": "geometric_ratio", "k0": 1, "q": "x"}, "ratio tail certificate has a malformed value"),
        ({"kind": "power_law", "c0": 0.6, "alpha": 2.0}, "power-law tail certificate is missing key 'k0'"),
        ({"kind": "power_law", "k0": None, "c0": 0.6, "alpha": 2.0}, "power-law tail certificate has a malformed"),
        ({"kind": ["ratio"], "k0": 1, "q": 0.5}, "unknown tail certificate kind"),
        ({"kind": "geometric_ratio", "k0": 1, "q": True}, "tail q must be a number, got True"),
        ({"kind": "power_law", "k0": 1, "c0": True, "alpha": 2.0}, "tail c0 must be a number, got True"),
        ({"kind": "power_law", "k0": 1, "c0": 0.6, "alpha": True}, "tail alpha must be a number, got True"),
        ({"kind": "geometric_ratio", "k0": "1", "q": 0.5}, "tail k0 must be an integer, got '1'"),
        ({"kind": "geometric_ratio", "k0": 1, "q": 10**400}, "tail q must be a number, got an integer too large"),
    ],
)
def test_certify_names_a_missing_or_malformed_tail_field(tmp_path, capsys, tail, fragment):
    table = tmp_path / "t.json"
    table.write_text(json.dumps({"probs": [0.5, 0.25], "tail": tail}))
    assert main(["certify", f"tabulated:{table}"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err
    with pytest.raises(ModelError, match="tail certificate"):
        entrobound.Tabulated.from_dict({"probs": [0.5, 0.25], "tail": tail})


def test_certify_refuses_a_boolean_mass(tmp_path, capsys):
    # float(True) is 1.0, which made a one-point table
    table = tmp_path / "t.json"
    table.write_text(json.dumps({"probs": [True]}))
    assert main(["certify", f"tabulated:{table}"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "probs must be a number, got True" in err


@pytest.mark.parametrize(
    "payload,fragment",
    [
        (["probs"], "a tabulated model must be a JSON object, got ['probs']"),
        # numpy read a bare number as a 0-d table, or overflowed on a huge one
        ({"probs": 10**400}, 'tabulated JSON must contain a "probs" array'),
        ({"probs": [10**400]}, "probs must be a number, got an integer too large for a float"),
    ],
    ids=["list", "probs-10**400", "mass-10**400"],
)
def test_a_malformed_table_file_is_a_usage_error(tmp_path, capsys, payload, fragment):
    table = tmp_path / "t.json"
    table.write_text(json.dumps(payload))
    assert main(["certify", f"tabulated:{table}"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


# The closed-form start 2 * prob * (size - 1) / (1 - prob) overflows at
# 1e308; at 1e100 it is finite but one step of k0 no longer moves the
# float mass ratio, and the search for the exact start never ended.
@pytest.mark.parametrize("size", ["1e308", "1e100"])
def test_a_negative_binomial_tail_start_past_float_resolution_is_a_cap(capsys, size):
    assert main(["certify", f"negbinomial:{size},0.5"]) == EXIT_RESOURCE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"negative binomial size {float(size)!r} with prob 0.5" in err


# Twice the rate overflows to inf at 1e308 and beyond, and k0 =
# ceil(2 * rate) raised an OverflowError.
@pytest.mark.parametrize("rate", ["1e308", "1.7976931348623157e308"])
def test_a_poisson_tail_start_past_float_resolution_is_a_cap(capsys, rate):
    assert main(["certify", f"poisson:{rate}"]) == EXIT_RESOURCE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"poisson rate {float(rate)!r} starts its ratio tail" in err


# r * r underflows to zero at 1e-300, which was a ZeroDivisionError, and to
# a subnormal at 1e-160, which gave an infinite c1 and an error without r.
@pytest.mark.parametrize("r", ["1e-300", "1e-160"])
@pytest.mark.parametrize("source", ["spec", "cert"])
@pytest.mark.parametrize("command", [
    ["bound", "--n", "100", "--eps", "0.1"],
    ["samplesize", "--eps", "0.1", "--delta", "0.05"],
    ["simulate", "--n", "10", "--eps", "0.5", "--replicates", "100"],
])
def test_an_order_whose_square_underflows_is_a_usage_error(tmp_path, capsys, r, source, command):
    if source == "spec":
        argv = [command[0], "geometric:0.5", "--r", r, *command[1:]]
    else:
        cert = tmp_path / "cert.json"
        assert main(["certify", "geometric:0.5", "--r", r, "--out", str(cert)]) == EXIT_OK
        capsys.readouterr()
        model = ["geometric:0.5"] if command[0] == "simulate" else []
        argv = [command[0], *model, "--cert", str(cert), *command[1:]]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"moment order r={float(r)!r} with C_r=" in captured.err
    assert captured.out == ""


# With prob within about 1e-7 of 1 the float mass ratio is flat over
# billions of indices around the tail start, so a unit-step search for it
# never ended.
@pytest.mark.parametrize("spec", [
    "negbinomial:1000.0187268323821,0.999999999985892",
    "negbinomial:2.734004642842936,0.9999999999999659",
])
def test_a_negative_binomial_tail_start_on_a_flat_ratio_is_found_at_once(spec):
    result = subprocess.run(
        [sys.executable, "-m", "entrobound.cli", "certify", spec],
        capture_output=True, text=True, timeout=2,
        env=dict(os.environ, PYTHONPATH=str(Path(entrobound.__file__).resolve().parents[1])),
    )
    assert result.returncode in (EXIT_OK, EXIT_RESOURCE)
    if result.returncode != EXIT_OK:
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


def test_simulate_a_table_that_runs_out_before_the_entropy_tolerance(tmp_path, capsys):
    # the slack is met at index 16 but the entropy tolerance min(eps)/100 is not
    # met by the twenty listed masses: a model error, as in certification
    table = tmp_path / "t20.json"
    tail = {"kind": "geometric_ratio", "k0": 1, "q": 0.5}
    table.write_text(json.dumps({"probs": [0.5**k for k in range(1, 21)], "tail": tail}))
    argv = ["simulate", f"tabulated:{table}", "--slack", "0.01", "--n", "10", "--eps", "0.1", "--replicates", "100"]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "entropy tolerance 0.001 at r=0.5 is unreachable with only 20 listed masses" in err


def test_an_unreachable_slack_on_a_power_law_table_names_its_end(tmp_path, capsys):
    # the closed-form cut used to land past the table end ("mass unknown")
    table = tmp_path / "t.json"
    tail = {"kind": "power_law", "k0": 10, "c0": 0.6, "alpha": 2.0}
    table.write_text(json.dumps({"probs": [0.5**k for k in range(1, 11)], "tail": tail}))
    assert main(["certify", f"tabulated:{table}", "--slack", "0.1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "is unreachable with only 10 listed masses" in err


# k0 past the int64 range: the listed masses past k0 were checked with
# np.arange(k0 + 1, n + 1), which numpy refused as too large
def test_a_complete_table_with_a_tail_past_int64_certifies_through_its_end(tmp_path, capsys):
    table = tmp_path / "t.json"
    tail = {"kind": "power_law", "k0": 1e30, "c0": 1, "alpha": 2}
    table.write_text(json.dumps({"probs": [0.5, 0.5], "tail": tail}))
    assert main(["certify", f"tabulated:{table}", "--format", "json"]) == EXIT_OK
    cert = json.loads(capsys.readouterr().out)
    assert cert["truncation_index"] == 2


def test_an_incomplete_table_with_a_tail_past_int64_is_refused(tmp_path, capsys):
    table = tmp_path / "t.json"
    tail = {"kind": "power_law", "k0": 1e30, "c0": 1, "alpha": 2}
    table.write_text(json.dumps({"probs": [0.5, 0.25], "tail": tail}))
    assert main(["certify", f"tabulated:{table}"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"k0={int(1e30)}, beyond the 2 listed masses" in err


def test_certify_rejects_a_tail_that_starts_past_the_table(tmp_path, capsys):
    # the masses 11..20 would be bounded by nothing; certification used to
    # fail later with "mass unknown"
    table = tmp_path / "t.json"
    tail = {"kind": "power_law", "k0": 20, "c0": 0.6, "alpha": 2.0}
    table.write_text(json.dumps({"probs": [0.5**k for k in range(1, 11)], "tail": tail}))
    assert main(["certify", f"tabulated:{table}"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "k0=20, beyond the 10 listed masses" in err


def test_exit_code_missing_certificate(tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"probs": [0.6, 0.3]}))  # 0.1 unlisted, no tail
    assert main(["certify", f"tabulated:{table}"]) == EXIT_NO_CERTIFICATE
    assert "a tail certificate is required" in capsys.readouterr().err


def test_certify_a_complete_table_without_a_tail(tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"probs": [0.6, 0.4]}))
    assert main(["certify", f"tabulated:{table}"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "truncation index: 2" in out
    assert "provenance: exact" in out


def test_select_r_on_a_complete_table_without_a_tail(tmp_path, capsys):
    # The grid spans the admissible interval (0, 1) that certify_moment
    # uses for such a table.
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"probs": [0.6, 0.4]}))
    argv = ["certify", f"tabulated:{table}", "--target-eps", "0.1", "--format", "json"]
    assert main(argv) == EXIT_OK
    cert = json.loads(capsys.readouterr().out)
    assert 0.0 < cert["r"] < 1.0
    assert cert["provenance"] == "exact"
    assert cert["truncation_index"] == 2


def test_exit_code_resource_cap(capsys):
    assert main(["certify", "zeta:1.05"]) == EXIT_RESOURCE
    assert "cap" in capsys.readouterr().err


# -- file reader fuzzing ----------------------------------------------------------

# One valid file of each kind the CLI reads, the command that reads it, and
# the paths of its fields; () stands for the top-level value itself.
_FUZZ_FILES = {
    "certificate": (
        {"r": 0.5, "C_r": 2.4142137483611488, "slack": 1e-6, "truncation_index": 43, "provenance": "ratio"},
        ["simulate", "geometric:0.5", "--n", "20", "--eps", "0.5", "--replicates", "100", "--cert", "{path}"],
        [(), ("r",), ("C_r",), ("slack",), ("truncation_index",), ("provenance",)],
    ),
    "table": (
        {"probs": [0.5**k for k in range(1, 21)], "tail": {"kind": "geometric_ratio", "k0": 1, "q": 0.5}},
        ["certify", "tabulated:{path}", "--slack", "0.01"],
        [(), ("probs",), ("probs", 0), ("tail",), ("tail", "kind"), ("tail", "k0"), ("tail", "q")],
    ),
    "sweep entry": (
        {"model": "geometric:0.5", "n": 20, "eps": [0.5], "replicates": 100, "seed": 1,
         "r": 0.5, "slack": 1e-6, "entropy_tol": 1e-3},
        ["sweep", "--config", "{path}"],
        [(), ("model",), ("n",), ("eps",), ("eps", 0), ("replicates",), ("seed",),
         ("r",), ("slack",), ("entropy_tol",)],
    ),
}

_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=6),
    st.lists(st.one_of(st.integers(-3, 3), st.floats(-2.0, 2.0), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
    st.integers(min_value=10**308, max_value=10**400),
    # json.dumps writes these as the raw tokens NaN, Infinity and -Infinity
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_file_readers_end_in_an_exit_code_never_a_traceback(tmp_path_factory, data):
    kind = data.draw(st.sampled_from(sorted(_FUZZ_FILES)), label="file")
    valid, argv, paths = _FUZZ_FILES[kind]
    where = data.draw(st.sampled_from(paths), label="field")
    junk = data.draw(_JUNK, label="value")
    payload = json.loads(json.dumps(valid))
    if where:
        *parents, last = where
        holder = payload
        for key in parents:
            holder = holder[key]
        holder[last] = junk
    else:
        payload = junk
    path = tmp_path_factory.getbasetemp() / "fuzz-input.json"
    path.write_text(json.dumps([payload] if kind == "sweep entry" else payload))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.replace("{path}", str(path)) for arg in argv])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_INADMISSIBLE, EXIT_NO_CERTIFICATE, EXIT_RESOURCE, EXIT_SIM_FAIL)
    if code not in (EXIT_OK, EXIT_SIM_FAIL):
        message = err.getvalue()
        assert message.startswith("error: ") and message.count("\n") == 1, message


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == EXIT_OK
    assert main(["simulate", "--help"]) == EXIT_OK


def _reference_main(argv):
    """``main`` as it parsed before: the full parser, then the handler."""
    try:
        args = cli._parsers()[0].parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.handler(args)
    except (ModelError, AdmissibilityError, ResourceCapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli._code_for(exc)


def _captured(run, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


_VALID_CALLS = [
    ["certify", "geometric:0.5", "--slack", "0.001"],
    ["bound", "poisson:2", "--n", "100", "--eps", "0.5,1.0", "--format", "csv"],
    ["samplesize", "geometric:0.5", "--eps", "0.5", "--delta", "0.05", "--format", "json"],
    [*_SIMULATE_ARGV, "--format", "csv"],
    ["sweep", "--config", "{sweep}"],
]


def _with_sweep_config(argv, tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps([{"model": "geometric:0.5", "n": 20, "eps": [0.6], "replicates": 100}]))
    return [arg.replace("{sweep}", str(config)) for arg in argv]


@pytest.mark.parametrize("argv", [
    ["certify", "geometric:0.5", "--bogus"],
    ["certify", "geometric:0.5", "stray"],
    ["certify"],
    ["bound", "geometric:0.5", "--eps", "0.5"],
    ["bound", "geometric:0.5", "--n", "ten", "--eps", "0.5"],
    ["certify", "geometric:0.5", "--format", "yaml"],
    ["bound", "geometric:0.5", "--eps", "0.5", "--n"],
    ["certify", "--", "geometric:0.5"],
    [],
    ["frobnicate", "geometric:0.5"],
    ["--help"],
    ["certify", "-h"],
    *_VALID_CALLS,
], ids=" ".join)
def test_dispatch_matches_the_full_parser(tmp_path, argv):
    argv = _with_sweep_config(argv, tmp_path)
    expected = _captured(_reference_main, argv)
    assert _captured(main, argv) == expected
    assert expected[0] in (EXIT_OK, EXIT_USAGE)


def test_a_subcommand_is_parsed_without_the_full_parser(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the full parser ran")

    monkeypatch.setattr(cli._parsers()[0], "parse_known_args", refuse)
    for argv in _VALID_CALLS:
        assert main(_with_sweep_config(argv, tmp_path)) == EXIT_OK
    assert main(["certify", "geometric:0.5", "--bogus"]) == EXIT_USAGE
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    with pytest.raises(AssertionError, match="the full parser ran"):
        main(["--help"])


def test_reused_parser_carries_nothing_between_calls(capsys):
    assert cli._parsers()[0] is cli._parsers()[0]
    first = ["certify", "geometric:0.5", "--r", "0.3", "--slack", "0.01", "--format", "json"]
    assert main(first) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["r"] == 0.3
    assert main(["--help"]) == EXIT_OK
    assert main(["certify", "--help"]) == EXIT_OK
    assert main(["certify"]) == EXIT_USAGE
    assert main(["bound", "geometric:0.5", "--eps", "0.5"]) == EXIT_USAGE
    capsys.readouterr()
    # neither the first call's --r, --slack nor its format carries over
    bound = ["bound", "geometric:0.5", "--n", "10", "--eps", "0.5", "--format", "json"]
    assert main(bound) == EXIT_OK
    certificate = json.loads(capsys.readouterr().out)["certificate"]
    assert (certificate["r"], certificate["slack"]) == (0.5, DEFAULT_SLACK)
    assert main(["certify", "geometric:0.5"]) == EXIT_OK
    assert "r: 0.5 (default)" in capsys.readouterr().out


def _declared_console_script(name):
    """Return the ``module:function`` target that pyproject.toml declares for ``name``."""
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = pytest.importorskip("tomli")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert name in scripts, f"pyproject.toml [project.scripts] declares no {name!r} entry"
    module, sep, func = scripts[name].partition(":")
    assert sep and module and func, (
        f"[project.scripts] {name} = {scripts[name]!r} is not of the form module:function"
    )
    return module, func


def test_scipy_is_imported_only_for_the_models_that_need_it(tmp_path):
    # a fresh interpreter: this one imported scipy for other tests long ago
    cert = str(tmp_path / "cert.json")
    code = (
        "import sys\n"
        "from entrobound.cli import main\n"
        "from entrobound import distributions\n"
        "print('outcome table:', distributions._outcome_table)\n"
        f"main(['certify', 'geometric:0.5', '--out', {cert!r}])\n"
        f"main(['bound', '--cert', {cert!r}, '--n', '100', '--eps', '0.5'])\n"
        "print('loaded:', 'scipy' in sys.modules, 'concurrent.futures.process' in sys.modules)\n"
        "main(['certify', 'poisson:4'])\n"
        "print('loaded:', 'scipy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(entrobound.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    loaded = [line for line in result.stdout.splitlines() if line.startswith("loaded:")]
    assert loaded == ["loaded: False False", "loaded: True"]
    # the outcome table is built on first use, not at import
    assert "outcome table: None" in result.stdout.splitlines()


def test_console_script_is_installed(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "entrobound.cli"],
        capture_output=True, text=True,
    )
    # module is importable; the entry point itself is exercised in-process above
    assert result.returncode in (0, 1, 2)
    # Write the wrapper an installer generates from [project.scripts] and run it
    # from the front of PATH, so the declared entry point of this checkout is
    # what runs, not an `entrobound` left on PATH by some other install.
    module, func = _declared_console_script("entrobound")
    bindir = tmp_path / "bin"
    bindir.mkdir()
    script = bindir / "entrobound"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n"
    )
    script.chmod(0o755)
    package_root = str(Path(entrobound.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PATH=os.pathsep.join([str(bindir), os.environ.get("PATH", "")]),
        PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])),
    )
    installed = subprocess.run(
        ["entrobound", "--help"], capture_output=True, text=True, env=env
    )
    assert installed.returncode == 0
    assert "certify" in installed.stdout


@pytest.mark.skipif(shutil.which("entrobound") is None, reason="entrobound is not installed")
def test_installed_console_script_runs():
    installed = subprocess.run(["entrobound", "--help"], capture_output=True, text=True)
    assert installed.returncode == 0
    assert "certify" in installed.stdout
