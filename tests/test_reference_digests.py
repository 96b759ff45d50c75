"""Workload outputs still match the benchmark's recorded digests.

``bench/references/<workload>.json`` holds, per workload seed, the digest
of every op's output: the simulate and sweep CSV of mc-light and mc-heavy,
and for certify-deep the certificate, bound and sample-size text, entropy
interval, MGF grid and ``select_r`` choice. This test runs each workload's
seed-0 op list through ``bench/workloads.py``, in a temporary directory,
and compares digests op by op, so a change that moves any certified
figure or CSV byte fails here and not only in the benchmark. It reads
``bench/`` and writes nothing there.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while they are built.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["mc-light", "mc-heavy", "certify-deep"])
def test_seed_0_matches_reference_digests(workload, tmp_path, monkeypatch):
    workloads = _workloads(monkeypatch)
    reference = json.loads((BENCH / "references" / f"{workload}.json").read_text())
    expected = reference["seeds"]["0"]
    ops = workloads.prepare(workloads.generate(workload, 0), tmp_path)
    assert len(ops) == len(expected)
    drifted = []
    for i, op in enumerate(ops):
        outcome = workloads.execute(op, tmp_path)
        assert outcome.code == 0, f"{op}: {outcome.error}"
        assert workloads.check(op, outcome) == (0, [])
        if workloads.digest(outcome.output) != expected[i]:
            drifted.append(f"op {i}: {op}")
    assert not drifted, f"outputs differ from bench/references/{workload}.json: {drifted}"
