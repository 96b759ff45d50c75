"""Certify-deep outputs still match the benchmark's recorded digests.

``bench/references/certify-deep.json`` holds, per workload seed, the
digest of every op's output: certificate, bound and sample-size text,
entropy interval, MGF grid and ``select_r`` choice. This test runs the
seed-0 op list through ``bench/workloads.py``, in a temporary directory,
and compares digests op by op, so a change that moves any certified
figure fails here and not only in the benchmark. It reads ``bench/`` and
writes nothing there.
"""

import importlib.util
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while they are built.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_certify_deep_seed_0_matches_reference_digests(tmp_path, monkeypatch):
    workloads = _workloads(monkeypatch)
    reference = json.loads((BENCH / "references" / "certify-deep.json").read_text())
    expected = reference["seeds"]["0"]
    ops = workloads.prepare(workloads.generate("certify-deep", 0), tmp_path)
    assert len(ops) == len(expected)
    drifted = []
    for i, op in enumerate(ops):
        outcome = workloads.execute(op, tmp_path)
        assert outcome.code == 0, f"{op.spec} --slack {op.slack}: {outcome.error}"
        assert workloads.check(op, outcome) == (0, [])
        if workloads.digest(outcome.output) != expected[i]:
            drifted.append(f"op {i}: {op.spec} --slack {op.slack}")
    assert not drifted, f"outputs differ from bench/references/certify-deep.json: {drifted}"
