"""Checks on the benchmark itself: run with ``python3 -m pytest bench``.

Work counts must repeat exactly for one seed, or a count could not back a
claim; and the runner must refuse to report when the sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402


def _traced_counts(workload: str, seed: int, workdir: Path, ops: int = 4):
    plan = workloads.prepare(workloads.generate(workload, seed)[:ops], workdir)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        outputs = [workloads.execute(op, workdir).output for op in plan]
    finally:
        uninstall()
    spans, counts = tracer.take()
    assert spans.size > 0
    return counts, outputs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_and_outputs_repeat_for_one_seed(workload, tmp_path):
    first = _traced_counts(workload, 7, tmp_path)
    second = _traced_counts(workload, 7, tmp_path)
    assert first == second
    assert first[0]["distributions.log_pmf_array.calls"] > 0


def test_generation_is_a_function_of_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, 3) == workloads.generate(workload, 3)
        assert workloads.generate(workload, 3) != workloads.generate(workload, 4)


def test_uninstall_restores_every_layer():
    from entrobound import certify, cli, distributions, montecarlo

    before = (cli.main, montecarlo.certify_moment, certify.certify_moment,
              distributions.Geometric.log_pmf_array, distributions.PmfModel.draw)
    tracing.install(tracing.Tracer())()
    after = (cli.main, montecarlo.certify_moment, certify.certify_moment,
             distributions.Geometric.log_pmf_array, distributions.PmfModel.draw)
    assert before == after


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-light", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_benchmark_json_lists_what_the_runner_reports():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == workloads.WORKLOADS
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
