"""The benchmark's correctness gate, run as a test.

perfbench counts a run as correct when every CLI report equals the
golden bytes of its surfaces and, in a traced run, when the spans the
tracer writes form one tree.  This runs the same checks here with
perfbench's own `workloads` and `layers` modules: each workload at two
seeds through `python -m conf2`, in a temporary root laid out as
perfbench lays out its work directory, and each workload once under
`perfbench/tracer.py`.  The traced run must give the same bytes, one
root span, every span inside its parent, no negative self time, every
traced name installed, and per-layer metrics named exactly as the
`per_layer` list of BENCHMARK.json, `trace.overhead_s` being the one
name run.py adds.  `layers.accounting_error` also asks the reported self
times to sum to the traced wall time within a slack of a few spans'
cost; that part depends on timing and is left out here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
PER_LAYER = sorted(m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"])
sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEEDS = (3, 4)


def run(argv, workload: str, seed: int, root: Path) -> tuple[subprocess.CompletedProcess, str]:
    """argv followed by the workload's CLI arguments, run in root; the process and the expected stdout."""
    invocation = workloads.make_invocation(workload, seed, root / ".perfbench_work" / workload / "inputs", root)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([*argv, *invocation.args], cwd=root, env=env, capture_output=True, text=True, timeout=300)
    return proc, workloads.expected_output(workloads.load_golden(workload), invocation.labels)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_cli_reports_equal_the_golden_bytes(workload, seed, tmp_path):
    proc, expected = run([sys.executable, "-m", "conf2"], workload, seed, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_equals_the_golden_bytes_and_spans_form_one_tree(workload, tmp_path):
    spans_path = tmp_path / "spans.json"
    argv = [sys.executable, str(PERFBENCH / "tracer.py"), "--spans", str(spans_path), "--"]
    proc, expected = run(argv, workload, SEEDS[0], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected

    trace = json.loads(spans_path.read_text())
    spans = trace["spans"]
    assert [name for name, _, _, parent, _, _ in spans if parent < 0] == ["cli.main"]
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            _, p_start, p_end, *_ = spans[parent]
            assert parent < i and p_start <= start <= end <= p_end, f"span {i} ({name}) lies outside its parent"
    assert min(layers.self_times_ns(spans)) >= 0
    names = {name for _, _, name, _ in tracer.PATCHES}
    assert len(names) == 21
    assert set(trace["installed"]) == names
    metrics = layers.layer_metrics(trace, len(json.loads(proc.stdout)["reports"]))
    assert len(PER_LAYER) == 45
    assert sorted([*metrics, "trace.overhead_s"]) == PER_LAYER
