"""Reports stay byte-identical to the benchmark's golden oracle_sweep reports."""

import json
from pathlib import Path

import pytest

from conf2.report import RunConfig, emit_report, report_to_dict, run_pipeline

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "oracle_sweep.json"
GOLDEN_DOC = json.loads(GOLDEN.read_text())
GOLDEN_REPORTS = GOLDEN_DOC["reports"]


@pytest.mark.parametrize("label", sorted(GOLDEN_REPORTS))
def test_report_matches_golden(label):
    golden = GOLDEN_REPORTS[label]
    (report,) = run_pipeline(RunConfig(surfaces=(("kind", label),), paper_check=True))
    assert report_to_dict(report) == golden
    assert emit_report([report]) == json.dumps({"schema": GOLDEN_DOC["schema"], "reports": [golden]}, indent=2) + "\n"
