"""``tests/compare_reports.py`` runs one workload of a source tree against
itself, finds nothing to report and prints its timings."""

import subprocess
import sys
from pathlib import Path

import ensemble_metrics

SCRIPT = Path(__file__).resolve().parent / "compare_reports.py"


def test_a_tree_against_itself_on_one_workload():
    src = str(Path(ensemble_metrics.__file__).resolve().parent.parent)
    argv = [sys.executable, str(SCRIPT), src, src, "--workloads", "devices", "--seeds", "1",
            "--time", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "devices: 0 of 56 reports differ" in proc.stdout
    assert proc.stdout.count("reports differ") == 1
    assert "devices: old " in proc.stdout and "median old/new ratio" in proc.stdout
    assert proc.stdout.count("devices: summed request medians old ") == 1
    assert "old/new ratio of the sums " in proc.stdout
