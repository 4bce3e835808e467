import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, args", [
    ("make_report.py", ["--max-degree", "4"]),
    ("extremal_profile.py", ["--max-n", "8"]),
    ("expansion_decay.py", ["--max-N", "6"]),
])
def test_script_runs(script, args, tmp_path):
    # run in a scratch directory: make_report.py writes its report to the cwd
    done = subprocess.run([sys.executable, str(SCRIPTS / script), *args], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
