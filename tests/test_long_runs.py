"""``scripts/long_runs.py --json``: one record per run, whose digest and
size are those of the command's own stdout."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_json_records_every_run(tmp_path):
    line = "sym-grr 4 --surface O --mode log2"
    out = tmp_path / "runs.json"
    subprocess.run([sys.executable, str(ROOT / "scripts" / "long_runs.py"), "--repeat", "2",
                    "--json", str(out), line], check=True, capture_output=True)
    stdout = subprocess.run([sys.executable, "-m", "cayleymaps.cli", *line.split()],
                            check=True, capture_output=True,
                            env=dict(os.environ, PYTHONPATH=str(ROOT / "src"))).stdout
    records = json.loads(out.read_text())
    assert len(records) == 2
    for record in records:
        assert record["argv"] == line and record["exit"] == 0
        assert record["stdout_bytes"] == len(stdout)
        assert record["sha256"] == hashlib.sha256(stdout).hexdigest()
        assert record["wall_s"] > 0 and record["ru_maxrss_kb"] > 0
        assert Path(record["src"]) == ROOT / "src"
        assert record["commit"] is None or isinstance(record["commit"], str)
        assert set(record["host"]) == {"python", "numpy", "cpu_count"}
