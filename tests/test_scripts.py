import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_scripts_run_and_pass():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for script, *args in (
        ("decomposition_sweep.py", "--max", "6"),
        ("stress_large.py", "-n", "8"),
        ("stress_large.py", "-n", "17"),  # one tree per walk, just below the two-thread crossover
        ("stress_large.py", "-n", "19"),  # two threads, beside an odd leftover to hook
    ):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / script), *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "PASS" in proc.stdout and "FAIL" not in proc.stdout, proc.stdout
        if script == "stress_large.py":
            assert "\nbroadcast: " in proc.stdout, proc.stdout
            assert re.search(
                r"^peak RSS: +\d+ MB, verify minor page faults: \d+$", proc.stdout, re.M
            ), proc.stdout
            result = json.loads(proc.stdout.splitlines()[-1])
            keys = ["n", "construct_s", "verify_s", "broadcast_s", "peak_rss_mb", "verify_minflt", "broadcast_minflt"]
            assert list(result) == keys, result
            assert result["n"] == int(args[-1])
            for key in keys[-2:]:
                assert isinstance(result[key], int) and result[key] >= 0, result
            assert all(result[key] >= 0 for key in keys[1:4]) and result["peak_rss_mb"] > 0
