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
        if script == "decomposition_sweep.py":
            result = json.loads(proc.stdout.splitlines()[-1])
            timings = ["verify_ms", "reject_ms", "depths_ms", "export_ms"]
            assert list(result) == ["min", "max", *timings], result
            assert (result["min"], result["max"]) == (1, 6)
            assert all(result[key] > 0 for key in timings), result
        if script == "stress_large.py":
            assert "\nbroadcast: " in proc.stdout, proc.stdout
            assert re.search(
                r"^peak RSS: +\d+ MB, verify minor page faults: \d+$", proc.stdout, re.M
            ), proc.stdout
            result = json.loads(proc.stdout.splitlines()[-1])
            assert re.search(r"^export: +\d+\.\d+s \(edge list\)", proc.stdout, re.M), proc.stdout
            keys = ["n", "construct_s", "verify_s", "broadcast_s", "peak_rss_mb", "verify_minflt", "broadcast_minflt",
                    "export_s", "export_peak_rss_mb"]
            assert list(result) == keys, result
            assert result["n"] == int(args[-1])
            for key in keys[5:7]:
                assert isinstance(result[key], int) and result[key] >= 0, result
            assert all(result[key] >= 0 for key in keys[1:4]) and result["export_s"] > 0
            assert 0 < result["peak_rss_mb"] <= result["export_peak_rss_mb"], result


def test_loc_counts_code_lines_only(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""Module docstring,\nover two lines."""\n'
        "\n"
        "# a comment\n"
        "x = (1,\n"
        "     2)  # code with a comment\n"
        "\n"
        "class A:\n"
        '    """Class docstring."""\n'
        "    def f(self):\n"
        '        """Function docstring."""\n'
        '        return "not a docstring"\n'
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "loc.py"), str(tmp_path), str(ROOT / "src" / "cubetrees")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    counts = {path: int(count) for count, path in (line.split() for line in proc.stdout.splitlines())}
    assert counts.pop(str(source)) == 5
    assert counts.pop("total") == 5 + sum(counts.values())
    assert {Path(path).name for path in counts} >= {"construct.py", "verify.py", "walk.py"}
    # with no path it counts the package, from any working directory
    package = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "loc.py")], capture_output=True, text=True, timeout=60, cwd=tmp_path
    )
    assert package.returncode == 0, package.stderr
    lines = package.stdout.splitlines()
    assert lines[:-1] == [line for line in proc.stdout.splitlines()[:-1] if str(source) not in line]
    assert lines[-1].split() == [str(sum(counts.values())), "total"]
