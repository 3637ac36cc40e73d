import os
import subprocess
import sys
from pathlib import Path

import cubetrees

# The library surface the README documents.  Changing it is an API change:
# update this list and the README's library section together.
DOCUMENTED = [
    "Decomposition",
    "bounds_for",
    "broadcast_metrics",
    "construct",
    "read_decomposition",
    "tree_depths",
    "verify_decomposition",
    "write_decomposition",
]


def test_all_is_the_documented_surface():
    assert sorted(cubetrees.__all__) == DOCUMENTED
    for name in cubetrees.__all__:
        assert getattr(cubetrees, name).__module__.startswith("cubetrees.")


def test_import_loads_no_executor_or_ctypes_of_its_own():
    # numpy may load ctypes itself; the package must add neither module.
    code = (
        "import sys, numpy; before = set(sys.modules); import cubetrees; "
        "print(sorted(m for m in set(sys.modules) - before "
        "if m.split('.')[0] in ('concurrent', 'ctypes')))"
    )
    src = Path(cubetrees.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
