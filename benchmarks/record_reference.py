"""Record the exact reference curves the gates compare against.

    python3 benchmarks/record_reference.py [full|tiny ...]

Runs the ``qutrit-exact`` workload at each size and copies its curve CSVs
to ``reference/<size>/``. The exact engine draws no random numbers, so the
seed does not matter. Re-record only when a change is meant to move the
exact curves, and say why in the change.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import REFERENCE_DIR, WORKLOADS  # noqa: E402


def record(size: str):
    (scenario, flags), = WORKLOADS["qutrit-exact"].calls(12345, size)
    scratch = HERE.parent / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        calls = [[scenario, flags, tmp]]
        subprocess.run([sys.executable, str(HERE / "child.py"), "run", json.dumps(calls)],
                       check=True, stdout=subprocess.DEVNULL)
        dest = REFERENCE_DIR / size
        shutil.rmtree(dest, ignore_errors=True)
        dest.mkdir(parents=True)
        for csv in sorted(Path(tmp).glob("*.csv")):
            shutil.copy(csv, dest / csv.name)


if __name__ == "__main__":
    for size in sys.argv[1:] or ["full", "tiny"]:
        record(size)
