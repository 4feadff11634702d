"""Record the stdout digests of the exact operations in expected.json.

    python3 perfbench/record_expected.py

Run it only on a commit whose outputs are known to be right: every later
benchmark run requires the exact operations to reproduce them byte for byte.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

digests = {}
for build in (workloads.exact_scale, workloads.exact_ties):
    for op in build(0):
        if op.cli:
            code, out = op.run()
            if code != 0:
                sys.exit(f"{op.name} exited with {code}")
            digests[op.name] = workloads.digest(out)
workloads.EXPECTED_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
print(f"wrote {len(digests)} digests to {workloads.EXPECTED_PATH}")
