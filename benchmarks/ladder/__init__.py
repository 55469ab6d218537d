"""The benchmark ladder: four workloads, end-to-end metrics, a per-layer ledger.

See ``README.md`` in this directory.  Importing the package puts the
checkout's ``src/`` first on ``sys.path``, so the harness measures this
checkout's simulator, from source, without ``PYTHONPATH``.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

_SRC = REPO_ROOT / "src"
if not (_SRC / "repro").is_dir():
    raise ImportError(f"the benchmark ladder measures {_SRC}/repro,"
                      " which this checkout does not have")
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
