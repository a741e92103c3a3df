"""Self-tests of the benchmark suite.

Run explicitly (tier 1 collects ``tests/`` only)::

    PYTHONPATH=src python -m pytest benchmarks/suite/tests
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
