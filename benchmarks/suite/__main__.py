"""Entry point: ``python -m benchmarks.suite`` or the file's own path."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if __package__ in (None, ""):
    # Run by path: the script's directory leads sys.path, where a module
    # named ``trace`` would shadow the standard library's.
    sys.path[0] = str(ROOT)
SOURCE = ROOT / "src"
if str(SOURCE) not in sys.path:
    sys.path.insert(1, str(SOURCE))

if __name__ == "__main__":
    if not (SOURCE / "repro").is_dir():
        sys.exit(f"error: {SOURCE / 'repro'} not found; nothing to benchmark")
    from benchmarks.suite.cli import main

    sys.exit(main())
