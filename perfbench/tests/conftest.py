"""Make the benchmark's modules importable by their bare names, as run.py does."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(1, str(BENCH_DIR.parent / "src"))
