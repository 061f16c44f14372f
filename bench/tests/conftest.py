import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for entry in (str(ROOT / "src"), str(BENCH)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
os.chdir(ROOT)  # job argv name the fixtures relative to the repository root
