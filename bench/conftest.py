import sys
from pathlib import Path

# the benchmark imports seqprod from the source tree, as bench/run.py does
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
