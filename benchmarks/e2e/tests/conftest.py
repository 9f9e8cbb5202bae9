"""Self-tests of the benchmark (not part of tier-1):

    python -m pytest benchmarks/e2e/tests -q
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
for path in (str(ROOT / "src"), str(E2E)):
    if path not in sys.path:
        sys.path.insert(0, path)
