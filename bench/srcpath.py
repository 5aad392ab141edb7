"""Put the checkout's `src/` first on sys.path.

The benchmark always measures the planner of the checkout it sits in, never
an installed copy.  Import this module before anything from `hmplan`.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "hmplan" / "__init__.py").is_file():
    raise SystemExit(f"bench: no planner sources under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
