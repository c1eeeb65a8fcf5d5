import sys
from pathlib import Path

_PERFBENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_PERFBENCH))
sys.path.insert(0, str(_PERFBENCH.parent / "src"))
