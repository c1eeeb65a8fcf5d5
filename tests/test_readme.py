"""README's package layout lists exactly the package's modules."""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_package_layout_lists_every_module():
    readme = (REPO / "README.md").read_text()
    block = re.search(r"## Package layout\n+```\n(.*?)```", readme, re.S)
    assert block, "README has no fenced Package layout block"
    listed = re.findall(r"^  (\w+\.py)\b", block.group(1), re.M)
    modules = {p.name for p in (REPO / "src" / "siftmatch").glob("*.py")
               if p.stem not in ("__init__", "__main__")}
    assert sorted(listed) == sorted(modules)
