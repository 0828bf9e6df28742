"""README.md's documented entry points import from the package as written."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_entry_point_imports_run():
    block = re.search(r"^from eitcool import \(\n.*?^\)$", README.read_text(), re.M | re.S)
    assert block is not None, "README has no 'from eitcool import (...)' block"
    exec(block.group(0), {})
