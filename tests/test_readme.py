"""The README's "Quick start (API)" example runs as written."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_api_quick_start_runs(capsys):
    """The python block under "## Quick start (API)" runs without error and
    prints its verify_sphere line."""
    section = README.read_text(encoding="utf-8").split("\n## Quick start (API)\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("sphere ")
