"""Every ```python block of README.md runs as written."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    code = compile(BLOCKS[index], f"README.md python block {index}", "exec")
    with contextlib.redirect_stdout(io.StringIO()):
        exec(code, {})
