"""Every python block of README.md runs to the end against the current
library, as the demos do."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index, capsys):
    code = compile(BLOCKS[index], f"README.md, python block {index}", "exec")
    exec(code, {"__name__": "__main__"})
    assert capsys.readouterr().out
