import re
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                    README.read_text(encoding="utf-8"), re.S | re.M)


def test_the_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_every_readme_python_example_runs(index):
    # each block runs on its own, in a fresh namespace
    exec(compile(BLOCKS[index], f"README.md python block {index + 1}", "exec"), {})
