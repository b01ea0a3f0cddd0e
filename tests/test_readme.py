"""The README's Python examples run as written and print what their comments promise."""
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 2
    ns = {}
    for block in blocks:  # the second block reuses the first one's rng
        exec(compile(block, str(README), "exec"), ns)
    assert ns["exact"].additive == pytest.approx(2.0)
    assert ns["estimate_bell_magic"](ns["outcomes"], rng=ns["rng"]) == (0.0, 0.0)
    assert ns["result"].p_hat == 0.0 and ns["result"].b_mtg_exact == 0.0
