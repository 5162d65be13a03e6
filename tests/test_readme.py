"""The README's examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs():
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    vector = namespace["vector"]
    assert len(vector.credits) == len(vector.journey.touchpoints) > 0
    assert sum(vector.credits) == 1.0
