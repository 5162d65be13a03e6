"""The README's examples run as written."""

import json
import re
from pathlib import Path

from mta_engine.cli import load_run_config
from mta_engine.shares import aggregate_shares

from conftest import config_keys

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs():
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    journey, credits = namespace["journey"], namespace["credits"]
    assert len(credits) == len(journey.touchpoints) > 0
    assert sum(credits) == 1.0
    table, lta_shares = namespace["table"], namespace["lta_shares"]
    assert list(table.columns) == ["lta", "linear"] and len(table) == 2 * len(table.labels) > 0
    pairs = zip([label[3] for label in table.labels], table.scaled("lta").tolist())
    assert lta_shares == aggregate_shares(pairs, "channel", namespace["unattributed"])
    assert set(lta_shares.shares()) == {"Upper", "Lower"} and not lta_shares.zero_total


def config_reference() -> dict[str, tuple[str, str, str]]:
    """Each row of README's config reference: key -> (type, default, range)."""
    section = README.read_text().split("## Config reference", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| ([^|]+) \| ([^|]+) \|([^|]*)\|$", section, re.MULTILINE)
    return {key: (type_.strip(), default.strip(), range_.strip()) for key, type_, default, range_ in rows}


def test_config_reference_lists_every_key_with_its_type_and_default():
    declared = {}
    for path, key in config_keys():
        type_ = key.type + (" or null" if key.default is None else "")
        default = "required" if key.default is ... else f"`{json.dumps(key.default)}`"
        declared[path] = (type_, default)
    documented = config_reference()
    assert {key: row[:2] for key, row in documented.items()} == declared
    for path, key in config_keys():
        assert key.range in documented[path][2], path


def test_quickstart_config_loads(tmp_path):
    section = README.read_text().split("## Quickstart", 1)[1]
    path = tmp_path / "run.json"
    path.write_text(re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1))
    cfg = load_run_config(path, None, None)
    assert cfg.seed == 7 and len(cfg.sim.campaigns) == 2
