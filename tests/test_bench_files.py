"""Every committed BENCH_*.json record is strict JSON with the shared keys,
and its seeds are its own: a claim must hold on seeds no other record used.
Every record README.md cites is committed."""
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(ROOT.glob("BENCH_*.json"))
SHARED_KEYS = {"claim", "command", "seeds", "protocol", "host", "summary"}


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def refuse_duplicates(pairs):
    keys = [key for key, _ in pairs]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate keys in {keys}")
    return dict(pairs)


def load(path):
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse_constant,
                      object_pairs_hook=refuse_duplicates)


def test_bench_records_exist():
    assert FILES


def test_every_record_the_readme_cites_exists():
    cited = set(re.findall(r"BENCH_\w+\.json", (ROOT / "README.md").read_text(encoding="utf-8")))
    missing = cited - {path.name for path in FILES}
    assert cited and not missing, sorted(missing)


@pytest.mark.parametrize("path", FILES, ids=[path.name for path in FILES])
def test_bench_record_is_strict_json_with_the_shared_keys(path):
    record = load(path)
    assert isinstance(record, dict)
    assert SHARED_KEYS <= set(record), sorted(SHARED_KEYS - set(record))


@pytest.mark.parametrize("path", FILES, ids=[path.name for path in FILES])
def test_bench_record_seeds_are_distinct_ints_no_other_record_used(path):
    seeds = load(path)["seeds"]
    assert isinstance(seeds, list) and seeds
    assert all(isinstance(seed, int) and not isinstance(seed, bool) for seed in seeds)
    assert len(set(seeds)) == len(seeds)
    for other in FILES:
        if other != path:
            shared = set(seeds) & set(load(other)["seeds"])
            assert not shared, f"{other.name} also used seeds {sorted(shared)}"


@pytest.mark.parametrize("text", ['{"a": NaN}', '{"a": -Infinity}', '{"a": 1, "a": 2}'])
def test_bench_record_parser_refuses_what_json_forbids(text):
    with pytest.raises(ValueError):
        json.loads(text, parse_constant=refuse_constant, object_pairs_hook=refuse_duplicates)
