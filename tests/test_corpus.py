"""Every CLI report of the golden corpus, byte for byte (`tests/corpus.py`).

Tier-1 runs at the default BLAS thread count and at one thread, so both
are held to the one set of digests."""

import json

import corpus


def _differences(expected: dict, actual: dict) -> list:
    return [f"{key}: expected {expected.get(key, '-')[:12]}, got {actual.get(key, '-')[:12]}"
            for key in sorted(expected.keys() | actual.keys())
            if expected.get(key) != actual.get(key)]


def test_reports_match_the_golden_corpus(tmp_path):
    golden = json.loads(corpus.GOLDEN.read_text())
    csvs = corpus.write_csvs(tmp_path)
    moved = _differences(golden["inputs"], {name: corpus.sha256(p) for name, p in csvs.items()})
    assert not moved, "a generator's CSV moved (numpy's RNG stream or its str formatting):\n" \
        + "\n".join(moved)
    moved = _differences(golden["reports"], corpus.write_reports(csvs, tmp_path / "reports"))
    assert not moved, f"{len(moved)} report(s) moved:\n" + "\n".join(moved)
