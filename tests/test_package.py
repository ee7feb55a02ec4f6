"""The package's public surface."""

import ssdbcodi


def test_every_exported_name_resolves():
    missing = [name for name in ssdbcodi.__all__ if not hasattr(ssdbcodi, name)]
    assert missing == []
    assert len(set(ssdbcodi.__all__)) == len(ssdbcodi.__all__)
