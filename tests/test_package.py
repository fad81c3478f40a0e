import subgauss


def test_every_exported_name_resolves():
    missing = [name for name in subgauss.__all__ if not hasattr(subgauss, name)]
    assert missing == []
