import tomebench


def test_every_exported_name_resolves():
    missing = [name for name in tomebench.__all__ if not hasattr(tomebench, name)]
    assert missing == []
