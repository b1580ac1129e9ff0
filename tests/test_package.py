"""The public API list itself: sorted, unique and importable."""

import rpd


def test_all_is_sorted_and_unique():
    assert rpd.__all__ == sorted(set(rpd.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in rpd.__all__ if not hasattr(rpd, name)]
    assert missing == []
