from __future__ import annotations

import rankcal


def test_every_export_resolves_once():
    names = rankcal.__all__
    assert len(names) == len(set(names)), "duplicate names in rankcal.__all__"
    assert [name for name in names if not hasattr(rankcal, name)] == []
