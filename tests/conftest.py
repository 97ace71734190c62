import pytest

from horolab import randomness


@pytest.fixture
def count_tiles(monkeypatch):
    """`count_tiles(tile)` sets the tile size of `randomness.threshold_pairs`,
    which owns the tile loop, to `tile`; the list it returns grows by one
    per hashed tile."""

    def count(tile) -> list:
        monkeypatch.setattr(randomness, "_TILE", tile)
        tiles = []
        combine = randomness.combine_into
        monkeypatch.setattr(randomness, "combine_into", lambda *a: tiles.append(1) or combine(*a))
        return tiles

    return count
