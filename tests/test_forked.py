"""The contract of ``_forked.run``: a map dealt over shares, in item order."""

from __future__ import annotations

import pytest

from forks import assert_no_child_left, counted_forks, usable_cpus
from gapforge import _forked

ITEMS = list(range(7))


def _square(item: int) -> int:
    return item * item


@pytest.mark.parametrize("cpus", [2, 4])
@pytest.mark.parametrize("shares", [1, 2, 3, 10])
def test_run_maps_in_item_order_on_the_dealt_shares(monkeypatch, cpus, shares):
    usable_cpus(monkeypatch, cpus)
    forks = counted_forks(monkeypatch)
    assert _forked.run(_square, ITEMS, shares) == [_square(i) for i in ITEMS]
    assert len(forks) == min(shares, len(ITEMS), cpus) - 1
    assert_no_child_left()


def test_run_over_no_items_forks_nothing(monkeypatch):
    usable_cpus(monkeypatch, 4)
    forks = counted_forks(monkeypatch)
    assert _forked.run(_square, [], 5) == []
    assert forks == []
    assert_no_child_left()


@pytest.mark.parametrize("failing", [0, 1, 6])
def test_an_item_that_raises_surfaces_its_exception(monkeypatch, failing):
    def planted(item: int) -> int:
        if item == failing:
            raise ZeroDivisionError(f"planted at {item}")
        return item

    usable_cpus(monkeypatch, 4)
    forks = counted_forks(monkeypatch)
    with pytest.raises(ZeroDivisionError, match=f"planted at {failing}"):
        _forked.run(planted, ITEMS, 3)
    assert len(forks) == 2
    assert_no_child_left()


def test_of_two_raising_items_the_lower_share_wins(monkeypatch):
    # with two shares item 1 is share 1's and item 2 share 0's: a serial map
    # raises for item 1, the dealt one for item 2
    def planted(item: int) -> int:
        if item == 1:
            raise ValueError("item 1")
        if item == 2:
            raise ZeroDivisionError("item 2")
        return item

    usable_cpus(monkeypatch, 1)
    with pytest.raises(ValueError):
        _forked.run(planted, ITEMS, 2)
    usable_cpus(monkeypatch, 2)
    with pytest.raises(ZeroDivisionError):
        _forked.run(planted, ITEMS, 2)
    assert_no_child_left()
