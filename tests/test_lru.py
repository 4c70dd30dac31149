"""Tests for the bounded LRU map every cache in the stack uses."""

import sys
import threading

import pytest

from repro.lru import BoundedLRU


def filled(capacity, keys):
    lru = BoundedLRU(capacity)
    for key in keys:
        lru.put(key, key.upper())
    return lru


class TestRecency:
    def test_put_orders_least_recent_first(self):
        lru = filled(3, "abc")
        assert lru.keys() == ["a", "b", "c"]
        assert lru.values() == ["A", "B", "C"]

    def test_get_makes_a_key_most_recent(self):
        lru = filled(3, "abc")
        assert lru.get("a") == "A"
        lru.put("d", "D")
        assert lru.keys() == ["c", "a", "d"]

    def test_put_of_a_present_key_refreshes_it(self):
        lru = filled(3, "abc")
        lru.put("a", "new")
        lru.put("d", "D")
        assert lru.keys() == ["c", "a", "d"]
        assert lru.get("a") == "new"

    def test_membership_and_snapshots_leave_the_order_alone(self):
        lru = filled(3, "abc")
        assert "a" in lru and "z" not in lru
        lru.keys()
        lru.values()
        lru.put("d", "D")
        assert lru.keys() == ["b", "c", "d"]


class TestBoundAndCounters:
    def test_evictions_counted_at_the_bound(self):
        lru = filled(2, "abcde")
        assert len(lru) == 2 and lru.evictions == 3
        assert lru.keys() == ["d", "e"]

    def test_hits_and_misses(self):
        lru = filled(2, "ab")
        assert lru.get("a") == "A"
        assert lru.get("z") is None
        assert lru.get("b") == "B"
        assert (lru.hits, lru.misses) == (2, 1)

    def test_pop_clear_and_discard_do_not_count_as_evictions(self):
        lru = filled(8, "abcdef")
        assert lru.pop("a") == "A" and lru.pop("a") is None
        assert lru.discard_if(lambda key: key in "bd") == 2
        assert lru.keys() == ["c", "e", "f"]
        assert lru.clear() == 3 and len(lru) == 0
        assert lru.evictions == 0

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_capacity_below_one_rejected(self, capacity):
        with pytest.raises(ValueError):
            BoundedLRU(capacity)


def test_concurrent_use_never_exceeds_the_bound():
    """8 threads put, get and discard at once.  A lost update inside the
    map would leave it over its bound or the get counters short."""
    capacity = 16
    lru = BoundedLRU(capacity)
    rounds = 10000
    oversize = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:

        def hammer(thread_id):
            for i in range(rounds):
                key = (thread_id, i % 40)
                lru.put(key, i)
                lru.get((thread_id, (i * 7) % 40))
                if i % 50 == 0:
                    lru.discard_if(lambda k: k[1] % 5 == thread_id % 5)
                if len(lru) > capacity:
                    oversize.append(len(lru))

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert oversize == []
    assert len(lru) <= capacity
    assert lru.hits + lru.misses == 8 * rounds
