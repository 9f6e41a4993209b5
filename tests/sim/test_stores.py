"""Unit tests for Store / FilterStore."""

import pytest

from repro.errors import SimulationError
from repro.sim.stores import FilterStore, Store


class TestStore:
    def test_put_then_get_fifo(self, env):
        store = Store(env)
        out = []

        def producer(env):
            for item in ("a", "b", "c"):
                yield store.put(item)

        def consumer(env):
            for _ in range(3):
                item = yield store.get()
                out.append(item)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert out == ["a", "b", "c"]

    def test_get_blocks_until_item_available(self, env):
        store = Store(env)
        got_at = []

        def consumer(env):
            yield store.get()
            got_at.append(env.now)

        def producer(env):
            yield env.timeout(7)
            yield store.put("late")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got_at == [7.0]

    def test_capacity_blocks_put(self, env):
        store = Store(env, capacity=1)
        put_times = []

        def producer(env):
            yield store.put(1)
            put_times.append(env.now)
            yield store.put(2)
            put_times.append(env.now)

        def consumer(env):
            yield env.timeout(5)
            yield store.get()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert put_times == [0.0, 5.0]

    def test_invalid_capacity(self, env):
        with pytest.raises(SimulationError):
            Store(env, capacity=0)

    def test_len_reflects_items(self, env):
        store = Store(env)

        def producer(env):
            yield store.put("x")

        env.process(producer(env))
        env.run()
        assert len(store) == 1

    def test_multiple_consumers_fifo(self, env):
        store = Store(env)
        served = []

        def consumer(env, name):
            item = yield store.get()
            served.append((name, item))

        def producer(env):
            yield env.timeout(1)
            yield store.put("first")
            yield store.put("second")

        env.process(consumer(env, "c1"))
        env.process(consumer(env, "c2"))
        env.process(producer(env))
        env.run()
        assert served == [("c1", "first"), ("c2", "second")]


class TestFilterStore:
    def test_filtered_get_skips_non_matching(self, env):
        store = FilterStore(env)
        out = []

        def consumer(env):
            item = yield store.get(lambda x: x % 2 == 0)
            out.append(item)

        def producer(env):
            yield store.put(1)
            yield store.put(3)
            yield store.put(4)

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert out == [4]
        assert list(store.items) == [1, 3]

    def test_blocked_filter_does_not_starve_other_getters(self, env):
        store = FilterStore(env)
        out = []

        def never(env):
            yield store.get(lambda x: x == "unicorn")
            out.append("never")

        def eager(env):
            item = yield store.get()
            out.append(item)

        def producer(env):
            yield env.timeout(1)
            yield store.put("plain")

        env.process(never(env))
        env.process(eager(env))
        env.process(producer(env))
        env.run()
        assert out == ["plain"]

    def test_unfiltered_get_is_fifo(self, env):
        store = FilterStore(env)
        out = []

        def consumer(env):
            for _ in range(2):
                item = yield store.get()
                out.append(item)

        def producer(env):
            yield store.put("a")
            yield store.put("b")

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert out == ["a", "b"]
