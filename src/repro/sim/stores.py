"""Producer/consumer channels for processes.

:class:`Store` is an asynchronous FIFO buffer: ``put`` and ``get`` return
events a process yields on; the network's per-key mailboxes are plain
stores. :class:`FilterStore` lets consumers wait for the first item
matching a predicate.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.errors import SimulationError
from repro.sim.events import Event

__all__ = ["Store", "FilterStore"]


class StorePut(Event):
    """Event returned by :meth:`Store.put`; fires when the item is stored."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item


class StoreGet(Event):
    """Event returned by :meth:`Store.get`; fires with the retrieved item."""

    __slots__ = ("filter",)

    def __init__(
        self, store: "Store", filter: Optional[Callable[[Any], bool]] = None
    ) -> None:
        super().__init__(store.env)
        self.filter = filter


class Store:
    """Unbounded-or-bounded FIFO buffer with blocking put/get events."""

    def __init__(self, env, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise SimulationError(f"store capacity must be positive: {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._put_waiters: Deque[StorePut] = deque()
        self._get_waiters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    # -- public API ------------------------------------------------------

    def put(self, item: Any) -> StorePut:
        """Request to add ``item``; the returned event fires when stored."""
        event = StorePut(self, item)
        self._put_waiters.append(event)
        self._dispatch()
        return event

    def get(self) -> StoreGet:
        """Request to remove the oldest item; the event fires with it."""
        event = StoreGet(self)
        self._get_waiters.append(event)
        self._dispatch()
        return event

    # -- matching machinery ------------------------------------------------

    def _do_put(self, event: StorePut) -> bool:
        if len(self.items) < self.capacity:
            self._insert(event.item)
            event.succeed()
            return True
        return False

    def _do_get(self, event: StoreGet) -> bool:
        item = self._extract(event)
        if item is not _NO_ITEM:
            event.succeed(item)
            return True
        return False

    def _insert(self, item: Any) -> None:
        self.items.append(item)

    def _extract(self, event: StoreGet) -> Any:
        if self.items:
            return self.items.popleft()
        return _NO_ITEM

    def _dispatch(self) -> None:
        """Run the put/get matching loop until no more progress is made."""
        progress = True
        while progress:
            progress = False
            while self._put_waiters:
                put_event = self._put_waiters[0]
                if put_event.triggered:  # cancelled externally
                    self._put_waiters.popleft()
                    continue
                if self._do_put(put_event):
                    self._put_waiters.popleft()
                    progress = True
                else:
                    break
            # Gets are served in FIFO order, but a FilterStore get that
            # matches nothing must not block later gets, so scan the
            # queue (the spill deque is only built once a get blocks).
            remaining: Optional[Deque[StoreGet]] = None
            while self._get_waiters:
                get_event = self._get_waiters.popleft()
                if get_event.triggered:
                    continue
                if self._do_get(get_event):
                    progress = True
                else:
                    if remaining is None:
                        remaining = deque()
                    remaining.append(get_event)
            if remaining is not None:
                self._get_waiters = remaining


class _NoItem:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<NO_ITEM>"


_NO_ITEM = _NoItem()


class FilterStore(Store):
    """A store whose consumers may wait for items matching a predicate."""

    def get(
        self, filter: Optional[Callable[[Any], bool]] = None
    ) -> StoreGet:  # type: ignore[override]
        event = StoreGet(self, filter)
        self._get_waiters.append(event)
        self._dispatch()
        return event

    def _extract(self, event: StoreGet) -> Any:
        if event.filter is None:
            return super()._extract(event)
        for index, item in enumerate(self.items):
            if event.filter(item):
                del self.items[index]
                return item
        return _NO_ITEM
