"""Bounded FIFO queues with drop accounting."""

from __future__ import annotations

from collections import deque
from typing import Generic, List, Optional, TypeVar

from ..errors import ConfigurationError

T = TypeVar("T")


class FiniteQueue(Generic[T]):
    """A drop-tail FIFO with capacity and high-watermark tracking."""

    def __init__(self, capacity: int, name: str = ""):
        if capacity < 1:
            raise ConfigurationError("queue capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self._items = deque()
        self.enqueued = 0
        self.dropped = 0
        self.dequeued = 0
        self.high_watermark = 0

    def __len__(self) -> int:
        return len(self._items)

    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    def offer(self, item: T) -> bool:
        """Enqueue; returns False and counts a drop when full."""
        items = self._items
        if len(items) >= self.capacity:     # is_full(), inline
            self.dropped += 1
            return False
        items.append(item)
        self.enqueued += 1
        if len(items) > self.high_watermark:
            self.high_watermark = len(items)
        return True

    def poll(self) -> Optional[T]:
        """Dequeue the oldest item, or None when empty."""
        if not self._items:
            return None
        self.dequeued += 1
        return self._items.popleft()

    def poll_batch(self, max_items: int) -> List[T]:
        """Dequeue up to ``max_items`` items."""
        if max_items < 1:
            raise ValueError("max_items must be >= 1")
        out = []
        while self._items and len(out) < max_items:
            out.append(self._items.popleft())
        self.dequeued += len(out)
        return out
