"""FIFO bit queue for the constant-rate errorless channel.

Time is measured in block units; the queue drains continuously at
``rate_bits_per_block``.  Slot granularity is not modelled: every quantity
of interest is a multiple of block-level rates.
"""

from __future__ import annotations

import numpy as np


class ChannelQueue:
    def __init__(self, rate_bits_per_block: float):
        if rate_bits_per_block <= 0:
            raise ValueError(f"channel rate must be positive, got {rate_bits_per_block}")
        self.rate_bits_per_block = float(rate_bits_per_block)
        self.busy_until = 0.0
        self._last_arrival = float("-inf")

    def enqueue(self, bits: float, arrival: float) -> float:
        """Accepts a message; returns its departure time (blocks).

        The caller's transmission delay W_C is departure - arrival.
        """
        return float(self.enqueue_many([bits], [arrival])[0])

    def enqueue_many(self, bits, arrivals) -> np.ndarray:
        """Accepts messages in order, given as two float sequences; returns
        their departure times (blocks).

        The same as one ``enqueue`` per message: the sizes and the arrival
        order are checked once, then the Lindley recursion runs in one loop.
        When every message finds the queue empty, each departs at its arrival
        plus its service time, the value the loop gives an idle message, and
        the departures are that sum on whole arrays.
        """
        bits = np.ascontiguousarray(bits, dtype=float)
        arrivals = np.ascontiguousarray(arrivals, dtype=float)
        if (bits < 0).any():
            raise ValueError(f"message size must be nonnegative, got {bits.min()}")
        late = np.flatnonzero(arrivals < np.append(self._last_arrival, arrivals[:-1]))
        if len(late):
            i = late[0]
            previous = arrivals[i - 1] if i else self._last_arrival
            raise ValueError(f"FIFO arrival order violated: {arrivals[i]} after {previous}")
        rate = self.rate_bits_per_block

        def departures(busy):
            # memoryviews hand out Python floats one at a time
            for b, arrival in zip(memoryview(bits), memoryview(arrivals)):
                busy = (busy if busy > arrival else arrival) + b / rate
                yield busy

        out = arrivals + bits / rate
        idle = (len(out) and self.busy_until <= arrivals[0]
                and (out[:-1] <= arrivals[1:]).all())
        if not idle:
            out = np.fromiter(departures(self.busy_until), float, count=len(bits))
        if len(out):
            self.busy_until = float(out[-1])
            self._last_arrival = float(arrivals[-1])
        return out
