"""FIFO bit queue for the constant-rate errorless channel.

Time is measured in block units; the queue drains continuously at
``rate_bits_per_block``.  Slot granularity is not modelled: every quantity
of interest is a multiple of block-level rates.
"""

from __future__ import annotations


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
        if bits < 0:
            raise ValueError(f"message size must be nonnegative, got {bits}")
        if arrival < self._last_arrival:
            raise ValueError(
                f"FIFO arrival order violated: {arrival} after {self._last_arrival}"
            )
        self._last_arrival = arrival
        start = self.busy_until if self.busy_until > arrival else arrival
        departure = start + bits / self.rate_bits_per_block
        self.busy_until = departure
        return departure
