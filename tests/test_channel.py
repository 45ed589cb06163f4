import numpy as np
import pytest

from swdelay import ChannelQueue

from conftest import lindley_wc


def test_single_message_one_block():
    q = ChannelQueue(rate_bits_per_block=4.0)
    assert q.enqueue(4.0, arrival=3.0) == 4.0


def test_double_size_two_blocks():
    q = ChannelQueue(rate_bits_per_block=4.0)
    dep = q.enqueue(8.0, arrival=0.0)
    assert dep == 2.0


def test_back_to_back_messages():
    q = ChannelQueue(rate_bits_per_block=4.0)
    assert q.enqueue(4.0, arrival=1.0) == 2.0
    assert q.enqueue(4.0, arrival=2.0) == 3.0


def test_rejects_bad_inputs():
    q = ChannelQueue(4.0)
    with pytest.raises(ValueError):
        q.enqueue(-1.0, 0.0)
    q.enqueue(1.0, 5.0)
    with pytest.raises(ValueError):
        q.enqueue(1.0, 4.0)  # arrivals must be FIFO ordered
    with pytest.raises(ValueError):
        ChannelQueue(0.0)


def test_work_conservation_under_backlog():
    q = ChannelQueue(2.0)
    deps = [q.enqueue(6.0, arrival=float(i)) for i in range(5)]
    gaps = np.diff(deps)
    assert np.allclose(gaps, 3.0)  # bits/rate apart while backlogged


def test_matches_lindley_recursion_on_random_traces():
    rng = np.random.default_rng(11)
    for _ in range(10):
        count = 200
        arrivals = np.cumsum(rng.uniform(0.1, 2.0, size=count)).tolist()
        bits = rng.uniform(0.0, 5.0, size=count).tolist()
        rate = float(rng.uniform(0.5, 3.0))
        q = ChannelQueue(rate)
        got = [q.enqueue(b, a) - a for b, a in zip(bits, arrivals)]
        assert got == pytest.approx(lindley_wc(bits, arrivals, rate), abs=1e-9)


def test_accounting_identity():
    """Each departure is the arrival plus the Lindley delay of an independent replay."""
    rng = np.random.default_rng(3)
    rate = 1.5
    q = ChannelQueue(rate)
    arrivals = np.cumsum(rng.uniform(0.2, 1.5, size=100)).tolist()
    bits = rng.uniform(0.0, 4.0, size=100).tolist()
    wcs = lindley_wc(bits, arrivals, rate)  # independent Lindley replay
    for b, a, wc in zip(bits, arrivals, wcs):
        departure = q.enqueue(b, a)
        assert departure == pytest.approx(a + wc, abs=1e-9)
        assert q.busy_until == departure
