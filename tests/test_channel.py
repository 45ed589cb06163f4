import math

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
    for rate in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError) as info:
            ChannelQueue(rate)
        assert str(info.value) == f"channel rate must be positive and finite, got c = {rate}"
    # NaN fails the size and the order test, and the queue is left as it was
    q = ChannelQueue(4.0)
    for bits, arrivals, message in (
        ([math.nan, 1.0], [1.0, 2.0], "message size must be nonnegative, got nan"),
        ([1.0, 1.0], [1.0, math.nan], "FIFO arrival order violated: nan after 1.0"),
        ([1.0], [math.nan], "FIFO arrival order violated: nan after -inf"),
    ):
        with pytest.raises(ValueError) as info:
            q.enqueue_many(bits, arrivals)
        assert str(info.value) == message
    assert q.busy_until == 0.0


def test_enqueue_many_refuses_inputs_of_different_shapes():
    """Sizes and arrivals must be 1-D and of one length; the shape test comes
    before the size and order tests, and the queue is left as it was."""
    q = ChannelQueue(1.0)
    for bits, arrivals, shapes in (
        ([1.0, 2.0], [0.0], "(2,) and (1,)"),
        ([5, 2, 1], [0, 1], "(3,) and (2,)"),
        ([-1.0], [2.0, 1.0], "(1,) and (2,)"),
        ([[1.0]], [[0.0]], "(1, 1) and (1, 1)"),
    ):
        with pytest.raises(ValueError) as info:
            q.enqueue_many(bits, arrivals)
        assert str(info.value) == ("bits and arrivals must be 1-D of one length, got shapes "
                                   + shapes)
    assert (q.busy_until, q.enqueue_many([], []).tolist()) == (0.0, [])


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


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("case", ["all-idle", "idle-then-backlog", "starts-busy", "zero-size"])
def test_enqueue_many_equals_one_enqueue_per_message(case):
    """Departures and busy_until of one enqueue_many call equal those of one
    enqueue per message, bit for bit, whether every message finds the queue
    empty or not."""
    rng = np.random.default_rng(29)
    rate = 1.3
    arrivals = np.cumsum(rng.uniform(0.5, 2.0, size=300))
    bits = rng.uniform(0.0, 0.6, size=300)  # service below every gap: all idle
    if case == "idle-then-backlog":
        bits[150:] *= 8.0
    elif case == "zero-size":  # each arrives with the next message, and departs at once
        bits[::3] = 0.0
        arrivals[1::3] = arrivals[::3]
    batch, single = ChannelQueue(rate), ChannelQueue(rate)
    if case == "starts-busy":  # the queue is still sending when the first message arrives
        for q in (batch, single):
            q.enqueue(3.0 * rate, arrival=arrivals[0] - 1.0)
    got = batch.enqueue_many(bits, arrivals)
    expected = [single.enqueue(b, a) for b, a in zip(bits.tolist(), arrivals.tolist())]
    assert _bits(got) == _bits(expected)
    assert batch.busy_until.hex() == single.busy_until.hex()
    idle = got == arrivals + bits / rate
    assert idle.all() == (case in ("all-idle", "zero-size"))
