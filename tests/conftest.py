"""Shared fixtures."""

import contextlib
import signal

import numpy as np
import pytest

from repro.net.packet import FiveTuple, PacketFactory
from repro.sim import RngRegistry, Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def rngs():
    return RngRegistry(seed=12345)


@pytest.fixture
def rng():
    return np.random.default_rng(999)


@pytest.fixture
def factory():
    return PacketFactory()


@pytest.fixture
def ftuple():
    return FiveTuple(1, 2, 1234, 80)


def make_packet(factory, ftuple, size=1554, t=0.0, flow_id=0, seq=0, priority=0):
    return factory.make(ftuple, size, t, flow_id=flow_id, seq=seq, priority=priority)


@pytest.fixture
def mk_packet(factory, ftuple):
    """Factory fixture: mk_packet(seq=3, size=100, ...)."""

    def _mk(**kw):
        return make_packet(factory, ftuple, **kw)

    return _mk


@pytest.fixture
def deadline():
    """``with deadline(seconds):`` raises ``TimeoutError`` in a block
    that runs too long, so a hang fails the test instead of stalling
    the suite (POSIX only: uses ``SIGALRM``)."""
    @contextlib.contextmanager
    def guard(seconds: float):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds}s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    return guard
