import numpy as np
import pytest

from moverb import farrow
from moverb.room import MicPosition, Room


@pytest.fixture(scope="session")
def filt():
    """The default interpolator shared across the suite."""
    return farrow.design(3, 8, 0.8)


@pytest.fixture(scope="session")
def room_5x6x4():
    return Room(dims=np.array([5.0, 6.0, 4.0]), wall_reflection=np.full(6, 0.9))


@pytest.fixture(scope="session")
def mic_std():
    return MicPosition(pos=np.array([1.25, 2.6, 2.75]))


def sine(freq, duration, rate):
    t = np.arange(int(round(duration * rate))) / rate
    return np.sin(2.0 * np.pi * freq * t)


def snr_db(test, reference):
    err = test - reference
    return 10.0 * np.log10(np.sum(reference**2) / np.sum(err**2))
