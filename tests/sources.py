"""Reference output sources for the statistical tests: a seeded uniform
stream that a sound test must pass, and a constant one it must reject; and
two sources that return a count other than the one asked for, which every
reader must refuse."""
import numpy as np


class RandomSource:
    """Seeded reference stream used as the calibration fixture."""

    def __init__(self, seed: int = 0):
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def outputs(self, n: int) -> np.ndarray:
        return self._rng.integers(0, 1 << 32, size=n, dtype=np.uint32)


class ConstantSource:
    def __init__(self, value: int = 0):
        self.value = value & 0xFFFFFFFF

    def outputs(self, n: int) -> np.ndarray:
        return np.full(n, self.value, dtype=np.uint32)


class ShortSource:
    """Returns at most `cap` values, whatever it is asked for."""
    def __init__(self, cap: int):
        self.cap = cap

    def outputs(self, n: int) -> np.ndarray:
        return np.zeros(min(n, self.cap), dtype=np.uint32)


class LongSource:
    """Returns five values more than it is asked for."""
    def outputs(self, n: int) -> np.ndarray:
        return np.zeros(n + 5, dtype=np.uint32)
