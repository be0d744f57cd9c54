"""Reference output sources for the statistical tests: a seeded uniform
stream that a sound test must pass, and a constant one it must reject."""
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
