"""AWGN channel, Eb/N0 bookkeeping, and LLR extraction.

The SNR axis is energy per information bit over noise density, with
sigma^2 = 1 / (2 * rate * 10^(ebn0_db/10)); rate is the global code
rate.  Noise is drawn as unit Gaussians and scaled, so the same RNG
substream yields paired realizations across SNR points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelParams:
    ebn0_db: float
    rate: float

    @property
    def sigma2(self) -> float:
        return 1.0 / (2.0 * self.rate * 10.0 ** (self.ebn0_db / 10.0))

    @property
    def sigma(self) -> float:
        return float(np.sqrt(self.sigma2))


def llr(y, sigma: float, out=None) -> np.ndarray:
    """Bit log-likelihood ratios 2y/sigma^2 (into out, which may be y); positive favors 0."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    out = np.multiply(np.asarray(y, dtype=np.float64), 2.0, out=out)
    return np.divide(out, sigma * sigma, out=out)


@dataclass(eq=False)
class LlrFrame:
    """s*n^2 soft values, or a stack of such frames along leading axes.

    Under the symbol-major serialization, bit l of symbol t sits at
    index t*s + l, so layer l is values[l::s].
    """

    values: np.ndarray
    s: int
    n: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape[-1:] != (self.s * self.n * self.n,):
            raise ValueError(f"frame shape {self.values.shape} does not end in "
                             f"s*n^2 = {self.s * self.n ** 2}")

    def layers(self) -> np.ndarray:
        """(frames*s, n^2) array; row f*s + l is layer l of frame f."""
        nv = self.n * self.n
        return np.swapaxes(self.values.reshape(-1, nv, self.s), 1, 2).reshape(-1, nv)
