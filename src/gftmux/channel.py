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
    seed: int | None = None

    @property
    def sigma2(self) -> float:
        return 1.0 / (2.0 * self.rate * 10.0 ** (self.ebn0_db / 10.0))

    @property
    def sigma(self) -> float:
        return float(np.sqrt(self.sigma2))


def awgn(x, params: ChannelParams, rng: np.random.Generator) -> np.ndarray:
    """y = x + z with z ~ N(0, sigma^2) i.i.d.; deterministic given rng state."""
    x = np.asarray(x, dtype=np.float64)
    return x + params.sigma * rng.standard_normal(x.shape)


def llr(y, sigma: float) -> np.ndarray:
    """Bit log-likelihood ratios 2y/sigma^2; positive favors bit 0 (+1)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return 2.0 * np.asarray(y, dtype=np.float64) / (sigma * sigma)


@dataclass(eq=False)
class LlrFrame:
    """s*n^2 finite soft values with per-layer strided views.

    Under the symbol-major serialization, bit l of symbol t sits at
    index t*s + l, so layer l is values[l::s].
    """

    values: np.ndarray
    s: int
    n: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.size != self.s * self.n * self.n:
            raise ValueError(
                f"frame length {self.values.size} != s*n^2 = {self.s * self.n ** 2}"
            )
        if not np.isfinite(self.values).all():
            raise ValueError("LLR frame holds non-finite values")

    def layer(self, l: int) -> np.ndarray:
        return self.values[l :: self.s]

    def layers(self) -> list:
        return [self.layer(l) for l in range(self.s)]


def layer_views(frame: LlrFrame) -> list:
    return frame.layers()
