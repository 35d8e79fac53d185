"""Scaled min-sum decoding of binary layers over the global parity check.

Flooding schedule: every iteration updates all edges, takes hard
decisions, and stops early once the syndrome clears.  Check-node
minima use two-minimum tracking with first-index tie breaks, and an
LLR of exactly zero decides bit 0, so decoding is bit-exact across
runs and scheduling orders.

The operation counter charges 3 real-number operations per edge per
iteration, making the complexity accounting an exact measured
identity rather than an instruction count.

decode_batch runs the loop in _flood.c for any number of layers (B
frames of s layers each; one frame is the batch of one), from the C
library that galois builds and loads.  The kernel computes every message
and every sum to the same double as _flood's numpy operations (the sums
in numpy's pairwise order), so its decisions equal _flood's bit for bit;
_flood stays as the reference and as the fallback when the library did
not load.  On x86-64 the library holds one clone of the kernel per ISA
level (x86-64-v4, AVX2, baseline), picked for the CPU when it is loaded;
vector lanes run across checks, variables or layers, never along a fold
or a sum, so every clone is exact and the cached file stays portable.
Short codes decode up to MAX_LANES layers side by side, each in its own
lane of every vector, so that their loops are not only n long.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LlrFrame
from .galois import buffer, c_library
from .geometry import GlobalParityCheck
from .txrx import GlobalWord

#: Real-number operations charged per edge per iteration.
OPS_PER_EDGE = 3

#: Widest variable row the kernel sums in numpy's order (numpy's
#: pairwise block size); wider codes decode with _flood.
KERNEL_MAX_M = 128

#: The kernel decodes G = max(1, min(MAX_LANES, L, LANE_BYTES // (8 * E)))
#: of a call's L layers side by side, E the edges of one layer, so that G
#: layers' messages fit in LANE_BYTES: 8 on desk, 1 on the 89- and
#: 127-symbol codes, whose loops are long without lanes.
MAX_LANES = 8
LANE_BYTES = 2 ** 15

#: The compiled kernel, or None to decode with _flood.
_kernel = None if c_library is None else c_library.gftmux_flood


def kernel_name() -> str:
    """What decode_batch decodes with: "c" (the compiled kernel) or "numpy"."""
    return "numpy" if _kernel is None else "c"


@dataclass(frozen=True)
class MsaParams:
    max_iterations: int
    scale: float = 0.625
    clip: float | None = None   # optional message saturation magnitude

    def __post_init__(self):
        if not 0 < self.scale <= 1:
            raise ValueError("scale must lie in (0, 1]")
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")
        if self.clip is not None and not self.clip > 0:
            raise ValueError("clip must be positive")


@dataclass(eq=False)
class DecodeResult:
    hard_bits: np.ndarray
    converged: bool
    iterations_used: int
    edge_ops: int


def _flood(channel: np.ndarray, h: GlobalParityCheck, params: MsaParams,
           limits) -> tuple:
    """The flooding loop on one layer, run once to max(limits); decode_batch's
    (bits, iterations, converged) for that layer, entry j at limits[j].

    Flooding reaches the same state at iteration k whatever the limit, so
    if the syndrome first clears at iteration k*, limit L reports the
    decision at min(k*, L), converged iff k* <= L.
    """
    if channel.size != h.n_vars:
        raise ValueError(f"LLR length {channel.size} != {h.n_vars} variables")
    row_idx = np.arange(h.n_checks)
    at = np.array(limits, dtype=np.int64)
    decided = np.zeros((at.size, h.n_vars), dtype=np.uint8)

    v2c = channel[h.check_vars]
    for it in range(1, at.max() + 1):
        mag = np.abs(v2c)
        sgn = np.where(v2c < 0, -1.0, 1.0)
        first = mag.argmin(axis=1)
        m1 = mag[row_idx, first]
        mag[row_idx, first] = np.inf
        m2 = mag.min(axis=1)
        out_mag = np.where(
            np.arange(mag.shape[1])[None, :] == first[:, None],
            m2[:, None],
            m1[:, None],
        )
        c2v = params.scale * sgn.prod(axis=1)[:, None] * sgn * out_mag
        if params.clip is not None:
            np.clip(c2v, -params.clip, params.clip, out=c2v)

        total = channel + c2v.reshape(-1)[h.var_edges].sum(axis=1)
        v2c = total[h.check_vars] - c2v

        bits = (total < 0).astype(np.uint8)   # LLR >= 0 decides bit 0
        if h.syndrome_weight(bits) == 0:
            decided[at >= it] = bits
            return decided, np.minimum(at, it), at >= it
        decided[at == it] = bits
    return decided, at, np.zeros(at.size, dtype=bool)


def work_doubles(h: GlobalParityCheck, g: int) -> int:
    """Doubles of work the kernel uses at g lanes, as _flood.c documents; one
    lane reads the channel in place, so only g > 1 adds a lane-interleaved copy."""
    nv = h.n * h.n
    return g * ((h.m + (g > 1)) * nv + 11 * h.n + 3) + -(-g * (nv + 1) // 8)


def decode_batch(channel: np.ndarray, h: GlobalParityCheck, params: MsaParams,
                 limits, ws: dict | None = None) -> tuple:
    """Decode each row of channel, an (L, n^2) array of binary layers, once
    to max(limits); (bits, iterations, converged)[l, j] report layer l at
    limits[j].  params supplies the scale and clip, ws the kernel's arrays;
    a NaN or infinite LLR raises ValueError.  With limits sorted and distinct,
    bits is the kernel's (L, K, n^2) decisions in ws itself, which the next
    call overwrites: slot j holds them at limits[j], or at convergence if sooner.

    All L layers go to the compiled kernel in one call, which decodes
    G of them at a time side by side (see MAX_LANES); _flood decodes the
    layers it cannot take (no kernel, m > KERNEL_MAX_M, or a variable total
    that overflowed).  Either way the arrays equal _flood's results.
    """
    channel = np.ascontiguousarray(channel, dtype=np.float64)
    if channel.ndim != 2 or channel.shape[1] != h.n_vars:
        raise ValueError(f"LLR layers {channel.shape} are not (L, {h.n_vars})")
    if not (np.isfinite(channel.min()) and np.isfinite(channel.max())):   # no bool mask
        raise ValueError("LLR layers hold non-finite values")
    steps = np.array(sorted(set(limits)), dtype=np.int64)
    if steps[0] < 1:
        raise ValueError("iteration limits must be positive")
    n_layers, k = len(channel), steps.size
    bits = buffer(ws, "bits", (n_layers, k, h.n_vars), np.uint8)   # unread until written
    kstar = np.full(n_layers, -1, dtype=np.int64)   # -1: left to _flood
    if _kernel is not None and h.m <= KERNEL_MAX_M:
        # every buffer is C-contiguous with the dtype the kernel reads; the
        # exponent table is made so when h is built
        g = max(1, min(MAX_LANES, n_layers, LANE_BYTES // (8 * h.n_edges)))
        work = buffer(ws, "work", (work_doubles(h, g),))
        _kernel(channel.ctypes.data, n_layers, h.n, h.m, h.cpm_exponents.ctypes.data,
                params.scale, np.inf if params.clip is None else params.clip,
                steps.ctypes.data, k, g, work.ctypes.data, bits.ctypes.data,
                kstar.ctypes.data)
    at, done = np.array(limits, dtype=np.int64), kstar[:, None]
    converged = (done > 0) & (done <= at)
    iterations = np.where(converged, done, at)
    if steps.tolist() != list(limits):   # bits[l, j] holds the decisions at steps[j]
        bits = bits[:, steps.searchsorted(at)]
    for l in (kstar < 0).nonzero()[0]:   # numpy's inf/NaN rules
        bits[l], iterations[l], converged[l] = _flood(channel[l], h, params, limits)
    return bits, iterations, converged


def decode_global(frame: LlrFrame, h: GlobalParityCheck, params: MsaParams) -> tuple:
    """Decode the s layers independently under params.max_iterations; the
    word estimate stacks their bits, with one DecodeResult per layer."""
    bits, iterations, converged = decode_batch(frame.layers(), h, params,
                                               (params.max_iterations,))
    ops = OPS_PER_EDGE * h.n_edges
    return GlobalWord(bits=bits[:, 0]), [
        DecodeResult(hard_bits=b, converged=c, iterations_used=i, edge_ops=ops * i)
        for b, i, c in zip(bits[:, 0], iterations[:, 0].tolist(), converged[:, 0].tolist())]
