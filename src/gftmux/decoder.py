"""Scaled min-sum decoding of binary layers over the global parity check.

Flooding schedule: every iteration updates all edges, takes hard
decisions, and stops early once the syndrome clears.  Check-node
minima use two-minimum tracking with first-index tie breaks, and an
LLR of exactly zero decides bit 0, so decoding is bit-exact across
runs and scheduling orders.

The operation counter charges 3 real-number operations per edge per
iteration, making the complexity accounting an exact measured
identity rather than an instruction count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LlrFrame
from .geometry import GlobalParityCheck
from .txrx import GlobalWord

#: Real-number operations charged per edge per iteration.
OPS_PER_EDGE = 3


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


@dataclass(eq=False)
class DecodeResult:
    hard_bits: np.ndarray
    converged: bool
    iterations_used: int
    edge_ops: int


def _flood(channel: np.ndarray, h: GlobalParityCheck, params: MsaParams,
           limits) -> list:
    """The flooding loop, run once to max(limits); one result per limit.

    Flooding reaches the same state at iteration k whatever the limit, so
    if the syndrome first clears at iteration k*, limit L reports the
    decision at min(k*, L), converged iff k* <= L, and 3E*min(k*, L)
    operations.
    """
    if channel.size != h.n_vars:
        raise ValueError(f"LLR length {channel.size} != {h.n_vars} variables")
    row_idx = np.arange(h.n_checks)
    ops = OPS_PER_EDGE * h.n_edges
    checkpoints = {}

    v2c = channel[h.check_vars]
    for it in range(1, max(limits) + 1):
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
            done = DecodeResult(hard_bits=bits, converged=True,
                                iterations_used=it, edge_ops=ops * it)
            return [checkpoints[lim] if lim < it else done for lim in limits]
        if it in limits:
            checkpoints[it] = DecodeResult(hard_bits=bits, converged=False,
                                           iterations_used=it, edge_ops=ops * it)
    return [checkpoints[lim] for lim in limits]


def decode_frame(frame: LlrFrame, h: GlobalParityCheck, params: MsaParams,
                 limits) -> list:
    """Decode each of the s layers once to max(limits), reporting at every
    limit: out[l][j] is layer l's result at limits[j].  params supplies the
    scale and clip; limits take the place of its max_iterations.  A single
    binary layer is a frame with s = 1."""
    return [_flood(lay, h, params, limits) for lay in frame.layers()]


def decode_global(frame: LlrFrame, h: GlobalParityCheck, params: MsaParams) -> tuple:
    """Decode the s layers independently; the word estimate stacks their bits."""
    results = [lay[0] for lay in
               decode_frame(frame, h, params, (params.max_iterations,))]
    return GlobalWord(bits=np.stack([r.hard_bits for r in results])), results
