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
from .geometry import AlistMatrix, GlobalParityCheck
from .txrx import GlobalWord

#: Real-number operations charged per edge per iteration.
OPS_PER_EDGE = 3


@dataclass(eq=False)
class DecoderGraph:
    """Edge-aligned Tanner graph arrays for vectorized flooding updates.

    edge_var has one row per check, padded with a phantom variable for
    irregular (alist-imported) matrices; var_edges maps each variable
    to its incident edge slots, padded with a phantom edge.
    """

    n_checks: int
    n_vars: int
    n_edges: int
    edge_var: np.ndarray      # (n_checks, max_check_deg), pads -> n_vars
    pad_mask: np.ndarray      # True where edge_var is padding
    var_edges: np.ndarray     # (n_vars, max_var_deg), pads -> n_edge_slots

    @classmethod
    def from_parity_check(cls, h: GlobalParityCheck) -> "DecoderGraph":
        return cls._from_check_adjacency(
            [list(map(int, row)) for row in h.check_vars], h.n_vars
        )

    @classmethod
    def from_alist(cls, alist: AlistMatrix) -> "DecoderGraph":
        return cls._from_check_adjacency(alist.row_adj, alist.n_cols)

    @classmethod
    def _from_check_adjacency(cls, rows: list, n_vars: int) -> "DecoderGraph":
        n_checks = len(rows)
        degs = [len(r) for r in rows]
        n_edges = sum(degs)
        dmax = max(degs)
        edge_var = np.full((n_checks, dmax), n_vars, dtype=np.int64)
        for c, r in enumerate(rows):
            edge_var[c, : len(r)] = r
        pad_mask = edge_var == n_vars
        flat = edge_var.reshape(-1)
        slots = np.argsort(flat, kind="stable")
        slots = slots[flat[slots] != n_vars]          # real edges, grouped by var
        var_deg = np.bincount(flat[flat != n_vars], minlength=n_vars)
        vmax = int(var_deg.max()) if n_vars else 0
        var_edges = np.full((n_vars, vmax), n_checks * dmax, dtype=np.int64)
        pos = 0
        for v in range(n_vars):
            d = int(var_deg[v])
            var_edges[v, :d] = slots[pos : pos + d]
            pos += d
        return cls(n_checks=n_checks, n_vars=n_vars, n_edges=n_edges,
                   edge_var=edge_var, pad_mask=pad_mask, var_edges=var_edges)

    def syndrome_weight(self, bits) -> int:
        bits = np.asarray(bits, dtype=np.int64)
        ext = np.concatenate([bits, [0]])
        parity = np.bitwise_xor.reduce(ext[self.edge_var], axis=1)
        return int(np.count_nonzero(parity))


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


def _flood(channel: np.ndarray, graph: DecoderGraph, params: MsaParams,
           limits) -> list:
    """The flooding loop, run once to max(limits); one result per limit.

    Flooding reaches the same state at iteration k whatever the limit, so
    if the syndrome first clears at iteration k*, limit L reports the
    decision at min(k*, L), converged iff k* <= L, and 3E*min(k*, L)
    operations.
    """
    if channel.size != graph.n_vars:
        raise ValueError(f"LLR length {channel.size} != {graph.n_vars} variables")
    channel_ext = np.concatenate([channel, [0.0]])
    row_idx = np.arange(graph.n_checks)
    ops = OPS_PER_EDGE * graph.n_edges
    checkpoints = {}

    v2c = channel_ext[graph.edge_var]
    v2c[graph.pad_mask] = np.inf
    c2v_ext = np.zeros(graph.edge_var.size + 1)
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
        c2v[graph.pad_mask] = 0.0

        c2v_ext[:-1] = c2v.reshape(-1)
        total = channel + c2v_ext[graph.var_edges].sum(axis=1)
        total_ext = np.concatenate([total, [0.0]])
        v2c = total_ext[graph.edge_var] - c2v
        v2c[graph.pad_mask] = np.inf

        bits = (total < 0).astype(np.uint8)   # LLR >= 0 decides bit 0
        if graph.syndrome_weight(bits) == 0:
            done = DecodeResult(hard_bits=bits, converged=True,
                                iterations_used=it, edge_ops=ops * it)
            return [checkpoints[lim] if lim < it else done for lim in limits]
        if it in limits:
            checkpoints[it] = DecodeResult(hard_bits=bits, converged=False,
                                           iterations_used=it, edge_ops=ops * it)
    return [checkpoints[lim] for lim in limits]


def decode_layer(llr_layer, graph: DecoderGraph, params: MsaParams) -> DecodeResult:
    """Flooding scaled min-sum on one binary layer; NaN or +-inf LLRs raise."""
    channel = np.asarray(llr_layer, dtype=np.float64)
    if not np.isfinite(channel).all():
        raise ValueError("LLR layer holds non-finite values")
    return _flood(channel, graph, params, (params.max_iterations,))[0]


def decode_frame(frame: LlrFrame, graph: DecoderGraph, params: MsaParams,
                 limits) -> list:
    """Decode each of the s layers once to max(limits), reporting at every
    limit: out[l][j] is layer l's result at limits[j].  params supplies the
    scale and clip; limits take the place of its max_iterations."""
    return [_flood(lay, graph, params, limits) for lay in frame.layers()]


def decode_global(frame: LlrFrame, graph: DecoderGraph, params: MsaParams) -> tuple:
    """Decode the s layers independently and recompose the symbol estimate."""
    results = [lay[0] for lay in
               decode_frame(frame, graph, params, (params.max_iterations,))]
    return GlobalWord.from_layers([r.hard_bits for r in results]), results


def syndrome_gf2(bits, graph: DecoderGraph) -> int:
    """Number of unsatisfied checks of a binary vector."""
    return graph.syndrome_weight(bits)
