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
frames of s layers each; one frame is the batch of one), compiled
with gcc when this module is imported and cached under the user cache
directory ($XDG_CACHE_HOME/gftmux or ~/.cache/gftmux), keyed by the
SHA-256 of the source, the flags and the machine.  The kernel computes
every message and every sum to the same double as _flood's numpy
operations (the sums in numpy's pairwise order), so its decisions equal
_flood's bit for bit; _flood stays as the reference and as the fallback
when no compiler is available or the build fails (one warning).  On
x86-64 the library holds one clone of the kernel per ISA level
(x86-64-v4, AVX2, baseline), picked for the CPU when it is loaded; vector
lanes run across checks or variables, never along a sum, so every clone
is exact and the cached file stays portable.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import LlrFrame
from .geometry import GlobalParityCheck
from .txrx import GlobalWord

#: Real-number operations charged per edge per iteration.
OPS_PER_EDGE = 3

#: -ffp-contract=off keeps a*b+c from fusing; no -ffast-math or
#: -march=native, so the cached library is exact and portable (the
#: source's target clones choose the vector width at load time).
CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")

#: Widest variable row the kernel sums in numpy's order (numpy's
#: pairwise block size); wider codes decode with _flood.
KERNEL_MAX_M = 128


def _load_kernel():
    """Compile _flood.c into the user cache unless already there, load it,
    and return its entry point; None, with one warning, when that fails."""
    source = Path(__file__).with_name("_flood.c")
    try:
        key = hashlib.sha256(source.read_bytes() + repr(
            (CFLAGS, platform.machine())).encode()).hexdigest()[:16]
        cache = Path(os.environ.get("XDG_CACHE_HOME")
                     or Path.home() / ".cache") / "gftmux"
        lib = cache / f"flood-{key}.so"
        if not lib.exists():
            cache.mkdir(parents=True, exist_ok=True)
            # concurrent builders each write their own file; replace is atomic
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:
                subprocess.run(["gcc", *CFLAGS, str(source), "-o", tmp, "-lm"],
                               check=True, capture_output=True, text=True)
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        fn = ctypes.CDLL(str(lib)).gftmux_flood
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None) or exc
        warnings.warn(f"gftmux: C min-sum kernel unavailable, decoding with "
                      f"numpy ({detail})", RuntimeWarning, stacklevel=2)
        return None
    ptr, int64, double = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    fn.argtypes = [ptr, int64, int64, int64, ptr, double, double, ptr, int64,
                   ptr, ptr, ptr]
    fn.restype = None
    return fn


#: The compiled kernel, or None to decode with _flood.
_kernel = _load_kernel()


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


def decode_batch(channel: np.ndarray, h: GlobalParityCheck, params: MsaParams,
                 limits) -> tuple:
    """Decode each row of channel, an (L, n^2) array of binary layers, once
    to max(limits); (bits, iterations, converged)[l, j] report layer l at
    limits[j].  params supplies the scale and clip.

    All L layers go to the compiled kernel in one call; _flood decodes the
    layers it cannot take (no kernel, m > KERNEL_MAX_M, or a variable total
    that overflowed).  Either way the arrays equal _flood's results.
    """
    channel = np.ascontiguousarray(channel, dtype=np.float64)
    if channel.ndim != 2 or channel.shape[1] != h.n_vars:
        raise ValueError(f"LLR layers {channel.shape} are not (L, {h.n_vars})")
    steps = np.array(sorted(set(limits)), dtype=np.int64)
    if steps[0] < 1:
        raise ValueError("iteration limits must be positive")
    expo = np.ascontiguousarray(h.cpm_exponents, dtype=np.int64) % h.n
    if expo.shape != (h.m, h.n):
        raise ValueError(f"CPM exponent table {expo.shape} is not m x n = {(h.m, h.n)}")
    n_layers, k = len(channel), steps.size
    bits = np.zeros((n_layers, k + 1, h.n_vars), dtype=np.uint8)
    kstar = np.full(n_layers, -1, dtype=np.int64)   # -1: left to _flood
    if _kernel is not None and h.m <= KERNEL_MAX_M:
        # every buffer is made here, C-contiguous with the dtype the kernel reads
        work = np.empty(h.n_edges + 10 * h.n)
        _kernel(channel.ctypes.data, n_layers, h.n, h.m, expo.ctypes.data, params.scale,
                np.inf if params.clip is None else params.clip, steps.ctypes.data, k,
                work.ctypes.data, bits.ctypes.data, kstar.ctypes.data)
    at, done = np.array(limits, dtype=np.int64), kstar[:, None]
    converged = (done > 0) & (done <= at)
    iterations = np.where(converged, done, at)
    # bits[l, k] holds the decisions at convergence, bits[l, j] those at steps[j]
    bits = bits[np.arange(n_layers)[:, None],
                np.where(converged, k, steps.searchsorted(at))]
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
