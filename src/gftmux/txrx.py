"""Transmit and receive chains for the global coded-multiplexing scheme.

Transmit: local encode each of the n stream groups onto its Hadamard
equivalent (group 0 onto the SPC code), interleave the n composite
words by serial-to-parallel extraction, apply the Galois Fourier
transform per parallel vector, serialize, and map the s*n^2 constituent
bits to BPSK.  Receive inverts the chain.  It all runs on symbol-major
bits, each GF(2^s) matrix applied as its GF(2) lift by a Gf2Map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cyclic
from .cyclic import BaseCodeSpec, base_matrix
from .galois import Gf2Map, compose_arr
from .geometry import GlobalParityCheck, vandermonde


@dataclass(eq=False)
class StreamBlock:
    """Message bits of all n groups as one ((n-1) + (n-1)(n-m), s) bit
    array, symbol-major like every word of the chain.

    Rows 0..n-2 are group 0 (the single parity-check group); each group
    k >= 1 takes the next n-m rows.  In nonbinary mode row t of a group
    composes into that group's message symbol t.
    """

    bits: np.ndarray

    def bit_errors(self, other: "StreamBlock") -> int:
        return int(np.count_nonzero(self.bits != other.bits))

    def equal(self, other: "StreamBlock") -> bool:
        return bool(np.array_equal(self.bits, other.bits))


@dataclass(eq=False)
class GlobalWord:
    """Length-n^2 word over GF(2^s): bits[l, t] is the alpha^l bit of symbol t."""

    bits: np.ndarray

    @property
    def symbols(self) -> np.ndarray:
        return compose_arr(self.bits)


def bpsk_map(bits, out=None) -> np.ndarray:
    """0 -> +1, 1 -> -1, as float64 (into out if given)."""
    return np.add(np.multiply(bits, -2.0, out=out, dtype=np.float64), 1.0, out=out)


class Transceiver:
    """Precomputed end-to-end multiplexing context for one code spec.

    Immutable and pure, so one instance serves any number of concurrent
    trials; the chain methods also take frames stacked on leading axes.
    """

    def __init__(self, spec: BaseCodeSpec):
        self.spec = spec
        n, m, s = spec.n, spec.m, spec.s
        self.n, self.m, self.s = n, m, s
        self.parity_check = GlobalParityCheck(base_matrix(spec, 1))
        # GF(2) maps of the generator's parity block (P (x) I_s in binary
        # mode), V, V^-1; the systematic identity block is never lifted
        field = spec.field
        self._gen = Gf2Map(field.lift(cyclic.parity_rows(spec)))
        self._v = Gf2Map(field.lift(vandermonde(spec.subgroup, "forward")))
        self._vinv = Gf2Map(field.lift(vandermonde(spec.subgroup, "inverse")))
        # Symbol t of composite word k >= 1 is symbol t*k mod n of base word
        # k-1: one gather over the flat symbols of groups 1..n-1.
        self._hadamard = np.concatenate(
            [cyclic.hadamard_perm(np.arange((k - 1) * n, k * n), k, n) for k in range(1, n)])
        # The message symbols among all n^2: group 0's first n-1, then the
        # inverse gather at base positions m..n-1 of each group.
        msg_at = np.argsort(self._hadamard).reshape(n - 1, n)[:, m:]
        self._demux = np.concatenate([np.arange(n - 1), n + msg_at.reshape(-1)])
        self.msg_lengths = [n - 1] + [n - m] * (n - 1)
        self.info_bits = s * sum(self.msg_lengths)
        # Group k's s*L_k bits are the top bits of the first s*L_k bytes of
        # its ceil(s*L_k/4) uint32 words, row-major (s, L_k): where
        # rng.integers(0, 2, (s, L_k), uint8) would take them.  Groups
        # 1..n-1 have one length, so each has as many words as the others.
        self._words = (-(-s * (n - 1) // 4), -(-s * (n - m) // 4))   # group 0's, group k's
        self._draw_words = self._words[0] + (n - 1) * self._words[1]
        #: The 64-bit generator outputs per trial that hold those uint32 words.
        self.raw_words = -(-self._draw_words // 2)

    # -- stream handling ------------------------------------------------

    def random_streams(self, rng: np.random.Generator) -> StreamBlock:
        """The bits, each group's transposed to (L_k, s), and the generator
        state of one rng.integers(0, 2, (s, L_k), uint8) draw per group, in
        group order (the trial RNG contract), from a single draw of raw
        uint32 words."""
        return self.gather_streams(rng.integers(0, 2 ** 32, self._draw_words, dtype=np.uint32))

    def gather_streams(self, raw: np.ndarray) -> StreamBlock:
        """The StreamBlock in (..., k) raw words: uint32, or the uint64 outputs
        whose low half next_uint32 hands out first; trials stack on leading axes.
        Group 0 and groups 1..n-1 are read through one strided view each."""
        n, m, s, (w0, wk), lead = self.n, self.m, self.s, self._words, raw.shape[:-1]
        raw = raw.astype(raw.dtype.newbyteorder("<"), copy=False)   # byte 0 drawn first
        data = raw.view(np.uint8)
        rest = data[..., 4 * w0 : 4 * (w0 + (n - 1) * wk)].reshape(lead + (n - 1, 4 * wk))
        bits = np.empty(lead + (sum(self.msg_lengths), s), dtype=np.uint8)
        np.right_shift(data[..., : s * (n - 1)].reshape(lead + (s, n - 1)).swapaxes(-1, -2), 7,
                       out=bits[..., : n - 1, :])
        np.right_shift(rest[..., : s * (n - m)].reshape(lead + (n - 1, s, n - m)).swapaxes(-1, -2),
                       7, out=bits[..., n - 1 :, :].reshape(lead + (n - 1, n - m, s), copy=False))
        return StreamBlock(bits=bits)

    # -- transmit ---------------------------------------------------------

    def encode_composites(self, streams: StreamBlock) -> np.ndarray:
        """(n, n*s) bits; row k is composite word k, symbol-major."""
        n, m, s = self.n, self.m, self.s
        if streams.bits.shape[-2:] != (sum(self.msg_lengths), s):
            raise ValueError("stream block shape does not match the code spec")
        bits = streams.bits.reshape(-1, sum(self.msg_lengths), s)
        comp = np.empty((len(bits), n * n, s), dtype=np.uint8)   # symbol k*n + t
        comp[:, :n] = cyclic.encode_spc(bits[:, : n - 1], axis=1)   # SPC along symbols
        msgs = bits[:, n - 1 :].reshape(-1, (n - m) * s)
        base_words = np.concatenate([self._gen(msgs), msgs], axis=1)   # parity, message
        records = base_words.reshape(len(bits), -1).view(f"V{s}")   # one per symbol
        comp[:, n:] = np.take(records, self._hadamard, axis=1).view(np.uint8).reshape(
            len(bits), -1, s)
        return comp.reshape(streams.bits.shape[:-2] + (n, n * s))

    def multiplex(self, composites: np.ndarray, out=None) -> tuple:
        """S/P extraction, GFT per parallel vector, serialization, BPSK (into out if given)."""
        n, s = self.n, self.s
        # parallel vector j collects symbol j of every composite word
        parallel = composites.reshape(-1, n, n, s).transpose(0, 2, 1, 3)
        serial = self._v(parallel.reshape(-1, n * s))
        serial = serial.reshape(composites.shape[:-2] + (n * n, s))
        return GlobalWord(bits=np.swapaxes(serial, -1, -2)), bpsk_map(
            serial.reshape(composites.shape[:-2] + (-1,)), out)

    def transmit(self, streams: StreamBlock) -> tuple:
        return self.multiplex(self.encode_composites(streams))

    # -- receive ------------------------------------------------------------

    def demultiplex(self, word: GlobalWord) -> tuple:
        """Inverse GFT, P/S regrouping; returns (composites, StreamBlock)."""
        n, s = self.n, self.s
        lead = word.bits.shape[:-2]
        serial = np.swapaxes(word.bits.reshape(-1, s, n * n), 1, 2)
        parallel = self._vinv(serial.reshape(-1, n * s))
        comp = parallel.reshape(-1, n, n, s).transpose(0, 2, 1, 3).reshape(-1, n * n, s)
        return (comp.reshape(*lead, n, n * s),
                StreamBlock(bits=comp[:, self._demux].reshape(*lead, -1, s)))

