"""Transmit and receive chains for the global coded-multiplexing scheme.

Transmit: local encode each of the n stream groups onto its Hadamard
equivalent (group 0 onto the SPC code), compose s binary layers into
GF(2^s) composite words, interleave by serial-to-parallel extraction,
apply the Galois Fourier transform per parallel vector, serialize, and
map the s*n^2 constituent bits to BPSK.  Receive inverts the chain.

Also holds the cascaded/interleaved reference matrices used to verify
that the transform similarity turns the block-diagonal local structure
into the CPM dispersion.
"""

from __future__ import annotations

from dataclasses import dataclass
import struct

import numpy as np

from . import cyclic
from .cyclic import BaseCodeSpec, base_matrix, hadamard_indices
from .galois import compose_arr, decompose_arr
from .geometry import (
    DENSE_LIMIT,
    GlobalParityCheck,
    ScaleGuard,
    cpm,
    cpm_dispersion,
    vandermonde,
)


@dataclass(eq=False)
class StreamBlock:
    """Message bits for all n groups: groups[k] is an (s, L_k) bit array.

    L_0 = n-1 (single parity-check group); L_k = n-m otherwise.  In
    nonbinary mode column t of a group composes into message symbol t.
    """

    groups: list
    n: int
    s: int

    def total_bits(self) -> int:
        return sum(g.size for g in self.groups)

    def group_equal(self, other: "StreamBlock") -> np.ndarray:
        return np.array(
            [bool((a == b).all()) for a, b in zip(self.groups, other.groups)]
        )

    def bit_errors(self, other: "StreamBlock") -> int:
        return int(sum((a != b).sum() for a, b in zip(self.groups, other.groups)))

    def equal(self, other: "StreamBlock") -> bool:
        return bool(self.group_equal(other).all())


@dataclass(eq=False)
class GlobalWord:
    """Length-n^2 vector over GF(2^s) with lazily derived binary layers."""

    symbols: np.ndarray
    s: int

    def layers(self) -> np.ndarray:
        return decompose_arr(self.symbols, self.s)

    def serial_bits(self) -> np.ndarray:
        """Symbol-major bit serialization, coefficient of alpha^0 first."""
        return self.layers().T.reshape(-1)

    @classmethod
    def from_layers(cls, layers) -> "GlobalWord":
        layers = np.asarray(layers)
        return cls(symbols=compose_arr(layers), s=layers.shape[0])


def bpsk_map(bits) -> np.ndarray:
    """0 -> +1, 1 -> -1."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)


class Transceiver:
    """Precomputed end-to-end multiplexing context for one code spec.

    Immutable after construction; transmit/receive are pure, so one
    instance can serve any number of concurrent trials.
    """

    def __init__(self, spec: BaseCodeSpec):
        self.spec = spec
        self.field = spec.field
        self.subgroup = spec.subgroup
        n, m, s = spec.n, spec.m, spec.s
        self.n, self.m, self.s = n, m, s
        self.base = base_matrix(spec, 1)
        self.parity_check = cpm_dispersion(self.base)
        self.v = vandermonde(spec.subgroup, "forward")
        self.v_inv = vandermonde(spec.subgroup, "inverse")
        self._v_el = self.v.elements()
        self._vinv_el = self.v_inv.elements()
        self.gpoly = cyclic.generator_poly(spec)
        self.gen_matrix = cyclic.generator_matrix(spec)
        if spec.mode == "binary":
            self._gen_f32 = self.gen_matrix.astype(np.float32)
        # perm[k-1, t] = t*k mod n for groups 1..n-1; inv_perm undoes it
        ks = np.arange(1, n, dtype=np.int64)
        t = np.arange(n, dtype=np.int64)
        self._perm = (t[None, :] * ks[:, None]) % n
        kinv = np.array([pow(int(k), -1, n) for k in ks], dtype=np.int64)
        self._inv_perm = (t[None, :] * kinv[:, None]) % n
        self.msg_lengths = [n - 1] + [n - m] * (n - 1)
        self.info_bits = s * sum(self.msg_lengths)
        self.serial_bits = s * n * n

    # -- stream handling ------------------------------------------------

    def random_streams(self, rng: np.random.Generator) -> StreamBlock:
        groups = [
            rng.integers(0, 2, size=(self.s, lk), dtype=np.uint8)
            for lk in self.msg_lengths
        ]
        return StreamBlock(groups=groups, n=self.n, s=self.s)

    def zero_streams(self) -> StreamBlock:
        groups = [np.zeros((self.s, lk), dtype=np.uint8) for lk in self.msg_lengths]
        return StreamBlock(groups=groups, n=self.n, s=self.s)

    # -- transmit ---------------------------------------------------------

    def encode_composites(self, streams: StreamBlock) -> np.ndarray:
        """(n, n) symbol matrix; row k is the composite word of group k."""
        n, m, s = self.n, self.m, self.s
        if len(streams.groups) != n or any(
            g.shape != (s, lk) for g, lk in zip(streams.groups, self.msg_lengths)
        ):
            raise ValueError("stream block shape does not match the code spec")
        comp = np.zeros((n, n), dtype=np.int64)
        comp[0] = cyclic.encode_spc(compose_arr(streams.groups[0]))
        if self.spec.mode == "binary":
            msgs = np.stack(streams.groups[1:])            # (n-1, s, n-m)
            flat = msgs.reshape(-1, n - m).astype(np.float32)
            cw_bits = (flat @ self._gen_f32) % 2           # BLAS, sums stay exact
            cw_bits = cw_bits.astype(np.int64).reshape(n - 1, s, n)
            base_words = (cw_bits << np.arange(s)[None, :, None]).sum(axis=1)
        else:
            msg_syms = np.stack(
                [compose_arr(g) for g in streams.groups[1:]]
            )                                              # (n-1, n-m)
            base_words = self.field.matmul(msg_syms, self.gen_matrix)
        comp[1:] = np.take_along_axis(base_words, self._perm, axis=1)
        return comp

    def multiplex(self, composites: np.ndarray) -> tuple:
        """S/P extraction, GFT per parallel vector, serialization, BPSK."""
        parallel = sp_extract(composites)
        segments = self.field.matmul(parallel, self._v_el)
        word = GlobalWord(symbols=segments.reshape(-1), s=self.s)
        return word, bpsk_map(word.serial_bits())

    def transmit(self, streams: StreamBlock, verify: bool = False) -> tuple:
        word, x = self.multiplex(self.encode_composites(streams))
        if verify and self.parity_check.syndrome_weight(word.symbols) != 0:
            raise RuntimeError("transmitter output violates the global parity check")
        return word, x

    # -- receive ------------------------------------------------------------

    def demultiplex(self, word: GlobalWord) -> tuple:
        """Inverse GFT, P/S regrouping; returns (composites, StreamBlock)."""
        n, m = self.n, self.m
        segments = np.asarray(word.symbols, dtype=np.int64).reshape(n, n)
        parallel = self.field.matmul(segments, self._vinv_el)
        composites = parallel.T.copy()
        groups = [decompose_arr(composites[0, : n - 1], self.s)]
        base_words = np.take_along_axis(composites[1:], self._inv_perm, axis=1)
        for k in range(1, n):
            groups.append(decompose_arr(base_words[k - 1, m:], self.s))
        return composites, StreamBlock(groups=groups, n=n, s=self.s)

    def receive(self, word: GlobalWord) -> StreamBlock:
        return self.demultiplex(word)[1]


def sp_extract(composites) -> np.ndarray:
    """Parallel vector j collects symbol j of every composite word."""
    return np.asarray(composites).T.copy()


def sp_deinterleave(parallel) -> np.ndarray:
    return np.asarray(parallel).T.copy()


def transmit(streams: StreamBlock, spec: BaseCodeSpec) -> tuple:
    """One-shot convenience wrapper; build a Transceiver for repeated use."""
    return Transceiver(spec).transmit(streams)


def receive(word: GlobalWord, spec: BaseCodeSpec) -> StreamBlock:
    return Transceiver(spec).receive(word)


# -- cascaded / interleaved reference matrices ---------------------------


@dataclass(eq=False)
class CascadedRef:
    """Reference matrices for the similarity-transform verification.

    Dense mode materializes the block-diagonal cascade matrix, the
    interleaved variant, and the row/column maps between them; sampled
    mode serves individual diagonal blocks on demand for large n.
    """

    spec: BaseCodeSpec
    dense: bool
    h_casc: np.ndarray | None
    h_casc_pi: np.ndarray | None
    row_map: np.ndarray | None
    col_map: np.ndarray | None

    def d_block(self, i: int, j: int) -> np.ndarray:
        """Diagonal of block (i, j): element t is beta^(t*j*l_i)."""
        n = self.spec.n
        l_i = self.spec.roots[i]
        t = np.arange(n, dtype=np.int64)
        return self.spec.subgroup.pow_table[(t * j * l_i) % n]

    def v_elements(self) -> np.ndarray:
        return vandermonde(self.spec.subgroup, "forward").elements()

    def vinv_elements(self) -> np.ndarray:
        return vandermonde(self.spec.subgroup, "inverse").elements()

    def v_blk(self, copies: int) -> np.ndarray:
        """Block-diagonal stack of V (dense mode only)."""
        if not self.dense:
            raise ScaleGuard("block-diagonal V is dense-mode only")
        n = self.spec.n
        out = np.zeros((copies * n, copies * n), dtype=np.int64)
        v = self.v_elements()
        for b in range(copies):
            out[b * n : (b + 1) * n, b * n : (b + 1) * n] = v
        return out

    def v_blk_inv(self, copies: int) -> np.ndarray:
        if not self.dense:
            raise ScaleGuard("block-diagonal V is dense-mode only")
        n = self.spec.n
        out = np.zeros((copies * n, copies * n), dtype=np.int64)
        vi = self.vinv_elements()
        for b in range(copies):
            out[b * n : (b + 1) * n, b * n : (b + 1) * n] = vi
        return out


def build_cascaded_ref(spec: BaseCodeSpec, dense: bool | None = None) -> CascadedRef:
    n, m = spec.n, spec.m
    if dense is None:
        dense = n <= DENSE_LIMIT
    if not dense:
        return CascadedRef(spec=spec, dense=False, h_casc=None, h_casc_pi=None,
                           row_map=None, col_map=None)
    if n > DENSE_LIMIT:
        raise ScaleGuard(f"dense cascade reference limited to n <= {DENSE_LIMIT}")
    h_casc = np.zeros((m * n, n * n), dtype=np.int64)
    for k in range(n):
        h_casc[k * m : (k + 1) * m, k * n : (k + 1) * n] = base_matrix(
            spec, k
        ).elements()
    # interleaving: new row i*n + k <- old row k*m + i; same index map on columns
    i_idx = np.arange(m * n) // n
    k_idx = np.arange(m * n) % n
    row_map = k_idx * m + i_idx
    j_idx = np.arange(n * n) // n
    t_idx = np.arange(n * n) % n
    col_map = t_idx * n + j_idx
    h_casc_pi = h_casc[row_map][:, col_map]
    return CascadedRef(spec=spec, dense=True, h_casc=h_casc, h_casc_pi=h_casc_pi,
                       row_map=row_map, col_map=col_map)


def cascade_word(composites) -> np.ndarray:
    """Concatenate composite words (the pre-interleave cascade ordering)."""
    return np.asarray(composites).reshape(-1)


@dataclass
class SimilarityReport:
    ok: bool
    blocks_checked: int
    first_mismatch: tuple | None

    def __bool__(self):
        return self.ok


def verify_similarity(
    ref: CascadedRef,
    h: GlobalParityCheck,
    num_blocks: int | None = None,
    rng: np.random.Generator | None = None,
) -> SimilarityReport:
    """Check V.D(i,j).V^-1 == CPM(e(i,j)) block by block.

    Dense references check all m*n blocks; sampled references check
    num_blocks random ones (default 20).
    """
    spec = ref.spec
    field = spec.field
    n, m = spec.n, spec.m
    v = ref.v_elements()
    vi = ref.vinv_elements()
    if ref.dense:
        blocks = [(i, j) for i in range(m) for j in range(n)]
    else:
        if num_blocks is None:
            num_blocks = 20
        if rng is None:
            rng = np.random.default_rng(0)
        chosen = rng.choice(m * n, size=min(num_blocks, m * n), replace=False)
        blocks = [(int(b) // n, int(b) % n) for b in chosen]
    for i, j in blocks:
        d = np.zeros((n, n), dtype=np.int64)
        np.fill_diagonal(d, ref.d_block(i, j))
        product = field.matmul(field.matmul(v, d), vi)
        expected = cpm(int(h.cpm_exponents[i, j]), n)
        if not (product == expected).all():
            return SimilarityReport(ok=False, blocks_checked=len(blocks),
                                    first_mismatch=(i, j))
    return SimilarityReport(ok=True, blocks_checked=len(blocks), first_mismatch=None)


# -- binary trace dump -----------------------------------------------------
#
# Layout (little endian): magic b"GMTR", u8 version, u8 s, u16 n, then
# n^2 u16 symbols, then per group a u16 length L_k followed by s*L_k
# message bits, one byte each, stream-major.

_TRACE_MAGIC = b"GMTR"


def write_trace(destination, word: GlobalWord, streams: StreamBlock) -> None:
    n = streams.n
    payload = [_TRACE_MAGIC, struct.pack("<BBH", 1, streams.s, n)]
    payload.append(
        np.asarray(word.symbols, dtype="<u2").tobytes()
    )
    for g in streams.groups:
        payload.append(struct.pack("<H", g.shape[1]))
        payload.append(g.astype(np.uint8).tobytes())
    blob = b"".join(payload)
    if hasattr(destination, "write"):
        destination.write(blob)
    else:
        with open(destination, "wb") as fh:
            fh.write(blob)


def read_trace(source) -> tuple:
    if hasattr(source, "read"):
        blob = source.read()
    else:
        with open(source, "rb") as fh:
            blob = fh.read()
    if blob[:4] != _TRACE_MAGIC:
        raise ValueError("not a trace file")
    version, s, n = struct.unpack_from("<BBH", blob, 4)
    if version != 1:
        raise ValueError(f"unsupported trace version {version}")
    off = 8
    symbols = np.frombuffer(blob, dtype="<u2", count=n * n, offset=off).astype(np.int64)
    off += 2 * n * n
    groups = []
    for _ in range(n):
        (lk,) = struct.unpack_from("<H", blob, off)
        off += 2
        bits = np.frombuffer(blob, dtype=np.uint8, count=s * lk, offset=off)
        off += s * lk
        groups.append(bits.reshape(s, lk).copy())
    return GlobalWord(symbols=symbols, s=s), StreamBlock(groups=groups, n=n, s=s)
