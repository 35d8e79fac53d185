import struct

import numpy as np
import pytest

from gftmux import config, cyclic, decoder, galois, geometry, sim
from gftmux.channel import ChannelParams
from gftmux.txrx import bpsk_map


@pytest.fixture
def numpy_kernel(monkeypatch):
    """Decode with the numpy _flood oracle, apply the GF(2) maps with numpy
    tables, count syndromes by numpy's gather and draw each block with
    numpy's generator, as on a machine without a compiler; the sweep's
    worker threads share the choice with the test."""
    monkeypatch.setattr(decoder, "_kernel", None)
    monkeypatch.setattr(geometry, "_syndrome", None)
    monkeypatch.setattr(galois, "_gf2_apply", None)
    monkeypatch.setattr(sim, "_draw", None)


@pytest.fixture(scope="session")
def gf8():
    return galois.build_field(3)


@pytest.fixture(scope="session")
def gf16():
    return galois.build_field(4)


@pytest.fixture(scope="session")
def gf128():
    return galois.build_field(7)


@pytest.fixture(scope="session")
def sub7(gf8):
    return galois.element_of_order(gf8, 7)


@pytest.fixture(scope="session")
def desk_spec(sub7):
    """(7,4) Hamming base code over GF(8): the dense-verification instance."""
    return cyclic.BaseCodeSpec(subgroup=sub7, roots=(1, 2, 4), mode="binary")


@pytest.fixture(scope="session")
def desk_bundle():
    return config.build_system(config.load_preset("desk_gf8"))


@pytest.fixture(scope="session")
def rs5_spec(gf16):
    """Tiny (5,3) RS code over GF(16) for nonbinary unit tests."""
    sub = galois.element_of_order(gf16, 5)
    return cyclic.BaseCodeSpec(subgroup=sub, roots=(1, 2), mode="nonbinary")


def gf2_map_results(gmap, bits):
    """gmap(bits) from every applier this machine has: C, then numpy."""
    appliers = [galois._gf2_apply, None] if galois._gf2_apply is not None else [None]
    results = []
    for apply in appliers:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(galois, "_gf2_apply", apply)
            results.append(gmap(bits))
    return results


def gf2_rank(h) -> int:
    """Rank of H over GF(2) via bit-packed elimination on its row masks,
    qc_rank's oracle."""
    return gf2_rank_rows(h.row_masks())


def gf2_rank_rows(rows) -> int:
    """Rank of arbitrary bit-mask rows, leading-bit pivoting."""
    pivots: dict = {}
    rank = 0
    for row in rows:
        row = int(row)
        while row:
            b = row.bit_length() - 1
            p = pivots.get(b)
            if p is None:
                pivots[b] = row
                rank += 1
                break
            row ^= p
    return rank


def poly_mod(a, g, field) -> np.ndarray:
    """Remainder of a(X) mod g(X); g must be monic."""
    g = np.asarray(g, dtype=np.int64)
    r = np.array(a, dtype=np.int64)
    dg = g.size - 1
    for i in range(r.size - 1, dg - 1, -1):
        c = r[i]
        if c:
            r[i - dg : i + 1] ^= field.mul_arr(c, g)
    return r[:dg]


def encode(msg, spec) -> np.ndarray:
    """Systematic codeword of msg by polynomial division, the oracle of
    cyclic.parity_rows and generator_matrix: message in the n-m high-order
    positions, parity X^m*msg(X) mod g(X) in the m low-order ones; bits in
    binary mode, GF(2^s) symbols otherwise."""
    msg = np.asarray(msg, dtype=np.int64)
    m = spec.m
    if msg.size != spec.n - m:
        raise ValueError(f"message length {msg.size} != n - m = {spec.n - m}")
    alphabet = 2 if spec.mode == "binary" else spec.field.order
    if (msg >= alphabet).any() or (msg < 0).any():
        raise ValueError(f"message symbol outside the code alphabet [0, {alphabet})")
    shifted = np.concatenate([np.zeros(m, dtype=np.int64), msg])
    shifted[:m] = poly_mod(shifted, cyclic.generator_poly(spec), spec.field)
    return shifted


def generator_matrix(spec) -> np.ndarray:
    """(n-m) x n systematic generator matrix [parity_rows | I]; rows are
    unit-message codewords.

    Binary mode yields a 0/1 matrix (encode = msg @ G mod 2); nonbinary
    mode yields field symbols (encode = GF matrix product).
    """
    return np.concatenate([cyclic.parity_rows(spec),
                           np.eye(spec.n - spec.m, dtype=np.int64)], axis=1)


class TooLarge(ValueError):
    """Exhaustive enumeration guard tripped."""


_CODEBOOKS: dict = {}


def _codebook(spec) -> np.ndarray:
    key = (spec.field.s, spec.field.primitive_poly, spec.n, spec.roots, spec.mode)
    cb = _CODEBOOKS.get(key)
    if cb is None:
        kdim = spec.n - spec.m
        msgs = galois.decompose_arr(np.arange(1 << kdim), kdim).T  # (2^k, kdim), LSB first
        cb = (msgs.astype(np.int64) @ generator_matrix(spec)) % 2
        _CODEBOOKS[key] = cb
    return cb


def mld_oracle(received_hard, spec) -> np.ndarray:
    """Exhaustive minimum-Hamming-distance decoding of a (..., n) stack of
    hard words over tiny binary codes.

    Ties break toward the lowest message index, making results
    deterministic.  Guarded to n <= 15 / binary mode.
    """
    if spec.mode != "binary":
        raise TooLarge("mld_oracle supports binary mode only")
    if spec.n > 15:
        raise TooLarge(f"mld_oracle guard: n={spec.n} > 15")
    received_hard = np.asarray(received_hard, dtype=np.int64)
    cb = _codebook(spec)
    return cb[(received_hard[..., None, :] != cb).sum(axis=-1).argmin(axis=-1)]


def baseline_mld_wer(tx, ebn0_db: float, max_words: int, target_errors: int,
                     seed: int) -> tuple:
    """(errors, words) for the uncoupled base code under hard-decision MLD,
    the Monte Carlo oracle of cyclic.local_bdd on a perfect code.

    Each base codeword is transmitted alone at the code's own rate and
    decoded by mld_oracle; n <= 15 binary codes only (the oracle's guard).
    """
    spec = tx.spec
    n, m = spec.n, spec.m
    sigma = ChannelParams(ebn0_db=ebn0_db, rate=(n - m) / n).sigma
    rng = np.random.default_rng([seed, 0xBA5E, int(round(ebn0_db * 1000)) & 0xFFFF])
    gmat = generator_matrix(spec)
    errors = 0
    words = 0
    batch = 1024
    while words < max_words and errors < target_errors:
        count = min(batch, max_words - words)
        msgs = rng.integers(0, 2, size=(count, n - m), dtype=np.int64)
        cws = (msgs @ gmat) % 2
        y = bpsk_map(cws) + sigma * rng.standard_normal(cws.shape)
        decoded = mld_oracle(y < 0, spec)
        errors += int((decoded != cws).any(axis=1).sum())
        words += count
    return errors, words


def sim_cell(result, ebn0_db: float, iterations: int):
    """The cell of a SimResult at one grid point."""
    for c in result.cells:
        if c.ebn0_db == ebn0_db and c.iterations_limit == iterations:
            return c
    raise KeyError((ebn0_db, iterations))


def gf2_poly_divisible(dividend_bits, divisor_bits) -> bool:
    """Independent GF(2) polynomial divisibility oracle (ascending coeffs)."""
    r = list(int(b) for b in dividend_bits)
    d = list(int(b) for b in divisor_bits)
    dd = len(d) - 1
    for i in range(len(r) - 1, dd - 1, -1):
        if r[i]:
            for j, c in enumerate(d):
                r[i - dd + j] ^= c
    return not any(r)


def gf_mul(a: int, b: int, field) -> int:
    """a*b in GF(2^s) through the field's log/antilog tables."""
    if a == 0 or b == 0:
        return 0
    q1 = field.order - 1
    return int(field.antilog_table[(field.log_table[a] + field.log_table[b]) % q1])


def gf_inv(a: int, field) -> int:
    """a^-1 for nonzero a."""
    return int(field.antilog_table[-field.log_table[a] % (field.order - 1)])


def gf_pow(a: int, e: int, field) -> int:
    """a**e for nonzero a and any integer e."""
    return int(field.antilog_table[field.log_table[a] * e % (field.order - 1)])


def naive_gf_matmul(a, b, field) -> np.ndarray:
    """Triple-loop GF(2^s) matrix product; oracle for the vectorized path."""
    a = np.asarray(a)
    b = np.asarray(b)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0
            for k in range(a.shape[1]):
                acc ^= gf_mul(int(a[i, k]), int(b[k, j]), field)
            out[i, j] = acc
    return out


def poly_eval(coeffs, x: int, field) -> int:
    """Horner evaluation of an ascending-coefficient polynomial at x."""
    acc = 0
    for c in reversed(np.asarray(coeffs, dtype=np.int64)):
        acc = gf_mul(acc, x, field) ^ int(c)
    return acc


def code_syndrome(word, spec, k) -> np.ndarray:
    """word . B^T over GF(2^s) for B the k-th Hadamard power of spec's root matrix."""
    word = np.asarray(word, dtype=np.int64)
    bmat = spec.subgroup.pow_table[cyclic.base_matrix(spec, k)]
    return np.bitwise_xor.reduce(spec.field.mul_arr(word[None, :], bmat), axis=1)


def cascade(spec):
    """The desk-scale reference of the similarity transform: the
    block-diagonal cascade of the n Hadamard powers, its interleaved form
    (row i*n + k <- k*m + i, column j*n + t <- t*n + j) and that column map."""
    n, m = spec.n, spec.m
    h_casc = np.zeros((m * n, n * n), dtype=np.int64)
    for k in range(n):
        block = spec.subgroup.pow_table[cyclic.base_matrix(spec, k)]
        h_casc[k * m : (k + 1) * m, k * n : (k + 1) * n] = block
    rows, cols = np.arange(m * n), np.arange(n * n)
    row_map = rows % n * m + rows // n
    col_map = cols % n * n + cols // n
    return h_casc, h_casc[row_map][:, col_map], col_map


def per_group_streams(tx, rng) -> np.ndarray:
    """The trial RNG contract in its first form, the oracle for
    Transceiver.random_streams: one rng.integers(0, 2, (s, L_k), uint8)
    draw per group, in group order, each transposed to (L_k, s) and the
    groups stacked."""
    return np.concatenate([rng.integers(0, 2, size=(tx.s, lk), dtype=np.uint8).T
                           for lk in tx.msg_lengths])


def trace_bytes(tx, word, streams) -> bytes:
    """Binary trace of one transmission, little endian: magic b"GMTR", u8
    version 1, u8 s, u16 n, then the n^2 symbols as u16, then per group a
    u16 length L_k followed by its s*L_k message bits, one byte each,
    stream-major (tx's StreamBlock holds each group symbol-major)."""
    n, bits = tx.n, streams.bits.astype(np.uint8)
    payload = [b"GMTR", struct.pack("<BBH", 1, tx.s, n),
               np.asarray(word.symbols, dtype="<u2").tobytes()]
    for g in np.split(bits, np.cumsum(tx.msg_lengths)[:-1]):
        payload.append(struct.pack("<H", len(g)))
        payload.append(g.T.tobytes())
    return b"".join(payload)


def add_tally(cell, rows) -> None:
    """The per-cell count that sim.merge replaced, its oracle: add run_block
    tally rows, one per trial, to cell one counter at a time."""
    ge, ce, be, ops, _ = rows[:, :5].sum(axis=0).tolist()
    cell.frames += len(rows)
    cell.global_errors += ge
    cell.composite_errors += ce
    cell.bit_errors += be
    cell.edge_ops += ops
    cell.detected += int((rows[:, 0] * (1 - rows[:, 4])).sum())
    cell.undetected += int((rows[:, 0] * rows[:, 4]).sum())
    cell.iter_sum += int(rows[:, 5:].sum())
    cell.layer_decodes += rows[:, 5:].size
    for it, times in zip(*np.unique(rows[:, 5:], return_counts=True)):
        cell.iter_hist[int(it)] = cell.iter_hist.get(int(it), 0) + int(times)


def consume(cells, active, snapshot, tally, max_frames, target_errors) -> list:
    """The per-cell merge of a block that sim.merge replaced, its oracle:
    each cell of snapshot still in active takes tally[:, j] up to the trial
    that meets its budget.  Removes the cells that stop from active and
    returns them in the order of the trials that stop them."""
    stops = []
    for c, rows in zip(snapshot, np.swapaxes(tally, 0, 1)):
        if c not in active:
            continue
        cell = cells[c]
        met = ((cell.frames + np.arange(1, len(rows) + 1) >= max_frames)
               | (cell.global_errors + np.cumsum(rows[:, 0]) >= target_errors))
        take = int(met.argmax()) + 1 if met.any() else len(rows)
        add_tally(cell, rows[:take])
        if met.any():
            stops.append((take, c))
    stopped = [c for _, c in sorted(stops)]
    for c in stopped:
        active.remove(c)
    return stopped
