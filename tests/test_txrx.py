import hashlib
from pathlib import Path

import numpy as np
import pytest

from conftest import cascade, code_syndrome, naive_gf_matmul, per_group_streams, trace_bytes
from gftmux import config
from gftmux.cyclic import base_matrix
from gftmux.galois import compose_arr, decompose_arr
from gftmux.geometry import GlobalParityCheck, cpm, vandermonde, verify_similarity
from gftmux.sim import trial_rng
from gftmux.txrx import GlobalWord, StreamBlock, Transceiver, bpsk_map

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def desk_tx(desk_spec):
    return Transceiver(desk_spec)


@pytest.fixture(scope="module")
def rs5_tx(rs5_spec):
    return Transceiver(rs5_spec)


def symbols_of(bits, s):
    """Rows of symbol-major bits (bit l of symbol t at t*s + l) as symbols."""
    return compose_arr(bits.reshape(-1, s).T).reshape(bits.shape[0], -1)


def bits_of(symbols, s):
    """Inverse of symbols_of."""
    return decompose_arr(symbols.reshape(-1), s).T.reshape(symbols.shape[0], -1)


def zero_streams(tx):
    return StreamBlock(bits=np.zeros((sum(tx.msg_lengths), tx.s), dtype=np.uint8))


# -- transmit ------------------------------------------------------------


def test_zero_streams_zero_word(desk_tx):
    word, x = desk_tx.transmit(zero_streams(desk_tx))
    assert (word.symbols == 0).all()
    assert (x == 1.0).all()


def test_transmit_syndrome_zero_random(desk_tx):
    rng = np.random.default_rng(31)
    h = desk_tx.parity_check
    for _ in range(25):
        word, _ = desk_tx.transmit(desk_tx.random_streams(rng))
        assert h.syndrome_weight(word.symbols) == 0
        for layer in word.bits:
            assert h.syndrome_weight(layer) == 0


def test_transmit_nonbinary_syndrome_zero(rs5_tx):
    rng = np.random.default_rng(37)
    for _ in range(25):
        word, _ = rs5_tx.transmit(rs5_tx.random_streams(rng))
        assert rs5_tx.parity_check.syndrome_weight(word.symbols) == 0
        assert (rs5_tx.parity_check.syndrome_weight(word.bits) == 0).all()


def test_composites_per_group_codewords(desk_tx, desk_spec):
    rng = np.random.default_rng(41)
    comps = symbols_of(desk_tx.encode_composites(desk_tx.random_streams(rng)), 3)
    for k in range(7):
        syn = code_syndrome(comps[k], desk_spec, k)
        assert not syn.any(), f"group {k} composite fails its Hadamard power"
    assert np.bitwise_xor.reduce(comps[0]) == 0   # SPC group sums to zero


def test_transmit_shapes_vs_published(desk_tx):
    rng = np.random.default_rng(43)
    word, x = desk_tx.transmit(desk_tx.random_streams(rng))
    assert word.symbols.size == 49
    assert x.size == 147
    b = config.build_system(config.load_preset("ex1_bch127_113"))
    word, x = b.transceiver.transmit(b.transceiver.random_streams(rng))
    assert word.symbols.size == 16129
    assert x.size == 112903
    assert b.transceiver.info_bits == 100548     # s (n-1)(n-m+1)


def test_bpsk_mapping():
    assert bpsk_map([0, 1, 0]).tolist() == [1.0, -1.0, 1.0]


def test_serial_bits_symbol_major(desk_tx):
    rng = np.random.default_rng(47)
    word, x = desk_tx.transmit(desk_tx.random_streams(rng))
    bits = (x < 0).astype(np.uint8)
    # bit l of symbol t sits at index t*s + l, layer 0 = coefficient of alpha^0
    for t in (0, 5, 20):
        for l in range(3):
            assert bits[t * 3 + l] == (int(word.symbols[t]) >> l) & 1
    assert (word.bits.T.reshape(-1) == bits).all()


def test_stream_shape_mismatch_rejected(desk_tx):
    streams = zero_streams(desk_tx)
    streams.bits = streams.bits[:-1]
    with pytest.raises(ValueError):
        desk_tx.transmit(streams)


@pytest.mark.parametrize("preset", config.list_presets())
def test_random_streams_match_per_group_draw(preset):
    """The single raw draw gives the per-group draw's bits and leaves the
    generator in its state, buffered half word (has_uint32, uinteger)
    included, so the noise drawn next is the same too."""
    tx = config.build_system(config.load_preset(preset)).transceiver
    for idx in range(200):
        rng, oracle = trial_rng(20260810, idx), trial_rng(20260810, idx)
        bits = tx.random_streams(rng).bits
        assert bits.dtype == np.uint8 and (bits == per_group_streams(tx, oracle)).all()
        assert rng.bit_generator.state == oracle.bit_generator.state


# -- S/P extraction ---------------------------------------------------------


def test_sp_extract_definition(desk_tx, gf8, sub7):
    # segment j of the word is the GFT of c[j] = (c_{0,j},...,c_{6,j})
    comps = np.arange(49).reshape(7, 7) % 8
    word, _ = desk_tx.multiplex(bits_of(comps, 3))
    v = vandermonde(sub7, "forward")
    want = naive_gf_matmul(comps.T, v, gf8)
    assert (word.symbols.reshape(7, 7) == want).all()


def test_sp_round_trip(desk_tx):
    # S/P extraction is a transpose, so P/S regrouping is the same map;
    # demultiplex inverts multiplex on any composites, codewords or not
    rng = np.random.default_rng(53)
    comps = rng.integers(0, 2, size=(7, 21), dtype=np.uint8)
    word, _ = desk_tx.multiplex(comps)
    assert (desk_tx.demultiplex(word)[0] == comps).all()


# -- receive ------------------------------------------------------------------


@pytest.mark.parametrize("fixture", ["desk_tx", "rs5_tx"])
def test_receive_transmit_identity(fixture, request):
    tx = request.getfixturevalue(fixture)
    rng = np.random.default_rng(59)
    for _ in range(50):
        streams = tx.random_streams(rng)
        word, _ = tx.transmit(streams)
        assert streams.equal(tx.demultiplex(word)[1])


def test_receive_zero_word(desk_tx):
    word = GlobalWord(bits=np.zeros((3, 49), dtype=np.uint8))
    back = desk_tx.demultiplex(word)[1]
    assert back.equal(zero_streams(desk_tx))


def test_receive_recovers_published_bit_count():
    b = config.build_system(config.load_preset("ex5_rs89_85"))
    tx = b.transceiver
    rng = np.random.default_rng(61)
    streams = tx.random_streams(rng)
    assert streams.bits.size == 83248
    word, _ = tx.transmit(streams)
    back = tx.demultiplex(word)[1]
    assert back.bits.size == 83248
    assert streams.equal(back)


def test_gft_igft_segment_round_trip(gf8, sub7):
    rng = np.random.default_rng(67)
    v = vandermonde(sub7, "forward")
    vi = vandermonde(sub7, "inverse")
    seg = rng.integers(0, 8, size=(7, 7))
    assert (gf8.matmul(gf8.matmul(seg, v), vi) == seg).all()


# -- cascaded reference and the transform similarity --------------------------


def test_cascade_blocks_are_hadamard_powers(desk_spec):
    h_casc, _, _ = cascade(desk_spec)
    for k in range(7):
        block = h_casc[k * 3 : (k + 1) * 3, k * 7 : (k + 1) * 7]
        assert (block == desk_spec.subgroup.pow_table[base_matrix(desk_spec, k)]).all()
    off = h_casc.copy()
    for k in range(7):
        off[k * 3 : (k + 1) * 3, k * 7 : (k + 1) * 7] = 0
    assert not off.any()


def test_interleaved_blocks_are_diagonal(desk_spec):
    _, h_casc_pi, _ = cascade(desk_spec)
    sub = desk_spec.subgroup
    for i, l in enumerate(desk_spec.roots):
        for j in range(7):
            block = h_casc_pi[i * 7 : (i + 1) * 7, j * 7 : (j + 1) * 7]
            want = np.zeros((7, 7), dtype=np.int64)
            np.fill_diagonal(want, sub.pow_table[(np.arange(7) * j * l) % 7])
            assert (block == want).all()


def test_cascade_and_interleaved_syndromes(desk_spec, desk_tx):
    h_casc, h_casc_pi, col_map = cascade(desk_spec)
    f = desk_spec.field
    rng = np.random.default_rng(71)
    comps = symbols_of(desk_tx.encode_composites(desk_tx.random_streams(rng)), 3)
    c_casc = comps.reshape(-1)               # the pre-interleave cascade order
    assert not f.matmul(c_casc[None, :], h_casc.T).any()
    c_icc = comps.T.reshape(-1)              # S/P extraction
    assert not f.matmul(c_icc[None, :], h_casc_pi.T).any()
    # the interleaved word is the column-permuted cascade word
    assert (c_icc == c_casc[col_map]).all()


def test_similarity_all_desk_blocks(desk_spec, desk_tx):
    assert verify_similarity(desk_spec, desk_tx.parity_check) == (21, None)


def test_similarity_block_oracle(desk_spec, desk_tx):
    """Independent dense-multiply oracle for V D V^-1 == CPM."""
    f, sub = desk_spec.field, desk_spec.subgroup
    v, vi = vandermonde(sub, "forward"), vandermonde(sub, "inverse")
    h = desk_tx.parity_check
    for i, l in enumerate(desk_spec.roots):
        for j in range(7):
            d = np.diag(sub.pow_table[(np.arange(7) * j * l) % 7])
            product = naive_gf_matmul(naive_gf_matmul(v, d, f), vi, f)
            assert (product == cpm(int(h.cpm_exponents[i, j]), 7)).all()


def test_similarity_identity_block(desk_spec, desk_tx):
    # block (i, 0): D = diag(beta^0) = I so V I V^-1 = I = CPM(0)
    assert desk_spec.subgroup.pow_table[0] == 1
    assert (desk_tx.parity_check.cpm_exponents[:, 0] == 0).all()


def test_full_similarity_transform_desk(desk_spec, desk_tx):
    """Whole-matrix check: blockdiag(V) H_pi blockdiag(V^-1) == H_global."""
    _, h_casc_pi, _ = cascade(desk_spec)
    f, sub = desk_spec.field, desk_spec.subgroup
    left = np.kron(np.eye(3, dtype=np.int64), vandermonde(sub))                # m blocks of V
    right = np.kron(np.eye(7, dtype=np.int64), vandermonde(sub, "inverse"))    # n blocks of V^-1
    product = f.matmul(f.matmul(left, h_casc_pi), right)
    assert (product == desk_tx.parity_check.dense()).all()


def test_similarity_sampled_at_scale():
    b = config.build_system(config.load_preset("ex1_bch127_113"))
    assert verify_similarity(b.spec, b.parity_check, num_blocks=20,
                             rng=np.random.default_rng(73)) == (20, None)


def _shifted(h, *blocks):
    """h with the CPM exponent of each (i, j) block moved up by one."""
    expo = h.cpm_exponents.copy()
    for i, j in blocks:
        expo[i, j] = (expo[i, j] + 1) % h.n
    return GlobalParityCheck(expo)


@pytest.mark.parametrize("preset,blocks,ok,first", [
    ("desk_gf8", [(1, 3)], False, (1, 3)),
    # the seed-0 sample draws (1, 84) fifth and (0, 60) eleventh
    ("ex5_rs89_85", [(0, 60), (1, 84)], False, (1, 84)),
    ("ex5_rs89_85", [(2, 40)], True, None),    # not in the seed-0 sample
])
def test_similarity_catches_shifted_block(preset, blocks, ok, first):
    b = config.build_system(config.load_preset(preset))
    checked, got = verify_similarity(b.spec, _shifted(b.parity_check, *blocks),
                                     rng=np.random.default_rng(0))
    assert (got is None) is ok and got == first
    assert checked == (21 if preset == "desk_gf8" else 20)


# -- trace dump ----------------------------------------------------------------


def test_trace_golden_desk(desk_bundle):
    """The desk trace in tests/data was written when StreamBlock held one
    array per group; the flat symbol-major layout gives the same bytes."""
    golden = (DATA / "golden_trace_desk.bin").read_bytes()
    tx = desk_bundle.transceiver
    streams = tx.random_streams(np.random.default_rng(20260810))
    word, _ = tx.transmit(streams)
    assert (tx.parity_check.syndrome_weight(word.bits) == 0).all()
    assert trace_bytes(tx, word, streams) == golden


@pytest.mark.parametrize("preset,digest", [
    ("ex1_bch127_113", "b6e391e62ab07d4eb1dece5e63a2e73b6282eb02b741f61d374f3ddbd5fcb3b5"),
    ("ex3_rs127_121", "21beef4ef4276807737e8856e62fb1b3fa75f95beb4b938a04edbd832fe36bb8"),
    ("ex5_rs89_85", "fc0e325fea8ef902c467c640268b7df3d9bc245e62bf024517fa7fc3cb6d2fb4"),
])
def test_trace_digest_at_scale(preset, digest):
    """Pins the production-scale transmit chain bit for bit, binary and
    nonbinary alike: SHA-256 of the trace of one seeded transmission."""
    tx = config.build_system(config.load_preset(preset)).transceiver
    streams = tx.random_streams(np.random.default_rng(20260810))
    word, _ = tx.transmit(streams)
    assert (tx.parity_check.syndrome_weight(word.bits) == 0).all()
    assert hashlib.sha256(trace_bytes(tx, word, streams)).hexdigest() == digest
