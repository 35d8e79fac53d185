import io

import numpy as np
import pytest

from conftest import naive_gf_matmul
from gftmux import config, cyclic, galois
from gftmux.cyclic import base_matrix, code_syndrome
from gftmux.geometry import ScaleGuard, cpm, cpm_dispersion
from gftmux.txrx import (
    GlobalWord,
    Transceiver,
    bpsk_map,
    build_cascaded_ref,
    cascade_word,
    read_trace,
    sp_deinterleave,
    sp_extract,
    verify_similarity,
    write_trace,
)


@pytest.fixture(scope="module")
def desk_tx(desk_spec):
    return Transceiver(desk_spec)


@pytest.fixture(scope="module")
def rs5_tx(rs5_spec):
    return Transceiver(rs5_spec)


# -- transmit ------------------------------------------------------------


def test_zero_streams_zero_word(desk_tx):
    word, x = desk_tx.transmit(desk_tx.zero_streams())
    assert (word.symbols == 0).all()
    assert (x == 1.0).all()


def test_transmit_syndrome_zero_random(desk_tx):
    rng = np.random.default_rng(31)
    h = desk_tx.parity_check
    for _ in range(25):
        word, _ = desk_tx.transmit(desk_tx.random_streams(rng), verify=True)
        assert h.syndrome_weight(word.symbols) == 0
        for layer in word.layers():
            assert h.syndrome_weight(layer) == 0


def test_transmit_nonbinary_syndrome_zero(rs5_tx):
    rng = np.random.default_rng(37)
    for _ in range(25):
        word, _ = rs5_tx.transmit(rs5_tx.random_streams(rng), verify=True)
        assert rs5_tx.parity_check.syndrome_weight(word.symbols) == 0


def test_transmit_verify_raises_on_bad_word(desk_spec, monkeypatch):
    tx = Transceiver(desk_spec)
    good = tx.encode_composites

    def corrupted(streams):
        comp = good(streams)
        comp[1, 0] ^= 1
        return comp

    monkeypatch.setattr(tx, "encode_composites", corrupted)
    with pytest.raises(RuntimeError, match="global parity check"):
        tx.transmit(tx.zero_streams(), verify=True)


def test_composites_per_group_codewords(desk_tx, desk_spec):
    rng = np.random.default_rng(41)
    comps = desk_tx.encode_composites(desk_tx.random_streams(rng))
    f = desk_spec.field
    for k in range(7):
        syn = code_syndrome(comps[k], base_matrix(desk_spec, k), f)
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
    word, _ = desk_tx.transmit(desk_tx.random_streams(rng))
    bits = word.serial_bits()
    # bit l of symbol t sits at index t*s + l, layer 0 = coefficient of alpha^0
    for t in (0, 5, 20):
        for l in range(3):
            assert bits[t * 3 + l] == (int(word.symbols[t]) >> l) & 1
    assert (GlobalWord.from_layers(word.layers()).symbols == word.symbols).all()


def test_stream_shape_mismatch_rejected(desk_tx):
    streams = desk_tx.zero_streams()
    streams.groups[2] = streams.groups[2][:, :-1]
    with pytest.raises(ValueError):
        desk_tx.transmit(streams)


# -- S/P extraction ---------------------------------------------------------


def test_sp_extract_definition():
    comps = np.arange(49).reshape(7, 7)
    par = sp_extract(comps)
    assert par[3].tolist() == comps[:, 3].tolist()   # c[3] = (c_{0,3},...,c_{6,3})


def test_sp_round_trip():
    rng = np.random.default_rng(53)
    comps = rng.integers(0, 8, size=(7, 7))
    assert (sp_deinterleave(sp_extract(comps)) == comps).all()


# -- receive ------------------------------------------------------------------


@pytest.mark.parametrize("fixture", ["desk_tx", "rs5_tx"])
def test_receive_transmit_identity(fixture, request):
    tx = request.getfixturevalue(fixture)
    rng = np.random.default_rng(59)
    for _ in range(50):
        streams = tx.random_streams(rng)
        word, _ = tx.transmit(streams)
        assert streams.equal(tx.receive(word))


def test_receive_zero_word(desk_tx):
    word = GlobalWord(symbols=np.zeros(49, dtype=np.int64), s=3)
    back = desk_tx.receive(word)
    assert back.equal(desk_tx.zero_streams())


def test_receive_recovers_published_bit_count():
    b = config.build_system(config.load_preset("ex5_rs89_85"))
    tx = b.transceiver
    rng = np.random.default_rng(61)
    streams = tx.random_streams(rng)
    assert streams.total_bits() == 83248
    word, _ = tx.transmit(streams)
    back = tx.receive(word)
    assert back.total_bits() == 83248
    assert streams.equal(back)


def test_gft_igft_segment_round_trip(gf8, sub7):
    from gftmux.geometry import vandermonde

    rng = np.random.default_rng(67)
    v = vandermonde(sub7, "forward").elements()
    vi = vandermonde(sub7, "inverse").elements()
    seg = rng.integers(0, 8, size=(7, 7))
    assert (gf8.matmul(gf8.matmul(seg, v), vi) == seg).all()


# -- cascaded reference and the transform similarity --------------------------


def test_cascade_blocks_are_hadamard_powers(desk_spec):
    ref = build_cascaded_ref(desk_spec)
    for k in range(7):
        block = ref.h_casc[k * 3 : (k + 1) * 3, k * 7 : (k + 1) * 7]
        assert (block == base_matrix(desk_spec, k).elements()).all()
    off = ref.h_casc.copy()
    for k in range(7):
        off[k * 3 : (k + 1) * 3, k * 7 : (k + 1) * 7] = 0
    assert not off.any()


def test_interleaved_blocks_are_diagonal(desk_spec):
    ref = build_cascaded_ref(desk_spec)
    sub = desk_spec.subgroup
    for i, l in enumerate(desk_spec.roots):
        for j in range(7):
            block = ref.h_casc_pi[i * 7 : (i + 1) * 7, j * 7 : (j + 1) * 7]
            want = np.zeros((7, 7), dtype=np.int64)
            np.fill_diagonal(want, sub.pow_table[(np.arange(7) * j * l) % 7])
            assert (block == want).all()
            assert (ref.d_block(i, j) == np.diag(want)).all()


def test_cascade_and_interleaved_syndromes(desk_spec, desk_tx):
    ref = build_cascaded_ref(desk_spec)
    f = desk_spec.field
    rng = np.random.default_rng(71)
    comps = desk_tx.encode_composites(desk_tx.random_streams(rng))
    c_casc = cascade_word(comps)
    assert not f.matmul(c_casc[None, :], ref.h_casc.T).any()
    c_icc = sp_extract(comps).reshape(-1)
    assert not f.matmul(c_icc[None, :], ref.h_casc_pi.T).any()
    # the interleaved word is the column-permuted cascade word
    assert (c_icc == c_casc[ref.col_map]).all()


def test_similarity_all_desk_blocks(desk_spec, desk_tx):
    ref = build_cascaded_ref(desk_spec)
    rep = verify_similarity(ref, desk_tx.parity_check)
    assert rep.ok and rep.blocks_checked == 21


def test_similarity_block_oracle(desk_spec, desk_tx):
    """Independent dense-multiply oracle for V D V^-1 == CPM."""
    ref = build_cascaded_ref(desk_spec)
    f = desk_spec.field
    v, vi = ref.v_elements(), ref.vinv_elements()
    h = desk_tx.parity_check
    for i in range(3):
        for j in range(7):
            d = np.diag(ref.d_block(i, j))
            product = naive_gf_matmul(naive_gf_matmul(v, d, f), vi, f)
            assert (product == cpm(int(h.cpm_exponents[i, j]), 7)).all()


def test_similarity_identity_block(desk_spec, desk_tx):
    # block (i, 0): D = I so V I V^-1 = I = CPM(0)
    ref = build_cascaded_ref(desk_spec)
    assert (ref.d_block(1, 0) == 1).all()
    assert (desk_tx.parity_check.cpm_exponents[:, 0] == 0).all()


def test_full_similarity_transform_desk(desk_spec, desk_tx):
    """Whole-matrix check: blockdiag(V) H_pi blockdiag(V^-1) == H_global."""
    ref = build_cascaded_ref(desk_spec)
    f = desk_spec.field
    left = ref.v_blk(copies=3)          # row side: m blocks of V
    right = ref.v_blk_inv(copies=7)     # column side: n blocks of V^-1
    product = f.matmul(f.matmul(left, ref.h_casc_pi), right)
    assert (product == desk_tx.parity_check.dense()).all()


def test_similarity_sampled_at_scale():
    b = config.build_system(config.load_preset("ex1_bch127_113"))
    ref = build_cascaded_ref(b.spec, dense=False)
    rep = verify_similarity(ref, b.parity_check, num_blocks=20,
                            rng=np.random.default_rng(73))
    assert rep.ok and rep.blocks_checked == 20


def test_cascaded_ref_scale_guard():
    b = config.build_system(config.load_preset("ex1_bch127_113"))
    with pytest.raises(ScaleGuard):
        build_cascaded_ref(b.spec, dense=True)


# -- trace dump ----------------------------------------------------------------


def test_trace_round_trip(desk_tx):
    rng = np.random.default_rng(79)
    streams = desk_tx.random_streams(rng)
    word, _ = desk_tx.transmit(streams)
    buf = io.BytesIO()
    write_trace(buf, word, streams)
    word2, streams2 = read_trace(io.BytesIO(buf.getvalue()))
    assert (word2.symbols == word.symbols).all()
    assert streams.equal(streams2)
