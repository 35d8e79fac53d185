import io

import numpy as np
import pytest

from gftmux.channel import LlrFrame, llr
from gftmux.cyclic import mld_oracle
from gftmux.decoder import (
    OPS_PER_EDGE,
    DecoderGraph,
    DecodeResult,
    MsaParams,
    decode_frame,
    decode_global,
    decode_layer,
    syndrome_gf2,
)
from gftmux.geometry import read_alist, write_alist
from gftmux.txrx import Transceiver, bpsk_map


@pytest.fixture(scope="module")
def desk_tx(desk_spec):
    return Transceiver(desk_spec)


@pytest.fixture(scope="module")
def desk_graph(desk_tx):
    return DecoderGraph.from_parity_check(desk_tx.parity_check)


def _tx_layer(desk_tx, rng):
    word, _ = desk_tx.transmit(desk_tx.random_streams(rng))
    return word, word.layers()


def test_graph_degrees(desk_graph):
    assert desk_graph.n_checks == 21
    assert desk_graph.n_vars == 49
    assert desk_graph.n_edges == 3 * 49
    assert desk_graph.edge_var.shape == (21, 7)
    assert not desk_graph.pad_mask.any()
    assert desk_graph.var_edges.shape == (49, 3)


def test_syndrome_zero_vector(desk_graph):
    assert syndrome_gf2(np.zeros(49, dtype=np.uint8), desk_graph) == 0


def test_syndrome_transmitted_layer(desk_tx, desk_graph):
    rng = np.random.default_rng(83)
    _, layers = _tx_layer(desk_tx, rng)
    for lay in layers:
        assert syndrome_gf2(lay, desk_graph) == 0


def test_syndrome_single_flip_hits_column_weight(desk_tx, desk_graph):
    rng = np.random.default_rng(89)
    _, layers = _tx_layer(desk_tx, rng)
    lay = layers[0].copy()
    for pos in (0, 11, 48):
        flipped = lay.copy()
        flipped[pos] ^= 1
        assert syndrome_gf2(flipped, desk_graph) == 3   # column weight m


def test_noiseless_converges_in_one_iteration(desk_tx, desk_graph):
    rng = np.random.default_rng(97)
    word, layers = _tx_layer(desk_tx, rng)
    for lay in layers:
        res = decode_layer(llr(bpsk_map(lay), 0.5), desk_graph,
                           MsaParams(max_iterations=10))
        assert res.converged
        assert res.iterations_used == 1
        assert (res.hard_bits == lay).all()


def test_single_flip_corrected(desk_tx, desk_graph):
    rng = np.random.default_rng(101)
    word, layers = _tx_layer(desk_tx, rng)
    lay = layers[1]
    strong = llr(bpsk_map(lay), 0.5)
    weak = strong.copy()
    weak[17] = -0.4 * strong[17]        # one moderately wrong position
    res = decode_layer(weak, desk_graph, MsaParams(max_iterations=10))
    assert res.converged and res.iterations_used <= 10
    assert (res.hard_bits == lay).all()


def test_edge_ops_accounting(desk_graph):
    rng = np.random.default_rng(103)
    noise = rng.normal(size=49)          # garbage input, never converges early
    iters = 7
    res = decode_layer(noise * 0.1, desk_graph, MsaParams(max_iterations=iters))
    if not res.converged:
        assert res.iterations_used == iters
    assert res.edge_ops == OPS_PER_EDGE * desk_graph.n_edges * res.iterations_used


def test_sign_symmetry_codeword_gauge(desk_tx, desk_graph):
    """Flipping LLR signs on a codeword's support XORs that codeword into
    the hard decisions: the exact sign symmetry of min-sum on this graph.

    (A global negation is NOT an invariance here: the all-ones pattern
    is no codeword when the check degree n is odd, and products of n-1
    signs do not flip under it.)
    """
    rng = np.random.default_rng(107)
    for _ in range(10):
        frame = rng.normal(size=49) * 2
        word, _ = desk_tx.transmit(desk_tx.random_streams(rng))
        gauge = word.layers()[0].astype(np.float64)     # a random codeword
        params = MsaParams(max_iterations=6)
        a = decode_layer(frame, desk_graph, params)
        b = decode_layer(frame * (1 - 2 * gauge), desk_graph, params)
        assert (b.hard_bits == (a.hard_bits ^ gauge.astype(np.uint8))).all()
        assert a.iterations_used == b.iterations_used


def test_determinism(desk_graph):
    rng = np.random.default_rng(109)
    frame = rng.normal(size=49)
    params = MsaParams(max_iterations=8, scale=0.625)
    ref = decode_layer(frame, desk_graph, params)
    for _ in range(3):
        again = decode_layer(frame, desk_graph, params)
        assert (again.hard_bits == ref.hard_bits).all()
        assert again.iterations_used == ref.iterations_used
        assert again.edge_ops == ref.edge_ops


def test_early_stop_soundness(desk_tx, desk_graph):
    rng = np.random.default_rng(113)
    sigma = 0.8
    for _ in range(30):
        word, _ = desk_tx.transmit(desk_tx.random_streams(rng))
        y = bpsk_map(word.serial_bits()) + sigma * rng.normal(size=147)
        frame = LlrFrame(llr(y, sigma), s=3, n=7)
        _, results = decode_global(frame, desk_graph,
                                   MsaParams(max_iterations=6))
        for r in results:
            if r.converged:
                assert syndrome_gf2(r.hard_bits, desk_graph) == 0


def test_decode_global_recomposition(desk_tx, desk_graph):
    rng = np.random.default_rng(127)
    word, _ = desk_tx.transmit(desk_tx.random_streams(rng))
    frame = LlrFrame(llr(bpsk_map(word.serial_bits()), 1.0), s=3, n=7)
    est, results = decode_global(frame, desk_graph, MsaParams(max_iterations=5))
    assert (est.symbols == word.symbols).all()
    assert desk_tx.parity_check.syndrome_weight(est.symbols) == 0
    assert all(r.converged for r in results)


def test_layer_order_independence(desk_tx, desk_graph):
    """Per-layer results do not depend on sibling layers at all."""
    rng = np.random.default_rng(131)
    frame_vals = rng.normal(size=147)
    frame = LlrFrame(frame_vals, s=3, n=7)
    params = MsaParams(max_iterations=6)
    joint = decode_global(frame, desk_graph, params)[1]
    solo = [decode_layer(frame.layer(l), desk_graph, params) for l in range(3)]
    for a, b in zip(joint, solo):
        assert (a.hard_bits == b.hard_bits).all()
        assert a.iterations_used == b.iterations_used


def test_zero_llr_decides_bit_zero(desk_graph):
    res = decode_layer(np.zeros(49), desk_graph, MsaParams(max_iterations=1))
    assert (res.hard_bits == 0).all()
    assert res.converged


def test_clip_option(desk_graph):
    rng = np.random.default_rng(137)
    frame = rng.normal(size=49) * 10
    res = decode_layer(frame, desk_graph,
                       MsaParams(max_iterations=3, clip=1.0))
    assert isinstance(res, DecodeResult)


def test_graph_from_alist_matches_generated(desk_tx, desk_graph):
    buf = io.StringIO()
    write_alist(desk_tx.parity_check, buf)
    imported = DecoderGraph.from_alist(read_alist(io.StringIO(buf.getvalue())))
    assert imported.n_edges == desk_graph.n_edges
    rng = np.random.default_rng(139)
    frame = rng.normal(size=49)
    params = MsaParams(max_iterations=6)
    a = decode_layer(frame, desk_graph, params)
    b = decode_layer(frame, imported, params)
    assert (a.hard_bits == b.hard_bits).all()
    assert a.iterations_used == b.iterations_used


def test_graph_from_alist_irregular():
    """Padded arrays must behave neutrally for irregular matrices."""
    # H = [[1,1,1,0],[0,0,1,1]] : row degrees 3 and 2, column degrees vary
    text = "4 2\n2 3\n1 1 2 1\n3 2\n1\n1\n1 2\n2\n1 2 3\n3 4\n"
    alist = read_alist(io.StringIO(text))
    graph = DecoderGraph.from_alist(alist)
    assert graph.n_edges == 5
    assert graph.pad_mask.sum() == 1
    # codeword (1,1,0,0) satisfies both checks
    bits = np.array([1, 1, 0, 0], dtype=np.uint8)
    assert graph.syndrome_weight(bits) == 0
    res = decode_layer(llr(bpsk_map(bits), 0.7), graph, MsaParams(max_iterations=5))
    assert res.converged and (res.hard_bits == bits).all()
    assert res.edge_ops == OPS_PER_EDGE * 5 * res.iterations_used


def test_theorem_equivalence_random_sample(desk_tx, desk_graph):
    """Composed word has zero GF(2^s) syndrome iff every layer does."""
    rng = np.random.default_rng(149)
    h = desk_tx.parity_check
    for _ in range(200):
        vec = rng.integers(0, 8, size=49)
        gf_zero = h.syndrome_weight(vec) == 0
        layers_zero = all(
            syndrome_gf2(((vec >> l) & 1).astype(np.uint8), desk_graph) == 0
            for l in range(3)
        )
        assert gf_zero == layers_zero


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_llr_rejected(desk_graph, bad):
    values = np.ones(49)
    values[17] = bad
    with pytest.raises(ValueError, match="non-finite"):
        decode_layer(values, desk_graph, MsaParams(max_iterations=5))
    with pytest.raises(ValueError, match="non-finite"):
        LlrFrame(np.concatenate([values, values, values]), s=3, n=7)


def test_checkpoints_match_separate_decodes(desk_tx, desk_graph):
    """One decode to the largest limit reports, at each smaller limit, what
    a decode stopped at that limit reports."""
    rng = np.random.default_rng(151)
    limits = (1, 3, 7, 20, 7)
    seen_unconverged = seen_converged = 0
    for _ in range(40):
        word, _ = desk_tx.transmit(desk_tx.random_streams(rng))
        sigma = 0.9
        y = bpsk_map(word.serial_bits()) + sigma * rng.standard_normal(3 * 49)
        frame = LlrFrame(llr(y, sigma), s=3, n=7)
        params = MsaParams(max_iterations=20, scale=0.75, clip=4.0)
        per_layer = decode_frame(frame, desk_graph, params, limits)
        for l, at_limits in enumerate(per_layer):
            for lim, got in zip(limits, at_limits):
                ref = decode_layer(frame.layer(l), desk_graph,
                                   MsaParams(max_iterations=lim, scale=0.75, clip=4.0))
                assert (got.hard_bits == ref.hard_bits).all()
                assert (got.converged, got.iterations_used, got.edge_ops) == (
                    ref.converged, ref.iterations_used, ref.edge_ops)
                seen_converged += got.converged
                seen_unconverged += not got.converged
    assert seen_converged and seen_unconverged
