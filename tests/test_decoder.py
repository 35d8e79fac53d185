import numpy as np
import pytest

from gftmux.channel import LlrFrame, llr
from gftmux.decoder import OPS_PER_EDGE, MsaParams, decode_batch, decode_global
from gftmux.txrx import Transceiver, bpsk_map


@pytest.fixture(scope="module")
def desk_tx(desk_spec):
    return Transceiver(desk_spec)


@pytest.fixture(scope="module")
def desk_graph(desk_tx):
    return desk_tx.parity_check


def _tx_layer(desk_tx, rng):
    word, _ = desk_tx.transmit(desk_tx.random_streams(rng))
    return word, word.bits


def decode_layer(values, graph, params):
    """(bits, iterations, converged) of one binary layer of the desk code,
    decoded as a batch of one under params.max_iterations."""
    bits, iterations, converged = decode_batch(np.asarray(values)[None], graph, params,
                                               (params.max_iterations,))
    return bits[0, 0], int(iterations[0, 0]), bool(converged[0, 0])


def test_graph_degrees(desk_graph):
    assert desk_graph.n_checks == 21
    assert desk_graph.n_vars == 49
    assert desk_graph.n_edges == 3 * 49
    assert desk_graph.check_vars.shape == (21, 7)
    assert desk_graph.var_edges.shape == (49, 3)


def test_syndrome_zero_vector(desk_graph):
    assert desk_graph.syndrome_weight(np.zeros(49, dtype=np.uint8)) == 0


def test_syndrome_transmitted_layer(desk_tx, desk_graph):
    rng = np.random.default_rng(83)
    _, layers = _tx_layer(desk_tx, rng)
    for lay in layers:
        assert desk_graph.syndrome_weight(lay) == 0


def test_syndrome_single_flip_hits_column_weight(desk_tx, desk_graph):
    rng = np.random.default_rng(89)
    _, layers = _tx_layer(desk_tx, rng)
    lay = layers[0].copy()
    for pos in (0, 11, 48):
        flipped = lay.copy()
        flipped[pos] ^= 1
        assert desk_graph.syndrome_weight(flipped) == 3   # column weight m


def test_noiseless_converges_in_one_iteration(desk_tx, desk_graph):
    rng = np.random.default_rng(97)
    word, layers = _tx_layer(desk_tx, rng)
    for lay in layers:
        bits, iterations, converged = decode_layer(llr(bpsk_map(lay), 0.5), desk_graph,
                                                   MsaParams(max_iterations=10))
        assert converged
        assert iterations == 1
        assert (bits == lay).all()


def test_single_flip_corrected(desk_tx, desk_graph):
    rng = np.random.default_rng(101)
    word, layers = _tx_layer(desk_tx, rng)
    lay = layers[1]
    strong = llr(bpsk_map(lay), 0.5)
    weak = strong.copy()
    weak[17] = -0.4 * strong[17]        # one moderately wrong position
    bits, iterations, converged = decode_layer(weak, desk_graph, MsaParams(max_iterations=10))
    assert converged and iterations <= 10
    assert (bits == lay).all()


def test_edge_ops_accounting(desk_graph):
    rng = np.random.default_rng(103)
    noise = rng.normal(size=49)          # garbage input, never converges early
    iters = 7
    _, (res,) = decode_global(LlrFrame(noise * 0.1, s=1, n=7), desk_graph,
                              MsaParams(max_iterations=iters))
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
        gauge = word.bits[0].astype(np.float64)     # a random codeword
        params = MsaParams(max_iterations=6)
        a = decode_layer(frame, desk_graph, params)
        b = decode_layer(frame * (1 - 2 * gauge), desk_graph, params)
        assert (b[0] == (a[0] ^ gauge.astype(np.uint8))).all()
        assert a[1] == b[1]


def test_determinism(desk_graph):
    rng = np.random.default_rng(109)
    frame = rng.normal(size=49)
    params = MsaParams(max_iterations=8, scale=0.625)
    ref = decode_global(LlrFrame(frame, s=1, n=7), desk_graph, params)[1][0]
    for _ in range(3):
        again = decode_global(LlrFrame(frame, s=1, n=7), desk_graph, params)[1][0]
        assert (again.hard_bits == ref.hard_bits).all()
        assert again.iterations_used == ref.iterations_used
        assert again.edge_ops == ref.edge_ops


def test_early_stop_soundness(desk_tx, desk_graph):
    rng = np.random.default_rng(113)
    sigma = 0.8
    for _ in range(30):
        _, x = desk_tx.transmit(desk_tx.random_streams(rng))
        y = x + sigma * rng.normal(size=147)
        frame = LlrFrame(llr(y, sigma), s=3, n=7)
        _, results = decode_global(frame, desk_graph,
                                   MsaParams(max_iterations=6))
        for r in results:
            if r.converged:
                assert desk_graph.syndrome_weight(r.hard_bits) == 0


def test_decode_global_recomposition(desk_tx, desk_graph):
    rng = np.random.default_rng(127)
    word, x = desk_tx.transmit(desk_tx.random_streams(rng))
    frame = LlrFrame(llr(x, 1.0), s=3, n=7)
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
    solo = [decode_layer(lay, desk_graph, params) for lay in frame.layers()]
    for a, (bits, iterations, _) in zip(joint, solo):
        assert (a.hard_bits == bits).all()
        assert a.iterations_used == iterations


def test_zero_llr_decides_bit_zero(desk_graph):
    bits, _, converged = decode_layer(np.zeros(49), desk_graph, MsaParams(max_iterations=1))
    assert (bits == 0).all()
    assert converged


def test_clip_option(desk_graph):
    rng = np.random.default_rng(137)
    frame = rng.normal(size=49) * 10
    bits, iterations, converged = decode_layer(frame, desk_graph,
                                               MsaParams(max_iterations=3, clip=1.0))
    assert bits.shape == (49,) and bits.dtype == np.uint8
    assert 1 <= iterations <= 3


@pytest.mark.parametrize("clip", [0.0, -1.0])
def test_clip_must_be_positive(clip):
    with pytest.raises(ValueError, match="clip"):
        MsaParams(max_iterations=3, clip=clip)


def test_theorem_equivalence_random_sample(desk_tx, desk_graph):
    """Composed word has zero GF(2^s) syndrome iff every layer does."""
    rng = np.random.default_rng(149)
    h = desk_tx.parity_check
    for _ in range(200):
        vec = rng.integers(0, 8, size=49)
        gf_zero = h.syndrome_weight(vec) == 0
        layers_zero = all(
            desk_graph.syndrome_weight(((vec >> l) & 1).astype(np.uint8)) == 0
            for l in range(3)
        )
        assert gf_zero == layers_zero


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_llr_rejected(desk_graph, bad):
    values = np.ones(49)
    values[17] = bad
    with pytest.raises(ValueError, match="non-finite"):
        decode_global(LlrFrame(np.concatenate([values, values, values]), s=3, n=7),
                      desk_graph, MsaParams(5))
    with pytest.raises(ValueError, match="non-finite"):
        decode_batch(np.stack([np.ones(49), values]), desk_graph, MsaParams(5), (5,))


def test_checkpoints_match_separate_decodes(desk_tx, desk_graph):
    """One decode to the largest limit reports, at each smaller limit, what
    a decode stopped at that limit reports."""
    rng = np.random.default_rng(151)
    limits = (1, 3, 7, 20, 7)
    seen_unconverged = seen_converged = 0
    ops = OPS_PER_EDGE * desk_graph.n_edges
    for _ in range(40):
        _, x = desk_tx.transmit(desk_tx.random_streams(rng))
        sigma = 0.9
        y = x + sigma * rng.standard_normal(3 * 49)
        frame = LlrFrame(llr(y, sigma), s=3, n=7)
        params = MsaParams(max_iterations=20, scale=0.75, clip=4.0)
        bits, iterations, converged = decode_batch(frame.layers(), desk_graph, params, limits)
        for l, j in np.ndindex(iterations.shape):
            ref_bits, ref_iterations, ref_converged = decode_layer(
                frame.layers()[l], desk_graph,
                MsaParams(max_iterations=limits[j], scale=0.75, clip=4.0))
            assert (bits[l, j] == ref_bits).all()
            assert (converged[l, j], iterations[l, j], ops * iterations[l, j]) == (
                ref_converged, ref_iterations, ops * ref_iterations)
            seen_converged += converged[l, j]
            seen_unconverged += not converged[l, j]
    assert seen_converged and seen_unconverged
