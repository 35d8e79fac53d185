import csv
import ctypes
import io
import multiprocessing
import os
import sys
import threading
import tracemalloc
from collections import Counter, deque
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import consume
from gftmux import config, decoder, galois, geometry, sim
from gftmux.channel import ChannelParams
from gftmux.decoder import MsaParams
from gftmux.geometry import GlobalParityCheck
from gftmux.sim import (
    CSV_COLUMNS,
    CellResult,
    SimConfig,
    TrialRecord,
    baseline_mld_wer,
    confidence_interval,
    monte_carlo,
    run_trial,
    write_csv,
)


@pytest.fixture(scope="module")
def desk(desk_bundle):
    return desk_bundle


# -- Wilson interval -----------------------------------------------------


def test_wilson_zero_errors():
    low, high = confidence_interval(0, 100)
    assert low == 0.0
    # frozen from the closed form z^2/(n + z^2) with z = Phi^-1(0.975)
    assert high == pytest.approx(0.03699349820698568, abs=1e-12)


def test_wilson_symmetric_half():
    low, high = confidence_interval(50, 100)
    assert (low + high) / 2 == pytest.approx(0.5, abs=1e-12)


def test_wilson_one_in_a_million():
    _, high = confidence_interval(1, 10 ** 6)
    assert high < 6e-6


def test_wilson_matches_scipy():
    st = pytest.importorskip("scipy.stats")
    for errors, trials in [(0, 100), (3, 50), (37, 1500), (100, 100)]:
        ref = st.binomtest(errors, trials).proportion_ci(method="wilson")
        low, high = confidence_interval(errors, trials)
        assert low == pytest.approx(ref.low, abs=1e-12)
        assert high == pytest.approx(ref.high, abs=1e-12)


def test_wilson_requires_trials():
    with pytest.raises(ValueError):
        confidence_interval(0, 0)


# -- trials ----------------------------------------------------------------


def test_trial_deterministic(desk):
    params = MsaParams(max_iterations=10, scale=0.625)
    sigma = ChannelParams(ebn0_db=2.0, rate=desk.rate).sigma
    a = run_trial(desk.transceiver, desk.parity_check, sigma, params, 555, 17)
    b = run_trial(desk.transceiver, desk.parity_check, sigma, params, 555, 17)
    assert (a.global_error, a.composite_errors, a.bit_errors,
            a.iterations, a.edge_ops) == (
        b.global_error, b.composite_errors, b.bit_errors,
        b.iterations, b.edge_ops)


def test_trial_zero_noise(desk):
    params = MsaParams(max_iterations=10, scale=0.625)
    sigma = ChannelParams(ebn0_db=60.0, rate=desk.rate).sigma
    rec = run_trial(desk.transceiver, desk.parity_check, sigma, params, 555, 3)
    assert not rec.global_error
    assert rec.composite_errors == 0 and rec.bit_errors == 0
    assert rec.iterations == [1, 1, 1]


def test_trial_errors_at_low_snr(desk):
    params = MsaParams(max_iterations=10, scale=0.625)
    sigma = ChannelParams(ebn0_db=2.0, rate=desk.rate).sigma
    errors = sum(
        run_trial(desk.transceiver, desk.parity_check, sigma, params, 555, i).global_error
        for i in range(1000)
    )
    assert errors > 0


def test_trial_verify_raises_on_false_convergence(desk, monkeypatch):
    def fake(channel, graph, params, limits, ws=None):   # all ones, reported converged
        shape = (len(channel), len(limits))
        return (np.ones(shape + (graph.n_vars,), dtype=np.uint8),
                np.ones(shape, dtype=np.int64), np.ones(shape, dtype=bool))

    monkeypatch.setattr(sim, "decode_batch", fake)
    params = MsaParams(max_iterations=10, scale=0.625)
    with pytest.raises(RuntimeError, match="nonzero syndrome"):
        run_trial(desk.transceiver, desk.parity_check, 1.0, params, 555, 0)
    run_trial(desk.transceiver, desk.parity_check, 1.0, params, 555, 0, verify=False)


def assert_block_matches_trial_rng(tx, seed, start, count):
    """draw_block gives each trial's bits and noise as trial_rng, random_streams
    and standard_normal(s*n^2) do, one trial at a time, the noise layer-major:
    normal k at [k % s, k // s]."""
    streams, noise = sim.draw_block(tx, seed, start, count)
    assert streams.bits.dtype == np.uint8 and noise.shape == (count, tx.s, tx.n ** 2)
    for k in range(count):
        rng = sim.trial_rng(seed, start + k)
        assert (streams.bits[k] == tx.random_streams(rng).bits).all(), (seed, start + k)
        normals = rng.standard_normal(tx.s * tx.n ** 2)
        assert (noise[k] == normals.reshape(-1, tx.s).T).all(), (seed, start + k)


@pytest.mark.parametrize("preset", config.list_presets())
def test_draw_block_matches_trial_rng(preset):
    """Seeds of one, two and three 32-bit words, and a block whose indices
    cross from one word to two."""
    tx = config.build_system(config.load_preset(preset)).transceiver
    first = sim.BLOCK_SIZE if preset == "desk_gf8" else 3   # desk's block, or a few frames
    for seed in (0, 1, 20260810, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5):
        for start, count in ((0, first), (2 ** 32 - 3, 7)):
            assert_block_matches_trial_rng(tx, seed, start, count)


@pytest.mark.parametrize("preset", config.list_presets())
def test_numpy_draw_block_matches_trial_rng(numpy_kernel, preset):
    """Without the library each trial's random_raw words hold random_streams'
    bits, an odd count of uint32 words included, and leave the generator
    where standard_normal draws the same noise."""
    tx = config.build_system(config.load_preset(preset)).transceiver
    for seed in (0, 20260810, 2 ** 64 + 5):
        assert_block_matches_trial_rng(tx, seed, 2 ** 32 - 2, 3)


def test_draw_block_matches_trial_rng_hypothesis(desk):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(words=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=4),
                      start=st.integers(0, 2 ** 40 - 1), count=st.integers(1, 9))
    def run(words, start, count):   # a 3- or 4-word seed and a 2-word index pass the pool
        seed = sum(w << 32 * k for k, w in enumerate(words))
        assert_block_matches_trial_rng(desk.transceiver, seed, start, count)

    run()


# -- the library's seeding and draw, against numpy ------------------------------

needs_draw = pytest.mark.skipif(sim._draw is None, reason="the C library did not load")


def library_seed(seed, start, count):
    """gftmux_seed's four words per trial, from the seed's uint32 words."""
    seed32 = np.array([seed >> 32 * k & 0xFFFFFFFF
                       for k in range(max(1, -(-seed.bit_length() // 32)))], dtype=np.uint32)
    words = np.empty((count, 4), dtype=np.uint64)
    sim._seed(seed32.ctypes.data, len(seed32), start, count, words.ctypes.data)
    return words


def assert_seed_matches_seedsequence(seed, start, count):
    expected = [np.random.SeedSequence([seed, i]).generate_state(4, np.uint64)
                for i in range(start, start + count)]
    assert (library_seed(seed, start, count) == expected).all(), (seed, start, count)


@needs_draw
@pytest.mark.parametrize("seed", [0, 1, 20260810, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5,
                                  2 ** 96 - 1, 2 ** 96 + 1, 2 ** 128 + 3, 2 ** 400 + 7])
def test_library_seed_matches_seedsequence(seed):
    """Seeds of 1, 2, 3, 4, 5 and 13 uint32 words, so that the entropy fills
    the pool of 4 or runs past it, and blocks below 2^32, crossing it (one
    index word to two), at 2^40 and at the top of the uint64 range."""
    for start, count in ((0, 5), (2 ** 32 - 3, 6), (2 ** 40, 2), (2 ** 64 - 2, 2)):
        assert_seed_matches_seedsequence(seed, start, count)


@needs_draw
def test_library_seed_matches_seedsequence_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(words=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=12),
                      start=st.integers(0, 2 ** 64 - 9), count=st.integers(1, 8))
    def run(words, start, count):   # seeds of up to 12 words, whatever their size
        seed = sum(w << 32 * k for k, w in enumerate(words))
        assert_seed_matches_seedsequence(seed, start, count)

    run()


@needs_draw
def test_block_seeding_checked_against_trial_rng(desk, monkeypatch):
    """A seed hash that loses the last entropy word is caught at run time: the
    wrapper passes the seed's last word as the index, so that trial 7's
    entropy is the seed's words alone."""
    exact = sim._seed

    def short(seed, nseed, start, count, words):
        last = ctypes.c_uint32.from_address(seed + 4 * (nseed - 1)).value
        exact(seed, nseed - 1, last, count, words)

    monkeypatch.setattr(sim, "_seed", short)
    params = MsaParams(max_iterations=10, scale=0.625)
    with pytest.raises(RuntimeError, match="differs from numpy's SeedSequence"):
        run_trial(desk.transceiver, desk.parity_check, 1.0, params, 555, 7)


MASK64, MASK128 = 2 ** 64 - 1, 2 ** 128 - 1
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645   # PCG64's LCG multiplier
MULT_INV = pow(PCG_MULT, -1, 2 ** 128)
INC = 0x5851F42D4C957F2D14057B7EF767814F   # any odd increment
RABS_TOP = 2 ** 52   # rabs, the ziggurat's 52-bit magnitude, is below this


def xsl_rr_state(r, hi):
    """The stepped state hi:lo whose XSL-RR output, (hi ^ lo) rotated right
    by hi >> 58, is r."""
    rot = hi >> 58
    return hi << 64 | hi ^ (r << rot | r >> (64 - rot)) & MASK64


def position(r, hi, then=None):
    """A PCG64 (state, inc) whose next next64 is r, and whose one after is
    then if given: the increment chooses the second step."""
    first, inc = xsl_rr_state(r, hi), INC
    if then is not None:   # one of the two has an odd increment
        inc = next(i for i in ((xsl_rr_state(then, h) - first * PCG_MULT) & MASK128
                               for h in (hi, hi ^ 1)) if i & 1)
    return (first - inc) * MULT_INV & MASK128, inc


def seed_words(state, inc):
    """The four seed words from which pcg64_srandom_r reaches (state, inc)."""
    init = ((state - inc) * MULT_INV - inc) & MASK128
    seq = inc >> 1
    return np.array([[init >> 64, init & MASK64, seq >> 64, seq & MASK64]], dtype=np.uint64)


def word(idx, sign, rabs):
    """The next64 word the ziggurat reads as strip idx, sign bit and rabs."""
    return idx | sign << 8 | rabs << 9


def his(count, salt=0):
    """count distinct high state halves, each picking another follow-up."""
    return [(0x9E3779B97F4A7C15 * (k + 1) + salt) & MASK64 for k in range(count)]


def library_draw(words, half, nn):
    """The library's raw words and nn normals per trial, in draw order (one layer)."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    raw, noise = np.empty((len(words), half), np.uint64), np.empty((len(words), nn))
    sim._draw(words.ctypes.data, len(words), half, 1, nn, raw.ctypes.data, noise.ctypes.data)
    return raw, noise


class Ziggurat:
    """numpy's standard_normal from a chosen PCG64 state, as the oracle of
    the library's."""

    def __init__(self):
        self.gen = np.random.Generator(np.random.PCG64())

    def normals(self, pos, count):
        """numpy's standard_normal(count) from pos = (state, inc), and the
        next64 calls its first normal took."""
        (state, inc), bits = pos, self.gen.bit_generator
        bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                      "state": {"state": state, "inc": inc}}
        first = self.gen.standard_normal()
        after = bits.state["state"]["state"]
        for taken in range(1, 100):
            state = (state * PCG_MULT + inc) & MASK128
            if state == after:
                return np.concatenate([[first], self.gen.standard_normal(count - 1)]), taken
        raise AssertionError("numpy's normal took 100 words or more")

    def check(self, pos, follow=8):
        """From pos, the library's first normal and the follow normals after
        it equal numpy's bit for bit, so that the library's first normal also
        ends where numpy's does.  Returns the words numpy's first normal
        took, and that normal."""
        ref, taken = self.normals(pos, 1 + follow)
        _, got = library_draw(seed_words(*pos), 0, 1 + follow)
        assert (got[0].view(np.uint64) == ref.view(np.uint64)).all(), pos
        return taken, ref[0]

    def least(self, rejects, top):
        """The least v < top with rejects(v), by bisection (rejects is monotone)."""
        low, high = 0, top
        while low < high:
            mid = (low + high) // 2
            low, high = (low, mid) if rejects(mid) else (mid + 1, high)
        return low

    def ki(self, idx, hi):
        """numpy's ki[idx]: the least rabs whose normal takes more than one word."""
        return self.least(lambda rabs: self.normals(position(word(idx, 0, rabs), hi), 1)[1] > 1,
                          RABS_TOP)


@pytest.fixture(scope="module")
def zig():
    return Ziggurat()


@needs_draw
def test_library_normal_reads_each_wi_entry(zig):
    """rabs = 1 gives x = +-wi[idx] in one word, on every strip but idx 1,
    whose ki is 0: there the wedge test takes a second word and accepts."""
    for idx in range(256):
        for sign, hi in zip((0, 1), his(2, idx)):
            taken, x = zig.check(position(word(idx, sign, 1), hi))
            assert taken == (2 if idx == 1 else 1) and (x < 0) == bool(sign), idx


@needs_draw
def test_library_normal_at_each_ki_boundary(zig):
    """rabs = ki[idx] - 1 returns in one word, rabs = ki[idx] goes on to the
    wedge or the tail, on every strip and in both signs."""
    for idx in range(256):
        ki = zig.ki(idx, his(1, idx)[0])
        assert ki < RABS_TOP
        for sign, hi in zip((0, 1), his(2, 7 * idx)):
            if ki:
                assert zig.check(position(word(idx, sign, ki - 1), hi))[0] == 1, idx
            assert zig.check(position(word(idx, sign, ki), hi))[0] > 1, idx


@needs_draw
@pytest.mark.parametrize("tail_sign", [0, 1])
def test_library_normal_tail_with_a_retry(zig, tail_sign):
    """Strip 0 past ki[0] samples the tail beyond r by (log1p, log1p) pairs:
    seek one state accepted at the first pair (3 words) and one at the
    second (5 words).  The tail's sign is bit 8 of rabs, not the sign bit."""
    rabs = (RABS_TOP - 1) & ~(1 << 8) | tail_sign << 8
    seen = {}
    for hi in his(2000, tail_sign):
        taken, x = zig.check(position(word(0, 1 - tail_sign, rabs), hi))
        assert abs(x) > 3.6541528853610087 and (x < 0) == bool(tail_sign)
        seen.setdefault(taken, hi)
        if 3 in seen and 5 in seen:
            break
    assert 3 in seen and 5 in seen, sorted(seen)


@needs_draw
def test_library_normal_at_each_fi_boundary(zig):
    """On every strip, x halfway into the wedge is accepted (2 words) when
    the next word's double u has (fi[idx-1] - fi[idx]) * u + fi[idx] below
    exp(-0.5 * x * x), and rejected (more words) otherwise: at numpy's
    least rejecting u and the u just below it, the library decides as
    numpy does."""
    for idx in range(1, 256):
        hi = his(1, idx)[0]
        r = word(idx, idx & 1, (zig.ki(idx, hi) + RABS_TOP) // 2)
        u = zig.least(lambda u: zig.normals(position(r, hi, u << 11), 1)[1] > 2, 2 ** 53)
        assert 0 < u < 2 ** 53, idx
        assert zig.check(position(r, hi, u - 1 << 11))[0] == 2
        assert zig.check(position(r, hi, u << 11))[0] > 2


@needs_draw
def test_library_draw_matches_numpy_over_2m_normals():
    """Raw words then 500k normals on each of four seeds, as PCG64 and
    standard_normal draw them; about 130 of each 500k fall in the tail."""
    for seed in range(4):
        seq = np.random.SeedSequence([seed, 20260810])
        raw, noise = library_draw(seq.generate_state(4, np.uint64)[None], 70, 500_000)
        gen = np.random.Generator(np.random.PCG64(seq))
        assert (raw[0] == gen.bit_generator.random_raw(70)).all()
        assert (noise[0].view(np.uint64) == gen.standard_normal(500_000).view(np.uint64)).all()


@needs_draw
@pytest.mark.parametrize("target", ["raw", "noise"])
def test_library_draw_checked_against_numpy(desk, monkeypatch, target):
    """A library draw whose first trial differs from numpy's in one raw word
    or one normal of the checked prefix raises RuntimeError."""
    exact = sim._draw

    def perturbed(words, count, half, s, nv, raw, noise):
        exact(words, count, half, s, nv, raw, noise)
        ptr, ctype, size = ((raw, ctypes.c_uint64, half) if target == "raw"
                            else (noise, ctypes.c_double, s * nv))
        first = np.ctypeslib.as_array(ctypes.cast(ptr, ctypes.POINTER(ctype)), (size,))
        last = min(size, sim._CHECKED) - 1   # the last entry checked, in draw order
        if target == "raw":
            first[last] ^= 1
        else:   # at its layer-major place
            at = last % s * nv + last // s
            first[at] = np.nextafter(first[at], 9)

    monkeypatch.setattr(sim, "_draw", perturbed)
    with pytest.raises(RuntimeError, match="library's draw"):
        sim.draw_block(desk.transceiver, 555, 7, 3)


@needs_draw
def test_symbol_major_library_draw_is_caught(desk, monkeypatch):
    """A library draw that leaves the right normals in the old symbol-major
    order raises RuntimeError: the check reads the layer-major places."""
    exact = sim._draw

    def symbol_major(words, count, half, s, nv, raw, noise):
        exact(words, count, half, 1, s * nv, raw, noise)   # draw order, one layer

    tx = desk.transceiver
    monkeypatch.setattr(sim, "_draw", symbol_major)
    with pytest.raises(RuntimeError, match="library's draw"):
        sim.draw_block(tx, 555, 7, 3)
    monkeypatch.setattr(sim, "_draw", exact)
    sim.draw_block(tx, 555, 7, 3)   # the same normals at their layer-major places pass


def test_clean_frame_skips_demultiplex(desk, monkeypatch):
    """A decoded word equal to the transmitted one counts no errors
    without the inverse GFT; a wrong one is still demultiplexed."""
    tx = desk.transceiver
    real, calls = tx.demultiplex, []

    def counted(word):
        calls.append(word)
        return real(word)

    monkeypatch.setattr(tx, "demultiplex", counted)
    params = MsaParams(max_iterations=10, scale=0.625)
    clean = run_trial(tx, desk.parity_check, 0.3, params, 555, 0)
    assert (clean.composite_errors, clean.bit_errors, calls) == (0, 0, [])
    noisy = [run_trial(tx, desk.parity_check, 1.5, params, 555, i) for i in range(40)]
    assert len(calls) == sum(r.global_error for r in noisy) > 0


NOISY_CASES = [
    ("ex1_bch127_113", 5.5, 3),   # measured: every layer converges in 2-3
    ("ex5_rs89_85", 6.0, 3),      # measured: every layer converges in 1-3
]


@pytest.mark.parametrize("preset, ebn0_db, max_iters", NOISY_CASES)
def test_noisy_decode_at_scale(preset, ebn0_db, max_iters):
    """Two noisy production-scale frames decode exactly within the measured
    iteration bound (limit 50, the preset's seed, trials 0 and 1)."""
    b = config.build_system(config.load_preset(preset))
    sigma = ChannelParams(ebn0_db=ebn0_db, rate=b.rate).sigma
    params = MsaParams(max_iterations=50, scale=b.sim.scale)
    for idx in range(2):
        rec = run_trial(b.transceiver, b.parity_check, sigma, params, b.sim.seed, idx)
        assert rec.all_converged and len(rec.iterations) == b.spec.s
        assert rec.composite_errors == 0 and rec.bit_errors == 0
        assert max(rec.iterations) <= max_iters, rec.iterations


@pytest.mark.parametrize("preset, ebn0_db, max_iters", NOISY_CASES)
def test_noisy_decode_at_scale_numpy_kernel(numpy_kernel, preset, ebn0_db, max_iters):
    test_noisy_decode_at_scale(preset, ebn0_db, max_iters)


@needs_draw
@pytest.mark.parametrize("preset, ebn0_db", [("ex3_rs127_121", 7.0), ("ex5_rs89_85", 6.0)])
def test_block_reuses_the_workspace(preset, ebn0_db):
    """Once a first one-trial block has filled a workspace, the next block's
    tracemalloc peak above its start stays under 1 MiB: its BPSK word, LLR
    layers (which the normals are drawn into), kernel work and bits are not
    allocated again (they took 3.5-5 MiB).  The tallies equal those of blocks run without a workspace."""
    b = config.build_system(config.load_preset(preset))
    sigma = ChannelParams(ebn0_db=ebn0_db, rate=b.rate).sigma
    args = (b.transceiver, b.parity_check, [(sigma, (50,))],
            MsaParams(max_iterations=50, scale=b.sim.scale), b.sim.seed)
    ws = {}
    first = sim.run_block(*args, 0, 1, ws=ws)[0]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        second = sim.run_block(*args, 1, 1, ws=ws)[0]
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    assert (first == sim.run_block(*args, 0, 1)[0]).all()
    assert (second == sim.run_block(*args, 1, 1)[0]).all()


@needs_draw
def test_block_holds_each_trial_once():
    """A warm one-trial block on ex5 with its four preset points (limit 50)
    keeps its arrays in the workspace, with no noise array beside the LLR
    layers, and allocates under 1.9 MB above its start: about 1.65 MB was
    measured, and 2.26 MB while the noise had its own array, the stream bits
    and the Hadamard placement were gathered by per-bit index tables, and
    decode_batch's decisions and the wrong-word mask were P-fold copies."""
    b = config.build_system(config.load_preset("ex5_rs89_85"))
    points = [(ChannelParams(ebn0_db=e, rate=b.rate).sigma, tuple(b.sim.iterations))
              for e in b.sim.ebn0_db]
    args = (b.transceiver, b.parity_check, points,
            MsaParams(max_iterations=max(b.sim.iterations), scale=b.sim.scale), b.sim.seed)
    ws = {}
    sim.run_block(*args, 0, 1, ws=ws)
    assert sorted(ws) == ["bits", "layers", "work", "x"]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tally = sim.run_block(*args, 1, 1, ws=ws)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 1.9e6, peak
    assert tally[0, :, 0].any()   # some point decodes wrongly: demultiplexing is measured
    assert (tally == sim.run_block(*args, 1, 1)).all()


#: Limits whose largest is 50, 10 and 50: a block of these points decodes
#: in two calls, the first and last point in one.
STACKED_LIMITS = [(10, 50), (10,), (50,)]


@pytest.mark.parametrize("kernel", ["compiled", "numpy"])
def test_stacked_points_match_one_point_blocks(desk, request, kernel):
    """A block of points with different limit tuples and largest limits
    tallies each cell as a block of that point under that limit alone."""
    if kernel == "numpy":
        request.getfixturevalue("numpy_kernel")
    sigmas = [ChannelParams(ebn0_db=e, rate=desk.rate).sigma for e in (0.0, 2.0, 3.0)]
    points = list(zip(sigmas, STACKED_LIMITS))
    args = (desk.transceiver, desk.parity_check)
    params = MsaParams(max_iterations=50, scale=0.625)
    stacked = sim.run_block(*args, points, params, 31, 64, 64)
    alone = np.concatenate([sim.run_block(*args, [(sigma, (lim,))], params, 31, 64, 64)
                            for sigma, limits in points for lim in limits], axis=1)
    assert stacked.shape == alone.shape == (64, 4, 5 + desk.transceiver.s)
    assert (stacked == alone).all()
    # the cells differ, and each kind of row is there
    assert (stacked[:, 0] != stacked[:, 1]).any() and (stacked[:, 0] != stacked[:, 3]).any()
    assert stacked[..., 0].any() and not stacked[..., 4].all()


def _count_calls(monkeypatch, targets) -> Counter:
    calls = Counter()
    for owner, name in targets:
        def counted(*args, _real=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.skipif(decoder._kernel is None, reason="_flood counts syndromes itself")
def test_desk_block_decodes_and_checks_once(desk, monkeypatch):
    """A desk block of five points, each under limits 10 and 50, makes one
    decode_batch call and one syndrome_weight call."""
    calls = _count_calls(monkeypatch, [(sim, "decode_batch"),
                                       (GlobalParityCheck, "syndrome_weight")])
    points = [(ChannelParams(ebn0_db=e, rate=desk.rate).sigma, (10, 50))
              for e in (0.0, 2.0, 4.0, 6.0, 8.0)]
    sim.run_block(desk.transceiver, desk.parity_check, points,
                  MsaParams(max_iterations=50, scale=0.625), 31, 0, 64)
    assert calls == {"decode_batch": 1, "syndrome_weight": 1}


@needs_draw
def test_one_point_block_makes_the_same_library_calls(monkeypatch):
    """A one-point ex3 block calls the library as the per-point engine did:
    one seeding, one draw, two GF(2) maps (encode, GFT), one decode and one
    syndrome count, and demultiplexes nothing at 7 dB."""
    b = config.build_system(config.load_preset("ex3_rs127_121"))
    calls = _count_calls(monkeypatch, [
        (sim, "_seed"), (sim, "_draw"), (galois, "_gf2_apply"), (decoder, "_kernel"),
        (geometry, "_syndrome"), (sim, "decode_batch"), (GlobalParityCheck, "syndrome_weight"),
        (type(b.transceiver), "demultiplex")])
    sigma = ChannelParams(ebn0_db=7.0, rate=b.rate).sigma
    sim.run_block(b.transceiver, b.parity_check, [(sigma, (50,))],
                  MsaParams(max_iterations=50, scale=b.sim.scale), b.sim.seed, 5, 1)
    assert calls == {"_seed": 1, "_draw": 1, "_gf2_apply": 2, "_kernel": 1, "_syndrome": 1,
                     "decode_batch": 1, "syndrome_weight": 1}


# -- cell counters and the metric identity ------------------------------------


def _small_result(desk, ebn0=2.0, frames=300, iters=10):
    cfg = SimConfig(ebn0_db=[ebn0], iterations=[iters], scale=0.625,
                    max_frames=frames, target_errors=10 ** 9, seed=99)
    return monte_carlo(desk.transceiver, desk.parity_check, cfg, rate=desk.rate)


def test_metric_identity_exact(desk):
    result = _small_result(desk)
    cell = result.cells[0]
    assert cell.global_errors >= 1
    n = result.n
    # the counter identity behind wer = (lambda/n) * ger, in exact arithmetic
    wer = Fraction(cell.composite_errors, cell.frames * n)
    lam = Fraction(cell.composite_errors, cell.global_errors)
    ger = Fraction(cell.global_errors, cell.frames)
    assert wer == lam / n * ger
    assert 1 <= lam <= n
    assert cell.wer(n) <= cell.ger
    assert cell.composite_errors <= cell.frames * n


def test_lambda_absent_without_errors(desk):
    cell = CellResult(ebn0_db=10.0, iterations_limit=5)
    cell.frames = 50
    assert cell.lambda_hat is None


def test_mean_and_median_iterations(desk):
    cell = CellResult(ebn0_db=0.0, iterations_limit=10)
    cell.add(TrialRecord(False, 0, 0, [1, 1, 2], 10, True))
    cell.add(TrialRecord(True, 3, 5, [4, 10, 10], 20, False))
    assert cell.mean_iterations == pytest.approx(28 / 6)
    assert cell.iter_hist == {1: 2, 2: 1, 4: 1, 10: 2}


def test_monte_carlo_stops_on_target(desk):
    cfg = SimConfig(ebn0_db=[0.0], iterations=[10], scale=0.625,
                    max_frames=10 ** 6, target_errors=20, seed=7)
    result = monte_carlo(desk.transceiver, desk.parity_check, cfg, rate=desk.rate)
    cell = result.cells[0]
    assert cell.global_errors >= 20
    assert cell.frames < 10 ** 6


def test_monte_carlo_reproducible(desk):
    cfg = SimConfig(ebn0_db=[2.0], iterations=[10], scale=0.625,
                    max_frames=150, target_errors=10 ** 9, seed=21)
    r1 = monte_carlo(desk.transceiver, desk.parity_check, cfg, rate=desk.rate)
    r2 = monte_carlo(desk.transceiver, desk.parity_check, cfg, rate=desk.rate)
    c1, c2 = r1.cells[0], r2.cells[0]
    assert (c1.frames, c1.global_errors, c1.composite_errors, c1.bit_errors,
            c1.edge_ops) == (
        c2.frames, c2.global_errors, c2.composite_errors, c2.bit_errors,
        c2.edge_ops)


def test_monte_carlo_worker_invariance(desk):
    cfg = SimConfig(ebn0_db=[2.0], iterations=[10], scale=0.625,
                    max_frames=130, target_errors=10 ** 9, seed=23,
                    verify=False)
    seq = monte_carlo(desk.transceiver, desk.parity_check, cfg, rate=desk.rate,
                      workers=1)
    par = monte_carlo(desk.transceiver, desk.parity_check, cfg, rate=desk.rate,
                      workers=2)
    a, b = seq.cells[0], par.cells[0]
    assert (a.frames, a.global_errors, a.composite_errors, a.bit_errors,
            a.iter_sum, a.edge_ops) == (
        b.frames, b.global_errors, b.composite_errors, b.bit_errors,
        b.iter_sum, b.edge_ops)


def _random_tally(seed: int, start: int, count: int, width: int, s: int) -> np.ndarray:
    """A run_block-shaped tally for width cells, fixed by (seed, start, width)."""
    rng = np.random.default_rng([seed, start, width])
    tally = np.zeros((count, width, 5 + s), dtype=np.int64)
    tally[..., 1] = rng.integers(1, 4, (count, width)) * (rng.random((count, width)) < 0.4)
    tally[..., 2] = tally[..., 1] * rng.integers(1, 5, (count, width))
    tally[..., 4] = rng.random((count, width)) < 0.5
    tally[..., 5:] = rng.integers(1, 12, (count, width, s))
    tally[..., 0] = tally[..., 1] > 0
    tally[..., 3] = 3 * tally[..., 5:].sum(axis=2)
    return tally


def _check_merge(desk, seed, snrs, limits, size, workers, max_frames, target_errors) -> set:
    """monte_carlo over random tallies against the per-cell consume of
    tests/conftest.py walking the same blocks: equal cells and progress in
    the same order.  Returns which cases the walk met."""
    s = desk.transceiver.s
    cfg = SimConfig(ebn0_db=[float(e) for e in range(snrs)], iterations=list(range(1, limits + 1)),
                    max_frames=max_frames, target_errors=target_errors, seed=seed)

    def fake(tx, h, points, params, master_seed, start, count, verify, ws):
        return _random_tally(master_seed, start, count, sum(len(l) for _, l in points), s)

    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "run_block", fake)
        mp.setattr(sim, "BLOCK_SIZE", size)
        result = monte_carlo(desk.transceiver, desk.parity_check, cfg, rate=desk.rate,
                             workers=workers, progress=seen.append)
    cells = [CellResult(ebn0_db=e, iterations_limit=lim)
             for e in cfg.ebn0_db for lim in cfg.iterations]
    active, pending, start, stopped, cases = list(range(len(cells))), deque(), 0, [], set()
    while active:
        while len(pending) < (2 * workers if workers > 1 else 1) and start < max_frames:
            count = min(size, max_frames - start)
            pending.append((tuple(active), _random_tally(seed, start, count, len(active), s)))
            start += count
        snapshot, tally = pending.popleft()
        before = [cells[c].frames for c in range(len(cells))]
        if set(snapshot) - set(active):
            cases.add("inactive in snapshot")
        now = consume(cells, active, snapshot, tally, max_frames, target_errors)
        if any(cells[c].frames - before[c] < len(tally) for c in now):
            cases.add("stop inside a block")
        if len(now) > 1 and now != sorted(now):
            cases.add("two stops out of cell order")
        stopped += now
    assert [replace(c, wall_time=0.0) for c in result.cells] == cells
    assert [(c.ebn0_db, c.iterations_limit) for c in seen] == [
        (cells[c].ebn0_db, cells[c].iterations_limit) for c in stopped]
    return cases


def test_merge_matches_per_cell_consume(desk):
    """Pinned walks that meet each case: a cell stopping inside a block, two
    cells stopping in one block out of cell order, and (with worker threads)
    snapshots holding cells that stopped before their block merged."""
    cases = (_check_merge(desk, 3, 3, 2, 9, 1, 40, 6)
             | _check_merge(desk, 3, 3, 2, 9, 2, 40, 6))
    assert cases == {"inactive in snapshot", "stop inside a block",
                     "two stops out of cell order"}


def test_merge_matches_per_cell_consume_hypothesis(desk):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), snrs=st.integers(1, 3),
                      limits=st.integers(1, 3), size=st.integers(1, 9),
                      workers=st.sampled_from([1, 2]), max_frames=st.integers(1, 40),
                      target_errors=st.integers(1, 12))
    def check(**kwargs):
        _check_merge(desk, **kwargs)

    check()


@pytest.mark.skipif(galois.c_library is None, reason="the C library is not built")
@pytest.mark.parametrize("preset, workers, ebn0_db, frames", [
    ("desk_gf8", 1, 2.0, 200), ("desk_gf8", 2, 2.0, 200), ("ex3_rs127_121", 1, 7.0, 3)])
def test_sweep_never_derives_the_adjacency(preset, workers, ebn0_db, frames, monkeypatch):
    """With the library loaded a sweep reads only H's exponent table: its
    check_vars and var_edges are never derived.  With worker threads the
    class is patched so that reading either fails the sweep."""
    b = config.build_system(config.load_preset(preset))
    if workers > 1:
        def unread(self):
            raise AssertionError("a pool worker derived H's adjacency")

        for name in ("check_vars", "var_edges"):
            monkeypatch.setattr(GlobalParityCheck, name, property(unread))
    cfg = SimConfig(ebn0_db=[ebn0_db], iterations=[10], max_frames=frames,
                    target_errors=10 ** 9, seed=5)
    result = monte_carlo(b.transceiver, b.parity_check, cfg, rate=b.rate, workers=workers)
    assert result.cells[0].frames == frames
    assert not {"check_vars", "var_edges"} & set(vars(b.parity_check))


@pytest.mark.parametrize("workers", [2, 3])
def test_sweep_workers_are_threads_with_own_workspaces(desk, monkeypatch, workers):
    """With workers > 1 the blocks run on threads of the calling process,
    each thread with its own workspace and no two threads sharing one; under
    a short switch interval, also with more threads than cores, the counters
    equal those of one worker."""
    cfg = SimConfig(ebn0_db=[2.0, 4.0], iterations=[2, 10], max_frames=1500,
                    target_errors=10 ** 9, seed=17)
    serial = monte_carlo(desk.transceiver, desk.parity_check, cfg, rate=desk.rate)
    records, owners, run_block = [], {}, sim.run_block

    def recorded(tx, h, points, params, seed, start, count, verify, ws):
        thread = threading.get_ident()
        records.append((os.getpid(), thread))
        # checked before the block runs: two threads on one workspace can hang the kernel
        if owners.setdefault(id(ws), thread) != thread:
            raise AssertionError("two threads were handed one workspace")
        return run_block(tx, h, points, params, seed, start, count, verify, ws)

    monkeypatch.setattr(sim, "run_block", recorded)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = monte_carlo(desk.transceiver, desk.parity_check, cfg, rate=desk.rate,
                             workers=workers)
    finally:
        sys.setswitchinterval(interval)
    assert records and {pid for pid, _ in records} == {os.getpid()}
    threads = {thread for _, thread in records}
    assert threading.get_ident() not in threads and 1 < len(threads) <= workers
    assert multiprocessing.active_children() == []
    assert ([replace(c, wall_time=0.0) for c in pooled.cells]
            == [replace(c, wall_time=0.0) for c in serial.cells])


def test_paired_noise_across_iteration_cells(desk):
    """Cells share trial substreams, so more iterations can only re-decode
    the same channel realizations."""
    cfg = SimConfig(ebn0_db=[3.0], iterations=[1, 10], scale=0.625,
                    max_frames=120, target_errors=10 ** 9, seed=29)
    result = monte_carlo(desk.transceiver, desk.parity_check, cfg, rate=desk.rate)
    few, many = result.cells[0], result.cells[1]
    assert few.frames == many.frames
    assert many.global_errors <= few.global_errors


# -- baseline ------------------------------------------------------------------


def test_baseline_mld_runs(desk):
    errors, words = baseline_mld_wer(desk.transceiver, 2.0, max_words=4000,
                                     target_errors=50, seed=5)
    assert 0 < errors <= words
    # HDD on the (7,4) code at 2 dB fails on the order of 10% of words
    assert 0.02 < errors / words < 0.4


@pytest.mark.parametrize("ebn0, counts", [(0.0, (1000, 4000)), (2.0, (485, 4000)),
                                          (4.0, (143, 4000))])
def test_baseline_mld_pinned(desk, ebn0, counts):
    """The baseline's draws and the oracle's lowest-index tie break fix its
    counts for a seed."""
    assert baseline_mld_wer(desk.transceiver, ebn0, max_words=4000,
                            target_errors=10 ** 6, seed=20260810) == counts


def test_baseline_improves_with_snr(desk):
    rates = []
    for ebn0 in (2.0, 6.0):
        errors, words = baseline_mld_wer(desk.transceiver, ebn0,
                                         max_words=20000, target_errors=200,
                                         seed=5)
        rates.append(errors / words)
    assert rates[1] < rates[0]


# -- CSV -------------------------------------------------------------------------


def test_csv_format(desk):
    result = _small_result(desk, frames=80)
    buf = io.StringIO()
    write_csv(result, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ("ebn0_db,iters,frames,ger,wer,ber,lambda,"
                        "ci_low,ci_high,mean_iters,edge_ops,detected,undetected")
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "2.0" and fields[1] == "10" and fields[2] == "80"


def test_csv_cells_parse_as_numbers(desk):
    result = _small_result(desk, frames=80)
    lo, hi = result.cells[0].wilson_wer(result.n)
    assert 0.0 < lo < hi < 1.0                   # interior bounds, computed ones
    buf = io.StringIO()
    write_csv(result, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    cells = [cell for row in rows[1:] for cell in row if cell]
    assert len(cells) >= len(CSV_COLUMNS) - 1    # only lambda may be empty
    for cell in cells:
        float(cell)


def test_csv_truncation_marker(desk):
    result = _small_result(desk, frames=30)
    buf = io.StringIO()
    write_csv(result, buf, truncated=True)
    assert buf.getvalue().rstrip().endswith("# truncated")


def test_csv_deterministic(desk):
    b1, b2 = io.StringIO(), io.StringIO()
    write_csv(_small_result(desk, frames=60), b1)
    write_csv(_small_result(desk, frames=60), b2)
    assert b1.getvalue() == b2.getvalue()
