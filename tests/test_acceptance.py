"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines as
they appear.  Criteria 1-8 are exact (construction identities and
counter identities); criteria 9-10 are statistical runs on the desk
preset and take a few minutes.

Criterion 9 note: the desk waterfall is steep (measured GER 2.0e-4 at
6 dB and zero errors in 250k frames at 7-8 dB), so the >=100-errors
grid spans 0-6 dB and the sweep's 8 dB point is asserted as a
zero/near-zero cell whose Wilson interval sits strictly below the
6 dB point.  See the decisions ledger for the full analysis.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import baseline_mld_wer, sim_cell
from gftmux import config
from gftmux.channel import LlrFrame, llr
from gftmux.decoder import (
    OPS_PER_EDGE,
    MsaParams,
    decode_batch,
    decode_global,
)
from gftmux.geometry import DENSE_LIMIT, girth_lower_bound, rc_check, verify_similarity
from gftmux.sim import (
    SimConfig,
    confidence_interval,
    monte_carlo,
)
from gftmux.txrx import GlobalWord, StreamBlock

ALL_PRESETS = ["desk_gf8", "ex1_bch127_113", "ex2_bch127_120",
               "ex3_rs127_121", "ex5_rs89_85"]

_bundles = {}


def bundle(name):
    if name not in _bundles:
        _bundles[name] = config.build_system(config.load_preset(name))
    return _bundles[name]


def report(criterion, problems, detail):
    ok = not problems
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - "
          f"{detail if ok else '; '.join(problems)}")
    assert ok, "; ".join(problems)


def test_criterion_01_code_dimensions():
    """Published global code dimensions and rates, exact / 4 decimals."""
    expected = {
        "ex1_bch127_113": (14364, 0.8905),
        "ex2_bch127_120": (15246, 0.94525),
        "ex3_rs127_121": (15372, 0.9530),
        "ex5_rs89_85": (7568, None),
    }
    problems = []
    t0 = time.perf_counter()
    for name, (dim, rate) in expected.items():
        b = bundle(name)
        if b.dimension != dim:
            problems.append(f"{name}: dimension {b.dimension} != {dim}")
        if rate is not None and abs(b.rate - rate) >= 1e-4:
            problems.append(f"{name}: rate {b.rate:.6f} != {rate} within 1e-4")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        problems.append(f"rank computations took {elapsed:.1f}s (budget 60s)")
    report("C1 code-dimensions", problems,
           f"dims 14364/15246/15372/7568 exact, rates within 1e-4, "
           f"{elapsed:.1f}s total")


def test_criterion_02_shapes_weights():
    expected = {
        "ex1_bch127_113": ((1778, 16129), 14, 127),
        "ex2_bch127_120": ((889, 16129), 7, 127),
        "ex3_rs127_121": ((762, 16129), 6, 127),
        "ex5_rs89_85": ((356, 7921), 4, 89),
    }
    problems = []
    for name, (shape, col_w, row_w) in expected.items():
        h = bundle(name).parity_check
        if h.shape != shape:
            problems.append(f"{name}: shape {h.shape} != {shape}")
        if not (h.column_weights() == col_w).all():
            problems.append(f"{name}: column weight != {col_w}")
        # row weight: each check's variables are distinct
        if not (h.check_vars.shape[1] == row_w
                and (np.diff(np.sort(h.check_vars, axis=1)) > 0).all()):
            problems.append(f"{name}: row weight != {row_w}")
    report("C2 shapes-weights", problems,
           "1778/889/762x16129 and 356x7921 with weights (14,127)/(7,127)/"
           "(6,127)/(4,89), exact")


def test_criterion_03_transform_similarity():
    """V.D(i,j).V^-1 == CPM(beta^(j l_i)): dense at desk, sampled at scale."""
    problems = []
    desk = bundle("desk_gf8")
    checked, first = verify_similarity(desk.spec, desk.parity_check)
    if not (first is None and checked == 21):
        problems.append(f"desk dense check failed at block {first}")
    for name in ["ex1_bch127_113", "ex2_bch127_120", "ex3_rs127_121"]:
        b = bundle(name)
        checked, first = verify_similarity(b.spec, b.parity_check, num_blocks=20,
                                           rng=np.random.default_rng(101))
        if not (first is None and checked >= 20):
            problems.append(f"{name}: sampled check failed at block {first}")
    report("C3 transform-similarity", problems,
           "all 21 desk blocks dense-exact; 20 random blocks per 127-scale "
           "config")


def test_criterion_04_layer_decomposition():
    """Zero GF(2^s) syndrome iff all binary layer syndromes are zero."""
    desk = bundle("desk_gf8")
    h, tx, s = desk.parity_check, desk.transceiver, desk.spec.s
    rng = np.random.default_rng(103)
    problems = []

    vecs = rng.integers(0, desk.spec.field.order, size=(10_000, 49), dtype=np.int64)
    gf_zero = ~np.bitwise_xor.reduce(vecs[:, h.check_vars], axis=2).any(axis=1)
    layers_zero = np.ones(len(vecs), dtype=bool)
    for l in range(s):
        bits = (vecs >> l) & 1
        layers_zero &= ~np.bitwise_xor.reduce(bits[:, h.check_vars], axis=2).any(axis=1)
    mismatches = int((gf_zero != layers_zero).sum())
    if mismatches:
        problems.append(f"{mismatches} mismatches on random vectors")

    for i in range(1_000):
        word, _ = tx.transmit(tx.random_streams(rng))
        if h.syndrome_weight(word.symbols) != 0:
            problems.append(f"transmitter output {i} has nonzero GF syndrome")
            break
        if any(h.syndrome_weight(lay) != 0 for lay in word.bits):
            problems.append(f"transmitter output {i} has a nonzero layer")
            break
    report("C4 layer-decomposition", problems,
           "10^4 random GF(8) vectors + 10^3 transmitter outputs, "
           "zero counterexamples")


def test_criterion_05_rc_and_girth():
    problems = []
    for name in ALL_PRESETS:
        b = bundle(name)
        violation = rc_check(b.parity_check)
        if violation is not None:
            problems.append(f"{name}: RC violated at {violation}")
        g = girth_lower_bound(b.parity_check)
        if g < 6:
            problems.append(f"{name}: girth {g} < 6")
        if b.spec.n <= DENSE_LIMIT and g != 6:
            problems.append(f"{name}: BFS girth {g} != 6")
    report("C5 rc-girth", problems,
           "RC holds and girth >= 6 on every preset; desk BFS girth exactly 6, "
           "agreeing with the algebraic criterion")


@pytest.mark.parametrize("name,mode", [
    ("ex1_bch127_113", "binary BCH"),
    ("ex5_rs89_85", "nonbinary RS"),
    ("desk_gf8", "desk"),
])
def test_criterion_06_noiseless_round_trip(name, mode):
    """demultiplex(transmit(x)) == x on 10^3 random stream blocks per mode;
    the decoder converges in one iteration on noiseless LLRs.  The blocks
    are drawn in order and sent through the chain and the decoder in
    stacks of 100 frames."""
    b = bundle(name)
    tx, graph = b.transceiver, b.parity_check
    rng = np.random.default_rng(107)
    params = MsaParams(max_iterations=10, scale=b.sim.scale)
    decode_frames = 1000 if name == "desk_gf8" else 100
    stack = 100
    problems = []
    for start in range(0, 1000, stack):
        streams = StreamBlock(bits=np.stack([tx.random_streams(rng).bits
                                             for _ in range(stack)]))
        word, x = tx.transmit(streams)
        back = tx.demultiplex(word)[1].bits
        bad = (back != streams.bits).any(axis=(1, 2)).nonzero()[0]
        if bad.size:
            problems.append(f"round trip failed at frame {start + bad[0]}")
            break
        k = min(stack, decode_frames - start)
        if k <= 0:
            continue
        frame = LlrFrame(llr(x[:k], 1.0), s=tx.s, n=tx.n)
        bits, iters, conv = decode_batch(frame.layers(), graph, params,
                                         (params.max_iterations,))
        est = bits[:, 0].reshape(k, tx.s, -1)
        changed = (GlobalWord(bits=est).symbols != word.symbols[:k]).any(axis=1).nonzero()[0]
        if changed.size:
            problems.append(f"noiseless decode changed frame {start + changed[0]}")
            break
        slow = (~conv[:, 0] | (iters[:, 0] != 1)).reshape(k, tx.s).any(axis=1).nonzero()[0]
        if slow.size:
            problems.append(f"frame {start + slow[0]} needed more than one iteration")
            break
    report(f"C6 round-trip[{mode}]", problems,
           f"10^3 frames identity-exact; 1-iteration convergence on "
           f"{decode_frames} noiseless decodes")


def test_criterion_07_complexity_accounting():
    """Edge ops per full-frame iteration = 3 s m n^2; per stream = 3 m n."""
    problems = []
    for name, per_stream in [("ex1_bch127_113", 5334), ("desk_gf8", 63)]:
        b = bundle(name)
        tx, graph = b.transceiver, b.parity_check
        s, m, n = tx.s, tx.m, tx.n
        rng = np.random.default_rng(109)
        word, x = tx.transmit(tx.random_streams(rng))
        frame = LlrFrame(llr(x, 1.0), s=s, n=n)
        _, results = decode_global(frame, graph, MsaParams(max_iterations=5))
        total = sum(r.edge_ops for r in results)
        iters = sum(r.iterations_used for r in results)
        if iters != s:
            problems.append(f"{name}: noiseless decode took {iters} != {s} "
                            f"layer iterations")
        if total != OPS_PER_EDGE * s * m * n * n:
            problems.append(f"{name}: ops {total} != 3 s m n^2 = "
                            f"{OPS_PER_EDGE * s * m * n * n}")
        if total % (n * s) or total // (n * s) != per_stream:
            problems.append(f"{name}: per-stream {total / (n * s)} != "
                            f"{per_stream}")
        if per_stream != OPS_PER_EDGE * m * n:
            problems.append(f"{name}: 3 m n = {OPS_PER_EDGE * m * n} != "
                            f"{per_stream}")
    report("C7 complexity", problems,
           "3 s m n^2 ops per full-frame iteration; amortized per stream "
           "3 m n (= 5334 at the 127/14 scale), exact from counters")


def test_criterion_08_metric_identity():
    """wer == (lambda/n) * ger exactly, with 1 <= lambda <= n."""
    desk = bundle("desk_gf8")
    cfg = SimConfig(ebn0_db=[2.0], iterations=[10], scale=0.625,
                    max_frames=2000, target_errors=100, seed=desk.sim.seed)
    result = monte_carlo(desk.transceiver, desk.parity_check, cfg, rate=desk.rate)
    cell = result.cells[0]
    problems = []
    if cell.global_errors < 1:
        problems.append("no global errors collected")
    else:
        n = result.n
        wer = Fraction(cell.composite_errors, cell.frames * n)
        lam = Fraction(cell.composite_errors, cell.global_errors)
        ger = Fraction(cell.global_errors, cell.frames)
        if wer != lam / n * ger:
            problems.append("counter identity violated")
        if not 1 <= lam <= n:
            problems.append(f"lambda {float(lam):.3f} outside [1, n]")
    report("C8 metric-identity", problems,
           f"exact rational identity on a {cell.frames}-frame cell with "
           f"{cell.global_errors} global errors, lambda {float(cell.lambda_hat):.2f}")


GRID_DB = [0.0, 2.0, 3.0, 4.0, 5.0, 6.0]
TAIL_DB = 8.0


# Only the slow criteria 9 and 10 request this fixture, so deselecting
# them with -m "not slow" skips the sweep too.
@pytest.fixture(scope="module")
def desk_sweep():
    desk = bundle("desk_gf8")
    cfg = SimConfig(ebn0_db=GRID_DB, iterations=[10], scale=0.625,
                    max_frames=1_200_000, target_errors=100,
                    seed=desk.sim.seed, verify=False)
    result = monte_carlo(desk.transceiver, desk.parity_check, cfg, rate=desk.rate,
                         workers=3)
    tail_cfg = SimConfig(ebn0_db=[TAIL_DB], iterations=[10], scale=0.625,
                         max_frames=60_000, target_errors=10 ** 9,
                         seed=desk.sim.seed, verify=False)
    tail = monte_carlo(desk.transceiver, desk.parity_check, tail_cfg, rate=desk.rate,
                       workers=3)
    return desk, result, tail.cells[0]


@pytest.mark.slow
def test_criterion_09_desk_coding_behavior(desk_sweep):
    """Monotone WER across the sweep and a strict win over the uncoupled
    hard-decision MLD baseline at >= 2 consecutive SNR points."""
    desk, result, tail = desk_sweep
    n = result.n
    problems = []

    cells = [sim_cell(result, e, 10) for e in GRID_DB]
    for c in cells:
        if c.global_errors < 100:
            problems.append(f"{c.ebn0_db} dB: only {c.global_errors} errors")

    points = [(c.ebn0_db, c.wer(n), c.wilson_wer(n)) for c in cells]
    points.append((TAIL_DB, tail.wer(n),
                   confidence_interval(tail.composite_errors, tail.frames * n)))
    for (e1, w1, (l1, u1)), (e2, w2, (l2, u2)) in zip(points, points[1:]):
        overlap = not (l1 > u2 or l2 > u1)
        if not overlap and w2 > w1:
            problems.append(f"WER rises {e1}->{e2} dB outside overlapping "
                            f"intervals ({w1:.3g} -> {w2:.3g})")

    if tail.global_errors > 3:
        problems.append(f"{TAIL_DB} dB tail cell has {tail.global_errors} "
                        f"errors in {tail.frames} frames; waterfall not steep")

    wins = []
    for c in cells:
        errs, words = baseline_mld_wer(desk.transceiver, c.ebn0_db,
                                       max_words=400_000, target_errors=400,
                                       seed=desk.sim.seed)
        wins.append(c.wer(n) < errs / words)
    consecutive = any(a and b for a, b in zip(wins, wins[1:]))
    if not consecutive:
        problems.append(f"no two consecutive wins over the MLD baseline "
                        f"(wins={wins})")

    wers = ", ".join(f"{e:g}dB={w:.2e}" for e, w, _ in points)
    report("C9 desk-coding-behavior", problems,
           f"monotone WER [{wers}]; >=100 errors per grid point; "
           f"baseline beaten at consecutive points (wins={wins})")


@pytest.mark.slow
def test_criterion_10_iteration_convergence(desk_sweep):
    """Mid-waterfall: WER at 10 iterations within a factor 2 of 50."""
    desk, _, _ = desk_sweep
    cfg = SimConfig(ebn0_db=[4.0], iterations=[10, 50], scale=0.625,
                    max_frames=60_000, target_errors=150,
                    seed=desk.sim.seed, verify=False)
    result = monte_carlo(desk.transceiver, desk.parity_check, cfg, rate=desk.rate,
                         workers=3)
    c10 = sim_cell(result, 4.0, 10)
    c50 = sim_cell(result, 4.0, 50)
    n = result.n
    problems = []
    for c in (c10, c50):
        if c.global_errors < 100:
            problems.append(f"{c.iterations_limit}-iteration cell has only "
                            f"{c.global_errors} errors")
    ratio = c10.wer(n) / c50.wer(n)
    if not 0.5 <= ratio <= 2.0:
        problems.append(f"WER(10)/WER(50) = {ratio:.2f} outside [0.5, 2]")
    report("C10 iteration-convergence", problems,
           f"4 dB: WER(10)={c10.wer(n):.3e}, WER(50)={c50.wer(n):.3e}, "
           f"ratio {ratio:.2f} within factor 2, >=100 errors per cell")
