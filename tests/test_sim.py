import io
from fractions import Fraction

import numpy as np
import pytest

from gftmux.channel import ChannelParams
from gftmux.decoder import MsaParams
from gftmux.sim import (
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
    a = run_trial(desk.transceiver, desk.graph, sigma, params, 555, 17)
    b = run_trial(desk.transceiver, desk.graph, sigma, params, 555, 17)
    assert (a.global_error, a.composite_errors, a.bit_errors,
            a.iterations, a.edge_ops) == (
        b.global_error, b.composite_errors, b.bit_errors,
        b.iterations, b.edge_ops)


def test_trial_zero_noise(desk):
    params = MsaParams(max_iterations=10, scale=0.625)
    sigma = ChannelParams(ebn0_db=60.0, rate=desk.rate).sigma
    rec = run_trial(desk.transceiver, desk.graph, sigma, params, 555, 3)
    assert not rec.global_error
    assert rec.composite_errors == 0 and rec.bit_errors == 0
    assert rec.iterations == [1, 1, 1]


def test_trial_errors_at_low_snr(desk):
    params = MsaParams(max_iterations=10, scale=0.625)
    sigma = ChannelParams(ebn0_db=2.0, rate=desk.rate).sigma
    errors = sum(
        run_trial(desk.transceiver, desk.graph, sigma, params, 555, i).global_error
        for i in range(1000)
    )
    assert errors > 0


def test_trial_verify_raises_on_false_convergence(desk, monkeypatch):
    from gftmux import sim
    from gftmux.decoder import DecodeResult

    def fake(frame, graph, params, limits):
        bad = DecodeResult(hard_bits=np.ones(graph.n_vars, dtype=np.uint8),
                           converged=True, iterations_used=1, edge_ops=0)
        return [[bad] * len(limits) for _ in range(frame.s)]

    monkeypatch.setattr(sim, "decode_frame", fake)
    params = MsaParams(max_iterations=10, scale=0.625)
    with pytest.raises(RuntimeError, match="nonzero syndrome"):
        run_trial(desk.transceiver, desk.graph, 1.0, params, 555, 0)
    run_trial(desk.transceiver, desk.graph, 1.0, params, 555, 0, verify=False)


# -- cell counters and the metric identity ------------------------------------


def _small_result(desk, ebn0=2.0, frames=300, iters=10):
    cfg = SimConfig(ebn0_db=[ebn0], iterations=[iters], scale=0.625,
                    max_frames=frames, target_errors=10 ** 9, seed=99)
    return monte_carlo(desk.transceiver, desk.graph, cfg, rate=desk.rate)


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
    assert cell.median_iterations == 2.0
    assert cell.iter_hist == {1: 2, 2: 1, 4: 1, 10: 2}


def test_monte_carlo_stops_on_target(desk):
    cfg = SimConfig(ebn0_db=[0.0], iterations=[10], scale=0.625,
                    max_frames=10 ** 6, target_errors=20, seed=7)
    result = monte_carlo(desk.transceiver, desk.graph, cfg, rate=desk.rate)
    cell = result.cells[0]
    assert cell.global_errors >= 20
    assert cell.frames < 10 ** 6


def test_monte_carlo_reproducible(desk):
    cfg = SimConfig(ebn0_db=[2.0], iterations=[10], scale=0.625,
                    max_frames=150, target_errors=10 ** 9, seed=21)
    r1 = monte_carlo(desk.transceiver, desk.graph, cfg, rate=desk.rate)
    r2 = monte_carlo(desk.transceiver, desk.graph, cfg, rate=desk.rate)
    c1, c2 = r1.cells[0], r2.cells[0]
    assert (c1.frames, c1.global_errors, c1.composite_errors, c1.bit_errors,
            c1.edge_ops) == (
        c2.frames, c2.global_errors, c2.composite_errors, c2.bit_errors,
        c2.edge_ops)


def test_monte_carlo_worker_invariance(desk):
    cfg = SimConfig(ebn0_db=[2.0], iterations=[10], scale=0.625,
                    max_frames=130, target_errors=10 ** 9, seed=23,
                    verify=False)
    seq = monte_carlo(desk.transceiver, desk.graph, cfg, rate=desk.rate,
                      workers=1)
    par = monte_carlo(desk.transceiver, desk.graph, cfg, rate=desk.rate,
                      workers=2)
    a, b = seq.cells[0], par.cells[0]
    assert (a.frames, a.global_errors, a.composite_errors, a.bit_errors,
            a.iter_sum, a.edge_ops) == (
        b.frames, b.global_errors, b.composite_errors, b.bit_errors,
        b.iter_sum, b.edge_ops)


def test_paired_noise_across_iteration_cells(desk):
    """Cells share trial substreams, so more iterations can only re-decode
    the same channel realizations."""
    cfg = SimConfig(ebn0_db=[3.0], iterations=[1, 10], scale=0.625,
                    max_frames=120, target_errors=10 ** 9, seed=29)
    result = monte_carlo(desk.transceiver, desk.graph, cfg, rate=desk.rate)
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
                        "ci_low,ci_high,mean_iters,edge_ops")
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "2.0" and fields[1] == "10" and fields[2] == "80"


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
