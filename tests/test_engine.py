"""Sweep-engine regressions: golden CSVs and a per-cell replay oracle.

The golden CSVs under tests/data were written by the per-cell engine
that ran the whole transmit/decode chain once per (SNR, limit) cell;
the single-pass engine must reproduce them byte for byte.
"""

from pathlib import Path

import pytest

from gftmux import sim
from gftmux.channel import ChannelParams
from gftmux.cli import main
from gftmux.decoder import MsaParams
from gftmux.sim import CellResult, SimConfig, monte_carlo, run_trial

DATA = Path(__file__).parent / "data"

DESK_ARGS = ["--set", "sim.max_frames=1000", "--set", "sim.baseline=false"]
EX5_ARGS = ["--set", "channel.ebn0_db=[4.5,5.0]",
            "--set", "decoder.iterations=[8,20]",
            "--set", "sim.max_frames=6", "--set", "sim.target_errors=3"]


@pytest.mark.parametrize("preset, workers, extra", [
    ("desk_gf8", 1, DESK_ARGS),
    ("desk_gf8", 3, DESK_ARGS),
    ("ex5_rs89_85", 1, EX5_ARGS),
])
def test_golden_csv(tmp_path, preset, workers, extra):
    args = ["simulate", "--preset", preset, "--outdir", str(tmp_path), "--quiet",
            "--workers", str(workers), *extra]
    assert main(args) == 0
    got = (tmp_path / f"{preset}.csv").read_bytes()
    assert got == (DATA / f"golden_{preset}.csv").read_bytes()


def _replay(desk, cfg, ebn0, limit):
    """The cell as a lone per-cell loop of run_trial calls would count it."""
    sigma = ChannelParams(ebn0_db=ebn0, rate=desk.rate).sigma
    params = MsaParams(max_iterations=limit, scale=cfg.scale, clip=cfg.clip)
    cell = CellResult(ebn0_db=ebn0, iterations_limit=limit)
    while cell.frames < cfg.max_frames and cell.global_errors < cfg.target_errors:
        cell.add(run_trial(desk.transceiver, desk.graph, sigma, params, cfg.seed,
                           cell.frames))
    return cell


def _counters(cell):
    return (cell.frames, cell.global_errors, cell.composite_errors, cell.bit_errors,
            cell.iter_sum, cell.layer_decodes, sorted(cell.iter_hist.items()),
            cell.edge_ops)


@pytest.mark.parametrize("workers", [1, 2])
def test_engine_matches_trial_replay(desk_bundle, workers):
    """Cells stop at different indices inside the first block (0 and 2 dB,
    on the error target) and at the frame cap in the third (4 dB); every
    cell still equals a run_trial replay of trials 0..frames-1."""
    cfg = SimConfig(ebn0_db=[0.0, 2.0, 4.0], iterations=[2, 10, 4], scale=0.625,
                    max_frames=2 * sim.BLOCK_SIZE + 5, target_errors=25, seed=41)
    result = monte_carlo(desk_bundle.transceiver, desk_bundle.graph, cfg,
                         rate=desk_bundle.rate, workers=workers)
    assert [(c.ebn0_db, c.iterations_limit) for c in result.cells] == [
        (e, lim) for e in cfg.ebn0_db for lim in cfg.iterations]
    stops = {c.frames for c in result.cells}
    assert len(stops) >= 4 and min(stops) < sim.BLOCK_SIZE
    assert max(stops) == cfg.max_frames
    for cell in result.cells:
        ref = _replay(desk_bundle, cfg, cell.ebn0_db, cell.iterations_limit)
        assert _counters(cell) == _counters(ref), (cell.ebn0_db, cell.iterations_limit)


def test_progress_reports_cells_in_stop_order(desk_bundle):
    cfg = SimConfig(ebn0_db=[4.0, 0.0], iterations=[10], scale=0.625,
                    max_frames=200, target_errors=20, seed=43)
    seen = []
    result = monte_carlo(desk_bundle.transceiver, desk_bundle.graph, cfg,
                         rate=desk_bundle.rate, progress=seen.append)
    assert [c.ebn0_db for c in seen] == [0.0, 4.0]
    assert [c.ebn0_db for c in result.cells] == [4.0, 0.0]
    assert seen[0].wall_time <= seen[1].wall_time

