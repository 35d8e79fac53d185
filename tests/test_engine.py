"""Sweep-engine regressions: golden CSVs and a per-cell replay oracle.

The golden CSVs under tests/data hold the counters of the per-cell
engine that ran the whole transmit/decode chain once per (SNR, limit)
cell, with the detected and undetected columns appended later; the
block engine must reproduce them byte for byte for any worker count and
block size.  Their Wilson-bound cells are plain numbers with
the digits the per-cell engine wrote inside np.float64(...).
"""

import csv
import importlib.util
import io
import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gftmux import config, sim
from gftmux.channel import ChannelParams, llr
from gftmux.cli import main
from gftmux.decoder import OPS_PER_EDGE, MsaParams, _flood
from gftmux.sim import SimConfig, monte_carlo
from gftmux.txrx import GlobalWord

DATA = Path(__file__).parent / "data"
WORKER = Path(__file__).parent.parent / "perfbench" / "worker.py"

DESK_ARGS = ["--set", "sim.max_frames=1000"]
EX5_ARGS = ["--set", "channel.ebn0_db=[4.5,5.0]",
            "--set", "decoder.iterations=[8,20]",
            "--set", "sim.max_frames=6", "--set", "sim.target_errors=3"]


GOLDEN_CASES = [
    ("desk_gf8", 1, DESK_ARGS),
    ("desk_gf8", 3, DESK_ARGS),
    ("ex5_rs89_85", 1, EX5_ARGS),
    ("ex5_rs89_85", 3, EX5_ARGS),
]


@pytest.mark.parametrize("preset, workers, extra", GOLDEN_CASES)
def test_golden_csv(tmp_path, preset, workers, extra):
    """The golden bytes, and a manifest whose per-cell iteration histogram
    counts every layer decode (frames * s) and yields the CSV's mean_iters;
    every global error is detected or undetected, never both."""
    args = ["simulate", "--preset", preset, "--outdir", str(tmp_path), "--quiet",
            "--workers", str(workers), *extra]
    assert main(args) == 0
    got = (tmp_path / f"{preset}.csv").read_bytes()
    assert got == (DATA / f"golden_{preset}.csv").read_bytes()
    manifest = json.loads((tmp_path / f"{preset}.manifest.json").read_text())
    s = config.load_preset(preset)["field"]["s"]
    rows = list(csv.DictReader(io.StringIO(got.decode())))
    assert manifest["rng_contract"] == 1 and len(manifest["cells"]) == len(rows)
    for row, cell in zip(rows, manifest["cells"]):
        assert [cell["ebn0_db"], cell["iters"]] == [float(row["ebn0_db"]),
                                                    int(row["iters"])]
        hist = {int(k): v for k, v in cell["iter_hist"].items()}
        layer_decodes = int(row["frames"]) * s
        assert sum(hist.values()) == layer_decodes
        iter_sum = sum(k * v for k, v in hist.items())
        assert repr(iter_sum / layer_decodes) == row["mean_iters"]
        global_errors = round(float(row["ger"]) * int(row["frames"]))
        assert int(row["detected"]) + int(row["undetected"]) == global_errors
        assert cell["wall_time"] > 0 and cell["frames_per_s"] > 0


@pytest.mark.parametrize("preset, workers, extra", GOLDEN_CASES)
def test_golden_csv_numpy_kernel(tmp_path, numpy_kernel, preset, workers, extra):
    """The golden bytes hold for the numpy fallbacks (decoder, GF(2) maps and
    block draw) as for the C library."""
    test_golden_csv(tmp_path, preset, workers, extra)


class _Trials(int):
    """A BLOCK_LLRS under which a block holds at most int(self) trials,
    whatever its points and frame size."""

    def __floordiv__(self, llrs_per_trial):
        return int(self)


def record_blocks(monkeypatch) -> list:
    """(start, count, points, layers buffer size) of each run_block call of
    the sweeps that follow, the real run_block run."""
    blocks, run_block = [], sim.run_block

    def recorded(tx, h, points, params, seed, start, count, verify=True, ws=None):
        tally = run_block(tx, h, points, params, seed, start, count, verify, ws)
        blocks.append((start, count, points, ws["layers"].size))
        return tally

    monkeypatch.setattr(sim, "run_block", recorded)
    return blocks


@pytest.mark.parametrize("kernel", ["compiled", "numpy"])
@pytest.mark.parametrize("size", [1, 7])
@pytest.mark.parametrize("preset, workers, extra", GOLDEN_CASES)
def test_golden_csv_any_block_size(tmp_path, monkeypatch, request, kernel, size,
                                   preset, workers, extra):
    """Blocks of exactly 1 and of 7 trials on every code, but for one cut
    short at the frame cap (7 divides neither the blocks the budgets size
    nor the frame caps), reproduce the golden bytes."""
    if kernel == "numpy":
        request.getfixturevalue("numpy_kernel")
    monkeypatch.setattr(sim, "BLOCK_SIZE", size)
    monkeypatch.setattr(sim, "BLOCK_LLRS", _Trials(size))
    blocks = record_blocks(monkeypatch)
    test_golden_csv(tmp_path, preset, workers, extra)
    counts = [count for _, count, _, _ in sorted(blocks, key=lambda b: b[0])]
    assert set(counts[:-1]) <= {size} and counts[-1] <= size


def _replay(desk, cfg, ebn0, limit):
    """The cell counted trial by trial through the single-frame chain and
    the numpy oracle _flood, layer by layer: no call the block engine makes
    on stacked frames or through the compiled kernel."""
    tx, h = desk.transceiver, desk.parity_check
    sigma = ChannelParams(ebn0_db=ebn0, rate=desk.rate).sigma
    params = MsaParams(max_iterations=limit, scale=cfg.scale, clip=cfg.clip)
    frames = global_errors = composite_errors = bit_errors = edge_ops = 0
    hist = Counter()
    while frames < cfg.max_frames and global_errors < cfg.target_errors:
        rng = np.random.default_rng([cfg.seed, frames])
        streams = tx.random_streams(rng)
        composites = tx.encode_composites(streams)
        _, x = tx.multiplex(composites)
        values = llr(x + sigma * rng.standard_normal(x.size), sigma)
        bits, iterations, _ = (np.concatenate(a) for a in zip(
            *(_flood(values[l :: tx.s], h, params, (limit,)) for l in range(tx.s))))
        comps_hat, streams_hat = tx.demultiplex(GlobalWord(bits=bits))
        wrong = int((comps_hat != composites).any(axis=1).sum())
        frames += 1
        global_errors += wrong > 0
        composite_errors += wrong
        bit_errors += streams.bit_errors(streams_hat)
        edge_ops += OPS_PER_EDGE * h.n_edges * int(iterations.sum())
        hist.update(iterations.tolist())
    return (frames, global_errors, composite_errors, bit_errors,
            sum(k * v for k, v in hist.items()), sum(hist.values()), sorted(hist.items()),
            edge_ops)


def _counters(cell):
    return (cell.frames, cell.global_errors, cell.composite_errors, cell.bit_errors,
            cell.iter_sum, cell.layer_decodes, sorted(cell.iter_hist.items()),
            cell.edge_ops)


@pytest.mark.parametrize("workers", [1, 2])
def test_engine_matches_trial_replay(desk_bundle, monkeypatch, workers):
    """Cells stop at different indices inside the first block (0 dB) and
    the first two (2 dB), on the error target, and at the frame cap in the
    third (4 dB); every cell still equals a trial-by-trial replay of trials
    0..frames-1.  The second seed takes three 32-bit words, so the replay's
    default_rng also checks the block seeding on entropy longer than the
    small seeds'."""
    blocks = record_blocks(monkeypatch)
    for seed in (41, 2 ** 64 + 41):
        cfg = SimConfig(ebn0_db=[0.0, 2.0, 4.0], iterations=[2, 10, 4], scale=0.625,
                        max_frames=2 * sim.BLOCK_SIZE + 5, target_errors=25, seed=seed)
        blocks.clear()
        result = monte_carlo(desk_bundle.transceiver, desk_bundle.parity_check, cfg,
                             rate=desk_bundle.rate, workers=workers)
        assert [(c.ebn0_db, c.iterations_limit) for c in result.cells] == [
            (e, lim) for e in cfg.ebn0_db for lim in cfg.iterations]
        stops, starts = [c.frames for c in result.cells], sorted(b[0] for b in blocks)
        assert len(starts) == 3 and len(set(stops)) >= 4 and not set(stops) & set(starts)
        assert max(stops[:3]) < starts[1] and max(stops[3:6]) < starts[2]
        assert stops[6:] == [cfg.max_frames] * 3 and cfg.max_frames > starts[2]
        for cell in result.cells:
            ref = _replay(desk_bundle, cfg, cell.ebn0_db, cell.iterations_limit)
            assert _counters(cell) == ref, (seed, cell.ebn0_db, cell.iterations_limit)


def test_pool_decodes_no_point_far_past_its_stop(desk_bundle, monkeypatch):
    """On desk's preset grid with two worker threads, each SNR point is
    decoded for at most its last cell's frames plus one largest block: no
    block starts at or past the earliest stop that the merged counts predict
    while another is pending.  The walk reads merged counts only, never when a
    block finishes; 20 sweeps check that too."""
    b = desk_bundle
    cfg = replace(b.sim, max_frames=1000)
    blocks = record_blocks(monkeypatch)
    for _ in range(20):
        blocks.clear()
        result = monte_carlo(b.transceiver, b.parity_check, cfg, rate=b.rate, workers=2)
        largest = max(count for _, count, _, _ in blocks)
        for ebn0 in cfg.ebn0_db:
            sigma = ChannelParams(ebn0_db=ebn0, rate=b.rate).sigma
            decoded = sum(count for _, count, points, _ in blocks
                          if any(sig == sigma for sig, _ in points))
            frames = max(c.frames for c in result.cells if c.ebn0_db == ebn0)
            assert decoded <= frames + largest, (ebn0, decoded, frames, largest)


@pytest.mark.parametrize("workers", [1, 2])
def test_block_buffer_holds_at_most_block_llrs(desk_bundle, monkeypatch, workers):
    """No desk block's LLR buffer, all its points' trials, holds more than
    BLOCK_LLRS doubles, and the buffer of the block's points and trials is
    what run_block asked for."""
    b = desk_bundle
    blocks = record_blocks(monkeypatch)
    monte_carlo(b.transceiver, b.parity_check, replace(b.sim, max_frames=1000),
                rate=b.rate, workers=workers)
    per_trial = b.transceiver.s * b.transceiver.n ** 2
    assert max(size for *_, size in blocks) <= sim.BLOCK_LLRS
    assert max(len(points) * count * per_trial for _, count, points, _ in blocks) == max(
        size for *_, size in blocks)


def test_long_code_runs_one_trial_blocks(monkeypatch):
    """On ex3's preset grid, where one point's trial is 112,903 LLRs, every
    block holds one trial: the memory and call pattern of one trial at a time."""
    b = config.build_system(config.load_preset("ex3_rs127_121"))
    counts = []

    def zeros(tx, h, points, params, seed, start, count, verify=True, ws=None):
        counts.append(count)
        return np.zeros((count, sum(len(l) for _, l in points), 5 + tx.s), dtype=np.int64)

    monkeypatch.setattr(sim, "run_block", zeros)
    monte_carlo(b.transceiver, b.parity_check, replace(b.sim, max_frames=40),
                rate=b.rate, workers=2)
    assert counts == [1] * 40


def test_progress_reports_cells_in_stop_order(desk_bundle):
    cfg = SimConfig(ebn0_db=[4.0, 0.0], iterations=[10], scale=0.625,
                    max_frames=200, target_errors=20, seed=43)
    seen = []
    result = monte_carlo(desk_bundle.transceiver, desk_bundle.parity_check, cfg,
                         rate=desk_bundle.rate, progress=seen.append)
    assert [c.ebn0_db for c in seen] == [0.0, 4.0]
    assert [c.ebn0_db for c in result.cells] == [4.0, 0.0]
    assert seen[0].wall_time <= seen[1].wall_time



def test_benchmark_public_names_exist():
    """Every gftmux name the benchmark worker calls still exists, so deleting
    one fails here and not only when the benchmark runs."""
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    worker.check_public_names()
