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


@pytest.mark.parametrize("kernel", ["compiled", "numpy"])
@pytest.mark.parametrize("size", [1, 7])
@pytest.mark.parametrize("preset, workers, extra", GOLDEN_CASES)
def test_golden_csv_any_block_size(tmp_path, monkeypatch, request, kernel, size,
                                   preset, workers, extra):
    """Blocks of 1 and of 7 trials on every code (7 divides neither the
    default block nor the frame caps) reproduce the golden bytes."""
    if kernel == "numpy":
        request.getfixturevalue("numpy_kernel")
    monkeypatch.setattr(sim, "BLOCK_SIZE", size)
    monkeypatch.setattr(sim, "BLOCK_LLRS", 2 ** 62)
    test_golden_csv(tmp_path, preset, workers, extra)


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
def test_engine_matches_trial_replay(desk_bundle, workers):
    """Cells stop at different indices inside the first block (0 and 2 dB,
    on the error target) and at the frame cap in the third (4 dB); every
    cell still equals a trial-by-trial replay of trials 0..frames-1.  The
    second seed takes three 32-bit words, so the replay's default_rng also
    checks the block seeding on entropy longer than the small seeds'."""
    for seed in (41, 2 ** 64 + 41):
        cfg = SimConfig(ebn0_db=[0.0, 2.0, 4.0], iterations=[2, 10, 4], scale=0.625,
                        max_frames=2 * sim.BLOCK_SIZE + 5, target_errors=25, seed=seed)
        result = monte_carlo(desk_bundle.transceiver, desk_bundle.parity_check, cfg,
                             rate=desk_bundle.rate, workers=workers)
        assert [(c.ebn0_db, c.iterations_limit) for c in result.cells] == [
            (e, lim) for e in cfg.ebn0_db for lim in cfg.iterations]
        stops = {c.frames for c in result.cells}
        assert len(stops) >= 4 and min(stops) < sim.BLOCK_SIZE
        assert max(stops) == cfg.max_frames
        for cell in result.cells:
            ref = _replay(desk_bundle, cfg, cell.ebn0_db, cell.iterations_limit)
            assert _counters(cell) == ref, (seed, cell.ebn0_db, cell.iterations_limit)


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
