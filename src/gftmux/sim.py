"""Monte Carlo harness: GER/WER/BER sweeps with exact counter identities.

A trial is fully determined by (master seed, trial index): the RNG
substream yields the message bits and a unit-variance noise vector,
which each SNR point scales by its own sigma.  Cells therefore share
paired channel realizations, and one pass over the trial indices
serves the whole grid: each trial is transmitted once and decoded
once per SNR up to the largest iteration limit still running there.
Every cell holds trials 0..frames-1, so results are reproducible
bit-for-bit and never depend on the worker count.

Word errors are counted per composite codeword after demultiplexing,
global errors per frame, and lambda (mean erroneous composites per
erroneous frame) ties them together exactly:
wer = (lambda/n) * ger by construction of the counters.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field as dc_field

import numpy as np

from .channel import ChannelParams, llr
from .cyclic import generator_matrix, mld_oracle
from .decoder import OPS_PER_EDGE, MsaParams, decode_batch
from .galois import buffer, c_library
from .geometry import GlobalParityCheck
from .txrx import GlobalWord, Transceiver, bpsk_map

#: 97.5% standard normal quantile for the 95% Wilson interval.
_Z95 = 1.959963984540054

#: Most trials per block, the trials one chain call stacks; blocks merge
#: in index order, so results depend on neither block size nor workers.
BLOCK_SIZE = 64

#: A block holds max(1, min(BLOCK_SIZE, BLOCK_LLRS // (s*n^2))) trials: 64
#: on desk, 1 on the 89- and 127-symbol codes, which keep one trial's footprint.
BLOCK_LLRS = 2 ** 14


def confidence_interval(errors: int, trials: int) -> tuple:
    """95% Wilson score interval for an error probability, as Python floats."""
    if trials < 1:
        raise ValueError("need at least one trial")
    p = errors / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = (_Z95 / denom) * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    low = 0.0 if errors == 0 else max(0.0, center - half)
    high = 1.0 if errors == trials else min(1.0, center + half)
    return low, high


@dataclass(eq=False)
class SimConfig:
    ebn0_db: list
    iterations: list
    scale: float = 0.625
    max_frames: int = 10_000
    target_errors: int = 100
    seed: int = 1
    clip: float | None = None
    verify: bool = True
    baseline: bool = False

    def __post_init__(self):
        if not self.ebn0_db or not self.iterations:
            raise ValueError("need at least one SNR point and one iteration limit")
        if self.max_frames < 1 or self.target_errors < 1:
            raise ValueError("frame budgets must be positive")


@dataclass
class TrialRecord:
    global_error: bool
    composite_errors: int
    bit_errors: int
    iterations: list
    edge_ops: int
    all_converged: bool


@dataclass
class CellResult:
    """Counters for one (SNR, iteration-limit) sweep cell."""

    ebn0_db: float
    iterations_limit: int
    frames: int = 0
    global_errors: int = 0
    composite_errors: int = 0
    bit_errors: int = 0
    iter_sum: int = 0
    layer_decodes: int = 0
    iter_hist: dict = dc_field(default_factory=dict)
    edge_ops: int = 0
    wall_time: float = 0.0

    def add(self, rec: TrialRecord) -> None:
        self.add_tally(np.array([[rec.global_error, rec.composite_errors, rec.bit_errors,
                                  rec.edge_ops, rec.all_converged, *rec.iterations]]))

    def add_tally(self, rows: np.ndarray) -> None:
        """Count trials given as run_block tally rows, one per trial."""
        ge, ce, be, ops, _ = rows[:, :5].sum(axis=0).tolist()
        self.frames += len(rows)
        self.global_errors += ge
        self.composite_errors += ce
        self.bit_errors += be
        self.edge_ops += ops
        self.iter_sum += int(rows[:, 5:].sum())
        self.layer_decodes += rows[:, 5:].size
        for it, times in zip(*np.unique(rows[:, 5:], return_counts=True)):
            self.iter_hist[int(it)] = self.iter_hist.get(int(it), 0) + int(times)

    # -- derived estimators ------------------------------------------

    @property
    def ger(self) -> float:
        return self.global_errors / self.frames if self.frames else 0.0

    def wer(self, n: int) -> float:
        return self.composite_errors / (self.frames * n) if self.frames else 0.0

    def ber(self, info_bits_per_frame: int) -> float:
        total = self.frames * info_bits_per_frame
        return self.bit_errors / total if total else 0.0

    @property
    def lambda_hat(self) -> float | None:
        if self.global_errors == 0:
            return None
        return self.composite_errors / self.global_errors

    @property
    def mean_iterations(self) -> float:
        return self.iter_sum / self.layer_decodes if self.layer_decodes else 0.0

    def wilson_wer(self, n: int) -> tuple:
        if not self.frames:
            return (0.0, 1.0)
        return confidence_interval(self.composite_errors, self.frames * n)


@dataclass(eq=False)
class SimResult:
    cells: list
    n: int
    info_bits_per_frame: int


# -- trials -----------------------------------------------------------------


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """The generator of one trial (the RNG contract): Transceiver.random_streams
    then standard_normal(s*n^2) on it give the trial's bits and noise.  The
    reference that draw_block is checked against (and, without the C library,
    draws with), and perfbench's entry point."""
    return np.random.default_rng([master_seed, trial_index])


#: The library's seeding and draw of a block (_draw.c), or None to draw with numpy.
_seed = None if c_library is None else c_library.gftmux_seed
_draw = None if c_library is None else c_library.gftmux_draw

#: The first trial's raw words and normals that each block checks against numpy.
_CHECKED = 64


def draw_block(tx: Transceiver, master_seed: int, start: int, count: int, ws=None) -> tuple:
    """(StreamBlock, noise) of trials start..start+count-1: exactly the bits
    of tx.random_streams and then the standard_normal(s*n^2) of each
    trial_rng.  The C library hashes each trial's SeedSequence, seeds its
    PCG64 and draws its words and its ziggurat normals; the first trial's
    first raw words and normals are checked against trial_rng's, so that a
    change in numpy's seeding or ziggurat raises RuntimeError rather than
    changing results.  Without the library, trial_rng draws each trial."""
    seed, nn, half = int(master_seed), tx.s * tx.n * tx.n, tx.raw_words
    raw, noise = np.empty((count, half), dtype=np.uint64), buffer(ws, "noise", (count, nn))
    if _draw is None:   # the RNG contract itself, trial by trial
        for k in range(count):
            rng = trial_rng(seed, start + k)
            raw[k] = rng.bit_generator.random_raw(half)
            rng.standard_normal(out=noise[k])
        return tx.gather_streams(raw), noise
    gen = trial_rng(seed, start)   # the reference; it also rejects a negative seed
    seed32 = np.frombuffer(seed.to_bytes(4 * max(1, -(-seed.bit_length() // 32)),
                                         "little"), dtype="<u4")
    words = np.empty((count, 4), dtype=np.uint64)
    _seed(seed32.ctypes.data, len(seed32), start, count, words.ctypes.data)
    _draw(words.ctypes.data, count, half, nn, raw.ctypes.data, noise.ctypes.data)
    head = gen.bit_generator.random_raw(min(_CHECKED, half))
    gen.bit_generator.advance(half - len(head))
    if ((raw[0, :len(head)] != head).any()
            or (noise[0, :_CHECKED] != gen.standard_normal(min(_CHECKED, nn))).any()):
        raise RuntimeError("the library's draw differs from numpy's SeedSequence, "
                           "PCG64 and standard_normal")
    return tx.gather_streams(raw), noise


def run_block(tx: Transceiver, h: GlobalParityCheck, points, params: MsaParams,
              master_seed: int, start: int, count: int, verify: bool = True, ws=None) -> list:
    """Tallies of trials start..start+count-1: out[p][i, j] holds trial
    start+i at SNR point points[p] = (sigma, limits) under limits[j]: a
    global-error flag, composite errors, bit errors, edge ops, an
    all-layers-converged flag, then each layer's iterations.

    draw_block draws every trial's bits and noise; the chain then runs once
    over the stack, and each point decodes all count*s layers in one call up to
    its largest limit (params gives scale and clip).  A decoded word equal
    to the transmitted one is not demultiplexed: the round trip is exact.  The
    large arrays come from the workspace ws, or are new when ws is None.
    """
    s, n = tx.s, tx.n
    streams, noise = draw_block(tx, master_seed, start, count, ws)
    composites = tx.encode_composites(streams)
    word, x = tx.multiplex(composites, buffer(ws, "x", noise.shape))
    layers = buffer(ws, "layers", (count, s, n * n))
    # layer l of trial i is x[i, l::s]: read x and noise through layer-major views
    x, noise = (np.swapaxes(a.reshape(count, n * n, s), 1, 2) for a in (x, noise))
    out = []
    for sigma, limits in points:
        np.add(x, np.multiply(noise, sigma, out=layers), out=layers)   # x + sigma*noise
        llr(layers, sigma, out=layers)
        bits, iters, conv = decode_batch(layers.reshape(count * s, -1), h, params, limits, ws)
        top = limits.index(max(limits))   # holds every converged result
        if verify and h.syndrome_weight(bits[conv[:, top], top]).any():
            raise RuntimeError("early stop reported convergence on a nonzero syndrome")
        tally = np.zeros((count, len(limits), 5 + s), dtype=np.int64)
        tally[..., 5:] = iters.reshape(count, s, -1).transpose(0, 2, 1)
        tally[..., 3] = OPS_PER_EDGE * h.n_edges * tally[..., 5:].sum(axis=2)
        tally[..., 4] = conv.reshape(count, s, -1).all(axis=1)
        hat = bits.reshape(count, s, len(limits), -1).transpose(0, 2, 1, 3)
        wrong = (hat != word.bits[:, None]).any(axis=(2, 3))   # [trial, limit]
        if wrong.any():
            trial = np.nonzero(wrong)[0]
            comps_hat, streams_hat = tx.demultiplex(GlobalWord(bits=hat[wrong]))
            tally[wrong, 1] = (comps_hat != composites[trial]).any(axis=2).sum(axis=1)
            tally[wrong, 2] = (streams_hat.bits != streams.bits[trial]).sum(axis=(1, 2))
        tally[..., 0] = tally[..., 1] > 0
        out.append(tally)
    return out


def run_trial(tx: Transceiver, h: GlobalParityCheck, sigma: float, params: MsaParams,
              master_seed: int, trial_index: int, verify: bool = True) -> TrialRecord:
    """One trial at one SNR under params.max_iterations."""
    ge, ce, be, ops, conv, *its = run_block(tx, h, [(sigma, (params.max_iterations,))],
                                            params, master_seed, trial_index, 1,
                                            verify)[0][0, 0].tolist()
    return TrialRecord(bool(ge), ce, be, its, ops, bool(conv))


# -- sweep engine -----------------------------------------------------------


def monte_carlo(tx: Transceiver, h: GlobalParityCheck, cfg: SimConfig, rate: float,
                workers: int = 1, progress=None) -> SimResult:
    """Sweep every (SNR, iteration-limit) cell to its frame/error budget.

    Trial indices are walked once for the whole grid, in blocks run inline
    or on a pool of `workers` threads, each with its own workspace: each
    trial feeds every cell still active, and a cell stops at the first
    trial index where its budget is met, so it holds trials 0..frames-1
    whatever the worker count.  progress(cell) is called as each cell
    stops, with wall_time measured from the sweep's start.
    """
    sigmas = [ChannelParams(ebn0_db=e, rate=rate).sigma for e in cfg.ebn0_db]
    params = MsaParams(max_iterations=max(cfg.iterations), scale=cfg.scale,
                       clip=cfg.clip)
    size = max(1, min(BLOCK_SIZE, BLOCK_LLRS // (tx.s * tx.n * tx.n)))
    cells = [CellResult(ebn0_db=e, iterations_limit=lim)
             for e in cfg.ebn0_db for lim in cfg.iterations]
    active = list(range(len(cells)))
    local = threading.local()
    t0 = time.perf_counter()

    def block(start: int, count: int, snapshot: tuple) -> list:
        """run_block's tallies of trials start..start+count-1 per cell in
        snapshot; cell c is SNR point c // k under limit c % k."""
        limits, k = cfg.iterations, len(cfg.iterations)
        points = [(sigmas[p], tuple(limits[c % k] for c in snapshot if c // k == p))
                  for p in sorted({c // k for c in snapshot})]
        ws = vars(local).setdefault("ws", {})   # the calling thread's workspace
        return [t[:, j] for t in run_block(tx, h, points, params, cfg.seed, start, count,
                                           cfg.verify, ws)
                for j in range(t.shape[1])]

    def consume(snapshot: tuple, tallies: list) -> None:
        stops = []
        for c, rows in zip(snapshot, tallies):
            if c not in active:
                continue
            cell = cells[c]
            met = ((cell.frames + np.arange(1, len(rows) + 1) >= cfg.max_frames)
                   | (cell.global_errors + np.cumsum(rows[:, 0]) >= cfg.target_errors))
            take = int(met.argmax()) + 1 if met.any() else len(rows)
            cell.add_tally(rows[:take])
            if met.any():
                stops.append((take, c))
        for _, c in sorted(stops):   # in the order of the trials that stop them
            active.remove(c)
            cells[c].wall_time = time.perf_counter() - t0
            if progress:
                progress(cells[c])

    # Blocks merge in index order.  The active set only shrinks, so every
    # cell active at merge time is in its block's snapshot.
    if workers > 1:   # concurrent.futures imports logging: only a pool pays for it
        from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    ahead = 2 * workers if pool else 1
    try:
        pending, start = deque(), 0
        while active:
            while len(pending) < ahead and start < cfg.max_frames:
                count = min(size, cfg.max_frames - start)
                snapshot = tuple(active)
                job = (pool.submit(block, start, count, snapshot) if pool
                       else block(start, count, snapshot))
                pending.append((snapshot, job))
                start += count
            snapshot, job = pending.popleft()
            consume(snapshot, job.result() if pool else job)
    finally:
        if pool:
            pool.shutdown(wait=True, cancel_futures=True)
    return SimResult(cells=cells, n=tx.n, info_bits_per_frame=tx.info_bits)


# -- independent single-code baseline ---------------------------------------


def baseline_mld_wer(
    tx: Transceiver,
    ebn0_db: float,
    max_words: int,
    target_errors: int,
    seed: int,
) -> tuple:
    """(errors, words) for the uncoupled base code under hard-decision MLD.

    Each base codeword is transmitted alone at the code's own rate and
    decoded by mld_oracle; n <= 15 binary codes only (the oracle's guard).
    """
    spec = tx.spec
    n, m = spec.n, spec.m
    rate = (n - m) / n
    sigma = ChannelParams(ebn0_db=ebn0_db, rate=rate).sigma
    rng = np.random.default_rng([seed, 0xBA5E, int(round(ebn0_db * 1000)) & 0xFFFF])
    gmat = generator_matrix(spec)
    errors = 0
    words = 0
    batch = 1024
    while words < max_words and errors < target_errors:
        count = min(batch, max_words - words)
        msgs = rng.integers(0, 2, size=(count, n - m), dtype=np.int64)
        cws = (msgs @ gmat) % 2
        y = bpsk_map(cws) + sigma * rng.standard_normal(cws.shape)
        decoded = mld_oracle(y < 0, spec)
        errors += int((decoded != cws).any(axis=1).sum())
        words += count
    return errors, words


# -- CSV output --------------------------------------------------------------

CSV_COLUMNS = [
    "ebn0_db", "iters", "frames", "ger", "wer", "ber",
    "lambda", "ci_low", "ci_high", "mean_iters", "edge_ops",
]


def write_csv(result: SimResult, destination, truncated: bool = False) -> None:
    """Write the counter table of result as CSV to an open text file."""
    import csv

    w = csv.writer(destination)
    w.writerow(CSV_COLUMNS)
    for c in result.cells:
        lo, hi = c.wilson_wer(result.n)
        lam = c.lambda_hat
        w.writerow([
            c.ebn0_db, c.iterations_limit, c.frames,
            repr(c.ger), repr(c.wer(result.n)),
            repr(c.ber(result.info_bits_per_frame)),
            "" if lam is None else repr(lam),
            repr(lo), repr(hi), repr(c.mean_iterations), c.edge_ops,
        ])
    if truncated:
        destination.write("# truncated\n")
