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
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np

from .channel import ChannelParams, LlrFrame, llr
from .cyclic import mld_oracle
from .decoder import MsaParams, decode_frame
from .geometry import GlobalParityCheck
from .txrx import GlobalWord, Transceiver, bpsk_map

#: 97.5% standard normal quantile for the 95% Wilson interval.
_Z95 = 1.959963984540054

#: Trials per block on the process-pool path; blocks merge in index
#: order, so results do not depend on the block size or worker count.
BLOCK_SIZE = 64


def confidence_interval(errors: int, trials: int, z: float = _Z95) -> tuple:
    """95% Wilson score interval for an error probability, as Python floats."""
    if trials < 1:
        raise ValueError("need at least one trial")
    p = errors / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
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
        self.frames += 1
        self.global_errors += int(rec.global_error)
        self.composite_errors += rec.composite_errors
        self.bit_errors += rec.bit_errors
        self.iter_sum += sum(rec.iterations)
        self.layer_decodes += len(rec.iterations)
        for it in rec.iterations:
            self.iter_hist[it] = self.iter_hist.get(it, 0) + 1
        self.edge_ops += rec.edge_ops

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
    seed: int

    def cell(self, ebn0_db: float, iterations: int) -> CellResult:
        for c in self.cells:
            if c.ebn0_db == ebn0_db and c.iterations_limit == iterations:
                return c
        raise KeyError((ebn0_db, iterations))


# -- trials -----------------------------------------------------------------


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    return np.random.default_rng([master_seed, trial_index])


def run_trials(tx: Transceiver, h: GlobalParityCheck, points, params: MsaParams,
               master_seed: int, trial_index: int, verify: bool = True) -> list:
    """Every outcome of one trial: out[p][j] is the record at SNR point
    points[p] = (sigma, limits) under iteration limit limits[j].

    The trial is drawn, encoded and multiplexed once.  Each point is
    decoded once up to its largest limit (params gives scale and clip),
    and each distinct per-layer iteration tuple is demultiplexed once:
    equal tuples mean equal bits.  A decoded word equal to the
    transmitted one is not demultiplexed: the round trip is exact, so
    it has no composite or bit errors.
    """
    rng = trial_rng(master_seed, trial_index)
    streams = tx.random_streams(rng)
    composites = tx.encode_composites(streams)
    word, x = tx.multiplex(composites)
    noise = rng.standard_normal(x.size)
    out = []
    for sigma, limits in points:
        frame = LlrFrame(llr(x + sigma * noise, sigma), s=tx.s, n=tx.n)
        layers = decode_frame(frame, h, params, limits)
        top = limits.index(max(limits))   # holds every converged result
        final = [lay[top] for lay in layers]
        if verify and any(r.converged and h.syndrome_weight(r.hard_bits)
                          for r in final):
            raise RuntimeError("early stop reported convergence on a nonzero syndrome")
        errors, records = {}, []
        for j in range(len(limits)):
            results = [lay[j] for lay in layers]
            iterations = [r.iterations_used for r in results]
            key = tuple(iterations)
            if key not in errors:
                bits_hat = np.stack([r.hard_bits for r in results])
                if np.array_equal(bits_hat, word.bits):
                    errors[key] = (0, 0)
                else:
                    comps_hat, streams_hat = tx.demultiplex(GlobalWord(bits=bits_hat))
                    errors[key] = (int((comps_hat != composites).any(axis=1).sum()),
                                   streams.bit_errors(streams_hat))
            word_errors, bit_errors = errors[key]
            records.append(TrialRecord(
                global_error=word_errors > 0, composite_errors=word_errors,
                bit_errors=bit_errors, iterations=iterations,
                edge_ops=sum(r.edge_ops for r in results),
                all_converged=all(r.converged for r in results)))
        out.append(records)
    return out


def run_trial(tx: Transceiver, h: GlobalParityCheck, sigma: float, params: MsaParams,
              master_seed: int, trial_index: int, verify: bool = True) -> TrialRecord:
    """One trial at one SNR under params.max_iterations."""
    return run_trials(tx, h, [(sigma, (params.max_iterations,))], params,
                      master_seed, trial_index, verify)[0][0]


# -- sweep engine -----------------------------------------------------------


@dataclass(eq=False)
class _Sweep:
    """What a sweep's trials share.  Cells are numbered in grid order, so
    cell c is SNR point c // len(limits) under limit c % len(limits)."""

    tx: Transceiver
    h: GlobalParityCheck
    cfg: SimConfig
    sigmas: list
    params: MsaParams

    def trial(self, idx: int, active) -> dict:
        """{cell: record} for every cell in active (ascending)."""
        limits = self.cfg.iterations
        k = len(limits)
        points = [(self.sigmas[p],
                   tuple(limits[c % k] for c in active if c // k == p))
                  for p in sorted({c // k for c in active})]
        records = run_trials(self.tx, self.h, points, self.params, self.cfg.seed,
                             idx, self.cfg.verify)
        return dict(zip(active, (r for recs in records for r in recs)))

    def block(self, start: int, count: int, active: tuple) -> list:
        return [self.trial(idx, active) for idx in range(start, start + count)]


def monte_carlo(tx: Transceiver, h: GlobalParityCheck, cfg: SimConfig, rate: float,
                workers: int = 1, progress=None) -> SimResult:
    """Sweep every (SNR, iteration-limit) cell to its frame/error budget.

    Trial indices are walked once for the whole grid: each trial feeds
    every cell still active, and a cell stops at the first trial index
    where its budget is met, so it holds trials 0..frames-1 whatever the
    worker count.  progress(cell) is called as each cell stops, with
    wall_time measured from the start of the sweep.
    """
    sigmas = [ChannelParams(ebn0_db=e, rate=rate).sigma for e in cfg.ebn0_db]
    params = MsaParams(max_iterations=max(cfg.iterations), scale=cfg.scale,
                       clip=cfg.clip)
    sweep = _Sweep(tx, h, cfg, sigmas, params)
    cells = [CellResult(ebn0_db=e, iterations_limit=lim)
             for e in cfg.ebn0_db for lim in cfg.iterations]
    active = list(range(len(cells)))
    t0 = time.perf_counter()

    def consume(records: dict) -> None:
        for c in list(active):
            cell = cells[c]
            cell.add(records[c])
            if cell.frames >= cfg.max_frames or cell.global_errors >= cfg.target_errors:
                active.remove(c)
                cell.wall_time = time.perf_counter() - t0
                if progress:
                    progress(cell)

    if workers <= 1:
        while active:   # each active cell has seen trials 0..frames-1
            consume(sweep.trial(cells[active[0]].frames, active))
    else:
        # Blocks merge in index order.  The active set only shrinks, so
        # every cell active at merge time is in its block's snapshot.
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            pending, start = deque(), 0
            while active:
                while len(pending) < 2 * workers and start < cfg.max_frames:
                    count = min(BLOCK_SIZE, cfg.max_frames - start)
                    snapshot = tuple(active)
                    pending.append(pool.submit(sweep.block, start, count, snapshot))
                    start += count
                for records in pending.popleft().result():
                    if active:
                        consume(records)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    return SimResult(cells=cells, n=tx.n, info_bits_per_frame=tx.info_bits,
                     seed=cfg.seed)


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
    decoded by exhaustive nearest-codeword search; n <= 15 binary codes
    only (enforced by the oracle guard).
    """
    spec = tx.spec
    n, m = spec.n, spec.m
    rate = (n - m) / n
    sigma = ChannelParams(ebn0_db=ebn0_db, rate=rate).sigma
    rng = np.random.default_rng([seed, 0xBA5E, int(round(ebn0_db * 1000)) & 0xFFFF])
    probe = mld_oracle(np.zeros(n, dtype=np.int64), spec)  # trips the guard early
    if probe.shape != (n,):
        raise RuntimeError(f"MLD oracle returned shape {probe.shape}, not ({n},)")
    from .cyclic import _codebook, generator_matrix

    codebook = _codebook(spec)
    gmat = generator_matrix(spec)
    errors = 0
    words = 0
    batch = 1024
    while words < max_words and errors < target_errors:
        count = min(batch, max_words - words)
        msgs = rng.integers(0, 2, size=(count, n - m), dtype=np.int64)
        cws = (msgs @ gmat) % 2
        y = bpsk_map(cws) + sigma * rng.standard_normal(cws.shape)
        hard = (y < 0).astype(np.int64)
        dist = (hard[:, None, :] != codebook[None, :, :]).sum(axis=2)
        decoded = codebook[dist.argmin(axis=1)]
        errors += int((decoded != cws).any(axis=1).sum())
        words += count
    return errors, words


# -- CSV output --------------------------------------------------------------

CSV_COLUMNS = [
    "ebn0_db", "iters", "frames", "ger", "wer", "ber",
    "lambda", "ci_low", "ci_high", "mean_iters", "edge_ops",
]


def write_csv(result: SimResult, destination, truncated: bool = False) -> None:
    import csv

    def emit(fh):
        w = csv.writer(fh)
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
            fh.write("# truncated\n")

    if hasattr(destination, "write"):
        emit(destination)
    else:
        with open(destination, "w", newline="") as fh:
            emit(fh)
