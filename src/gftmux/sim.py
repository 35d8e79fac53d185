"""Monte Carlo harness: GER/WER/BER sweeps with exact counter identities.

A trial is fully determined by (master seed, trial index): the RNG
substream yields the message bits and a unit-variance noise vector,
which each SNR point scales by its own sigma.  Cells therefore share
paired channel realizations, and one pass over the trial indices
serves the whole grid: each trial is transmitted once and decoded
once per SNR up to its largest running limit, in one call for the SNRs
sharing that limit.  Every cell holds trials 0..frames-1, so results
are reproducible bit-for-bit and never depend on the worker count.

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

from .channel import ChannelParams
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
    detected: int = 0     # global errors with some layer not converged
    undetected: int = 0   # global errors with every layer converged
    #: the counters that merge adds to, in the order of its rows of counts
    SUMMED = ("frames", "global_errors", "composite_errors", "bit_errors", "edge_ops",
              "detected", "undetected", "iter_sum", "layer_decodes")

    def add(self, rec: TrialRecord) -> None:
        merge([self], np.array([[[rec.global_error, rec.composite_errors, rec.bit_errors,
                                  rec.edge_ops, rec.all_converged, *rec.iterations]]]))

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


def draw_block(tx: Transceiver, master_seed: int, start: int, count: int, out=None) -> tuple:
    """(StreamBlock, noise) of trials start..start+count-1: exactly the bits
    of tx.random_streams and then the standard_normal(s*n^2) of each
    trial_rng, normal k of trial i at noise[i, k % s, k // s] (layer-major,
    like the LLRs), into out if given.  The C library hashes each trial's
    SeedSequence, seeds its PCG64 and draws its words and its ziggurat
    normals; the first trial's first raw words and normals are checked
    against trial_rng's, so that a change in numpy's seeding or ziggurat
    raises RuntimeError rather than changing results.  Without the library,
    trial_rng draws each trial."""
    seed, s, nv, half = int(master_seed), tx.s, tx.n * tx.n, tx.raw_words
    raw = np.empty((count, half), dtype=np.uint64)
    noise = np.empty((count, s, nv)) if out is None else out
    if _draw is None:   # the RNG contract itself, trial by trial
        for k in range(count):
            rng = trial_rng(seed, start + k)
            raw[k] = rng.bit_generator.random_raw(half)
            noise[k] = rng.standard_normal((nv, s)).T
        return tx.gather_streams(raw), noise
    gen = trial_rng(seed, start)   # the reference; it also rejects a negative seed
    seed32 = np.frombuffer(seed.to_bytes(4 * max(1, -(-seed.bit_length() // 32)),
                                         "little"), dtype="<u4")
    words = np.empty((count, 4), dtype=np.uint64)
    _seed(seed32.ctypes.data, len(seed32), start, count, words.ctypes.data)
    _draw(words.ctypes.data, count, half, s, nv, raw.ctypes.data, noise.ctypes.data)
    head = gen.bit_generator.random_raw(min(_CHECKED, half))
    gen.bit_generator.advance(half - len(head))
    k = np.arange(min(_CHECKED, s * nv))   # the first normals, at their layer-major places
    if ((raw[0, :len(head)] != head).any()
            or (noise[0].reshape(-1)[k % s * nv + k // s] != gen.standard_normal(k.size)).any()):
        raise RuntimeError("the library's draw differs from numpy's SeedSequence, "
                           "PCG64 and standard_normal")
    return tx.gather_streams(raw), noise


def run_block(tx: Transceiver, h: GlobalParityCheck, points, params: MsaParams,
              master_seed: int, start: int, count: int, verify: bool = True,
              ws=None) -> np.ndarray:
    """Tally of trials start..start+count-1: out[i, c] holds trial start+i in
    cell c, each SNR point points[p] = (sigma, limits) under each of its
    limits in turn: a global-error flag, composite errors, bit errors, edge
    ops, an all-layers-converged flag, then each layer's iterations.

    The chain runs once over draw_block's trials into one LLR buffer for all
    points; the points sharing a largest limit decode in one call up to it
    (params gives scale and clip), one syndrome call re-checks the converged
    layers and one demultiplexes the wrong words.  ws is the workspace, or None."""
    s, n = tx.s, tx.n
    layers = buffer(ws, "layers", (len(points), count, s, n * n))
    streams, noise = draw_block(tx, master_seed, start, count, layers[-1])
    composites = tx.encode_composites(streams)
    word, x = tx.multiplex(composites, buffer(ws, "x", (count, s * n * n)))
    # buffer row r holds point order[r], so the points of one largest limit are adjacent
    order = sorted(range(len(points)), key=lambda p: max(points[p][1]))
    tops = [max(points[p][1]) for p in order]
    sigma = np.array([points[p][0] for p in order]).reshape(-1, 1, 1, 1)
    # layer l of trial i is x[i, l::s]; llr's order: x + sigma*noise, 2.0*, /sigma^2,
    # the last row (the noise) in place once the others are formed from it
    x = np.swapaxes(x.reshape(count, n * n, s), 1, 2)
    for rows, sig in ((layers[:-1], sigma[:-1]), (noise, sigma[-1])):
        np.add(x, np.multiply(noise, sig, out=rows), out=rows)
        np.divide(np.multiply(rows, 2.0, out=rows), sig * sig, out=rows)
    # cell c is buffer row cells[c][0] under limit cells[c][1]
    cells = [(order.index(p), lim) for p, (_, limits) in enumerate(points) for lim in limits]
    tally = np.zeros((count, len(cells), 5 + s), dtype=np.int64)
    checked, found = [], []
    for top in sorted(set(tops)):
        lo, hi = tops.index(top), tops.index(top) + tops.count(top)
        group = [(c, r - lo, lim) for c, (r, lim) in enumerate(cells) if lo <= r < hi]
        steps = sorted({lim for _, _, lim in group})
        at, row, step = np.array([(c, r, steps.index(lim)) for c, r, lim in group]).T
        bits, iters, conv = decode_batch(layers[lo:hi].reshape(-1, n * n), h, params, steps, ws)
        checked.append(bits[conv[:, -1], -1])   # the last step holds every converged result
        shape = (hi - lo, count, s, len(steps))
        tally[:, at, 5:] = iters.reshape(shape)[row, :, :, step].swapaxes(0, 1)
        tally[:, at, 4] = conv.reshape(shape)[row, :, :, step].all(axis=2).T
        hat = bits.reshape(*shape, -1).transpose(0, 1, 3, 2, 4)   # [row, trial, step, layer, bit]
        wrong = np.empty((hi - lo, count, len(steps)), dtype=bool)
        for r in range(hi - lo):   # one point at a time: no mask over every point
            np.any(hat[r] != word.bits[:, None], axis=(2, 3), out=wrong[r])
        k, trial = np.nonzero(wrong[row, :, step])
        if len(k):
            found.append((trial, at[k], hat[row[k], trial, step[k]]))
    checked = checked[0] if len(checked) == 1 else np.concatenate(checked)
    if verify and h.syndrome_weight(checked).any():
        raise RuntimeError("early stop reported convergence on a nonzero syndrome")
    if found:
        trial, col, hat = (a[0] if len(a) == 1 else np.concatenate(a) for a in zip(*found))
        comps_hat, streams_hat = tx.demultiplex(GlobalWord(bits=hat))
        tally[trial, col, 1] = (comps_hat != composites[trial]).any(axis=2).sum(axis=1)
        tally[trial, col, 2] = (streams_hat.bits != streams.bits[trial]).sum(axis=(1, 2))
    tally[..., 0] = tally[..., 1] > 0
    tally[..., 3] = OPS_PER_EDGE * h.n_edges * tally[..., 5:].sum(axis=2)
    return tally


def run_trial(tx: Transceiver, h: GlobalParityCheck, sigma: float, params: MsaParams,
              master_seed: int, trial_index: int, verify: bool = True) -> TrialRecord:
    """One trial at one SNR under params.max_iterations."""
    ge, ce, be, ops, conv, *its = run_block(tx, h, [(sigma, (params.max_iterations,))],
                                            params, master_seed, trial_index, 1,
                                            verify)[0, 0].tolist()
    return TrialRecord(bool(ge), ce, be, its, ops, bool(conv))


# -- sweep engine -----------------------------------------------------------


def merge(cells: list, tally: np.ndarray, max_frames=math.inf,
          target_errors=math.inf) -> list:
    """Count run_block's tally[:, j] into cells[j] in one pass, each up to the
    first trial where its frames reach max_frames or its global errors
    target_errors; return the indices of those that stop, in that trial order."""
    t = np.arange(1, len(tally) + 1)[:, None]
    frames, errors = np.array([(c.frames, c.global_errors) for c in cells]).T
    met = (frames + t >= max_frames) | (errors + tally[..., 0].cumsum(axis=0) >= target_errors)
    take = np.where(met.any(axis=0), met.argmax(axis=0) + 1, len(tally))
    kept = t <= take   # [trial, cell]
    ge, conv, iters = tally[..., 0] * kept, tally[..., 4], tally[..., 5:]
    sums = (tally * kept[..., None]).sum(axis=0)
    counts = np.column_stack([take, sums[:, :4], (ge * (1 - conv)).sum(axis=0),
                              (ge * conv).sum(axis=0), sums[:, 5:].sum(axis=1),
                              take * iters.shape[2]])
    bins = int(iters.max()) + 1
    codes = (np.arange(len(cells))[:, None] * bins + iters)[kept]   # the trials taken
    hist = np.bincount(codes.ravel(), minlength=len(cells) * bins).reshape(-1, bins)
    for cell, row, times in zip(cells, counts.tolist(), hist.tolist()):
        for name, value in zip(cell.SUMMED, row):
            setattr(cell, name, getattr(cell, name) + value)
        cell.iter_hist.update({it: cell.iter_hist.get(it, 0) + k
                               for it, k in enumerate(times) if k})
    return sorted(np.nonzero(met.any(axis=0))[0].tolist(), key=lambda j: take[j])


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

    def block(start: int, count: int, snapshot: tuple) -> np.ndarray:
        """run_block's tally, a column per cell c of snapshot: point c // k, limit c % k."""
        limits, k = cfg.iterations, len(cfg.iterations)
        points = [(sigmas[p], tuple(limits[c % k] for c in snapshot if c // k == p))
                  for p in sorted({c // k for c in snapshot})]
        ws = vars(local).setdefault("ws", {})   # the calling thread's workspace
        return run_block(tx, h, points, params, cfg.seed, start, count, cfg.verify, ws)

    def consume(snapshot: tuple, tally: np.ndarray) -> None:
        live = [j for j, c in enumerate(snapshot) if c in active]
        ids = [snapshot[j] for j in live]
        for j in merge([cells[c] for c in ids], tally[:, live], cfg.max_frames,
                       cfg.target_errors):
            active.remove(ids[j])
            cells[ids[j]].wall_time = time.perf_counter() - t0
            if progress:
                progress(cells[ids[j]])

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
    "lambda", "ci_low", "ci_high", "mean_iters", "edge_ops", "detected", "undetected",
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
            c.detected, c.undetected,
        ])
    if truncated:
        destination.write("# truncated\n")
