"""Structural verifier battery: every theorem-level claim, scale-aware.

Dense, exhaustive checks run at desk scale (n <= 31); production-scale
configurations get sampled block checks plus the exact global ones
(rank, weights, RC) that stay cheap.  Each check yields a named
pass/fail line so the CLI can report and exit accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LlrFrame, llr
from .decoder import MsaParams, decode_batch
from .galois import decompose_arr
from .geometry import (DENSE_LIMIT, girth_lower_bound, rc_check, vandermonde,
                       verify_similarity)
from .txrx import StreamBlock


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}: {self.detail}"


def _check(name, ok, detail) -> CheckResult:
    return CheckResult(name=name, ok=bool(ok), detail=detail)


def verify_vandermonde(bundle) -> CheckResult:
    sub, field = bundle.spec.subgroup, bundle.spec.field
    prod = field.matmul(vandermonde(sub, "forward"), vandermonde(sub, "inverse"))
    ok = (prod == np.eye(sub.n, dtype=np.int64)).all()
    return _check("gft-inverse", ok, f"V x V^-1 == I over GF(2^{field.s})")


def verify_shape_weights(bundle) -> CheckResult:
    """Column weight m; row weight n and m*n^2 edges hold by H's CPM construction."""
    h = bundle.parity_check
    ok = (h.column_weights() == h.m).all()
    detail = f"shape {h.shape[0]}x{h.shape[1]}, weights {h.m}/{h.n}, edges {h.n_edges}"
    exp = bundle.expected
    for key, got in (("shape", h.shape), ("column_weight", h.m), ("row_weight", h.n)):
        if key in exp and not np.array_equal(exp[key], got):
            ok, detail = False, detail + f" (expected {key.replace('_', ' ')} {exp[key]})"
    return _check("shape-weights", ok, detail)


def verify_rc(bundle) -> CheckResult:
    violation = rc_check(bundle.parity_check)
    how = "algebraic + brute force" if bundle.spec.n <= DENSE_LIMIT else "algebraic"
    detail = f"{how}; no two rows share more than one 1-entry"
    if violation is not None:
        detail = f"violating blocks (i1,i2,j1,j2)={violation}"
    return _check("rc-constraint", violation is None, detail)


def verify_girth(bundle) -> CheckResult:
    g = girth_lower_bound(bundle.parity_check)
    exact = bundle.spec.n <= DENSE_LIMIT
    ok = g >= 6
    return _check("girth", ok, f"{'exact BFS girth' if exact else 'RC bound'} = {g}")


def verify_rank(bundle) -> CheckResult:
    h = bundle.parity_check
    rank = bundle.rank
    dim = h.n_vars - rank
    identity = bundle.spec.m * (bundle.spec.n - 1) + 1
    ok = rank == identity
    detail = f"rank {rank}, dimension {dim}, rate {dim / h.n_vars:.6f}"
    exp = bundle.expected
    if "dimension" in exp and exp["dimension"] != dim:
        ok, detail = False, detail + f" (expected dimension {exp['dimension']})"
    if "rate" in exp and abs(dim / h.n_vars - exp["rate"]) >= 1e-4:
        ok, detail = False, detail + f" (expected rate {exp['rate']})"
    return _check("rank-dimension", ok, detail)


def verify_eq_similarity(bundle, num_blocks: int = 20, seed: int = 0) -> CheckResult:
    checked, first = verify_similarity(bundle.spec, bundle.parity_check,
                                       num_blocks=num_blocks, rng=np.random.default_rng(seed))
    scope = "all" if bundle.spec.n <= DENSE_LIMIT else "sampled"
    detail = f"V.D.V^-1 == CPM on {scope} {checked} blocks"
    if first is not None:
        detail = f"mismatch at block {first}"
    return _check("transform-similarity", first is None, detail)


def verify_layer_decomposition(bundle, random_vectors: int = 1000,
                               tx_frames: int = 10, seed: int = 0) -> CheckResult:
    """GF(2^s) syndrome zero iff every binary layer syndrome is zero, checked
    on random vectors and transmitter outputs stacked into one array, all
    their layers in one call."""
    h, tx, field = bundle.parity_check, bundle.transceiver, bundle.spec.field
    rng = np.random.default_rng(seed)
    vecs = rng.integers(0, field.order, size=(random_vectors, h.n_vars), dtype=np.int64)
    word, _ = tx.transmit(StreamBlock(bits=np.stack([tx.random_streams(rng).bits
                                                     for _ in range(tx_frames)])))
    # uint8 words are counted by the library without gathering H's rows
    symbols = np.concatenate([vecs, word.symbols]).astype(np.min_scalar_type(field.order - 1))
    layers = np.concatenate([decompose_arr(vecs, field.s), word.bits])
    gf_zero = h.syndrome_weight(symbols) == 0
    layers_zero = (h.syndrome_weight(layers) == 0).all(axis=1)
    is_word = np.arange(len(symbols)) >= random_vectors
    bad = np.count_nonzero((gf_zero != layers_zero) | (is_word & ~gf_zero))
    return _check("layer-decomposition", bad == 0,
                  f"{len(symbols)} vectors ({tx_frames} transmitter outputs), "
                  f"{bad} counterexamples")


def verify_round_trip(bundle, frames: int = 5, seed: int = 0) -> CheckResult:
    """The frames go through transmit, demultiplex and decode_batch as one stack."""
    tx = bundle.transceiver
    rng = np.random.default_rng(seed)
    params = MsaParams(max_iterations=4, scale=bundle.sim.scale)
    streams = StreamBlock(bits=np.stack([tx.random_streams(rng).bits
                                         for _ in range(frames)]))
    word, x = tx.transmit(streams)
    frame = LlrFrame(llr(x, 1.0), s=tx.s, n=tx.n)
    bits, iterations, converged = decode_batch(frame.layers(), bundle.parity_check,
                                               params, (params.max_iterations,))
    ok = (streams.equal(tx.demultiplex(word)[1])
          and (bits[:, 0].reshape(word.bits.shape) == word.bits).all()
          and converged.all() and (iterations == 1).all())
    return _check("round-trip", ok,
                  f"{frames} random frames: receive(transmit(x)) == x, "
                  f"noiseless decode converges in 1 iteration")


def run_battery(bundle, seed: int = 0) -> list:
    scale_large = bundle.spec.n > DENSE_LIMIT
    checks = [
        verify_vandermonde(bundle),
        verify_shape_weights(bundle),
        verify_rc(bundle),
        verify_girth(bundle),
        verify_rank(bundle),
        verify_eq_similarity(bundle, seed=seed),
        verify_layer_decomposition(
            bundle,
            random_vectors=100 if scale_large else 1000,
            tx_frames=3 if scale_large else 10,
            seed=seed,
        ),
        verify_round_trip(bundle, frames=2 if scale_large else 5, seed=seed),
    ]
    return checks
