"""Prime-length cyclic base codes and their Hadamard equivalents.

The base code C of length n (prime) is fixed by the root exponents
l_0..l_{m-1} of its generator polynomial, taken as powers of the
order-n subgroup generator beta.  Entrywise k-th powers of the root
parity-check matrix give the Hadamard power matrices, whose null
spaces are column permutations of C; the k=0 power is the all-ones
matrix of the (n, n-1) single parity-check code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .galois import GaloisField, SubgroupGen


class ConjugacyViolation(ValueError):
    """Binary mode requires the root set closed under doubling mod n."""


class DuplicateRoots(ValueError):
    """Root exponents must be distinct mod n."""


@dataclass(eq=False)
class BaseCodeSpec:
    """An (n, n-m) cyclic code given by its generator-polynomial roots.

    mode "binary" means codewords over GF(2) (BCH-style, conjugacy
    closed roots); "nonbinary" means codewords over GF(2^s) (RS-style).
    """

    subgroup: SubgroupGen
    roots: tuple
    mode: str

    def __post_init__(self):
        n = self.subgroup.n
        self.roots = tuple(int(l) % n for l in self.roots)
        if self.mode not in ("binary", "nonbinary"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if len(set(self.roots)) != len(self.roots):
            raise DuplicateRoots(f"root exponents {self.roots} collide mod n={n}")
        if not 1 <= len(self.roots) < n:
            raise ValueError(f"need 1 <= m < n, got m={len(self.roots)}, n={n}")
        if self.mode == "binary":
            rset = set(self.roots)
            for l in self.roots:
                if (2 * l) % n not in rset:
                    raise ConjugacyViolation(
                        f"binary mode: root set {sorted(rset)} not closed under "
                        f"doubling mod {n} (missing {2 * l % n})"
                    )

    @property
    def n(self) -> int:
        return self.subgroup.n

    @property
    def m(self) -> int:
        return len(self.roots)

    @property
    def field(self) -> GaloisField:
        return self.subgroup.field

    @property
    def s(self) -> int:
        return self.field.s


def conjugacy_closure(exponents, n: int) -> tuple:
    """Smallest doubling-closed superset of the exponents, sorted."""
    out = set()
    for e in exponents:
        e %= n
        while e not in out:
            out.add(e)
            e = (2 * e) % n
    return tuple(sorted(out))


def bch_spec(subgroup, designed_distance: int, mode: str = "binary") -> BaseCodeSpec:
    """Spec with roots beta^1..beta^(d-1); binary mode takes the conjugacy closure."""
    if designed_distance < 2:
        raise ValueError("designed distance must be >= 2")
    base = range(1, designed_distance)
    roots = conjugacy_closure(base, subgroup.n) if mode == "binary" else tuple(base)
    return BaseCodeSpec(subgroup=subgroup, roots=roots, mode=mode)


# -- polynomials over the field (ascending coefficient arrays) ---------


def poly_mul(a, b, field: GaloisField) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    out = np.zeros(a.size + b.size - 1, dtype=np.int64)
    for i, c in enumerate(a):
        if c:
            out[i : i + b.size] ^= field.mul_arr(c, b)
    return out


def generator_poly(spec: BaseCodeSpec) -> np.ndarray:
    """Ascending coefficients of the monic product of (X + beta^l) over the
    root exponents l."""
    g = np.array([1], dtype=np.int64)
    for l in spec.roots:
        g = poly_mul(g, np.array([spec.subgroup.pow_beta(l), 1]), spec.field)
    return g


# -- parity-check base matrices and Hadamard permutations --------------


def base_matrix(spec: BaseCodeSpec, k: int = 1) -> np.ndarray:
    """The m x n k-th Hadamard power of the root parity-check matrix as beta
    exponents: entry (i, j) is k*j*l_i mod n, the element
    spec.subgroup.pow_table[k*j*l_i mod n]."""
    n = spec.n
    if not 0 <= k < n:
        raise ValueError(f"Hadamard power k={k} out of range [0, {n})")
    roots = np.asarray(spec.roots, dtype=np.int64)
    j = np.arange(n, dtype=np.int64)
    return (k * j[None, :] * roots[:, None]) % n


def hadamard_perm(v, k: int, n: int) -> np.ndarray:
    """The k-th Hadamard permutation of v's last axis: out[t] = v[t*k mod n]."""
    if not 1 <= k < n:
        raise ValueError(f"Hadamard permutation needs 1 <= k < n, got k={k}")
    v = np.asarray(v)
    if v.shape[-1] != n:
        raise ValueError(f"vector length {v.shape[-1]} != n={n}")
    return v[..., (np.arange(n, dtype=np.int64) * k) % n]


# -- encoders -----------------------------------------------------------
#
# Systematic form throughout: message in the n-m high-order positions,
# parity = X^m * msg(X) mod g(X) in the low-order positions.


def encode_spc(msg, axis: int = 0) -> np.ndarray:
    """Append the XOR-sum of msg along axis: the parity symbol of a GF(2)
    or GF(2^s) word, or the parity row of a (length, s) bit block."""
    msg = np.asarray(msg)
    return np.concatenate([msg, np.bitwise_xor.reduce(msg, axis=axis, keepdims=True)],
                          axis=axis)


def parity_rows(spec: BaseCodeSpec) -> np.ndarray:
    """(n-m) x m parity block P of the generator [P | I]: row t is X^(m+t) mod g(X),
    the parity of unit message t.  Each row is the one before after one step
    of the encoder's shift register, X*r mod g: shift up and add top*g_low
    (X^m = g_low in characteristic 2), m field products per row."""
    m, field = spec.m, spec.field
    low = generator_poly(spec)[:m]
    rows = np.empty((spec.n - m, m), dtype=np.int64)
    r = np.eye(m, dtype=np.int64)[-1]   # X^(m-1), one step before X^m
    for t in range(spec.n - m):
        r = rows[t] = np.concatenate([[0], r[:-1]]) ^ field.mul_arr(r[-1], low)
    return rows


# -- the local baseline: hard-decision bounded-distance decoding --------


def bch_bound(spec: BaseCodeSpec) -> int:
    """The BCH bound delta <= d: one more than the longest cyclic run of
    consecutive root exponents mod n (beta^n = 1, so a run may wrap)."""
    n, roots = spec.n, set(spec.roots)
    return 1 + max(next(k for k in range(1, n) if (r + k) % n not in roots)
                   for r in roots if (r - 1) % n not in roots)


def binomial_tail(n: int, t: int, p: float) -> float:
    """P(more than t of n independent events of probability p): below 1/2 the
    upper tail summed term by term, so that a small rate keeps its digits,
    else 1 minus the lower sum, which cannot round past 1."""
    terms = [math.comb(n, k) * p ** k * (1 - p) ** (n - k) for k in range(n + 1)]
    upper = math.fsum(terms[t + 1:])
    return upper if upper < 0.5 else 1 - math.fsum(terms[:t + 1])


def local_bdd(spec: BaseCodeSpec, ebn0_db) -> dict:
    """The base code alone, BPSK over AWGN at its rate R = (n-m)/n, decoded
    by hard decisions up to t = (delta-1)//2 errors: delta, t, R and per
    Eb/N0 the exact word error rate and that of a composite word.  A bit
    errs with p = Q(sqrt(2 R Eb/N0)); a nonbinary position is an s-bit
    symbol and a composite one codeword, a binary composite s codewords."""
    n, s, nonbinary = spec.n, spec.s, spec.mode == "nonbinary"
    delta = bch_bound(spec)
    t, rate = (delta - 1) // 2, (n - spec.m) / n
    points = []
    for e in ebn0_db:
        p = 0.5 * math.erfc(math.sqrt(rate * 10 ** (e / 10)))   # Q(sqrt(2x)) = erfc(sqrt(x))/2
        wer = binomial_tail(n, t, binomial_tail(s, 0, p) if nonbinary else p)
        points.append({"ebn0_db": e, "wer": wer,
                       "composite_wer": wer if nonbinary else binomial_tail(s, 0, wer)})
    return {"delta": delta, "t": t, "rate": rate, "points": points}
