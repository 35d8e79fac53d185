"""Prime-length cyclic base codes and their Hadamard equivalents.

The base code C of length n (prime) is fixed by the root exponents
l_0..l_{m-1} of its generator polynomial, taken as powers of the
order-n subgroup generator beta.  Entrywise k-th powers of the root
parity-check matrix give the Hadamard power matrices, whose null
spaces are column permutations of C; the k=0 power is the all-ones
matrix of the (n, n-1) single parity-check code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .galois import GaloisField, SubgroupGen, decompose_arr


class ConjugacyViolation(ValueError):
    """Binary mode requires the root set closed under doubling mod n."""


class DuplicateRoots(ValueError):
    """Root exponents must be distinct mod n."""


class TooLarge(ValueError):
    """Exhaustive enumeration guard tripped."""


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
    """(n-m) x m parity block of generator_matrix: row t is X^(m+t) mod g(X),
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


def generator_matrix(spec: BaseCodeSpec) -> np.ndarray:
    """(n-m) x n systematic generator matrix [parity_rows | I]; rows are
    unit-message codewords.

    Binary mode yields a 0/1 matrix (encode = msg @ G mod 2); nonbinary
    mode yields field symbols (encode = GF matrix product).
    """
    return np.concatenate([parity_rows(spec), np.eye(spec.n - spec.m, dtype=np.int64)],
                          axis=1)


# -- exhaustive nearest-codeword oracle ---------------------------------

_CODEBOOKS: dict = {}


def _codebook(spec: BaseCodeSpec) -> np.ndarray:
    key = (spec.field.s, spec.field.primitive_poly, spec.n, spec.roots, spec.mode)
    cb = _CODEBOOKS.get(key)
    if cb is None:
        kdim = spec.n - spec.m
        gmat = generator_matrix(spec)
        msgs = decompose_arr(np.arange(1 << kdim), kdim).T  # (2^k, kdim), LSB first
        cb = (msgs.astype(np.int64) @ gmat) % 2
        _CODEBOOKS[key] = cb
    return cb


def mld_oracle(received_hard, spec: BaseCodeSpec) -> np.ndarray:
    """Exhaustive minimum-Hamming-distance decoding of a (..., n) stack of
    hard words over tiny binary codes.

    Ties break toward the lowest message index, making results
    deterministic.  Guarded to n <= 15 / binary mode.
    """
    if spec.mode != "binary":
        raise TooLarge("mld_oracle supports binary mode only")
    if spec.n > 15:
        raise TooLarge(f"mld_oracle guard: n={spec.n} > 15")
    received_hard = np.asarray(received_hard, dtype=np.int64)
    cb = _codebook(spec)
    return cb[(received_hard[..., None, :] != cb).sum(axis=-1).argmin(axis=-1)]
