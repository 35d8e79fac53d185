"""GF(2^s) arithmetic on integer bit-vector elements, and the package's
C library.

An element is an int in [0, 2^s) whose bit l is the coordinate on
alpha^l in the polynomial basis {1, alpha, ..., alpha^(s-1)}, where
alpha is the class of X modulo the primitive polynomial.  Addition is
XOR; multiplication goes through log/antilog tables, so fields stay
cheap to build for s up to 16.

The C library holds the min-sum kernel and the syndrome count (_flood.c,
see decoder and GlobalParityCheck), the GF(2) table product (_gf2.c, see
Gf2Map), and each trial's SeedSequence hash, PCG64 words and ziggurat
normals (_draw.c, see sim.draw_block); the loader declares the argument
types of all its entry points.  It is compiled with gcc when this module
is imported and cached under the user cache directory ($XDG_CACHE_HOME/gftmux
or ~/.cache/gftmux), keyed by the SHA-256 of the sources, the flags and the
machine; a build removes the libraries of other keys there.  When no
compiler is available or the build fails, c_library is None, one warning
says so, and every user runs its numpy path, which gives the same results:
numpy stays the reference.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: -ffp-contract=off keeps a*b+c from fusing; no -ffast-math or
#: -march=native, so the cached library is exact and portable (the
#: kernel's target clones choose the vector width at load time).
CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")

#: The C sources built into the one library, beside this module.
C_SOURCES = ("_flood.c", "_gf2.c", "_draw.c")


def _load_library():
    """Compile C_SOURCES into the user cache unless already there and load
    the library; None, with one warning, when that fails."""
    sources = [Path(__file__).with_name(name) for name in C_SOURCES]
    try:
        key = hashlib.sha256(b"".join(p.read_bytes() for p in sources) + repr(
            (CFLAGS, platform.machine())).encode()).hexdigest()[:16]
        cache = Path(os.environ.get("XDG_CACHE_HOME")
                     or Path.home() / ".cache") / "gftmux"
        lib = cache / f"gftmux-{key}.so"
        if not lib.exists():   # a cache miss: build it
            import subprocess
            import tempfile

            cache.mkdir(parents=True, exist_ok=True)
            # concurrent builders each write their own file; replace is atomic
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:
                proc = subprocess.run(["gcc", *CFLAGS, *map(str, sources), "-o", tmp, "-lm"],
                                      capture_output=True, text=True)
                if proc.returncode:
                    raise OSError(proc.stderr)
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
            # libraries of other sources (flood-*: the kernel's own, before
            # _gf2.c) are stale; another process may be removing them too
            for old in [*cache.glob("gftmux-*.so"), *cache.glob("flood-*.so")]:
                if old != lib:
                    try:
                        old.unlink()
                    except OSError:
                        pass
        library = ctypes.CDLL(str(lib))
    except OSError as exc:   # gcc's stderr when the build failed
        warnings.warn(f"gftmux: C library unavailable, decoding with numpy, "
                      f"applying the GF(2) maps with numpy and drawing "
                      f"the noise with numpy's Generator ({exc})",
                      RuntimeWarning, stacklevel=2)
        return None
    ptr, int64, double = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    for name, argtypes in (
            ("gftmux_flood", [ptr, int64, int64, int64, ptr, double, double, ptr, int64,
                              int64, ptr, ptr, ptr]),
            ("gftmux_syndrome", [ptr, int64, int64, int64, ptr, ptr]),
            ("gftmux_gf2_apply", [ptr, int64, int64, int64, ptr, ptr]),
            ("gftmux_seed", [ptr, int64, ctypes.c_uint64, int64, ptr]),
            ("gftmux_draw", [ptr, int64, int64, int64, int64, ptr, ptr])):
        fn = getattr(library, name)
        fn.argtypes, fn.restype = argtypes, None
    return library


#: The loaded C library, or None to run the numpy paths.
c_library = _load_library()

#: The compiled table product, or None to apply Gf2Map's tables in numpy.
_gf2_apply = None if c_library is None else c_library.gftmux_gf2_apply


def buffer(ws: dict | None, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """An uninitialised array of shape: new when ws is None, else a view of
    ws[name], grown to the largest shape asked, so that a sweep's blocks reuse it."""
    size = int(np.prod(shape))
    if ws is not None and (name not in ws or ws[name].size < size):
        ws[name] = np.empty(size, dtype)
    return np.empty(shape, dtype) if ws is None else ws[name][:size].reshape(shape)


class NonPrimitivePolynomial(ValueError):
    """Modulus polynomial does not generate the full multiplicative group."""


class NotADivisor(ValueError):
    """Requested subgroup order does not divide 2^s - 1."""


class NotPrime(ValueError):
    """Requested subgroup order is composite."""


#: Default primitive polynomial per extension degree, as a coefficient
#: bit mask (bit i = coefficient of X^i).  Configs may override.
DEFAULT_PRIMITIVE_POLYS = {
    3: 0b1011,            # X^3 + X + 1
    4: 0b10011,           # X^4 + X + 1
    7: 0b10001001,        # X^7 + X^3 + 1
    11: 0b100000000101,   # X^11 + X^2 + 1
}


class GaloisField:
    """Arithmetic context for GF(2^s).

    Builds log/antilog tables for the primitive element alpha = X and
    rejects any polynomial whose powers of alpha do not cycle with
    period exactly 2^s - 1 (i.e. reducible or non-primitive moduli).
    Instances are immutable after construction and safe to share.
    """

    def __init__(self, s: int, primitive_poly: int):
        if not 3 <= s <= 16:
            raise ValueError(f"extension degree s={s} out of supported range [3, 16]")
        if primitive_poly.bit_length() != s + 1:
            raise ValueError(
                f"polynomial 0x{primitive_poly:x} must have degree exactly s={s}"
            )
        if not primitive_poly & 1:
            raise NonPrimitivePolynomial(
                f"0x{primitive_poly:x} has zero constant term (X divides it)"
            )
        self.s = s
        self.primitive_poly = primitive_poly
        self.order = 1 << s          # number of field elements
        self.alpha = 2               # the class of X
        q1 = self.order - 1

        antilog = np.zeros(q1, dtype=np.int64)
        log = np.zeros(self.order, dtype=np.int64)
        x = 1
        for i in range(q1):
            if x == 1 and i > 0:
                raise NonPrimitivePolynomial(
                    f"0x{primitive_poly:x}: alpha has period {i} < {q1}"
                )
            antilog[i] = x
            log[x] = i
            x <<= 1
            if x & self.order:
                x ^= primitive_poly
        if x != 1:
            raise NonPrimitivePolynomial(
                f"0x{primitive_poly:x}: alpha powers do not close a period-{q1} cycle"
            )
        self.antilog_table = antilog
        self.log_table = log

    def pow_alpha(self, e: int) -> int:
        """alpha**e for any integer exponent."""
        return int(self.antilog_table[e % (self.order - 1)])

    # -- vectorized ops ----------------------------------------------

    def mul_arr(self, a, b) -> np.ndarray:
        """Elementwise product of two broadcastable int arrays."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        q1 = self.order - 1
        out = self.antilog_table[(self.log_table[a] + self.log_table[b]) % q1]
        return np.where((a != 0) & (b != 0), out, 0)

    def lift(self, mat) -> np.ndarray:
        """(r*s, c*s) 0/1 uint8 M with bits(x) @ M == bits(x @ mat) mod 2:
        the GF(2) map that gf2_product multiplies by and Gf2Map packs into
        XOR tables.

        Bits are symbol-major (bit l of symbol t at t*s + l); row t*s + l
        holds the bits of alpha^l * mat[t].  Filled one power alpha^l at a
        time, so the only int64 temporaries are one (r, c) product's.
        """
        mat = np.atleast_2d(np.asarray(mat, dtype=np.int64))
        out = np.empty((len(mat), self.s, mat.shape[1], self.s), dtype=np.uint8)
        for l in range(self.s):
            out[:, l] = np.swapaxes(decompose_arr(self.mul_arr(1 << l, mat), self.s), 1, 2)
        return out.reshape(len(mat) * self.s, -1)

    def matmul(self, a, b) -> np.ndarray:
        """Matrix product over GF(2^s) of each (p x r) matrix of a (..., p, r)
        stack by b (r x c); b is lifted once for the whole stack."""
        a = np.atleast_2d(np.asarray(a, dtype=np.int64))
        b = np.atleast_2d(np.asarray(b, dtype=np.int64))
        if a.shape[-1] != b.shape[0]:
            raise ValueError(f"shape mismatch {a.shape} x {b.shape}")
        bits = decompose_arr(a, self.s).swapaxes(-1, -2).reshape(-1, a.shape[-1] * self.s)
        out = gf2_product(bits, self.lift(b)).reshape(a.shape[:-1] + (-1, self.s))
        return compose_arr(out.swapaxes(-1, -2))

    def __repr__(self):
        return f"GaloisField(s={self.s}, poly=0x{self.primitive_poly:x})"


def build_field(s: int, primitive_poly: int | None = None) -> GaloisField:
    """Construct GF(2^s), defaulting the modulus when one is shipped for s."""
    if primitive_poly is None:
        try:
            primitive_poly = DEFAULT_PRIMITIVE_POLYS[s]
        except KeyError:
            raise ValueError(
                f"no default primitive polynomial for s={s}; pass one explicitly"
            ) from None
    return GaloisField(s, primitive_poly)


def is_prime(k: int) -> bool:
    return k >= 2 and all(k % f for f in range(2, math.isqrt(k) + 1))


@dataclass(eq=False)
class SubgroupGen:
    """Generator beta of the order-n cyclic subgroup of GF(2^s)*.

    pow_table[t] = beta^t for 0 <= t < n; exponent arithmetic mod n is
    enough for every product of subgroup elements.
    """

    field: GaloisField
    beta: int
    n: int
    pow_table: np.ndarray

    def pow_beta(self, e: int) -> int:
        return int(self.pow_table[e % self.n])


def element_of_order(field: GaloisField, n: int) -> SubgroupGen:
    """beta = alpha^((2^s - 1)/n), the canonical element of prime order n."""
    q1 = field.order - 1
    if n < 2 or q1 % n != 0:
        raise NotADivisor(f"n={n} does not divide 2^{field.s} - 1 = {q1}")
    if not is_prime(n):
        raise NotPrime(f"n={n} is composite; subgroup orders must be prime")
    beta = field.pow_alpha(q1 // n)
    pow_table = field.antilog_table[(np.arange(n, dtype=np.int64) * (q1 // n)) % q1]
    return SubgroupGen(field=field, beta=beta, n=n, pow_table=pow_table)


# -- basis decomposition ----------------------------------------------
#
# Bit l of an element is its coordinate on alpha^l, so layer extraction
# is a bit slice and recomposition a shifted OR.


def decompose_arr(vec, s: int) -> np.ndarray:
    """(..., s, n) uint8 bits of a (..., n) stack of elements; row l of each
    word is its coefficient-of-alpha^l layer.  Filled one layer at a time,
    so the only int64 temporary is one layer's shift."""
    vec = np.asarray(vec, dtype=np.int64)
    out = np.empty(vec.shape[:-1] + (s, vec.shape[-1]), dtype=np.uint8)
    for l in range(s):
        np.bitwise_and(vec >> l, 1, out=out[..., l, :], casting="unsafe")
    return out


def compose_arr(layers) -> np.ndarray:
    """Inverse of decompose_arr: each (s, n) word of a (..., s, n) stack of
    bit layers back into n elements, OR-ed in one layer at a time."""
    layers = np.asarray(layers)
    out = np.zeros(layers.shape[:-2] + layers.shape[-1:], dtype=np.int64)
    for l in range(layers.shape[-2]):
        out |= np.left_shift(layers[..., l, :], l, dtype=np.int64)
    return out


def gf2_product(bits, lifted) -> np.ndarray:
    """bits @ lifted over GF(2), as uint8, for 0/1 arrays such as a
    GaloisField.lift: in float32, whose sums of at most 2^24 ones are exact
    integers, so their low bit is the parity.  Gf2Map's oracle, and its
    applier without the C library."""
    product = np.asarray(bits, dtype=np.float32) @ np.asarray(lifted, dtype=np.float32)
    return (product.astype(np.int32) & 1).astype(np.uint8)


class Gf2Map:
    """x -> x @ M over GF(2) for a fixed K x C 0/1 matrix M, such as a
    GaloisField.lift, by packed 4-bit XOR tables (the Four Russians method).

    tables[g, v] is the XOR of the rows 4g + i of M with bit i of v set,
    packed little-endian into ceil(C/64) uint64 words; rows past K are
    zero.  A product row is the XOR of one table row per group of four
    inputs: ceil(K/4) lookups instead of K row additions.  The C library
    applies the tables when it loaded; otherwise gf2_product multiplies by M
    read back from them.
    """

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=np.uint8)
        k, c = self.shape = matrix.shape
        groups, words = -(-k // 4), -(-c // 64)
        rows = np.zeros((4 * groups, 8 * words), dtype=np.uint8)
        rows[:k, : -(-c // 8)] = np.packbits(matrix, axis=1, bitorder="little")
        rows = rows.view("<u8").astype(np.uint64).reshape(groups, 4, words)
        subset = np.arange(16)[:, None] >> np.arange(4) & 1       # (v, i)
        self.tables = np.zeros((groups, 16, words), dtype=np.uint64)
        for i in range(4):
            self.tables[:, subset[:, i] == 1] ^= rows[:, i, None]

    def __call__(self, bits) -> np.ndarray:
        """(..., C) uint8 product of a (..., K) stack of 0/1 rows."""
        k, c = self.shape
        bits = np.ascontiguousarray(bits, dtype=np.uint8)
        if bits.shape[-1:] != (k,):
            raise ValueError(f"rows of length {bits.shape[-1:]} do not match {self.shape}")
        rows = bits.reshape(-1, k)
        if _gf2_apply is not None:
            out = np.empty((len(rows), c), dtype=np.uint8)
            _gf2_apply(rows.ctypes.data, len(rows), k, c, self.tables.ctypes.data,
                       out.ctypes.data)
        else:
            # M read back from the tables: row 4g + i is tables[g, 2^i]
            packed = self.tables[:, [1, 2, 4, 8]].reshape(-1, self.tables.shape[-1])[:k]
            matrix = np.unpackbits(packed.astype("<u8").view(np.uint8), axis=1, count=c,
                                   bitorder="little")
            out = gf2_product(rows & 1, matrix)
        return out.reshape(bits.shape[:-1] + (c,))
