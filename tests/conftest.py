import numpy as np
import pytest

from gftmux import config, cyclic, decoder, galois


@pytest.fixture
def numpy_kernel(monkeypatch):
    """Decode with the numpy _flood oracle, as on a machine without a
    compiler; forked pool workers inherit the choice."""
    monkeypatch.setattr(decoder, "_kernel", None)


@pytest.fixture(scope="session")
def gf8():
    return galois.build_field(3)


@pytest.fixture(scope="session")
def gf16():
    return galois.build_field(4)


@pytest.fixture(scope="session")
def gf128():
    return galois.build_field(7)


@pytest.fixture(scope="session")
def sub7(gf8):
    return galois.element_of_order(gf8, 7)


@pytest.fixture(scope="session")
def desk_spec(gf8, sub7):
    """(7,4) Hamming base code over GF(8): the dense-verification instance."""
    return cyclic.BaseCodeSpec(field=gf8, subgroup=sub7, roots=(1, 2, 4),
                               mode="binary")


@pytest.fixture(scope="session")
def desk_bundle():
    return config.build_system(config.load_preset("desk_gf8"))


@pytest.fixture(scope="session")
def rs5_spec(gf16):
    """Tiny (5,3) RS code over GF(16) for nonbinary unit tests."""
    sub = galois.element_of_order(gf16, 5)
    return cyclic.BaseCodeSpec(field=gf16, subgroup=sub, roots=(1, 2),
                               mode="nonbinary")


def gf2_poly_divisible(dividend_bits, divisor_bits) -> bool:
    """Independent GF(2) polynomial divisibility oracle (ascending coeffs)."""
    r = list(int(b) for b in dividend_bits)
    d = list(int(b) for b in divisor_bits)
    dd = len(d) - 1
    for i in range(len(r) - 1, dd - 1, -1):
        if r[i]:
            for j, c in enumerate(d):
                r[i - dd + j] ^= c
    return not any(r)


def naive_gf_matmul(a, b, field) -> np.ndarray:
    """Triple-loop GF(2^s) matrix product; oracle for the vectorized path."""
    a = np.asarray(a)
    b = np.asarray(b)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0
            for k in range(a.shape[1]):
                acc ^= field.mul(int(a[i, k]), int(b[k, j]))
            out[i, j] = acc
    return out


def poly_eval(coeffs, x: int, field) -> int:
    """Horner evaluation of an ascending-coefficient polynomial at x."""
    acc = 0
    for c in reversed(np.asarray(coeffs, dtype=np.int64)):
        acc = field.mul(acc, x) ^ int(c)
    return acc


def code_syndrome(word, bmat, field) -> np.ndarray:
    """word . B^T over GF(2^s) for a Hadamard power matrix B."""
    word = np.asarray(word, dtype=np.int64)
    return np.bitwise_xor.reduce(field.mul_arr(word[None, :], bmat.elements()), axis=1)


def cascade(spec):
    """The desk-scale reference of the similarity transform: the
    block-diagonal cascade of the n Hadamard powers, its interleaved form
    (row i*n + k <- k*m + i, column j*n + t <- t*n + j) and that column map."""
    n, m = spec.n, spec.m
    h_casc = np.zeros((m * n, n * n), dtype=np.int64)
    for k in range(n):
        h_casc[k * m : (k + 1) * m, k * n : (k + 1) * n] = cyclic.base_matrix(spec, k).elements()
    rows, cols = np.arange(m * n), np.arange(n * n)
    row_map = rows % n * m + rows // n
    col_map = cols % n * n + cols // n
    return h_casc, h_casc[row_map][:, col_map], col_map
