import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import gf2_map_results, gf_inv, gf_mul, gf_pow
from gftmux import config, cyclic, galois
from gftmux.galois import (
    NonPrimitivePolynomial,
    NotADivisor,
    NotPrime,
    build_field,
    compose_arr,
    decompose_arr,
    element_of_order,
)
from gftmux.geometry import vandermonde


def test_gf8_alpha_period_seven(gf8):
    # enumerate powers of alpha directly; period must be exactly 7
    seen = []
    x = 1
    for _ in range(7):
        seen.append(x)
        x = gf_mul(x, gf8.alpha, gf8)
    assert x == 1
    assert sorted(seen) == list(range(1, 8))
    # alpha^3 = alpha + 1 under X^3 + X + 1
    assert gf8.pow_alpha(3) == 0b011


def test_gf128_period():
    f = build_field(7)
    assert f.order - 1 == 127
    assert sorted(f.antilog_table.tolist()) == list(range(1, 128))


def test_reducible_poly_rejected():
    # X^3 + X^2 + X + 1 = (X + 1)(X^2 + 1)
    with pytest.raises(NonPrimitivePolynomial):
        galois.GaloisField(3, 0b1111)


def test_irreducible_nonprimitive_rejected():
    # X^4 + X^3 + X^2 + X + 1 is irreducible but alpha has order 5
    with pytest.raises(NonPrimitivePolynomial):
        galois.GaloisField(4, 0b11111)


def test_zero_constant_term_rejected():
    with pytest.raises(NonPrimitivePolynomial):
        galois.GaloisField(3, 0b1110)


def test_wrong_degree_rejected():
    with pytest.raises(ValueError):
        galois.GaloisField(4, 0b1011)


@pytest.mark.parametrize("s", [3, 4])
def test_field_axioms_exhaustive(s):
    f = build_field(s)
    elems = range(f.order)
    for a, b, c in itertools.product(elems, repeat=3):
        assert gf_mul(gf_mul(a, b, f), c, f) == gf_mul(a, gf_mul(b, c, f), f)
        assert gf_mul(a, b ^ c, f) == gf_mul(a, b, f) ^ gf_mul(a, c, f)


def test_inverses(gf16):
    for a in range(1, 16):
        assert gf_mul(a, gf_inv(a, gf16), gf16) == 1


def test_log_antilog_consistency(gf128):
    q1 = gf128.order - 1
    for x in range(1, gf128.order):
        assert gf128.antilog_table[gf128.log_table[x]] == x
    for i in range(q1):
        assert gf128.log_table[gf128.antilog_table[i]] == i


def test_element_of_order_gf2048():
    f = build_field(11)
    sub = element_of_order(f, 89)
    assert sub.beta == f.pow_alpha(23)        # 2047 = 23 * 89
    assert gf_pow(sub.beta, 89, f) == 1
    for t in range(1, 89):
        assert gf_pow(sub.beta, t, f) != 1


def test_element_of_order_gf128(gf128):
    sub = element_of_order(gf128, 127)
    assert sub.beta == gf128.alpha            # (2^7 - 1)/127 = 1


def test_element_of_order_gf16(gf16):
    sub = element_of_order(gf16, 5)
    assert sub.beta == gf16.pow_alpha(3)      # (2^4 - 1)/5 = 3
    assert gf_pow(sub.beta, 5, gf16) == 1
    assert all(gf_pow(sub.beta, t, gf16) != 1 for t in range(1, 5))


def test_element_of_order_errors(gf16):
    with pytest.raises(NotADivisor):
        element_of_order(gf16, 7)
    f = build_field(4, 0b10011)
    with pytest.raises(NotPrime):
        element_of_order(f, 15)


@pytest.mark.parametrize("s", [3, 4, 7])
def test_subgroup_prime_divisors(s):
    f = build_field(s)
    q1 = f.order - 1
    for n in [p for p in range(2, q1 + 1) if q1 % p == 0 and galois.is_prime(p)]:
        sub = element_of_order(f, n)
        assert gf_pow(sub.beta, n, f) == 1
        assert all(gf_pow(sub.beta, t, f) != 1 for t in range(1, n))
        assert (sub.pow_table[0], sub.pow_table[1 % n]) == (1, sub.beta)


def test_decompose_zero(gf8):
    assert decompose_arr([0], 3).tolist() == [[0], [0], [0]]


def test_decompose_basis_coordinate(gf8):
    assert decompose_arr([gf8.pow_alpha(2)], 3).tolist() == [[0], [0], [1]]


@pytest.mark.parametrize("s", [3, 4, 7])
def test_decompose_compose_round_trip_exhaustive(s):
    x = np.arange(1 << s)
    assert (compose_arr(decompose_arr(x, s)) == x).all()


def test_decompose_is_gf2_linear(gf16):
    x, y = np.meshgrid(np.arange(16), np.arange(16))
    assert (decompose_arr(x ^ y, 4) == decompose_arr(x, 4) ^ decompose_arr(y, 4)).all()


def test_stack_round_trip(gf128):
    """A (2, 3, n) stack of words decomposes to (2, 3, s, n) layers, each
    word's layers those of the word alone, and composes back."""
    vec = np.random.default_rng(2).integers(0, 128, size=(2, 3, 11))
    layers = decompose_arr(vec, 7)
    assert layers.shape == (2, 3, 7, 11)
    for i, j in np.ndindex(2, 3):
        assert (layers[i, j] == decompose_arr(vec[i, j], 7)).all()
        assert (compose_arr(layers[i, j]) == vec[i, j]).all()
    assert (compose_arr(layers) == vec).all()


def test_array_round_trip(gf128):
    rng = np.random.default_rng(3)
    vec = rng.integers(0, 128, size=200)
    layers = decompose_arr(vec, 7)
    assert layers.shape == (7, 200)
    assert (compose_arr(layers) == vec).all()


def test_layer_routines_peak_memory():
    """decompose_arr and compose_arr work one layer at a time: on a
    (20, 127, 127) GF(2^7) stack neither peaks above 3x its output's bytes
    (an int64 per bit of the whole stack peaked at 9x and 15x)."""
    vec = np.random.default_rng(6).integers(0, 128, size=(20, 127, 127))
    tracemalloc.start()
    try:
        layers = decompose_arr(vec, 7)
        _, decompose_peak = tracemalloc.get_traced_memory()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        back = compose_arr(layers)
        compose_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert (back == vec).all()
    assert decompose_peak <= 3 * layers.nbytes
    assert compose_peak <= 3 * back.nbytes


def test_mul_arr_matches_scalar(gf16):
    rng = np.random.default_rng(4)
    a = rng.integers(0, 16, size=50)
    b = rng.integers(0, 16, size=50)
    expect = [gf_mul(int(x), int(y), gf16) for x, y in zip(a, b)]
    assert gf16.mul_arr(a, b).tolist() == expect


def test_matmul_matches_naive(gf8):
    from conftest import naive_gf_matmul

    rng = np.random.default_rng(5)
    a = rng.integers(0, 8, size=(4, 6))
    b = rng.integers(0, 8, size=(6, 5))
    assert (gf8.matmul(a, b) == naive_gf_matmul(a, b, gf8)).all()


@pytest.mark.parametrize("s", [3, 4, 11])
def test_matmul_stack_matches_each_matrix(s):
    from conftest import naive_gf_matmul

    field = build_field(s)
    rng = np.random.default_rng(200 + s)
    a = rng.integers(0, field.order, size=(4, 3, 5))
    b = rng.integers(0, field.order, size=(5, 2))
    a[1] = a[2, :, 0] = b[3] = 0
    out = field.matmul(a, b)
    assert out.shape == (4, 3, 2)
    for k in range(4):
        assert (out[k] == field.matmul(a[k], b)).all()
        assert (out[k] == naive_gf_matmul(a[k], b, field)).all()
    assert (field.matmul(a.reshape(2, 2, 3, 5), b) == out.reshape(2, 2, 3, 2)).all()
    assert (field.matmul(a[0, 0], b) == out[0, :1]).all()     # a 1-D row is one matrix
    with pytest.raises(ValueError, match="shape mismatch"):
        field.matmul(a, b.T)
    with pytest.raises(ValueError, match="shape mismatch"):
        field.matmul(a[0], b[:4])


@pytest.mark.parametrize("s", [3, 4, 11])
def test_lift_matches_naive(s):
    from conftest import naive_gf_matmul

    field = build_field(s)
    rng = np.random.default_rng(s)
    a = rng.integers(0, field.order, size=(3, 5))
    b = rng.integers(0, field.order, size=(5, 4))
    a[0, 1] = a[2, :] = b[1, 2] = b[:, 3] = 0
    bits = decompose_arr(a.reshape(-1), s).T.reshape(3, 5 * s)     # symbol-major
    lifted = field.lift(b)
    assert lifted.shape == (5 * s, 4 * s) and lifted.dtype == np.uint8
    out = (bits @ lifted % 2).astype(np.int64)
    got = compose_arr(out.reshape(12, s).T).reshape(3, 4)
    assert (got == naive_gf_matmul(a, b, field)).all()


@pytest.mark.parametrize("s", [3, 4, 11])
def test_lift_is_multiplicative(s):
    field = build_field(s)
    rng = np.random.default_rng(100 + s)
    a = rng.integers(0, field.order, size=(2, 6))
    b = rng.integers(0, field.order, size=(6, 3))
    a[1, 0] = b[2, :] = 0
    composed = field.lift(a) @ field.lift(b) % 2
    assert (field.lift(field.matmul(a, b)) == composed).all()


def float32_lift(field, mat):
    """GaloisField.lift as it was built through (r, s, c, s) int64 bits and a
    float32 copy."""
    mat = np.atleast_2d(np.asarray(mat, dtype=np.int64))
    r, c = mat.shape
    rows = field.mul_arr((1 << np.arange(field.s))[None, :, None], mat[:, None, :])
    bits = (rows[..., None] >> np.arange(field.s)) & 1
    return bits.reshape(r * field.s, c * field.s).astype(np.float32)


@pytest.mark.parametrize("preset", config.list_presets())
def test_gf2_maps_equal_those_of_the_float32_lift(preset):
    """Every preset's generator parity block, V and V^-1 tables are byte for
    byte those the float32 lift gives, and the uint8 lift of V stays below
    2 MB of tracemalloc peak (the float32 one reached 10.5 MB on ex3)."""
    bundle = config.build_system(config.load_preset(preset))
    spec, tx, field = bundle.spec, bundle.transceiver, bundle.spec.field
    rng = np.random.default_rng(len(preset))
    for gmap, mat in ((tx._gen, cyclic.parity_rows(spec)),
                      (tx._v, vandermonde(spec.subgroup, "forward")),
                      (tx._vinv, vandermonde(spec.subgroup, "inverse"))):
        old = float32_lift(field, mat)
        assert (field.lift(mat) == old).all()
        assert gmap.tables.tobytes() == galois.Gf2Map(old).tables.tobytes()
        bits = rng.integers(0, 2, size=(3, len(old)), dtype=np.uint8)
        for got in gf2_map_results(gmap, bits):   # numpy's through the read-back matrix
            assert (got == galois.gf2_product(bits, old)).all()
    tracemalloc.start()
    try:
        field.lift(vandermonde(spec.subgroup))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_build_field_needs_poly_for_unknown_s():
    with pytest.raises(ValueError):
        build_field(5)
    f = build_field(5, 0b100101)
    assert f.order == 32
