import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    TooLarge,
    baseline_mld_wer,
    code_syndrome,
    encode,
    generator_matrix,
    gf2_poly_divisible,
    mld_oracle,
    poly_eval,
)
from gftmux import config, cyclic, galois
from gftmux.cyclic import (
    BaseCodeSpec,
    ConjugacyViolation,
    DuplicateRoots,
    base_matrix,
    bch_bound,
    bch_spec,
    binomial_tail,
    conjugacy_closure,
    encode_spc,
    generator_poly,
    hadamard_perm,
    local_bdd,
    parity_rows,
)
from gftmux.galois import compose_arr
from gftmux.sim import confidence_interval


# -- spec validation ----------------------------------------------------


def test_duplicate_roots_rejected(sub7):
    with pytest.raises(DuplicateRoots):
        BaseCodeSpec(subgroup=sub7, roots=(1, 8), mode="binary")


def test_conjugacy_violation(sub7):
    with pytest.raises(ConjugacyViolation):
        BaseCodeSpec(subgroup=sub7, roots=(1, 2), mode="binary")


def test_field_is_not_given_apart_from_its_subgroup(gf16, sub7):
    """The spec's field is its subgroup's: a second one is not accepted."""
    with pytest.raises(TypeError):
        BaseCodeSpec(field=gf16, subgroup=sub7, roots=(1, 2), mode="nonbinary")


@pytest.mark.parametrize("preset", config.list_presets())
def test_preset_field_is_its_subgroups(preset):
    spec = config.build_system(config.load_preset(preset)).spec
    assert spec.field is spec.subgroup.field


def test_conjugacy_closure_expansion():
    assert conjugacy_closure([1], 7) == (1, 2, 4)
    assert conjugacy_closure([1, 3], 127) == (1, 2, 3, 4, 6, 8, 12, 16, 24, 32,
                                              48, 64, 65, 96)


def test_bch_designed_distance_127(gf128):
    sub = galois.element_of_order(gf128, 127)
    spec = bch_spec(sub, 5)
    assert spec.m == 14          # conjugacy classes of 1 and 3
    spec3 = bch_spec(sub, 3)
    assert spec3.m == 7          # the class of 1 alone


# -- generator polynomials ----------------------------------------------


def test_generator_poly_desk(desk_spec):
    g = generator_poly(desk_spec)
    # monic, degree 3, binary coefficients, vanishing at every root
    assert g.tolist() == [1, 1, 0, 1]     # X^3 + X + 1
    for l in desk_spec.roots:
        assert poly_eval(g, desk_spec.subgroup.pow_beta(l),
                         desk_spec.field) == 0


def test_generator_poly_bch127(gf128):
    sub = galois.element_of_order(gf128, 127)
    spec = bch_spec(sub, 5)
    g = generator_poly(spec)
    assert g.size - 1 == 14
    assert set(g.tolist()) <= {0, 1}
    for l in spec.roots:
        assert poly_eval(g, sub.pow_beta(l), gf128) == 0


def test_generator_poly_rs_gf2048():
    f = galois.build_field(11)
    sub = galois.element_of_order(f, 89)
    spec = BaseCodeSpec(subgroup=sub, roots=(1, 2, 3, 4), mode="nonbinary")
    g = generator_poly(spec)
    assert g.size - 1 == 4
    assert g[-1] == 1
    for l in (1, 2, 3, 4):
        assert poly_eval(g, sub.pow_beta(l), f) == 0


# -- base matrices and Hadamard permutations -----------------------------


def test_base_matrix_k0_all_ones(desk_spec):
    b0 = base_matrix(desk_spec, 0)
    assert (b0 == 0).all()
    assert (desk_spec.subgroup.pow_table[b0] == 1).all()


def test_base_matrix_k1_is_base(desk_spec):
    b = base_matrix(desk_spec, 1)
    assert (b[:, 0] == 0).all()        # first column all ones
    for i, l in enumerate(desk_spec.roots):
        assert b[i, 1] == l


def test_base_matrix_entry_example(desk_spec):
    # roots (1,2,4), k=3: entry (0,2) = beta^(3*2*1 mod 7) = beta^6
    b3 = base_matrix(desk_spec, 3)
    assert b3[0, 2] == 6


def test_base_matrix_k_range(desk_spec):
    with pytest.raises(ValueError):
        base_matrix(desk_spec, 7)


def test_hadamard_column_permutation_identity(desk_spec):
    # column t of the k-th power equals column t*k mod n of the base
    b1 = base_matrix(desk_spec, 1)
    for k in range(1, 7):
        bk = base_matrix(desk_spec, k)
        for t in range(7):
            assert (bk[:, t] == b1[:, (t * k) % 7]).all()


def test_hadamard_perm_identity():
    v = np.arange(7)
    assert (hadamard_perm(v, 1, 7) == v).all()


def test_hadamard_perm_k3_pattern():
    v = np.arange(7)
    assert hadamard_perm(v, 3, 7).tolist() == [0, 3, 6, 2, 5, 1, 4]


def test_hadamard_perm_k0_rejected():
    with pytest.raises(ValueError):
        hadamard_perm(np.arange(7), 0, 7)


def test_hadamard_perm_codeword_closure(desk_spec):
    """All 16 codewords, all k: the permuted word lands in the k-th code."""
    for msg_int in range(16):
        msg = (msg_int >> np.arange(4)) & 1
        cw = encode(msg, desk_spec)
        for k in range(1, 7):
            permuted = hadamard_perm(cw, k, 7)
            syn = code_syndrome(permuted, desk_spec, k)
            assert not syn.any()


# -- encoders ------------------------------------------------------------


def test_encode_binary_zero(desk_spec):
    assert encode(np.zeros(4, dtype=int), desk_spec).tolist() == [0] * 7


def test_encode_binary_example(desk_spec):
    cw = encode(np.array([1, 0, 0, 0]), desk_spec)
    assert cw.tolist() == [1, 1, 0, 1, 0, 0, 0]   # X^3 + X + 1


def test_encode_binary_all_divisible(desk_spec):
    for msg_int in range(16):
        msg = (msg_int >> np.arange(4)) & 1
        cw = encode(msg, desk_spec)
        assert gf2_poly_divisible(cw, generator_poly(desk_spec))
        assert (cw[3:] == msg).all()              # systematic high positions


def test_encode_binary_codeword_count(desk_spec):
    words = {tuple(encode((m >> np.arange(4)) & 1, desk_spec)) for m in range(16)}
    assert len(words) == 16


def test_encode_binary_length_mismatch(desk_spec):
    with pytest.raises(ValueError):
        encode(np.zeros(5, dtype=int), desk_spec)


def test_encode_binary_symbol_out_of_alphabet(desk_spec):
    for msg in ([2, 0, 0, 0], [0, -1, 0, 0]):
        with pytest.raises(ValueError, match="alphabet"):
            encode(np.array(msg), desk_spec)


def test_encode_nonbinary_roots_vanish(rs5_spec):
    rng = np.random.default_rng(7)
    for _ in range(20):
        msg = rng.integers(0, 16, size=3)
        cw = encode(msg, rs5_spec)
        assert poly_eval(cw, rs5_spec.subgroup.pow_beta(1), rs5_spec.field) == 0
        assert poly_eval(cw, rs5_spec.subgroup.pow_beta(2), rs5_spec.field) == 0
        syn = code_syndrome(cw, rs5_spec, 1)
        assert not syn.any()
        assert (cw[2:] == msg).all()


def test_encode_nonbinary_zero(rs5_spec):
    assert (encode(np.zeros(3, dtype=int), rs5_spec) == 0).all()


def test_encode_nonbinary_rs127(gf128):
    sub = galois.element_of_order(gf128, 127)
    spec = BaseCodeSpec(subgroup=sub, roots=tuple(range(1, 7)), mode="nonbinary")
    rng = np.random.default_rng(11)
    msg = rng.integers(0, 128, size=121)
    cw = encode(msg, spec)
    assert cw.size == 127
    assert not code_syndrome(cw, spec, 1).any()


def test_encode_nonbinary_symbol_out_of_field(rs5_spec):
    with pytest.raises(ValueError):
        encode(np.array([16, 0, 0]), rs5_spec)


def test_encode_spc():
    assert encode_spc(np.zeros(6, dtype=int)).tolist() == [0] * 7
    assert encode_spc(np.array([1, 1, 0, 1, 0, 0])).tolist() == [1, 1, 0, 1, 0, 0, 1]
    # nonbinary: alpha ^ alpha ^ 1 = 1 in GF(8)
    word = encode_spc(np.array([2, 2, 1, 0, 0, 0]))
    assert word[-1] == 1
    assert np.bitwise_xor.reduce(word) == 0
    # a (length, s) bit block gains a parity row
    block = np.array([[1, 0, 1], [1, 1, 0]], dtype=np.uint8)
    assert encode_spc(block).tolist() == [[1, 0, 1], [1, 1, 0], [0, 1, 1]]


def test_compose_streams(desk_spec):
    rng = np.random.default_rng(13)
    v = encode(rng.integers(0, 2, size=4), desk_spec)
    # streams (v, 0, 0) embed v in bit 0
    zeros = np.zeros(7, dtype=np.uint8)
    syms = compose_arr(np.stack([v, zeros, zeros]))
    assert (syms == v).all()
    # three random codewords compose to a zero-syndrome GF(8) word
    streams = np.stack([encode(rng.integers(0, 2, size=4), desk_spec)
                        for _ in range(3)])
    syms = compose_arr(streams)
    assert not code_syndrome(syms, desk_spec, 1).any()


def test_compose_streams_rejects_mixed(desk_spec):
    cw = encode(np.array([1, 0, 1, 0]), desk_spec)
    bad = cw.copy()
    bad[0] ^= 1
    syms = compose_arr(np.stack([cw, bad, cw]))
    assert code_syndrome(syms, desk_spec, 1).any()


def test_generator_matrix_agrees_with_polynomial_encoder(desk_spec, rs5_spec):
    gmat = generator_matrix(desk_spec)
    rng = np.random.default_rng(17)
    for _ in range(10):
        msg = rng.integers(0, 2, size=4)
        assert ((msg @ gmat) % 2 == encode(msg, desk_spec)).all()
    gmat_q = generator_matrix(rs5_spec)
    for _ in range(10):
        msg = rng.integers(0, 16, size=3)
        via_matrix = rs5_spec.field.matmul(msg[None, :], gmat_q)[0]
        assert (via_matrix == encode(msg, rs5_spec)).all()


def assert_parity_rows_encode_unit_messages(spec):
    """Row t of parity_rows is the parity of unit message t, and
    generator_matrix is [parity_rows | I]."""
    kdim = spec.n - spec.m
    rows = parity_rows(spec)
    assert rows.shape == (kdim, spec.m)
    units = np.stack([encode(msg, spec) for msg in np.eye(kdim, dtype=np.int64)])
    assert (rows == units[:, :spec.m]).all()
    assert (generator_matrix(spec) == units).all()


@pytest.mark.parametrize("preset", config.list_presets())
def test_parity_rows_encode_unit_messages(preset):
    assert_parity_rows_encode_unit_messages(
        config.build_system(config.load_preset(preset)).spec)


def test_parity_rows_on_small_specs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # (s, primitive polynomial, prime n dividing 2^s - 1)
    small = [(3, None, 7), (4, None, 3), (4, None, 5), (5, 0b100101, 31)]

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(case=st.sampled_from(small), binary=st.booleans(),
                      picks=st.lists(st.integers(0, 30), min_size=1, max_size=8))
    def run(case, binary, picks):
        s, poly, n = case
        field = galois.build_field(s, poly)
        roots = sorted({p % n for p in picks})
        if binary:
            roots = conjugacy_closure(roots, n)
        hypothesis.assume(len(roots) < n)
        spec = BaseCodeSpec(subgroup=galois.element_of_order(field, n), roots=roots,
                            mode="binary" if binary else "nonbinary")
        assert_parity_rows_encode_unit_messages(spec)

    run()


# -- exhaustive decoder oracle -------------------------------------------


def test_mld_oracle_identity(desk_spec):
    cw = encode(np.array([1, 1, 0, 1]), desk_spec)
    assert (mld_oracle(cw, desk_spec) == cw).all()


def test_mld_oracle_corrects_single_flips(desk_spec):
    rng = np.random.default_rng(19)
    for _ in range(20):
        cw = encode(rng.integers(0, 2, size=4), desk_spec)
        pos = rng.integers(0, 7)
        noisy = cw.copy()
        noisy[pos] ^= 1
        assert (mld_oracle(noisy, desk_spec) == cw).all()


def test_mld_oracle_two_flips_deterministic(desk_spec):
    cw = encode(np.array([0, 1, 1, 0]), desk_spec)
    noisy = cw.copy()
    noisy[0] ^= 1
    noisy[4] ^= 1
    first = mld_oracle(noisy, desk_spec)
    assert (noisy != first).sum() <= 2
    for _ in range(5):
        assert (mld_oracle(noisy, desk_spec) == first).all()


def test_mld_oracle_stack_matches_word_by_word(desk_spec, gf16):
    """A stack decodes as its words do one at a time, ties included: every
    odd-weight word is at distance 1 from 5 words of the (5, 4) parity code."""
    spec = BaseCodeSpec(subgroup=galois.element_of_order(gf16, 5), roots=(0,),
                        mode="binary")
    rng = np.random.default_rng(23)
    for sp, shape in ((desk_spec, (3, 4, 7)), (spec, (300, 5))):
        words = rng.integers(0, 2, size=shape)
        stacked = mld_oracle(words, sp)
        assert stacked.shape == shape
        flat = words.reshape(-1, sp.n)
        assert (stacked.reshape(-1, sp.n)
                == np.stack([mld_oracle(w, sp) for w in flat])).all()
    assert (flat.sum(axis=1) % 2).sum() > 100   # tied words


def test_mld_oracle_guards(rs5_spec, gf128):
    with pytest.raises(TooLarge):
        mld_oracle(np.zeros(5, dtype=int), rs5_spec)
    sub = galois.element_of_order(gf128, 127)
    spec = cyclic.bch_spec(sub, 3)
    with pytest.raises(TooLarge):
        mld_oracle(np.zeros(127, dtype=int), spec)


# -- the local baseline ---------------------------------------------------


def test_bch_bound_run_wraps_around_zero(sub7):
    """beta^n = 1, so the run 5, 6, 0, 1 counts as four consecutive roots."""
    assert bch_bound(BaseCodeSpec(subgroup=sub7, roots=(0, 1, 5, 6), mode="nonbinary")) == 5
    assert bch_bound(BaseCodeSpec(subgroup=sub7, roots=(3, 5, 6), mode="binary")) == 3


def test_local_bdd_inside_mld_oracle_on_desk(desk_bundle):
    """The (7,4) Hamming code is perfect, so hard-decision MLD is
    bounded-distance decoding: the analytic rate lies inside the Wilson
    interval of the Monte Carlo oracle over 200,000 words at each point."""
    points = local_bdd(desk_bundle.spec, [2.0, 4.0, 6.0])["points"]
    for q in points:
        errors, words = baseline_mld_wer(desk_bundle.transceiver, q["ebn0_db"],
                                         max_words=200_000, target_errors=10 ** 9,
                                         seed=desk_bundle.sim.seed)
        low, high = confidence_interval(errors, words)
        assert words == 200_000 and low < q["wer"] < high, (q, errors)


def test_binomial_tail_matches_exact_sum():
    """The tail agrees with exact rational arithmetic to 1e-12 relative for
    any p in [0, 1], down to p = 1e-6, where 1 minus the lower sum would
    keep no digits."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(n=st.integers(1, 24), t=st.integers(0, 23),
                      a=st.integers(0, 10 ** 9), b=st.integers(1, 10 ** 9))
    @hypothesis.example(n=24, t=2, a=1, b=10 ** 6)
    def run(n, t, a, b):
        t, p = t % n, Fraction(min(a, b), b)
        exact = sum(math.comb(n, k) * p ** k * (1 - p) ** (n - k) for k in range(t + 1, n + 1))
        got = binomial_tail(n, t, float(p))
        assert abs(Fraction(got) - exact) <= Fraction(1, 10 ** 12) * exact

    run()
