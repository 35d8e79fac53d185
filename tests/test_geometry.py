import io
import pickle

import numpy as np
import pytest

from conftest import gf2_rank, gf2_rank_rows, naive_gf_matmul
from gftmux import config, cyclic, galois, geometry
from gftmux.cyclic import base_matrix
from gftmux.geometry import (
    GlobalParityCheck,
    ScaleGuard,
    cpm,
    girth_lower_bound,
    qc_rank,
    rc_check,
    vandermonde,
    write_alist,
    write_dense_text,
)


@pytest.fixture(scope="module")
def desk_h(desk_spec):
    return GlobalParityCheck(base_matrix(desk_spec, 1))


# -- Vandermonde ---------------------------------------------------------


def test_vandermonde_border_ones(sub7):
    v = vandermonde(sub7)
    assert v.shape == (7, 7)
    assert (v[0] == 1).all()
    assert (v[:, 0] == 1).all()


def test_vandermonde_symmetric(sub7):
    v = vandermonde(sub7)
    assert (v == v.T).all()


def test_vandermonde_inverse_identity(gf8, sub7):
    v = vandermonde(sub7, "forward")
    vi = vandermonde(sub7, "inverse")
    prod = naive_gf_matmul(v, vi, gf8)          # independent dense oracle
    assert (prod == np.eye(7, dtype=np.int64)).all()
    assert (gf8.matmul(v, vi) == prod).all()


def test_vandermonde_unit_row(gf8, sub7):
    e0 = np.zeros(7, dtype=np.int64)
    e0[0] = 1
    out = gf8.matmul(e0[None, :], vandermonde(sub7))[0]
    assert (out == 1).all()


def test_vandermonde_inverse_identity_gf2048():
    f = galois.build_field(11)
    sub = galois.element_of_order(f, 89)
    v = vandermonde(sub, "forward")
    vi = vandermonde(sub, "inverse")
    assert (f.matmul(v, vi) == np.eye(89, dtype=np.int64)).all()


# -- circulant permutation matrices ---------------------------------------


def test_cpm_identity():
    assert (cpm(0, 5) == np.eye(5, dtype=np.uint8)).all()


def test_cpm_top_row():
    assert cpm(2, 5)[0].tolist() == [0, 0, 1, 0, 0]


def test_cpm_rows_shift_right():
    c = cpm(3, 7)
    for r in range(7):
        assert c[r].tolist() == np.roll(c[0], r).tolist()


def test_cpm_product_adds_exponents():
    for a in range(7):
        for b in range(7):
            prod = (cpm(a, 7).astype(int) @ cpm(b, 7).astype(int)) % 2
            assert (prod == cpm((a + b) % 7, 7)).all()


def test_cpm_exponent_range():
    with pytest.raises(ValueError):
        cpm(7, 7)


def test_cpm_stacks_exponent_arrays():
    e = np.array([[0, 3, 6], [5, 1, 2]])
    stack = cpm(e, 7)
    assert stack.shape == (2, 3, 7, 7) and stack.dtype == np.uint8
    for idx in np.ndindex(e.shape):
        assert (stack[idx] == cpm(int(e[idx]), 7)).all()
    for bad in ([[0, 3], [7, 1]], [2, -1]):     # one exponent out of range
        with pytest.raises(ValueError, match="out of range"):
            cpm(np.array(bad), 7)


# -- CPM dispersion --------------------------------------------------------


def test_dispersion_desk_shape_weights(desk_h):
    assert desk_h.shape == (21, 49)
    assert (desk_h.column_weights() == 3).all()
    assert (desk_h.dense().sum(axis=1) == 7).all()
    assert desk_h.n_edges == 3 * 49


def test_dispersion_matches_dense_blocks(desk_spec, desk_h):
    dense = desk_h.dense()
    for i, l in enumerate(desk_spec.roots):
        for j in range(7):
            block = dense[i * 7 : (i + 1) * 7, j * 7 : (j + 1) * 7]
            assert (block == cpm((j * l) % 7, 7)).all()


def test_dispersion_ex1_shape(gf128):
    sub = galois.element_of_order(gf128, 127)
    spec = cyclic.bch_spec(sub, 5)
    h = GlobalParityCheck(base_matrix(spec, 1))
    assert h.shape == (1778, 16129)
    assert (h.column_weights() == 14).all()
    # row weight 127: each check's 127 variables are distinct
    assert h.check_vars.shape == (1778, 127)
    assert (np.diff(np.sort(h.check_vars, axis=1)) > 0).all()


def _var_edges_by_argsort(h):
    """Edge slots grouped by variable through a stable argsort of the flat
    check_vars: ascending check order within each variable."""
    assert (h.column_weights() == h.m).all()
    return np.argsort(h.check_vars.reshape(-1), kind="stable").reshape(h.n_vars, h.m)


@pytest.mark.parametrize("preset", ["desk_gf8", "ex5_rs89_85", "ex1_bch127_113"])
def test_var_edges_closed_form(preset):
    h = config.build_system(config.load_preset(preset)).parity_check
    assert h.var_edges.shape == (h.n_vars, h.m)
    assert (h.var_edges == _var_edges_by_argsort(h)).all()
    # every edge slot appears exactly once: no pad slot exists
    assert (np.sort(h.var_edges.reshape(-1)) == np.arange(h.n_edges)).all()
    flat = h.check_vars.reshape(-1)
    assert (flat[h.var_edges] == np.arange(h.n_vars)[:, None]).all()


def test_exponent_table_stored_as_the_kernel_reads_it():
    """Construction reduces the table mod n into a read-only C-contiguous
    int64 array, takes m x n from its shape, and refuses one that is not
    2-D; the derived adjacency is read-only too."""
    expo = np.asfortranarray([[0, 8, 15, 5, 3], [3, 4, -1, 9, 10]], dtype=np.int32)
    h = GlobalParityCheck(expo)
    table = h.cpm_exponents
    assert (h.m, h.n) == (2, 5)
    assert table.dtype == np.int64 and table.flags["C_CONTIGUOUS"]
    assert not table.flags.writeable and (table == expo % 5).all()
    assert not h.check_vars.flags.writeable and not h.var_edges.flags.writeable
    for bad in (expo[0], expo[None]):
        with pytest.raises(ValueError, match="is not 2-D"):
            GlobalParityCheck(bad)


@pytest.mark.parametrize("preset", ["desk_gf8", "ex3_rs127_121"])
def test_pickled_copy_is_rebuilt_by_the_constructor(preset):
    """A pickle round trip keeps the table read-only and leaves the derived
    views to be rebuilt on first use, even when the original had built them."""
    h = config.build_system(config.load_preset(preset)).parity_check
    h.check_vars
    copy = pickle.loads(pickle.dumps(h))
    assert (copy.cpm_exponents == h.cpm_exponents).all()
    assert not copy.cpm_exponents.flags.writeable
    assert "check_vars" not in vars(copy)
    assert (copy.check_vars == h.check_vars).all()


def test_dense_scale_guard():
    expo = np.zeros((1, 37), dtype=np.int64)
    h = GlobalParityCheck(expo)
    with pytest.raises(ScaleGuard):
        h.dense()


# -- RC constraint and girth ------------------------------------------------


def _pairwise_rc_violation(h):
    """The RC criterion one row pair at a time, in lexicographic pair order:
    the first difference row e(i1,.) - e(i2,.) mod n that repeats a value
    names the sorted columns of its first adjacent repeat in stable order."""
    expo, n = h.cpm_exponents, h.n
    for i1 in range(h.m):
        for i2 in range(i1 + 1, h.m):
            d = (expo[i1] - expo[i2]) % n
            order = np.argsort(d, kind="stable")
            ds = d[order]
            dup = np.nonzero(ds[1:] == ds[:-1])[0]
            if dup.size:
                j1, j2 = sorted((int(order[dup[0]]), int(order[dup[0] + 1])))
                return (i1, i2, j1, j2)
    return None


def test_rc_desk_passes_and_cross_validates(desk_h):
    assert desk_h.n <= geometry.DENSE_LIMIT    # the brute-force cross-check runs
    assert rc_check(desk_h) is None


def test_rc_brute_force_agreement_random_tables():
    rng = np.random.default_rng(23)
    for _ in range(20):
        expo = rng.integers(0, 11, size=(3, 11))
        rc_check(GlobalParityCheck(expo))   # raises on disagreement


@pytest.mark.parametrize("n", [5, 7, 11, 13, 31, 37])
def test_rc_stacked_matches_pairwise_oracle(n):
    """Random tables, with and without violations: the stacked criterion
    reports the pairwise loop's first violation, or None with it."""
    rng = np.random.default_rng(n)
    seen = set()
    for m in range(1, 6):
        for _ in range(30):
            expo = rng.integers(0, n, size=(m, n))
            if rng.random() < 0.5:      # distinct roots l_i give RC-free rows
                expo = np.outer(rng.permutation(n)[:m], np.arange(n)) % n
            h = GlobalParityCheck(expo)
            want = _pairwise_rc_violation(h)
            assert rc_check(h) == want
            seen.add(want is None)
    assert seen == {True, False}


def test_rc_duplicate_block_rows_fail():
    expo = np.stack([np.arange(7), np.arange(7)])   # l_0 = l_1 = 1
    i1, i2, j1, j2 = rc_check(GlobalParityCheck(expo))
    assert (i1, i2) == (0, 1) and j1 != j2


def test_rc_prime_configs_always_pass(gf128):
    sub = galois.element_of_order(gf128, 127)
    for d in (3, 5):
        spec = cyclic.bch_spec(sub, d)
        assert rc_check(GlobalParityCheck(base_matrix(spec, 1))) is None


def test_girth_desk_exactly_six(desk_h):
    assert girth_lower_bound(desk_h) == 6


def test_girth_desk_matches_networkx(desk_h):
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    for c, cols in enumerate(desk_h.check_vars):
        for v in cols:
            g.add_edge(("c", c), ("v", int(v)))
    assert nx.girth(g) == 6


def test_girth_rc_violation_is_four():
    expo = np.stack([np.arange(7), np.arange(7)])
    h = GlobalParityCheck(expo)
    assert girth_lower_bound(h) == 4


def test_girth_large_scale_bound(gf128):
    sub = galois.element_of_order(gf128, 127)
    spec = cyclic.bch_spec(sub, 3)
    assert girth_lower_bound(GlobalParityCheck(base_matrix(spec, 1))) == 6


# -- GF(2) rank ---------------------------------------------------------------


def _dense_rank_oracle(dense):
    """Plain row-reduction over GF(2) on a numpy 0/1 matrix."""
    a = dense.copy().astype(np.int64)
    rank = 0
    for col in range(a.shape[1]):
        piv = None
        for r in range(rank, a.shape[0]):
            if a[r, col]:
                piv = r
                break
        if piv is None:
            continue
        a[[rank, piv]] = a[[piv, rank]]
        for r in range(a.shape[0]):
            if r != rank and a[r, col]:
                a[r] ^= a[rank]
        rank += 1
    return rank


def test_rank_desk(desk_h):
    assert gf2_rank(desk_h) == 19
    assert desk_h.n_vars - gf2_rank(desk_h) == 30
    assert _dense_rank_oracle(desk_h.dense()) == 19
    # the pattern m(n-1)+1 inferred from the published dimensions
    assert gf2_rank(desk_h) == 3 * 6 + 1


@pytest.mark.parametrize("preset", config.list_presets())
def test_qc_rank_equals_gf2_rank_on_presets(preset):
    """The rank from the GFT is the bundle's rank, and equals the bit-packed
    elimination on every preset: m(n-1)+1, each nonzero frequency of full rank."""
    bundle = config.build_system(config.load_preset(preset))
    h = bundle.parity_check
    assert bundle.rank == qc_rank(h, bundle.spec.subgroup) == gf2_rank(h) == h.m * (h.n - 1) + 1


def _qc_tables(draw, st, n, max_m):
    """An m x n exponent table whose rows may repeat or shift an earlier row
    by a constant; either makes every E_k rank-deficient."""
    m = draw(st.integers(1, max_m))
    rows = [draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))]
    for _ in range(m - 1):
        kind = draw(st.sampled_from(["new", "repeat", "shift"]))
        if kind == "new":
            rows.append(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
        else:
            base = rows[draw(st.integers(0, len(rows) - 1))]
            shift = 0 if kind == "repeat" else draw(st.integers(1, n - 1))
            rows.append([(e + shift) % n for e in base])
    return np.array(rows)


def test_qc_rank_equals_gf2_rank_hypothesis(sub7):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(data=st.data())
    def run(data):   # desk's field: n = 7, m from 1 to 6
        h = GlobalParityCheck(_qc_tables(data.draw, st, 7, 6))
        assert qc_rank(h, sub7) == gf2_rank(h) == _dense_rank_oracle(h.dense())

    run()


def test_qc_rank_equals_gf2_rank_n89():
    """A few 89-symbol tables over GF(2^11), full rank and deficient."""
    sub = galois.element_of_order(galois.build_field(11), 89)
    rng = np.random.default_rng(89)
    for m in (1, 3, 4):
        expo = rng.integers(0, 89, size=(m, 89))
        tables = [expo]
        if m > 1:
            tables.append(np.vstack([expo, expo[:1]]))          # a repeated row
            tables.append(np.vstack([expo, (expo[1] + 5) % 89]))  # a shifted row
        for table in tables:
            h = GlobalParityCheck(table)
            assert qc_rank(h, sub) == gf2_rank(h)
            assert (qc_rank(h, sub) < len(table) * 88 + 1) == (len(table) > m)


def test_row_masks_match_dense(desk_h):
    rows = [int("".join(map(str, row[::-1])), 2) for row in desk_h.dense()]
    assert list(desk_h.row_masks()) == rows


def test_rank_rows_small_cases():
    assert gf2_rank_rows([0b01, 0b10, 0b11]) == 2
    assert gf2_rank_rows([0, 0]) == 0
    assert gf2_rank_rows([1 << 100, 1 << 100, 1]) == 2


def test_rank_random_matrices_match_oracle():
    rng = np.random.default_rng(29)
    for _ in range(10):
        dense = rng.integers(0, 2, size=(12, 20))
        rows = [int("".join(map(str, row[::-1])), 2) if row.any() else 0
                for row in dense]
        assert gf2_rank_rows(rows) == _dense_rank_oracle(dense)


# -- alist and dense export ----------------------------------------------------


def test_alist_header_and_degrees(desk_h):
    buf = io.StringIO()
    write_alist(desk_h, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "49 21"
    assert lines[1] == "3 7"
    assert lines[2].split() == ["3"] * 49
    assert lines[3].split() == ["7"] * 21


def test_alist_round_trip(desk_h):
    """The 49 column lists and the 21 row lists each read back as H."""
    buf = io.StringIO()
    write_alist(desk_h, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 4 + 49 + 21
    from_cols, from_rows = (np.zeros((21, 49), dtype=np.uint8) for _ in range(2))
    for v, line in enumerate(lines[4:53]):
        from_cols[[int(t) - 1 for t in line.split()], v] = 1
    for c, line in enumerate(lines[53:]):
        from_rows[c, [int(t) - 1 for t in line.split()]] = 1
    assert (from_cols == desk_h.dense()).all() and (from_rows == desk_h.dense()).all()


def test_alist_identity_cpm_column_degrees():
    h = GlobalParityCheck(np.zeros((1, 7), dtype=np.int64))
    buf = io.StringIO()
    write_alist(h, buf)
    assert buf.getvalue().splitlines()[2].split() == ["1"] * 49


def test_dense_text_dump(desk_h):
    buf = io.StringIO()
    write_dense_text(desk_h, buf)
    rows = buf.getvalue().splitlines()
    assert len(rows) == 21
    assert all(len(r) == 49 for r in rows)
    assert all(r.count("1") == 7 for r in rows)
