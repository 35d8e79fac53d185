"""Vandermonde/GFT matrices, CPM dispersion, and structural validation.

The global parity-check matrix is the binary CPM dispersion of the
m x n root matrix: block (i, j) is the n x n circulant permutation
whose row r carries its single 1 at column (r + j*l_i) mod n.  For
large n the matrix is never materialized densely; everything runs off
the exponent table, and the adjacency derived from it where it is read.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from pathlib import Path

import numpy as np

from .cyclic import BaseCodeSpec
from .galois import SubgroupGen, c_library

#: The library's syndrome count (_flood.c), or None to gather H's rows in numpy.
_syndrome = None if c_library is None else c_library.gftmux_syndrome

#: Largest n for which dense materialization and exhaustive cross-checks run.
DENSE_LIMIT = 31


class ScaleGuard(ValueError):
    """Dense-only operation requested beyond the desk-scale limit."""


def vandermonde(subgroup: SubgroupGen, direction: str = "forward") -> np.ndarray:
    """n x n elements [beta^(i*j)] (forward) or [beta^(-i*j)] (inverse)."""
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    ij = np.outer(np.arange(subgroup.n), np.arange(subgroup.n))
    return subgroup.pow_table[(ij if direction == "forward" else -ij) % subgroup.n]


def cpm(e, n: int) -> np.ndarray:
    """n x n binary circulant permutation: row r has its 1 at (r + e) mod n;
    an array of exponents gives the (..., n, n) stack of their CPMs."""
    e = np.asarray(e, dtype=np.int64)
    bad = e[(e < 0) | (e >= n)]
    if bad.size:
        raise ValueError(f"CPM exponent e={bad[0]} out of range [0, {n})")
    r = np.arange(n)
    return (r == (r[:, None] + e[..., None, None]) % n).astype(np.uint8)


class GlobalParityCheck:
    """mn x n^2 binary QC matrix held as its m x n CPM exponent table:
    block (i, j) is CPM(cpm_exponents[i, j]).

    The Tanner adjacency is derived from the table on first use.
    check_vars[c] lists the n variable columns adjacent to global check
    row c = i*n + r.  Edge slot c*n + j is check c's j-th entry, and
    var_edges[v] lists the m slots of variable v in ascending check
    order.  Column weight is m, row weight n, edge count m*n^2.
    """

    def __init__(self, exponents):
        expo = np.asarray(exponents)
        if expo.ndim != 2:
            raise ValueError(f"CPM exponent table {expo.shape} is not 2-D")
        self.m, self.n = expo.shape
        # the table as the decoding kernel reads it, read-only
        self.cpm_exponents = np.ascontiguousarray(expo, dtype=np.int64) % self.n
        self.cpm_exponents.flags.writeable = False

    def __reduce__(self):
        # a copy goes through the constructor: read-only table, views derived anew
        return GlobalParityCheck, (self.cpm_exponents,)

    @cached_property
    def check_vars(self) -> np.ndarray:
        # check (i, r) touches variable j*n + (r + e(i, j)) mod n for every j
        n, r = self.n, np.arange(self.n, dtype=np.int64)
        cols = (r * n + (r[:, None] + self.cpm_exponents[:, None, :]) % n).reshape(-1, n)
        cols.flags.writeable = False
        return cols

    @cached_property
    def var_edges(self) -> np.ndarray:
        # variable j*n + t sits in check (i, (t - e(i, j)) mod n) at slot j
        n, r, i = self.n, np.arange(self.n, dtype=np.int64), np.arange(self.m, dtype=np.int64)
        row = (r[:, None] - self.cpm_exponents.T[:, None, :]) % n    # [j, t, i]
        slots = ((i * n + row) * n + r[:, None, None]).reshape(n * n, self.m)
        slots.flags.writeable = False
        return slots

    @property
    def n_checks(self) -> int:
        return self.m * self.n

    @property
    def n_vars(self) -> int:
        return self.n * self.n

    @property
    def n_edges(self) -> int:
        return self.m * self.n * self.n

    @property
    def shape(self) -> tuple:
        return (self.n_checks, self.n_vars)

    def syndrome_weight(self, vec):
        """Number of checks whose XOR over vec is nonzero, per word of a
        (..., n^2) stack.

        One routine for GF(2^s) symbols and for the bits of one layer
        alike (the binary decomposition theorem).  The C library counts
        uint8 words with the decoding kernel's rolled XOR over the CPM
        exponents; other dtypes, or no library, gather H's rows in numpy,
        about 4 MB of them at a time.
        """
        vec = np.asarray(vec)
        if vec.shape[-1:] != (self.n_vars,):
            raise ValueError(f"words {vec.shape} do not end in n^2 = {self.n_vars}")
        words = np.ascontiguousarray(vec).reshape(-1, self.n_vars)
        weight = np.empty(len(words), dtype=np.int64)
        if _syndrome is not None and vec.dtype == np.uint8:
            _syndrome(words.ctypes.data, len(words), self.n, self.m,
                      self.cpm_exponents.ctypes.data, weight.ctypes.data)
        else:
            step = max(1, 2 ** 22 // self.check_vars.size)
            for a in range(0, len(words), step):
                parity = np.bitwise_xor.reduce(words[a:a + step, self.check_vars], axis=-1)
                weight[a:a + step] = np.count_nonzero(parity, axis=-1)
        return weight.reshape(vec.shape[:-1])[()]

    def column_weights(self) -> np.ndarray:
        return np.bincount(self.check_vars.reshape(-1), minlength=self.n_vars)

    def row_masks(self):
        """Yield each check row as a Python int whose bit v is H[c, v],
        one row at a time so that no packed copy of H is held."""
        row = np.zeros(self.n_vars, dtype=np.uint8)
        for cols in self.check_vars:
            row[cols] = 1
            yield int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
            row[cols] = 0

    def dense(self) -> np.ndarray:
        if self.n > DENSE_LIMIT:
            raise ScaleGuard(f"dense materialization limited to n <= {DENSE_LIMIT}")
        out = np.zeros(self.shape, dtype=np.uint8)
        np.put_along_axis(out, self.check_vars, 1, axis=1)
        return out


# -- transform similarity ----------------------------------------------


def verify_similarity(spec: BaseCodeSpec, h: GlobalParityCheck, num_blocks: int = 20,
                      rng: np.random.Generator | None = None) -> tuple:
    """Check V.D(i,j).V^-1 == CPM(e(i,j)), D(i,j) = diag(beta^(t*j*l_i)).

    All m*n blocks when n <= DENSE_LIMIT, else num_blocks drawn by rng
    (seed 0 by default).  V.D scales the columns of V, and one stacked
    product by V^-1 covers every block.  Returns (blocks checked, the first
    failing block (i, j) in checking order, or None).
    """
    n, m, field = spec.n, spec.m, spec.field
    if n <= DENSE_LIMIT:
        blocks = np.arange(m * n)
    else:
        rng = np.random.default_rng(0) if rng is None else rng
        blocks = rng.choice(m * n, size=min(num_blocks, m * n), replace=False)
    i, j = np.divmod(blocks, n)
    l_i = np.asarray(spec.roots, dtype=np.int64)[i]
    diag = spec.subgroup.pow_table[(j * l_i)[:, None] * np.arange(n) % n]
    vd = field.mul_arr(vandermonde(spec.subgroup), diag[:, None, :])
    product = field.matmul(vd, vandermonde(spec.subgroup, "inverse"))
    bad = (product != cpm(h.cpm_exponents[i, j], n)).any(axis=(1, 2)).nonzero()[0]
    return len(blocks), (int(i[bad[0]]), int(j[bad[0]])) if bad.size else None


# -- RC constraint and girth -------------------------------------------


def rc_check(h: GlobalParityCheck) -> tuple | None:
    """The first RC violation (i1, i2, j1, j2), or None: no two rows may
    share more than one 1-entry.

    Blocks (i1, j1), (i1, j2), (i2, j1), (i2, j2) close a 4-cycle iff
    e(i1,j1) - e(i1,j2) - e(i2,j1) + e(i2,j2) = 0 mod n, i.e. iff the
    difference row e(i1,.) - e(i2,.) mod n repeats a value.  The first
    pair i1 < i2 with a repeat names its first one; for n <= 31 the result
    is cross-validated by pairwise row-support intersection.
    """
    i1, i2 = np.triu_indices(h.m, 1)
    d = (h.cpm_exponents[i1] - h.cpm_exponents[i2]) % h.n
    order = np.argsort(d, axis=1, kind="stable")    # stable: j1 < j2 within a repeat
    ds = np.take_along_axis(d, order, axis=1)
    repeats = np.argwhere(ds[:, 1:] == ds[:, :-1])   # row-major: (pair, position)
    violation = None
    if repeats.size:
        p, k = repeats[0]
        violation = (int(i1[p]), int(i2[p]), int(order[p, k]), int(order[p, k + 1]))
    if h.n <= DENSE_LIMIT:
        brute_ok = all((a & b).bit_count() <= 1 for a, b in combinations(h.row_masks(), 2))
        if brute_ok != (violation is None):
            raise AssertionError("algebraic RC criterion disagrees with brute force")
    return violation


def _bfs_girth(adj: list) -> int:
    """Shortest cycle length via BFS from every vertex; inf if acyclic."""
    from collections import deque

    nvert = len(adj)
    best = np.inf
    for src in range(nvert):
        dist = {src: 0}
        parent = {src: -1}
        dq = deque([src])
        while dq:
            u = dq.popleft()
            if 2 * dist[u] >= best - 1:
                continue
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    dq.append(w)
                elif w != parent[u]:
                    best = min(best, dist[u] + dist[w] + 1)
    return int(best) if np.isfinite(best) else 0


def girth_lower_bound(h: GlobalParityCheck) -> int:
    """Exact Tanner-graph girth for n <= 31; the RC-implied bound above.

    RC pass guarantees no 4-cycles, hence girth >= 6 in a bipartite
    graph; RC failure pins a 4-cycle.
    """
    rc_ok = rc_check(h) is None
    if h.n > DENSE_LIMIT:
        return 6 if rc_ok else 4
    # checks are vertices 0..mn-1 and variable v is vertex mn + v
    g = _bfs_girth((h.check_vars + h.n_checks).tolist() + (h.var_edges // h.n).tolist())
    if rc_ok and not (g == 0 or g >= 6):
        raise AssertionError("BFS girth contradicts the RC constraint")
    return g


# -- GF(2) rank ---------------------------------------------------------


def qc_rank(h: GlobalParityCheck, subgroup: SubgroupGen) -> int:
    """Rank of h over GF(2) from its GFT.  V takes
    CPM(e) to diag(beta^(k e)), so over GF(2^s) H is equivalent to the direct
    sum of the m x n E_k[i, j] = beta^(k e_ij), k < n, and rank does not change
    under field extension.  E_0 is all ones (rank 1), and Frobenius maps E_k
    to E_2k, so each coset of 2 mod n (n prime) adds its size times the rank
    of one member.  The members are eliminated together with log/antilog
    tables, in the smallest dtype that holds two logs."""
    n, field = h.n, subgroup.field
    powers = {pow(2, t, n) for t in range(n)}   # the coset of 1
    reps = [min(c) for c in {frozenset(k * p % n for p in powers) for k in range(1, n)}]
    dt = np.min_scalar_type(2 * (field.order - 1))
    log, exp = field.log_table.astype(dt), np.tile(field.antilog_table, 2).astype(dt)
    a, at = np.empty((len(reps), h.m, n), dtype=dt), np.arange(len(reps))
    for r, k in enumerate(reps):
        a[r] = subgroup.pow_table[k * h.cpm_exponents % n]
    for i in range(h.m):   # row i clears its pivot column from rows i+1.. of its E_k
        row, rest = a[:, i], a[:, i + 1:]
        p = (row != 0).argmax(axis=1)
        # rest_r <- piv * rest_r + f_r * row (exp[log a + log b] = ab), piv = 1 if row i is 0
        piv, f = np.where(row[at, p] != 0, row[at, p], 1), rest[at, :, p]
        rest[...] = (np.where(rest != 0, exp[log[rest] + log[piv][:, None, None]], 0)
                     ^ np.where((f != 0)[..., None] & (row != 0)[:, None, :],
                                exp[log[f][..., None] + log[row][:, None, :]], 0))
    return 1 + len(powers) * int((a != 0).any(axis=2).sum())   # the nonzero rows left


# -- interchange formats --------------------------------------------------


def write_alist(h: GlobalParityCheck, destination) -> None:
    """Standard alist text: header, largest degrees, degree lists, 1-based
    indices.  No column or row of H is empty, so no list needs a 0 pad."""
    # var_edges lists each variable's edge slots c*n + j in ascending check order
    cols, rows = h.var_edges // h.n + 1, np.sort(h.check_vars, axis=1) + 1
    (nc, dc), (nr, dr) = cols.shape, rows.shape
    lines = [f"{nc} {nr}", f"{dc} {dr}", " ".join([str(dc)] * nc), " ".join([str(dr)] * nr)]
    lines += [" ".join(map(str, adj)) for adj in cols.tolist() + rows.tolist()]
    _write_text("\n".join(lines) + "\n", destination)


def write_dense_text(h: GlobalParityCheck, destination) -> None:
    """Debug dump: one 0/1 text row per matrix row (n <= 31 only)."""
    _write_text("\n".join("".join(str(b) for b in row) for row in h.dense()) + "\n",
                destination)


def _write_text(text: str, destination) -> None:
    """Write text to an open text file or to a path."""
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        Path(destination).write_text(text)
