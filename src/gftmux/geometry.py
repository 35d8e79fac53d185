"""Vandermonde/GFT matrices, CPM dispersion, and structural validation.

The global parity-check matrix is the binary CPM dispersion of the
m x n root matrix: block (i, j) is the n x n circulant permutation
whose row r carries its single 1 at column (r + j*l_i) mod n.  For
large n the matrix is never materialized densely; everything runs off
the exponent table and the derived adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclic import BaseMatrix, DuplicateRoots
from .galois import SubgroupGen

#: Largest n for which dense materialization / brute-force cross-checks run.
DENSE_LIMIT = 31


class ScaleGuard(ValueError):
    """Dense-only operation requested beyond the desk-scale limit."""


@dataclass(eq=False)
class VandermondeMatrix:
    """n x n matrix [beta^(i*j)] (forward) or [beta^(-i*j)] (inverse)."""

    subgroup: SubgroupGen
    exponents: np.ndarray
    direction: str

    @property
    def n(self) -> int:
        return self.subgroup.n

    def elements(self) -> np.ndarray:
        return self.subgroup.pow_table[self.exponents]


def vandermonde(subgroup: SubgroupGen, direction: str = "forward") -> VandermondeMatrix:
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    n = subgroup.n
    ij = np.arange(n, dtype=np.int64)[:, None] * np.arange(n, dtype=np.int64)[None, :]
    expo = ij % n if direction == "forward" else (-ij) % n
    return VandermondeMatrix(subgroup=subgroup, exponents=expo, direction=direction)


def cpm(e: int, n: int) -> np.ndarray:
    """n x n binary circulant permutation: row r has its 1 at (r + e) mod n."""
    if not 0 <= e < n:
        raise ValueError(f"CPM exponent e={e} out of range [0, {n})")
    out = np.zeros((n, n), dtype=np.uint8)
    r = np.arange(n)
    out[r, (r + e) % n] = 1
    return out


@dataclass(eq=False)
class GlobalParityCheck:
    """mn x n^2 binary QC matrix held as a CPM exponent table.

    check_vars[c] lists the n variable columns adjacent to global check
    row c = i*n + r.  Column weight is m, row weight n, edge count m*n^2.
    """

    m: int
    n: int
    cpm_exponents: np.ndarray
    check_vars: np.ndarray

    @classmethod
    def from_exponents(cls, exponents) -> "GlobalParityCheck":
        expo = np.asarray(exponents, dtype=np.int64)
        m, n = expo.shape
        r = np.arange(n, dtype=np.int64)
        j = np.arange(n, dtype=np.int64)
        # check (i, r) touches variable j*n + (r + e(i, j)) mod n for every j
        cols = j[None, None, :] * n + (r[None, :, None] + expo[:, None, :]) % n
        return cls(m=m, n=n, cpm_exponents=expo, check_vars=cols.reshape(m * n, n))

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

    def syndrome_values(self, vec) -> np.ndarray:
        """Per-check XOR accumulation; GF(2^s) symbols and bits alike."""
        vec = np.asarray(vec, dtype=np.int64)
        return np.bitwise_xor.reduce(vec[self.check_vars], axis=1)

    def syndrome_weight(self, vec) -> int:
        return int(np.count_nonzero(self.syndrome_values(vec)))

    def column_weights(self) -> np.ndarray:
        return np.bincount(self.check_vars.reshape(-1), minlength=self.n_vars)

    def row_weights(self) -> np.ndarray:
        return np.full(self.n_checks, self.check_vars.shape[1])

    def dense(self) -> np.ndarray:
        if self.n > DENSE_LIMIT:
            raise ScaleGuard(f"dense materialization limited to n <= {DENSE_LIMIT}")
        out = np.zeros(self.shape, dtype=np.uint8)
        rows = np.repeat(np.arange(self.n_checks), self.check_vars.shape[1])
        out[rows, self.check_vars.reshape(-1)] = 1
        return out


def cpm_dispersion(bmat: BaseMatrix) -> GlobalParityCheck:
    """Disperse the k=1 root matrix into the global QC parity check."""
    if bmat.hadamard_k != 1:
        raise ValueError("CPM dispersion is defined on the k=1 base matrix")
    roots = bmat.exponents[:, 1]  # column j=1 recovers l_i mod n
    if len(set(int(l) for l in roots)) != bmat.m:
        raise DuplicateRoots(f"root exponents {sorted(roots)} collide mod {bmat.n}")
    h = GlobalParityCheck.from_exponents(bmat.exponents)
    if not (h.column_weights() == bmat.m).all():
        raise RuntimeError(f"CPM dispersion column weights differ from m={bmat.m}")
    return h


# -- RC constraint and girth -------------------------------------------


@dataclass
class RcReport:
    ok: bool
    violation: tuple | None
    brute_forced: bool

    def __bool__(self):
        return self.ok


def rc_check(h: GlobalParityCheck, brute_force: bool | None = None) -> RcReport:
    """No two rows may share more than one 1-entry.

    Blocks (i1, j1), (i1, j2), (i2, j1), (i2, j2) close a 4-cycle iff
    e(i1,j1) - e(i1,j2) - e(i2,j1) + e(i2,j2) = 0 mod n, i.e. iff the
    difference row e(i1,.) - e(i2,.) mod n repeats a value.  For n <= 31
    the result is cross-validated by pairwise row-support intersection.
    """
    expo, n, m = h.cpm_exponents, h.n, h.m
    violation = None
    for i1 in range(m):
        for i2 in range(i1 + 1, m):
            d = (expo[i1] - expo[i2]) % n
            order = np.argsort(d, kind="stable")
            ds = d[order]
            dup = np.nonzero(ds[1:] == ds[:-1])[0]
            if dup.size:
                j1, j2 = sorted((int(order[dup[0]]), int(order[dup[0] + 1])))
                violation = (i1, i2, j1, j2)
                break
        if violation:
            break
    ok = violation is None

    if brute_force is None:
        brute_force = n <= DENSE_LIMIT
    if brute_force:
        if n > DENSE_LIMIT:
            raise ScaleGuard(f"brute-force RC check limited to n <= {DENSE_LIMIT}")
        masks = [0] * h.n_checks
        for c, cols in enumerate(h.check_vars):
            for v in cols:
                masks[c] |= 1 << int(v)
        brute_ok = all(
            (masks[a] & masks[b]).bit_count() <= 1
            for a in range(len(masks))
            for b in range(a + 1, len(masks))
        )
        if brute_ok != ok:
            raise AssertionError("algebraic RC criterion disagrees with brute force")
    return RcReport(ok=ok, violation=violation, brute_forced=brute_force)


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
    rc = rc_check(h, brute_force=False)
    if h.n > DENSE_LIMIT:
        return 6 if rc.ok else 4
    nc = h.n_checks
    adj = [[] for _ in range(nc + h.n_vars)]
    for c, cols in enumerate(h.check_vars):
        for v in cols:
            adj[c].append(nc + int(v))
            adj[nc + int(v)].append(c)
    g = _bfs_girth(adj)
    if rc.ok and not (g == 0 or g >= 6):
        raise AssertionError("BFS girth contradicts the RC constraint")
    return g


# -- GF(2) rank ---------------------------------------------------------


def gf2_rank(h: GlobalParityCheck) -> int:
    """Rank over GF(2) via bit-packed elimination on int rows."""
    rows = []
    for cols in h.check_vars:
        row = 0
        for v in cols:
            row |= 1 << int(v)
        rows.append(row)
    return gf2_rank_rows(rows)


def gf2_rank_rows(rows: list) -> int:
    """Rank of arbitrary bit-mask rows, leading-bit pivoting."""
    pivots: dict = {}
    rank = 0
    for row in rows:
        row = int(row)
        while row:
            b = row.bit_length() - 1
            p = pivots.get(b)
            if p is None:
                pivots[b] = row
                rank += 1
                break
            row ^= p
    return rank


def global_code_dimension(h: GlobalParityCheck) -> int:
    return h.n_vars - gf2_rank(h)


# -- interchange formats --------------------------------------------------


@dataclass
class AlistMatrix:
    """Sparse binary matrix parsed from / destined for alist text."""

    n_cols: int
    n_rows: int
    col_adj: list
    row_adj: list

    @property
    def max_col_degree(self) -> int:
        return max((len(c) for c in self.col_adj), default=0)

    @property
    def max_row_degree(self) -> int:
        return max((len(r) for r in self.row_adj), default=0)


def to_alist(h: GlobalParityCheck) -> AlistMatrix:
    row_adj = [sorted(int(v) for v in cols) for cols in h.check_vars]
    col_adj = [[] for _ in range(h.n_vars)]
    for c, cols in enumerate(row_adj):
        for v in cols:
            col_adj[v].append(c)
    return AlistMatrix(n_cols=h.n_vars, n_rows=h.n_checks,
                       col_adj=col_adj, row_adj=row_adj)


def write_alist(h_or_alist, destination) -> None:
    """Standard alist text: header, max degrees, degree lists, 1-based indices."""
    a = h_or_alist if isinstance(h_or_alist, AlistMatrix) else to_alist(h_or_alist)
    lines = [
        f"{a.n_cols} {a.n_rows}",
        f"{a.max_col_degree} {a.max_row_degree}",
        " ".join(str(len(c)) for c in a.col_adj),
        " ".join(str(len(r)) for r in a.row_adj),
    ]
    lines += [" ".join(str(i + 1) for i in c) for c in a.col_adj]
    lines += [" ".join(str(i + 1) for i in r) for r in a.row_adj]
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w") as fh:
            fh.write(text)


def read_alist(source) -> AlistMatrix:
    if hasattr(source, "read"):
        tokens_rows = [ln.split() for ln in source.read().splitlines()]
    else:
        with open(source) as fh:
            tokens_rows = [ln.split() for ln in fh.read().splitlines()]
    rows = [[int(t) for t in r] for r in tokens_rows if r]
    n_cols, n_rows = rows[0]
    col_deg = rows[2]
    row_deg = rows[3]
    if len(col_deg) != n_cols or len(row_deg) != n_rows:
        raise ValueError("alist degree lists do not match the declared shape")
    col_adj = [sorted(i - 1 for i in rows[4 + c][: col_deg[c]]) for c in range(n_cols)]
    row_adj = [
        sorted(i - 1 for i in rows[4 + n_cols + r][: row_deg[r]]) for r in range(n_rows)
    ]
    return AlistMatrix(n_cols=n_cols, n_rows=n_rows, col_adj=col_adj, row_adj=row_adj)


def write_dense_text(h: GlobalParityCheck, destination) -> None:
    """Debug dump: one 0/1 text row per matrix row (n <= 31 only)."""
    dense = h.dense()
    text = "\n".join("".join(str(b) for b in row) for row in dense) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w") as fh:
            fh.write(text)
