"""Controller structure: gain subspaces, representation matrices, and Upsilon(S).

A subspace S of m-by-n gains is carried as an explicit basis {S_1..S_k}
together with the representation matrix [S_1 ... S_k]. Sparsity patterns are
the common special case; basis order for patterns is the row-major scan of
the free positions, so representation matrices and constraint indices are
reproducible.

Upsilon(S) is the set of square matrices R for which membership of L in S
plus invertibility of R force L R^{-1} back into S. The paper writes it as
S(I_k (x) R) = S(M (x) I_n) with a k-by-k multiplier M; block l reads
S_l R = sum_t M[t, l] S_t, and since the S_t are independent M is fixed by R.
Upsilon(S) = {R : S_l R in S for every l} is therefore itself a subspace,
returned by `upsilon_constraints`; the least-squares membership test
`upsilon_member` keeps the multiplier as an independent check.

The sharing constraint 1^T K = 0 is one more subspace: with L in
{L in S : 1^T L = 0}, returned by `sharing_subspace`, and R in Upsilon(S),
K = L R^{-1} satisfies 1^T K = (1^T L) R^{-1} = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptySubspace
from .linalg import as_matrix


@dataclass(frozen=True)
class SubspaceSpec:
    """Gain subspace with basis, optional sparsity pattern, and representation matrix."""

    m: int
    n: int
    basis: tuple
    pattern: np.ndarray | None = None

    @property
    def k(self) -> int:
        return len(self.basis)

    @property
    def repmat(self) -> np.ndarray:
        """Horizontal concatenation [S_1 ... S_k], shape m x (n*k)."""
        return np.hstack(self.basis)

    @property
    def vec_basis(self) -> np.ndarray:
        """Row-major vecs of the basis as columns, shape (m*n) x k."""
        if not self.basis:
            return np.zeros((self.m * self.n, 0))
        return np.column_stack([S.reshape(-1) for S in self.basis])

    def project(self, K) -> np.ndarray:
        """Orthogonal projection of K onto the subspace."""
        K = as_matrix(K, rows=self.m, cols=self.n, name="K")
        B = self.vec_basis
        coef, *_ = np.linalg.lstsq(B, K.reshape(-1), rcond=None)
        return (B @ coef).reshape(self.m, self.n)


def from_pattern(pattern) -> SubspaceSpec:
    """Build the subspace {K : K[i,j] = 0 where pattern[i,j] = 0}.

    Basis elements are e_i e_j^T for each free position, row-major.
    """
    P = np.asarray(pattern)
    if P.ndim != 2:
        raise DimensionMismatch("pattern must be a 2-D 0/1 array")
    if not np.all((P == 0) | (P == 1)):
        raise ValueError("pattern entries must be 0 or 1")
    m, n = P.shape
    basis = [np.eye(1, m * n, f).reshape(m, n) for f in np.flatnonzero(P == 1)]
    if not basis:
        raise EmptySubspace("pattern has no free entries")
    return SubspaceSpec(m=m, n=n, basis=tuple(basis), pattern=P.astype(int))


def from_basis(mats) -> SubspaceSpec:
    """Build a subspace from explicit (linearly independent) basis matrices."""
    mats = [as_matrix(S, name="basis element") for S in mats]
    if not mats:
        raise EmptySubspace("basis is empty")
    m, n = mats[0].shape
    for S in mats:
        if S.shape != (m, n):
            raise DimensionMismatch("basis elements must share one shape")
    V = np.column_stack([S.reshape(-1) for S in mats])
    if np.linalg.matrix_rank(V) != len(mats):
        raise ValueError("basis matrices are linearly dependent")
    return SubspaceSpec(m=m, n=n, basis=tuple(mats), pattern=None)


def contains(spec: SubspaceSpec, K, tol: float = 1e-7) -> bool:
    """True iff the distance from K to the subspace is <= tol * (1 + ||K||_F)."""
    K = as_matrix(K, rows=spec.m, cols=spec.n, name="K")
    resid = np.linalg.norm(K - spec.project(K))
    return bool(resid <= tol * (1.0 + np.linalg.norm(K)))


def upsilon_constraints(spec: SubspaceSpec) -> SubspaceSpec:
    """Upsilon(S) = {R : S_l R in S for every l} as a subspace of n-by-n matrices.

    A pattern subspace gives the pattern of `upsilon_free_mask`. A general
    basis gives the null space of R -> (P vec(S_l R))_l, where P projects onto
    the complement of span(S) and row-major vec(S_l R) = (S_l (x) I_n) vec(R).
    The rank tolerance scales with the S_l, not with the map's largest
    singular value: when Upsilon(S) is everything the map is pure roundoff.
    """
    if spec.pattern is not None:
        return from_pattern(upsilon_free_mask(spec))
    n = spec.n
    U, _ = np.linalg.qr(spec.vec_basis)
    M = np.vstack([K - U @ (U.T @ K)
                   for K in (np.kron(S, np.eye(n)) for S in spec.basis)])
    _, sv, Vt = np.linalg.svd(M)
    tol = max(M.shape) * np.finfo(float).eps * max(np.linalg.norm(S, 2) for S in spec.basis)
    return from_basis(Vt[int(np.count_nonzero(sv > tol)):].reshape(-1, n, n))


def sharing_subspace(spec: SubspaceSpec) -> SubspaceSpec:
    """{L in S : 1^T L = 0}: the null space of c -> 1^T (sum_i c_i S_i).

    The result has dimension k - rank of that map. When it is {0} the
    returned spec has an empty basis (k = 0), which `from_basis` rejects.
    """
    M = np.column_stack([S.sum(axis=0) for S in spec.basis])
    _, sv, Vt = np.linalg.svd(M)
    tol = max(M.shape) * np.finfo(float).eps * max(np.linalg.norm(S, 2) for S in spec.basis)
    null = Vt[int(np.count_nonzero(sv > tol)):]
    if not null.size:
        return SubspaceSpec(m=spec.m, n=spec.n, basis=())
    return from_basis((null @ spec.vec_basis.T).reshape(-1, spec.m, spec.n))


def _lambda_lstsq(spec: SubspaceSpec, Q: np.ndarray):
    """Least-squares Lam for S(I (x) Q) = S(Lam (x) I) and its residual.

    Block l reads S_l Q = sum_t Lam[t, l] S_t: one fit per column of Lam.
    """
    B = spec.vec_basis
    target = np.column_stack([(S @ Q).reshape(-1) for S in spec.basis])
    Lam, *_ = np.linalg.lstsq(B, target, rcond=None)
    return Lam, float(np.linalg.norm(B @ Lam - target))


def upsilon_member(spec: SubspaceSpec, Q, tol: float = 1e-7) -> bool:
    """True iff some Lam achieves ||S(I (x) Q) - S(Lam (x) I)||_F <= tol * (1 + ||Q||_F)."""
    Q = as_matrix(Q, rows=spec.n, cols=spec.n, name="Q")
    _, resid = _lambda_lstsq(spec, Q)
    return bool(resid <= tol * (1.0 + np.linalg.norm(Q)))


def upsilon_free_mask(spec: SubspaceSpec) -> np.ndarray:
    """Free-entry mask of Upsilon(S) for pattern subspaces.

    Entry (j, c) of Q may be nonzero iff every pattern row i with a free
    (i, j) also has (i, c) free. For the 2x3 example pattern this reproduces
    a matrix with zeros exactly at (1,3), (2,1), (2,3), (3,1) and every
    other entry free.
    Only defined for pattern-derived subspaces.
    """
    if spec.pattern is None:
        raise ValueError("upsilon_free_mask needs a pattern-derived subspace")
    # (j, c) is blocked by each row i with (i, j) free and (i, c) not
    free = (spec.pattern == 1).astype(int)
    return free.T @ (1 - free) == 0


def read_pattern_csv(path) -> np.ndarray:
    """Read a 0/1 pattern from CSV."""
    from .linalg import read_matrix_csv

    M = read_matrix_csv(path)
    if not np.all((M == 0) | (M == 1)):
        raise ValueError(f"{path}: pattern entries must be 0 or 1")
    return M.astype(int)


def read_basis_csv(path) -> list:
    """Read concatenated m x n CSV blocks separated by blank lines."""
    blocks, current = [], []
    width = None
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                if current:
                    blocks.append(np.asarray(current, dtype=float))
                    current = []
                continue
            parts = [float(p) for p in line.split(",")]
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise ValueError(f"{path}: ragged row in basis file")
            current.append(parts)
    if current:
        blocks.append(np.asarray(current, dtype=float))
    if not blocks:
        raise EmptySubspace(f"{path}: no basis blocks found")
    return blocks
