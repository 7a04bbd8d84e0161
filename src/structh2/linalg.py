"""Dense matrix kernel: Lyapunov solves, spectral oracles, CSV matrix I/O.

Matrices are plain float ndarrays. Symmetric matrices are kept symmetric by
construction: run solver or file input through `symmetrize` before trusting
eigenvalue routines. These oracles are the independent verification path for
every LMI certificate produced elsewhere, so they deliberately avoid the
modeling and solver layers. Everything here is a pure function of immutable
inputs; results are safe to share across threads.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, UnstableMatrix

STABILITY_MARGIN = 1e-9


def as_matrix(a, rows=None, cols=None, name="matrix") -> np.ndarray:
    """Coerce to a 2-D float array and validate shape and finiteness."""
    M = np.atleast_2d(np.asarray(a, dtype=float))
    if M.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got ndim={M.ndim}")
    if rows is not None and M.shape[0] != rows:
        raise DimensionMismatch(f"{name} must have {rows} rows, got {M.shape[0]}")
    if cols is not None and M.shape[1] != cols:
        raise DimensionMismatch(f"{name} must have {cols} cols, got {M.shape[1]}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def symmetrize(M, name="matrix") -> np.ndarray:
    """Return (M + M^T)/2; `M` must be square.

    Solver and file inputs carry roundoff-level asymmetry; everything
    downstream assumes exact symmetry.
    """
    M = as_matrix(M, name=name)
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{name} must be square to symmetrize, got {M.shape}")
    return 0.5 * (M + M.T)


def spectral_radius(A) -> float:
    A = as_matrix(A, name="A")
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"spectral_radius needs a square matrix, got {A.shape}")
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def min_eig(M) -> float:
    """Smallest eigenvalue of a (nearly) symmetric matrix."""
    return float(np.linalg.eigvalsh(symmetrize(M))[0])


def is_psd(M, shift: float = 0.0) -> bool:
    """Cholesky-based PSD test of M + shift*I (independent of `min_eig`)."""
    M = symmetrize(M) + shift * np.eye(np.atleast_2d(M).shape[0])
    try:
        np.linalg.cholesky(M + 0.0)
        return True
    except np.linalg.LinAlgError:
        return False


def solve_dlyap(Acl, M) -> np.ndarray:
    """Solve P = Acl P Acl^T + M for symmetric M and Schur-stable Acl.

    Vectorized linear solve through (I - Acl (x) Acl); exact at the problem
    sizes used here, preferred over iteration for verification duty.
    """
    Acl = as_matrix(Acl, name="Acl")
    n = Acl.shape[0]
    if Acl.shape[1] != n:
        raise DimensionMismatch(f"Acl must be square, got {Acl.shape}")
    M = symmetrize(as_matrix(M, rows=n, cols=n, name="M"), name="M")
    if spectral_radius(Acl) >= 1.0 - STABILITY_MARGIN:
        raise UnstableMatrix("solve_dlyap needs spectral_radius(Acl) < 1 - 1e-9")
    lhs = np.eye(n * n) - np.kron(Acl, Acl)
    P = np.linalg.solve(lhs, M.reshape(-1)).reshape(n, n)
    return symmetrize(P)


def dlyap_series(Acl, M, terms: int = 200) -> np.ndarray:
    """Truncated series sum_k Acl^k M (Acl^T)^k; verification fallback for solve_dlyap."""
    Acl = as_matrix(Acl, name="Acl")
    M = symmetrize(as_matrix(M, name="M"), name="M")
    P = M.copy()
    term = M.copy()
    for _ in range(terms - 1):
        term = Acl @ term @ Acl.T
        P += term
    return symmetrize(P)


def h2_norm(Acl, E, Ccl) -> float:
    """H2 norm of Ccl (zI - Acl)^{-1} E for a Schur-stable Acl.

    Computed as sqrt(trace(Ccl Pc Ccl^T)) with Pc the controllability Gramian
    from `solve_dlyap(Acl, E E^T)`. Raises UnstableMatrix otherwise.
    """
    Acl = as_matrix(Acl, name="Acl")
    n = Acl.shape[0]
    E = as_matrix(E, rows=n, name="E")
    Ccl = as_matrix(Ccl, cols=n, name="Ccl")
    Pc = solve_dlyap(Acl, E @ E.T)
    val = float(np.trace(Ccl @ Pc @ Ccl.T))
    return float(np.sqrt(max(val, 0.0)))


def read_matrix_csv(path) -> np.ndarray:
    """Read a headerless CSV matrix; rejects ragged rows."""
    rows = []
    width = None
    with open(path, "r", encoding="ascii") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise ValueError(f"{path}: ragged row at line {ln} "
                                 f"({len(parts)} fields, expected {width})")
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise ValueError(f"{path}: bad number at line {ln}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    return np.asarray(rows, dtype=float)


def write_matrix_csv(path, M) -> None:
    """Write a matrix as headerless CSV with full float round-trip precision."""
    M = as_matrix(M, name="matrix")
    # %-formatting with "%.17g" gives the bytes format(v, ".17g") gives; rows
    # are converted one at a time so a large matrix is never held as a list
    line = ",".join(["%.17g"] * M.shape[1]) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for row in M:
            fh.write(line % tuple(row.tolist()))
