"""Trajectory data, noise models, and the consistency set Sigma_D.

A batch holds (X-, U-, X+) plus a noise model: the matrix Phi over the
unknown process-noise block. A per-sample ball bound is kept as
(n, T, eps, exponent) and its diagonal (n+T)^2 Phi is never formed on the
data path; only a Phi a user supplies is held dense. The assembled quadratic
form Psi (dimension 2n+m, whatever T is) defines the set of plants consistent
with the data; this module also provides exact membership margins and a
seeded sampler over that set, which is the independent oracle used to verify
data-driven certificates.

On disk a batch is a directory of xminus.csv, uminus.csv and xplus.csv plus
noise.json for a ball model or phi.csv for a user-supplied Phi.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, EmptyInterior, RankDeficientData
from .linalg import as_matrix, check_count, min_eig, symmetrize, read_matrix_csv, write_matrix_csv


@dataclass(frozen=True)
class PlantPair:
    """State and input matrices (A, B) of x+ = A x + B u."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", as_matrix(self.A, name="A"))
        object.__setattr__(self, "B", as_matrix(self.B, rows=self.A.shape[0], name="B"))
        if self.A.shape[0] != self.A.shape[1]:
            raise DimensionMismatch(f"A must be square, got {self.A.shape}")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True, eq=False)
class PlantStack:
    """S plants as stacks A (S, n, n) and B (S, n, m), as `sample_consistent`
    returns them. It reads like a list of `PlantPair`: `len`, iteration, an
    integer index (a `PlantPair`) and a slice (a `PlantStack`)."""

    A: np.ndarray
    B: np.ndarray

    def __len__(self) -> int:
        return self.A.shape[0]

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return PlantStack(A=self.A[idx], B=self.B[idx])
        return PlantPair(A=self.A[idx], B=self.B[idx])

    def __iter__(self):
        return (self[i] for i in range(len(self)))


@dataclass(frozen=True, init=False, eq=False)
class NoiseModel:
    """Quadratic noise bound [I; W^T]^T Phi [I; W^T] >= 0 with Phi in S^{n+T}.

    Either a dense user-supplied Phi (`NoiseModel(phi=..., n=..., T=...)`),
    validated here: Phi11 must be PSD and -Phi22 positive definite. Or the
    per-sample ball bound of `phi_ball`, Phi = blkdiag(T*eps^exponent*I_n,
    -I_T), kept as (n, T, eps, exponent) alone: no (n+T)^2 array is held, and
    `phi` is built on each access.
    """

    n: int
    T: int
    eps: float | None
    exponent: int | None
    _phi: np.ndarray | None = field(repr=False)

    def __init__(self, phi: np.ndarray | None, n: int, T: int, eps: float | None = None,
                 exponent: int | None = None):
        if phi is not None:
            if eps is not None or exponent is not None:
                raise ValueError("give either phi or a ball bound (eps, exponent), not both")
            phi = symmetrize(as_matrix(phi, rows=n + T, cols=n + T, name="Phi"), name="Phi")
            if min_eig(phi[:n, :n]) < -1e-9:
                raise ValueError("Phi11 must be positive semidefinite")
            if not min_eig(-phi[n:, n:]) > 0.0:
                raise ValueError("-Phi22 must be positive definite")
        else:
            if T < 1:
                raise ValueError("T must be >= 1")
            # a NaN passes eps < 0, and True passes exponent in (1, 2)
            if eps is None or isinstance(eps, bool) or not (math.isfinite(eps) and eps >= 0):
                raise ValueError(f"eps must be finite and nonnegative, got {eps!r}")
            if isinstance(exponent, bool) or exponent not in (1, 2):
                raise ValueError(f"exponent must be 1 or 2, got {exponent!r}")
            eps = float(eps)
        for name, value in (("n", n), ("T", T), ("eps", eps), ("exponent", exponent),
                            ("_phi", phi)):
            object.__setattr__(self, name, value)

    def _ball_diagonal(self) -> np.ndarray:
        """Diagonal [T*eps^exponent*1_n, -1_T] of a ball model's Phi."""
        return np.concatenate([np.full(self.n, self.T * (self.eps ** self.exponent)),
                               -np.ones(self.T)])

    @property
    def phi(self) -> np.ndarray:
        return np.diag(self._ball_diagonal()) if self._phi is None else self._phi


def phi_ball(n: int, T: int, eps: float, exponent: int = 1) -> NoiseModel:
    """Noise model for a length-T record with per-time bound ||w(t)||_2 <= eps.

    exponent=1 gives Phi = blkdiag(T*eps*I_n, -I_T), linear in eps;
    exponent=2 substitutes T*eps^2*I_n, the bound actually implied by
    sum_t w(t) w(t)^T <= T*eps^2*I (tight whenever eps != 1; the two coincide
    at eps = 1). Tables of certified bounds in this package use exponent=2.
    The model is stored as (n, T, eps, exponent); see `NoiseModel`.
    """
    return NoiseModel(None, n, T, eps, exponent)


@dataclass(frozen=True)
class DataBatch:
    """Input/state record (X-, U-, X+) with its noise model."""

    xminus: np.ndarray
    uminus: np.ndarray
    xplus: np.ndarray
    noise: NoiseModel

    def __post_init__(self):
        xm = as_matrix(self.xminus, name="xminus")
        um = as_matrix(self.uminus, name="uminus")
        xp = as_matrix(self.xplus, name="xplus")
        T = xm.shape[1]
        if um.shape[1] != T or xp.shape[1] != T:
            raise DimensionMismatch("X-, U-, X+ must share the column count")
        if xp.shape[0] != xm.shape[0]:
            raise DimensionMismatch("X- and X+ must share the row count")
        if self.noise.n != xm.shape[0] or self.noise.T != T:
            raise DimensionMismatch("noise model dimensions do not match the data")
        object.__setattr__(self, "xminus", xm)
        object.__setattr__(self, "uminus", um)
        object.__setattr__(self, "xplus", xp)

    @property
    def n(self) -> int:
        return self.xminus.shape[0]

    @property
    def m(self) -> int:
        return self.uminus.shape[0]

    @property
    def T(self) -> int:
        return self.xminus.shape[1]

    @cached_property
    def psi(self) -> np.ndarray:
        return assemble_psi(self)

    def prefix(self, T: int) -> "DataBatch":
        """First-T-columns sub-batch with the noise model rebuilt for length T."""
        if not 1 <= T <= self.T:
            raise ValueError(f"prefix length must be in 1..{self.T}")
        if self.noise.eps is None:
            raise ValueError("prefix needs a ball noise model (eps known)")
        return DataBatch(self.xminus[:, :T], self.uminus[:, :T], self.xplus[:, :T],
                         phi_ball(self.n, T, self.noise.eps, self.noise.exponent))


def simulate(truth: PlantPair, x0, inputs, eps: float, seed: int,
             exponent: int = 1, on_sphere: bool = False, T: int | None = None):
    """Roll out x+ = A* x + B* u + w with w drawn in the eps-ball, seeded.

    `inputs` may be None, in which case a T-column iid uniform[-1, 1] record
    is drawn first (so reruns with one seed reproduce both inputs and noise).
    Noise columns are uniform in the closed 2-norm ball by default
    (uniform direction, radius eps*u^(1/n)) or on the sphere with `on_sphere`.
    Returns (DataBatch, W) where W is the realized noise, hidden from the
    batch itself; X+ = A* X- + B* U- + W holds exactly.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    n, m = truth.n, truth.m
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != n:
        raise DimensionMismatch(f"x0 must have {n} entries, got {x0.size}")
    rng = np.random.default_rng(seed)
    if inputs is None:
        if T is None:
            raise ValueError("either inputs or T must be given")
        U = rng.uniform(-1.0, 1.0, size=(m, T))
    else:
        U = as_matrix(inputs, rows=m, name="inputs")
        T = U.shape[1]
    directions = rng.standard_normal((n, T))
    directions /= np.linalg.norm(directions, axis=0, keepdims=True)
    if on_sphere:
        radii = np.full(T, eps)
    else:
        radii = eps * rng.uniform(size=T) ** (1.0 / n)
    W = directions * radii

    X = np.zeros((n, T + 1))
    X[:, 0] = x0
    for t in range(T):
        X[:, t + 1] = truth.A @ X[:, t] + truth.B @ U[:, t] + W[:, t]
    xminus = X[:, :-1]
    # recompute the next-state block as one matrix product so the data
    # equation X+ = A X- + B U- + W holds bitwise, not just to roundoff
    xplus = truth.A @ xminus + truth.B @ U + W
    batch = DataBatch(xminus, U, xplus, phi_ball(n, T, eps, exponent))
    return batch, W


def assemble_psi(batch: DataBatch) -> np.ndarray:
    """Psi = M Phi M^T with M = [[I, X+], [0, -X-], [0, -U-]], in S^{2n+m}.

    A ball model's Phi is diagonal, so M Phi is M with its columns scaled by
    that diagonal: the same product, exactly, in O(T (2n+m)) time and memory
    where the dense Phi takes O(T^2). Psi then costs O(T (2n+m)^2).
    """
    n, m, T = batch.n, batch.m, batch.T
    M = np.block([[np.eye(n), batch.xplus],
                  [np.zeros((n, n)), -batch.xminus],
                  [np.zeros((m, n)), -batch.uminus]])
    noise = batch.noise
    if noise.eps is None:
        return symmetrize(M @ noise.phi @ M.T)
    return symmetrize((M * noise._ball_diagonal()) @ M.T)


def consistency(batch: DataBatch, plant: PlantPair) -> float:
    """Membership margin of (A, B) in Sigma_D.

    Returns min_eig([I; A^T; B^T]^T Psi [I; A^T; B^T]); the plant is
    consistent iff the margin is >= 0 (numeric threshold -1e-9).
    """
    if plant.n != batch.n or plant.m != batch.m:
        raise DimensionMismatch("plant dimensions do not match the batch")
    V = np.vstack([np.eye(batch.n), plant.A.T, plant.B.T])
    return min_eig(V.T @ batch.psi @ V)


def _psi_split(batch: DataBatch):
    n = batch.n
    psi = batch.psi
    return psi[:n, :n], psi[:n, n:], psi[n:, n:]


def psi22_definite(psi22) -> bool:
    """True iff -Psi22 is numerically positive definite (full-row-rank data)."""
    return min_eig(-psi22) > 1e-12 * (1.0 + float(np.abs(psi22).max()))


def _sqrt_psd(M, clip_warn: float = 1e-8, name="matrix") -> np.ndarray:
    vals, vecs = np.linalg.eigh(symmetrize(M))
    if vals[0] < -clip_warn:
        warnings.warn(f"{name}: clipping eigenvalue {vals[0]:.3e} to 0 for the square root")
    vals = np.clip(vals, 0.0, None)
    return vecs @ np.diag(np.sqrt(vals)) @ vecs.T


def _center(batch: DataBatch):
    """Psi11, Psi12, Psi22 and Zc = -Psi22^{-1} Psi12^T, the center of
    Sigma_D; raises RankDeficientData when Psi22 is not negative definite."""
    psi11, psi12, psi22 = _psi_split(batch)
    if not psi22_definite(psi22):
        raise RankDeficientData("Psi22 is not negative definite; data lacks row rank")
    return psi11, psi12, psi22, -np.linalg.solve(psi22, psi12.T)


def center_plant(batch: DataBatch) -> PlantPair:
    """Center Zc^T of the matrix ellipsoid Sigma_D (requires Psi22 < 0)."""
    Zc = _center(batch)[3]
    n = batch.n
    return PlantPair(A=Zc[:n, :].T, B=Zc[n:, :].T)


def sample_consistent(batch: DataBatch, count: int, mode: str = "interior",
                      seed: int = 0) -> PlantStack:
    """Seeded plants from Sigma_D via Z = Zc + (-Psi22)^(-1/2) C Delta^(1/2).

    C is a random (n+m) x n contraction: spectral norm == 1 in "boundary"
    mode (margin 0 up to roundoff), <= 1 uniform-scaled in "interior" mode.
    Returns a `PlantStack` of `count` plants, an integer >= 0. The loop
    only draws, in the order of one plant at a time (normal C, then its
    uniform scale); the norms and products run once on the whole
    (count, n+m, n) stack, through the same LAPACK and BLAS calls per
    matrix. Raises RankDeficientData when Psi22 is not negative definite and
    EmptyInterior when the Schur slack Delta is not PSD.
    """
    check_count(count, "count")
    if mode not in ("interior", "boundary"):
        raise ValueError("mode must be 'interior' or 'boundary'")
    psi11, psi12, psi22, Zc = _center(batch)
    n, m = batch.n, batch.m
    delta = symmetrize(psi11 + psi12 @ Zc)
    if min_eig(delta) < -1e-9:
        raise EmptyInterior("Schur slack of Psi is not PSD; Sigma_D has empty interior")
    neg_inv_sqrt = _sqrt_psd(np.linalg.inv(-psi22), name="(-Psi22)^{-1}")
    delta_sqrt = _sqrt_psd(delta, name="Delta")
    rng = np.random.default_rng(seed)
    C = np.empty((count, n + m, n))
    scale = np.empty(count)
    for i in range(count):
        C[i] = rng.standard_normal((n + m, n))
        if mode == "interior":
            scale[i] = rng.uniform()
    C /= np.linalg.svd(C, compute_uv=False)[:, :1, None]
    if mode == "interior":
        C *= scale[:, None, None]
    Z = Zc + neg_inv_sqrt @ C @ delta_sqrt
    return PlantStack(A=Z[:, :n, :].swapaxes(1, 2), B=Z[:, n:, :].swapaxes(1, 2))


# --- on-disk format -------------------------------------------------------

_BATCH_FILES = ("xminus.csv", "uminus.csv", "xplus.csv")


def save_batch(batch: DataBatch, outdir) -> None:
    """Write xminus/uminus/xplus CSVs plus the noise model: noise.json for a
    ball model, phi.csv for a user-supplied Phi."""
    os.makedirs(outdir, exist_ok=True)
    for name, M in zip(_BATCH_FILES, (batch.xminus, batch.uminus, batch.xplus)):
        write_matrix_csv(os.path.join(outdir, name), M)
    noise = batch.noise
    if noise.eps is None:
        write_matrix_csv(os.path.join(outdir, "phi.csv"), noise.phi)
        return
    doc = {"type": "ball", "eps": noise.eps, "T": noise.T, "exponent": noise.exponent}
    with open(os.path.join(outdir, "noise.json"), "w", encoding="ascii") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def _noise_number(doc, key, path, integral, default=None):
    """noise.json's value under key: a JSON number, and an integral one when
    integral is set. int() would truncate a T of 20.5, float() would read a
    JSON true as 1.0."""
    value = doc.get(key, default)
    if value is None:
        raise ValueError(f"{path}: missing key {key!r}")
    kind = "an integer" if integral else "a number"
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or integral and isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{path}: {key}: expected {kind}, got {value!r}")
    try:
        return int(value) if integral else float(value)
    except OverflowError as exc:            # an integer beyond the float range
        raise ValueError(f"{path}: {key}: {exc}") from exc


def load_batch(indir) -> DataBatch:
    """Read a batch directory; noise.json takes precedence over phi.csv, which
    is read only when there is no noise.json."""
    mats = [read_matrix_csv(os.path.join(indir, name)) for name in _BATCH_FILES]
    xm, um, xp = mats
    n, T = xm.shape
    noise_json = os.path.join(indir, "noise.json")
    if os.path.exists(noise_json):
        with open(noise_json, "r", encoding="ascii") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"{noise_json}: expected a JSON object, got {doc!r}")
        if doc.get("type") != "ball":
            raise ValueError(f"{noise_json}: unsupported noise type {doc.get('type')!r}")
        args = [_noise_number(doc, "T", noise_json, True),
                _noise_number(doc, "eps", noise_json, False),
                _noise_number(doc, "exponent", noise_json, True, default=1)]
        try:
            noise = phi_ball(n, *args)
        except ValueError as exc:
            raise ValueError(f"{noise_json}: {exc}") from exc
    else:
        phi = read_matrix_csv(os.path.join(indir, "phi.csv"))
        noise = NoiseModel(phi=phi, n=n, T=T)
    return DataBatch(xm, um, xp, noise)
