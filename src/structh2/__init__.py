"""Structured state-feedback H2 synthesis from models or noisy data."""

from .dataset import (DataBatch, NoiseModel, PlantPair, PlantStack, assemble_psi,
                      center_plant, consistency, load_batch, phi_ball, sample_consistent,
                      save_batch, simulate)
from .errors import (ConfigError, DimensionMismatch, EmptyInterior, EmptySubspace,
                     RankDeficientData, RankDeficientDataWarning,
                     SingularInnerBlock, StructH2Error, StructureViolation,
                     UnboundedShape, UnstableClosedLoop, UnstableMatrix)
from .linalg import (h2_norm, min_eig, read_matrix_csv, solve_dlyap, spectral_radius,
                     symmetrize, write_matrix_csv)
from .lmi import ConicForm, LmiProblem, MatExpr, MatrixVar, block, smat, svec
from .plants import (EXAMPLE1_PATTERN, EXAMPLE1_X0, default_perf, example1_perf,
                     example1_plant, example1_subspace)
from .solver import SolveReport, SolverOptions, infeasibility_residual, solve
from .subspace import (SubspaceSpec, contains, from_basis, from_pattern,
                       sharing_subspace, upsilon_constraints, upsilon_free_mask,
                       upsilon_member)
from .synthesis import (DESIGNS, DesignOptions, PerformanceSpec, SynthesisResult,
                        certify_fixed_k, design_data, design_model, slemma_holds)
from .verification import VerificationReport, verify_data, verify_model

__version__ = "0.1.0"
