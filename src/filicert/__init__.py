"""Exact-arithmetic verification of degeneration certificates for
8-dimensional filiform Lie algebras.

The package bundles a catalog of filiform brackets together with linear
deformations (built from a diagonal derivation of a codimension-1 ideal) and
explicit matrix families certifying that each deformation realizes a
degeneration.  Everything is checked as an identity of Laurent polynomials
over exact rationals; there is no floating point and no tolerance anywhere.
"""

from .dataio import (AlgebraFile, DeformationBlock, Erratum, VERIFIED_NAMES,
                     apply_errata, certificate_matrix, data_dir, load_algebra,
                     load_corpus, parse_algebra, serialize_algebra,
                     structure_constants)
from .deformation import (CheckedDeformation, DeformationSpec, Failure, STAGES,
                          StageResult, VerificationReport, block_spectrum_check,
                          check_deformation, counterexample_spec, deform,
                          go_cocycle, limit_check, run_certificate_checks,
                          verify_degeneration)
from .errors import (DimensionMismatch, FilicertError, InvalidSpec,
                     NegativeExponent, NotAUnit, NotInvariant, ParseError,
                     ValidationError, ZeroSpecialization)
from .invariants import (RationalAlgebra, center_dim, derivation_algebra,
                         derived_series, filiform_profile,
                         is_characteristically_nilpotent, is_filiform,
                         lower_central_series)
from .lie import (Cochain2, JacobiReport, StructureConstants, SubspaceSpec,
                  basis_column, cocycle_check, is_derivation, is_ideal,
                  jacobi_check, restrict)
from .linalg import RationalMatrix, ScalarMatrix, span_basis
from .scalar import ALPHA, ONE, Scalar, T, ZERO, as_scalar

__version__ = "0.1.0"
