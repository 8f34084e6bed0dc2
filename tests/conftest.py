from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import settings

import filicert as fc
from filicert import (Cochain2, DeformationSpec, ScalarMatrix, StructureConstants,
                      SubspaceSpec)

settings.register_profile("exact", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("exact")


@pytest.fixture(scope="session")
def corpus():
    return fc.load_corpus()


@dataclass(frozen=True)
class TableData:
    """One catalog entry elaborated into core objects (corrected variant)."""

    alg: fc.AlgebraFile
    mu: StructureConstants
    g: ScalarMatrix
    ideal: SubspaceSpec
    outside: int
    derivation: ScalarMatrix
    phi: Cochain2
    mu_t: StructureConstants
    mu1: StructureConstants
    reciprocal: bool


@pytest.fixture(scope="session")
def tables(corpus) -> dict[str, TableData]:
    out = {}
    for name in fc.VERIFIED_NAMES:
        alg = corpus[name]
        corrected = fc.apply_errata(alg)
        mu, g = fc.structure_constants(corrected), fc.certificate_matrix(corrected)
        block = alg.deformation
        ideal = SubspaceSpec(block.ideal)
        derivation = ScalarMatrix.diagonal(block.diagonal)
        spec = DeformationSpec(mu, ideal, block.outside, derivation)
        phi = fc.go_cocycle(spec)
        mu_t = fc.deform(mu, phi)
        out[name] = TableData(alg, mu, g, ideal, block.outside, derivation,
                              phi, mu_t, mu_t.eval_t(1),
                              alg.certificate_parameter == "1/t")
    return out


@pytest.fixture(scope="session")
def heisenberg() -> StructureConstants:
    column = tuple(fc.as_scalar(1 if k == 2 else 0) for k in range(3))
    return StructureConstants(3, {(1, 2): column}, frozenset(), "heisenberg")


def abelian(dim: int) -> StructureConstants:
    return StructureConstants(dim, {}, frozenset(), f"abelian{dim}")


@pytest.fixture(scope="session")
def abelian3():
    return abelian(3)
