"""The package's records: which classes are still dataclasses, and the
dataclass behaviour that the plain records keep (==, hash, repr, frozen or
mutable fields)."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import filicert
from filicert import (Cochain2, DeformationSpec, Failure, RationalAlgebra, RationalMatrix,
                      StageResult, StructureConstants, SubspaceSpec, VerificationReport,
                      check_deformation, jacobi_check)
from filicert.cli import InvariantRecord

FROZEN = ("CheckedDeformation", "Cochain2", "DeformationSpec", "JacobiReport",
          "RationalAlgebra", "RationalMatrix", "ScalarMatrix", "StructureConstants",
          "SubspaceSpec")
MUTABLE = ("Failure", "InvariantRecord", "StageResult", "VerificationReport")


def sample_records(tables) -> dict[str, object]:
    """One fresh record of each class, by class name, built from mu11."""
    data = tables["mu11"]
    checked = check_deformation(data.mu, data.ideal, data.outside, data.derivation)
    records = (SubspaceSpec((2, 3)), data.phi, data.mu, jacobi_check(data.mu, data.phi),
               data.g, RationalMatrix(({0: 1, 2: -3},), 4),
               RationalAlgebra.from_structure(data.mu),
               DeformationSpec(data.mu, data.ideal, data.outside, data.derivation), checked,
               Failure((1, 2), None, "note"), StageResult(False, (Failure(()),), "why"),
               VerificationReport("mu11", dict(checked.stages)),
               InvariantRecord("mu11", "center", "alpha=2", True, "dim=1"))
    return {type(record).__name__: record for record in records}


def field_names(record) -> list[str]:
    return list(inspect.signature(type(record)).parameters)


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


def test_only_the_catalog_file_model_is_made_of_dataclasses(corpus):
    """AlgebraFile, DeformationBlock and Erratum, which callers copy with
    dataclasses.replace; no other class of the package is a dataclass, so
    importing it generates no code."""
    found = set()
    for info in pkgutil.iter_modules(filicert.__path__):
        module = importlib.import_module(f"filicert.{info.name}")
        found |= {name for name, obj in vars(module).items() if isinstance(obj, type)
                  and obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj)}
    assert found == {"AlgebraFile", "DeformationBlock", "Erratum"}
    alg = corpus["mu08"]
    erratum = alg.errata[0]
    assert dataclasses.replace(alg, name="copy") == dataclasses.replace(
        alg, name="copy", errata=(dataclasses.replace(erratum, note=erratum.note),))
    assert dataclasses.replace(alg.deformation, outside=2).outside == 2
    assert dataclasses.replace(erratum, note="moved").note == "moved"


@pytest.mark.parametrize("name", FROZEN + MUTABLE)
def test_a_record_renders_and_hashes_as_its_dataclass_twin(tables, name):
    """repr and hash (or the TypeError of an unhashable record) equal those of
    a dataclass of the same name and fields, frozen alike."""
    record = sample_records(tables)[name]
    fields = field_names(record)
    twin_class = dataclasses.make_dataclass(name, fields, frozen=name in FROZEN)
    twin = twin_class(*(getattr(record, field) for field in fields))
    assert repr(record) == repr(twin)
    assert hash_or_error(record) == hash_or_error(twin)


@pytest.mark.parametrize("name", FROZEN)
def test_a_frozen_record_refuses_to_set_or_delete_an_attribute(tables, name):
    record = sample_records(tables)[name]
    field = field_names(record)[0]
    value = getattr(record, field)
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(record, field, value)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is value


@pytest.mark.parametrize("name", MUTABLE)
def test_a_mutable_record_stays_mutable(tables, name):
    record = sample_records(tables)[name]
    for field in field_names(record):
        setattr(record, field, None)
        assert getattr(record, field) is None


def test_records_compare_field_by_field_within_one_class(tables):
    mu = tables["mu11"].mu
    assert StructureConstants(mu.dim, mu.entries, mu.params, mu.name) == mu
    assert StructureConstants(mu.dim, mu.entries, mu.params, "other") != mu
    assert Cochain2(mu.dim, mu.entries, mu.params, mu.name) != mu  # the same fields
    assert StageResult(True) == StageResult(True, (), "") != StageResult(True, note="x")
    first, second = VerificationReport("mu11"), VerificationReport("mu11")
    assert first == second and first.stages is not second.stages
