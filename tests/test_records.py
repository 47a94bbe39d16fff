"""The contract of the result records: immutable, compared by value, printed as Name(field=...).

Result records are named tuples, so importing the package generates no
code for them; only ``Strategy`` stays a dataclass, for the reason given
beside it in its module.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import posetspace
from posetspace import choquet_mf, constructions, domain_theory, filters, games, semi_topogenous, topology
from posetspace.filters import Filter, NotAFilter

RECORDS = [
    filters.Filter,
    filters.FilterClassification,
    filters.ChainFilter,
    topology.Correspondence,
    topology.SeparationReport,
    topology.ReduceResult,
    constructions.ProductResult,
    constructions.GdeltaMfResult,
    constructions.OpenSubspaceResult,
    constructions.GdeltaUfResult,
    constructions.PrecompactResult,
    games.ChoquetRound,
    games.StarSolution,
    games.StarPlay,
    domain_theory.DcpoClassification,
    domain_theory.CompletionResult,
    domain_theory.ScottReport,
    semi_topogenous.SubsetOrder,
    semi_topogenous.AxiomReport,
    semi_topogenous.CompletenessReport,
    semi_topogenous.MfFromOrderResult,
    semi_topogenous.OrderFromPosetResult,
    choquet_mf.CharacterizationReport,
]

DATACLASSES = {games.Strategy}


def _build(cls, tag=""):
    return cls(*(f"{name}{tag}" for name in cls._fields))


def test_records_are_tuples_and_only_strategy_stays_a_dataclass():
    assert all(issubclass(cls, tuple) and not dataclasses.is_dataclass(cls) for cls in RECORDS)
    found = set()
    for info in pkgutil.iter_modules(posetspace.__path__):
        module = importlib.import_module(f"posetspace.{info.name}")
        found |= {
            cls
            for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)
        }
    assert found == DATACLASSES


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_fields_cannot_be_assigned(cls):
    record = _build(cls)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, "changed")
    with pytest.raises(AttributeError):
        record.extra = "changed"
    assert tuple(record) == tuple(cls._fields)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_from_equal_fields_compare_and_hash_equal(cls):
    one, two, other = _build(cls), _build(cls), _build(cls, "-other")
    assert one is not two
    assert one == two and not one != two
    assert hash(one) == hash(two)
    assert one != other and not one == other


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_repr_names_every_field(cls):
    fields = ", ".join(f"{name}={name!r}" for name in cls._fields)
    assert repr(_build(cls)) == f"{cls.__name__}({fields})"


def test_filter_keeps_membership_printing_and_its_constructor(vee):
    f = Filter.of(vee, ["c", "a"])
    assert f == Filter(vee, 0)
    assert "a" in f and "c" in f and "b" not in f
    assert vee not in f and 0 not in f  # the record's own fields are not members
    assert str(f) == "{a, c}"
    assert f.members == frozenset({"a", "c"})
    assert f.mask() == 0b101 and f.minimum() == "a"
    with pytest.raises(NotAFilter):
        Filter.of(vee, ["a", "b"])
