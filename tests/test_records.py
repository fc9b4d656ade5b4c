"""The contract every record type keeps: immutable fields, a value
``repr``, equality and hash on the field values, pickling for the sweep's
process pool, and the range check of ``AugmentedCube``.  Attributes that
carry no information of their own are class constants or read off the
fields, not stored.  Each record is taken from the code that produces
it where there is one."""

import pickle

import pytest

from aqsteiner.cli import certificate_doc, parse_certificate, run_sweep
from aqsteiner.construct import Case, CaseTag, SteinerTree, TreeFamily, construct
from aqsteiner.paths import MinCut, PathSystem, disjoint_paths
from aqsteiner.topology import AugmentedCube, ContractViolation, GraphView, Vertex
from aqsteiner.oracle import OracleResult, oracle_tau
from aqsteiner.verify import VerificationReport, verify_family


RECORDS = (
    "CaseTag", "SteinerTree", "TreeFamily", "PathSystem", "MinCut", "AugmentedCube", "GraphView", "VerificationReport", "OracleResult", "ParsedCertificate", "SweepRecord",
)


def records() -> dict[str, object]:
    g = AugmentedCube(4)
    family = construct(g, [Vertex(a, 4) for a in (0, 3, 12)])
    return {
        "CaseTag": family.provenance[0],
        "SteinerTree": family.trees[0],
        "TreeFamily": family,
        "PathSystem": disjoint_paths(g.view(), 0, 3, 7),
        "MinCut": disjoint_paths(g.view(), 0, 3, 8),
        "AugmentedCube": g,
        "GraphView": g.view(),
        "VerificationReport": verify_family(g, family),
        "OracleResult": oracle_tau(AugmentedCube(3), [0, 1, 2]),
        "ParsedCertificate": parse_certificate(certificate_doc(family, "Base4")),
        "SweepRecord": run_sweep(4, [(0, 3, 12)])[0],
    }


def test_every_record_is_produced_with_its_own_type():
    assert {name: type(rec).__name__ for name, rec in records().items()} == {name: name for name in RECORDS}


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name):
    rec = records()[name]
    for field in type(rec)._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
    with pytest.raises(AttributeError):
        rec.not_a_field = None


@pytest.mark.parametrize("name", ["TreeFamily", "SweepRecord", "PathSystem", "AugmentedCube"])
def test_pool_results_survive_pickling(name):
    rec = records()[name]
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is type(rec)
    assert back == rec and hash(back) == hash(rec)


def test_equality_and_hash_follow_the_values():
    a = PathSystem(source=0, sink=3, paths=((0, 1, 3),))
    b = PathSystem(0, 3, ((0, 1, 3),))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != PathSystem(0, 3, ((0, 2, 3),))
    assert CaseTag(Case.CASE1) == CaseTag(Case.CASE1, 0, None)
    assert SteinerTree(frozenset({(0, 1)})) == SteinerTree(edges=frozenset({(0, 1)}))


def test_repr_names_every_field():
    assert repr(PathSystem(source=0, sink=3, paths=((0, 1, 3),))) == "PathSystem(source=0, sink=3, paths=((0, 1, 3),))"
    assert repr(AugmentedCube(dim=5)) == "AugmentedCube(dim=5)"


def test_defaults_and_properties_are_kept():
    assert CaseTag(Case.BASE3).transform == 0
    assert CaseTag(Case.BASE3).roles is None and CaseTag._fields == ("case", "transform", "roles")
    assert OracleResult(2, 2, 10).witness == ()
    assert OracleResult(2, 2, 10).value == 2
    with pytest.raises(ContractViolation, match="bracket"):
        OracleResult(1, 2, 10).value
    assert MinCut(0, 3, (1, 2), True).size == 3
    g = AugmentedCube(dim=5)
    assert (g.dim, g.order, g.degree) == (5, 32, 9)
    assert GraphView(g, range(4)).dim == 5
    assert VerificationReport(()).to_json() == {"accepted": True, "violations": []}


# attributes read off the class or the fields, not stored: (record,
# attribute, the value it must take on each record made below)
DERIVED = [
    ("TreeFamily", "fallback_used", lambda rec: False),
    ("SweepRecord", "fallback", lambda rec: False),
    ("SweepRecord", "verified", lambda rec: True),
    ("VerificationReport", "accepted", lambda rec: not rec.violations),
    ("OracleResult", "exact", lambda rec: rec.lower == rec.upper),
]


def derived_records() -> dict[str, list[object]]:
    g = AugmentedCube(4)
    family = construct(g, [Vertex(a, 4) for a in (0, 3, 12)])
    doubled = family._replace(trees=family.trees + family.trees[:1])
    return {
        "TreeFamily": [family, construct(AugmentedCube(6), [Vertex(a, 6) for a in (0, 5, 40)])],
        "SweepRecord": run_sweep(5, [(0, 1, 2), (0, 3, 20), (1, 6, 30)]),
        "VerificationReport": [verify_family(g, family), verify_family(g, family, size=6), verify_family(g, doubled)],
        "OracleResult": [oracle_tau(AugmentedCube(3), [0, 1, 2], budget=b) for b in (5, 15, 10**6)],
    }


def test_derived_attributes_read_what_they_follow_from():
    made = derived_records()
    assert [r.accepted for r in made["VerificationReport"]] == [True, False, False]
    # budget 5 packs one set; by budget 15 the packing meets the degree
    # ceiling, so the bracket closes
    assert [(r.lower, r.upper, r.exact) for r in made["OracleResult"]] == [(1, 3, False), (3, 3, True), (3, 3, True)]
    for name, attr, value in DERIVED:
        for rec in made[name]:
            assert getattr(rec, attr) is value(rec), (name, attr, rec)


@pytest.mark.parametrize("name, attr", [(name, attr) for name, attr, _ in DERIVED])
def test_derived_attributes_are_not_stored(name, attr):
    for rec in derived_records()[name]:
        assert attr not in type(rec)._fields
        with pytest.raises(AttributeError):
            setattr(rec, attr, not getattr(rec, attr))
        back = pickle.loads(pickle.dumps(rec))
        assert back == rec and getattr(back, attr) is getattr(rec, attr)


@pytest.mark.parametrize("dim", [0, 63])
def test_cube_dimension_is_range_checked(dim):
    with pytest.raises(ContractViolation) as exc:
        AugmentedCube(dim)
    assert str(exc.value) == f"dimension must be in 1..62, got {dim}"


def test_isinstance_tells_a_cut_from_a_path_system():
    made = records()
    ps, cut = made["PathSystem"], made["MinCut"]
    assert isinstance(ps, PathSystem) and not isinstance(ps, MinCut)
    assert isinstance(cut, MinCut) and not isinstance(cut, PathSystem)
    assert isinstance(made["TreeFamily"], TreeFamily)
