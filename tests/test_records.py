"""Result records are NamedTuples: the fields, defaults and repr text the
dataclasses they replaced had, read-only, and checked on construction
where a record carries an invariant."""

from __future__ import annotations

import pytest

from localarc.arcs import (
    LocalArcFamily,
    LRCParams,
    TranslationLayout,
    VerifyReport,
    Violation,
    _named_violation,
)
from localarc.bounds import BoundComparison, BoundReport
from localarc.construct import GenericSeed, GenericVerdict, LiftParams
from localarc.plane import make_plane
from localarc.sdf import InvalidBasis, SdfBasis
from localarc.search import CellResult, CertificateCheck, SearchResult

PLAIN = [Violation, VerifyReport, LRCParams, BoundComparison, GenericSeed,
         GenericVerdict, LiftParams, SearchResult, CertificateCheck,
         CellResult]
RECORDS = [*(cls(*[0] * len(cls._fields)) for cls in PLAIN),
           SdfBasis(5, (0, 2)), BoundReport("trivial", 7)]


def test_violation_and_report_reprs_are_pinned():
    bad = Violation("collinear", (0, 2293), (1, 2, 3), line=7)
    assert repr(bad) == ("Violation(kind='collinear', sets=(0, 2293), "
                         "points=(1, 2, 3), line=7)")
    assert repr(VerifyReport(False, "translation", 12, bad, seed=5)) == (
        "VerifyReport(ok=False, mode='translation', pairs_checked=12, "
        "violation=Violation(kind='collinear', sets=(0, 2293), "
        "points=(1, 2, 3), line=7), seed=5)")
    assert repr(VerifyReport(True, "fast", 3)) == (
        "VerifyReport(ok=True, mode='fast', pairs_checked=3, "
        "violation=None, seed=None)")


def test_keyword_construction_and_defaults():
    rep = VerifyReport(ok=True, mode="fast", pairs_checked=3)
    assert rep == VerifyReport(True, "fast", 3, None, None)
    bad = Violation(kind="overlap", sets=(1, 2), points=(3,))
    assert bad.line is None
    bound = BoundReport(formula="trivial", q=7)
    assert bound.points is bound.sets is bound.k is None
    assert bound.t is bound.exact is None
    assert SdfBasis(A=(0, 2), m=5) == SdfBasis(5, (0, 2))


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_fields_are_read_only(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_named_violation_remaps_set_ids():
    # u = 1 and u = 8 are the same element of GF(7): sets 3 and 5 repeat
    lay = TranslationLayout(((), ((0, 1), (2, 5))), (0, 1, 8), (3,))
    fam = LocalArcFamily.translates(make_plane(7), lay)
    bad = _named_violation(fam, [3, 5])
    assert type(bad) is Violation
    assert bad.kind == "overlap" and bad.sets == (3, 5)
    assert bad.points[0] in fam.sets[3] and bad.points[0] in fam.sets[5]


def test_sdf_basis_sorts_and_drops_repeats():
    basis = SdfBasis(5, (2, 0, 2))
    assert basis.A == (0, 2) and type(basis) is SdfBasis
    assert basis._replace(A=(2, 2, 0)) == basis


@pytest.mark.parametrize("m, A", [(1, (0,)), (5, ()), (5, (0, 5)),
                                  (5, (-1, 1)), (5, (0, 1))])
def test_invalid_sdf_basis_raises(m, A):
    with pytest.raises(InvalidBasis):
        SdfBasis(m, A)
    with pytest.raises(InvalidBasis):
        SdfBasis(5, (0, 2))._replace(m=m, A=A)


def test_bound_report_ties_points_to_k_sets():
    BoundReport("f", 7, points=6, sets=2, k=3)
    with pytest.raises(ValueError, match="not k = 3"):
        BoundReport("f", 7, points=7, sets=2, k=3)
    with pytest.raises(ValueError, match="not k = 3"):
        BoundReport("f", 7, points=6, sets=2, k=3)._replace(points=7)
