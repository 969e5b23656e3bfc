"""Records and reports are immutable named tuples: fields cannot be assigned,
_replace validates as the constructor does, and QuasiPolynomial's derived
log_a stays out of its constructor, repr and _replace."""

import copy
import math
import pickle

import pytest

import quasizeros as qz
from quasizeros import RegionTag
from quasizeros.errors import DomainError


def _instances():
    return [
        qz.QuasiPolynomial(2, 1 + 1j),
        qz.EvalScale(0.5, 1.0),
        qz.ZeroRecord(3, 1 + 2j, 1e-16, 1 + 2j, 4),
        qz.IterationTrace((1j, 2j), True),
        qz.GapStats((6.2, 6.3), 0.02, (0.1, 0.2)),
        qz.Circle(1j, 0.5),
        qz.Rectangle(-1 - 1j, 1 + 1j),
        qz.ContourReport(1, 0.5, 12),
        qz.RegionParams(2.0, 5.0, 1, 0.5),
        qz.RegionLabel(RegionTag.STRIP, 1),
        qz.Quadrangle(1, 0.0, 6.0, (1.0,), (2.0,), 6.1),
        qz.BoundReport("T1", 10, 1.5, 1.2, 3j, 2.0, True),
        qz.SectorCoverReport(9.0, 10, 0.1, 9j, 0, True),
        qz.CDeltaEstimate(0.3, 2j, 0.5, 2.0, 10.0, 100),
    ]


@pytest.mark.parametrize("record", _instances(), ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises(AttributeError):
        record.extra = 0


@pytest.mark.parametrize("record", _instances(), ids=lambda r: type(r).__name__)
def test_equal_records_hash_equal(record):
    twin = pickle.loads(pickle.dumps(record))
    assert twin == record and hash(twin) == hash(record)
    assert copy.copy(record) == record and copy.deepcopy(record) == record
    assert record._replace() == record


@pytest.mark.parametrize("record, changes, message", [
    (qz.Circle(0j, 1.0), {"radius": 0.0}, "positive finite radius"),
    (qz.Circle(0j, 1.0), {"center": complex(math.inf, 0.0)}, "finite center"),
    (qz.Rectangle(0j, 1 + 1j), {"corner_max": 1 + 0j}, "positive width and height"),
    (qz.Rectangle(0j, 1 + 1j), {"corner_min": complex(math.nan, 0.0)}, "finite"),
    (qz.RegionParams(2.0, 5.0), {"h": -1.0}, "h must be"),
    (qz.RegionParams(2.0, 5.0), {"s_branch": 3}, "S must be 1 or 2"),
    (qz.RegionParams(2.0, 5.0), {"delta": math.inf}, "delta must be"),
    (qz.RegionLabel(RegionTag.STRIP, 1), {"half": None}, "half is present"),
    (qz.RegionLabel(RegionTag.ORIGIN_DISK), {"half": 2}, "half is present"),
    (qz.QuasiPolynomial(1, 1 + 0j), {"a": 0j}, "must be nonzero"),
    (qz.QuasiPolynomial(1, 1 + 0j), {"k": 0}, "positive integer"),
], ids=lambda v: type(v).__name__ if not isinstance(v, (dict, str)) else None)
def test_replace_validates_as_the_constructor(record, changes, message):
    with pytest.raises(DomainError, match=message):
        record._replace(**changes)
    fields = {**record._asdict(), **changes}
    fields.pop("log_a", None)  # derived, not an argument
    with pytest.raises(DomainError, match=message):
        type(record)(**fields)


def test_make_validates():
    with pytest.raises(DomainError):
        qz.Circle._make((0j, -1.0))
    assert qz.Circle._make((0j, 1.0)) == qz.Circle(0j, 1.0)


class TestQuasiPolynomialLogA:
    def test_replace_derives_log_a_afresh(self):
        qp = qz.QuasiPolynomial(1, 1)._replace(a=2)
        assert qp.a == 2 + 0j and isinstance(qp.a, complex)
        assert qp.log_a == complex(math.log(2.0), 0.0)
        assert qp.log_a == qz.QuasiPolynomial(1, 2).log_a

    def test_log_a_is_not_an_argument(self):
        qp = qz.QuasiPolynomial(1, 1)
        with pytest.raises(TypeError):
            qp._replace(log_a=5j)
        with pytest.raises(TypeError):
            qz.QuasiPolynomial(1, 1, 5j)

    def test_repr_has_no_log_a(self):
        assert repr(qz.QuasiPolynomial(2, -3 + 4j)) == "QuasiPolynomial(k=2, a=(-3+4j))"

    @pytest.mark.parametrize("a", [-3 + 4j, 1.7e308 + 1e308j, 5e-324 + 0j])
    def test_pickle_and_copy_keep_log_a(self, a):
        qp = qz.QuasiPolynomial(3, a)
        for twin in (pickle.loads(pickle.dumps(qp)), copy.copy(qp), copy.deepcopy(qp)):
            assert type(twin) is qz.QuasiPolynomial
            assert twin == qp and twin.log_a == qp.log_a


def test_zero_record_repr_and_tuple_semantics():
    rec = qz.ZeroRecord(3, 1 + 2j, 1e-16, 1 + 2j, 4)
    assert repr(rec) == ("ZeroRecord(nu=3, value=(1+2j), residual=1e-16, seed=(1+2j), "
                         "iterations=4, certified=False, isolation_radius=None, "
                         "multiplicity=1)")
    assert rec == (3, 1 + 2j, 1e-16, 1 + 2j, 4, False, None, 1)
    assert rec._asdict()["multiplicity"] == 1
    assert rec._replace(certified=True, isolation_radius=0.5) == qz.ZeroRecord(
        3, 1 + 2j, 1e-16, 1 + 2j, 4, True, 0.5)
