import pytest

from planerigidity import catalog as cat
from planerigidity.moves import Move, ReductionTrace


class TestFrozenRecord:
    @pytest.mark.parametrize("record, field", [
        (cat.k5_minus(), "n"),
        (cat.k5_minus(), "edges"),
        (Move("edge-addition", (0, 1)), "kind"),
    ])
    def test_fields_refuse_assignment_and_deletion(self, record, field):
        before = getattr(record, field)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(record, field, before)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(record, field)
        assert getattr(record, field) == before


class TestRecordEquality:
    @pytest.mark.parametrize("record", [
        cat.k5_minus(), Move("edge-addition", (0, 1)), ReductionTrace(cat.b1(), "B1"),
    ])
    def test_another_type_is_never_equal(self, record):
        for other in (None, 5, "B1", (0, 1), Move("edge-deletion", (0, 1))):
            assert record != other and not record == other
        assert record == record
