import pytest

from planerigidity import catalog as cat
from planerigidity.moves import Move


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
