import pytest

from planerigidity import randomgraphs
from planerigidity.randomgraphs import random_regular_graph


class TestRandomRegularRefusals:
    def test_too_many_vertices(self):
        with pytest.raises(
            ValueError, match="^n = 258048 is above 258047, the most vertices a graph file holds$"
        ):
            random_regular_graph(258048, 3, 1)

    @pytest.mark.parametrize("n, degree", [(5, 5), (5, 7), (5, -1)])
    def test_degree_outside_the_range(self, n, degree):
        with pytest.raises(ValueError, match="^need 0 <= degree < n$"):
            random_regular_graph(n, degree, 1)

    def test_odd_stub_count(self):
        with pytest.raises(ValueError, match="^n \\* degree must be even$"):
            random_regular_graph(5, 3, 1)

    def test_no_simple_pairing(self, monkeypatch):
        # a simple 8-regular pairing on 10 vertices comes about once in
        # 10^7 draws, so 20 draws all fail
        monkeypatch.setattr(randomgraphs, "PAIRING_ATTEMPTS", 20)
        with pytest.raises(
            ValueError, match="^no simple 8-regular pairing on 10 vertices in 20 attempts$"
        ):
            random_regular_graph(10, 8, 1)
