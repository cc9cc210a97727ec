import pytest

import ballint.quadrature as quadrature


@pytest.fixture
def doublings(monkeypatch):
    """doublings(k) sets the ladder's budget, quadrature.MAX_DOUBLINGS, to k
    for one test, so a target fails cheaply.  It also empties the memo: the
    memo is not keyed by the budget, and an n memoised at the full budget
    would answer for one that the lower budget fails."""
    def lower(k: int) -> None:
        monkeypatch.setattr(quadrature, "MAX_DOUBLINGS", k)
        quadrature._MEMO.clear()
    return lower
