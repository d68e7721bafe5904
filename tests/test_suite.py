"""The bundled reference checks, one test per row of suite.CHECKS, and
mutations that the computed table checks must catch."""

import pytest

from splitoct import orbits as ob
from splitoct import suite
from splitoct import symbolic as sy


@pytest.mark.parametrize("check", [fn for _name, fn in suite.CHECKS],
                         ids=[name for name, _fn in suite.CHECKS])
def test_check_passes(check):
    assert check()


def test_closed_class_table_needs_rank_dropping_limits(monkeypatch):
    # a limit that never drops rank leaves no non-closed basis
    monkeypatch.setattr(ob, "limit", lambda lam, tup: tup)
    assert not suite.check_closed_class_table()


def test_matrix_generator_flags_need_an_indecomposable_trace(monkeypatch):
    # a checker that calls everything decomposable makes tr(1,2,3) redundant
    monkeypatch.setattr(sy, "decomposability_check",
                        lambda target, generators: (True, {}))
    assert not suite.check_matrix_generator_flags()
