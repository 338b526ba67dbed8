"""Report.tally, the one check loop: counts, skips, the first defect and
the coverage word."""

import pytest

from ainfkit.quiver import BoundError
from ainfkit.report import Report, unless_zero


def escape():
    raise BoundError("over the bound")


def holds():
    return None


def test_no_cases_is_vacuous_and_ok():
    rep = Report().tally("empty", iter(()), "tensors")
    assert rep.checks == [("empty", True, "0 tensors, 0 skipped, vacuous")]
    assert rep.ok


def test_none_runs_and_bound_escapes_are_skipped():
    cases = [("a", holds), ("b", None), ("c", escape), ("d", holds)]
    rep = Report().tally("mixed", cases, "words")
    assert rep.checks == [("mixed", True, "2 words, 2 skipped, all")]
    # skipped cases alone check nothing
    rep = Report().tally("skips", [("b", None), ("c", escape)], "words")
    assert rep.checks == [("skips", True, "0 words, 2 skipped, vacuous")]


def test_other_errors_propagate():
    def broken():
        raise ValueError("object chain mismatch")

    with pytest.raises(ValueError, match="chain mismatch"):
        Report().tally("bug", [("a", holds), ("b", broken)], "tensors")


def test_first_defect_stops_the_walk():
    def cases():
        yield "first", holds
        yield "second", lambda: "2*'e'"
        raise AssertionError("the walk went past the first defect")

    rep = Report().tally("law", cases(), "arrows")
    assert rep.checks == [("law", False, "defect 2*'e' at second")]
    assert not rep.ok


def test_sampled_walk_and_counted_noun():
    seen = []

    def cases():
        for i in range(3):
            seen.append(i)
            yield i, holds

    rep = Report().tally("drawn", cases(),
                         lambda: "tensors, %d nonzero" % len(seen),
                         exhaustive=False)
    assert rep.checks == [("drawn", True,
                           "3 tensors, 3 nonzero, 0 skipped, sampled")]


def test_unless_zero():
    class Zero:
        is_zero = True

    class One:
        is_zero = False

    assert unless_zero(Zero()) is None
    one = One()
    assert unless_zero(one) is one
