"""Pass/fail reports for structure checks.

A report is a list of named lines, (name, ok, detail) triples.  Output
ordering is canonical (sorted by line name) so that a report is
deterministic whenever the inputs, bounds, and seeds are.

Report.tally is the one check loop: every line that walks cases of an
identity is written by it, so every such line counts, skips, stops and
states its coverage the same way.

- A case is a (where, run) pair.  run() returns None when the identity
  holds at that case and otherwise the defect.  Each run is called
  before the next case is drawn, so it may read the loop variables of
  the generator that yields it.
- A run of None means the case does not apply; a run that raises
  quiver.BoundError escapes the size bound.  Both are counted as
  skipped.  Nothing else is caught: any other exception is a bug and
  propagates.
- The first defect fails the line, reading "defect <d> at <where>", and
  the walk stops there; later cases are never drawn.
- A passing line reads "<checked> <noun>, <skipped> skipped, <coverage>",
  where coverage is "all" for an exhaustive walk, "sampled" for a drawn
  one, and "vacuous" when nothing was checked.  A vacuous line stays ok.
"""

from .quiver import BoundError


def unless_zero(el):
    """A run's result for a difference that must vanish: el, or None
    when it is zero."""
    return None if el.is_zero else el


class Report:
    def __init__(self, title=""):
        self.title = title
        self.checks = []

    def add(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))
        return self

    def tally(self, label, cases, noun, exhaustive=True):
        """Walk cases and add their one line under label (module
        docstring).  noun names what a case is; a callable noun is
        called once the walk ends, for counts gathered during it."""
        checked = skipped = 0
        for where, run in cases:
            if run is None:
                skipped += 1
                continue
            try:
                defect = run()
            except BoundError:
                skipped += 1
                continue
            if defect is not None:
                return self.add(label, False, "defect %s at %s" % (defect, where))
            checked += 1
        coverage = "vacuous" if not checked else "all" if exhaustive else "sampled"
        if callable(noun):
            noun = noun()
        return self.add(label, True, "%d %s, %d skipped, %s"
                        % (checked, noun, skipped, coverage))

    def merge(self, other):
        self.checks.extend(other.checks)
        return self

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [(name, detail) for name, ok, detail in self.checks if not ok]

    def lines(self):
        out = []
        for name, ok, detail in sorted(self.checks):
            line = "%s %s" % ("PASS" if ok else "FAIL", name)
            if detail:
                line += ": %s" % detail
            out.append(line)
        return out

    def text(self):
        head = ["== %s ==" % self.title] if self.title else []
        tail = ["%d checks, %d failed" % (len(self.checks), len(self.failures()))]
        return "\n".join(head + self.lines() + tail)

    def to_json(self):
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [
                {"name": name, "ok": ok, "detail": detail}
                for name, ok, detail in sorted(self.checks)
            ],
        }

    def __repr__(self):
        return "Report(%r, %d checks, ok=%s)" % (self.title, len(self.checks), self.ok)
