"""Per-layer tracing from outside the package.

A Tracer installs wrappers around named public functions and methods of
ainfkit, at every module binding through which they are called, and
removes them again in uninstall().  Each wrapper keeps a call count and
the call's self time (its duration minus the time of wrapped calls made
inside it).  Most wrappers also record a span (name, start, end, parent
span, one count at that call).  The hottest calls (scalar and
accumulation methods, ChainMap and GradedModule construction,
admissible) keep counts and self time only, since spans for millions of
calls would dominate the overhead.

Spans stay in memory and are written out by write_spans() after the run.
"""

import functools
import time
from array import array
from collections import defaultdict

from ainfkit import (barquot, category, freecat, functors, graded, homquot,
                     quiver, yoneda)
from ainfkit.graded import ChainMap, Element, GradedModule, Ring
from ainfkit.quiver import BoundError, MultiOp
from workloads import name_count

MODULES = (graded, quiver, category, functors, freecat, homquot, barquot,
           yoneda)


class Tracer:
    """Wrappers, counters and spans for one traced run."""

    def __init__(self, extra_modules=()):
        self.modules = MODULES + tuple(extra_modules)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.top_s = defaultdict(float)
        self.depth = defaultdict(int)
        self.counts = defaultdict(int)
        self.escaped = defaultdict(int)
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_count = array("q")
        self.stack = []
        self.restore = []
        self.seen_specs = set()

    # -- installation -------------------------------------------------

    def wrap(self, name, fn, group=None, span=True, before=None, after=None):
        """A wrapper around fn.

        before(args) returns the span's count at that call; after(args,
        result) updates counters from the result.  group names the
        layer metric whose time is the inclusive time of outermost
        calls within the group.
        """
        tracer = self
        stack = self.stack
        clock = time.perf_counter
        group = group or name
        sid = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count = before(args) if before else 0
            parent = stack[-1][1] if stack else -1
            index = -1
            if span:
                index = len(tracer.span_start)
                tracer.span_name.append(sid)
                tracer.span_parent.append(parent)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
                tracer.span_count.append(count)
            frame = [0.0, index if span else parent]
            stack.append(frame)
            tracer.depth[group] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BoundError as exc:
                tracer.escaped[name] += 1
                if not getattr(exc, "traced", False):
                    exc.traced = True
                    tracer.counts["bound_errors"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                tracer.calls[name] += 1
                tracer.self_s[name] += dt - frame[0]
                tracer.depth[group] -= 1
                if not tracer.depth[group]:
                    tracer.top_s[group] += dt
                if stack:
                    stack[-1][0] += dt
                if span:
                    tracer.span_start[index] = t0
                    tracer.span_end[index] = t1
            if after:
                after(args, result)
            return result

        return wrapper

    def patch_function(self, name, fn, **kw):
        """Replace fn at every module binding that holds it."""
        wrapper = self.wrap(name, fn, **kw)
        for mod in self.modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self.restore.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def patch_method(self, name, cls, attr, **kw):
        fn = cls.__dict__[attr]
        self.restore.append((cls, attr, fn))
        setattr(cls, attr, self.wrap(name, fn, **kw))

    def install(self):
        c = self.counts

        def stage_in(args):
            n = len(args[1])
            c["state_terms_in"] += n
            c["peak_state_terms"] = max(c["peak_state_terms"], n)
            return n

        def stage_out(args, out):
            c["state_terms_out"] += len(out)
            c["peak_state_terms"] = max(c["peak_state_terms"], len(out))

        def memo(args):
            op, objs, names = args
            hit = (tuple(objs), tuple(names)) in op.table
            c["memo_hits"] += hit
            return int(hit)

        def add_copies(args):
            a, b = args
            if a.terms and b.terms:
                c["terms_copied"] += len(a.terms)
            return 0

        def module_names(args, _):
            c["module_names"] += len(args[0].names)

        def built(key):
            def after(args, A):
                c[key] += name_count(A)
            return after

        def span_rows(args, rows):
            spec = args[0]
            if id(spec) not in self.seen_specs:
                self.seen_specs.add(id(spec))
                c["span_rows"] += sum(len(b) for b in rows.values())

        hot = dict(span=False)
        for attr in ("normalize", "add", "sub", "mul"):
            self.patch_method("Ring." + attr, Ring, attr, group="scalar",
                              **hot)
        self.patch_method("Element.add", Element, "add", group="accum",
                          before=add_copies, **hot)
        self.patch_method("Element.scale", Element, "scale", group="accum",
                          **hot)
        self.patch_method("ChainMap.__call__", ChainMap, "__call__", **hot)
        self.patch_method("GradedModule.__init__", GradedModule, "__init__",
                          after=module_names, **hot)
        self.patch_method("MultiOp.on_basis", MultiOp, "on_basis",
                          before=memo)
        self.patch_function("apply_stage", quiver.apply_stage,
                            before=stage_in, after=stage_out)
        self.patch_function("evaluate", quiver.evaluate)
        self.patch_function("dg_to_ainf", category.dg_to_ainf)
        self.patch_function("stasheff_defect", category.stasheff_defect)
        for fn in (homquot.homotopy_quotient, homquot.tree_category):
            self.patch_function(fn.__name__, fn, group="homquot.build",
                                after=built("basis_names"))
        self.patch_function("admissible", homquot.admissible, **hot)
        for fn in (homquot.unit_homotopy, homquot.left_unit_homotopy,
                   homquot.check_unit_homotopies):
            self.patch_function(fn.__name__, fn, group="homquot.unit")
        self.patch_function("bar_quotient", barquot.bar_quotient,
                            after=built("words"))
        self.patch_function("comparison_map", barquot.comparison_map)
        for fn in (barquot.unit_contraction, barquot.check_contraction):
            self.patch_function(fn.__name__, fn, group="barquot.contraction")
        self.patch_function("functor_defect", functors.functor_defect)
        self.patch_function("free_category", freecat.free_category,
                            after=built("free_names"))
        self.patch_method("IdealSpec.rows", freecat.IdealSpec, "rows",
                          after=span_rows)
        self.patch_function("quotient", freecat.quotient)
        self.patch_function("check_Y", yoneda.check_Y)
        self.patch_function("check_hX", yoneda.check_hX)

    def uninstall(self):
        while self.restore:
            owner, attr, val = self.restore.pop()
            setattr(owner, attr, val)

    # -- results ------------------------------------------------------

    def metrics(self):
        """The per-layer metrics, by name, as (value, unit)."""
        calls, self_s, top, c = self.calls, self.self_s, self.top_s, self.counts
        attempts = calls["evaluate"] + calls["apply_stage"]
        escaped = self.escaped["evaluate"] + self.escaped["apply_stage"]
        on_basis = calls["MultiOp.on_basis"]
        return {
            "graded.normalize_calls": (calls["Ring.normalize"], "count"),
            "graded.scalar_self_s": (sum(self_s["Ring." + a] for a in (
                "normalize", "add", "sub", "mul")), "s"),
            "graded.element_add_calls": (calls["Element.add"], "count"),
            "graded.element_add_terms_copied": (c["terms_copied"], "count"),
            "graded.element_scale_calls": (calls["Element.scale"], "count"),
            "graded.accum_self_s": (self_s["Element.add"]
                                    + self_s["Element.scale"], "s"),
            "graded.chainmap_calls": (calls["ChainMap.__call__"], "count"),
            "graded.chainmap_self_s": (self_s["ChainMap.__call__"], "s"),
            "graded.module_names_built": (c["module_names"], "count"),
            "graded.module_init_self_s": (self_s["GradedModule.__init__"],
                                          "s"),
            "quiver.stages_applied": (calls["apply_stage"], "count"),
            "quiver.state_terms_in": (c["state_terms_in"], "count"),
            "quiver.state_terms_out": (c["state_terms_out"], "count"),
            "quiver.peak_state_terms": (c["peak_state_terms"], "count"),
            "quiver.apply_stage_self_s": (self_s["apply_stage"], "s"),
            "quiver.on_basis_calls": (on_basis, "count"),
            "quiver.memo_hits": (c["memo_hits"], "count"),
            "quiver.memo_hit_rate": (c["memo_hits"] / on_basis if on_basis
                                     else 0.0, "ratio"),
            "quiver.rule_self_s": (self_s["MultiOp.on_basis"], "s"),
            "quiver.evaluate_calls": (calls["evaluate"], "count"),
            "quiver.evaluate_self_s": (self_s["evaluate"], "s"),
            "quiver.bound_errors": (c["bound_errors"], "count"),
            "quiver.useful_share": ((attempts - escaped) / attempts
                                    if attempts else 1.0, "ratio"),
            "category.dg_to_ainf_s": (top["dg_to_ainf"], "s"),
            "category.stasheff_defect_calls": (calls["stasheff_defect"],
                                               "count"),
            "category.stasheff_defect_s": (top["stasheff_defect"], "s"),
            "homquot.build_s": (top["homquot.build"], "s"),
            "homquot.basis_names": (c["basis_names"], "count"),
            "homquot.admissible_calls": (calls["admissible"], "count"),
            "homquot.unit_homotopy_s": (top["homquot.unit"], "s"),
            "barquot.comparison_map_s": (top["comparison_map"], "s"),
            "barquot.contraction_s": (top["barquot.contraction"], "s"),
            "barquot.words": (c["words"], "count"),
            "functors.functor_defect_calls": (calls["functor_defect"],
                                              "count"),
            "functors.functor_defect_s": (top["functor_defect"], "s"),
            "freecat.free_names": (c["free_names"], "count"),
            "freecat.saturate_s": (top["IdealSpec.rows"], "s"),
            "freecat.span_rows": (c["span_rows"], "count"),
            "freecat.quotient_s": (top["quotient"], "s"),
            "yoneda.check_Y_s": (top["check_Y"], "s"),
            "yoneda.check_hX_s": (top["check_hX"], "s"),
        }

    def write_spans(self, path):
        """One line per span: id, parent, name, start, end, count."""
        with open(path, "w") as out:
            out.write("id\tparent\tname\tstart_s\tend_s\tcount\n")
            t0 = self.span_start[0] if self.span_start else 0.0
            for i in range(len(self.span_start)):
                out.write("%d\t%d\t%s\t%.7f\t%.7f\t%d\n" % (
                    i, self.span_parent[i], self.names[self.span_name[i]],
                    self.span_start[i] - t0, self.span_end[i] - t0,
                    self.span_count[i]))
        return len(self.span_start)


def predicted_zeros(workload, metrics):
    """Per-layer metrics the design predicts to be zero on a workload."""
    names = []
    if workload == "yoneda-fp":
        names.append("quiver.stages_applied")
    if workload != "span-b6":
        names += [m for m in metrics if m.startswith("freecat.")]
    return names

