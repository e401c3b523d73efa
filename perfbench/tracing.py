"""Per-layer tracing of crlab from outside the program.

A :class:`Tracer` wraps the coarse public entry points of each crlab layer
(never element-level calls such as ``FieldSpec.add`` or ``MatGF.__init__``)
and records one span per call: name, start, end, parent span and op id,
plus exact counts computed from the call's arguments or result.  Spans
are kept in memory; :meth:`Tracer.layer_metrics` turns them into the
per-layer metrics and :meth:`Tracer.write_spans` writes them out at the
end of a run.

Module-level functions are patched under every name a crlab module binds
them to (``crlab.report.complete_regularity``, ``crlab.cli.build_code_report``
and so on), so call sites that imported a name directly are traced too.
"""

from __future__ import annotations

import json
import resource
import sys
import time

# span name -> the self-time metric its spans add to
SELF_TIME = {
    "codes.weight_distribution": "codes.wd_s",
    "codes.weight_distribution_auto": "codes.wd_s",
    "codes.macwilliams": "codes.macwilliams_s",
    "codes.dual": "codes.dual_s",
    "codes.projective_dual_transform": "codes.pdt_s",
    "regularity.profile": "regularity.bfs_s",
    "regularity.neighbor_level_counts": "regularity.nbr_counts_s",
    "regularity.complete_regularity": "regularity.cr_s",
    "regularity.oa_strength": "regularity.oa_s",
    "matrix.rref": "matrix.rref_s",
    "matrix.null_space": "matrix.null_space_s",
    "diffmat.difference_matrix": "diffmat.build_s",
    "diffmat.is_difference_matrix": "diffmat.verify_s",
    "diffmat.dm_code": "diffmat.dm_code_s",
    "families.construct": "families.construct_s",
    "families.family_match": "families.match_s",
    "search.census": "search.census_s",
    "search.arcs": "search.arcs_s",
    "report.build": "report.build_s",
    "conditions": "conditions.s",
    "fileio.read_gfc": "fileio.read_s",
    "fileio.write": "fileio.write_s",
    "fileio.report_to_dict": "fileio.to_dict_s",
    "fileio.validate_report_dict": "fileio.validate_s",
    "cli.main": "cli.self_s",
    "field.create": "field.create_s",
}

# span name -> count metric that sums one count key of those spans
COUNTS = {
    "codes.wd_calls": ("codes.weight_distribution", "calls"),
    "codes.enum_words": ("codes.weight_distribution", "words"),
    "codes.enum_words_min": ("codes.weight_distribution", "words_min"),
    "codes.macwilliams_calls": ("codes.macwilliams", "calls"),
    "regularity.profiles": ("regularity.profile", "calls"),
    "regularity.syndromes": ("regularity.profile", "syndromes"),
    "regularity.nbr_moves": ("regularity.neighbor_level_counts", "moves"),
    "regularity.oa_calls": ("regularity.oa_strength", "calls"),
    "matrix.rref_calls": ("matrix.rref", "calls"),
    "matrix.rref_cells": ("matrix.rref", "cells"),
    "diffmat.dm_calls": ("diffmat.difference_matrix", "calls"),
    "diffmat.entries": ("diffmat.difference_matrix", "entries"),
    "families.match_calls": ("families.family_match", "calls"),
    "search.census_entries": ("search.census", "entries"),
    "cli.ops": ("cli.main", "calls"),
    "field.create_calls": ("field.create", "calls"),
}

# layers whose spans' peak-RSS rises are summed into <layer>.rss_rise_mb
RSS_LAYERS = ("codes", "regularity", "matrix", "search")

_CONDITIONS = ("cardinality_window_check", "plotkin_holds",
               "gray_rankin_holds", "max_distance_holds",
               "complement_valuation_check", "power_decomposition",
               "two_weight_counts")


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts", "rss_kb")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.counts = {"calls": 1}
        self.rss_kb = 0


class Tracer:
    """Records spans around crlab's layer entry points while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self.refusals = 0
        self._stack: list[int] = []
        self._patches: list = []
        self._rss_mark = _maxrss_kb()

    # -- recording ----------------------------------------------------------

    def _boundary(self) -> None:
        """Charge any rise of the process's peak RSS since the last span
        boundary to the innermost open span."""
        now = _maxrss_kb()
        if now != self._rss_mark and self._stack:
            self.spans[self._stack[-1]].rss_kb += now - self._rss_mark
        self._rss_mark = now

    def _wrap(self, name, fn, count=None, when=None):
        tracer = self

        def traced(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return fn(*args, **kwargs)
            tracer._boundary()
            span = Span(name, time.perf_counter(),
                        tracer._stack[-1] if tracer._stack else None,
                        tracer.op)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.counts.update(count(result, *args, **kwargs))
                return result
            finally:
                tracer._boundary()
                span.end = time.perf_counter()
                tracer._stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def _patch_function(self, module, attr, name, **kw):
        """Wrap module.attr and rebind every crlab module name bound to it."""
        original = getattr(module, attr)
        wrapped = self._wrap(name, original, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "crlab"
                                   or mod_name.startswith("crlab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def _patch_method(self, cls, attr, name, **kw):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, **kw))

    def install(self) -> None:
        from crlab import (budgets, cli, codes, conditions, diffmat,
                           families, field, fileio, matrix, regularity,
                           report, search)

        LinearCode = codes.LinearCode
        self._patch_method(
            LinearCode, "weight_distribution", "codes.weight_distribution",
            when=lambda c: getattr(c, "_wd", None) is None,
            count=lambda r, c: {"words": c.q ** c.k,
                                "words_min": c.q ** min(c.k, c.n - c.k)})
        self._patch_method(
            LinearCode, "weight_distribution_auto",
            "codes.weight_distribution_auto",
            when=lambda c: getattr(c, "_wd", None) is None)
        self._patch_method(LinearCode, "dual", "codes.dual",
                           when=lambda c: getattr(c, "_dual", None) is None)
        self._patch_function(codes, "macwilliams", "codes.macwilliams")
        self._patch_function(codes, "projective_dual_transform",
                             "codes.projective_dual_transform")

        self._patch_method(
            matrix.MatGF, "rref", "matrix.rref",
            when=lambda m: getattr(m, "_rref_cache", None) is None,
            count=lambda r, m: {"cells": m.nrows * m.ncols})
        self._patch_method(matrix.MatGF, "null_space", "matrix.null_space")

        self._patch_method(
            regularity.SyndromeProfile, "__init__", "regularity.profile",
            count=lambda r, prof, code: {
                "syndromes": code.q ** (code.n - code.k)})
        self._patch_method(
            regularity.SyndromeProfile, "neighbor_level_counts",
            "regularity.neighbor_level_counts",
            count=lambda r, prof: {
                "moves": prof.q ** prof.r * prof.code.n * (prof.q - 1)})
        self._patch_function(regularity, "complete_regularity",
                             "regularity.complete_regularity")
        self._patch_function(regularity, "oa_strength",
                             "regularity.oa_strength")

        self._patch_function(
            diffmat, "difference_matrix", "diffmat.difference_matrix",
            count=lambda dm, *a, **k: {"entries": dm.side * dm.side})
        self._patch_function(diffmat, "is_difference_matrix",
                             "diffmat.is_difference_matrix")
        self._patch_function(diffmat, "dm_code", "diffmat.dm_code")

        for attr in ("cr1_extended_hamming", "cr2_dm_dual", "cr3_mds_dual",
                     "cr4_bose_bush", "cr5_delsarte", "cr6_denniston"):
            self._patch_function(families, attr, "families.construct")
        self._patch_function(families, "family_match",
                             "families.family_match")

        self._patch_function(
            search, "search_antipodal_duals", "search.census",
            count=lambda entries, *a, **k: {"entries": len(entries)})
        self._patch_function(search, "search_arcs", "search.arcs")

        self._patch_function(report, "build_code_report", "report.build")
        for attr in _CONDITIONS:
            self._patch_function(conditions, attr, "conditions")

        self._patch_function(fileio, "read_gfc", "fileio.read_gfc")
        self._patch_function(fileio, "write_gfc", "fileio.write")
        self._patch_function(fileio, "write_dm", "fileio.write")
        self._patch_function(fileio, "report_to_dict",
                             "fileio.report_to_dict")
        self._patch_function(fileio, "validate_report_dict",
                             "fileio.validate_report_dict")

        self._patch_function(cli, "main", "cli.main")
        self._patch_function(field, "field_create", "field.create")
        self._patch_function(field, "field_from_modulus", "field.create")

        tracer = self
        original_init = budgets.BudgetExceeded.__init__

        def counting_init(exc, *args, **kwargs):
            tracer.refusals += 1
            original_init(exc, *args, **kwargs)

        self._patches.append((budgets.BudgetExceeded, "__init__",
                              budgets.BudgetExceeded.__dict__.get("__init__")))
        budgets.BudgetExceeded.__init__ = counting_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out = {name: (0.0, "s") for name in sorted(set(SELF_TIME.values()))}
        for metric in COUNTS:
            out[metric] = (0, "count")
        by_layer_rss = dict.fromkeys(RSS_LAYERS, 0)
        census_cr_checks = 0
        for i, span in enumerate(self.spans):
            metric = SELF_TIME[span.name]
            value, unit = out[metric]
            out[metric] = (value + (span.end - span.start) - child_time[i],
                           unit)
            layer = span.name.split(".", 1)[0]
            if layer in by_layer_rss:
                by_layer_rss[layer] += span.rss_kb
            if (span.name == "regularity.complete_regularity"
                    and self._has_ancestor(i, "search.census")):
                census_cr_checks += 1
        for metric, (span_name, key) in COUNTS.items():
            out[metric] = (sum(s.counts.get(key, 0) for s in self.spans
                               if s.name == span_name), "count")
        for layer, kb in by_layer_rss.items():
            out[f"{layer}.rss_rise_mb"] = (kb / 1024.0, "MB")
        out["search.census_cr_checks"] = (census_cr_checks, "count")
        out["budgets.refusals"] = (self.refusals, "count")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def write_spans(self, path) -> None:
        """One JSON object per span; times are perf_counter seconds."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "counts": s.counts,
                    "rss_rise_kb": s.rss_kb}) + "\n")
