"""Per-layer tracing, installed from outside the forge package.

Each layer is a forge module.  The functions listed in BOUNDARY are the
calls other layers and users make into that layer; `Tracer.install`
replaces every binding of them in every loaded forge module namespace (a
module that did `from .presentations import abelianization` holds its own
binding) with a wrapper that records a span: name, start, end, parent span
and request.  Spans stay in memory until `write`.  Counts are attached to
the span that did the work.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("words", "stallings", "presentations", "snf", "quotients",
          "encoder", "squarecx", "fileformats", "cli")

# Helpers called once per letter or per search node (perm_mul, reverse, the
# Word methods) are left out: they are inner loops, not boundaries.
BOUNDARY = {
    "words": ("reduce", "parse_word", "format_word", "commutator", "conjugate",
              "cyclic_reduction", "is_conjugate", "root", "is_independent"),
    "snf": ("smith_normal_form",),
    "presentations": ("free_product", "free_product_with_renaming", "free_power",
                      "add_conjugation_relators", "substitute",
                      "verify_generator_change", "tietze_change_generators",
                      "exponent_matrix", "abelianization"),
    "stallings": ("rose", "fold", "canonical_form", "graph_of_subgroup", "core",
                  "rank", "total_rank", "membership", "fibre_product",
                  "malnormal_family_check", "translate", "translate_family_check",
                  "rewrite_to_kernel", "RelabelingAction.cyclic"),
    "quotients": ("search_homs", "simplify_presentation", "word_survives_upto",
                  "has_nontrivial_quotient_upto", "search_order_targeted",
                  "verify_order_spec", "element_order", "cycle_notation",
                  "_enumerate_homs", "_restore_assignment", "_transfer_word"),
    "encoder": ("step_injective_generators", "step_order_control",
                "step_conjugators", "select_malnormal_words",
                "revalidate_certificate", "assemble_Gw", "encode",
                "encode_discrete"),
    "squarecx": ("build_S_of_P", "check_link_condition", "link",
                 "pi1_presentation", "cellular_h1", "homs_killing_copies",
                 "one_square_torus"),
    "fileformats": ("parse_presentation", "format_presentation",
                    "parse_base_graph", "parse_graph_file", "resolve_immersion",
                    "load_immersion", "format_base_graph", "format_immersion",
                    "parse_complex", "format_complex", "trace_to_json",
                    "trace_from_json"),
    "cli": ("main", "run_encode_and_probe"),
}

REQUEST = len(LAYERS)  # layer id of the benchmark's own request spans


def _letters(presentation):
    return sum(len(r.letters) for r in presentation.relators)


def _presentation_hook(args, kwargs, presentation):
    return {"relator_letters_out": _letters(presentation)}


def _search_hook(args, kwargs, outcome):
    return {"searches": 1, "witnesses": int(outcome.status == "witness")}


def _cli_hook(args, kwargs, code):
    argv = args[0] if args else kwargs.get("argv")
    if argv and argv[0] == "quotients":
        return {"searches": 1, "witnesses": int(code == 0)}
    return {}


# Counts taken from a call's arguments and result:
# name -> function (args, kwargs, result) -> {count: value}.
HOOKS = {
    "stallings.fold": lambda a, k, r: {"fold_edges_in": len(a[0].domain.edges)},
    "stallings.core": lambda a, k, r: {"core_edges_out": len(r.domain.edges)},
    "stallings.fibre_product":
        lambda a, k, r: {"fibre_vertices": len(r.total.vertices)},
    "encoder.encode": lambda a, k, r: {"output_relator_letters": _letters(r.p_w)},
    "encoder.encode_discrete":
        lambda a, k, r: {"output_relator_letters": _letters(r)},
    "snf.smith_normal_form":
        lambda a, k, r: {"matrix_entries": len(a[0]) * len(a[0][0]) if a[0] else 0},
    "squarecx.build_S_of_P": lambda a, k, r: {"cells": len(r.complex.vertices)
                                              + len(r.complex.edges)
                                              + len(r.complex.squares)},
    "fileformats.parse_presentation": lambda a, k, r: {"bytes": len(a[0])},
    "fileformats.parse_complex": lambda a, k, r: {"bytes": len(a[0])},
    "fileformats.parse_graph_file": lambda a, k, r: {"bytes": len(a[0])},
    "fileformats.parse_base_graph": lambda a, k, r: {"bytes": len(a[0])},
    "fileformats.trace_from_json": lambda a, k, r: {"bytes": len(a[0])},
    "fileformats.format_presentation": lambda a, k, r: {"bytes": len(r)},
    "fileformats.format_complex": lambda a, k, r: {"bytes": len(r)},
    "fileformats.format_immersion": lambda a, k, r: {"bytes": len(r)},
    "fileformats.format_base_graph": lambda a, k, r: {"bytes": len(r)},
    "fileformats.trace_to_json": lambda a, k, r: {"bytes": len(r)},
    "presentations.free_product": _presentation_hook,
    "presentations.free_product_with_renaming":
        lambda a, k, r: _presentation_hook(a, k, r[0]),
    "presentations.free_power": _presentation_hook,
    "presentations.add_conjugation_relators": _presentation_hook,
    "presentations.tietze_change_generators": _presentation_hook,
    "quotients.has_nontrivial_quotient_upto": _search_hook,
    "quotients.word_survives_upto": _search_hook,
    "quotients.search_order_targeted": _search_hook,
    "cli.main": _cli_hook,
}


class Tracer:
    """Span recorder.  Span i has name names[i] (an index into `labels`),
    layer, parent (-1 for a request root), request (root span index),
    start and end in perf_counter seconds."""

    def __init__(self):
        self.labels = []
        self.label_ids = {}
        self.names = array("l")
        self.layers = array("l")
        self.parents = array("l")
        self.requests = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = []          # (span, count name, value)
        self.calls = [0] * len(LAYERS)
        self.stack = []
        self._restore = []

    # -- recording --------------------------------------------------------

    def _label(self, name):
        if name not in self.label_ids:
            self.label_ids[name] = len(self.labels)
            self.labels.append(name)
        return self.label_ids[name]

    def _open(self, label, layer):
        parent = self.stack[-1]
        idx = len(self.names)
        self.names.append(label)
        self.layers.append(layer)
        self.parents.append(parent)
        self.requests.append(self.requests[parent])
        self.starts.append(0.0)
        self.ends.append(0.0)
        if self.layers[parent] != layer:
            self.calls[layer] += 1
        self.stack.append(idx)
        return idx

    @contextlib.contextmanager
    def request(self, kind):
        """One request's root span; every span it causes carries its index."""
        idx = len(self.names)
        self.names.append(self._label(kind))
        self.layers.append(REQUEST)
        self.parents.append(-1)
        self.requests.append(idx)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.stack.append(idx)
        try:
            yield
        finally:
            self.ends[idx] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, name, layer, fn, hook):
        label = self._label(name)
        open_, stack, starts, ends = self._open, self.stack, self.starts, self.ends
        counts, clock = self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = open_(label, layer)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    counts.append((idx, key, value))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name, layer, fn):
        """One span per resume; the search-node count is the growth of the
        budget tracker (third argument) over the generator's life, and the
        relator letters are those of the searched presentation."""
        label = self._label(name)
        tracer = self
        clock = time.perf_counter

        def resumes(it, budget, letters):
            nodes0 = budget.nodes if budget is not None else 0
            last = None
            try:
                while True:
                    idx = tracer._open(label, layer)
                    if last is None:
                        tracer.counts.append((idx, "relator_letters", letters))
                    elif tracer.layers[tracer.parents[idx]] != layer:
                        tracer.calls[layer] -= 1   # a resume, not a new call
                    last = idx
                    tracer.starts[idx] = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.ends[idx] = clock()
                        tracer.stack.pop()
                    yield item
            finally:
                it.close()
                if budget is not None and last is not None:
                    tracer.counts.append((last, "nodes", budget.nodes - nodes0))

        def wrapper(p, n, budget=None, *args, **kwargs):
            return resumes(fn(p, n, budget, *args, **kwargs), budget, _letters(p))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every boundary function of every layer, wherever a loaded
        forge module binds it."""
        forge_modules = [m for name, m in sys.modules.items()
                         if name == "forge" or name.startswith("forge.")]
        for layer_id, layer in enumerate(LAYERS):
            module = sys.modules[f"forge.{layer}"]
            for name in BOUNDARY[layer]:
                full = f"{layer}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    wrapped = self._wrap(full, layer_id, original.__func__,
                                         HOOKS.get(full))
                    setattr(cls, meth, classmethod(wrapped))
                    self._restore.append((cls, meth, original))
                    continue
                fn = getattr(module, name)
                if inspect.isgeneratorfunction(fn):
                    wrapped = self._wrap_generator(full, layer_id, fn)
                else:
                    wrapped = self._wrap(full, layer_id, fn, HOOKS.get(full))
                for m in forge_modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapped)
                            self._restore.append((m, attr, fn))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- aggregation ------------------------------------------------------

    def layer_metrics(self, wall_s):
        """Per-layer metrics over every recorded span."""
        n = len(self.names)
        child = [0.0] * n
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        self_s = [0.0] * (len(LAYERS) + 1)
        by_label = [0.0] * len(self.labels)
        for i in range(n):
            self_s[self.layers[i]] += dur[i] - child[i]
            by_label[self.names[i]] += dur[i]
        counts = {}
        for idx, key, value in self.counts:
            full = f"{LAYERS[self.layers[idx]]}.{key}"
            counts[full] = counts.get(full, 0) + value
        inclusive = dict(zip(self.labels, by_label))

        def c(key):
            return counts.get(key, 0)

        search_s = sum(t for label, t in inclusive.items()
                       if label.endswith("._enumerate_homs"))
        out = {}
        for layer_id, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = self.calls[layer_id]
            out[f"{layer}.self_s"] = self_s[layer_id]
        out.update({
            "stallings.fold_s": inclusive.get("stallings.fold", 0.0),
            "stallings.fibre_s": inclusive.get("stallings.fibre_product", 0.0),
            "stallings.fibre_vertices": c("stallings.fibre_vertices"),
            "stallings.fold_edges_in": c("stallings.fold_edges_in"),
            "stallings.core_edges_out": c("stallings.core_edges_out"),
            "encoder.select_s": inclusive.get("encoder.select_malnormal_words", 0.0),
            "encoder.revalidate_s": inclusive.get("encoder.revalidate_certificate", 0.0),
            "encoder.output_relator_letters": c("encoder.output_relator_letters"),
            "quotients.simplify_s": inclusive.get("quotients.simplify_presentation", 0.0),
            "quotients.nodes": c("quotients.nodes"),
            "quotients.nodes_per_s": c("quotients.nodes") / search_s if search_s else 0.0,
            "quotients.witness_ratio": (c("quotients.witnesses") + c("cli.witnesses"))
            / max(1, c("quotients.searches") + c("cli.searches")),
            "quotients.relator_letters": c("quotients.relator_letters"),
            "snf.matrix_entries": c("snf.matrix_entries"),
            "squarecx.build_s": inclusive.get("squarecx.build_S_of_P", 0.0),
            "squarecx.link_s": inclusive.get("squarecx.check_link_condition", 0.0),
            "squarecx.pi1_s": inclusive.get("squarecx.pi1_presentation", 0.0),
            "squarecx.h1_s": inclusive.get("squarecx.cellular_h1", 0.0),
            "squarecx.cells": c("squarecx.cells"),
            "presentations.relator_letters_out": c("presentations.relator_letters_out"),
            "fileformats.bytes": c("fileformats.bytes"),
            "trace.spans": n,
            "trace.layer_self_total_s": sum(self_s[:len(LAYERS)]),
            "trace.wall_s": wall_s,
        })
        return out

    def write(self, path):
        """All spans as JSON: a label table and one row per span."""
        counts = {}
        for idx, key, value in self.counts:
            counts.setdefault(idx, {})[key] = value
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"labels": ')
            json.dump(self.labels, fh)
            fh.write(', "columns": ["label", "parent", "request", "start", "end", '
                     '"counts"],\n"spans": [\n')
            for i in range(len(self.names)):
                row = [self.names[i], self.parents[i], self.requests[i],
                       round(self.starts[i], 7), round(self.ends[i], 7)]
                if i in counts:
                    row.append(counts[i])
                fh.write(("," if i else "") + json.dumps(row) + "\n")
            fh.write("]}\n")
