"""In-memory span tracer for the traced benchmark run.

Spans are recorded from outside the program: a wrapper is installed around
each public function listed in TARGETS, on the defining module and on every
spheremcg module that bound the same object by name (``from .action import
compose``), including tuples held in module-level dicts such as the CLI's
suite table.  The package source is never modified, and ``uninstall``
restores every binding.

A span is (name, parent span, start, end).  All spans stay in memory until
the run ends; self time is a span's duration minus the durations of its
direct children, so the self times of all spans under a root sum to the
root's duration.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import Counter

# (module, attribute) of every wrapped callable; the span name is
# "<module>.<attribute>" and the layer is the module.
TARGETS = (
    ("words", "reduce"),
    ("words", "concat"),
    ("presentation", "build_presentation"),
    ("presentation", "named_word"),
    ("action", "word_to_aut"),
    ("action", "compose"),
    ("action", "is_inner"),
    ("action", "equal_with_witness"),
    ("action", "order_of"),
    ("homs", "perm_image"),
    ("homs", "abelianization_image"),
    ("homs", "validate_hom"),
    ("homs", "pgl2_image"),
    ("coset", "enumerate_cosets"),
    ("coset", "CosetTable.verify"),
    ("harness", "verify_presentation"),
    ("harness", "verify_prop22"),
    ("harness", "verify_section3"),
    ("harness", "verify_lemma_y"),
    ("harness", "verify_lemma_z"),
    ("harness", "verify_main_even"),
    ("harness", "verify_odd"),
    ("harness", "verify_n4"),
    ("harness", "verify_sigma2"),
    ("harness", "full_report"),
    ("harness", "Report.to_json"),
    ("cli", "main"),
)

ROOT = "bench.op"

# Functions whose first argument is a word the observers measure; an
# iterator is materialised first so that counting does not consume it.
_WORD_ARG = ("words.reduce", "action.word_to_aut")

_NAME_OUTER = 1
_LAYER_OUTER = 2


class Tracer:
    """Records spans and counters; per-layer figures come from `totals`."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.layers: list[str] = []
        self.layer_of: list[int] = []
        self.depth: list[int] = []        # open spans per name
        self.layer_depth: list[int] = []  # open spans per layer
        self.spans: list[list[int]] = []  # [name, parent, start ns, end ns, flags]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.peaks: Counter = Counter()
        self._patches: list[tuple[object, object, object]] = []

    def _name_id(self, name: str) -> int:
        if name in self.ids:
            return self.ids[name]
        layer = name.split(".", 1)[0]
        if layer not in self.layers:
            self.layers.append(layer)
            self.layer_depth.append(0)
        self.ids[name] = len(self.names)
        self.names.append(name)
        self.layer_of.append(self.layers.index(layer))
        self.depth.append(0)
        return len(self.names) - 1

    def _wrap(self, name: str, fn, observe=None):
        nid = self._name_id(name)
        lid = self.layer_of[nid]
        spans, stack = self.spans, self.stack
        depth, layer_depth = self.depth, self.layer_depth
        clock = time.perf_counter_ns
        sized = name in _WORD_ARG

        def wrapper(*args, **kwargs):
            if sized and not hasattr(args[0], "__len__"):
                args = (tuple(args[0]),) + args[1:]
            flags = (_NAME_OUTER if depth[nid] == 0 else 0) | \
                (_LAYER_OUTER if layer_depth[lid] == 0 else 0)
            rec = [nid, stack[-1] if stack else -1, 0, 0, flags]
            stack.append(len(spans))
            spans.append(rec)
            depth[nid] += 1
            layer_depth[lid] += 1
            result = exc = None
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                rec[3] = clock()
                stack.pop()
                depth[nid] -= 1
                layer_depth[lid] -= 1
                if observe is not None:
                    observe(args, result, exc)

        wrapper.__wrapped__ = fn
        return wrapper

    def root(self, fn):
        """Call fn() under a root span; every program span nests below one."""
        return self._wrap(ROOT, fn)()

    def _open(self, name: str) -> bool:
        return name in self.ids and self.depth[self.ids[name]] > 0

    def _observers(self, limit_error):
        """Counts taken at the boundary where the work happens."""
        c, peaks = self.counters, self.peaks

        def reduce_obs(args, result, exc):
            c["words.reduce.letters"] += len(args[0])

        def word_to_aut_obs(args, result, exc):
            c["action.word_to_aut.letters_in"] += len(args[0])

        def compose_obs(args, result, exc):
            if self._open("action.order_of"):
                c["action.order_of.compose"] += 1
            if isinstance(exc, limit_error):
                c["action.guard_trips"] += 1
            if result is not None:
                letters = sum(len(img) for img in result.images)
                c["action.image_letters.total"] += letters
                peaks["action.image_letters.peak"] = max(
                    peaks["action.image_letters.peak"], letters)

        def is_inner_obs(args, result, exc):
            if self._open("action.order_of"):
                c["action.order_of.is_inner"] += 1
            if result is not None:
                c["action.is_inner.hits"] += 1

        def enumerate_obs(args, result, exc):
            if result is None:
                return
            s = result.stats
            c["coset.defined"] += s.defined
            c["coset.collapses"] += s.collapses
            peaks["coset.max_alive"] = max(peaks["coset.max_alive"], s.max_alive)
            if result.status == "overflow":
                c["coset.overflows"] += 1
            else:
                c["coset.index"] += result.index

        def checks_obs(args, result, exc):
            if result is not None:
                c["harness.checks"] += len(result)

        observers = {
            "words.reduce": reduce_obs,
            "action.word_to_aut": word_to_aut_obs,
            "action.compose": compose_obs,
            "action.is_inner": is_inner_obs,
            "coset.enumerate_cosets": enumerate_obs,
        }
        observers.update({f"harness.{attr}": checks_obs for _, attr in TARGETS
                          if attr.startswith("verify_")})
        return observers

    def install(self) -> None:
        mods = [m for k, m in sys.modules.items()
                if k == "spheremcg" or k.startswith("spheremcg.")]
        observers = self._observers(sys.modules["spheremcg.action"].ResourceLimitError)
        for modname, attr in TARGETS:
            name = f"{modname}.{attr}"
            owner = sys.modules[f"spheremcg.{modname}"]
            if "." in attr:  # a method: patch the class attribute
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            orig = vars(owner)[attr]
            wrapped = self._wrap(name, orig, observers.get(name))
            if isinstance(owner, type):
                self._set(owner, attr, wrapped)
                continue
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapped)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if isinstance(v, tuple) and orig in v:
                                self._set(value, k, tuple(wrapped if x is orig else x
                                                          for x in v))

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patches.clear()

    def totals(self):
        """Per span name (self ns, busy ns, calls) and per layer (self ns,
        busy ns).  Busy sums only spans with no open ancestor of the same
        name (or layer), so recursion and re-entry are not counted twice."""
        child = [0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_name = {name: [0, 0, 0] for name in self.names}
        per_layer = {layer: [0, 0] for layer in self.layers}
        for i, (nid, _, start, end, flags) in enumerate(self.spans):
            dur = end - start
            name_row = per_name[self.names[nid]]
            layer_row = per_layer[self.layers[self.layer_of[nid]]]
            name_row[0] += dur - child[i]
            layer_row[0] += dur - child[i]
            name_row[2] += 1
            if flags & _NAME_OUTER:
                name_row[1] += dur
            if flags & _LAYER_OUTER:
                layer_row[1] += dur
        return per_name, per_layer

    def write(self, path) -> None:
        """Spans as gzip CSV: a header naming the ids, then one span a line."""
        with gzip.open(path, "wt") as fh:
            fh.write("# names: " + ",".join(self.names) + "\n")
            fh.write("name,parent,start_ns,end_ns\n")
            for nid, parent, start, end, _ in self.spans:
                fh.write(f"{nid},{parent},{start},{end}\n")
