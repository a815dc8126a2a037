"""Outside-in span recorder for one traced CLI run, and its layer metrics.

The program is not edited. Instead the public functions of each hypart
module are wrapped where their callers look them up: ``driver``,
``initpart`` and ``cli`` bind names with ``from .x import y``, so a
wrapper on the defining module alone would miss those calls. Each
wrapper records a span (name, start, end, parent) plus a few counts
observed on its arguments and result. Spans stay in memory until the
run ends. The time spent observing counts is charged to no layer: it is
subtracted from the enclosing span's self time.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


def _pins(h) -> int:
    return sum(len(p) for p in h.pins_by_hyperedge)


def _cores(args, kwargs, result):
    return {"n": args[0].num_vertices, "in_cores": sum(len(c) for c in result.cores)}


def _matching(args, kwargs, result):
    return {"n": args[0].num_vertices,
            "matched": sum(1 for m in result.mate if m is not None)}


def _contract(args, kwargs, result):
    return {"fine_v": result.fine.num_vertices, "coarse_v": result.coarse.num_vertices,
            "fine_pins": _pins(result.fine), "coarse_pins": _pins(result.coarse)}


def _candidate(args, kwargs, result):
    window = kwargs["window"]
    return {"n": args[0].num_vertices,
            "balanced": window.violation(result.part_weight[0]) == 0.0}


def _fm_pass(args, kwargs, result):
    return {"delta": result[1]}


def _read(args, kwargs, result):
    return {"pins": _pins(result)}


# (module, attribute, span name, observer). Observers take the call's
# positional arguments, keyword arguments and result.
WRAPPED = (
    ("hypart.cli", "main", "cli.main", None),
    ("hypart.cli", "read_matrix_market", "cli.read_matrix_market", _read),
    ("hypart.cli", "run_many", "cli.run_many", None),
    ("hypart.cli", "write_partition", "cli.write_partition", None),
    ("hypart.driver", "validate", "driver.validate", None),
    ("hypart.driver", "partition_cost", "driver.partition_cost", None),
    ("hypart.driver", "max_imbalance", "driver.max_imbalance", None),
    ("hypart.driver", "initial_threshold", "driver.initial_threshold", None),
    ("hypart.driver", "build_edge_partitions", "driver.build_edge_partitions", None),
    ("hypart.driver", "extract_cores", "driver.extract_cores", _cores),
    ("hypart.driver", "match_in_cores", "driver.match_in_cores", None),
    ("hypart.driver", "match_noncore", "driver.match_noncore", _matching),
    ("hypart.driver", "contract", "driver.contract", _contract),
    ("hypart.driver", "generate_candidate", "driver.generate_candidate", _candidate),
    ("hypart.driver", "select_best", "driver.select_best", None),
    ("hypart.driver", "refine_bipartition", "driver.refine_bipartition", None),
    ("hypart.driver", "project", "driver.project", None),
    ("hypart.driver", "induce_subhypergraph", "driver.induce_subhypergraph", None),
    ("hypart.initpart", "refine_bipartition", "initpart.refine_bipartition", None),
    ("hypart.refine", "fm_pass", "refine.fm_pass", _fm_pass),
)

# Span fields, in the order they are stored and written.
NAME, START, END, PARENT, ATTRS, HIDDEN = range(6)


class Recorder:
    """Spans of one process, kept in memory as lists of the fields above."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        # (id(h), s) -> h for every clustering call. Holding h keeps its id
        # from being reused, so a repeat is a true repeat of the same object.
        self._clustered: Dict[tuple, object] = {}

    def _hcg(self, args, kwargs, result):
        h, s = args[0], args[1]
        key = (id(h), s)
        repeat = key in self._clustered
        self._clustered[key] = h
        return {"pins": _pins(h), "repeat": repeat}

    def wrap(self, fn: Callable, name: str,
             observe: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if observe is not None:
                span[ATTRS] = observe(args, kwargs, result)
                if parent >= 0:
                    spans[parent][HIDDEN] += clock() - span[END]
            return result

        return wrapper

    def install(self) -> None:
        """Replace every name in WRAPPED by a recording wrapper."""
        for module_name, attr, name, observe in WRAPPED:
            module = importlib.import_module(module_name)
            if name == "driver.build_edge_partitions":
                observe = self._hcg
            setattr(module, attr, self.wrap(getattr(module, attr), name, observe))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans}, f)


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def layer_metrics(spans: List[list], spawned_at: float) -> Dict[str, float]:
    """Per-layer metrics of one traced CLI run.

    ``_s`` values are summed inclusive span durations unless named self
    time; self time is a span's duration minus its children's and minus
    the time spent observing their counts. ``spawned_at`` is the parent's
    clock reading when it spawned the run (the clock is shared), so
    ``cli.startup_s`` is interpreter start plus ``import hypart``.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    time_of: Dict[str, float] = defaultdict(float)
    self_of: Dict[str, float] = defaultdict(float)
    attrs: Dict[str, List[dict]] = defaultdict(list)
    fm_driver: List[dict] = []
    fm_driver_s = 0.0
    for i, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        time_of[name] += duration
        self_of[name] += duration - covered[i] - span[HIDDEN]
        if span[ATTRS] is not None:
            attrs[name].append(span[ATTRS])
        if (name == "refine.fm_pass" and span[PARENT] >= 0
                and spans[span[PARENT]][NAME] == "driver.refine_bipartition"):
            fm_driver.append(span[ATTRS])
            fm_driver_s += duration

    hcg = attrs["driver.build_edge_partitions"]
    hcg_spans = [s for s in spans if s[NAME] == "driver.build_edge_partitions"]
    cores = attrs["driver.extract_cores"]
    matches = attrs["driver.match_noncore"]
    levels = attrs["driver.contract"]
    candidates = attrs["driver.generate_candidate"]
    return {
        "io.read_s": time_of["cli.read_matrix_market"],
        "io.write_s": time_of["cli.write_partition"],
        "io.pins": sum(a["pins"] for a in attrs["cli.read_matrix_market"]),
        "roughset.hcg_s": time_of["driver.build_edge_partitions"],
        "roughset.hcg_calls": len(hcg),
        "roughset.hcg_pins": sum(a["pins"] for a in hcg),
        "roughset.hcg_repeat_s": sum(s[END] - s[START] for s in hcg_spans if s[ATTRS]["repeat"]),
        "roughset.cores_s": time_of["driver.extract_cores"],
        "roughset.core_share": (sum(a["in_cores"] for a in cores)
                                / max(1, sum(a["n"] for a in cores))),
        "coarsen.threshold_s": time_of["driver.initial_threshold"],
        "coarsen.match_s": time_of["driver.match_in_cores"] + time_of["driver.match_noncore"],
        "coarsen.matched_share": (sum(a["matched"] for a in matches)
                                  / max(1, sum(a["n"] for a in matches))),
        "coarsen.contract_s": time_of["driver.contract"],
        "coarsen.levels": len(levels),
        "coarsen.vertex_ratio": _median([a["fine_v"] / a["coarse_v"] for a in levels], 1.0),
        "coarsen.pin_ratio": _median([a["fine_pins"] / max(1, a["coarse_pins"])
                                      for a in levels], 1.0),
        "coarsen.coarsest_vertices": _median([a["n"] for a in candidates]),
        "initpart.s": time_of["driver.generate_candidate"] + time_of["driver.select_best"],
        "initpart.candidates": len(candidates),
        "initpart.balanced_share": (sum(1 for a in candidates if a["balanced"])
                                    / max(1, len(candidates))),
        "refine.s": time_of["driver.refine_bipartition"],
        "refine.fm_pass_s": fm_driver_s,
        "refine.fm_passes": len(fm_driver),
        "refine.improving_pass_share": (sum(1 for a in fm_driver if a["delta"] < 0)
                                        / max(1, len(fm_driver))),
        "refine.cut_reduction": -sum(a["delta"] for a in fm_driver),
        "refine.project_s": time_of["driver.project"],
        "driver.induce_s": time_of["driver.induce_subhypergraph"],
        "driver.self_s": self_of["cli.run_many"],
        "model.validate_s": time_of["driver.validate"],
        "model.cost_s": time_of["driver.partition_cost"] + time_of["driver.max_imbalance"],
        "cli.self_s": self_of["cli.main"],
        "cli.startup_s": spans[0][START] - spawned_at,
    }
