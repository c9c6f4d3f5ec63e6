"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the mmcplace modules from outside, by
replacing module and class attributes; nothing under src/ is edited. Coarse
calls (policy runs, per-arrival DP, offline DP, evaluator calls, ...) become
spans kept in flat in-memory arrays: name, start, end, parent span and run
id (the benchmark repetition the call belongs to). Calls too small and too
frequent to time without distorting them (hex distances, cost-function
evaluations, matrix copies, slot-state tuples) are only counted.

A span's self time is its duration minus the durations of its direct
children; children nest inside their parent, so that is the time not
covered by a child span.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

from stats import median, tail


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.run_id = 0
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, fn, name, on_return=None):
        """fn wrapped so that each call records one span.

        name is a string or a callable (args, kwargs) -> string;
        on_return(args, result) runs after the span closes.
        """
        fixed = None if callable(name) else self._id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self._id(name(args, kwargs))
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.run.append(self.run_id)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result
        return wrapper

    def counter(self, fn, key, on_call=None):
        """fn wrapped so that each call bumps counts[key]."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if on_call is not None:
                on_call(args)
            return fn(*args, **kwargs)
        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def dump(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


def _replace_function(orig, wrapper) -> None:
    """Point every mmcplace module name bound to orig at wrapper, so calls
    made through `from .x import f` names are traced too."""
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("mmcplace"):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)


def _replace_method(cls, attr, wrapper_of) -> None:
    setattr(cls, attr, wrapper_of(cls.__dict__[attr]))


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of mmcplace. Call before any scenario is
    built: topologies capture their bound hex_distance at build time."""
    from mmcplace import (cli, core, costs, offline, online, oracle, predictor,
                          scenario, simulator, window)

    counts = tracer.counts

    def add_relaxations(key):
        def on_return(_args, result):
            counts[key] += result.relaxations
        return on_return

    def add_file_size(args, _result):
        counts["cli.csv_bytes"] += os.path.getsize(args[0])

    def policy_name(args, kwargs):
        policy = kwargs.get("policy", args[1] if len(args) > 1 else None)
        return f"simulator.run_policy.{str(policy).lower()}"

    functions = [
        (cli.main, "cli.main", None),
        (simulator.write_results_csv, "cli.csv_write", add_file_size),
        (simulator.write_summary_csv, "cli.csv_write", add_file_size),
        (simulator.write_sweep_csv, "cli.csv_write", add_file_size),
        (simulator.build_scenario, "scenario.build", None),
        (simulator.run_policy, policy_name, None),
        (simulator.synthetic_ratio_experiment,
         "simulator.synthetic_ratio_experiment", None),
        (window.optimal_window_binary_search,
         "window.optimal_window_binary_search", None),
        (online.run_online, "online.run_online", None),
        (online.place_on_arrival, "online.place_on_arrival",
         add_relaxations("online.relaxations")),
        (online.handle_departure, "online.handle_departure", None),
        (offline.solve_window_offline, "offline.solve_window_offline",
         add_relaxations("offline.relaxations")),
        (oracle.brute_force_offline, "oracle.brute_force_offline", None),
        (oracle.fractional_lower_bound_single_slot,
         "oracle.fractional_lower_bound", None),
    ]
    for fn, name, on_return in functions:
        _replace_function(fn, tracer.span(fn, name, on_return))

    _replace_method(predictor.CostOracle, "predicted_model",
                    lambda f: tracer.span(f, "predictor.predicted_model"))
    for attr in ("__init__", "state_loads", "transition_loads", "local",
                 "transition", "path_cost"):
        _replace_method(costs.WindowCostEvaluator, attr,
                        lambda f, a=attr: tracer.span(f, f"costs.evaluator.{a}"))

    def add_copy_bytes(args):
        counts["core.matrix_copy_bytes"] += args[0].data.nbytes

    _replace_method(core.ConfigurationMatrix, "copy",
                    lambda f: tracer.counter(f, "core.matrix_copy.calls",
                                             add_copy_bytes))
    _replace_method(core.ConfigurationMatrix, "slot_state",
                    lambda f: tracer.counter(f, "core.slot_state.calls"))
    _replace_method(scenario.HexTopology, "hex_distance",
                    lambda f: tracer.counter(f, "scenario.hex_distance.calls"))
    # base cost families only: PerturbedCostModel.u delegates to its base,
    # so each evaluation of a cost formula is counted once
    for cls in (costs.MmcBackendCostModel, costs.PolynomialCostModel,
                costs.LinearCostModel):
        _replace_method(cls, "u",
                        lambda f: tracer.counter(f, "costs.model_u.calls"))


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans and counters: name -> (value, unit)."""
    a = tracer.arrays()
    names = list(a["names"])
    nid = a["name"]
    parent = a["parent"]
    dur = a["end"] - a["start"]
    n_names = len(names)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_t = dur - child

    layers = sorted({n.split(".")[0] for n in names})
    layer_of = np.array([layers.index(n.split(".")[0]) for n in names],
                        dtype=np.int64)
    span_layer = layer_of[nid]
    parent_layer = np.where(has_parent, span_layer[np.maximum(parent, 0)], -1)
    outermost = span_layer != parent_layer

    calls = np.bincount(nid, minlength=n_names)
    total = np.bincount(nid, weights=dur, minlength=n_names)
    own = np.bincount(nid, weights=self_t, minlength=n_names)

    def by_name(name, arr):
        i = tracer._ids.get(name)
        return arr[i].item() if i is not None else arr.dtype.type(0).item()

    def layer_total(layer):
        if layer not in layers:
            return 0.0
        sel = outermost & (span_layer == layers.index(layer))
        return float(dur[sel].sum())

    def layer_self(layer):
        if layer not in layers:
            return 0.0
        return float(self_t[span_layer == layers.index(layer)].sum())

    counts = tracer.counts
    arrivals_id = tracer._ids.get("online.place_on_arrival")
    arrival_ms = (dur[nid == arrivals_id] * 1e3).tolist() \
        if arrivals_id is not None else []
    arr_tail, arr_pct, _beyond = tail(arrival_ms)
    place_total = by_name("online.place_on_arrival", total)
    offline_total = by_name("offline.solve_window_offline", total)
    online_relax = counts["online.relaxations"]
    offline_relax = counts["offline.relaxations"]

    out = {
        "scenario.build_s": (by_name("scenario.build", total), "s"),
        "scenario.hex_distance.calls":
            (counts["scenario.hex_distance.calls"], "count"),
        "predictor.predicted_model.calls":
            (by_name("predictor.predicted_model", calls), "count"),
        "predictor.predicted_model.total_s":
            (by_name("predictor.predicted_model", total), "s"),
        "online.place_on_arrival.calls": (len(arrival_ms), "count"),
        "online.place_on_arrival.p50_ms": (median(arrival_ms), "ms"),
        "online.place_on_arrival.tail_ms": (arr_tail, "ms"),
        "online.place_on_arrival.tail_pct": (arr_pct, "%"),
        "online.place_on_arrival.total_s": (place_total, "s"),
        "online.relaxations": (online_relax, "count"),
        "online.ns_per_relaxation":
            (place_total * 1e9 / online_relax if online_relax else 0.0, "ns"),
        "online.handle_departure.total_s":
            (by_name("online.handle_departure", total), "s"),
        "online.run_online.self_s": (by_name("online.run_online", own), "s"),
        "costs.state_loads.calls":
            (by_name("costs.evaluator.state_loads", calls), "count"),
        "costs.evaluator_s": (layer_total("costs"), "s"),
        "costs.model_u.calls": (counts["costs.model_u.calls"], "count"),
        "core.matrix_copy.calls": (counts["core.matrix_copy.calls"], "count"),
        "core.matrix_copy_bytes": (counts["core.matrix_copy_bytes"], "B"),
        "core.slot_state.calls": (counts["core.slot_state.calls"], "count"),
        "offline.solve_window_offline.total_s": (offline_total, "s"),
        "offline.relaxations": (offline_relax, "count"),
        "offline.us_per_relaxation":
            (offline_total * 1e6 / offline_relax if offline_relax else 0.0,
             "us"),
        "oracle.brute_force_offline.total_s":
            (by_name("oracle.brute_force_offline", total), "s"),
        "oracle.fractional_lower_bound.total_s":
            (by_name("oracle.fractional_lower_bound", total), "s"),
        "window.optimal_window_binary_search.total_s":
            (by_name("window.optimal_window_binary_search", total), "s"),
    }
    for p in "abcde":
        out[f"simulator.run_policy.{p}.s"] = (
            by_name(f"simulator.run_policy.{p}", total), "s")
    out["simulator.self_s"] = (layer_self("simulator"), "s")
    out["cli.csv_write_s"] = (by_name("cli.csv_write", total), "s")
    out["cli.csv_bytes"] = (counts["cli.csv_bytes"], "B")
    return out
