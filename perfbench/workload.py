#!/usr/bin/env python3
"""One benchmark workload in its own process (started by run.py).

    python3 perfbench/workload.py --workload NAME --seed N --seconds S
        [--probe] [--traced --max-reps R --spans PATH]

Repeats the workload on inputs derived from the seed for about S seconds
(at least once, at most R times), checks every output, and prints
one JSON object as its last stdout line: the per-repetition records, peak
RSS and, when traced, the per-layer metrics and the per-arrival scaling
grid. A traced run times the grid first, with no wrappers installed, then
installs the tracer and runs the workload.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import calibrate  # noqa: E402

from mmcplace import (cli, config, costs, offline, online, oracle,  # noqa: E402
                      predictor, simulator, window)
from mmcplace.core import (ConfigurationMatrix, ServiceInstance,  # noqa: E402
                           Window)

OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
REL_TOL = 1e-12
SETUP_REPS = 5

# fullscale-sim: the shipped 91-cell, 50-user day, truncated
FULLSCALE_INI = ROOT / "configs" / "fullscale.ini"
FULLSCALE_SLOTS = 100

# desk-sweep: policy-e window sweep on the desk config
DESK_INI = ROOT / "configs" / "desk.ini"
SWEEP_T = tuple(range(1, 31))
SWEEP_BETA = (0.1, 0.4)

# exact-ref: sizes of one repetition
BF_REP_COMBOS = 6000      # brute-force candidate matrices per repetition
BF_CASE_COMBOS = 1500     # largest single brute-force case
BF_SHAPE_SEED = 707       # the stream of brute-force window shapes
WIDE_DP = dict(K=3, M=5, T=2, t0=5)   # 243 joint states per slot
ONLINE = dict(K=6, M=40, horizon=40, window=8)
ONLINE_SHAPE_SEED = 708   # the stream of online arrival patterns
RATIO = dict(n_arrivals=1000, seeds=2, n_clouds=5)


def input_seed(seed: int, j: int) -> int:
    """Seed of the j-th input (scenario or cell) of a run with --seed seed."""
    return seed * 10_000 + j


class Rep:
    """One repetition of a workload: timings, outputs and failures.

    Every repetition of a run does the same work on the same inputs, so
    run.py can take each part's median time across repetitions. wall_s
    sums the parts; figures are timed pieces reported on their own (the
    policies inside `simulate`). The record gives each part, figure and
    set-up as [seconds net of probe time, median probe time around it]
    (see calibrate.Sampler); it is made after the run, once the probes
    that follow the last piece have been taken.
    """

    def __init__(self):
        self.timings: list[tuple] = []   # (kind, name, start, end, seconds)
        self.outputs: dict[str, float] = {}
        self.ops = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.ops += 1
        if not ok:
            self.failures.append(what)

    def add(self, kind: str, name: str | None, start: float, end: float,
            seconds: float | None = None) -> None:
        """Note work done in [start, end]: kind is "parts", "figures" or
        "setup_s"; `seconds` as in Sampler.account."""
        self.timings.append((kind, name, start, end, seconds))

    @contextlib.contextmanager
    def timing(self, name: str | None):
        """Time the enclosed block as part `name`, or as a set-up."""
        start = time.perf_counter()
        yield
        self.add("setup_s" if name is None else "parts", name, start,
                 time.perf_counter())

    def record(self, sampler: calibrate.Sampler) -> dict:
        out = {"parts": {}, "figures": {}, "setup_s": [],
               "outputs": self.outputs, "ops": self.ops,
               "failures": self.failures}
        for kind, name, start, end, seconds in self.timings:
            timing = list(sampler.account(start, end, seconds))
            if kind == "setup_s":
                out["setup_s"].append(timing)
            else:
                out[kind][name] = timing
        return out


# --- fullscale-sim ---------------------------------------------------------

def _fullscale_scenario(seed):
    cfg = config.parse_config(str(FULLSCALE_INI))
    cfg.horizon = FULLSCALE_SLOTS
    return simulator.build_scenario(cfg, seed)


def fullscale_rep(seed: int) -> Rep:
    """`mmcplace simulate --policy all --jobs 1` in-process, CSVs included.

    The part is the whole command; the five policy runs inside it, from
    the runtime_ms it reports, are figures of their own.
    """
    s = input_seed(seed, 0)
    rep = Rep()
    for _ in range(SETUP_REPS):
        with rep.timing(None):
            _fullscale_scenario(s)
    out_dir = OUT / f"fullscale-{s}"
    argv = ["simulate", "--config", str(FULLSCALE_INI), "--policy", "all",
            "--jobs", "1", "--slots", str(FULLSCALE_SLOTS), "--seed", str(s),
            "--out-dir", str(out_dir)]
    # when each policy ran, so that the probes inside it can be taken out
    spans = {}
    run_policy = cli.run_policy

    def spanned_run_policy(scn, policy, *args, **kwargs):
        start = time.perf_counter()
        try:
            return run_policy(scn, policy, *args, **kwargs)
        finally:
            spans[policy] = (start, time.perf_counter())

    cli.run_policy = spanned_run_policy
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            rc = cli.main(argv)
            end = time.perf_counter()
    finally:
        cli.run_policy = run_policy
    rep.check(rc == 0, f"simulate exited {rc}")
    with open(out_dir / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # one figure per policy, from the runtime_ms the command reports
    for r in rows:
        rep.add("figures", f"policy.{r['policy']}", *spans[r["policy"]],
                seconds=float(r["runtime_ms"]) / 1e3)
        cost = float(r["avg_cost"])
        rep.outputs[f"avg_cost.{r['policy']}"] = cost
        rep.check(math.isfinite(cost), f"policy {r['policy']} cost {cost}")
    rep.add("parts", "simulate", start, end)
    rep.check([r["policy"] for r in rows] == list(simulator.POLICIES),
              "summary.csv policies")
    return rep


# --- desk-sweep ------------------------------------------------------------

def desk_rep(seed: int) -> Rep:
    """One pass of the sweep grid (T x beta), each cell on its own scenario.

    The loop is sweep_window's at jobs 1, with run_policy timed per cell;
    drawing a scenario per cell rather than per seed averages the
    scenario-to-scenario spread of cell times inside one pass.
    """
    rep = Rep()
    rows = []
    j = 0
    for beta in SWEEP_BETA:
        base = config.parse_config(str(DESK_INI))
        obj = window.WindowObjective(
            base.gamma, base.sigma,
            predictor.PowerLawErrorBound(beta, base.alpha))
        with rep.timing(f"window.b{beta}"):
            t_star = window.optimal_window_binary_search(obj, max(SWEEP_T))
        for T in SWEEP_T:
            s = input_seed(seed, j)
            j += 1
            with rep.timing(None):
                scn = simulator.build_scenario(
                    config.parse_config(str(DESK_INI)), s)
            with rep.timing(f"cell.T{T}.b{beta}"):
                result = simulator.run_policy(scn, "e", window_T=T, beta=beta)
            cost = result.avg_cost
            rows.append({"T": T, "beta": beta, "seed": s, "avg_cost": cost,
                         "is_Tstar": int(T == t_star)})
            rep.outputs[f"avg_cost.T{T}.b{beta}.s{s}"] = cost
            rep.check(math.isfinite(cost), f"cell T={T} beta={beta} seed={s}")
    with rep.timing("csv"):
        simulator.write_sweep_csv(OUT / f"sweep-{seed}.csv", rows)
    return rep


# --- exact-ref -------------------------------------------------------------

def _poly_model(rng, K):
    """Random convex polynomial costs (the criterion-1 family)."""
    ucoeffs = np.zeros((K + 1, 3))
    ucoeffs[1:, 1] = rng.uniform(0.2, 2.0, K)
    ucoeffs[1:, 2] = rng.uniform(0.0, 1.0, K)
    wterms = [(0, 0, 1, float(rng.uniform(0.2, 1.0)))]
    if rng.random() < 0.5:
        wterms.append((0, 0, 2, float(rng.uniform(0.0, 0.5))))
    return costs.PolynomialCostModel(ucoeffs, wterms)


def _instance(rng, iid, arrival, life, departure=None):
    return ServiceInstance(id=iid, arrival_slot=arrival, max_lifetime=life,
                           local_demand=float(rng.uniform(0.3, 1.0)),
                           migration_demand=float(rng.uniform(0.3, 1.0)),
                           actual_departure_slot=departure)


def _span_len(inst, w):
    span = inst.active_span(w)
    return 0 if span is None else span[1] - span[0] + 1


def _bf_cases(rng):
    """Small random windows for DP-vs-enumeration, about BF_REP_COMBOS
    candidate matrices in all.

    The window shapes (K, M, T, arrivals, lifetimes) come from a stream
    fixed for every seed, so every seed enumerates the same number of
    matrices in the same number of cases; costs, demands and previous
    placements come from `rng`.
    """
    shapes = np.random.default_rng(BF_SHAPE_SEED)
    cases = []
    combos = 0
    while combos < BF_REP_COMBOS:
        K = int(shapes.integers(2, 4))
        M = int(shapes.integers(1, 4))
        T = int(shapes.integers(1, 5))
        w = Window(1, T)
        spans = [(int(shapes.integers(1, T + 1)),
                  int(shapes.integers(1, T + 1))) for _ in range(M)]
        insts = [_instance(rng, j, a, life)
                 for j, (a, life) in enumerate(spans, start=1)]
        n = K ** sum(_span_len(i, w) for i in insts)
        if n > BF_CASE_COMBOS:
            continue
        model = _poly_model(rng, K)
        prev = {i.id: 1 + int(rng.integers(K)) for i in insts
                if i.arrival_slot == 1 and rng.random() < 0.5}
        cases.append((w, insts, prev, model))
        combos += n
    return cases


def _wide_dp_case(rng):
    """Every instance active in every slot of a mid-horizon window, so each
    joint layer holds K^M states and the DP does a fixed number of
    relaxations."""
    K, M, T, t0 = WIDE_DP["K"], WIDE_DP["M"], WIDE_DP["T"], WIDE_DP["t0"]
    model = _poly_model(rng, K)
    w = Window(t0, T)
    insts = [_instance(rng, j, t0, math.inf) for j in range(1, M + 1)]
    prev = {i.id: 1 + int(rng.integers(K)) for i in insts if rng.random() < 0.7}
    return w, insts, prev, model


def _online_case(rng, oracle_seed):
    """Arrivals, departures and finite lifetimes over several windows, on
    predicted polynomial costs (so place_on_arrival takes the generic DP).

    As in _bf_cases, the arrival, lifetime and departure pattern comes
    from a fixed stream, so every seed does the same number of DP
    relaxations; costs, demands and prediction noise come from the seed.
    """
    K, M, H = ONLINE["K"], ONLINE["M"], ONLINE["horizon"]
    shapes = np.random.default_rng(ONLINE_SHAPE_SEED)
    model = _poly_model(rng, K)
    insts = []
    for j in range(1, M + 1):
        arrival = int(shapes.integers(1, H + 1))
        life = (int(shapes.integers(2, H)) if shapes.random() < 0.3
                else math.inf)
        departure = None
        if shapes.random() < 0.6:
            departure = min(H, arrival + int(shapes.integers(0, 16)))
        insts.append(_instance(rng, j, arrival, life, departure))
    oracle_ = predictor.CostOracle(
        model, predictor.PowerLawErrorBound(0.2, 1.1), seed=oracle_seed)
    return insts, oracle_


def _active(inst, t):
    return (inst.arrival_slot <= t <= inst.planned_end
            and (inst.actual_departure_slot is None
                 or t <= inst.actual_departure_slot))


def exact_rep(seed: int) -> Rep:
    """The validation references on seeded random polynomial-cost inputs."""
    rep = Rep()
    generated = None
    for _ in range(SETUP_REPS):
        with rep.timing(None):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 707]))
            generated = (_bf_cases(rng), _wide_dp_case(rng),
                         _online_case(rng, input_seed(seed, 0)))
    bf_cases, wide, (online_insts, online_oracle) = generated

    # offline DP against exhaustive enumeration (criterion 1)
    with rep.timing("dp_vs_enumeration"):
        for q, (w, insts, prev, model) in enumerate(bf_cases):
            dp = offline.solve_window_offline(w, insts, prev, model)
            bf = oracle.brute_force_offline(w, insts, prev, model)
            rel = abs(dp.cost - bf.cost) / max(abs(bf.cost), 1.0)
            rep.check(rel <= REL_TOL, f"bf case {q}: DP {dp.cost!r} vs "
                                      f"enumeration {bf.cost!r}")

    # offline DP on wide joint layers, bounded by sequential greedy placement
    with rep.timing("wide_dp"):
        w, insts, prev, model = wide
        dp = offline.solve_window_offline(w, insts, prev, model)
        matrix = ConfigurationMatrix(w, [x.id for x in insts])
        for inst in insts:
            matrix = online.place_on_arrival(inst, w.t0, matrix, insts, model,
                                             prev, want_cost=False).matrix
        greedy = costs.window_cost(model, matrix, insts, prev)
        recomputed = costs.window_cost(model, dp.matrix, insts, prev)
    layer = WIDE_DP["K"] ** WIDE_DP["M"]
    expected = layer + (WIDE_DP["T"] - 1) * layer * layer
    rep.check(dp.relaxations == expected,
              f"wide DP relaxations {dp.relaxations} != {expected}")
    rep.check(abs(recomputed - dp.cost) <= REL_TOL * max(abs(dp.cost), 1.0),
              f"wide DP cost {dp.cost!r} vs its matrix {recomputed!r}")
    rep.check(dp.cost <= greedy * (1 + REL_TOL) + REL_TOL,
              f"wide DP {dp.cost!r} above greedy {greedy!r}")
    rep.outputs["wide_dp.cost"] = dp.cost
    rep.outputs["wide_dp.greedy_cost"] = greedy

    # full-horizon online loop on the generic DP path
    with rep.timing("online_generic"):
        run = online.run_online(ONLINE["horizon"], ONLINE["window"],
                                online_insts, online_oracle)
    rep.check(all(math.isfinite(c) for c in run.actual_by_slot.values()),
              "online run has a non-finite slot cost")
    rep.check(all(set(run.placements.get(t, {}))
                  == {x.id for x in online_insts if _active(x, t)}
                  for t in range(1, ONLINE["horizon"] + 1)),
              "online run placed an inactive instance or left an active "
              "one unplaced")
    rep.outputs["online.total_cost"] = run.total_cost
    rep.outputs["online.relaxations"] = float(sum(run.relaxations_per_arrival))

    # greedy single-slot placement against the fractional lower bound
    seeds = [input_seed(seed, k) for k in range(RATIO["seeds"])]
    with rep.timing("ratio"):
        samples, _ints, _fracs, ratio = simulator.synthetic_ratio_experiment(
            n_arrivals=RATIO["n_arrivals"], seeds=seeds,
            n_clouds=RATIO["n_clouds"])
    rep.check(min(ratio.values()) >= 1.0 - 1e-9,
              f"ratio below 1: {min(ratio.values())!r}")
    rep.outputs["ratio.final"] = ratio[samples[-1]]
    return rep


REPS = {"fullscale-sim": fullscale_rep, "desk-sweep": desk_rep,
        "exact-ref": exact_rep}


def check_reference(stored: dict | None, rep: Rep) -> None:
    """Compare outputs with the stored fingerprint at rel <= REL_TOL."""
    if stored is None:
        return
    rep.check(set(rep.outputs) == set(stored), "fingerprint output names")
    for name, want in stored.items():
        got = rep.outputs.get(name)
        ok = got is not None and abs(got - want) <= REL_TOL * abs(want)
        rep.check(ok, f"fingerprint {name}: got {got!r}, stored {want!r}")


def run_reps(workload: str, seed: int, seconds: float, max_reps: int | None,
             tracer=None) -> list[Rep]:
    """Repeat the workload for about `seconds`, at least once and at most
    max_reps times: stop once another repetition, as long as the mean one
    so far, would end more than half a repetition past `seconds`. A run
    thus lasts `seconds` give or take half a repetition.

    Outputs are checked against the stored fingerprint when the seed has
    one, and every repetition must reproduce the first one's outputs.
    """
    make = REPS[workload]
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    stored = reference.get(workload, {}).get(str(seed))
    reps = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.run_id = len(reps)
        try:
            rep = make(seed)
            check_reference(stored, rep)
            if reps:
                rep.check(rep.outputs == reps[0].outputs,
                          "repetition outputs differ from the first")
        except Exception:  # a broken repetition is reported, the run goes on
            traceback.print_exc()
            rep = Rep()
            rep.check(False, "repetition raised: "
                      + traceback.format_exc(limit=1).strip())
        reps.append(rep)
        if max_reps is not None and len(reps) >= max_reps:
            break
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(reps) > seconds:
            break
    return reps


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(REPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--max-reps", type=int, default=None)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--spans", default=None, help="where to write the spans")
    ap.add_argument("--probe", action="store_true",
                    help="run the host-speed probe all through the run")
    args = ap.parse_args(argv)
    OUT.mkdir(exist_ok=True)

    result = {"numpy": np.__version__}
    tracer = None
    if args.traced:
        import grid
        import tracer as tracing
        result["grid_ms"] = grid.arrival_grid(args.seed)
        tracer = tracing.Tracer()
        tracing.install(tracer)
    # without --probe the sampler never runs: timings are plain wall time
    sampler = calibrate.Sampler()
    with sampler if args.probe else contextlib.nullcontext():
        reps = run_reps(args.workload, args.seed, args.seconds,
                        args.max_reps, tracer)
        # the probes that follow the last timed piece
        time.sleep(calibrate.PAD_S if args.probe else 0.0)
    result["reps"] = [rep.record(sampler) for rep in reps]
    if tracer is not None:
        result["per_layer"] = tracing.layer_metrics(tracer)
        if args.spans:
            tracer.dump(args.spans)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
