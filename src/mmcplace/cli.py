"""Command-line entry points.

Subcommands:
  simulate       run placement policies over a scenario, write CSVs
  sweep-window   grid of policy-e runs over window lengths and error rates
  oracle-check   spot-check predicted-vs-actual cost error against the bound
  convert-trace  normalize raw per-vehicle GPS logs into the trace CSV format
  ratio-curve    single-slot greedy cost against the fractional lower bound

Exit codes: 0 ok, 1 oracle-check failure, 2 configuration error,
3 trace I/O error.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

import numpy as np

from .config import ConfigError, ScenarioConfig, parse_config, validate_config
from .core import ServiceInstance, Window
from .costs import WindowCostEvaluator
from .predictor import CostOracle, PowerLawErrorBound
from .scenario import TraceIOError
from .simulator import (POLICIES, build_scenario, run_policy, sweep_window,
                        synthetic_ratio_experiment, write_results_csv,
                        write_summary_csv, write_sweep_csv)

log = logging.getLogger("mmcplace")


def _setup_logging():
    level = os.environ.get("MMCPLACE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_config(path: str | None) -> ScenarioConfig:
    if not path:
        return ScenarioConfig()
    return parse_config(path)


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    if args.slots:
        cfg.horizon = args.slots
    if args.window:
        cfg.window_T = args.window
    if args.seed is not None:
        cfg.master_seed = args.seed
    validate_config(cfg)
    seed = cfg.master_seed
    policies = list(POLICIES) if args.policy == "all" else [args.policy]
    scn = build_scenario(cfg, seed)
    log.info("scenario: %d cells, %d instances, horizon %d",
             cfg.n_cells, len(scn.instances), cfg.horizon)
    results = [run_policy(scn, pol) for pol in policies]
    for res in results:
        pol = res.policy
        extra = f" T={res.window_T}" if res.window_T else ""
        print(f"policy {pol}: avg_cost={res.avg_cost:.4f} "
              f"runtime={res.runtime_ms:.0f}ms{extra}")
        if res.overflows:
            log.warning("policy %s: %d overflows to the backend", pol,
                        res.overflows)
    os.makedirs(args.out_dir, exist_ok=True)
    write_results_csv(os.path.join(args.out_dir, "results.csv"), results)
    write_summary_csv(os.path.join(args.out_dir, "summary.csv"), results)
    print(f"wrote {args.out_dir}/results.csv and {args.out_dir}/summary.csv")
    return 0


def _parse_list(spec: str, kind, name: str, least) -> list:
    """'lo:hi' (integers) or a comma list; nonempty, every value finite
    and >= least."""
    try:
        if ":" in spec:
            lo, hi = spec.split(":", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [kind(x) for x in spec.split(",") if x]
    except ValueError:
        values = []
    if not values or not all(least <= v < math.inf for v in values):
        raise ConfigError(
            f"{name}: need finite numbers >= {least}, got {spec!r}")
    return values


def _cmd_sweep_window(args) -> int:
    cfg = _load_config(args.config)
    if args.slots:
        cfg.horizon = args.slots
    validate_config(cfg)
    T_values = _parse_list(args.T_range, int, "--T-range", 1)
    beta_values = _parse_list(args.beta_list, float, "--beta-list", 0.0)
    if args.seeds < 1:
        raise ConfigError("--seeds: must be >= 1")
    seeds = list(range(1, args.seeds + 1))
    rows = sweep_window(cfg, T_values, beta_values, seeds)
    os.makedirs(args.out_dir, exist_ok=True)
    out = os.path.join(args.out_dir, "sweep.csv")
    write_sweep_csv(out, rows)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def _cmd_oracle_check(args) -> int:
    cfg = _load_config(args.config)
    if args.window < 0:
        raise ConfigError("--window: must be >= 0 (0 = 8 slots)")
    if args.samples < 1:
        raise ConfigError("--samples: must be >= 1")
    if args.seed is not None:
        cfg.master_seed = args.seed
    validate_config(cfg)
    seed = cfg.master_seed
    scn = build_scenario(cfg, seed)
    bound = PowerLawErrorBound(cfg.beta, cfg.alpha)
    oracle = CostOracle(scn.model, bound, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 404]))
    T = args.window or 8
    window = Window(1, T)
    insts = [ServiceInstance(id=j + 1, arrival_slot=1, user_id=None)
             for j in range(4)]
    predicted = oracle.predicted_model(1, window)
    actual_ev = WindowCostEvaluator(window, insts, scn.model)
    pred_ev = WindowCostEvaluator(window, insts, predicted)
    worst = -np.inf                  # largest gap - epsilon over the samples
    violations = 0
    for _ in range(args.samples):
        states = [tuple(int(rng.integers(1, scn.model.K + 1))
                        for _ in insts) for _ in window.slots]
        for q, t in enumerate(window.slots):
            a = actual_ev.local(t, states[q])
            d = pred_ev.local(t, states[q])
            gap = abs(a - d)
            eps = bound.epsilon(t - 1)
            worst = max(worst, gap - eps)
            if gap > eps + 1e-9:
                violations += 1
    if violations:
        print(f"FAIL: {violations} samples exceeded the error bound "
              f"(worst excess {worst:.3e})")
        return 1
    print(f"ok: {args.samples} sampled states within the bound "
          f"(largest gap - epsilon {worst:.3e})")
    return 0


def _cmd_convert_trace(args) -> int:
    """Raw per-vehicle logs ('lat lon occupancy timestamp' lines, one file
    per vehicle) -> normalized user_id,timestamp,lat,lon CSV."""
    import csv

    rows = []
    malformed = 0
    try:
        paths = sorted(args.inputs)
        for uid, path in enumerate(paths, start=1):
            with open(path) as fh:
                for line in fh:
                    parts = line.split()
                    if len(parts) != 4:
                        malformed += 1
                        continue
                    try:
                        lat, lon = float(parts[0]), float(parts[1])
                        ts = float(parts[3])
                    except ValueError:
                        malformed += 1
                        continue
                    rows.append((uid, ts, lat, lon))
    except OSError as exc:
        print(f"trace I/O error: {exc}", file=sys.stderr)
        return 3
    rows.sort(key=lambda r: (r[0], r[1]))
    try:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["user_id", "timestamp", "lat", "lon"])
            writer.writerows(rows)
    except OSError as exc:
        print(f"trace I/O error: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {args.out}: {len(rows)} fixes from {len(args.inputs)} "
          f"users, {malformed} malformed lines skipped")
    return 0


def _cmd_ratio_curve(args) -> int:
    if min(args.arrivals, args.seeds, args.sample_every) < 1:
        raise ConfigError("--arrivals, --seeds and --sample-every must be >= 1")
    samples, ints, fracs, ratio = synthetic_ratio_experiment(
        args.arrivals, range(1, args.seeds + 1),
        sample_every=args.sample_every)
    os.makedirs(args.out_dir, exist_ok=True)
    out = os.path.join(args.out_dir, "ratio.csv")
    with open(out, "w") as fh:
        fh.write("arrivals,mean_integral_cost,mean_fractional_cost,ratio\n")
        for m in samples:
            fh.write(f"{m},{ints[m]:.10g},{fracs[m]:.10g},{ratio[m]:.10g}\n")
    print(f"wrote {out}: final ratio {ratio[samples[-1]]:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mmcplace",
                                description="micro-cloud service placement "
                                            "experiments")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run placement policies")
    sim.add_argument("--config", default=None, help="INI scenario config")
    sim.add_argument("--policy", default="all",
                     choices=list(POLICIES) + ["all"])
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--slots", type=int, default=0,
                     help="override horizon length")
    sim.add_argument("--window", type=int, default=0,
                     help="fixed look-ahead window (0 = optimizer's choice)")
    # policies always run one after another; --jobs 1 is still accepted
    # only because perfbench's simulate command line passes it
    sim.add_argument("--jobs", type=int, default=1, choices=[1],
                     help=argparse.SUPPRESS)
    sim.add_argument("--out-dir", default="out")
    sim.set_defaults(func=_cmd_simulate)

    sw = sub.add_parser("sweep-window", help="policy-e cost vs window length")
    sw.add_argument("--config", default=None)
    sw.add_argument("--slots", type=int, default=0)
    sw.add_argument("--T-range", dest="T_range", default="1:30",
                    help="lo:hi or comma list of window lengths")
    sw.add_argument("--beta-list", dest="beta_list", default="0.1,0.4")
    sw.add_argument("--seeds", type=int, default=8,
                    help="run seeds 1..N")
    sw.add_argument("--out-dir", default="out")
    sw.set_defaults(func=_cmd_sweep_window)

    oc = sub.add_parser("oracle-check",
                        help="verify predicted costs respect the error bound")
    oc.add_argument("--config", default=None)
    oc.add_argument("--seed", type=int, default=None)
    oc.add_argument("--window", type=int, default=0)
    oc.add_argument("--samples", type=int, default=200)
    oc.set_defaults(func=_cmd_oracle_check)

    ct = sub.add_parser("convert-trace",
                        help="normalize raw GPS logs into the trace format")
    ct.add_argument("inputs", nargs="+", help="per-vehicle log files")
    ct.add_argument("--out", required=True)
    ct.set_defaults(func=_cmd_convert_trace)

    rc = sub.add_parser("ratio-curve",
                        help="greedy vs fractional lower bound, one slot")
    rc.add_argument("--arrivals", type=int, default=4000)
    rc.add_argument("--seeds", type=int, default=20, help="run seeds 1..N")
    rc.add_argument("--sample-every", type=int, default=10)
    rc.add_argument("--out-dir", default="out")
    rc.set_defaults(func=_cmd_ratio_curve)
    return p


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except TraceIOError as exc:
        print(f"trace I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
