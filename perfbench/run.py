#!/usr/bin/env python3
"""mmcplace benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload {fullscale-sim,desk-sweep,exact-ref}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; nothing needs installing. The
workload runs in a child process (perfbench/workload.py) with no threads.

--trace 0 repeats the workload for about S seconds untraced, with the
host-speed probe of calibrate.py running all through, and reports the
end-to-end metrics: wall_s sums each part's median over the repetitions,
setup_s is the median set-up time, both rescaled to the reference host
speed. --trace 1 runs one repetition untraced and the
same repetition traced in a second child, checks that both produce
identical outputs, and reports the per-layer metrics, the per-arrival
scaling grid and the tracing overhead (traced over untraced wall time).

Human-readable lines (environment stamp, every metric with its unit,
workload-specific figures) come first; the last stdout line is the JSON
result. The full result, with per-repetition records, is also written to
.perfbench_out/. Exits 2 without a result when the checkout has no
mmcplace sources, 1 when a child fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from calibrate import PROBE_REF_S  # noqa: E402
from stats import median, tail  # noqa: E402

WORKLOADS = ("fullscale-sim", "desk-sweep", "exact-ref")
REQUIRED = ("src/mmcplace/__init__.py", "configs/fullscale.ini",
            "configs/desk.ini")
RUN_LIMIT_S = 170        # both children together, under the 180 s cap


def read_loadavg() -> str:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unavailable"


def environment() -> dict:
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10).stdout.split()
        # a checkout that is not itself a repository has no commit
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(
            (ROOT / "configs").glob("*.ini")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_before": read_loadavg()}


def run_child(args, seconds, deadline, traced=False, max_reps=None,
              spans=None, probe=False) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds)]
    if traced:
        cmd.append("--traced")
    if probe:
        cmd.append("--probe")
    if max_reps is not None:
        cmd += ["--max-reps", str(max_reps)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    # no BLAS worker threads: the workload stays single-threaded
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    # subprocess.run kills and reaps the child when the timeout expires
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"workload child exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ops(reps) -> tuple[int, int]:
    return (sum(r["ops"] for r in reps),
            sum(len(r["failures"]) for r in reps))


def scaled(timing) -> float:
    """Seconds at the reference host speed, from [net seconds, probe]."""
    seconds, probe = timing
    return seconds * PROBE_REF_S / probe


def typical(reps, kind="parts") -> dict[str, float]:
    """Each part's (or figure's) median rescaled time across the
    repetitions."""
    return {name: median(scaled(r[kind][name]) for r in reps)
            for name in reps[0][kind]}


def end_to_end(args, child) -> tuple[dict, dict]:
    """(gated metrics, workload-specific figures) from an untraced child.

    Every part and set-up is rescaled to the reference host speed by the
    probe times around it (calibrate.py). The unscaled figures are printed
    as wall_raw_s and setup_raw_s, the median probe time as probe_ms.
    """
    reps = [r for r in child["reps"] if r["parts"]]
    if not reps:
        raise RuntimeError("no repetition completed")
    attempted, failed = ops(child["reps"])
    parts = typical(reps)
    setups = [t for r in reps for t in r["setup_s"]]
    metrics = {
        "setup_s": (median(scaled(t) for t in setups), "s"),
        "wall_s": (sum(parts.values()), "s"),
        "peak_rss_mb": (child["peak_rss_mb"], "MB"),
    }
    raw = sum(median(r["parts"][name][0] for r in reps)
              for name in reps[0]["parts"])
    extra = {"failed_frac": (failed / attempted, "1"),
             "reps": (len(child["reps"]), "count"),
             "wall_raw_s": (raw, "s"),
             "setup_raw_s": (median(t[0] for t in setups), "s"),
             "probe_ms": (1e3 * median(p for r in reps
                                       for _t, p in r["parts"].values()),
                          "ms")}
    if args.workload == "fullscale-sim":
        policy = typical(reps, "figures")
        extra["policy_d_s"] = (policy["policy.d"], "s")
        extra["policy_e_s"] = (policy["policy.e"], "s")
        extra["policies_abc_s"] = (policy["policy.a"] + policy["policy.b"]
                                   + policy["policy.c"], "s")
    elif args.workload == "desk-sweep":
        cells = [v for k, v in parts.items() if k.startswith("cell.")]
        value, pct, beyond = tail(cells)
        extra["cell_p50_s"] = (median(cells), "s")
        extra["cell_tail_s"] = (value, "s")
        extra["cell_tail_pct"] = (pct, "%")
        extra["cells"] = (len(cells), "count")
        extra["cells_beyond_tail"] = (beyond, "count")
    return metrics, extra


def per_layer(plain, traced_child) -> tuple[dict, list[str]]:
    """Per-layer metrics plus tracing overhead, and the mismatches between
    the traced and untraced outputs of the same repetition."""
    metrics = {k: tuple(v) for k, v in traced_child["per_layer"].items()}
    for point, ms in traced_child["grid_ms"].items():
        metrics[f"online.grid.{point}.ms"] = (ms, "ms")
    p, t = plain["reps"][0], traced_child["reps"][0]
    mismatches = [] if p["outputs"] == t["outputs"] else [
        "traced outputs differ from untraced ones"]
    untraced_s = sum(seconds for seconds, _probe in p["parts"].values())
    traced_s = sum(seconds for seconds, _probe in t["parts"].values())
    metrics["trace.overhead"] = (traced_s / untraced_s if untraced_s else 0.0,
                                 "ratio")
    return metrics, mismatches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not an mmcplace checkout, missing {missing}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    env = environment()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            # one repetition untraced, then the same one traced
            plain = run_child(args, 0, deadline, max_reps=1)
            traced_child = run_child(args, 0, deadline, traced=True,
                                     max_reps=1,
                                     spans=OUT / f"spans-{tag}.npz")
            metrics, mismatches = per_layer(plain, traced_child)
            reps = plain["reps"] + traced_child["reps"]
            extra = {}
        else:
            plain = run_child(args, args.seconds, deadline, probe=True)
            metrics, extra = end_to_end(args, plain)
            reps = plain["reps"]
            mismatches = []
    except (RuntimeError, subprocess.SubprocessError, ValueError,
            KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    env["numpy"] = plain["numpy"]
    attempted, failed = ops(reps)
    attempted += args.trace          # the traced-vs-untraced comparison
    failed += len(mismatches)
    failures = [f for r in reps for f in r["failures"]] + mismatches
    env["loadavg_after"] = read_loadavg()

    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} {value} {unit}")
    for f in failures:
        print(f"FAILED {f}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"env": env, "result": result,
         "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
         "reps": plain["reps"]}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
