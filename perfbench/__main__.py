"""Command line: ``python3 -m perfbench {once,run,compare}``.

``once`` is what ``BENCHMARK.json`` names: one workload, one process,
the result as a JSON object on the last line of standard output.
``run`` drives ``once`` in a subprocess per workload (so peak RSS is the
workload's own), prints every metric by name with its unit and writes
``perfbench/out/BENCH_all.json``.  ``compare`` applies the bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

from perfbench import spec
from perfbench.compare import compare


def _require_source_tree() -> None:
    """The harness measures the checkout it sits in, never an installed
    copy: ``src/repro`` must be beside it."""
    src = spec.ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"perfbench: no source tree at {src}/repro")
    sys.path.insert(0, str(src))


def _scale(seconds: float) -> float:
    """``--seconds`` picks the size of the fixed workload: operation
    counts are the reference counts times seconds / run_seconds, and the
    reference counts take about ``run_seconds`` on the reference box."""
    return seconds / spec.load()["run_seconds"]


# -- once ------------------------------------------------------------------

def once(args) -> int:
    _require_source_tree()
    from perfbench import harness
    declared = spec.load()
    names = [w["name"] for w in declared["workloads"]]
    if args.workload not in names:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"BENCHMARK.json declares {', '.join(names)}")
    scale = _scale(args.seconds)
    harness.pin_allocator()
    try:
        if args.trace:
            result = harness.run_traced(args.workload, args.seed, scale)
            units = spec.per_layer_units()
            values = result["layers"]
            wanted = [m["name"] for m in declared["per_layer"]]
            spec.OUT_DIR.mkdir(exist_ok=True)
            trace_path = spec.OUT_DIR / f"trace_{args.workload}.json"
            trace_path.write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed,
                 "scale": scale, "spans": result.pop("spans")}))
        else:
            result = harness.run_untraced(args.workload, args.seed, scale)
            units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
            values = result["e2e"]
            wanted = list(units)
    except harness.CheckFailed as exc:
        # a workload whose output is wrong reports no metrics at all
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in wanted}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} "
              f"{metric['unit']}")
    if args.detail:
        with open(args.detail, "w") as f:
            json.dump(result, f)
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


# -- run -------------------------------------------------------------------

def _once_subprocess(workload: str, seed: int, seconds: float,
                     trace: int) -> dict:
    with tempfile.TemporaryDirectory(dir=spec.OUT_DIR) as scratch:
        detail = os.path.join(scratch, "detail.json")
        done = subprocess.run(
            [sys.executable, "-m", "perfbench", "once",
             "--workload", workload, "--seed", str(seed),
             "--seconds", repr(seconds), "--trace", str(trace),
             "--detail", detail],
            cwd=spec.ROOT, stdout=subprocess.DEVNULL)
        if done.returncode != 0:
            sys.exit(f"perfbench: {workload} failed "
                     f"(exit {done.returncode}); no metrics reported")
        with open(detail) as f:
            return json.load(f)


def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=spec.ROOT, text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _check_determinism(workloads: list[str], seed: int,
                       seconds: float) -> int:
    """Two same-seed untraced runs at 1/20 scale must agree exactly on
    every sim-clock metric and every count."""
    declared = spec.load()
    exact = [m["name"] for m in declared["end_to_end"]
             if spec.is_exact(m["name"], m["unit"])]
    differing = []
    for workload in workloads:
        first, second = (_once_subprocess(workload, seed, seconds / 20, 0)
                         for _ in range(2))
        pairs = [(key, first[key], second[key]) for key in
                 ("attempted", "failed", "ops", "steps", "sim_samples")]
        pairs += [(name, first["e2e"][name], second["e2e"][name])
                  for name in exact]
        moved = [f"{workload} {key}: {a!r} != {b!r}"
                 for key, a, b in pairs if a != b]
        print("\n".join(moved) if moved else f"{workload}: deterministic")
        differing += moved
    return 1 if differing else 0


def run(args) -> int:
    _require_source_tree()
    declared = spec.load()
    seconds = declared["run_seconds"] * args.scale
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    spec.OUT_DIR.mkdir(exist_ok=True)
    if args.check_determinism:
        return _check_determinism(workloads, args.seed, seconds)
    e2e_units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layer_units = spec.per_layer_units()
    started = time.time()
    out: dict[str, dict] = {}
    for workload in workloads:
        runs = [_once_subprocess(workload, args.seed, seconds, 0)
                for _ in range(args.repeat)]
        last = runs[-1]
        entry = {
            "attempted": last["attempted"], "failed": last["failed"],
            "ops": last["ops"], "steps": last["steps"],
            "step_samples": last["step_samples"],
            "step_tail_percentile": last["step_tail_percentile"],
            "step_tail_us": statistics.median(
                r["step_tail_us"] for r in runs),
            "sim_samples": last["sim_samples"],
            "measured_s": statistics.median(r["measured_s"] for r in runs),
            "e2e": {name: {
                "value": statistics.median(r["e2e"][name] for r in runs),
                "unit": unit,
                "runs": [r["e2e"][name] for r in runs]}
                for name, unit in e2e_units.items()},
        }
        for name, metric in entry["e2e"].items():
            print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
        print(f"{workload} step_tail_us {entry['step_tail_us']:.6g} us "
              f"(p{entry['step_tail_percentile']:.0f}, no bound)")
        print(f"{workload} failed_frac "
              f"{entry['failed'] / entry['attempted']:.6g} ratio")
        if args.trace:
            traced = _once_subprocess(workload, args.seed, seconds, 1)
            entry["layers"] = traced["layers"]
            for name, value in traced["layers"].items():
                print(f"{workload} {name} {value:.6g} {layer_units[name]}")
        out[workload] = entry
    bench = {
        "meta": {"commit": _git_commit(),
                 "python": platform.python_version(),
                 "nproc": os.cpu_count(), "seed": args.seed,
                 "scale": args.scale, "repeat": args.repeat,
                 "wall_start": started, "wall_end": time.time()},
        "claim": None,
        "workloads": out,
    }
    path = args.out or str(spec.OUT_DIR / "BENCH_all.json")
    with open(path, "w") as f:
        json.dump(bench, f, indent=1)
        f.write("\n")
    print(f"wrote {path}")
    return 0


# -- entry -----------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench")
    commands = parser.add_subparsers(dest="command", required=True)

    p_once = commands.add_parser(
        "once", help="one workload; JSON result on the last line")
    p_once.add_argument("--workload", required=True)
    p_once.add_argument("--seed", type=int, default=0)
    p_once.add_argument("--seconds", type=float, required=True)
    p_once.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_once.add_argument("--detail", help="also write the full result here")
    p_once.set_defaults(fn=once)

    p_run = commands.add_parser(
        "run", help="every workload; writes perfbench/out/BENCH_all.json")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--scale", type=float, default=1.0,
                       help="fraction of the reference operation counts")
    p_run.add_argument("--repeat", type=int, default=1,
                       help="untraced runs per workload (median reported)")
    p_run.add_argument("--trace", action="store_true",
                       help="add the traced per-layer run")
    p_run.add_argument("--workload", action="append",
                       help="only this workload (repeatable)")
    p_run.add_argument("--check-determinism", action="store_true")
    p_run.add_argument("--out", help="write the result here instead")
    p_run.set_defaults(fn=run)

    p_compare = commands.add_parser(
        "compare", help="apply BENCHMARK.json's bounds to two result files")
    p_compare.add_argument("a")
    p_compare.add_argument("b")
    p_compare.set_defaults(fn=lambda args: compare(args.a, args.b))

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
