"""End-to-end and per-layer benchmark of the `nfl` command.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src.
Every measured call is `nelsonlab.cli.main(argv)` in a fresh
interpreter (child.py) on a generated INI file, one call after the
other (a closed loop with one client).  Calls repeat until --seconds
is used up, at least twice so that their outputs can be compared.

--trace 0 reports the end-to-end metrics: the median wall time of the
calls, the median set-up time of SETUP_REPEATS fresh interpreters and
the median peak RSS.  --trace 1 runs the same loop with the span
tracer of tracer.py installed and reports the per-layer metrics
instead, each the median over the calls.

After the timed region each workload's gate (workloads.py) checks the
outputs.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it name each
metric with its unit and record the run environment.  Scratch files go
to .perfbench/<workload>/ in the current directory.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics, load_spans
from workloads import VERIFY_TASKS, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
MIN_CALLS = 2
DEADLINE_S = 165.0       # stop starting work after this; exit well within 180 s
GATE_RESERVE_S = 15.0

UNITS = {"wall_s": "s", "setup_s": "s", "rss_peak_mb": "MiB"}


class Call:
    """One finished `cli.main` call: its output directory, the exit code
    of main and the child's result record."""

    def __init__(self, out, result):
        self.out = out
        self.rc = result["rc"]
        self.result = result


def _child(args, env, log, timeout):
    cmd = [sys.executable, str(HERE / "child.py")] + [str(a) for a in args]
    with open(log, "w", encoding="utf-8") as fh:
        proc = subprocess.run(cmd, env=env, cwd=log.parent, stdout=fh,
                              stderr=subprocess.STDOUT, timeout=timeout,
                              check=False)
    return proc.returncode


def _layer_extras(wl, out):
    """Per-layer numbers the program writes itself."""
    extra = {"cli.bytes_written": sum(p.stat().st_size for p in out.iterdir()
                                      if p.is_file())}
    tasks = {}
    checks = failed = 0
    if wl.name == "verify":
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        tasks = manifest["tasks"]
        report = json.loads((out / "verify.json").read_text("utf-8"))
        checks, failed = report["n_checks"], report["n_failed"]
    for task in VERIFY_TASKS:
        extra[f"verify.task.{task}.s"] = float(
            tasks.get(task, {}).get("wall_time_s", 0.0))
    extra["verify.checks"] = checks
    extra["verify.checks_failed"] = failed
    return extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()

    root = Path.cwd()
    src = root / "src"
    if not (src / "nelsonlab" / "cli.py").is_file():
        print(f"error: no nelsonlab package under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np
    from nelsonlab.config import load_config

    wl = WORKLOADS[args.workload]
    work = root / ".perfbench" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "workload.ini"
    config.write_text(wl.ini, encoding="utf-8")
    cfg = load_config(config, env={})
    env = {k: v for k, v in os.environ.items() if not k.startswith("NFL_")}
    env["PYTHONPATH"] = str(src)
    module = str(src / "nelsonlab" / "__init__.py")

    def remaining():
        return DEADLINE_S - (time.perf_counter() - began)

    setups = []
    if not args.trace:
        for i in range(SETUP_REPEATS):
            result = work / f"setup{i}.json"
            log = work / f"setup{i}.log"
            if _child(["setup", config, result], env, log, remaining()):
                raise SystemExit(f"setup child failed, see {log}")
            res = json.loads(result.read_text("utf-8"))
            if res["module"] != module:
                raise SystemExit(f"imported {res['module']}, not {module}")
            setups.append(res["setup_s"])

    calls = []
    measure_start = time.perf_counter()
    while True:
        i = len(calls)
        out = work / f"call{i}"
        out.mkdir()
        result = work / f"call{i}.json"
        head = ["run"] + (["--trace", work / f"spans{i}.jsonl"]
                          if args.trace else [])
        log = work / f"call{i}.log"
        if _child(head + [result, "--"] + wl.argv(config, out, args.seed),
                  env, log, remaining() - GATE_RESERVE_S):
            raise SystemExit(f"run child failed, see {log}")
        res = json.loads(result.read_text("utf-8"))
        if res["module"] != module:
            raise SystemExit(f"imported {res['module']}, not {module}")
        calls.append(Call(out, res))
        elapsed = time.perf_counter() - measure_start
        mean_call = elapsed / len(calls)
        if len(calls) >= MIN_CALLS and (
                elapsed + mean_call > args.seconds
                or mean_call > remaining() - GATE_RESERVE_S):
            break

    rng = np.random.default_rng(args.seed)
    try:
        attempted, failed, gate_notes = wl.gate(calls, cfg, rng)
    except (OSError, KeyError, IndexError, ValueError) as exc:
        # missing or unreadable outputs: every operation failed
        attempted = failed = wl.ops_per_call * len(calls)
        gate_notes = {"error": f"{type(exc).__name__}: {exc}"}
    correct = failed == 0

    if args.trace:
        per_call = []
        for i, call in enumerate(calls):
            m = layer_metrics(load_spans(work / f"spans{i}.jsonl"))
            m.update(_layer_extras(wl, call.out))
            per_call.append(m)
        names = sorted(per_call[0])
        metrics = {n: {"value": statistics.median(m[n] for m in per_call),
                       "unit": _unit(n)} for n in names}
    else:
        metrics = {
            "wall_s": statistics.median(c.result["wall_s"] for c in calls),
            "setup_s": statistics.median(setups),
            "rss_peak_mb": statistics.median(c.result["rss_peak_mb"]
                                             for c in calls),
        }
        metrics = {n: {"value": v, "unit": UNITS[n]}
                   for n, v in metrics.items()}

    environment = dict(calls[0].result["env"])
    environment.update({
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "basis_size": math.comb(cfg.grid.m + cfg.grid.n_max, cfg.grid.m),
        "calls": len(calls), "setup_repeats": len(setups),
    })
    (work / "environment.json").write_text(
        json.dumps(environment, sort_keys=True, indent=2) + "\n", "utf-8")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print("calls " + json.dumps(
        {k: [round(c.result[k], 4) for c in calls]
         for k in ("wall_s", "rss_peak_mb")}, sort_keys=True))
    print(f"fail_frac = {failed}/{attempted} = {failed / attempted:.4g} "
          f"(operation: {wl.op}; {len(calls)} calls)")
    print("gate " + json.dumps(gate_notes, sort_keys=True))
    print("environment " + json.dumps(environment, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}, sort_keys=True))
    return 0


def _unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("reorth_gb"):
        return "GB_computed"
    if name.endswith(("hit_ratio", "parallel_eff", "steps_per_call")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
