#!/usr/bin/env python3
"""BRISK benchmark: end-to-end and per-layer metrics of the shipped code.

Run from the repository root::

    python3 perfbench/run.py --workload e3-burst --seed 1 --seconds 10 --trace 0

Each run repeats rounds of the workload (set-up, load, drain, check,
tear-down) until ``--seconds`` have passed, checks every delivered record
against the generated inputs, and prints one JSON object as its last
line.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics.
A full record of the run (host, parameters, every round) goes to
``.perfbench/results/``, and the traced rounds' spans to
``.perfbench/spans/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

def _provenance(args, params) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "kind": "measured",
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "params": vars(params),
    }


def _end_to_end(rounds: list[dict], params, scaled: bool = True) -> tuple[dict, dict]:
    """The end-to-end metrics of a set of rounds: per metric, the median
    of the rounds' values.  On an open loop the timings leave out the
    rounds whose generator fell behind (see README.md).

    With *scaled*, every CPU-bound figure of a round is reported at the
    reference host speed of ``stats.SpeedProbe``: CPU costs are divided
    by the slowdown the probe measured on that CPU while the work ran,
    read rates multiplied by it.  In a closed loop the drain rate and the
    latencies are CPU-bound too and scale by the mean elapsed-time
    slowdown of the two CPUs over the drain; in an open loop they are set
    by the schedule, timers and the sorter frame and stay as measured.
    The set-up time is CPU-bound (mostly the ISM process's interpreter
    start and imports, on the node's CPU) and scales by the node CPU's
    slowdown during set-up.
    """
    from statistics import median

    from repro.util.stats import percentile

    closed_loop = not params.rate

    def k(name, closed_only=False):
        if not scaled or (closed_only and not closed_loop):
            return lambda r: 1.0
        return lambda r: r["speed"][name]

    def per_round(value, slowdown) -> float:
        return median([value(r) / slowdown(r) for r in rounds])

    timed = rounds
    if not closed_loop:
        # A round whose paced generator ran more than two pacing steps
        # late (p99) was disturbed by the host: the timings come from the
        # other rounds, or from the three least late ones.
        step_ms = params.block * 1000 / params.rate
        by_lateness = sorted(rounds, key=lambda r: percentile(r["late_ms"], 99))
        timed = [r for r in by_lateness if percentile(r["late_ms"], 99) <= 2 * step_ms]
        if len(timed) < 3:
            timed = by_lateness[:3]

    def timing(key, q, slowdown) -> float:
        return median([percentile(r[key], q) / slowdown(r) for r in timed])

    def rate_per_round(value, slowdown) -> float:
        return median([value(r) * slowdown(r) for r in rounds])

    drain = k("drain_elapsed", closed_only=True)

    values = {
        "setup_s": per_round(lambda r: r["setup_s"], k("setup")),
        "notice_us.p50": timing("notice_us", 50, k("app")),
        "notice_us.p99": timing("notice_us", 99, k("app")),
        "ev_s": rate_per_round(lambda r: r["delivered"] / r["drain_s"], drain),
        "deliver_ms.p50": timing("deliver_ms", 50, drain),
        "deliver_ms.p99": timing("deliver_ms", 99, drain),
        "ack_ms.p50": timing("ack_ms", 50, drain),
        "ack_ms.p99": timing("ack_ms", 99, drain),
        # Each read scaled by the ISM CPU's slowdown during that read.
        "replay_ev_s": median([
            median([rate * (slowdown if scaled else 1.0) for rate, slowdown in r["replay"]])
            for r in rounds
        ]),
        "exs_cpu_us_per_ev": per_round(lambda r: r["exs_cpu_s"] / r["delivered"] * 1e6, k("exs")),
        "ism_cpu_us_per_ev": per_round(lambda r: r["ism_cpu_s"] / r["delivered"] * 1e6, k("ism")),
    }
    samples = {
        "rounds": len(rounds),
        "rounds_timed": len(timed),
        "notice_us": sum(len(r["notice_us"]) for r in rounds),
        "deliver_ms": sum(len(r["deliver_ms"]) for r in rounds),
        "ack_ms": sum(len(r["ack_ms"]) for r in rounds),
    }
    return values, samples


def _write_spans(name: str, rnd: dict) -> None:
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    path = os.path.join(OUT, "spans", f"{name}-round{rnd['round']}.jsonl")
    with open(path, "w") as f:
        for row in rnd["node_trace"].pop("rows") + rnd["ism_trace"].pop("rows"):
            f.write(json.dumps(row) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny rounds for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no product source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, SRC)
    import inputs
    import layers
    import workloads
    from statistics import median

    from stats import summary

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    params = inputs.SIZES[args.size][args.workload]
    workloads.pin_node_process()
    scratch = os.path.join(OUT, "scratch", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    rounds: list[dict] = []
    # Round 0 warms the node process up and is checked but not measured;
    # then untraced rounds (alternating with traced ones under --trace 1)
    # until the time is up, starting no round that would overrun it.
    min_rounds = 3 if args.trace else 4
    start = time.monotonic()
    try:
        while True:
            elapsed = time.monotonic() - start
            if len(rounds) >= min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
            traced = bool(args.trace) and len(rounds) % 2 == 0 and len(rounds) > 0
            rounds.append(workloads.run_round(
                args.workload, args.seed, len(rounds), params, traced, scratch))
    except workloads.RoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    untraced = [r for r in rounds[1:] if not r["traced"]]
    traced = [r for r in rounds[1:] if r["traced"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    e2e, samples = _end_to_end(untraced, params)
    e2e_raw, _ = _end_to_end(untraced, params, scaled=False)
    check_failures: list[str] = []
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced:
        per_round = []
        for rnd in traced:
            m, checks = layers.per_layer(rnd)
            bad = layers.check_failures(checks)
            check_failures += bad
            if m["trace.join_frac"] != 1.0:
                check_failures.append(f"round {rnd['round']}: trace.join_frac={m['trace.join_frac']}")
            rnd["checks"] = {k: list(v) for k, v in checks.items()}
            per_round.append(m)
            _write_spans(name, rnd)
        metrics = {k: median([m[k] for m in per_round]) for k in per_round[0]}
        late = [x for r in rounds[1:] for x in r["late_ms"]]
        metrics["gen.late_ms.p50"] = summary(late)["p50"]
        metrics["gen.late_ms.p99"] = summary(late)["p99"]
        t2e, _ = _end_to_end(traced, params)
        key = "deliver_ms.p50" if params.rate else "ev_s"
        if params.rate:
            metrics["trace.overhead_frac"] = t2e[key] / e2e[key] - 1 if e2e[key] else 0.0
        else:
            metrics["trace.overhead_frac"] = 1 - t2e[key] / e2e[key] if e2e[key] else 0.0
        metrics["node.rss_peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics.update(rounds[0]["properties"])
    else:
        metrics = e2e
    # BENCHMARK.json names the metrics of each kind of run and their units.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if traced else "end_to_end"]
    if set(metrics) != {m["name"] for m in listed}:
        print(f"perfbench: metrics and BENCHMARK.json disagree: "
              f"{sorted(set(metrics) ^ {m['name'] for m in listed})}", file=sys.stderr)
        return 2
    out_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed}
    correct = failed == 0 and not check_failures
    record = {
        "provenance": _provenance(args, params),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted if attempted else 0.0,
        "check_failures": check_failures,
        "samples": samples,
        "end_to_end": e2e,
        "end_to_end_unscaled": e2e_raw,
        "metrics": {k: v["value"] for k, v in out_metrics.items()},
        "rounds": [
            {k: v for k, v in r.items() if k not in ("notice_us", "late_ms", "deliver_ms", "ack_ms")}
            | {k: summary(r[k]) for k in ("notice_us", "late_ms", "deliver_ms", "ack_ms")}
            | {"node_trace": {k: v for k, v in r.get("node_trace", {}).items()
                              if k not in ("ring_wait_ms", "batch_wait_ms")}}
            for r in rounds
        ],
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", name + ".json"), "w") as f:
        json.dump(record, f, indent=1, default=str)
    if not correct:
        print(f"perfbench: {failed} of {attempted} records failed the oracle; "
              f"checks failed: {check_failures}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
