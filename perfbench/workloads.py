"""One round of a workload: set up, load, drain, check, tear down.

The node process (this one) holds the application thread, the sensors
and their rings, and one EXS thread per node; the ISM runs in a spawned
process (``ism_side``).  On ``e3-burst`` the application thread fills
while the EXS thread is parked, then the EXS drains alone; on the paced
workloads the application thread issues steps of calls on their schedule while
the EXS threads drain.
"""

from __future__ import annotations

import gc
import os
import shutil
import socket
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from multiprocessing.connection import Connection

import inputs
import node_side
import tracing
from stats import SpeedProbe

from repro.core.records import FieldType

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
_SRC = os.path.join(_ROOT, "src")

WORKLOADS = ("e3-burst", "durable-paced", "mixed-causal")

#: Native record size of a six-int record plus its ring length prefix.
_FIXED_BYTES = 62
_TIMEOUT_S = 60.0
#: NOTICE calls per CPU-time reading: small enough that every workload's
#: rounds have well over 1,000 readings (ten beyond the p99), large
#: enough that the clock read costs well under 1% of the block.
_NOTICE_BLOCK = 10
_DRAIN_TIMEOUT_S = 20.0


#: With two or more CPUs the node process keeps CPU 0 and the ISM process
#: gets CPU 1, so the two sides never migrate onto each other's core.
_CPUS = sorted(os.sched_getaffinity(0))
_ISM_CPU = _CPUS[1] if len(_CPUS) >= 2 else None


def pin_node_process() -> None:
    if _ISM_CPU is not None:
        os.sched_setaffinity(0, {_CPUS[0]})


class RoundError(RuntimeError):
    """The round could not run to completion (a hang, a dead process)."""


def _layout(workload: str) -> tuple[list[dict], dict[int, tuple[int, int]]]:
    """Nodes of the workload, and which (node, ring) each input source
    writes to."""
    if workload == "e3-burst":
        return [dict(exs_id=1, node_id=1, n_rings=1, offset=0)], {0: (0, 0)}
    if workload == "durable-paced":
        return [dict(exs_id=1, node_id=1, n_rings=2, offset=0)], {0: (0, 0), 1: (0, 1)}
    return (
        [dict(exs_id=1, node_id=1, n_rings=1, offset=0),
         dict(exs_id=2, node_id=2, n_rings=1, offset=-inputs.SKEW_US)],
        {0: (0, 0), 1: (1, 0)},
    )


def _call_plan(ops: list[tuple], sensors: dict[int, object]) -> list[tuple]:
    """Bind each operation to the sensor call that issues it."""
    plan = []
    for src, kind, values in ops:
        sensor = sensors[src]
        if kind == inputs.FIXED:
            plan.append((sensor.notice_ints, (inputs.EV_FIXED, *values)))
        elif kind == inputs.DYN:
            g, klass, text, x = values
            plan.append((sensor.notice, (
                inputs.EV_DYN, (FieldType.X_INT, g), (FieldType.X_INT, klass),
                (FieldType.X_STRING, text), (FieldType.X_DOUBLE, x),
            )))
        elif kind == inputs.REASON:
            rid, klass, g = values
            plan.append((sensor.notice_reason, (
                inputs.EV_REASON, rid, (FieldType.X_INT, klass), (FieldType.X_INT, g))))
        else:
            rid, klass, g = values
            plan.append((sensor.notice_conseq, (
                inputs.EV_CONSEQ, rid, (FieldType.X_INT, klass), (FieldType.X_INT, g))))
    return plan


class _Ism:
    """Handle on the ISM process and its command pipe.

    The process is a plain child interpreter running ``ism_side.py``,
    talking over one end of a socket pair: unlike ``multiprocessing``'s
    spawn, this starts no helper process (the resource tracker) that
    would outlive the benchmark.  The round's config is the first
    message on the pipe.
    """

    def __init__(self, cfg: dict) -> None:
        ours, theirs = socket.socketpair()
        self.pipe = Connection(ours.detach())
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (_SRC, env.get("PYTHONPATH")) if p)
        try:
            self.proc = subprocess.Popen(
                [sys.executable, os.path.join(_HERE, "ism_side.py"), str(theirs.fileno())],
                pass_fds=(theirs.fileno(),), env=env, cwd=_ROOT,
            )
        except BaseException:
            self.pipe.close()
            raise
        finally:
            theirs.close()
        try:
            self.pipe.send(cfg)
        except OSError as exc:
            self.close()
            raise RoundError(f"ISM process did not take its config: {exc!r}") from None

    def ask(self, cmd: str, arg=None, expect: str = "", timeout: float = _TIMEOUT_S):
        if cmd:
            self.pipe.send((cmd, arg))
        if not self.pipe.poll(timeout):
            raise RoundError(f"ISM process did not answer {cmd or 'startup'!r} in {timeout}s")
        try:
            tag, value = self.pipe.recv()
        except EOFError:
            raise RoundError(f"ISM process exited (code {self.proc.poll()})") from None
        if tag == "error":
            raise RoundError(f"ISM process failed:\n{value}")
        if expect and tag != expect:
            raise RoundError(f"ISM process answered {tag!r}, expected {expect!r}")
        return value

    def close(self) -> None:
        """Wait for the process to end, stopping it if it does not."""
        self.pipe.close()  # an ISM still waiting for a command sees EOF
        try:
            self.proc.wait(10)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            try:
                self.proc.wait(10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def _wait(pred, timeout: float, what: str, interval: float = 0.002) -> None:
    deadline = time.monotonic() + timeout
    while not pred():
        if time.monotonic() > deadline:
            raise RoundError(f"timed out waiting for {what}")
        time.sleep(interval)


def run_round(workload: str, seed: int, round_idx: int, params: inputs.Params,
              trace: bool, scratch: str) -> dict:
    """Run one round and return its raw measurements."""
    ops = inputs.generate(seed, workload, round_idx, params)
    node_specs, route = _layout(workload)
    max_bytes = _FIXED_BYTES if workload != "mixed-causal" else 200
    ring_bytes = max(1 << 16, int(len(ops) * max_bytes * 1.25))
    nodes = [
        node_side.Node(s["exs_id"], s["node_id"], s["n_rings"], ring_bytes, s["offset"])
        for s in node_specs
    ]
    sensors = {src: nodes[n].sensors[r] for src, (n, r) in route.items()}
    plan = _call_plan(ops, sensors)
    # The inputs stay alive for the whole round: keep the cyclic GC from
    # scanning them again and again, which would charge the benchmark's
    # own data to whichever thread happens to trigger a collection.
    gc.collect()
    gc.freeze()
    expected = sum(
        1 for src, _k, values in ops if inputs.kept_by_filter(workload, seed, src, values)
    )
    log_dir = os.path.join(scratch, f"log-{round_idx}")
    shutil.rmtree(log_dir, ignore_errors=True)
    filtered = workload == "mixed-causal"
    cfg = {
        "workload": workload, "seed": seed, "round": round_idx, "params": asdict(params),
        "trace": trace, "durable": workload == "durable-paced", "log_dir": log_dir,
        "filter_cut": inputs.filter_cut(seed) if filtered else None,
        "filter_exs": nodes[0].exs_id,
        "cpu": _ISM_CPU,
        "src_node": {src: nodes[n].node_id for src, (n, _r) in route.items()},
    }
    all_acked = threading.Event()

    def check_acked() -> None:
        # Runs on the EXS threads after each Ack, so the application
        # thread can block instead of polling for the end of the drain.
        if all(
            n.exs.stats.records_shipped + n.exs.stats.records_filtered
            == sum(s.emitted for s in n.sensors)
            and sum(s.emitted + s.dropped for s in n.sensors) == issued[n.exs_id]
            and not n.outbox.unacked
            for n in nodes
        ):
            all_acked.set()

    issued = {n.exs_id: 0 for n in nodes}
    for op in ops:
        issued[nodes[route[op[0]][0]].exs_id] += 1
    for node in nodes:
        node.outbox.on_ack = check_acked
    tracer = tracing.Tracer("node") if trace else None
    node_trace = None
    ism = probe = None
    try:
        # -- set-up: ISM listening, log opened, EXSes connected, filter in
        probe = SpeedProbe()
        t_setup_ns = time.time_ns()
        t_setup = time.perf_counter()
        ism = _Ism(cfg)
        port = ism.ask("", expect="ready")
        for node in nodes:
            node.open(port)
        if tracer is not None:
            node_trace = node_side.NodeTrace(tracer, nodes)
        for node in nodes:
            node.start()
        _wait(lambda: all(n.ready(filtered and n is nodes[0]) for n in nodes),
              _TIMEOUT_S, "Hello/HelloReply and the steering filter")
        setup_s = time.perf_counter() - t_setup
        t_setup_end_ns = time.time_ns()
        if node_trace is not None and filtered:
            node_trace.wrap_filter(nodes[0])

        # NOTICE cost is CPU time of the application thread, per block of
        # calls: waits for the interpreter lock (the EXS thread shares
        # it) or for a CPU the host gave to someone else are not NOTICE
        # work.
        notice_us: list[float] = []
        late_ms: list[float] = []

        def issue(calls: list[tuple]) -> None:
            for start in range(0, len(calls), _NOTICE_BLOCK):
                part = calls[start:start + _NOTICE_BLOCK]
                frame = tracer.open("sensor.notice") if tracer is not None else None
                t0 = time.thread_time_ns()
                for fn, args in part:
                    fn(*args)
                dt = time.thread_time_ns() - t0
                if frame is not None:
                    tracer.close(frame, len(part))
                notice_us.append(dt / 1000 / len(part))

        if not params.rate:
            # -- burst: fill with no EXS running, then drain ------------
            for node in nodes:
                if not node.park(5.0):
                    raise RoundError("EXS did not park")
            t_app = time.time_ns()
            issue(plan)
            t_app_end = time.time_ns()
            ism.ask("start", {"expected": expected}, "started")
            cpu0 = [n.cpu_s() for n in nodes]
            # Every record is due when the drain starts, after the start
            # handshake.
            due0 = t_go = time.time_ns()
            for node in nodes:
                node.go.set()
        else:
            # -- open loop: steps of calls issued on their schedule -----
            ism.ask("start", {"expected": expected}, "started")
            cpu0 = [n.cpu_s() for n in nodes]
            due0 = t_go = t_app = time.time_ns()
            step = params.block
            step_ns = step * 1_000_000_000 // params.rate
            for b, start in enumerate(range(0, len(plan), step)):
                due = due0 + b * step_ns
                wait = due - time.time_ns()
                if wait > 0:
                    time.sleep(wait / 1e9)
                late_ms.append((time.time_ns() - due) / 1e6)
                issue(plan[start:start + step])
            t_app_end = time.time_ns()

        # A record lost on the way never gets here: give up waiting after
        # a while and let the oracle name what is missing.
        stalled = not all_acked.wait(_DRAIN_TIMEOUT_S)
        cpu1 = [n.cpu_s() for n in nodes]
        t_drained = time.time_ns()
        stalled |= not ism.ask("wait", _DRAIN_TIMEOUT_S, "waited", timeout=_DRAIN_TIMEOUT_S + 5)
        probe.stop()
        for node in nodes:
            node.stop(10.0)
        acks = [a for n in nodes for a in n.outbox.acks]
        acked_upto = {n.exs_id: max((a[1] for a in n.outbox.acks), default=-1) for n in nodes}
        report = ism.ask("finish", {"acks": acks, "acked_upto": acked_upto, "due0": due0}, "report")
    finally:
        if probe is not None:
            probe.stop()
        for node in nodes:
            node.stop(10.0)
        if node_trace is not None:
            node_trace.restore()
        if ism is not None:
            ism.close()
        shutil.rmtree(log_dir, ignore_errors=True)
        gc.unfreeze()

    delivered = report["delivered"]
    failures = dict(report["failures"])
    lost = sum(n.lost() for n in nodes)
    if lost:
        failures["ring_lost"] = [f"ring lost {i}" for i in range(lost)]
    if stalled:
        failures["drain_stalled"] = ["drain stalled"]
    # A record the ring rejected is also missing from the delivery: count
    # each failing record once.
    failed = {g for kind, ids in failures.items() if kind != "ring_lost" for g in ids}
    out = {
        "round": round_idx,
        "traced": trace,
        "attempted": len(ops),
        # A delivery that cannot be attributed (a corrupted index) also
        # leaves its record missing; no more records can fail than ran.
        "failed": min(len(ops), max(len(failed), lost)),
        "failures": {k: len(v) for k, v in failures.items()},
        "setup_s": setup_s,
        "notice_us": notice_us,
        "late_ms": late_ms,
        "drain_s": (report["done_t"] - t_go) / 1e9,
        "deliver_ms": report["deliver_ms"],
        "ack_ms": report["ack_ms"],
        "replay": report["replay"],
        "exs_cpu_s": sum(b - a for a, b in zip(cpu0, cpu1)),
        "ism_cpu_s": report["cpu_s"],
        "ism_oracle_cpu_s": report["oracle_cpu_s"],
        "ism_probe_cpu_s": report["probe_cpu_s"],
        # Slowdowns against the probe's reference speed: the node CPU
        # during set-up (where the ISM process also imports), the application
        # thread's CPU while it issued the load, the node CPU while the
        # EXS drained, the ISM CPU, and the elapsed time of the drain on
        # both CPUs.
        "speed": {
            "setup": probe.slowdown(t_setup_ns, t_setup_end_ns),
            "app": probe.slowdown(t_app, t_app_end),
            "exs": probe.slowdown(t_go, t_drained),
            "ism": report["speed"]["ism"],
            "drain_elapsed": (probe.slowdown(t_go, t_drained, elapsed=True)
                              + report["speed"]["ism_elapsed"]) / 2,
        },
        "delivered": delivered,
        "ism_counters": report["counters"],
        "properties": inputs.properties(workload, seed, ops, max(s["n_rings"] for s in node_specs)),
        "exs": [
            {
                "exs_id": n.exs_id, **vars(n.exs.stats),
                "filtered_by_predicate": getattr(n.exs.filter, "dropped", 0),
                "retransmits": int(n.outbox.retransmitted_batches),
                "ack_frames": n.outbox.ack_frames, "unacked_max": n.outbox.unacked_max,
                "full_checks": n.outbox.full_checks, "full_true": n.outbox.full_true,
                "frames_sent": n.conn.frames_sent, "bytes_sent": n.conn.bytes_sent,
                "emitted": sum(s.emitted for s in n.sensors),
                "sensor_dropped": sum(s.dropped for s in n.sensors),
                "ring_dropped": sum(r.dropped for r in n.rings),
                "ring_overwritten": sum(r.overwritten for r in n.rings),
            }
            for n in nodes
        ],
    }
    if tracer is not None:
        out["node_trace"] = {
            "names": tracing.analyze(tracer.spans, tracer.loose),
            "rows": tracing.spans_as_rows(tracer),
            "ring_wait_ms": node_trace.ring_wait_ms(),
            "batch_wait_ms": node_trace.batch_wait_ms,
            "polls": node_trace.polls,
            "empty_polls": node_trace.empty_polls,
            "admit_false": node_trace.admit_false,
            "control_frames": node_trace.control_frames,
            # EXS-thread time inside the measured window.
            "window_spans_ns": sum(
                end - start
                for _sid, name, start, end, parent, *_ in tracer.spans
                if parent < 0 and name in ("exs.poll", "exs.send", "exs.ack")
                and t_go <= start and end <= t_drained
            ),
        }
        out["ism_trace"] = report["trace"]
    return out
