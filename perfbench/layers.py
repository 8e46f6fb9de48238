"""Per-layer metrics of a traced round, from its spans and the product's
own counters, plus the checks that the two agree."""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict

from stats import summary


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def _ids(row) -> tuple:
    return tuple(row["id"]) if isinstance(row["id"], list) else (row["id"],)


def span_join(node_rows: list[dict], ism_rows: list[dict]) -> float:
    """Share of encoded batches whose node- and ISM-side spans join up in
    causal order: encode → send → ISM decode → on_batch → Ack heard."""
    encode = {}
    sends = defaultdict(list)
    acks = defaultdict(list)
    for row in node_rows:
        if row["name"] == "exs.encode":
            encode[_ids(row)] = row
        elif row["name"] == "exs.send":
            exs_id, first, last = _ids(row)
            sends[exs_id].append((first, last, row["start"]))
        elif row["name"] == "exs.ack":
            exs_id, up_to = _ids(row)
            acks[exs_id].append((up_to, row["end"]))
    decode = {_ids(r): r for r in ism_rows if r["name"] == "ism.decode" and r["id"] is not None}
    on_batch = {_ids(r): r for r in ism_rows if r["name"] == "ism.on_batch"}
    for table in acks.values():
        table.sort()
    joined = 0
    for key, enc in encode.items():
        exs_id, seq = key
        send = next((s for f, last, s in sends[exs_id] if f <= seq <= last), None)
        table = acks[exs_id]
        i = bisect_left(table, (seq, -1))
        ack_end = table[i][1] if i < len(table) else None
        dec, onb = decode.get(key), on_batch.get(key)
        if None in (send, ack_end, dec, onb):
            continue
        if enc["start"] <= send <= dec["start"] <= onb["start"] <= ack_end:
            joined += 1
    return _per(joined, len(encode))


def per_layer(rnd: dict) -> tuple[dict, dict]:
    """(metrics, count checks) of one traced round."""
    nt, it = rnd["node_trace"], rnd["ism_trace"]
    nn, agg = nt["names"]["names"], nt["names"]["aggs"]
    im = it["names"]

    def n_(table, name, key="n"):
        return table.get(name, {}).get(key, 0)

    exs = rnd["exs"]
    drained = sum(e["records_drained"] for e in exs)
    shipped = sum(e["records_shipped"] for e in exs)
    batches = sum(e["batches_shipped"] for e in exs)
    emitted = sum(e["emitted"] for e in exs)
    delivered = rnd["delivered"]
    notices = n_(nn, "sensor.notice")
    ring_wait = nt["ring_wait_ms"]
    batch_wait = nt["batch_wait_ms"]
    counters = rnd["ism_counters"]
    m = {
        "sensor.notice.self_us": _per(n_(nn, "sensor.notice", "self_ns") / 1e3, notices),
        "sensor.pack.us": _per(agg.get("sensor.pack", {}).get("ns", 0) / 1e3, notices),
        "sensor.dropped": sum(e["sensor_dropped"] for e in exs),
        "ring.push.us": _per(agg.get("ring.push", {}).get("ns", 0) / 1e3,
                             agg.get("ring.push", {}).get("calls", 0)),
        "ring.drain.us_per_ev": _per(n_(nn, "ring.drain", "dur_ns") / 1e3, drained),
        "ring.wait_ms.p50": summary(ring_wait)["p50"],
        "ring.wait_ms.p99": summary(ring_wait)["p99"],
        "ring.overwritten": sum(e["ring_overwritten"] for e in exs),
        "exs.poll.self_us_per_ev": _per(n_(nn, "exs.poll", "self_ns") / 1e3, drained),
        "exs.encode.us_per_ev": _per(n_(nn, "exs.encode", "dur_ns") / 1e3, shipped),
        "exs.ev_per_batch": _per(shipped, batches),
        "exs.timeout_flush_frac": _per(sum(e["timeout_flushes"] for e in exs), batches),
        "exs.empty_poll_frac": _per(nt["empty_polls"], nt["polls"]),
        "exs.batch_wait_ms.p50": summary(batch_wait)["p50"],
        "exs.batch_wait_ms.p99": summary(batch_wait)["p99"],
        "exs.filtered_frac": _per(sum(e["records_filtered"] for e in exs), drained),
        "predicate.admit.us_per_ev": _per(agg.get("predicate.admit", {}).get("ns", 0) / 1e3,
                                          agg.get("predicate.admit", {}).get("calls", 0)),
        "exs.send.us_per_frame": _per(n_(nn, "exs.send", "dur_ns") / 1e3, n_(nn, "exs.send")),
        "outbox.unacked_max": max(e["unacked_max"] for e in exs),
        "outbox.full_frac": _per(sum(e["full_true"] for e in exs), sum(e["full_checks"] for e in exs)),
        "exs.retransmits": sum(e["retransmits"] for e in exs),
        "ack.frames_per_batch": _per(sum(e["ack_frames"] for e in exs), batches),
        "ack.wait_ms.p50": it["ack.wait_ms"]["p50"],
        "wire.bytes_per_ev": _per(sum(e["bytes_sent"] for e in exs), shipped),
        "wire.frames": sum(e["frames_sent"] for e in exs),
        "ism.recv.us_per_frame": _per(n_(im, "ism.recv", "dur_ns") / 1e3, n_(im, "ism.recv")),
        "ism.decode.us_per_ev": _per(n_(im, "ism.decode", "dur_ns") / 1e3, n_(im, "ism.decode")),
        "ism.pump.cycles": it["ism.pump.cycles"],
        "ism.pump.empty_frac": it["ism.pump.empty_frac"],
        "ism.pump.us_per_cycle": _per(
            (n_(im, "ism.pump", "dur_ns") - n_(im, "ism.select", "dur_ns")) / 1e3,
            it["ism.pump.cycles"]),
        "ism.on_batch.self_us_per_ev": _per(n_(im, "ism.on_batch", "self_ns") / 1e3,
                                            n_(im, "ism.on_batch")),
        "ism.tick.us": _per(n_(im, "ism.tick", "dur_ns") / 1e3, n_(im, "ism.tick", "spans")),
        "ism.tick.empty_frac": it["ism.tick.empty_frac"],
        "ism.duplicate_batches": counters["ism.duplicate_batches"],
        "ism.seq_gaps": counters["ism.seq_gaps"],
        "sorter.push.us_per_ev": _per(n_(im, "sorter.push", "dur_ns") / 1e3, n_(im, "sorter.push")),
        "sorter.extract.us_per_ev": _per(n_(im, "sorter.extract", "dur_ns") / 1e3,
                                         n_(im, "sorter.extract")),
        "sorter.hold_ms.p50": it["sorter.hold_ms"]["p50"],
        "sorter.hold_ms.p99": it["sorter.hold_ms"]["p99"],
        "sorter.frame_ms.max": it["sorter.frame_ms.max"],
        "sorter.held_max": it["sorter.held_max"],
        "cre.process.us_per_ev": _per(n_(im, "cre.process", "dur_ns") / 1e3, n_(im, "cre.process")),
        "cre.tachyons_corrected": counters["cre.tachyons_corrected"],
        "cre.parked_max": it["cre.parked_max"],
        "deliver.us_per_ev": _per(
            (n_(im, "deliver.count", "dur_ns") + n_(im, "deliver.log", "dur_ns")) / 1e3,
            n_(im, "deliver.count")),
        "log.append.us_per_ev": _per(n_(im, "log.append", "dur_ns") / 1e3, n_(im, "log.append")),
        "log.sync_ms.p50": it["log.sync_ms"]["p50"],
        "log.sync_ms.p99": it["log.sync_ms"]["p99"],
        "log.fsyncs_per_kev": _per(counters["log.fsyncs"] * 1000, counters["log.records_appended"]),
        "log.bytes_per_ev": _per(counters["log.bytes_appended"], counters["log.records_appended"]),
        "log.read.us_per_ev": _per(n_(im, "log.read", "dur_ns") / 1e3, n_(im, "log.read")),
        "ism.durable_sync_errors": counters["ism.durable_sync_errors"],
        "ism.rss_peak_mb": it["rss_peak_mb"],
    }
    # Where the CPU goes, per side, inside the measured window.
    node_spans_us = nt["window_spans_ns"] / 1e3
    m["account.node.unaccounted_us_per_ev"] = _per(rnd["exs_cpu_s"] * 1e6 - node_spans_us, delivered)
    # The serve-loop spans include the oracle's bookkeeping, which
    # ism_cpu_s leaves out.
    m["account.ism.unaccounted_us_per_ev"] = _per(
        (rnd["ism_cpu_s"] + rnd["ism_oracle_cpu_s"]) * 1e6 - it["window_spans_ns"] / 1e3, delivered)
    # Where the latency goes: the per-layer waits against the medians.
    deliver_p50 = summary(rnd["deliver_ms"])["p50"]
    ack_p50 = summary(rnd["ack_ms"])["p50"]
    waits = m["ring.wait_ms.p50"] + m["exs.batch_wait_ms.p50"] + m["sorter.hold_ms.p50"]
    m["account.deliver.unaccounted_ms"] = deliver_p50 - waits
    m["account.ack.unaccounted_ms"] = ack_p50 - waits - m["ack.wait_ms.p50"]
    m["trace.join_frac"] = span_join(nt["rows"], it["rows"])

    checks = dict(it["checks"])
    checks["ring.push.calls=sensor.emitted+dropped"] = (
        agg.get("ring.push", {}).get("calls", 0), emitted + m["sensor.dropped"])
    checks["ring.drain.n=exs.records_drained"] = (n_(nn, "ring.drain"), drained)
    checks["exs.encode.spans=exs.batches_shipped"] = (n_(nn, "exs.encode", "spans"), batches)
    checks["exs.encode.n=exs.records_shipped"] = (n_(nn, "exs.encode"), shipped)
    checks["exs.send.n+control=conn.frames_sent"] = (
        n_(nn, "exs.send") + sum(nt["control_frames"].values()), m["wire.frames"])
    filtered = sum(e["records_filtered"] for e in exs)
    checks["predicate.false=exs.records_filtered"] = (nt["admit_false"], filtered)
    checks["predicate.dropped=exs.records_filtered"] = (
        sum(e["filtered_by_predicate"] for e in exs), filtered)
    return m, checks


def check_failures(checks: dict) -> list[str]:
    """Names of the checks whose two sides disagree."""
    bad = []
    for name, (ours, product) in checks.items():
        if isinstance(ours, float) or isinstance(product, float):
            if abs(ours - product) > 1e-6 * max(1.0, abs(product)):
                bad.append(name)
        elif ours != product:
            bad.append(name)
    return bad

