"""The benchmark's own tests: tiny rounds of every workload, untraced and
traced, must pass the oracle and the span join.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("e3-burst", "durable-paced", "mixed-causal")


def _run(workload: str, trace: int, cwd: str = ROOT, script: str | None = None):
    script = script or os.path.join(HERE, "run.py")
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct(workload: str, trace: int) -> None:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert result["metrics"]["trace.join_frac"]["value"] == 1.0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_mixed_causal_corrects_every_tachyon() -> None:
    proc = _run("mixed-causal", 1)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["cre.tachyons_corrected"]["value"] > 0
    assert 0 < metrics["exs.filtered_frac"]["value"] < 1


def test_fails_without_product_source(tmp_path) -> None:
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("e3-burst", 0, cwd=str(tmp_path), script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""


def _oracle_modules():
    for path in (HERE, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import inputs
    import ism_side

    return inputs, ism_side


def _delivered(inputs, ops, workload, seed):
    """The stream a correct ISM delivers: every kept record, in order,
    as the rows the counting consumer keeps."""
    rows, types = [], []
    for g, (src, kind, values) in enumerate(ops):
        if inputs.kept_by_filter(workload, seed, src, values):
            rows.append((inputs.EVENT_OF_KIND[kind], src + 1, 1_000 + g, values))
            types.append(inputs.FIELD_TYPES[kind])
    return rows, types


def test_oracle_flags_wrong_types() -> None:
    inputs, ism_side = _oracle_modules()
    from repro.core.records import FieldType

    workload, seed = "mixed-causal", 7
    ops = inputs.generate(seed, workload, 1, inputs.SIZES["smoke"][workload])
    src_node = {0: 1, 1: 2}
    rows, types = _delivered(inputs, ops, workload, seed)
    failures, _ = ism_side.check_stream(ops, workload, seed, src_node, rows, types)
    assert not failures

    def first(kind):
        return next(i for i, row in enumerate(rows) if row[0] == inputs.EVENT_OF_KIND[kind])

    def g_of(i):
        return inputs.index_of(inputs.EVENT_OF_KIND.index(rows[i][0]), rows[i][3])

    # A field type changed on the wire, values equal: X_INT -> X_UINT.
    bad_types = list(types)
    i = first(inputs.FIXED)
    bad_types[i] = (FieldType.X_INT, FieldType.X_UINT) + types[i][2:]
    failures, _ = ism_side.check_stream(ops, workload, seed, src_node, rows, bad_types)
    assert failures == {"wrong_value": {g_of(i)}}
    # A causal marker decoded as a plain int.
    bad_types = list(types)
    i = first(inputs.REASON)
    bad_types[i] = (FieldType.X_INT,) + types[i][1:]
    failures, _ = ism_side.check_stream(ops, workload, seed, src_node, rows, bad_types)
    assert failures == {"wrong_value": {g_of(i)}}
    # A value that compares equal but has another Python type.
    bad_rows = list(rows)
    i = first(inputs.FIXED)
    event_id, node, ts, values = rows[i]
    bad_rows[i] = (event_id, node, ts, values[:1] + (float(values[1]),) + values[2:])
    failures, _ = ism_side.check_stream(ops, workload, seed, src_node, bad_rows, types)
    assert failures == {"wrong_value": {g_of(i)}}
