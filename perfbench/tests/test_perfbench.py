"""Tests of the benchmark's own code (not of the program).

    python3 -m pytest perfbench/tests -q

Run from the root of a checkout.  The end-to-end tests start
``perfbench/run.py`` on the cheap ``generate`` workload; the layer test
drives a reduced input of every workload through the tracer in-process.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


@pytest.fixture
def scratch():
    os.makedirs(run.OUT, exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=run.OUT)
    yield path
    import shutil

    shutil.rmtree(path, ignore_errors=True)


def _run_bench(*args):
    completed = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py")] + list(args),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_same_seed_same_inputs():
    keys = lambda configs: [config.key() for config in configs]  # noqa: E731
    assert keys(workloads.generate_round(7, 0)) == keys(workloads.generate_round(7, 0))
    assert keys(workloads.generate_round(7, 1)) == keys(workloads.generate_round(7, 1))
    assert keys(workloads.generate_round(7, 0)) != keys(workloads.generate_round(8, 0))
    assert [case["key"] for case in workloads.fuzz_inputs()] == [
        case["key"] for case in workloads.fuzz_inputs()
    ]


def test_generate_draw_covers_every_stratum():
    configs = workloads.generate_round(3, 0)
    assert {config.bus for config in configs} == set(workloads.GENERATE_BUSES)
    assert {config.data_width for config in configs} == set(workloads.GENERATE_WIDTHS)
    for low, high in workloads.GENERATE_PE_BANDS:
        assert any(low <= config.pes <= high for config in configs)
    # Mirrored pairs: each stratum's two PE counts sum to its band's ends.
    bands = len(workloads.GENERATE_PE_BANDS)
    for index in range(0, len(configs), 2):
        low, high = workloads.GENERATE_PE_BANDS[(index // 2 // len(workloads.GENERATE_WIDTHS)) % bands]
        assert configs[index].pes + configs[index + 1].pes == low + high


def test_reference_seconds_weight_by_sampled_speed():
    calibrator = hostspeed.Calibrator()
    ref = hostspeed.REF_SLICE_S
    # Samples every 20 ms over 1 s, each 1 ms of wall; the CPU ran at the
    # reference speed for the first half and at half of it for the second.
    for step in range(50):
        calibrator.starts.append(0.01 + step * 0.02)
        calibrator.durations.append(0.001)
        calibrator.cpu_durations.append(ref if step < 25 else 2 * ref)
    assert calibrator.speed(0.0, 0.4) == pytest.approx(1.0)
    assert calibrator.speed(0.6, 0.98) == pytest.approx(0.5)
    # 0.2 s of work, 10 slices of 1 ms taken out, at the reference speed.
    assert calibrator.reference_seconds(0.1, 0.3) == pytest.approx(0.2 - 0.010)
    assert calibrator.reference_seconds(0.6, 0.8) == pytest.approx((0.2 - 0.010) * 0.5)
    # A span between two samples borrows its neighbours.
    assert calibrator.reference_seconds(0.101, 0.105) == pytest.approx(0.004)


def _pooled_item(value):
    import time

    start = time.perf_counter()
    while time.perf_counter() - start < 0.1:
        pass
    hostspeed.record_item(start, time.perf_counter(), "shard" if value == 0 else "item")
    return value


def test_calibrator_follows_pool_workers(scratch):
    from concurrent.futures import ProcessPoolExecutor

    calibrator = hostspeed.Calibrator(dump_dir=tempfile.mkdtemp(dir=scratch)).install()
    try:
        with ProcessPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(_pooled_item, range(4))) == [0, 1, 2, 3]
    finally:
        calibrator.uninstall()
    assert calibrator.merge_children() > 0
    items = calibrator.spans(0.0, float("inf"))
    assert len(items) == 3 and len(calibrator.spans(0.0, float("inf"), "shard")) == 1
    for start, end, seconds in items:
        assert 0.0 < seconds < 10 * (end - start)


def test_metric_tables_match_benchmark_json():
    end_to_end = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    per_layer = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == layers.PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_printed_metric_names_match_benchmark_json():
    untraced = _run_bench("--workload", "generate", "--seed", "11", "--seconds", "0.1", "--trace", "0")
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] >= 1
    assert list(untraced["metrics"]) == [metric["name"] for metric in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        assert untraced["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert untraced["metrics"][metric["name"]]["value"] > 0

    traced = _run_bench("--workload", "generate", "--seed", "11", "--trace", "1")
    assert traced["correct"]
    assert list(traced["metrics"]) == [metric["name"] for metric in SPEC["per_layer"]]


def test_unknown_workload_and_missing_source_exit_nonzero(tmp_path):
    bad = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "nope"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert bad.returncode != 0 and bad.stdout == ""

    # A directory holding only the benchmark's files: no program to run.
    import shutil

    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    alone = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "generate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert alone.returncode != 0 and alone.stdout == ""


def test_wrong_pin_fails_the_run(scratch):
    pins = copy.deepcopy(workloads.load_pins())
    first = workloads.generate_round(workloads.DEFAULT_SEED, 0)[0]
    pins["generate"]["gates"][first.key()] += 1
    calibrator = hostspeed.Calibrator().install()
    try:
        batch = workloads.make("generate", workloads.DEFAULT_SEED, scratch, pins).run_batch(0)
    finally:
        calibrator.uninstall()
    assert batch.failed == 1
    assert "pinned" in batch.failures[0]
    metrics = run.end_to_end([batch], run.reference_times([batch], calibrator), [0.1], 1.0)
    assert metrics["fail_frac"]["value"] == pytest.approx(1.0 / batch.attempted)
    assert metrics["item_ms_gmean"]["value"] > 0

    honest = workloads.make("generate", workloads.DEFAULT_SEED, scratch).run_batch(0)
    assert honest.failed == 0 and honest.attempted == batch.attempted


def test_traced_run_records_every_layer(scratch):
    """Reduced inputs of every workload, traced in-process: each layer of
    ``layers.LAYERS`` records calls, and span-wrapped layers emit spans."""
    import repro.dse.engine as engine
    import repro.experiments.table2 as table2
    import repro.experiments.table3 as table3
    import repro.fuzz.runner as fuzz_runner
    from repro.dse.spec import smoke_spec

    worker_dir = tempfile.mkdtemp(prefix="workers-", dir=scratch)
    tracer = Tracer(worker_dir=worker_dir)
    layers.install(tracer)
    try:
        for config in workloads.generate_round(5, 0)[:4]:
            workloads.generate_system(config)
        # Module attributes, so the calls reach the installed wrappers.
        table2.run_table2(packets=1, cases=[(1, "BFBA", "PPA")], kernel="compiled")
        table3.run_table3(frame_count=2, cases=["GBAVIII"], kernel="compiled")
        fuzz_runner.run_fuzz(
            workloads.FUZZ_SEED, 1, kernel="compiled",
            corpus_dir=tempfile.mkdtemp(dir=scratch),
            cache_dir=tempfile.mkdtemp(dir=scratch),
            write_findings=False,
        )
        engine.run_sweep(
            smoke_spec(), jobs=2, budget=4, kernel="compiled", cache_dir=tempfile.mkdtemp(dir=scratch)
        )
    finally:
        tracer.uninstall()
    assert tracer.merge_worker_files() >= 1
    assert set(layers.layers_seen(tracer)) == set(layers.LAYERS)
    span_layers = {span["layer"] for span in tracer.spans}
    leaf_only = {"pe", "soc", "wiredb"}  # hot calls: aggregates, not spans
    assert span_layers >= set(layers.LAYERS) - leaf_only
    for span in tracer.spans:
        assert span["end"] >= span["start"]
        assert span["parent"] is None or span["parent"] < len(tracer.spans)
    values = layers.per_layer_metrics(tracer, 1.0, 1.0, 1.0, {})
    assert list(values) == list(layers.PER_LAYER_UNITS)
    for layer in layers.LAYERS:
        assert values["%s.self_s" % layer] > 0, layer
    assert values["faults.injected"] > 0 and values["bus.transactions"] > 0


def test_wrappers_are_removed_and_outputs_unchanged():
    import repro.sim.cache as sim_cache
    from repro.experiments.table4 import run_table4

    original = sim_cache.Cache.__dict__["access"]
    plain = [(row.execution_time_ns, row.tasks_completed) for row in run_table4(kernel="compiled")]
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert sim_cache.Cache.__dict__["access"] is not original
        traced = [(row.execution_time_ns, row.tasks_completed) for row in run_table4(kernel="compiled")]
    finally:
        tracer.uninstall()
    assert sim_cache.Cache.__dict__["access"] is original
    assert traced == plain
