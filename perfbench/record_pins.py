"""Record the reference outputs the benchmark checks against (``pins.json``).

    python3 perfbench/record_pins.py

Run from the root of a checkout, at the commit whose outputs are the
reference.  Nothing is timed.  Every output pinned here is deterministic:
simulated cycles and throughputs, gate counts, the sweep and fuzz
fingerprints, and the structural-equivalence findings that ``generate``
accepts as known (found by scanning every preset, PE count 1-64, SplitBA
subsystem count and width that the workload can draw).
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def paper_tables():
    results = workloads.table_rows()
    return workloads.table_outputs({table: pair[0] for table, pair in results.items()})


def dse_cold(scratch):
    from repro.dse.engine import run_sweep, sweep_fingerprint
    from repro.dse.spec import bench_spec

    cache_dir = tempfile.mkdtemp(dir=scratch)
    summary = run_sweep(bench_spec(), jobs=workloads.DSE_JOBS, kernel="compiled", cache_dir=cache_dir)
    return {
        "configs": summary["configs"],
        "fingerprint": sweep_fingerprint(summary),
        "rows": workloads.dse_row_outputs(summary),
    }


def fuzz(scratch):
    from repro.fuzz.runner import fuzz_fingerprint, run_fuzz

    summary = run_fuzz(
        workloads.FUZZ_SEED,
        workloads.FUZZ_BUDGET,
        kernel="compiled",
        corpus_dir=tempfile.mkdtemp(dir=scratch),
        cache_dir=tempfile.mkdtemp(dir=scratch),
        write_findings=False,
    )
    return {"fingerprint": fuzz_fingerprint(summary)}


def known_findings():
    """Structural findings on every drawable config outside the program's
    own exemption (CCBA), keyed by ``bus/pes``; each must not depend on
    the width or subsystem count."""
    from repro.dse.spec import normalize_options
    from repro.fuzz.oracle import STRUCTURAL_EXCLUDED

    known = {}
    for bus in workloads.GENERATE_BUSES:
        if bus in STRUCTURAL_EXCLUDED:
            continue
        for pes in range(1, workloads.GENERATE_PE_BANDS[-1][1] + 1):
            for subsystems in range(1, min(pes, workloads.GENERATE_MAX_SUBSYSTEMS) + 1):
                for width in workloads.GENERATE_WIDTHS:
                    raw = {"bus": bus, "pes": pes, "subsystems": subsystems, "data_width": width}
                    config, _reason = normalize_options(dict(raw, app="mpeg2"))
                    if config is None:
                        continue
                    findings = workloads.generate_system(config)["findings"]
                    label = "%s/%d" % (bus, pes)
                    if findings or label in known:
                        if known.setdefault(label, findings) != findings:
                            raise SystemExit("findings of %s depend on width or subsystems" % label)
                if bus not in ("SPLITBA",):
                    break  # subsystems only matter for SplitBA
    return known


def generate():
    gates = {}
    for index in range(workloads.GENERATE_PINNED_ROUNDS):
        for config in workloads.generate_round(workloads.DEFAULT_SEED, index):
            gates[config.key()] = workloads.generate_system(config)["gates"]
    return {"seed": workloads.DEFAULT_SEED, "gates": gates, "known_findings": known_findings()}


def main():
    out = os.path.join(ROOT, ".perfbench")
    os.makedirs(out, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="pins-", dir=out)
    try:
        pins = {
            "paper_tables": paper_tables(),
            "dse_cold": dse_cold(scratch),
            "fuzz": fuzz(scratch),
            "generate": generate(),
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(workloads.PINS_PATH, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % os.path.relpath(workloads.PINS_PATH, ROOT))


if __name__ == "__main__":
    main()
