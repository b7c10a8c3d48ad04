"""Write benchmark_record.json: environment, workloads and measured layer shares.

    python3 perfbench/record.py

Runs one traced run (an untraced and a traced child) of every workload at
seed 0, then records the environment, each workload's config and the reason
it was chosen, which per-layer metric should move which end-to-end metric,
the traced layer shares, and whether each workload's stated role holds.
Later issues cite this file by name for the baseline layer mix.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

import run

LAYER_TO_END_TO_END = {
    "cli.parse_config.s": "setup_s on every workload",
    "cli.render.s, cli.output_bytes": "setup_s; run_s on verify-kronecker (2.6 MB JSON report)",
    "verify.<suite>.s, verify.checks, verify.skipped": "which suite sets run_s on verify-kronecker and sv-kronecker33",
    "primitives.extend_datum.s, primitives.self_s, primitives.primitive_space.calls": "run_s on sv-kronecker33",
    "hallhopf.<family>.calls/self_s, hallhopf.self_s": "run_s on verify-kronecker (one-sided families) and sv-kronecker33 (mult)",
    "scalars.ops, scalars.new, scalars.self_s": "run_s on verify-kronecker and sv-kronecker33; predicted 0 on classify-jordan5",
    "repcat.enumerate.s, repcat.classes, repcat.orbit_states": "run_s and peak_rss_mb on classify-jordan5",
    "repcat.hall_distribution.*, repcat.subspaces_scanned, repcat.subrep_ratio, repcat.hall_multi.*, repcat.classify.calls": "run_s on sv-kronecker33",
    "modlin.calls, modlin.self_s, gkm.self_s": "minor today; recorded so that a shift shows",
    "process.cpu_s, trace.overhead_s, trace.unattributed_s": "cpu versus wall time of run_command; cost and completeness of the trace",
}

FINDINGS = [
    "sv-kronecker33: DoubleHall.mult spans about a third of run_s, but its self time is ~3%; the time under it "
    "is Scalar arithmetic and repcat.hall_* that it calls. Scalar arithmetic (Gaussian elimination in primitives "
    "and straightening) is the largest self time there, ahead of repcat.",
    "Vertex order changes the cost: sv-kronecker33 with the sink as vertex 1 makes 553k Scalar operations "
    "instead of 312k and is ~35% slower; verify-kronecker barely moves (600k vs 598k). Each run therefore "
    "measures both labellings.",
    "Outputs are byte-identical across PYTHONHASHSEED values, and traced counts repeat exactly across them.",
]

WHY = {
    "verify-kronecker": "The acceptance config (configs/kronecker.cfg). All six suites over cached structure "
    "constants: Scalar arithmetic under hallhopf element operations, pairing suite ~2/3 and hopf ~1/3 of the "
    "run, repcat < 3%, 2.6 MB JSON report. ROADMAP items 2 and 3 should show here.",
    "classify-jordan5": "Orbit enumeration over ~1.05M states with no Scalar work and the largest peak RSS. "
    "ROADMAP item 4 (memory) should show here; items 2 and 3 bypass it, so the prediction for them is no change.",
    "sv-kronecker33": "Builds structure constants rather than reusing them: ~59k hall_distribution and ~128k "
    "hall_multi calls, DoubleHall.mult straightening and Gaussian elimination over Q(sqrt q). A change that "
    "speeds reuse but costs cache fill shows here as a slowdown. Not in BENCHMARK.json: with three workloads "
    "a run lasts 40 s, and on a shared 2-vCPU x86-64 VM its run_s spread across ten seeds reached 0.29, past "
    "the 0.25 bound.",
}

SEED_NOTES = {
    "verify-kronecker": "seed relabels the two vertices; each run measures both labellings",
    "classify-jordan5": "one vertex and one arrow: every seed gives the identity labelling, so the seed is a no-op",
    "sv-kronecker33": "seed relabels the two vertices; each run measures both labellings (sink-first is ~35% slower)",
}


def roles(m: dict[str, dict]) -> list[dict]:
    """The role each workload was chosen for, checked against the traced run."""
    def share(w, *names):
        return sum(m[w][n] for n in names) / m[w]["trace.run_s"]

    vk, cj, sv = "verify-kronecker", "classify-jordan5", "sv-kronecker33"
    suites = m[vk]["verify.pairing.s"] + m[vk]["verify.hopf.s"]
    out = [
        (cj, "scalars.ops is 0", m[cj]["scalars.ops"], m[cj]["scalars.ops"] == 0),
        (cj, "repcat enumeration is ~100% of run_s", share(cj, "repcat.enumerate.s"), share(cj, "repcat.enumerate.s") > 0.9),
        (vk, "scalars + hallhopf dominate run_s", share(vk, "scalars.self_s", "hallhopf.self_s"),
         share(vk, "scalars.self_s", "hallhopf.self_s") > 0.5),
        (vk, "pairing suite ~2/3 of pairing+hopf", m[vk]["verify.pairing.s"] / suites,
         0.5 < m[vk]["verify.pairing.s"] / suites < 0.8),
        (vk, "repcat < 3% of run_s", share(vk, "repcat.self_s"), share(vk, "repcat.self_s") < 0.03),
        (sv, "repcat.hall_* substantial (> 10% of run_s)",
         share(sv, "repcat.hall_distribution.self_s", "repcat.hall_multi.self_s"),
         share(sv, "repcat.hall_distribution.self_s", "repcat.hall_multi.self_s") > 0.1),
        (sv, "hallhopf.mult substantial (> 10% of run_s), span time", share(sv, "hallhopf.mult.s"),
         share(sv, "hallhopf.mult.s") > 0.1),
        (sv, "hallhopf.mult substantial (> 10% of run_s), self time", share(sv, "hallhopf.mult.self_s"),
         share(sv, "hallhopf.mult.self_s") > 0.1),
    ]
    return [{"workload": w, "claim": c, "measured": v, "holds": ok} for w, c, v, ok in out]


def git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    golden = json.loads(run.GOLDEN.read_text())
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    numpy_version = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                                   capture_output=True, text=True).stdout.strip()
    record = {
        "benchmark": "BENCHMARK.json",
        "environment": {
            "commit": git_commit(),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
        "metrics": {
            "end_to_end": {m["name"]: m["unit"] for m in declared["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in declared["per_layer"]},
            "fail_ratio": "failed / attempted in the result line; not a metric, since it is 0 on a correct program",
        },
        "workloads": {},
        "layer_to_end_to_end": LAYER_TO_END_TO_END,
        "traced_seed0": {},
    }
    declared_names = {w["name"] for w in declared["workloads"]}
    metrics = {}
    for name, w in run.WORKLOADS.items():
        result, lines = run.measure(w, 0, 0, True, golden[name])
        print("\n".join(lines), flush=True)
        if not result["correct"]:
            print(f"{name}: traced run failed", file=sys.stderr)
            return 1
        m = metrics[name] = {k: v["value"] for k, v in result["metrics"].items()}
        record["workloads"][name] = {
            "command": f"hallalg {w.command}" + (f" --suite {w.suite}" if w.command == "verify" else "") + " --format json",
            "config": w.config_text(),
            "why": WHY[name],
            "in_benchmark_json": name in declared_names,
            "seed": SEED_NOTES[name],
            "golden": {k: golden[name][k] for k in ("exit_code", "sha256", "bytes")},
        }
        record["traced_seed0"][name] = {
            "untraced_run_s": m["trace.run_s"] - m["trace.overhead_s"],
            "traced_run_s": m["trace.run_s"],
            "layer_shares": {n: m[n] / m["trace.run_s"] for n in run.LAYER_SELF},
            "per_layer": m,
        }
    record["roles"] = roles(metrics)
    record["findings"] = FINDINGS
    out = run.HERE / "benchmark_record.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
