"""Self-check of the benchmark harness on a tiny input outside its workloads.

    python3 perfbench/selfcheck.py

Measures `verify --suite all` on the A2 quiver of configs/a2.cfg (q=2, bound
(2,2)) through the same code path as run.py, untraced and traced, and checks
that:
  - every metric BENCHMARK.json declares is reported, with its declared unit;
  - runs against a golden record taken from a first child all pass, and the
    traced run's layer self times add up to its run_s;
  - a corrupted golden digest, or a corrupted label-invariant summary, makes
    the runs that it checks count as failed.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys

import run

A2 = run.Workload("selfcheck-a2", "verify", "all", 2, ((1, 2),), 2, (2, 2), 2)


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(cond: bool, what: str):
        if not cond:
            problems.append(what)

    run.WORK.mkdir(exist_ok=True)
    first = run.labellings(A2, 0)[0]
    cfg = run.WORK / "selfcheck-a2.cfg"
    cfg.write_text(first.text)
    child = run.spawn(A2, first, cfg)
    expect(child.code == 0, f"golden child exited {child.code}")
    golden = run.golden_record(A2, child.code, child.output)

    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, lines = run.measure(A2, 0, 0, trace, golden)
        print("\n".join(lines))
        expect(result["correct"] and result["failed"] == 0, f"trace={trace}: clean run failed: {result}")
        metrics = result["metrics"]
        for m in declared[key]:
            got = metrics.get(m["name"])
            expect(got is not None, f"trace={trace}: metric {m['name']} missing")
            expect(got is None or got["unit"] == m["unit"], f"trace={trace}: {m['name']} unit {got and got['unit']} != {m['unit']}")
        expect(set(metrics) == {m["name"] for m in declared[key]}, f"trace={trace}: undeclared metrics printed")

    for field, broken in (("sha256", "0" * 64), ("summary", [])):
        bad = dict(golden, **{field: broken})
        result, _ = run.measure(A2, 0, 0, False, bad)
        print(f"corrupted {field}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
        expect(not result["correct"] and result["failed"] > 0, f"corrupted {field} was not caught")

    for p in problems:
        print("SELF-CHECK FAILED:", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
