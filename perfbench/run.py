"""hallalg benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from its `src/`.
Each sample is one fresh child process (child.py), and one child is alive at a
time: a closed loop with a single client.  Children start until the next one
would end after --seconds; at least one always runs.

Workloads (why each was chosen is in benchmark_record.json):
  verify-kronecker  verify --suite all, Kronecker quiver, q=2, bound (2,2)
  classify-jordan5  classify, Jordan quiver, q=2, bound (5)
  sv-kronecker33    verify --suite sv, Kronecker quiver, q=2, bound (3,3)
BENCHMARK.json lists only the first two, at 60 s per run.  Fitting all three
into the same total time gives 40 s runs, which hold one or two samples of
each labelling on a slow machine, and run_s then spread past its bound across
seeds on a shared 2-vCPU VM.  sv-kronecker33 stays here and in
benchmark_record.json for manual runs.

--seed N relabels the quiver's vertices, arrow order and bound with a seeded
permutation; seed 0 is the identity.  Every run alternates two labellings,
the seed's and its vertex-order mirror, because the program's cost depends
on which vertex is the source (sv-kronecker33 is ~35% slower with the sink
first), and a run that measured one of them would split seeds into two
populations.  The reported run_s is the mean of the two labellings' medians.

Children run with their bytecode cached under .perfbench/pycache, whatever
PYTHONDONTWRITEBYTECODE says, so setup_s is the import a user with an
installed package pays; the discarded warm-up probe fills the cache.

Every output is checked: stdout bytes against the golden sha256 where the
labelling is the identity, otherwise the label-invariant summary (exit code,
per-suite status and check and skip counts, classify rows up to the
permutation).  Children of one labelling must also agree byte for byte with
each other; PYTHONHASHSEED is not pinned, so this catches hash-order
nondeterminism.

A run holds fewer than eleven samples of a labelling, so no percentile above
the median has ten samples beyond it; the summary lines print each
labelling's median, maximum and sample count, and the fail ratio.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
run that alternates untraced and traced children of the seed's labelling.
The last stdout line is one JSON object:
  {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"

SETUP_PROBES = 7  # set-up samples per run, after one discarded warm-up probe
RSS_POLL_S = 0.1

END_TO_END = (
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = (
    ("cli.parse_config.s", "s", "lower"),
    ("cli.render.s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("verify.hopf.s", "s", "lower"),
    ("verify.pairing.s", "s", "lower"),
    ("verify.composition.s", "s", "lower"),
    ("verify.sv.s", "s", "lower"),
    ("verify.kac.s", "s", "lower"),
    ("verify.character.s", "s", "lower"),
    ("verify.self_s", "s", "lower"),
    ("verify.checks", "count", "higher"),
    ("verify.skipped", "count", "lower"),
    ("primitives.extend_datum.s", "s", "lower"),
    ("primitives.self_s", "s", "lower"),
    ("primitives.primitive_space.calls", "count", "lower"),
    ("hallhopf.self_s", "s", "lower"),
    ("hallhopf.mult.s", "s", "lower"),
    ("hallhopf.mult.calls", "count", "lower"),
    ("hallhopf.mult.self_s", "s", "lower"),
    ("hallhopf.mult_sided.calls", "count", "lower"),
    ("hallhopf.mult_sided.self_s", "s", "lower"),
    ("hallhopf.comult.calls", "count", "lower"),
    ("hallhopf.comult.self_s", "s", "lower"),
    ("hallhopf.antipode.calls", "count", "lower"),
    ("hallhopf.antipode.self_s", "s", "lower"),
    ("hallhopf.pairing.calls", "count", "lower"),
    ("hallhopf.pairing.self_s", "s", "lower"),
    ("hallhopf.omega.calls", "count", "lower"),
    ("hallhopf.omega.self_s", "s", "lower"),
    ("scalars.ops", "count", "lower"),
    ("scalars.new", "count", "lower"),
    ("scalars.self_s", "s", "lower"),
    ("repcat.enumerate.s", "s", "lower"),
    ("repcat.classes", "count", "higher"),
    ("repcat.orbit_states", "count", "lower"),
    ("repcat.self_s", "s", "lower"),
    ("repcat.hall_distribution.calls", "count", "lower"),
    ("repcat.hall_distribution.misses", "count", "lower"),
    ("repcat.hall_distribution.self_s", "s", "lower"),
    ("repcat.subspaces_scanned", "count", "lower"),
    ("repcat.subrep_ratio", "ratio", "higher"),
    ("repcat.hall_multi.calls", "count", "lower"),
    ("repcat.hall_multi.self_s", "s", "lower"),
    ("repcat.classify.calls", "count", "lower"),
    ("modlin.calls", "count", "lower"),
    ("modlin.self_s", "s", "lower"),
    ("gkm.self_s", "s", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)
# Self times inside run_command, one per layer; with trace.unattributed_s
# they add up to trace.run_s.
LAYER_SELF = (
    "cli.render.s", "verify.self_s", "primitives.self_s", "hallhopf.self_s",
    "gkm.self_s", "repcat.self_s", "modlin.self_s", "scalars.self_s",
)
# Wrapper bookkeeping between the child's outer timer and the run_command span.
UNATTRIBUTED_TOLERANCE = 0.01


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: str
    suite: str
    vertices: int
    arrows: tuple[tuple[int, int], ...]  # 1-based, as in config files
    q: int
    bound: tuple[int, ...]
    height: int

    def config_text(self, perm=None, arrow_order=None) -> str:
        """The config file in the CLI's grammar, vertices renamed i -> perm[i]."""
        n = self.vertices
        perm = list(range(n)) if perm is None else perm
        arrows = [[perm[s - 1] + 1, perm[t - 1] + 1] for s, t in self.arrows]
        if arrow_order is not None:
            arrows = [arrows[k] for k in arrow_order]
        bound = [0] * n
        for i, b in enumerate(self.bound):
            bound[perm[i]] = b
        return (
            "[quiver]\n"
            f"vertices = {n}\n"
            f"arrows = {json.dumps(arrows)}\n"
            "[field]\n"
            f"q = {self.q}\n"
            "[limits]\n"
            f"bound = {json.dumps(bound)}\n"
            f"height = {self.height}\n"
            "[output]\n"
            "format = text\n"
        )


KRONECKER = ((1, 2), (1, 2))
WORKLOADS = {
    w.name: w
    for w in (
        # configs/kronecker.cfg, the acceptance config
        Workload("verify-kronecker", "verify", "all", 2, KRONECKER, 2, (2, 2), 2),
        Workload("classify-jordan5", "classify", "all", 1, ((1, 1),), 2, (5,), 5),
        Workload("sv-kronecker33", "verify", "sv", 2, KRONECKER, 2, (3, 3), 2),
    )
}


@dataclasses.dataclass(frozen=True)
class Labelling:
    perm: tuple[int, ...]  # vertex i of the workload is vertex perm[i] of the config
    text: str
    identity: bool


def labellings(w: Workload, seed: int) -> list[Labelling]:
    """The seed's relabelling and its vertex-order mirror (one if they coincide)."""
    n = w.vertices
    perm = list(range(n))
    order = list(range(len(w.arrows)))
    if seed:
        rng = random.Random(seed)
        rng.shuffle(perm)
        rng.shuffle(order)
    mirror = [n - 1 - p for p in perm]
    identity_text = w.config_text()
    out = []
    for p in (perm, mirror):
        text = w.config_text(p, order)
        if all(lab.text != text for lab in out):
            out.append(Labelling(tuple(p), text, text == identity_text))
    return out


def summary(command: str, output: bytes, perm) -> list:
    """Label-invariant content of a report, in the workload's own labels."""
    data = json.loads(output)
    if command == "classify":
        rows = [
            [[r["dim"][p] for p in perm], r["classes"], r["indecomposable"]]
            for r in data["rows"]
        ]
        return sorted(rows)
    reports = data if isinstance(data, list) else [data]
    return [
        [
            r["suite"],
            r["overall"],
            len(r["checks"]),
            sum(c["status"] == "skipped" for c in r["checks"]),
        ]
        for r in reports
    ]


def golden_record(w: Workload, code: int, output: bytes) -> dict:
    return {
        "exit_code": code,
        "sha256": hashlib.sha256(output).hexdigest(),
        "bytes": len(output),
        "summary": summary(w.command, output, range(w.vertices)),
    }


# ----- child processes ------------------------------------------------------


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclasses.dataclass
class Child:
    labelling: Labelling
    traced: bool
    code: int
    wall_s: float
    peak_rss_kb: int
    output: bytes
    record: dict | None
    setup_s: float | None
    ok: bool = True

    @property
    def run_s(self) -> float:
        return self.record["run_s"] if self.record and "run_s" in self.record else self.wall_s


def _proc_tree_rss_kb(root_pid: int) -> int:
    """Summed resident memory of root_pid and all its descendants."""
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", "rb") as fh:
                    stat = fh.read()
            except OSError:
                continue
            parents[int(entry)] = int(stat.rsplit(b")", 1)[1].split()[1])
    tree, frontier = {root_pid}, [root_pid]
    while frontier:
        p = frontier.pop()
        for c, pp in parents.items():
            if pp == p and c not in tree:
                tree.add(c)
                frontier.append(c)
    total = 0
    for p in tree:
        try:
            with open(f"/proc/{p}/statm", "rb") as fh:
                total += int(fh.read().split()[1]) * os.sysconf("SC_PAGESIZE") // 1024
        except OSError:
            pass
    return total


class TreeRssSampler:
    """Peak of the summed RSS of a process tree, polled, for concurrent workers."""

    def __init__(self, pid: int):
        self.pid = pid
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while not self._stop.wait(RSS_POLL_S):
            self.peak_kb = max(self.peak_kb, _proc_tree_rss_kb(self.pid))

    def stop(self) -> int:
        self._stop.set()
        self._thread.join()
        return self.peak_kb


def spawn(w: Workload, lab: Labelling, cfg: Path, *, probe=False, spans: Path | None = None, run_id=0) -> Child:
    record_path = WORK / "child-record.json"
    record_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--src", str(SRC), "--config", str(cfg),
        "--command", w.command, "--suite", w.suite,
        "--record", str(record_path),
    ]
    if probe:
        cmd.append("--probe")
    if spans is not None:
        cmd += ["--spans", str(spans), "--run-id", str(run_id)]
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = now()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    sampler = TreeRssSampler(proc.pid)
    try:
        output = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        sampled_kb = sampler.stop()
    wall = now() - t0
    record = None
    if record_path.exists():
        record = json.loads(record_path.read_text())
    setup = record["ready"] - t0 if record else None
    return Child(lab, spans is not None, proc.returncode, wall,
                 max(usage.ru_maxrss, sampled_kb), output, record, setup)


def check(w: Workload, child: Child, golden: dict, first_sha: dict) -> bool:
    """Exit code and output against the golden record and earlier children."""
    if child.record is None or child.code != golden["exit_code"]:
        return False
    lab = child.labelling
    sha = hashlib.sha256(child.output).hexdigest()
    if first_sha.setdefault(lab.text, sha) != sha:
        return False
    if lab.identity:
        return sha == golden["sha256"]
    try:
        return summary(w.command, child.output, lab.perm) == golden["summary"]
    except (ValueError, KeyError, IndexError, TypeError):
        return False


# ----- one run ----------------------------------------------------------------


def measure(w: Workload, seed: int, seconds: float, trace: bool, golden: dict) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and human-readable lines."""
    WORK.mkdir(exist_ok=True)
    labs = labellings(w, seed)
    if trace:
        labs = labs[:1]
    cfgs = []
    for k, lab in enumerate(labs):
        cfg = WORK / f"{w.name}-seed{seed}-{k}.cfg"
        cfg.write_text(lab.text)
        cfgs.append(cfg)

    t_begin = now()
    setups = []
    probes_ok = True
    for i in range(SETUP_PROBES + 1):
        c = spawn(w, labs[0], cfgs[0], probe=True)
        probes_ok &= c.code == 0 and c.record is not None
        if i and c.setup_s is not None:
            setups.append(c.setup_s)

    # Untraced children cycle through the labellings; a traced run alternates
    # untraced and traced children of the seed's labelling.
    plan = [(k, False) for k in range(len(labs))]
    if trace:
        plan = [(0, False), (0, True)]
    children: list[Child] = []
    first_sha: dict = {}
    last_wall: dict = {}
    i = 0
    while True:
        k, traced = plan[i % len(plan)]
        spans = WORK / f"spans-{w.name}-seed{seed}-{i}.jsonl" if traced else None
        c = spawn(w, labs[k], cfgs[k], spans=spans, run_id=i)
        c.ok = check(w, c, golden, first_sha)
        children.append(c)
        last_wall[plan[i % len(plan)]] = c.wall_s
        i += 1
        if i % len(plan) == 0 and now() - t_begin + sum(last_wall.values()) > seconds:
            break

    untraced = [c for c in children if not c.traced]
    setups += [c.setup_s for c in untraced if c.setup_s is not None]
    failed = sum(not c.ok for c in children)
    lines = []
    per_lab = []
    for k, lab in enumerate(labs):
        runs = [c.run_s for c in untraced if c.labelling is lab]
        per_lab.append(statistics.median(runs))
        lines.append(
            f"{w.name} seed {seed} labelling {list(lab.perm)}: run_s median {per_lab[-1]:.4f} s, "
            f"max {max(runs):.4f} s, n={len(runs)}"
        )
    run_s = statistics.fmean(per_lab)
    setup_s = statistics.median(setups)
    peak_mb = max(c.peak_rss_kb for c in untraced) / 1024
    lines.append(
        f"{w.name} seed {seed}: run_s {run_s:.4f} s, setup_s {setup_s:.4f} s (n={len(setups)}), "
        f"peak_rss_mb {peak_mb:.1f} MB, fail_ratio {failed}/{len(children)} = {failed / len(children):.3f}"
    )
    correct = failed == 0 and probes_ok

    if not trace:
        values = {"run_s": run_s, "setup_s": setup_s, "peak_rss_mb": peak_mb}
        units = END_TO_END
    else:
        traced = [c for c in children if c.traced and c.ok and "metrics" in c.record]
        layer = {}
        if traced:
            for name, _, _ in PER_LAYER:
                vals = [c.record["metrics"][name] for c in traced if name in c.record["metrics"]]
                if vals:
                    layer[name] = statistics.median(vals)
            cpu = [c.record["cpu_s"] for c in untraced if c.record and "cpu_s" in c.record]
            if cpu:
                layer["process.cpu_s"] = statistics.median(cpu)
            layer["trace.overhead_s"] = layer["trace.run_s"] - per_lab[0]
            for c in traced:
                ok, msg = attribution(c.record["metrics"])
                correct &= ok
                lines.append(msg)
        correct &= bool(traced) and all(name in layer for name, _, _ in PER_LAYER)
        values = layer
        units = PER_LAYER
        shares = {n: layer[n] / layer["trace.run_s"] for n in LAYER_SELF if n in layer and layer.get("trace.run_s")}
        lines.append(f"{w.name} seed {seed}: layer shares of traced run_s " + json.dumps({k: round(v, 4) for k, v in shares.items()}))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in units if name in values}
    result = {"correct": correct, "attempted": len(children), "failed": failed, "metrics": metrics}
    return result, lines


def attribution(m: dict) -> tuple[bool, str]:
    """Layer self times must add up to the traced run_s, up to trace.unattributed_s."""
    total = sum(m[n] for n in LAYER_SELF)
    run_s = m["trace.run_s"]
    gap = run_s - total
    ok = (
        abs(gap - m["trace.unattributed_s"]) < 1e-6
        and -1e-6 <= gap <= UNATTRIBUTED_TOLERANCE * run_s
        and all(m[n] >= -1e-6 for n in LAYER_SELF)
    )
    return ok, (
        f"attribution {'ok' if ok else 'FAILED'}: layer self times {total:.4f} s + "
        f"unattributed {gap:.6f} s = traced run_s {run_s:.4f} s"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(WORKLOADS) + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hallalg" / "__init__.py").is_file():
        print(f"no hallalg package under {SRC}; run from the root of a hallalg checkout", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, lines = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), golden[name])
        for line in lines:
            print(line, flush=True)
        results[name] = result
    print(json.dumps(results[names[0]] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
