"""One benchmark child process: import hallalg, parse a config, run one command.

run.py starts one child process per sample.  The child imports
`hallalg` from the checkout's `src/`, calls `hallalg.cli.parse_config` and
`hallalg.cli.run_command` with JSON output, writes the report bytes to stdout
exactly as `hallalg <command> --format json` prints them, and leaves a record
with its timestamps in the file named by --record.  It exits with the
command's exit code.

    python3 perfbench/child.py --src SRC --config CFG --command verify \
        --suite all --record OUT.json [--probe | --spans SPANS.jsonl --run-id N]

--probe stops after parsing the config (a set-up sample).  --spans runs the
command under the tracer and writes the spans there.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--command", required=True)
    ap.add_argument("--suite", default="all")
    ap.add_argument("--record", required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--run-id", type=int, default=0)
    args = ap.parse_args()

    import hallalg
    import hallalg.cli

    src = os.path.realpath(args.src)
    if os.path.dirname(os.path.realpath(hallalg.__file__)) != os.path.join(src, "hallalg"):
        print(f"hallalg imported from {hallalg.__file__}, not from {src}", file=sys.stderr)
        return 97
    tracer = None
    if args.spans:
        import tracer as tracing

        tracer = tracing.Tracer(args.run_id)
        tracing.install(tracer)

    with open(args.config, encoding="utf-8") as fh:
        config = hallalg.cli.parse_config(fh.read())
    record = {"ready": now()}
    if not args.probe:
        config = dataclasses.replace(config, output_format="json")
        c0 = time.process_time()
        t0 = now()
        code, out = hallalg.cli.run_command(args.command, config, suite=args.suite)
        t1 = now()
        c1 = time.process_time()
        data = (out + "\n").encode()
        sys.stdout.buffer.write(data)
        sys.stdout.flush()
        record.update(run_s=t1 - t0, cpu_s=c1 - c0, code=code)
        if tracer is not None:
            record["metrics"] = tracer.metrics(t1 - t0, len(data))
            tracer.write_spans(args.spans)
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return record.get("code", 0)


if __name__ == "__main__":
    sys.exit(main())
