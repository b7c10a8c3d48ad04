"""Command line interface: config parsing, command dispatch, report emission.

Configs are sectioned key-value text files (grammar documented in the
README).  Reports serialize either as human-readable text or as JSON with
the fixed schema {"suite", "config_digest", "checks": [{"name", "status",
"witness"}], "overall"}.  Exit codes: 0 success / all checks passed, 1 a
check failed, 2 usage or config error, 3 resource limit hit.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from dataclasses import dataclass, replace

from . import gkm, primitives
from .hallhopf import DoubleHall
from .repcat import (
    ClassTable,
    DEFAULT_MAX_CLASSES,
    DEFAULT_MAX_STATES,
    MAX_FIELD_SIZE,
    LimitExceeded,
    Quiver,
    dims_below,
)
from .scalars import GroundField, is_prime
from .verify import SUITES, run_suite

__all__ = ["Config", "ConfigError", "parse_config", "config_to_text", "run_command", "main"]

_SECTIONS = ("quiver", "field", "limits", "output")
_KEYS = {
    "quiver": {"vertices", "arrows"},
    "field": {"q"},
    "limits": {"bound", "height", "max_states", "max_classes"},
    "output": {"format"},
}


class ConfigError(ValueError):
    def __init__(self, msg: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {msg}" if line is not None else msg)


@dataclass(frozen=True)
class Config:
    vertices: int
    arrows: tuple[tuple[int, int], ...]  # 0-based internally, 1-based in files
    q: int
    bound: tuple[int, ...]
    height: int
    max_states: int = DEFAULT_MAX_STATES
    max_classes: int = DEFAULT_MAX_CLASSES
    output_format: str = "text"

    def quiver(self) -> Quiver:
        return Quiver(self.vertices, self.arrows)

    def field(self) -> GroundField:
        return GroundField(self.q)

    def table(self) -> ClassTable:
        return ClassTable(
            self.quiver(),
            self.field(),
            self.bound,
            max_states=self.max_states,
            max_classes=self.max_classes,
        )


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def parse_config(text: str) -> Config:
    """Parse the sectioned key-value config format with line diagnostics."""
    section = None
    values: dict[tuple[str, str], object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", lineno)
        key, _, raw_val = line.partition("=")
        key = key.strip()
        if section is None:
            raise ConfigError(f"key {key!r} outside any section", lineno)
        if key not in _KEYS[section]:
            raise ConfigError(f"unknown key {key!r} in section [{section}]", lineno)
        values[(section, key)] = (_parse_value(raw_val.strip()), lineno)

    def take(section, key, default=None, required=False):
        if (section, key) in values:
            return values.pop((section, key))
        if required:
            raise ConfigError(f"missing required key {key!r} in section [{section}]")
        return (default, None)

    vertices, ln = take("quiver", "vertices", required=True)
    if not isinstance(vertices, int) or vertices < 1:
        raise ConfigError("vertices must be a positive integer", ln)
    arrows_raw, ln = take("quiver", "arrows", default=[])
    arrows = []
    if not isinstance(arrows_raw, list):
        raise ConfigError("arrows must be a list of [source, target] pairs", ln)
    for pair in arrows_raw:
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, int) for x in pair)
        ):
            raise ConfigError(f"bad arrow {pair!r}", ln)
        s, t = pair
        if not (1 <= s <= vertices and 1 <= t <= vertices):
            raise ConfigError(
                f"vertex {max(s, t)} out of range (1..{vertices})", ln
            )
        arrows.append((s - 1, t - 1))
    q, ln = take("field", "q", required=True)
    if not isinstance(q, int) or not is_prime(q):
        raise ConfigError("q must be prime", ln)
    if q > MAX_FIELD_SIZE:
        raise ConfigError(f"q must be at most {MAX_FIELD_SIZE}", ln)
    bound, ln = take("limits", "bound", default=[2] * vertices)
    if (
        not isinstance(bound, list)
        or len(bound) != vertices
        or not all(isinstance(b, int) and b >= 1 for b in bound)
    ):
        # Every suite needs the simple of each vertex inside the bound.
        raise ConfigError(
            f"[limits] bound must be a list of {vertices} positive integers", ln
        )
    height, ln = take("limits", "height", default=min(bound))
    if not isinstance(height, int) or height < 0:
        raise ConfigError("height must be a nonnegative integer", ln)
    max_states, ln = take("limits", "max_states", default=DEFAULT_MAX_STATES)
    if not isinstance(max_states, int) or max_states < 1:
        raise ConfigError("max_states must be a positive integer", ln)
    max_classes, ln = take("limits", "max_classes", default=DEFAULT_MAX_CLASSES)
    if not isinstance(max_classes, int) or max_classes < 1:
        raise ConfigError("max_classes must be a positive integer", ln)
    fmt, ln = take("output", "format", default="text")
    if fmt not in ("text", "json"):
        raise ConfigError("format must be text or json", ln)
    return Config(
        vertices=vertices,
        arrows=tuple(arrows),
        q=q,
        bound=tuple(bound),
        height=height,
        max_states=max_states,
        max_classes=max_classes,
        output_format=fmt,
    )


def config_to_text(c: Config) -> str:
    """Canonical text rendering; parse_config inverts it exactly."""
    arrows = json.dumps([[s + 1, t + 1] for s, t in c.arrows])
    return (
        "[quiver]\n"
        f"vertices = {c.vertices}\n"
        f"arrows = {arrows}\n"
        "[field]\n"
        f"q = {c.q}\n"
        "[limits]\n"
        f"bound = {json.dumps(list(c.bound))}\n"
        f"height = {c.height}\n"
        f"max_states = {c.max_states}\n"
        f"max_classes = {c.max_classes}\n"
        "[output]\n"
        f"format = {c.output_format}\n"
    )


def config_digest(c: Config) -> str:
    return hashlib.sha256(config_to_text(c).encode()).hexdigest()


def _to_json(data) -> str:
    """The indented JSON text of data, streamed into one buffer.

    json.dumps with indent joins a list of every chunk the encoder yields,
    which for a large report takes several times the memory of the text.
    """
    buf = io.StringIO()
    json.dump(data, buf, indent=2)
    return buf.getvalue()


def _report_dict(report, digest: str) -> dict:
    """The pinned JSON report schema of one suite."""
    data = report.to_dict()
    return {
        "suite": data["suite"],
        "config_digest": digest,
        "checks": data["checks"],
        "overall": data["overall"],
    }


def emit_report(report, fmt: str, digest: str) -> str:
    if fmt == "json":
        return _to_json(_report_dict(report, digest))
    p, f, s = report.counts()
    lines = [f"suite {report.suite}: {report.overall} ({p} passed, {f} failed, {s} skipped)"]
    for c in report.checks:
        if c.status == "fail":
            lines.append(f"  [fail] {c.name}: {c.witness}")
        elif c.status == "skipped":
            lines.append(f"  [skip] {c.name}: {c.witness}")
    return "\n".join(lines)


def _cmd_classify(config: Config) -> tuple[int, str]:
    table = config.table()
    rows = []
    for mu in table.degrees():
        rows.append(
            {
                "dim": list(mu),
                "classes": table.class_count(mu),
                "indecomposable": table.indec_count(mu),
            }
        )
    if config.output_format == "json":
        return 0, _to_json(
            {"command": "classify", "config_digest": config_digest(config), "rows": rows}
        )
    lines = ["dim  classes  indecomposable"]
    for r in rows:
        lines.append(f"{tuple(r['dim'])}  {r['classes']}  {r['indecomposable']}")
    return 0, "\n".join(lines)


def _cmd_hall_table(config: Config) -> tuple[int, str]:
    table = config.table()
    rows = []
    for mu in table.degrees():
        for g in table.classes(mu):
            for nu in dims_below(mu):
                dist = table.hall_distribution(g.cid, nu)
                for (quot, sub), n in sorted(dist.items()):
                    rows.append(
                        {
                            "gamma": _cid_str(g.cid),
                            "quotient": _cid_str(quot),
                            "sub": _cid_str(sub),
                            "count": n,
                        }
                    )
    if config.output_format == "json":
        return 0, _to_json(
            {"command": "hall-table", "config_digest": config_digest(config), "rows": rows}
        )
    lines = [f"g[{r['gamma']}; {r['quotient']}, {r['sub']}] = {r['count']}" for r in rows]
    return 0, "\n".join(lines)


def _cid_str(cid) -> str:
    return f"{tuple(cid[0])}:{cid[1]}"


def _cmd_cartan(config: Config) -> tuple[int, str]:
    table = config.table()
    datum = gkm.datum_from_table(table)
    cartan = gkm.cartan_from_datum(datum)
    data = {
        "command": "cartan",
        "config_digest": config_digest(config),
        "matrix": [list(r) for r in cartan.entries],
        "symmetrizers": [str(e) for e in cartan.eps],
        "real": [i + 1 for i in cartan.real_indices()],
        "imaginary": [i + 1 for i in cartan.imaginary_indices()],
    }
    if config.output_format == "json":
        return 0, _to_json(data)
    lines = ["cartan matrix:"]
    for r in cartan.entries:
        lines.append("  " + " ".join(f"{x:3d}" for x in r))
    lines.append(f"symmetrizers: {data['symmetrizers']}")
    lines.append(f"real: {data['real']}  imaginary: {data['imaginary']}")
    return 0, "\n".join(lines)


def _cmd_roots(config: Config, height: int | None) -> tuple[int, str]:
    table = config.table()
    h = config.height if height is None else height
    datum = gkm.datum_from_table(table)
    cartan = gkm.cartan_from_datum(datum)
    roots = gkm.positive_roots(cartan, h)
    rows = [
        {"vector": list(r.vector), "kind": "imaginary" if r.imaginary else "real"}
        for r in roots
    ]
    if config.output_format == "json":
        return 0, _to_json(
            {
                "command": "roots",
                "config_digest": config_digest(config),
                "height": h,
                "rows": rows,
            }
        )
    lines = [f"positive roots up to height {h}: {len(rows)}"]
    for r in rows:
        lines.append(f"  {tuple(r['vector'])}  {r['kind']}")
    return 0, "\n".join(lines)


def _cmd_sv(config: Config) -> tuple[int, str]:
    table = config.table()
    H = DoubleHall(table)
    ext = primitives.extend_datum(H)
    rows = [
        {
            "theta": list(theta),
            "classes": nclasses,
            "decomposable": xi_dim,
            "new_generators": lsp.dim,
        }
        for theta, nclasses, xi_dim, lsp in ext.records
    ]
    data = {
        "command": "sv",
        "config_digest": config_digest(config),
        "rows": rows,
        "new_indices": [[list(t), p] for t, p in ext.new_labels],
        "extended_cartan": [list(r) for r in ext.cartan.entries],
    }
    if config.output_format == "json":
        return 0, _to_json(data)
    lines = ["theta  classes  decomposable  new"]
    for r in rows:
        lines.append(
            f"{tuple(r['theta'])}  {r['classes']}  {r['decomposable']}  {r['new_generators']}"
        )
    lines.append(f"new indices: {data['new_indices']}")
    return 0, "\n".join(lines)


def _cmd_verify(config: Config, suite: str) -> tuple[int, str]:
    names = list(SUITES) if suite == "all" else [suite]
    digest = config_digest(config)
    table = config.table()
    reports = [run_suite(n, table, height=config.height) for n in names]
    if config.output_format == "json":
        data = [_report_dict(r, digest) for r in reports]
        out = _to_json(data[0] if len(data) == 1 else data)
    else:
        out = "\n".join(emit_report(r, "text", digest) for r in reports)
    code = 0 if all(r.overall == "pass" for r in reports) else 1
    return code, out


def run_command(cmd: str, config: Config, *, suite: str = "all", height: int | None = None) -> tuple[int, str]:
    """Dispatch a command against a parsed config; returns (exit code, text)."""
    try:
        if cmd == "classify":
            return _cmd_classify(config)
        if cmd == "hall-table":
            return _cmd_hall_table(config)
        if cmd == "cartan":
            return _cmd_cartan(config)
        if cmd == "roots":
            return _cmd_roots(config, height)
        if cmd == "sv":
            return _cmd_sv(config)
        if cmd == "verify":
            return _cmd_verify(config, suite)
    except LimitExceeded as exc:
        return 3, f"resource limit: {exc}"
    raise ValueError(f"unknown command {cmd!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hallalg",
        description="Exact Hall algebra toolkit for nilpotent quiver representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("classify", "hall-table", "cartan", "roots", "sv", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a config file")
        p.add_argument("--format", choices=("text", "json"), default=None)
        if name == "roots":
            p.add_argument("--height", type=int, default=None)
        if name == "verify":
            p.add_argument(
                "--suite",
                choices=tuple(SUITES) + ("all",),
                default="all",
            )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = parse_config(fh.read())
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.format:
        config = replace(config, output_format=args.format)
    code, out = run_command(
        args.command,
        config,
        suite=getattr(args, "suite", "all"),
        height=getattr(args, "height", None),
    )
    print(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
