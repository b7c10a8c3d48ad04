"""Command line interface: config parsing and the command table.

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
from typing import Callable

from . import gkm, primitives
from .hallhopf import DoubleHall, TruncationError
from .repcat import (
    ClassTable,
    DEFAULT_MAX_CLASSES,
    DEFAULT_MAX_STATES,
    MAX_FIELD_SIZE,
    LimitExceeded,
    Quiver,
    cid_str,
    dims_below,
)
from .scalars import GroundField, is_prime
from .verify import SUITES, run_suite

__all__ = ["Config", "ConfigError", "parse_config", "config_to_text", "run_command", "main"]

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

    def table(self) -> ClassTable:
        return ClassTable(
            Quiver(self.vertices, self.arrows),
            GroundField(self.q),
            self.bound,
            max_states=self.max_states,
            max_classes=self.max_classes,
        )


def _is_int(value) -> bool:
    # json.loads reads true and false as bool, a subclass of int.
    return isinstance(value, int) and not isinstance(value, bool)


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
            if section not in _KEYS:
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
        if (section, key) in values:
            raise ConfigError(f"repeated key {key!r} in section [{section}]", lineno)
        values[(section, key)] = (_parse_value(raw_val.strip()), lineno)

    def take(section, key, default=None, required=False):
        if (section, key) in values:
            return values.pop((section, key))
        if required:
            raise ConfigError(f"missing required key {key!r} in section [{section}]")
        return (default, None)

    def integer(section, key, default=None, minimum=1):
        value, ln = take(section, key, default, required=default is None)
        if not _is_int(value) or value < minimum:
            kind = "positive" if minimum else "nonnegative"
            raise ConfigError(f"{key} must be a {kind} integer", ln)
        return value

    vertices = integer("quiver", "vertices")
    arrows_raw, ln = take("quiver", "arrows", default=[])
    arrows = []
    if not isinstance(arrows_raw, list):
        raise ConfigError("arrows must be a list of [source, target] pairs", ln)
    for pair in arrows_raw:
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(_is_int(x) for x in pair)
        ):
            raise ConfigError(f"bad arrow {pair!r} in arrows", ln)
        s, t = pair
        if not (1 <= s <= vertices and 1 <= t <= vertices):
            raise ConfigError(
                f"vertex {max(s, t)} out of range (1..{vertices})", ln
            )
        arrows.append((s - 1, t - 1))
    q, ln = take("field", "q", required=True)
    if not _is_int(q) or not is_prime(q):
        raise ConfigError("q must be prime", ln)
    if q > MAX_FIELD_SIZE:
        raise ConfigError(f"q must be at most {MAX_FIELD_SIZE}", ln)
    bound, ln = take("limits", "bound", default=[2] * vertices)
    if (
        not isinstance(bound, list)
        or len(bound) != vertices
        or not all(_is_int(b) and b >= 1 for b in bound)
    ):
        # Every suite needs the simple of each vertex inside the bound.
        raise ConfigError(
            f"[limits] bound must be a list of {vertices} positive integers", ln
        )
    height = integer("limits", "height", min(bound), minimum=0)
    max_states = integer("limits", "max_states", DEFAULT_MAX_STATES)
    max_classes = integer("limits", "max_classes", DEFAULT_MAX_CLASSES)
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


def _classify(table: ClassTable, config: Config, **_) -> dict:
    rows = []
    for mu in table.degrees():
        rows.append(
            {
                "dim": list(mu),
                "classes": table.class_count(mu),
                "indecomposable": table.indec_count(mu),
            }
        )
    return {"rows": rows}


def _classify_text(data: dict):
    yield "dim  classes  indecomposable"
    for r in data["rows"]:
        yield f"{tuple(r['dim'])}  {r['classes']}  {r['indecomposable']}"


def _hall_table(table: ClassTable, config: Config, **_) -> dict:
    rows = []
    for mu in table.degrees():
        for g in table.classes(mu):
            for nu in dims_below(mu):
                dist = table.hall_distribution(g.cid, nu)
                for (quot, sub), n in sorted(dist.items()):
                    rows.append(
                        {
                            "gamma": cid_str(g.cid),
                            "quotient": cid_str(quot),
                            "sub": cid_str(sub),
                            "count": n,
                        }
                    )
    return {"rows": rows}


def _hall_table_text(data: dict):
    for r in data["rows"]:
        yield f"g[{r['gamma']}; {r['quotient']}, {r['sub']}] = {r['count']}"


def _cartan(table: ClassTable, config: Config, **_) -> dict:
    datum = gkm.datum_from_table(table)
    cartan = gkm.cartan_from_datum(datum)
    return {
        "matrix": [list(r) for r in cartan.entries],
        "symmetrizers": [str(e) for e in cartan.eps],
        "real": [i + 1 for i in cartan.real_indices()],
        "imaginary": [i + 1 for i in cartan.imaginary_indices()],
    }


def _cartan_text(data: dict):
    yield "cartan matrix:"
    for r in data["matrix"]:
        yield "  " + " ".join(f"{x:3d}" for x in r)
    yield f"symmetrizers: {data['symmetrizers']}"
    yield f"real: {data['real']}  imaginary: {data['imaginary']}"


def _roots(table: ClassTable, config: Config, **_) -> dict:
    datum = gkm.datum_from_table(table)
    cartan = gkm.cartan_from_datum(datum)
    roots = gkm.positive_roots(cartan, config.height)
    rows = [
        {"vector": list(r.vector), "kind": "imaginary" if r.imaginary else "real"}
        for r in roots
    ]
    return {"height": config.height, "rows": rows}


def _roots_text(data: dict):
    yield f"positive roots up to height {data['height']}: {len(data['rows'])}"
    for r in data["rows"]:
        yield f"  {tuple(r['vector'])}  {r['kind']}"


def _sv(table: ClassTable, config: Config, **_) -> dict:
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
    return {
        "rows": rows,
        "new_indices": [[list(t), p] for t, p in ext.new_labels],
        "extended_cartan": [list(r) for r in ext.cartan.entries],
    }


def _sv_text(data: dict):
    yield "theta  classes  decomposable  new"
    for r in data["rows"]:
        yield f"{tuple(r['theta'])}  {r['classes']}  {r['decomposable']}  {r['new_generators']}"
    yield f"new indices: {data['new_indices']}"


def _verify(table: ClassTable, config: Config, digest: str, suite: str, **_):
    reports = []
    for name in list(SUITES) if suite == "all" else [suite]:
        data = run_suite(name, table, height=config.height).to_dict()
        # The pinned schema has the digest right after the suite name.
        reports.append({"suite": data.pop("suite"), "config_digest": digest, **data})
    return reports[0] if len(reports) == 1 else reports


def _reports(data) -> list:
    return data if isinstance(data, list) else [data]


def _verify_text(data):
    for r in _reports(data):
        status = [c["status"] for c in r["checks"]]
        yield (
            f"suite {r['suite']}: {r['overall']} ({status.count('pass')} passed, "
            f"{status.count('fail')} failed, {status.count('skipped')} skipped)"
        )
        for c in r["checks"]:
            if c["status"] != "pass":
                tag = "fail" if c["status"] == "fail" else "skip"
                yield f"  [{tag}] {c['name']}: {c['witness']}"


def _height(raw: str) -> int:
    if not raw.isdigit():
        raise argparse.ArgumentTypeError(f"height must be a nonnegative integer, got {raw!r}")
    return int(raw)


@dataclass(frozen=True)
class _Command:
    """A subcommand.  build(table, config, **options) returns the JSON
    payload, which gets the `command` and `config_digest` header in front
    when `header` is set; text(payload) yields its text lines and
    exit_code(payload) gives the exit code; `arguments` are the argparse
    arguments of the command's own options."""

    build: Callable
    text: Callable
    arguments: tuple = ()
    header: bool = True
    exit_code: Callable = lambda data: 0


_COMMANDS = {
    "classify": _Command(_classify, _classify_text),
    "hall-table": _Command(_hall_table, _hall_table_text),
    "cartan": _Command(_cartan, _cartan_text),
    "roots": _Command(_roots, _roots_text, (("--height", {"type": _height}),)),
    "sv": _Command(_sv, _sv_text),
    # verify keeps the header-less report schema: one report, or a list of
    # them for suite all, each with its own config_digest.
    "verify": _Command(
        _verify,
        _verify_text,
        (("--suite", {"choices": (*SUITES, "all"), "default": "all"}),),
        header=False,
        exit_code=lambda data: 0 if all(r["overall"] == "pass" for r in _reports(data)) else 1,
    ),
}


def run_command(cmd: str, config: Config, *, suite: str = "all") -> tuple[int, str]:
    """Run a command against a parsed config; returns (exit code, text)."""
    if cmd not in _COMMANDS:
        raise ValueError(f"unknown command {cmd!r}")
    command = _COMMANDS[cmd]
    digest = config_digest(config)
    try:
        data = command.build(config.table(), config, digest=digest, suite=suite)
    except LimitExceeded as exc:
        return 3, f"resource limit: {exc}"
    except TruncationError as exc:
        return 3, f"resource limit: {exc}; raise [limits] bound"
    if command.header:
        data = {"command": cmd, "config_digest": digest, **data}
    if config.output_format == "json":
        return command.exit_code(data), _to_json(data)
    return command.exit_code(data), "\n".join(command.text(data))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hallalg",
        description="Exact Hall algebra toolkit for nilpotent quiver representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a config file")
        p.add_argument("--format", choices=("text", "json"), default=None)
        for flag, kwargs in command.arguments:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = parse_config(fh.read())
    except (OSError, UnicodeDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.format:
        config = replace(config, output_format=args.format)
    if getattr(args, "height", None) is not None:
        config = replace(config, height=args.height)
    code, out = run_command(args.command, config, suite=getattr(args, "suite", "all"))
    print(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
