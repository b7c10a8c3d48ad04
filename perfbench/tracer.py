"""Span tracing for one traced benchmark child.

`install` wraps the public functions of each hallalg layer at the name the
caller resolves: module attributes are rebound in every hallalg module that
holds them (so `cli.run_suite`, bound by `from .verify import`, is caught as
well as `modlin.rref`, reached through the module), and methods are replaced
on the class that defines them.  The program's source is not touched.

Every wrapped call is a span on one stack.  A span's self time is its
duration minus the time its child spans cover, accumulated online, so a layer
that is called millions of times (Scalar arithmetic) costs no memory per call.
Spans at coarse layer boundaries (cli, verify suites, primitives, gkm, class
enumeration) are also kept in memory as (name, start, end, parent, run id) and
written out when the traced run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("cli", "verify", "primitives", "hallhopf", "gkm", "repcat", "modlin", "scalars")

SCALAR_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "inv", "__truediv__", "__rtruediv__", "__pow__",
)
HALLHOPF_FAMILIES = {
    "mult": ("mult",),
    "mult_sided": ("mult_plus", "mult_minus", "tensor_mult"),
    "comult": ("comult_plus", "comult_minus"),
    "antipode": ("antipode_plus", "antipode_minus"),
    "pairing": ("phi", "psi"),
    "omega": ("omega", "tensor_apply"),
}
# DoubleHall methods outside the six families; they count in hallhopf.self_s.
HALLHOPF_OTHER = (
    "__init__", "one", "u_plus", "u_minus", "torus", "sym_elt",
    "counit", "tensor_swap", "_comult2",
)
LINEAR_METHODS = ("__init__", "__add__", "__sub__", "__neg__", "scaled", "__eq__")
SUITES = ("hopf", "pairing", "composition", "sv", "kac", "character")
MAX_RECORDED_SPANS = 100_000


class Tracer:
    """Span stack, per-name aggregates and the recorded boundary spans."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.clock = time.perf_counter
        self.stack: list[list] = []  # open spans: [child time, layer]
        self.stats: dict[str, list] = {}  # name -> [spans, self s, inclusive s, unspanned calls]
        self.counts: dict[str, float] = {}
        self.records: list = []
        self.open_records: list[int] = []
        self.dropped_records = 0

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def count(self, name: str, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, *, flat: bool = False, record: bool = False):
        """A span around every call of fn.

        With flat=True a call made while a span of the same layer is open is
        counted but not spanned, so Scalar arithmetic nested inside Scalar
        arithmetic counts once, at the call another layer made.
        """
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        layer = sys.intern(name.split(".", 1)[0])
        stat = self._stat(name)
        stack, clock = self.stack, self.clock
        records, open_records = self.records, self.open_records

        def wrapper(*args, **kwargs):
            if flat and stack and stack[-1][1] is layer:
                stat[3] += 1
                return fn(*args, **kwargs)
            frame = [0.0, layer]
            stack.append(frame)
            keep = record and len(records) < MAX_RECORDED_SPANS
            if keep:
                open_records.append(len(records))
                records.append(None)
            elif record:
                self.dropped_records += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                if stack:
                    stack[-1][0] += d
                stat[0] += 1
                stat[1] += d - frame[0]
                stat[2] += d
                if keep:
                    idx = open_records.pop()
                    parent = open_records[-1] if open_records else None
                    records[idx] = (name, t0, t1, parent, self.run_id)

        return functools.wraps(fn)(wrapper)

    def _wrap_generator(self, name: str, fn):
        """Spans around each step of the generator, since its caller consumes it."""
        layer = sys.intern(name.split(".", 1)[0])
        stat = self._stat(name)
        stack, clock = self.stack, self.clock

        def steps(it):
            while True:
                frame = [0.0, layer]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    t1 = clock()
                    stack.pop()
                    d = t1 - t0
                    if stack:
                        stack[-1][0] += d
                    stat[1] += d - frame[0]
                    stat[2] += d
                yield item

        def wrapper(*args, **kwargs):
            stat[0] += 1
            return steps(fn(*args, **kwargs))

        return functools.wraps(fn)(wrapper)

    # ----- results -------------------------------------------------------

    def self_s(self, prefix: str) -> float:
        return sum(s[1] for n, s in self.stats.items() if n.startswith(prefix))

    def spans(self, names) -> int:
        return sum(self.stats.get(n, (0,))[0] for n in names)

    def metrics(self, run_s: float, output_bytes: int) -> dict[str, float]:
        st = self.stats
        m: dict[str, float] = {}
        m["cli.parse_config.s"] = st["cli.parse_config"][2]
        m["cli.render.s"] = st["cli.run_command"][1]
        m["cli.output_bytes"] = output_bytes
        for suite in SUITES:
            m[f"verify.{suite}.s"] = self._stat(f"verify.{suite}")[2]
        m["verify.self_s"] = self.self_s("verify.")
        m["verify.checks"] = self.counts.get("verify.checks", 0)
        m["verify.skipped"] = self.counts.get("verify.skipped", 0)
        m["primitives.extend_datum.s"] = st["primitives.extend_datum"][2]
        m["primitives.self_s"] = self.self_s("primitives.")
        m["primitives.primitive_space.calls"] = st["primitives.primitive_space"][0]
        m["hallhopf.self_s"] = self.self_s("hallhopf.")
        m["hallhopf.mult.s"] = st["hallhopf.mult"][2]
        for fam, methods in HALLHOPF_FAMILIES.items():
            names = [f"hallhopf.{x}" for x in methods]
            m[f"hallhopf.{fam}.calls"] = self.spans(names)
            m[f"hallhopf.{fam}.self_s"] = sum(st[n][1] for n in names)
        m["scalars.ops"] = self.spans(f"scalars.{op}" for op in SCALAR_OPS)
        new = st["scalars.new"]
        m["scalars.new"] = new[0] + new[3]
        m["scalars.self_s"] = self.self_s("scalars.")
        m["repcat.enumerate.s"] = st["repcat.enumerate"][1]
        m["repcat.classes"] = self.counts.get("repcat.classes", 0)
        m["repcat.orbit_states"] = self.counts.get("repcat.orbit_states", 0)
        m["repcat.self_s"] = self.self_s("repcat.")
        m["repcat.hall_distribution.calls"] = st["repcat.hall_distribution"][0]
        m["repcat.hall_distribution.misses"] = self.counts.get("repcat.hall_distribution.misses", 0)
        m["repcat.hall_distribution.self_s"] = st["repcat.hall_distribution"][1]
        scanned = self.counts.get("repcat.subspaces_scanned", 0)
        m["repcat.subspaces_scanned"] = scanned
        found = self.counts.get("repcat.subreps_found", 0)
        m["repcat.subrep_ratio"] = found / scanned if scanned else 0.0
        m["repcat.hall_multi.calls"] = st["repcat.hall_multi"][0]
        m["repcat.hall_multi.self_s"] = st["repcat.hall_multi"][1]
        m["repcat.classify.calls"] = st["repcat.classify"][0]
        m["modlin.calls"] = sum(s[0] for n, s in st.items() if n.startswith("modlin."))
        m["modlin.self_s"] = self.self_s("modlin.")
        m["gkm.self_s"] = self.self_s("gkm.")
        attributed = m["cli.render.s"] + sum(
            m[f"{layer}.self_s"] for layer in LAYERS if layer != "cli"
        )
        m["trace.run_s"] = run_s
        m["trace.unattributed_s"] = run_s - attributed
        return m

    def write_spans(self, path):
        """Recorded boundary spans, then one aggregate line per span name."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, run_id in self.records:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent, "run": run_id}) + "\n")
            for name, (spans, self_s, incl_s, unspanned) in sorted(self.stats.items()):
                fh.write(json.dumps({"aggregate": name, "spans": spans, "self_s": self_s, "inclusive_s": incl_s, "unspanned_calls": unspanned}) + "\n")
            fh.write(json.dumps({"dropped_spans": self.dropped_records}) + "\n")


def _rebind(orig, wrapper):
    """Point every hallalg module attribute bound to orig at wrapper."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "hallalg" or mod_name.startswith("hallalg."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)


def _wrap_function(tr: Tracer, module, attr: str, name: str, **kw):
    orig = getattr(module, attr)
    wrapper = tr.wrap(name, orig, **kw)
    _rebind(orig, wrapper)
    return orig


def _wrap_method(tr: Tracer, cls, attr: str, name: str, **kw):
    orig = cls.__dict__[attr]
    setattr(cls, attr, tr.wrap(name, orig, **kw))
    return orig


def install(tr: Tracer):
    """Wrap every traced function of the imported hallalg package."""
    from hallalg import cli, gkm, hallhopf, modlin, primitives, repcat, scalars, verify

    _wrap_function(tr, cli, "parse_config", "cli.parse_config", record=True)
    _wrap_function(tr, cli, "run_command", "cli.run_command", record=True)

    suite_spans = {}
    run_suite = verify.run_suite

    def traced_run_suite(name, *args, **kwargs):
        span = suite_spans.get(name)
        if span is None:
            span = suite_spans[name] = tr.wrap(f"verify.{name}", run_suite, record=True)
        report = span(name, *args, **kwargs)
        tr.count("verify.checks", len(report.checks))
        tr.count("verify.skipped", report.counts()[2])
        return report

    _rebind(run_suite, functools.wraps(run_suite)(traced_run_suite))

    for attr in ("extend_datum", "primitive_space", "decomposable_span", "is_primitive"):
        _wrap_function(tr, primitives, attr, f"primitives.{attr}", record=True)
    for attr in ("datum_from_table", "cartan_from_datum", "fundamental_region", "weyl_orbit", "positive_roots"):
        _wrap_function(tr, gkm, attr, f"gkm.{attr}", record=True)
    _wrap_function(tr, gkm, "reflect", "gkm.reflect")

    for methods in HALLHOPF_FAMILIES.values():
        for attr in methods:
            _wrap_method(tr, hallhopf.DoubleHall, attr, f"hallhopf.{attr}")
    for attr in HALLHOPF_OTHER:
        _wrap_method(tr, hallhopf.DoubleHall, attr, f"hallhopf.{attr}")
    for attr in LINEAR_METHODS:
        _wrap_method(tr, hallhopf._Linear, attr, f"hallhopf.linear.{attr}")

    _install_repcat(tr, repcat, modlin)
    for attr in ("rref", "rank", "nullspace", "inverse", "is_invertible", "reduce_vector",
                 "gl_order", "primitive_root", "gl_generators", "gaussian_binomial", "subspace_bases"):
        _wrap_function(tr, modlin, attr, f"modlin.{attr}")

    for attr in SCALAR_OPS:
        _wrap_method(tr, scalars.Scalar, attr, f"scalars.{attr}", flat=True)
    _wrap_method(tr, scalars.Scalar, "__init__", "scalars.new", flat=True)
    for attr in ("v_pow", "q_int", "q_binom", "is_positive"):
        _wrap_function(tr, scalars, attr, f"scalars.{attr}", flat=True)
    for attr in ("scalar", "v_pow", "q_int", "q_binom"):
        _wrap_method(tr, scalars.GroundField, attr, f"scalars.field.{attr}", flat=True)


def _install_repcat(tr: Tracer, repcat, modlin):
    table_cls = repcat.ClassTable
    gaussian_binomial = modlin.gaussian_binomial  # unwrapped: bookkeeping is not modlin work

    ensure = table_cls._ensure
    enumerate_span = tr.wrap("repcat.enumerate", ensure, record=True)

    def traced_ensure(self, mu):
        if mu in self._mu:
            return ensure(self, mu)
        enumerate_span(self, mu)
        classes = self._mu[mu].classes
        tr.count("repcat.classes", len(classes))
        tr.count("repcat.orbit_states", sum(c.orbit_size for c in classes))

    table_cls._ensure = functools.wraps(ensure)(traced_ensure)

    dist_span = tr.wrap("repcat.hall_distribution", table_cls.hall_distribution)

    def traced_hall_distribution(self, gamma, sub_dim):
        sub_dim = tuple(sub_dim)
        if (gamma, sub_dim) in self._hall_dist:
            return dist_span(self, gamma, sub_dim)
        out = dist_span(self, gamma, sub_dim)
        tr.count("repcat.hall_distribution.misses")
        gdim = gamma[0]
        if repcat.dim_leq(sub_dim, gdim):
            scanned = 1
            for g, s in zip(gdim, sub_dim):
                scanned *= gaussian_binomial(g, s, self.q)
            tr.count("repcat.subspaces_scanned", scanned)
            tr.count("repcat.subreps_found", sum(out.values()))
        return out

    table_cls.hall_distribution = functools.wraps(table_cls.hall_distribution)(traced_hall_distribution)

    for attr in ("hall_multi", "classify", "hom", "hall"):
        _wrap_method(tr, table_cls, attr, f"repcat.{attr}")
    for attr in ("hom_dim", "ext_dim", "end_basis", "aut_count", "is_indecomposable", "euler_form"):
        _wrap_function(tr, repcat, attr, f"repcat.{attr}")
