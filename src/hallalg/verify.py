"""Executable identity suites over a class table.

Each suite runs a fixed, deterministically ordered list of checks and
returns a report; failing checks carry a witness with both evaluated
sides.  Degree-bound-infeasible relation instances are reported as skipped
together with the bound they would need.  Torus factors range over the
fixed sample {0} u {e_i} u {-e_i}, recorded in the check names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import gkm, primitives
from .hallhopf import AlgElt, BasisSym, DoubleHall, TensorElt, _extend
from .repcat import ClassTable, cid_str, dim_add, dim_leq, dims_below
from .scalars import is_positive

__all__ = ["CheckResult", "CheckReport", "SUITES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    witness: str | None = None


@dataclass
class CheckReport:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def overall(self) -> str:
        return "fail" if any(c.status == "fail" for c in self.checks) else "pass"

    def counts(self) -> tuple[int, int, int]:
        p = sum(1 for c in self.checks if c.status == "pass")
        f = sum(1 for c in self.checks if c.status == "fail")
        s = sum(1 for c in self.checks if c.status == "skipped")
        return p, f, s

    def check(self, name: str, lhs, rhs):
        if lhs == rhs:
            self.checks.append(CheckResult(name, "pass"))
        else:
            self.checks.append(
                CheckResult(name, "fail", f"lhs={lhs!r} rhs={rhs!r}")
            )

    def expect(self, name: str, cond: bool, witness: str = ""):
        if cond:
            self.checks.append(CheckResult(name, "pass"))
        else:
            self.checks.append(CheckResult(name, "fail", witness or "condition failed"))

    def skip(self, name: str, reason: str):
        self.checks.append(CheckResult(name, "skipped", reason))

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "checks": [
                {"name": c.name, "status": c.status, "witness": c.witness}
                for c in self.checks
            ],
            "overall": self.overall,
        }


def _torus_samples(table: ClassTable):
    quiver = table.quiver
    out = [quiver.zero_dim()]
    for i in range(quiver.vertices):
        unit = quiver.unit_dim(i)
        out += [unit, tuple(-u for u in unit)]
    return out


def _all_cids(table: ClassTable):
    out = []
    for mu in table.degrees():
        out.extend(c.cid for c in table.classes(mu))
    return out


def _pure_pairs_within_bound(table: ClassTable):
    out = []
    for mu in table.degrees():
        for nu in table.degrees():
            if not dim_leq(dim_add(mu, nu), table.bound):
                continue
            for a in table.classes(mu):
                for b in table.classes(nu):
                    out.append((a.cid, b.cid))
    return out


def _contract_counit(H: DoubleHall, t: TensorElt, slot: int) -> AlgElt:
    """(eps (x) id) t with slot 0, (id (x) eps) t with slot 1."""
    return _extend(t, lambda key: H.sym_elt(key[1 - slot]).scaled(H.counit(H.sym_elt(key[slot]))))


def _mult_antipode(H: DoubleHall, t: TensorElt, antipode, slot: int) -> AlgElt:
    """m (S (x) id) t with slot 0, m (id (x) S) t with slot 1."""

    def image(key):
        f = [H.sym_elt(s) for s in key]
        f[slot] = antipode(f[slot])
        return H.mult(*f)

    return _extend(t, image)


def suite_hopf(table: ClassTable) -> CheckReport:
    """Coassociativity, product compatibility of the comultiplication,
    counit laws, and both antipode axioms, on each sign."""
    rep = CheckReport("hopf")
    H = DoubleHall(table)
    samples = _torus_samples(table)
    cids = _all_cids(table)
    for plus in (True, False):
        tag = "+" if plus else "-"
        comult = H.comult_plus if plus else H.comult_minus
        antipode = H.antipode_plus if plus else H.antipode_minus
        make = H.u_plus if plus else H.u_minus
        for mu in samples:
            for cid in cids:
                x = H.sym_elt(H._monomial(cid, mu, plus))
                name = f"{tag}[{mu}]{cid_str(cid)}"
                left = H._comult2(x, plus)
                right = H._comult2(x, plus, left=False)
                rep.check(f"coassoc{name}", TensorElt(left), TensorElt(right))
                t = comult(x)
                rep.check(f"counit-left{name}", _contract_counit(H, t, 0), x)
                rep.check(f"counit-right{name}", _contract_counit(H, t, 1), x)
                want = H.one().scaled(H.counit(x))
                for slot, side in ((0, "left"), (1, "right")):
                    got = _mult_antipode(H, t, antipode, slot)
                    rep.check(f"antipode-{side}{name}", got, want)
        for a, b in _pure_pairs_within_bound(table):
            x, y = make(a), make(b)
            name = f"green{tag}{cid_str(a)}*{cid_str(b)}"
            rep.check(
                name,
                comult(H.mult(x, y)),
                H.tensor_mult(comult(x), comult(y)),
            )
    return rep


def suite_pairing(table: ClassTable) -> CheckReport:
    """The four compatibilities of the pairing with the Hopf structure, the
    diagonal positivity of the symmetrized pairing, and the involution laws."""
    rep = CheckReport("pairing")
    H = DoubleHall(table)
    samples = _torus_samples(table)
    cids = _all_cids(table)
    signs = (True, False)
    # Quadratic pair loops use a reduced torus sample per side.
    pair_samples = samples[:2]
    basis = {p: [H._monomial(c, mu, p) for mu in samples for c in cids] for p in signs}
    small = {p: [H._monomial(c, mu, p) for mu in pair_samples for c in cids] for p in signs}
    comult = {True: H.comult_plus, False: H.comult_minus}
    antipode = {True: H.antipode_plus, False: H.antipode_minus}

    def pair(plus: bool, x: AlgElt, y: AlgElt):
        """phi with x of sign plus and y of the opposite sign."""
        return H.phi(x, y) if plus else H.phi(y, x)

    for plus in signs:
        name = "phi(a,1)=eps" if plus else "phi(1,b)=eps"
        for s in basis[plus]:
            x = H.sym_elt(s)
            rep.check(f"{name}[{_n(s)}]", pair(plus, x, H.one()), H.counit(x))

    # phi(a, b b') = phi(Delta a, b (x) b') on degree-matched triples, and
    # phi(a a', b) = phi(a (x) a', Delta^op b).
    for plus in signs:
        other = H.u_minus if plus else H.u_plus
        side = "right" if plus else "left"
        for b, bp in _pure_pairs_within_bound(table):
            yb, ybp = other(b), other(bp)
            prod = H.mult(yb, ybp)
            for mu in pair_samples:
                for a in table.classes(dim_add(b[0], bp[0])):
                    x = H.sym_elt(H._monomial(a.cid, mu, plus))
                    lhs = pair(plus, x, prod)
                    rhs = H.field.zero
                    for k, c in comult[plus](x).terms.items():
                        s1, s2 = k if plus else k[::-1]
                        rhs = rhs + c * pair(plus, H.sym_elt(s1), yb) * pair(
                            plus, H.sym_elt(s2), ybp
                        )
                    rep.check(f"phi-mult-{side}[{mu}{cid_str(a.cid)};{cid_str(b)};{cid_str(bp)}]", lhs, rhs)
    # phi(S a, S b) = phi(a, b).
    image = {p: {s: antipode[p](H.sym_elt(s)) for s in small[p]} for p in signs}
    for sa in small[True]:
        for sb in small[False]:
            x, y = H.sym_elt(sa), H.sym_elt(sb)
            rep.check(
                f"phi-antipode[{_n(sa)};{_n(sb)}]",
                H.phi(image[True][sa], image[False][sb]),
                H.phi(x, y),
            )
    # Symmetrized pairing: diagonal with positive entries.
    for mu in table.degrees():
        classes = table.classes(mu)
        for a in classes:
            for b in classes:
                val = H.psi(H.u_plus(a.cid), H.u_plus(b.cid))
                if a.cid == b.cid:
                    rep.check(
                        f"psi-diag[{cid_str(a.cid)}]",
                        val,
                        H.field.scalar(Fraction(1, a.aut)),
                    )
                    rep.expect(
                        f"psi-positive[{cid_str(a.cid)}]",
                        is_positive(val),
                        f"psi={val}",
                    )
                else:
                    rep.check(f"psi-off[{cid_str(a.cid)};{cid_str(b.cid)}]", val, H.field.zero)
    # Involution laws.
    for plus in signs:
        for s in basis[plus]:
            x = H.sym_elt(s)
            lhs = comult[not plus](H.omega(x))
            rhs = H.tensor_apply(H.tensor_swap(comult[plus](x)), [H.omega, H.omega])
            rep.check(f"omega-coalgebra[{_n(s)}]", lhs, rhs)
    for sa in small[True]:
        for sb in small[False]:
            x, y = H.sym_elt(sa), H.sym_elt(sb)
            rep.check(
                f"omega-pairing[{_n(sa)};{_n(sb)}]",
                H.phi(x, y),
                H.phi(H.omega(y), H.omega(x)),
            )
    for plus in signs:
        for s in basis[plus]:
            x = H.sym_elt(s)
            y = antipode[plus](H.omega(antipode[not plus](H.omega(x))))
            rep.check(f"omega-antipode[{_n(s)}]", y, x)
    return rep


def _n(s: BasisSym) -> str:
    return f"{cid_str(s.minus)}|{s.torus}|{cid_str(s.plus)}"


def _generator_constants(table: ClassTable, H: DoubleHall):
    """Degrees and images of the Chevalley-type generators inside the double."""
    cartan = gkm.cartan_from_datum(gkm.datum_from_table(table))
    simples = table.simple_ids()
    es = {}
    fs = {}
    for i, cid in enumerate(simples):
        # End(S_i) = F_q, so an imaginary simple's constant
        # (v^(2 dim End) - 1)/(v_i^-1 - v_i), with v_i = v, is -v_i too.
        es[i] = H.u_plus(cid)
        fs[i] = H.u_minus(cid).scaled(-H.field.v_pow(int(cartan.eps[i])))
    return [cid[0] for cid in simples], cartan, es, fs


def suite_composition(table: ClassTable) -> CheckReport:
    """Defining relations of the quantized enveloping algebra on the
    generator images inside the double, where degrees fit the bound."""
    rep = CheckReport("composition")
    H = DoubleHall(table)
    degrees, cartan, es, fs = _generator_constants(table, H)
    n = len(degrees)
    samples = _torus_samples(table)

    rep.check("K0=1", H.torus(table.quiver.zero_dim()), H.one())
    for mu in samples:
        for nu in samples:
            rep.check(
                f"K-additive[{mu};{nu}]",
                H.mult(H.torus(mu), H.torus(nu)),
                H.torus(dim_add(mu, nu)),
            )
    for i in range(n):
        for mu in samples:
            pair = table.sym(mu, degrees[i])
            for side, x, sign in (("E", es[i], 1), ("F", fs[i], -1)):
                rep.check(
                    f"K-{side}-commute[{mu};{i}]",
                    H.mult(H.torus(mu), x),
                    H.mult(x, H.torus(mu)).scaled(H.field.v_pow(sign * pair)),
                )
    for i in range(n):
        for j in range(n):
            lhs = H.mult(es[i], fs[j]) - H.mult(fs[j], es[i])
            if i == j:
                eps = int(cartan.eps[i])
                vi = H.field.v_pow(eps)
                den = vi - vi.inv()
                rhs = (H.torus(degrees[i]) - H.torus(tuple(-u for u in degrees[i]))).scaled(
                    den.inv()
                )
            else:
                rhs = AlgElt()
            rep.check(f"commutator[{i};{j}]", lhs, rhs)
    sides = (("E", es), ("F", fs))
    for i in cartan.real_indices():
        for j in range(n):
            if i == j:
                continue
            m = 1 - cartan.entries[i][j]
            need = dim_add(tuple(m * u for u in degrees[i]), degrees[j])
            eps = int(cartan.eps[i])
            for side, gens in sides:
                name = f"serre-{side}[{i};{j}]"
                if dim_leq(need, table.bound):
                    rep.check(name, _serre_sum(H, gens[i], gens[j], m, eps), AlgElt())
                else:
                    rep.skip(
                        name, f"needs classes up to dimension {need}, bound is {table.bound}"
                    )
    for i in range(n):
        for j in range(n):
            if cartan.entries[i][j] != 0 or j < i:
                continue
            need = dim_add(degrees[i], degrees[j])
            if not dim_leq(need, table.bound):
                rep.skip(f"commuting[{i};{j}]", f"needs dimension {need}")
                continue
            for side, gens in sides:
                rep.check(
                    f"commuting-{side}[{i};{j}]",
                    H.mult(gens[i], gens[j]),
                    H.mult(gens[j], gens[i]),
                )
    return rep


def _serre_sum(H: DoubleHall, xi: AlgElt, xj: AlgElt, m: int, eps: int) -> AlgElt:
    powers = [H.one()]
    for _ in range(m):
        powers.append(H.mult(powers[-1], xi))
    out = AlgElt()
    for p in range(m + 1):
        term = H.mult(H.mult(powers[p], xj), powers[m - p])
        coef = H.field.q_binom(m, p, eps)
        if p % 2:
            coef = -coef
        out = out + term.scaled(coef)
    return out


def suite_sv(table: ClassTable) -> CheckReport:
    """Primitive complements: dimension bookkeeping, primitivity, the
    commutator identity, membership of the supporting degrees, axioms of
    the enlarged form, projection compatibility with reflections, and the
    higher Serre relations against the new generators."""
    rep = CheckReport("sv")
    H = DoubleHall(table)
    try:
        ext = primitives.extend_datum(H)
    except ValueError as exc:
        rep.expect("extended-datum-axioms", False, str(exc))
        return rep
    rep.expect("extended-datum-axioms", True)
    g = ext.datum.gram
    degrees = ext.degrees
    size = ext.datum.size
    n_base = len(ext.base.labels)
    for i in range(size):
        for j in range(size):
            if i != j:
                rep.expect(
                    f"extended-off-diagonal[{ext.datum.labels[i]};{ext.datum.labels[j]}]",
                    g[i][j] <= 0,
                    f"(i,j)'={g[i][j]} > 0",
                )
            if i == j and i >= n_base:
                rep.expect(
                    f"extended-new-imaginary[{ext.datum.labels[i]}]",
                    g[i][i] <= 0,
                    f"(j,j)'={g[i][i]} > 0",
                )
            if g[i][i] > 0:
                rep.expect(
                    f"extended-integrality[{ext.datum.labels[i]};{ext.datum.labels[j]}]",
                    (2 * g[i][j]) % g[i][i] == 0,
                    f"2(i,j)'/(i,i)' not integral: {2 * g[i][j]}/{g[i][i]}",
                )
    base_cartan = gkm.cartan_from_datum(ext.base)
    freg = gkm.fundamental_region(base_cartan, sum(table.bound))
    imag_degrees = [degrees[i] for i in base_cartan.imaginary_indices()]
    for theta, nclasses, xi_dim, lsp in ext.records:
        rep.check(
            f"rank-nullity[{theta}]",
            xi_dim + lsp.dim,
            nclasses,
        )
        for p, x in enumerate(lsp.basis, start=1):
            rep.expect(
                f"primitive[{theta};{p}]",
                primitives.is_primitive(H, x, theta),
                f"comultiplication of generator {p} in degree {theta} is not primitive",
            )
        if lsp.dim:
            in_freg = theta in freg
            in_multiples = any(
                theta == tuple(k * u for u in d)
                for d in imag_degrees
                for k in range(2, sum(theta) + 1)
            )
            rep.expect(
                f"degree-located[{theta}]",
                in_freg or in_multiples,
                f"{theta} lies outside the fundamental region and the "
                f"imaginary-simple multiples",
            )
        ktheta = H.torus(theta)
        kneg = H.torus(tuple(-t for t in theta))
        for p, x in enumerate(lsp.basis, start=1):
            for pp, xp in enumerate(lsp.basis, start=1):
                y = H.omega(xp)
                lhs = H.mult(x, y) - H.mult(y, x)
                rhs = (ktheta - kneg).scaled(-H.phi(x, y))
                rep.check(f"commutator[{theta};{p};{pp}]", lhs, rhs)
    # Projection intertwines the reflections.
    for i in base_cartan.real_indices():
        for k, label in enumerate(ext.datum.labels):
            a = ext.cartan.entries[i][k]
            lhs = tuple(d - a * e for d, e in zip(degrees[k], degrees[i]))
            rhs = gkm.reflect(base_cartan, i, degrees[k])
            rep.check(f"projection-reflection[{i};{label}]", lhs, rhs)
    # Serre relations of real simples against the new generators, and
    # commuting relations among new generators with orthogonal degrees.
    simples = table.simple_ids()
    for i in base_cartan.real_indices():
        eps = int(base_cartan.eps[i])
        xi = H.u_plus(simples[i])
        yi = H.u_minus(simples[i])
        for k in range(n_base, size):
            label = ext.datum.labels[k]
            m = 1 - ext.cartan.entries[i][k]
            need = dim_add(tuple(m * u for u in degrees[i]), degrees[k])
            if not dim_leq(need, table.bound):
                rep.skip(f"serre-new[{i};{label}]", f"needs dimension {need}")
                continue
            gen = ext.generators[label]
            for side, x, y in (("E", xi, gen), ("F", yi, H.omega(gen))):
                rep.check(
                    f"serre-new-{side}[{i};{label}]",
                    _serre_sum(H, x, y, m, eps),
                    AlgElt(),
                )
    for a in range(n_base, size):
        for b in range(a + 1, size):
            if g[a][b] != 0:
                continue
            la, lb = ext.datum.labels[a], ext.datum.labels[b]
            need = dim_add(degrees[a], degrees[b])
            if not dim_leq(need, table.bound):
                rep.skip(f"commuting-new[{la};{lb}]", f"needs dimension {need}")
                continue
            xa, xb = ext.generators[la], ext.generators[lb]
            rep.check(
                f"commuting-new[{la};{lb}]",
                H.mult_plus(xa, xb),
                H.mult_plus(xb, xa),
            )
    return rep


def suite_kac(table: ClassTable, height: int) -> CheckReport:
    """Dimension vectors of indecomposables against the root side, and
    uniqueness of the indecomposable over each real root."""
    rep = CheckReport("kac")
    n = table.quiver.vertices
    up_to_height = [mu for mu in dims_below((height,) * n) if 0 < sum(mu) <= height]
    for mu in up_to_height:
        if not dim_leq(mu, table.bound):
            rep.expect(
                "table-covers-height",
                False,
                f"dimension {mu} of height <= {height} is outside bound {table.bound}",
            )
            return rep
    datum = gkm.datum_from_table(table)
    cartan = gkm.cartan_from_datum(datum)
    roots = gkm.positive_roots(cartan, height)
    seeds = [
        tuple(s if k == i else 0 for k in range(cartan.size))
        for i in cartan.imaginary_indices()
        for s in range(2, height + 1)
    ]
    orbit = gkm.weyl_orbit(cartan, seeds, height)
    root_side = {r.vector for r in roots} | orbit
    indec_side = {mu for mu in up_to_height if table.indec_count(mu) > 0}
    rep.check(
        "dimension-vectors-match",
        tuple(sorted(indec_side)),
        tuple(sorted(root_side)),
    )
    for r in sorted(roots):
        if r.imaginary:
            continue
        rep.check(f"real-root-unique[{r.vector}]", table.indec_count(r.vector), 1)
    return rep


def suite_character(table: ClassTable) -> CheckReport:
    """Truncated product over indecomposables against per-degree class counts."""
    rep = CheckReport("character")
    bound = table.bound
    counts = {mu: table.indec_count(mu) for mu in table.degrees()}
    poly = {tuple(0 for _ in bound): 1}
    for alpha, mult in sorted(counts.items()):
        if not mult:
            continue
        factor = {}
        k = 0
        vec = tuple(0 for _ in bound)
        while dim_leq(vec, bound):
            factor[vec] = math.comb(mult + k - 1, k)  # multisets of size k
            k += 1
            vec = tuple(k * a for a in alpha)
        poly = _poly_mul(poly, factor, bound)
    for mu in table.degrees():
        rep.check(
            f"coefficient[{mu}]",
            poly.get(mu, 0),
            table.class_count(mu),
        )
    return rep


def _poly_mul(a: dict, b: dict, bound) -> dict:
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = dim_add(ka, kb)
            if dim_leq(k, bound):
                out[k] = out.get(k, 0) + va * vb
    return out


SUITES = {
    "hopf": suite_hopf,
    "pairing": suite_pairing,
    "composition": suite_composition,
    "sv": suite_sv,
    "kac": suite_kac,
    "character": suite_character,
}


def run_suite(name: str, table: ClassTable, *, height: int | None = None) -> CheckReport:
    if name == "kac":
        if height is None:
            height = min(table.bound)
        return suite_kac(table, height)
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](table)
