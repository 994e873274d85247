"""The Birkhoff decomposition of a Laurent-valued character.

Bogoliubov's subtraction on the generators peels off a character's pole part,
split at exponent zero, and the certificate checks phi_+ = phi_- * phi on the
whole basis through the binary kernel: neither reads the antipode.  The residue,
beta-function and counterterm-tower calculus built on it lives in ``rg``.
"""

from __future__ import annotations

from typing import Dict

from . import _forwarder, duals
from .algebra import Monomial
from .duals import Character, materialize
from .errors import CheckResult, DomainError, TruncationError, VerificationError
from .hopf import HopfAlgebra
from .rings import LaurentRing, LaurentSeries, laurent_only

# These moved to ``rg``; their names still resolve here.
__getattr__ = _forwarder(__name__, "rg", (
    "dn_recursive", "dn_simplex", "build_special_loop", "beta_data", "rg_limit_check", "_flow_is_additive",
    "_flow_matches_exponential", "_residue_identity_holds", "scattering_check"))


def rota_baxter_T(ring: LaurentRing, x: LaurentSeries) -> LaurentSeries:
    """Minimal subtraction: keep strictly negative exponents.

    An idempotent projector satisfying the weight -1 identity
    T(ab) + (Ta)(Tb) = T[(Ta)b + a(Tb)].
    """
    return ring.pole_part(x)


# -- algebraic Birkhoff decomposition ------------------------------------------


class BirkhoffPair:
    """Pole/regular factorization of a Laurent-valued character.

    ``minus_table`` and ``plus_table`` hold the values on every basis
    monomial up to ``max_degree``, exact zeros included; the characters read
    them back on the generators (safe once multiplicativity is verified).
    ``report`` is the verification report, set once the pair is checked.
    """

    __slots__ = ("ctx", "ring", "max_degree", "minus_table", "plus_table", "report")

    def __init__(self, ctx: HopfAlgebra, ring: LaurentRing, max_degree: int,
                 minus_table: Dict[Monomial, LaurentSeries], plus_table: Dict[Monomial, LaurentSeries]):
        self.ctx, self.ring, self.max_degree = ctx, ring, max_degree
        self.minus_table, self.plus_table = minus_table, plus_table
        self.report: dict = {}

    def phi_minus(self) -> Character:
        return materialize(self.ctx, self.ring, self.minus_table, self.max_degree)

    def phi_plus(self) -> Character:
        return materialize(self.ctx, self.ring, self.plus_table, self.max_degree)


def check_truncation_budget(phi: Character, max_degree: int) -> int:
    """Reject under-resolved inputs before any computation starts.

    The recursion multiplies up to max_degree generator values, each with a
    pole of order at most p, so a finite input truncation must reach at least
    (max_degree - 1) * p for every pole part and constant term the recursion
    reads to be sound.  Returns p.
    """
    ring = laurent_only(phi.ring, "the Birkhoff decomposition")
    values = [(g, phi.value_on(Monomial.of(g))) for g in phi.ctx.schema.generators_up_to(max_degree)]
    pole = max((ring.pole_order(v) for _, v in values), default=0)
    required = max(0, (max_degree - 1) * pole)
    for g, v in values:
        if v.trunc is not None and v.trunc < required:
            raise TruncationError(
                f"value on {g.name!r} is sound only through order {v.trunc}; "
                f"the degree-{max_degree} recursion needs order {required}",
                required_order=required,
            )
    return pole


def birkhoff_decompose(phi: Character, max_degree: int) -> BirkhoffPair:
    """Split phi into counterterm and renormalized parts, verified.

    Both parts are built on the generators by ``duals.bogoliubov`` and
    tabulated on the whole basis, where multiplicativity, the ranges and the
    reconstruction of phi are checked exactly; a failure raises with the witness.
    """
    if max_degree < 1:
        raise DomainError("max_degree must be >= 1")
    ctx, ring = phi.ctx, phi.ring
    check_truncation_budget(phi, max_degree)
    basis, zero = ctx.basis_up_to(max_degree), ring.zero()
    b_values = {}  # b(g) by generator: phi_+(g) = b - T(b) is its regular part, T(b) being exact
    minus = duals.bogoliubov(phi, max_degree, lambda m, b: ring.pole_part(b_values.setdefault(m, b)))
    plus = materialize(ctx, ring, {m: ring.regular_part(b) for m, b in b_values.items()}, max_degree)
    # Every basis key is kept, exact zeros included: callers index the tables.
    minus, plus = ({m: t.get(m, zero) for m in basis} for t in (c.tabulate(basis) for c in (minus, plus)))
    pair = BirkhoffPair(ctx, ring, max_degree, minus, plus)
    pair.report = report = birkhoff_verification_report(phi, pair)
    failed = [name for name, entry in report["checks"].items() if not entry["passed"]]
    if failed:
        witness = report["checks"][failed[0]].get("witness")
        raise VerificationError(f"Birkhoff decomposition failed internal checks {failed}", witness=witness)
    return pair


def birkhoff_verification_report(phi: Character, pair: BirkhoffPair) -> dict:
    """Range, multiplicativity and reconstruction checks on a candidate pair,
    exposed so that a perturbed pair can be shown to break the reconstruction.
    A table that is 1 on the unit has one convolution inverse, multiplicative or
    not, so phi = phi_-^(-1) * phi_+ exactly when phi_- * phi = phi_+."""
    ctx, ring = pair.ctx, pair.ring
    if phi.ctx is not ctx:
        raise DomainError("the pair and phi belong to different Hopf algebra contexts")
    basis, zero = ctx.basis_up_to(pair.max_degree), ring.zero()
    minus, plus = pair.minus_table, pair.plus_table  # either may leave exact zeros out, as tabulate does
    got = duals.convolve_tables(ctx, ring, minus, phi.tabulate(basis), basis)
    checks = [CheckResult.first(name, witnesses, detail) for name, witnesses, detail in (
        ("minus_range", (str(m) for m, v in minus.items() if not m.is_unit and any(k >= 0 for k, _ in v.coeffs)),
         "counterterm values are pure pole parts on the augmentation ideal"),
        ("plus_range", (str(m) for m, v in plus.items() if any(k < 0 for k, _ in v.coeffs)),
         "renormalized values have no pole part"),
        ("minus_multiplicative",
         (f"{m1} | {m2}" for m1 in basis if not m1.is_unit for m2 in ctx.basis_up_to(pair.max_degree - m1.y_degree)
          if not m2.is_unit and m2.sort_key() >= m1.sort_key()
          and not ring.eq(minus.get(m1 * m2, zero), ring.mul(minus.get(m1, zero), minus.get(m2, zero)))),
         "counterterm character is multiplicative on products within budget"),
        ("reconstruction", (str(m) for m in basis if not ring.eq(got.get(m, zero), plus.get(m, zero))),
         "phi equals (phi_minus inverse) * phi_plus on the whole basis"))]
    return {
        "certifiedOrder": pair.max_degree,
        "checks": {c.name: {"passed": c.passed, "witness": c.counterexample, "detail": c.detail} for c in checks},
        "passed": all(c.passed for c in checks),
    }
