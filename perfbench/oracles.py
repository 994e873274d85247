"""Closed forms and recursions that check hopfalg output without using hopfalg.

Nothing here imports the engine.  Rooted trees, admissible cuts, Laurent
polynomials and power series are re-implemented from their definitions, so a
wrong answer from the engine cannot also be the expected answer.

Coefficients are ``Fraction`` or ``Poly`` (a sparse Laurent polynomial, also
used for polynomials in a flow parameter); both support ``+``, ``-``, ``*``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb


# -- sparse Laurent polynomials ---------------------------------------------------


class Poly:
    """Exact sparse Laurent polynomial: exponent -> nonzero Fraction."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        self.c = {k: Fraction(v) for k, v in (coeffs or {}).items() if v != 0}

    @staticmethod
    def const(q) -> "Poly":
        return Poly({0: q})

    def __add__(self, other):
        other = _as_poly(other)
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out.get(k, 0) + v
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({k: -v for k, v in self.c.items()})

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) - self

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly({k: v * other for k, v in self.c.items()})
        out = {}
        for ka, va in self.c.items():
            for kb, vb in other.c.items():
                out[ka + kb] = out.get(ka + kb, 0) + va * vb
        return Poly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return self.c == _as_poly(other).c

    def __repr__(self):
        return f"Poly({dict(sorted(self.c.items()))})"

    def shift(self, k: int) -> "Poly":
        return Poly({e + k: v for e, v in self.c.items()})

    def pole_part(self) -> "Poly":
        return Poly({k: v for k, v in self.c.items() if k < 0})

    def regular_part(self) -> "Poly":
        return Poly({k: v for k, v in self.c.items() if k >= 0})

    def integrate(self) -> "Poly":
        """The antiderivative vanishing at 0 of a polynomial (exponents >= 0)."""
        return Poly({k + 1: v / (k + 1) for k, v in self.c.items()})

    def at_one(self) -> Fraction:
        return sum(self.c.values(), Fraction(0))

    def agrees_through(self, other: "Poly", trunc) -> bool:
        """Equal on every exponent <= trunc (every exponent when trunc is None)."""
        other = _as_poly(other)
        for k in set(self.c) | set(other.c):
            if trunc is not None and k > trunc:
                continue
            if self.c.get(k, 0) != other.c.get(k, 0):
                return False
        return True


def _as_poly(x) -> Poly:
    return x if isinstance(x, Poly) else Poly.const(x)


def prod(values, one=Fraction(1)):
    acc = one
    for v in values:
        acc = acc * v
    return acc


# -- power series: the ladder's character group -----------------------------------
#
# Ladder characters multiply like power series 1 + sum chi(t_n) x^n, because
# D t_n = sum_k t_k (x) t_(n-k).  Lists are indexed by degree, entry 0 the unit.


def series_mul(a, b, n):
    return [sum((a[k] * b[j - k] for k in range(j + 1)), Fraction(0)) for j in range(n + 1)]


def series_exp(b, n):
    """exp of a series with b[0] == 0: j a_j = sum_k k b_k a_(j-k)."""
    a = [Fraction(1)] + [Fraction(0)] * n
    for j in range(1, n + 1):
        a[j] = sum((k * b[k] * a[j - k] for k in range(1, j + 1)), Fraction(0)) * Fraction(1, j)
    return a


def series_log(a, n):
    """log of a series with a[0] == 1: j b_j = j a_j - sum_k k b_k a_(j-k)."""
    b = [Fraction(0)] * (n + 1)
    for j in range(1, n + 1):
        acc = j * a[j] - sum((k * b[k] * a[j - k] for k in range(1, j)), Fraction(0))
        b[j] = acc * Fraction(1, j)
    return b


def ladder_birkhoff(phi, n):
    """Counterterm and renormalized parts of a ladder loop, on t_1..t_n.

    The ladder is cocommutative, so its characters commute and the Birkhoff
    factors are phi_- = exp(-T log phi), phi_+ = exp((1 - T) log phi), with T
    the pole part taken coefficientwise.
    """
    logs = series_log(phi, n)
    minus = series_exp([-_as_poly(v).pole_part() for v in logs], n)
    plus = series_exp([_as_poly(v).regular_part() for v in logs], n)
    return minus, plus


# -- rooted trees ----------------------------------------------------------------
#
# A tree is the tuple of its children, canonically sorted by encoding; the
# encoding "[" + children + "]" is the generator name the engine prints.


def tree_encoding(tree) -> str:
    return "[" + "".join(tree_encoding(c) for c in tree) + "]"


def canonical(children) -> tuple:
    return tuple(sorted(children, key=tree_encoding))


def parse_tree(text: str) -> tuple:
    stack = [[]]
    for ch in text:
        if ch == "[":
            stack.append([])
        elif ch == "]":
            node = canonical(stack.pop())
            stack[-1].append(node)
        else:
            raise ValueError(f"bad tree encoding {text!r}")
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError(f"bad tree encoding {text!r}")
    return stack[0][0]


def vertex_count(tree) -> int:
    return 1 + sum(vertex_count(c) for c in tree)


def tree_factorial(tree) -> int:
    """gamma(t) = |t| * prod gamma(children)."""
    return vertex_count(tree) * prod((tree_factorial(c) for c in tree), 1)


def trees_up_to(n: int):
    """All rooted trees with at most n vertices, by grafting a leaf anywhere."""
    level = {(): None}
    out = [()]
    for _ in range(n - 1):
        nxt = {}
        for tree in level:
            for grown in _graft_everywhere(tree):
                nxt[grown] = None
        level = nxt
        out.extend(level)
    return out


def _graft_everywhere(tree):
    yield canonical(tree + ((),))
    for i, child in enumerate(tree):
        for grown in _graft_everywhere(child):
            yield canonical(tree[:i] + (grown,) + tree[i + 1:])


def _edges(tree, path=()):
    """Every edge, named by the child-index path from the root to its lower end."""
    for i, child in enumerate(tree):
        yield path + (i,)
        yield from _edges(child, path + (i,))


def _subtree(tree, path):
    for i in path:
        tree = tree[i]
    return tree


def _prune(tree, cut, path=()):
    kept = [_prune(c, cut, path + (i,)) for i, c in enumerate(tree) if path + (i,) not in cut]
    return canonical(kept)


def admissible_cuts(tree):
    """(pruned forest, trunk) for every nonempty admissible edge subset.

    Brute force over edge subsets: a subset is admissible when no cut edge lies
    below another, i.e. every root-to-leaf path meets at most one cut.
    """
    edges = list(_edges(tree))
    out = []
    for r in range(1, len(edges) + 1):
        for cut in combinations(edges, r):
            if any(a != b and b[: len(a)] == a for a in cut for b in cut):
                continue
            pruned = tuple(sorted((_subtree(tree, p) for p in cut), key=tree_encoding))
            out.append((pruned, _prune(tree, set(cut))))
    return out


# -- generator-level structure tables ------------------------------------------------
#
# For a schema whose reduced coproduct has single generators on the right,
# cuts[g] lists (left factors, right generator, coefficient); degree[g] is the
# grading.  Characters are determined by generator values, and an
# infinitesimal character only sees right legs, so every recursion below runs
# on generators alone.


def tree_structure(max_vertices: int):
    cuts, degree = {}, {}
    for tree in sorted(trees_up_to(max_vertices), key=lambda t: (vertex_count(t), tree_encoding(t))):
        name = tree_encoding(tree)
        degree[name] = vertex_count(tree)
        cuts[name] = [
            (tuple(tree_encoding(p) for p in pruned), tree_encoding(trunk), Fraction(1))
            for pruned, trunk in admissible_cuts(tree)
        ]
    return cuts, degree


def ladder_structure(n: int, binomial: bool = False, prefix: str = "t"):
    """t_k with D t_n = sum_k c t_k (x) t_(n-k); c = 1, or C(n, k) when binomial."""
    cuts, degree = {}, {}
    for m in range(1, n + 1):
        degree[f"{prefix}{m}"] = m
        cuts[f"{prefix}{m}"] = [
            ((f"{prefix}{k}",), f"{prefix}{m - k}", Fraction(comb(m, k) if binomial else 1))
            for k in range(1, m)
        ]
    return cuts, degree


def generators_in_order(degree):
    """Generator names by (degree, name): every left leg comes before its generator."""
    return sorted(degree, key=lambda g: (degree[g], g))


def char_convolution(cuts, degree, a, b):
    """(a * b)(g) for characters a, b: a(g) + b(g) + sum c a(left) b(right)."""
    out = {}
    for g in generators_in_order(degree):
        v = a.get(g, 0) + b.get(g, 0)
        for left, right, c in cuts[g]:
            v = v + c * prod(a.get(x, 0) for x in left) * b.get(right, 0)
        out[g] = v
    return out


def flow(cuts, degree, z):
    """chi_s = exp(s z) on generators, as polynomials in s.

    Solves d/ds chi_s = chi_s * z with chi_0 the counit: on a generator,
    d/ds chi_s(g) = z(g) + sum c chi_s(left) z(right).  For z the indicator of
    the one-vertex tree this is the exact flow of the Butcher group.
    """
    chi = {}
    for g in generators_in_order(degree):
        rate = Poly.const(z.get(g, 0))
        for left, right, c in cuts[g]:
            zr = z.get(right, 0)
            if zr:
                rate = rate + prod((chi[x] for x in left), Poly.const(1)) * (c * zr)
        chi[g] = rate.integrate()
    return chi


def log_from_flow(cuts, degree, chi):
    """The infinitesimal z with exp(z) = chi, solved degree by degree.

    chi_1(g) = z(g) + (terms in z on smaller generators), so z(g) is chi(g)
    minus the flow computed with z(g) set to zero.
    """
    z, flows = {}, {}
    for g in generators_in_order(degree):
        rate = Poly()
        for left, right, c in cuts[g]:
            zr = z.get(right, 0)
            if zr:
                rate = rate + prod((flows[x] for x in left), Poly.const(1)) * (c * zr)
        rest = rate.integrate()
        z[g] = chi.get(g, 0) - rest.at_one()
        flows[g] = rest + Poly({1: z[g]})
    return z


def special_loop(cuts, degree, beta):
    """The loop phi with Y phi = phi * (beta / eps), on generators.

    Its eps^(-n) coefficients are the counterterm tower d_n; in eps-exponents:
    |g| phi(g) = eps^(-1) (beta(g) + sum c phi(left) beta(right)).
    """
    phi = {}
    for g in generators_in_order(degree):
        acc = Poly.const(beta.get(g, 0))
        for left, right, c in cuts[g]:
            br = beta.get(right, 0)
            if br:
                acc = acc + prod((phi[x] for x in left), Poly.const(1)) * (c * br)
        phi[g] = acc.shift(-1) * Fraction(1, degree[g])
    return phi


def birkhoff_recursion(cuts, degree, phi):
    """Bogoliubov recursion on generators: bracket = phi + sum c phi_-(left) phi(right)."""
    minus, plus = {}, {}
    for g in generators_in_order(degree):
        bracket = _as_poly(phi.get(g, 0))
        for left, right, c in cuts[g]:
            bracket = bracket + prod((minus[x] for x in left), Poly.const(1)) * _as_poly(phi.get(right, 0)) * c
        minus[g] = -bracket.pole_part()
        plus[g] = bracket.regular_part()
    return minus, plus


def infinitesimal_after_character(cuts, degree, chi, z):
    """(chi * z) on generators: z(g) + sum c chi(left) z(right)."""
    out = {}
    for g in generators_in_order(degree):
        v = z.get(g, Fraction(0))
        for left, right, c in cuts[g]:
            v = v + c * prod(chi.get(x, 0) for x in left) * z.get(right, 0)
        out[g] = v
    return out


def monomials_up_to(degree, max_degree):
    """Every monomial of total degree 1..max_degree, as a sorted tuple of
    (generator, exponent) pairs."""
    gens = generators_in_order({g: d for g, d in degree.items() if d <= max_degree})
    out = []

    def extend(start, remaining, acc):
        if acc:
            out.append(tuple(sorted(_powers(acc))))
        for i in range(start, len(gens)):
            if degree[gens[i]] <= remaining:
                extend(i, remaining - degree[gens[i]], acc + [gens[i]])

    extend(0, max_degree, [])
    return out


def _powers(factors):
    counts = {}
    for f in factors:
        counts[f] = counts.get(f, 0) + 1
    return counts.items()


def factors_of(monomial):
    return [g for g, e in monomial for _ in range(e)]


def character_after_infinitesimal_table(cuts, degree, chi, z, max_degree):
    """(chi * z) on every monomial: one factor takes the z-leg, the rest go left."""
    on_gen = infinitesimal_after_character(cuts, degree, chi, z)
    table = {}
    for m in monomials_up_to(degree, max_degree):
        fs = factors_of(m)
        total = Fraction(0)
        for j, g in enumerate(fs):
            total += on_gen[g] * prod(chi.get(x, 0) for i, x in enumerate(fs) if i != j)
        table[m] = total
    return table
