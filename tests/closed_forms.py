"""Closed forms of the paper's Hopf algebras, independent of the engine.

Connes-Moscovici, the binomial ladders, Faa di Bruno, the Dyson-Schwinger
subalgebras of rooted trees (Bergbauer-Kreimer, hep-th/0506190), the
cancellation-free antipodes of the ladder and of rooted trees, and the
Runge-Kutta characters of the Butcher group (Brouder, hep-th/9904014).  Each
is generated in plain ints and Fractions, or over the trees of
``perfbench.oracles``, and never imports ``hopfalg``, so a test that compares
one with the engine compares two independent computations.  A schema comes
in the JSON contract that ``hopfalg.instances.schema_from_dict`` reads.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, prod

from perfbench import oracles

# -- the Connes-Moscovici algebra: the delta_n, generated in plain ints ---------------


def connes_moscovici_schema(n):
    """The schema JSON of delta_1 .. delta_n, named d1 .. dn, generated without
    the engine from delta_(k+1) = [X, delta_k] and D X = X (x) 1 + 1 (x) X +
    delta_1 (x) Y:

        D delta_(k+1) = (N (x) id + id (x) N) D delta_k + sum deg(b) (delta_1 a) (x) b

    over the terms a (x) b of D delta_k, where N is the derivation
    delta_j -> delta_(j+1).  A monomial is the sorted tuple of its generator
    indices, repeated by exponent, so its degree is its sum."""

    def grown(m):  # N(m), one monomial per factor raised
        return [tuple(sorted(m[:i] + (m[i] + 1,) + m[i + 1:])) for i in range(len(m))]

    coproducts = [{((1,), ()): 1, ((), (1,)): 1}]
    for _ in range(1, n):
        nxt = {}
        for (a, b), c in coproducts[-1].items():
            for key in [(x, b) for x in grown(a)] + [(a, y) for y in grown(b)]:
                nxt[key] = nxt.get(key, 0) + c
            key = (tuple(sorted(a + (1,))), b)
            nxt[key] = nxt.get(key, 0) + sum(b) * c
        coproducts.append(nxt)
    reduced = {}
    for k, cop in enumerate(coproducts, 1):
        terms = [(a, b, c) for (a, b), c in sorted(cop.items()) if a and b and c]
        assert all(len(b) == 1 for _, b, _ in terms)  # right legs are single generators
        if terms:
            reduced[f"d{k}"] = [{"left": [[f"d{i}", a.count(i)] for i in sorted(set(a))], "right": f"d{b[0]}",
                                 "coeff": str(c)} for a, b, c in terms]
    return {"generators": [{"name": f"d{k}", "degree": k} for k in range(1, n + 1)], "reducedCoproduct": reduced}


# -- the binomial ladder, in two bases, and the cuts form of perfbench.oracles ---------


def binomial_schema(top):
    """D x_n = sum_k C(n, k) x_k (x) x_(n-k), as schema JSON."""
    return {
        "generators": [{"name": f"x{n}", "degree": n} for n in range(1, top + 1)],
        "reducedCoproduct": {
            f"x{n}": [{"left": [[f"x{k}", 1]], "right": f"x{n - k}", "coeff": str(comb(n, k))} for k in range(1, n)]
            for n in range(2, top + 1)
        },
    }


def oracle_structure(data):
    """(cuts, degree) of ``perfbench.oracles`` for a schema JSON: cuts[g] lists
    (left factors repeated by exponent, right generator, coefficient)."""
    degree = {g["name"]: g["degree"] for g in data["generators"]}
    reduced = data.get("reducedCoproduct", {})
    cuts = {g: [(tuple(x for x, e in t["left"] for _ in range(e)), t["right"], Fraction(t["coeff"]))
                for t in reduced.get(g, [])] for g in degree}
    return cuts, degree


def rescaled_binomial_schema(n):
    """The binomial ladder D x_m = sum_k C(m, k) x_k (x) x_(m-k) in the basis
    y_m = m x_m: D y_m = sum_k C(m, k) m / (k (m - k)) y_k (x) y_(m-k)."""
    cuts, degree = oracles.ladder_structure(n, binomial=True, prefix="y")
    return {"generators": [{"name": g, "degree": degree[g]} for g in oracles.generators_in_order(degree)],
            "reducedCoproduct": {g: [{"left": [[x, 1] for x in left], "right": right,
                                      "coeff": str(c * degree[g] / (degree[left[0]] * degree[right]))}
                                     for left, right, c in terms]
                                 for g, terms in cuts.items() if terms}}


# -- Faa di Bruno: characters are series x + sum c_j x^(j+1) under composition ------


def polynomial_times(p, q):
    """The product of two polynomials in commuting symbols, each a {sorted
    tuple of symbols: coefficient}."""
    out = {}
    for a, c in p.items():
        for b, d in q.items():
            key = tuple(sorted(a + b))
            out[key] = out.get(key, 0) + c * d
    return out


def series_times(s, t):
    """The product of two series whose coefficients are polynomials, each a
    list of them by degree, kept to the length of s."""
    out = [{} for _ in s]
    for i, p in enumerate(s):
        for j, q in enumerate(t[:len(s) - i]):
            for key, c in polynomial_times(p, q).items():
                out[i + j][key] = out[i + j].get(key, 0) + c
    return out


def faa_di_bruno_schema(n):
    """The schema JSON of a_1 .. a_n (a_m of degree m), generated without the
    engine: D a_m = sum_k [x^(m+1)] g^(k+1) (x) a_k over k = 0 .. m, with
    g = x + sum_j a_j x^(j+1) and a_0 = 1.  Since g = x (1 + A), A = sum_j a_j x^j,
    the left leg of the k-th term is [x^(m-k)] (1 + A)^(k+1).  A polynomial in
    the a_j is a {sorted index tuple: coefficient}; a series in x is a list of
    them, kept to x^n."""
    one_plus_a = [{(): 1}] + [{(j,): 1} for j in range(1, n + 1)]
    power, reduced = one_plus_a, {}
    for k in range(1, n):
        power = series_times(power, one_plus_a)  # (1 + A)^(k+1)
        for m in range(k + 1, n + 1):
            reduced.setdefault(f"a{m}", []).extend(
                {"left": [[f"a{i}", a.count(i)] for i in sorted(set(a))], "right": f"a{k}", "coeff": str(c)}
                for a, c in sorted(power[m - k].items()))
    return {"generators": [{"name": f"a{m}", "degree": m} for m in range(1, n + 1)], "reducedCoproduct": reduced}


# -- Dyson-Schwinger: X = 1 + alpha B+(X^(1+s)) spans a Hopf subalgebra of trees ------
#
# Write X = 1 + sum_k c_k alpha^k.  Each c_k is a combination of trees with k
# vertices, and Delta c_k = sum_(j=0..k) [X^(js+1)]_(k-j) (x) c_j, with [.]_m the
# alpha^m part and c_0 = 1 (Bergbauer-Kreimer, hep-th/0506190).  For s = 0, c_k
# is the ladder tree.


def dyson_schwinger_trees(s, n):
    """X to alpha^n, by its own B+ recursion c_k = B+([X^(1+s)]_(k-1)): a list
    of polynomials in trees, each tree its canonical bracket string, so that
    [k] is {(c_k's trees, one each): coefficient}.  B+ of a forest is the tree
    with the forest's trees as the children of a new root."""
    x = [{(): 1}]
    for k in range(1, n + 1):
        power = x
        for _ in range(s):
            power = series_times(power, x)
        c = {}
        for forest, coeff in power[k - 1].items():
            tree = ("[" + "".join(forest) + "]",)
            c[tree] = c.get(tree, 0) + coeff
        x.append(c)
    return x


def dyson_schwinger_coproduct(s, n):
    """The closed form, on the symbols c_1 .. c_n: {k: [(left, j)]} with
    Delta c_k = sum left (x) c_j, each left a polynomial in the c's, as a
    {sorted index tuple: coefficient}; j = 0 is the unit."""
    x = [{(): 1}] + [{(k,): 1} for k in range(1, n + 1)]
    powers = [[{(): 1}] + [{} for _ in range(n)]]  # X^e for e = 0, 1, ...
    for _ in range(n * s + 1):
        powers.append(series_times(powers[-1], x))
    return {k: [(powers[j * s + 1][k - j], j) for j in range(k + 1)] for k in range(1, n + 1)}


def dyson_schwinger_schema(s, n):
    """The schema JSON of c_1 .. c_n, read off the closed form."""
    reduced = {}
    for k, terms in dyson_schwinger_coproduct(s, n).items():
        entries = [{"left": [[f"c{i}", a.count(i)] for i in sorted(set(a))], "right": f"c{j}", "coeff": str(c)}
                   for left, j in terms if 0 < j < k for a, c in sorted(left.items())]
        if entries:
            reduced[f"c{k}"] = entries
    return {"generators": [{"name": f"c{k}", "degree": k} for k in range(1, n + 1)], "reducedCoproduct": reduced}


# -- cancellation-free antipodes ------------------------------------------------------
#
# They never read a coproduct, so a fault in the coproduct fill cannot pass them
# the way it can pass both the right and the left recursion.  A monomial is the
# sorted tuple of its factors (with repeats), and no two terms of either sum
# cancel.


def _compositions(n):
    if n == 0:
        yield ()
        return
    for head in range(1, n + 1):
        for rest in _compositions(n - head):
            yield (head,) + rest


def ladder_antipode_closed_form(n):
    """S(t_n) = sum over compositions (c_1..c_k) of n of (-1)^k t_c1...t_ck."""
    out = {}
    for comp in _compositions(n):
        key = tuple(sorted(comp))
        out[key] = out.get(key, 0) + (-1) ** len(comp)
    return out


def forest_formula(tree):
    """S(t) = sum over every edge subset C of t of (-1)^(|C|+1) times the
    product of the |C|+1 pieces that cutting C leaves (Connes-Kreimer)."""
    edges = list(oracles._edges(tree))
    out = {}
    for r in range(len(edges) + 1):
        for cut in combinations(edges, r):
            cut_set = set(cut)
            pieces = [oracles._prune(tree, cut_set)] + [oracles._prune(oracles._subtree(tree, p), cut_set, p)
                                                        for p in cut]
            key = tuple(sorted(oracles.tree_encoding(piece) for piece in pieces))
            out[key] = out.get(key, 0) + (-1) ** (r + 1)
    return out


# -- the Butcher group: a Runge-Kutta method is a character of rooted trees ------------
#
# A tableau is (A, b), s stages.  Its elementary weights Phi(t) are the
# character whose value on each tree is the method's coefficient of the
# elementary differential of t in one step; the exact flow is 1/gamma(t).


RK4 = (((Fraction(0), Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1, 2), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1), Fraction(0))),
       (Fraction(1, 6), Fraction(1, 3), Fraction(1, 3), Fraction(1, 6)))


def elementary_weight(tableau, tree):
    """Phi(t) = sum_i b_i Phi_i(t), with Phi_i(t) = prod over the children u of
    t of sum_j a_ij Phi_j(u), on a tree of ``perfbench.oracles``."""
    a, b = tableau

    def stages(t):  # Phi_i(t) for every stage i
        below = [stages(u) for u in t]
        return [prod(sum(aij * phi for aij, phi in zip(row, child)) for child in below) for row in a]

    return sum(bi * phi for bi, phi in zip(b, stages(tree)))


def adjoint_tableau(tableau):
    """(A*, b*) with A*_ij = b_(s+1-j) - A_(s+1-i)(s+1-j) and b*_i = b_(s+1-i):
    the method a step of which, run backwards in time, undoes a step of (A, b)."""
    a, b = tableau
    s = len(b)
    return (tuple(tuple(b[s - 1 - j] - a[s - 1 - i][s - 1 - j] for j in range(s)) for i in range(s)),
            tuple(reversed(b)))
