"""Prices of the structure maps of an element, read off its exponents and the
generator counts per degree before anything is expanded.  ``coproduct`` and
``antipode`` check them against their limit; no other command loads this.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import comb, log10
from typing import Dict

from .algebra import Element, Generator
from .errors import DomainError
from .hopf import HopfAlgebra

# The most terms the coproduct memo may fill for the element of ``coproduct``
# or ``antipode``, priced by ``coproduct_term_bound`` before any coproduct is
# expanded, and the most the antipode memo may fill for the element of
# ``antipode``, priced by ``antipode_term_bound``.
MAX_COPRODUCT_TERMS = 100_000


def check_price(bound: int, what: str) -> None:
    if bound > MAX_COPRODUCT_TERMS:
        try:
            count = str(bound)
        except ValueError:  # more digits than Python writes: name the power of ten it passes
            count = f"more than 10^{int((bound.bit_length() - 1) * log10(2))}"
        raise DomainError(f"the {what} of this element may fill {count} terms, "
                          f"above the limit MAX_COPRODUCT_TERMS = {MAX_COPRODUCT_TERMS}")


def coproduct_term_bound(ctx: HopfAlgebra, h: Element) -> int:
    """An upper bound on the terms the coproduct memo fills for D(h), read
    off the exponents before anything is expanded.

    D(g) has at most k = 2 + ``reduced_term_count(g)`` terms, read off the
    schema without building D(g), and D(g)^e at most C(e + k - 1, e): one per
    multiset of e of them, the count ``exprparse.MAX_POWER_TERMS`` prices.
    D is multiplicative, so a monomial is bounded by the product over its
    generators.  This prices the steps of ``algebra.cofactor_chain``, which
    fills D(g^e r) from D(g^(e-1) r) down to the unit, so each distinct
    (g, r) of h adds the sum over j = 1..e of C(j + k - 1, j) times the
    bound of r, which is C(e + k, e) - 1.  The bound is at least the number
    of terms of D(h).
    """
    sizes: Dict[Generator, int] = {}
    tops: Dict[tuple, list] = {}  # (g, powers after g) -> [highest e, k, bound of the rest]
    for m in h.terms:
        rest_bound = 1
        for i in range(len(m.powers) - 1, -1, -1):
            g, e = m.powers[i]
            k = sizes.get(g)
            if k is None:
                k = sizes[g] = ctx.schema.reduced_term_count(g) + 2
            top = tops.setdefault((g, m.powers[i + 1:]), [e, k, rest_bound])
            top[0] = max(top[0], e)
            rest_bound *= comb(e + k - 1, e)
    fill = sum(r * (comb(e + k, e) - 1) for e, k, r in tops.values())
    return fill + 1 if h.terms else 0  # every chain ends at D(1) = 1 (x) 1


def antipode_term_bound(ctx: HopfAlgebra, h: Element) -> int:
    """An upper bound on the terms the right antipode fill for S(h) adds to
    either memo it fills, its S values and the coproducts it reads, from
    the generator counts G(n) per degree, before anything is expanded.

    The right legs of D(g) are 1, g and generators of lower degree, so each
    monomial the fill visits for a term prod g^e of h, and each on the
    chain that fills its D, is a product, over its factors g^e, of at most
    e generators of degree <= deg g.  S(prod k^f) has at most
    prod C(b(deg k) + f - 1, f) terms, b(n) the basis count of degree n
    (the Euler transform of G), and D(prod k^f) at most
    prod C(|D(k)| + f - 1, f), |D(k)| <= 2 + ``reduced_term_count(k)``.
    Summed over those products, these weights are the coefficients of
    prod over g^e of [y^0 .. y^e] prod_(n <= deg g) (1 - y q^n)^(-s(n)), s(n)
    the weights summed over degree n; degree k holds at most b(k) S values,
    of at most b(k) terms each.

    Every count is built once, from the unit up, over the degrees that hold
    generators only.  The weights are positive, so a layer is nonzero at
    k > 0 only where it is at k - n for a degree n it holds, and a product
    of two series only at a sum of degrees where both are: only those
    degrees are visited, in increasing order, each adding to the two sums,
    and only the basis counts are dense.  The sums stop at the first degree
    where either passes MAX_COPRODUCT_TERMS: the larger is then at most the
    full bound and above the limit, so it is returned with its verdict.
    """
    if not h.terms:
        return 0
    schema = ctx.schema
    monomials = [(m.y_degree, [(g.degree, e) for g, e in m.powers]) for m in h.terms]
    top = max(d for d, _ in monomials)
    gen_top = max((n for _, fs in monomials for n, _ in fs), default=0)
    # The degrees n <= gen_top that hold generators, in the generators of
    # degree <= gen_top, which are all the generators any of these S and D
    # values involve: (n, s(n) of the antipode and of D), as far as counted.
    active = []
    # b(k) is the q^k coefficient of the product over those degrees of
    # (1 - q^n)^(-G(n)), kept as its partial products P_1, P_2, ... after
    # P_0 = 1, each coefficient read off (1 - q^n)^G(n) P_i = P_(i-1) in
    # min(G(n), k / n) steps: (n, the signed C(G(n), f) for f >= 1) per degree.
    products, factors = [[1]], []
    # Per factor degree d and weight: the layers of each degree k they reach,
    # the products over the first i active degrees <= min(d, k) truncated at
    # y^e, e the highest exponent of a factor of degree d, as {j: coefficient
    # of y^j q^k}.  Per factor (d, e) and weight: the series summed over j <= e.
    tops: Dict[int, int] = {}
    for _, fs in monomials:
        for n, e in fs:
            tops[n] = max(tops.get(n, 0), e)
    rows = {(n, w): {} for n in tops for w in (0, 1)}
    series = {(f, w): {} for _, fs in monomials for f in fs for w in (0, 1)}
    # Per monomial and weight, the products of a prefix of its factors, in the same form.
    partial = [([{} for _ in fs], [{} for _ in fs]) for _, fs in monomials]
    queue, queued = [0], {0}  # the degrees to visit: a heap and its set

    def reach(k):
        if k <= top and k not in queued:
            queued.add(k)
            heappush(queue, k)

    antipode = coproduct = 0
    while True:
        # The basis counts, degree by degree through the next degree to visit;
        # a degree that holds generators is reached from every layer that holds it.
        while len(products[0]) <= (queue[0] if queue else gen_top):
            n = len(products[0])
            gens = schema.generators_of_degree(n) if n <= gen_top else ()
            if gens:
                factors.append((n, [(-1) ** (f + 1) * comb(len(gens), f) for f in range(1, len(gens) + 1)]))
                products.append(products[-1][:n])
            products[0].append(0)
            for (d, signed), prev, p in zip(factors, products, products[1:]):
                p.append(prev[n] + sum(c * p[n - d * f] for f, c in enumerate(signed[:n // d], 1)))
            if gens:
                active.append((n, (len(gens) * products[-1][n], sum(schema.reduced_term_count(g) + 2 for g in gens))))
                for (degree, _), layers in rows.items():
                    if n <= degree:
                        for l in layers:
                            reach(l + n)
        if not queue:
            break
        k = heappop(queue)
        b = products[-1][k]
        for (degree, w), layers in rows.items():
            if k and not any(k - n in layers for n, _ in active if n <= degree):
                continue
            e = tops[degree]
            row = [{0: 1} if k == 0 else {}]
            for i, (n, sizes) in enumerate(active):
                if n > degree or n > k:
                    break
                acc, s = dict(row[-1]), sizes[w]
                # Before the first active degree the product is empty: 1 at degree 0 only.
                for f in range(1 if i else k // n, min(e, k // n) + 1):
                    below = layers.get(k - n * f)
                    if below is None:
                        continue
                    c = comb(s + f - 1, f)
                    for j, v in below[min(i, len(below) - 1)].items():
                        if j + f <= e:
                            acc[j + f] = acc.get(j + f, 0) + c * v
                row.append(acc)
            if row[-1]:
                layers[k] = row
                for n, _ in active:
                    if n <= degree:
                        reach(k + n)
        for ((degree, e), w), values in series.items():
            row = rows[degree, w].get(k)
            total = row and sum(v for j, v in row[-1].items() if j <= e)
            if total:
                values[k] = total
        totals = [0, 0]
        for (d, fs), prods in zip(monomials, partial):
            if k > d:
                continue
            for w in (0, 1):
                q = 1 if k == 0 else 0  # the unit monomial
                for i, f in enumerate(fs):
                    ys = series[f, w]
                    if i == 0:
                        q = ys.get(k, 0)
                    else:  # the degree-k convolution, over the sparser of the two series
                        xs = prods[w][i - 1]
                        if k in ys:  # a new degree of this factor: with every degree of the prefix
                            for l in xs:
                                reach(l + k)
                        if len(xs) > len(ys):
                            xs, ys = ys, xs
                        q = sum(v * ys.get(k - l, 0) for l, v in xs.items())
                    if q:
                        prods[w][i][k] = q
                        if i + 1 < len(fs):  # a new degree of the prefix: with every degree of the next factor
                            for l in series[fs[i + 1], w]:
                                reach(k + l)
                totals[w] += q
        antipode += min(totals[0], b ** 2)
        coproduct += totals[1]
        if max(antipode, coproduct) > MAX_COPRODUCT_TERMS:
            break
    return max(antipode, coproduct)
