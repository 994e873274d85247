"""The independent oracles against hand values and against each other."""

import random
from fractions import Fraction
from math import factorial

from perfbench import oracles as O

# 1/gamma(t) for every rooted tree with at most 4 vertices, by hand; names in
# canonical form (children sorted by encoding, so "[" sorts before "]").
INVERSE_TREE_FACTORIALS = {
    "[]": Fraction(1),
    "[[]]": Fraction(1, 2),
    "[[][]]": Fraction(1, 3),
    "[[[]]]": Fraction(1, 6),
    "[[][][]]": Fraction(1, 4),
    "[[[]][]]": Fraction(1, 8),
    "[[[][]]]": Fraction(1, 12),
    "[[[[]]]]": Fraction(1, 24),
}


def test_ladder_exp_of_t1_is_inverse_factorial():
    n = 8
    delta = [Fraction(0), Fraction(1)] + [Fraction(0)] * (n - 1)
    assert O.series_exp(delta, n) == [Fraction(1, factorial(k)) for k in range(n + 1)]
    cuts, degree = O.ladder_structure(n)
    flow = O.flow(cuts, degree, {"t1": Fraction(1)})
    assert {g: p.at_one() for g, p in flow.items()} == {f"t{k}": Fraction(1, factorial(k)) for k in range(1, n + 1)}


def test_tree_exp_of_bullet_is_inverse_tree_factorial():
    cuts, degree = O.tree_structure(4)
    flow = O.flow(cuts, degree, {"[]": Fraction(1)})
    assert {g: p.at_one() for g, p in flow.items()} == INVERSE_TREE_FACTORIALS
    for name, value in INVERSE_TREE_FACTORIALS.items():
        assert Fraction(1, O.tree_factorial(O.parse_tree(name))) == value


def test_tree_counts_and_cuts():
    counts = [0] * 7
    for t in O.trees_up_to(6):
        counts[O.vertex_count(t)] += 1
    assert counts[1:] == [1, 1, 2, 4, 9, 20]
    cuts = O.admissible_cuts(O.parse_tree("[[][]]"))
    assert sorted((tuple(map(O.tree_encoding, p)), O.tree_encoding(r)) for p, r in cuts) == [
        (("[]",), "[[]]"), (("[]",), "[[]]"), (("[]", "[]"), "[]")]


def test_series_and_flow_logs_invert_exps():
    rng = random.Random(3)
    b = [Fraction(0)] + [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(7)]
    assert O.series_log(O.series_exp(b, 7), 7) == b
    cuts, degree = O.tree_structure(5)
    z = {g: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for g in degree}
    chi = {g: p.at_one() for g, p in O.flow(cuts, degree, z).items()}
    assert O.log_from_flow(cuts, degree, chi) == z


def test_ladder_birkhoff_closed_form_matches_recursion():
    rng = random.Random(5)
    n = 6
    phi = {f"t{k}": O.Poly({e: Fraction(rng.randint(-4, 4)) for e in range(-2, 2)}) for k in range(1, n + 1)}
    minus_s, plus_s = O.ladder_birkhoff([O.Poly.const(1)] + [phi[f"t{k}"] for k in range(1, n + 1)], n)
    cuts, degree = O.ladder_structure(n)
    minus, plus = O.birkhoff_recursion(cuts, degree, phi)
    for k in range(1, n + 1):
        assert minus_s[k] == minus[f"t{k}"]
        assert plus_s[k] == plus[f"t{k}"]


def test_ladder_birkhoff_worked_example():
    # phi(t1) = 1/eps, phi(t2) = 1/eps^2: phi_-(t1) = -1/eps, phi_-(t2) = 0, phi_+ = 0.
    seq = [O.Poly.const(1), O.Poly({-1: 1}), O.Poly({-2: 1})]
    minus, plus = O.ladder_birkhoff(seq, 2)
    assert minus[1:] == [O.Poly({-1: -1}), O.Poly()]
    assert plus[1:] == [O.Poly(), O.Poly()]


def test_special_loop_obeys_the_grading_recursion():
    # On the ladder with beta = b t1: phi(t_n) = (b / eps)^n / n!.
    cuts, degree = O.ladder_structure(5)
    loop = O.special_loop(cuts, degree, {"t1": Fraction(3)})
    assert loop == {f"t{n}": O.Poly({-n: Fraction(3**n, factorial(n))}) for n in range(1, 6)}
