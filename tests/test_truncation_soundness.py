"""Adversarial soundness of truncated Laurent arithmetic.

A truncated series stands for every exact series agreeing with it up to its
truncation order.  An operation's reported window is sound only if no choice
of hidden tail can change any reported coefficient; these tests extend the
operands with random tails and demand bit-equality on the claimed window.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from closed_forms import rescaled_binomial_schema
from hopfalg import cli
from hopfalg.hopf import HopfAlgebra
from hopfalg.rings import EPS_RING, LaurentSeries
from perfbench.workloads import binomial_schema

L = EPS_RING
rng = random.Random(20240517)


def random_series(max_pole=3, max_order=3):
    coeffs = {}
    for _ in range(rng.randint(0, 5)):
        k = rng.randint(-max_pole, max_order)
        coeffs[k] = Fraction(rng.randint(-5, 5))
    return L.make(coeffs, None)


def truncate(a: LaurentSeries, trunc: int) -> LaurentSeries:
    return L.make({k: v for k, v in a.coeffs if k <= trunc}, trunc)


def extend_with_tail(a: LaurentSeries, trunc: int, width=3) -> LaurentSeries:
    coeffs = dict(a.coeffs)
    for k in range(trunc + 1, trunc + 1 + width):
        c = rng.randint(-5, 5)
        if c:
            coeffs[k] = Fraction(c)
    return L.make(coeffs, None)


def window_coeffs(a: LaurentSeries):
    assert a.trunc is not None
    return {k: v for k, v in a.coeffs if k <= a.trunc}, a.trunc


def test_mul_window_is_tail_independent():
    for _ in range(300):
        a_exact, b_exact = random_series(), random_series()
        ta, tb = rng.randint(-1, 4), rng.randint(-1, 4)
        a, b = truncate(a_exact, ta), truncate(b_exact, tb)
        got = L.mul(a, b)
        if got.trunc is None:
            continue
        reported, window = window_coeffs(got)
        for _ in range(4):
            full = L.mul(extend_with_tail(a_exact, ta), extend_with_tail(b_exact, tb))
            for k, v in full.coeffs:
                if k <= window:
                    assert reported.get(k, Fraction(0)) == v, (a, b, k)
            for k, v in reported.items():
                assert dict(full.coeffs).get(k, Fraction(0)) == v, (a, b, k)


def test_add_window_is_tail_independent():
    for _ in range(200):
        a_exact, b_exact = random_series(), random_series()
        ta, tb = rng.randint(-1, 4), rng.randint(-1, 4)
        got = L.add(truncate(a_exact, ta), truncate(b_exact, tb))
        reported, window = window_coeffs(got)
        full = L.add(extend_with_tail(a_exact, ta), extend_with_tail(b_exact, tb))
        for k, v in full.coeffs:
            if k <= window:
                assert reported.get(k, Fraction(0)) == v


def test_invert_window_is_tail_independent():
    for _ in range(200):
        a_exact = random_series()
        if L.is_zero(a_exact):
            continue
        lead = a_exact.min_exp()
        ta = rng.randint(max(lead, 0), lead + 5)
        a = truncate(a_exact, ta)
        if L.is_zero(a) or a.min_exp() != lead:
            continue
        inv = L.invert_unit(a)
        reported, window = window_coeffs(inv)
        for _ in range(4):
            full = L.invert_unit(
                extend_with_tail(a_exact, ta), to_order=window + abs(lead) + 4
            )
            for k, v in reported.items():
                assert L.coefficient(full, k) == v, (a, k)


def test_exp_window_is_tail_independent():
    for _ in range(150):
        coeffs = {}
        for _ in range(rng.randint(0, 3)):
            k = rng.randint(1, 4)
            coeffs[k] = Fraction(rng.randint(-4, 4))
        a_exact = L.make(coeffs, None)
        ta = rng.randint(1, 5)
        a = truncate(a_exact, ta)
        got = L.exp(a)
        reported, window = window_coeffs(got)
        extended = extend_with_tail(a_exact, ta)
        big = L.make(dict(extended.coeffs), window + 4)
        full = L.exp(big)
        for k, v in reported.items():
            assert L.coefficient(full, k) == v


def test_pole_part_of_truncated_input_is_exact():
    for _ in range(100):
        a_exact = random_series()
        ta = rng.randint(-1, 4)
        a = truncate(a_exact, ta)
        pole = L.pole_part(a)
        assert pole.trunc is None
        full_pole = L.pole_part(extend_with_tail(a_exact, ta))
        assert pole.as_dict() == full_pole.as_dict()


# -- windows sound by completion, through the CLI ------------------------------------
#
# A truncated loop stands for each of its exact completions.  Every coefficient
# that ``birkhoff`` or ``rg-check`` reports for it inside a window must be the one
# it reports for every completion.  At or above the Birkhoff budget every
# rg-check window reaches eps^0, so the loops are also drawn up to two orders
# under it, where ``birkhoff`` refuses them and a window of ``rg-check`` may end
# at or below eps^0.

COMPLETION_SCHEMAS = {"ladder": 5, "trees:4": 4}
completion_coefficients = st.sampled_from([-2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def completed_loops(draw, schemas=COMPLETION_SCHEMAS):
    """(schema, degree, budget, truncated loop, three exact completions), the
    loops as JSON functional documents.  The loop has a pole of order 1 or 2
    and each value is truncated within two orders of the Birkhoff budget
    (degree - 1) * pole; each completion adds a random tail above every
    truncation."""
    schema = draw(st.sampled_from(sorted(schemas)))
    degree = draw(st.integers(min_value=1, max_value=schemas[schema]))
    pole = draw(st.integers(min_value=1, max_value=2))
    budget = (degree - 1) * pole
    gens = HopfAlgebra(cli.resolve_schema(schema), validate_to=0).schema.generators_up_to(degree)
    truncated, completions = {}, [{}, {}, {}]
    for i, g in enumerate(gens):
        trunc = draw(st.integers(min_value=max(budget - 2, -pole), max_value=budget + 2))
        coeffs = draw(st.dictionaries(st.integers(min_value=-pole, max_value=trunc), completion_coefficients,
                                      max_size=4))
        if i == 0:
            coeffs[-pole] = 1
        truncated[g.name] = {"truncation": trunc, "coeffs": {str(k): str(v) for k, v in coeffs.items()}}
        for completion in completions:
            tail = draw(st.dictionaries(st.integers(min_value=trunc + 1, max_value=trunc + 3),
                                        completion_coefficients, max_size=3))
            completion[g.name] = {"truncation": None,
                                  "coeffs": {str(k): str(v) for k, v in {**coeffs, **tail}.items()}}
    loops = [{"kind": "character", "ring": "laurent", "values": values} for values in [truncated] + completions]
    return schema, degree, budget, loops


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, json.loads(out.getvalue()) if out.getvalue() else None


def series_coefficient(value, k):
    return value["coeffs"].get(str(k), "0")


@pytest.fixture(scope="module")
def loop_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("completions")


@settings(max_examples=60, deadline=None)
@given(loop=completed_loops(), eps_order=st.integers(min_value=0, max_value=2))
def test_reported_windows_hold_for_every_completion(loop_dir, loop, eps_order):
    schema, degree, budget, loops = loop
    paths = []
    for i, doc in enumerate(loops):
        path = loop_dir / f"loop-{i}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    common = ["--schema", schema, "--max-degree", str(degree)]

    code, pair = run_cli(["birkhoff", paths[0], *common])
    completed = [run_cli(["birkhoff", path, *common]) for path in paths[1:]]
    assert all(c == 0 for c, _ in completed)
    under = min(value["truncation"] for value in loops[0]["values"].values()) < budget
    assert (code, pair) == ((2, None) if under else (0, pair))
    exact = {"coeffs": {}, "truncation": None}
    for side in ("phiMinus", "phiPlus") if pair else ():
        for name, value in pair[side]["values"].items():
            others = [other[side]["values"].get(name, exact) for _, other in completed]
            window = value["truncation"]
            exponents = {int(k) for v in [value, *others] for k in v["coeffs"]}
            for k in exponents:
                if window is None or k <= window:
                    want = series_coefficient(value, k)
                    assert all(series_coefficient(v, k) == want for v in others), (side, name, k)
            if window is not None:
                past = {series_coefficient(v, window + 1) for v in others}
                event(f"{side} past the window: {'differs' if len(past) > 1 else 'agrees'}")

    code, report = run_cli(["rg-check", paths[0], *common, "--eps-order", str(eps_order)])
    completed = [run_cli(["rg-check", path, *common, "--eps-order", str(eps_order)]) for path in paths[1:]]
    assert all(c in (0, 1) for c, _ in completed)
    if code == 2:  # a window below eps^0: nothing is reported
        event("rg-check: window below 0")
        return
    # Every monomial's window reaches eps^0, so every witness and flow entry is inside it.
    for _, other in completed:
        assert (other["witnesses"], other["flow"]) == (report["witnesses"], report["flow"])
    event("rg-check: compared")


# The same for the commands that print values built on products of the input:
# ``convolve`` of two characters, ``exp`` and ``log``.  Each input value has a
# pole of order up to 2 and is truncated at -2..3; every printed coefficient
# inside a window must be the one printed for every completion, and a run that
# every completion passes is not refused as failed verification.  ``convolve``
# is drawn half the time besides its share: its two inputs have independent
# windows, so there the window of a product of values can be the one that binds.

VALUE_COMMANDS = {"convolve": ("character", 2), "exp": ("infinitesimal", 1), "log": ("character", 1)}


@st.composite
def completed_functionals(draw, schemas=COMPLETION_SCHEMAS):
    """(command, schema, degree, [truncated input, three completions]), each
    entry the list of the command's input documents."""
    command = draw(st.one_of(st.just("convolve"), st.sampled_from(sorted(VALUE_COMMANDS))))
    kind, count = VALUE_COMMANDS[command]
    schema = draw(st.sampled_from(sorted(schemas)))
    degree = draw(st.integers(min_value=1, max_value=schemas[schema]))
    gens = HopfAlgebra(cli.resolve_schema(schema), validate_to=0).schema.generators_up_to(degree)
    runs = [[], [], [], []]
    for _ in range(count):
        values = [{}, {}, {}, {}]
        for g in gens:
            trunc = draw(st.integers(min_value=-2, max_value=3))
            coeffs = draw(st.dictionaries(st.integers(min_value=-2, max_value=trunc), completion_coefficients,
                                          max_size=3))
            values[0][g.name] = {"truncation": trunc, "coeffs": {str(k): str(v) for k, v in coeffs.items()}}
            for completion in values[1:]:
                tail = draw(st.dictionaries(st.integers(min_value=trunc + 1, max_value=trunc + 3),
                                            completion_coefficients, max_size=3))
                completion[g.name] = {"truncation": None,
                                      "coeffs": {str(k): str(v) for k, v in {**coeffs, **tail}.items()}}
        for docs, v in zip(runs, values):
            docs.append({"kind": kind, "ring": "laurent", "values": v})
    return command, schema, degree, runs


@settings(max_examples=80, deadline=None)
@given(case=completed_functionals())
def test_printed_values_hold_for_every_completion(loop_dir, case):
    command, schema, degree, runs = case
    outputs = []
    for i, docs in enumerate(runs):
        paths = []
        for j, doc in enumerate(docs):
            path = loop_dir / f"{command}-{i}-{j}.json"
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        outputs.append(run_cli([command, *paths, "--schema", schema, "--max-degree", str(degree)]))
    (code, printed), completed = outputs[0], outputs[1:]
    assert all(c == 0 for c, _ in completed)
    if code != 0:  # refused: nothing is printed
        assert (code, printed) == (2, None)
        event(f"{command}: refused")
        return
    exact = {"coeffs": {}, "truncation": None}
    for name, value in printed["values"].items():
        others = [other["values"].get(name, exact) for _, other in completed]
        window = value["truncation"]
        for k in {int(k) for v in [value, *others] for k in v["coeffs"]}:
            if window is None or k <= window:
                want = series_coefficient(value, k)
                assert all(series_coefficient(v, k) == want for v in others), (command, name, k)
        if window is not None:
            past = {series_coefficient(v, window + 1) for v in others}
            event(f"{command} past the window: {'differs' if len(past) > 1 else 'agrees'}")
    for _, other in completed:  # a completion prints no value the truncated run leaves out
        assert other["values"].keys() <= printed["values"].keys()


# ``beta`` of a loop and ``scattering`` of a beta-function print only exact
# rationals and verdicts: the residues d_n and beta, read off the eps^-1
# coefficients, and the orders whose finite-time limits match the tower.  So
# on a truncated input a run either prints exactly what every completion
# prints, or is refused (exit 2) for a window that does not reach eps^-1; it
# never fails verification (exit 1) where every completion passes.  The values
# are truncated at -1..1, where the window of a product of two of them can end
# just below eps^-1, and every completion has a nonzero coefficient just past
# each truncation.  The degree is at least 2, so that products are read.

RG_INPUTS = [("beta", "character"), ("beta", "infinitesimal"), ("scattering", "infinitesimal")]
# Larger than COMPLETION_SCHEMAS, which the two tests above keep because at
# these sizes they would take seconds longer.
RG_COMPLETION_SCHEMAS = {"ladder": 6, "trees:5": 5}


@st.composite
def completed_rg_inputs(draw, schemas=RG_COMPLETION_SCHEMAS):
    """(argv, [truncated input, three completions]) of ``beta`` or ``scattering``;
    the first generator's value has a pole."""
    command, kind = draw(st.one_of(st.just(("beta", "character")), st.sampled_from(RG_INPUTS)))
    schema = draw(st.sampled_from(sorted(schemas)))
    degree = draw(st.integers(min_value=2, max_value=schemas[schema]))
    order = draw(st.integers(min_value=1, max_value=degree))
    gens = HopfAlgebra(cli.resolve_schema(schema), validate_to=0).schema.generators_up_to(degree)
    values = [{}, {}, {}, {}]
    for i, g in enumerate(gens):
        trunc = draw(st.integers(min_value=-1, max_value=1))
        coeffs = draw(st.dictionaries(st.integers(min_value=-2, max_value=trunc), completion_coefficients,
                                      max_size=3))
        if i == 0:
            coeffs[draw(st.sampled_from([-2, -1]))] = 1
        values[0][g.name] = {"truncation": trunc, "coeffs": {str(k): str(v) for k, v in coeffs.items()}}
        for completion in values[1:]:
            tail = draw(st.dictionaries(st.integers(min_value=trunc + 2, max_value=trunc + 3),
                                        completion_coefficients, max_size=2))
            tail[trunc + 1] = draw(completion_coefficients)
            completion[g.name] = {"truncation": None,
                                  "coeffs": {str(k): str(v) for k, v in {**coeffs, **tail}.items()}}
    docs = [{"kind": kind, "ring": "laurent", "values": v} for v in values]
    return [command, "--schema", schema, "--max-degree", str(degree), "--max-order", str(order)], docs


@settings(max_examples=60, deadline=None)
@given(case=completed_rg_inputs())
def test_beta_and_scattering_print_what_every_completion_prints(loop_dir, case):
    argv, docs = case
    outputs = []
    for i, doc in enumerate(docs):
        path = loop_dir / f"{argv[0]}-{i}.json"
        path.write_text(json.dumps(doc))
        outputs.append(run_cli([argv[0], str(path), *argv[1:]]))
    (code, printed), completed = outputs[0], outputs[1:]
    what = f"{argv[0]} ({docs[0]['kind']})"
    if code == 2:  # refused: nothing is printed
        assert printed is None
        agree = len({json.dumps(p) for _, p in completed}) == 1
        event(f"{what}: refused, the completions {'agree' if agree else 'differ'}")
        return
    assert all(other == (code, printed) for other in completed)
    event(f"{what}: exit {code}")


# The binomial draw: the three tests above on two custom schemas, the binomial
# ladder D x_m = sum_k C(m, k) x_k (x) x_(m-k) and its rescaling y_m = m x_m,
# whose structure constants are Fractions (9/2 at m = 3, k = 1).  The built-in
# schemas have int coefficients only, so here the Fraction paths of the Laurent
# kernel meet truncated inputs.


@pytest.fixture(scope="module")
def binomial_selectors(tmp_path_factory):
    root = tmp_path_factory.mktemp("binomial")
    selectors = []
    for name, data in (("binomial", binomial_schema()), ("rescaled", rescaled_binomial_schema(6))):
        path = root / f"{name}.json"
        path.write_text(json.dumps(data))
        selectors.append(f"custom:{path}")
    return selectors


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_binomial_windows_hold_for_every_completion(loop_dir, binomial_selectors, data):
    loop = data.draw(completed_loops(dict.fromkeys(binomial_selectors, 5)))
    eps_order = data.draw(st.integers(min_value=0, max_value=2))
    test_reported_windows_hold_for_every_completion.hypothesis.inner_test(loop_dir, loop, eps_order)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_binomial_values_hold_for_every_completion(loop_dir, binomial_selectors, data):
    case = data.draw(completed_functionals(dict.fromkeys(binomial_selectors, 5)))
    test_printed_values_hold_for_every_completion.hypothesis.inner_test(loop_dir, case)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_binomial_beta_and_scattering_print_what_every_completion_prints(loop_dir, binomial_selectors, data):
    case = data.draw(completed_rg_inputs(dict.fromkeys(binomial_selectors, 6)))
    test_beta_and_scattering_print_what_every_completion_prints.hypothesis.inner_test(loop_dir, case)
