"""Seeded inputs, job lists and output checks for the three workloads.

``build(workload, seed, outdir)`` writes every input file a workload's jobs
read and returns the jobs.  The same (workload, seed) gives byte-identical
files; the program only ever sees those files and the argv.

Every check parses the job's output and compares values with ``oracles``,
which never calls the engine.  Verify reports, which have no closed form,
are compared with the check lists the engine printed at the benchmark's first
commit (every check present and passed).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional

from . import oracles as O

WORKLOADS = ("dual", "birkhoff", "verify")

# Check names a verify report carries, as printed by the engine at the
# benchmark's first commit.  They do not depend on the schema or the seed.
AXIOM_CHECKS = (
    "schema-structure CDelta Am Ae Ceps Bm Be Beps Bepse H Hm HDelta He Heps Hp "
    "grading-product grading-coproduct Y-derivation Y-coderivation "
    "theta-algebra-map theta-coalgebra-map progressive S-commutes-Y "
    "S-commutes-theta primitive-elements group-like-sanity"
).split()
DUAL_SUITE_CHECKS = (
    "convolution-associative convolution-unit character-inverse "
    "character-classification nilpotence permanent-formula "
    "vanishing-on-long-products exp-log-round-trip grading-transpose-derivation "
    "dual-metric"
).split()
BIRKHOFF_SUITE_CHECKS = (
    "rota-baxter-identity birkhoff-decomposition tower-consistency "
    "rg-closed-loop scattering-limit non-special-detected"
).split()


@dataclass
class Job:
    """One CLI invocation and the check its result must pass.

    ``check(code, stdout, stderr)`` returns None when the verdict is right and
    a one-line reason otherwise.  ``needs`` names an earlier job of the same
    pass whose checked output this job reads; ``extract`` = (key, path) saves
    one field of this job's checked JSON output for a later job.
    """

    name: str
    argv: List[str]
    degree: int
    check: Callable[[int, str, str], Optional[str]]
    suite_degree: Optional[int] = None
    needs: Optional[str] = None
    extract: Optional[tuple] = None


@dataclass
class Workload:
    name: str
    seed: int
    jobs: List[Job] = field(default_factory=list)
    contexts: dict = field(default_factory=dict)  # schema selector -> validation degree

    def add(self, job: Job, schema: str) -> None:
        self.jobs.append(job)
        self.contexts[schema] = max(self.contexts.get(schema, 0), job.degree)


# -- value generation ---------------------------------------------------------------


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))


def _laurent_json(coeffs: dict, trunc: Optional[int]) -> dict:
    coeffs = {k: v for k, v in coeffs.items() if v != 0}
    return {
        "minExp": min(coeffs) if coeffs else 0,
        "truncation": trunc,
        "coeffs": {str(k): str(v) for k, v in sorted(coeffs.items())},
    }


def _functional_json(kind: str, values: dict, ring: str = "rational") -> dict:
    encode = str if ring == "rational" else (lambda v: v)
    return {"kind": kind, "ring": ring, "values": {g: encode(v) for g, v in values.items()}}


def _write(path: str, payload: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def _structure(schema: str, degree: int):
    if schema == "ladder":
        return O.ladder_structure(degree)
    if schema.startswith("trees:"):
        cuts, deg = O.tree_structure(int(schema.split(":")[1]))
    else:
        cuts, deg = O.ladder_structure(BINOMIAL_DEGREE, binomial=True, prefix="x")
    keep = {g for g, d in deg.items() if d <= degree}
    return {g: cuts[g] for g in keep}, {g: deg[g] for g in keep}


# -- output parsing ---------------------------------------------------------------------


def _json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def _values(data, kind: str) -> Optional[dict]:
    if not isinstance(data, dict) or data.get("kind") != kind:
        return None
    return data.get("values", {})


def _laurent(raw) -> O.Poly:
    return O.Poly({int(k): Fraction(v) for k, v in raw["coeffs"].items()})


def _monomial_key(text: str) -> tuple:
    """Engine monomial string ("t1^2*t3", "[]*[[]]", "1") -> sorted powers."""
    if text == "1":
        return ()
    powers = {}
    for part in text.split("*"):
        name, _, exp = part.partition("^")
        powers[name] = powers.get(name, 0) + int(exp or 1)
    return tuple(sorted(powers.items()))


def _compare(got: dict, expected: dict, what: str) -> Optional[str]:
    """Values keyed alike; a key missing on either side reads as zero."""
    for key in set(got) | set(expected):
        if got.get(key, 0) != expected.get(key, 0):
            return f"{what} wrong on {key}: got {got.get(key, 0)}, expected {expected.get(key, 0)}"
    return None


def _expect_exit(code: int, wanted: int) -> Optional[str]:
    return None if code == wanted else f"exit code {code}, expected {wanted}"


def _rational_values(raw: dict) -> dict:
    return {g: Fraction(v) for g, v in raw.items()}


def _check_rational_functional(kind: str, expected: dict):
    def check(code, out, err):
        bad = _expect_exit(code, 0)
        if bad:
            return bad
        got = _values(_json(out), kind)
        if got is None:
            return f"output is not a {kind}"
        return _compare(_rational_values(got), expected, kind)

    return check


def _check_table(expected: dict):
    def check(code, out, err):
        bad = _expect_exit(code, 0)
        if bad:
            return bad
        got = _values(_json(out), "table")
        if got is None:
            return "output is not a table"
        got = {_monomial_key(k): Fraction(v) for k, v in got.items()}
        return _compare(got, expected, "table")

    return check


# -- workload: dual ---------------------------------------------------------------------


def _dual(w: Workload, rng: random.Random, outdir: str) -> None:
    def gen_values(schema, degree):
        _, deg = _structure(schema, degree)
        return {g: _rational(rng) for g in O.generators_in_order(deg)}

    def series(values, degree):
        return [Fraction(0)] + [values.get(f"t{n}", Fraction(0)) for n in range(1, degree + 1)]

    def ladder_dict(seq):
        return {f"t{n}": seq[n] for n in range(1, len(seq))}

    def path(name):
        return os.path.join(outdir, name + ".json")

    # Five degree-6 jobs of near-equal cost sit where the tail percentile falls,
    # so job_tail_s reads inside a block of like samples, not across a gap
    # between job kinds; they also put the median between the two trees:6
    # exp jobs, which cost about the same.
    for i, d in enumerate((5, 6, 6, 6, 6, 6, 7)):
        z = gen_values("ladder", d)
        name = f"exp-ladder-d{d}-{i}"
        f = _write(path(name + ".z"), _functional_json("infinitesimal", z))
        expected = ladder_dict(O.series_exp(series(z, d), d))
        w.add(Job(name, ["exp", f, "--schema", "ladder", "--max-degree", str(d)], d,
                  _check_rational_functional("character", expected)), "ladder")
    d = 5
    chi = gen_values("ladder", d)
    f = _write(path("log-ladder-d5.chi"), _functional_json("character", chi))
    expected = ladder_dict(O.series_log([Fraction(1)] + series(chi, d)[1:], d))
    w.add(Job("log-ladder-d5", ["log", f, "--schema", "ladder", "--max-degree", "5"], d,
              _check_rational_functional("infinitesimal", expected)), "ladder")
    d = 7
    a, b = gen_values("ladder", d), gen_values("ladder", d)
    fa = _write(path("convolve-ladder-d7.a"), _functional_json("character", a))
    fb = _write(path("convolve-ladder-d7.b"), _functional_json("character", b))
    one = [Fraction(1)]
    expected = ladder_dict(O.series_mul(one + series(a, d)[1:], one + series(b, d)[1:], d))
    w.add(Job("convolve-ladder-d7", ["convolve", fa, fb, "--schema", "ladder", "--max-degree", "7"], d,
              _check_rational_functional("character", expected)), "ladder")

    # Four trees:6 exp jobs of near-equal cost straddle the median of the pass,
    # so job_p50_s reads inside a block of like samples too.
    trees = "trees:6"
    d = 5
    cuts, deg = _structure(trees, d)
    for i in range(3):
        z = gen_values(trees, d)
        name = f"exp-trees6-d5-{i}"
        f = _write(path(name + ".z"), _functional_json("infinitesimal", z))
        expected = {g: p.at_one() for g, p in O.flow(cuts, deg, z).items()}
        w.add(Job(name, ["exp", f, "--schema", trees, "--max-degree", "5"], d,
                  _check_rational_functional("character", expected)), trees)
    # exp of the one-vertex indicator is the exact flow: 1/gamma(t).
    f = _write(path("exp-trees6-d5-bullet.z"), _functional_json("infinitesimal", {"[]": Fraction(1)}))
    expected = {
        O.tree_encoding(t): Fraction(1, O.tree_factorial(t)) for t in O.trees_up_to(d)
    }
    w.add(Job("exp-trees6-d5-bullet", ["exp", f, "--schema", trees, "--max-degree", "5"], d,
              _check_rational_functional("character", expected)), trees)
    chi = gen_values(trees, d)
    f = _write(path("log-trees6-d5.chi"), _functional_json("character", chi))
    w.add(Job("log-trees6-d5", ["log", f, "--schema", trees, "--max-degree", "5"], d,
              _check_rational_functional("infinitesimal", O.log_from_flow(cuts, deg, chi))), trees)

    d = 6
    cuts, deg = _structure(trees, d)
    a, b, z = gen_values(trees, d), gen_values(trees, d), gen_values(trees, d)
    fa = _write(path("convolve-trees6-d6.a"), _functional_json("character", a))
    fb = _write(path("convolve-trees6-d6.b"), _functional_json("character", b))
    fz = _write(path("convolve-trees6-d6.z"), _functional_json("infinitesimal", z))
    w.add(Job("convolve-trees6-d6-chars", ["convolve", fa, fb, "--schema", trees, "--max-degree", "6"], d,
              _check_rational_functional("character", O.char_convolution(cuts, deg, a, b))), trees)
    table = O.character_after_infinitesimal_table(cuts, deg, a, z, d)
    w.add(Job("convolve-trees6-d6-mixed", ["convolve", fa, fz, "--schema", trees, "--max-degree", "6"], d,
              _check_table(table)), trees)

    for schema, d, tag in (("ladder", 6, "ladder-d6"), (trees, 5, "trees6-d5")):
        _closed_loop(w, schema, d, tag, outdir, gen_values(schema, d))

    # A loop with random higher poles is not special: rg-check must exit 1.
    d = 5
    _, deg = _structure("ladder", d)
    loop = {
        g: _laurent_json({k: _rational(rng) for k in range(-2, 1)}, None)
        for g in O.generators_in_order(deg)
    }
    f = _write(path("rg-check-nonspecial-ladder-d5.phi"), _functional_json("character", loop, "laurent"))

    def nonspecial(code, out, err):
        bad = _expect_exit(code, 1)
        if bad:
            return bad
        data = _json(out) or {}
        if data.get("special") is not False or not data.get("witnesses"):
            return "non-special loop not reported with a witness"
        return None

    w.add(Job("rg-check-nonspecial-ladder-d5", ["rg-check", f, "--schema", "ladder", "--max-degree", "5"], d,
              nonspecial), "ladder")


def _closed_loop(w, schema, d, tag, outdir, beta) -> None:
    """build-loop -> rg-check -> beta -> scattering, each reading checked output."""
    cuts, deg = _structure(schema, d)
    beta_file = _write(os.path.join(outdir, f"loop-{tag}.beta.json"), _functional_json("infinitesimal", beta))
    loop = O.special_loop(cuts, deg, beta)
    loop_file = os.path.join(outdir, f"build-loop-{tag}.out")
    rg_beta_file = os.path.join(outdir, f"rg-check-{tag}.beta.json")
    common = ["--schema", schema, "--max-degree", str(d)]
    monomials = O.monomials_up_to(deg, d)

    def loop_check(code, out, err):
        bad = _expect_exit(code, 0)
        if bad:
            return bad
        got = _values(_json(out), "character")
        if got is None:
            return "output is not a character"
        return _compare({g: _laurent(v) for g, v in got.items()}, loop, "loop")

    flows = O.flow(cuts, deg, beta)

    def rg_check(code, out, err):
        bad = _expect_exit(code, 0)
        if bad:
            return bad
        data = _json(out) or {}
        if data.get("special") is not True or data.get("passed") is not True:
            return "special loop not certified"
        got_beta = _values(data.get("beta"), "infinitesimal")
        bad = _compare(_rational_values(got_beta or {}), beta, "extracted beta")
        if bad:
            return bad
        # The limit flow is the character exp(t beta): a product of generator flows.
        expected = {(): O.Poly.const(1)}
        for m in monomials:
            expected[m] = O.prod((flows[g] for g in O.factors_of(m)), O.Poly.const(1))
        got = {
            _monomial_key(k): O.Poly({i: Fraction(c) for i, c in enumerate(v)})
            for k, v in (data.get("flow") or {}).items()
        }
        return _compare(got, expected, "flow")

    def beta_check(code, out, err):
        bad = _expect_exit(code, 0)
        if bad:
            return bad
        data = _json(out) or {}
        if data.get("passed") is not True:
            return "beta data not passed"
        bad = _compare(_rational_values(_values(data.get("beta"), "infinitesimal") or {}), beta, "beta")
        if bad:
            return bad
        values = {m: O.prod((loop[g] for g in O.factors_of(m)), O.Poly.const(1)) for m in monomials}
        for n in range(1, d + 1):
            got = _values((data.get("d") or {}).get(str(n)), "table")
            if got is None:
                return f"tower entry d_{n} missing"
            got = {_monomial_key(k): Fraction(v) for k, v in got.items()}
            expected = {m: v.c.get(-n, Fraction(0)) for m, v in values.items()}
            bad = _compare(got, expected, f"d_{n}")
            if bad:
                return bad
        return None

    def scattering_check(code, out, err):
        bad = _expect_exit(code, 0)
        if bad:
            return bad
        orders = (_json(out) or {}).get("orders") or []
        if [o.get("order") for o in orders] != list(range(1, min(d, 3) + 1)):
            return "scattering orders missing"
        if not all(o.get("passed") and not o.get("mismatches") for o in orders):
            return "scattering limit not certified"
        return None

    w.add(Job(f"build-loop-{tag}", ["build-loop", beta_file] + common, d, loop_check), schema)
    w.add(Job(f"rg-check-{tag}", ["rg-check", loop_file] + common, d, rg_check,
              needs=f"build-loop-{tag}", extract=("beta", rg_beta_file)), schema)
    w.add(Job(f"beta-{tag}", ["beta", loop_file, "--max-order", str(d)] + common, d, beta_check,
              needs=f"build-loop-{tag}"), schema)
    w.add(Job(f"scattering-{tag}", ["scattering", rg_beta_file] + common, d, scattering_check,
              needs=f"rg-check-{tag}"), schema)


# -- workload: birkhoff -------------------------------------------------------------------

# (schema, degree, pole order, truncated at the budget (d - 1) p)
BIRKHOFF_CASES = (
    ("ladder", 7, 3, False),
    ("ladder", 8, 2, True),
    ("ladder", 7, 3, True),
    ("ladder", 8, 1, False),
    ("ladder", 9, 1, False),
    ("ladder", 10, 1, True),
    ("trees:6", 6, 2, True),
    ("trees:6", 6, 3, False),
    ("trees:7", 7, 1, False),
    ("ladder", 8, 1, True),
)


def _birkhoff(w: Workload, rng: random.Random, outdir: str) -> None:
    for schema, d, p, truncated in BIRKHOFF_CASES:
        tag = f"{schema.replace(':', '')}-d{d}-p{p}-{'trunc' if truncated else 'exact'}"
        cuts, deg = _structure(schema, d)
        top = (d - 1) * p if truncated else 1
        phi = {}
        for g in O.generators_in_order(deg):
            coeffs = {k: _rational(rng) for k in range(-p, top + 1)}
            phi[g] = (coeffs, top if truncated else None)
        f = _write(os.path.join(outdir, f"birkhoff-{tag}.phi.json"),
                   _functional_json("character", {g: _laurent_json(*v) for g, v in phi.items()}, "laurent"))
        exact = {g: O.Poly(c) for g, (c, _) in phi.items()}
        if schema == "ladder":
            seq = [O.Poly.const(1)] + [exact[f"t{n}"] for n in range(1, d + 1)]
            minus_s, plus_s = O.ladder_birkhoff(seq, d)
            minus = {f"t{n}": minus_s[n] for n in range(1, d + 1)}
            plus = {f"t{n}": plus_s[n] for n in range(1, d + 1)}
        else:
            minus, plus = O.birkhoff_recursion(cuts, deg, exact)
        w.add(Job(f"birkhoff-{tag}", ["birkhoff", f, "--schema", schema, "--max-degree", str(d)], d,
                  _birkhoff_check(minus, plus)), schema)

    # One input truncated below the budget: rejected before any work, exit 2.
    d, p = 8, 2
    _, deg = _structure("ladder", d)
    required = (d - 1) * p
    values = {
        g: _laurent_json({k: _rational(rng) for k in range(-p, required)}, required - 1)
        for g in O.generators_in_order(deg)
    }
    f = _write(os.path.join(outdir, "birkhoff-under-budget.phi.json"),
               _functional_json("character", values, "laurent"))

    def under_budget(code, out, err):
        bad = _expect_exit(code, 2)
        if bad:
            return bad
        data = _json(err) or {}
        if data.get("requiredOrder") != required:
            return f"requiredOrder {data.get('requiredOrder')}, expected {required}"
        return None

    w.add(Job("birkhoff-ladder-under-budget", ["birkhoff", f, "--schema", "ladder", "--max-degree", str(d)],
              d, under_budget), "ladder")


def _birkhoff_check(minus: dict, plus: dict):
    """phi_- exactly; phi_+ on the window the engine reports as sound."""

    def check(code, out, err):
        bad = _expect_exit(code, 0)
        if bad:
            return bad
        data = _json(out) or {}
        if not (data.get("report") or {}).get("passed"):
            return "verification report not passed"
        got_minus = _values(data.get("phiMinus"), "character")
        got_plus = _values(data.get("phiPlus"), "character")
        if got_minus is None or got_plus is None:
            return "missing Birkhoff factors"
        bad = _compare({g: _laurent(v) for g, v in got_minus.items()}, minus, "phi_minus")
        if bad:
            return bad
        for g, want in plus.items():
            raw = got_plus.get(g)
            got = _laurent(raw) if raw else O.Poly()
            if not got.agrees_through(want, raw["truncation"] if raw else None):
                return f"phi_plus wrong on {g}"
        extra = set(got_plus) - set(plus)
        return f"phi_plus has unexpected generators {sorted(extra)}" if extra else None

    return check


# -- workload: verify ----------------------------------------------------------------------

BINOMIAL_DEGREE = 6
VERIFY_CASES = (
    ("ladder", 4), ("ladder", 5), ("ladder", 6), ("ladder", 6),
    ("trees:4", 4), ("trees:5", 5), ("trees:5", 5), ("trees:6", 6),
    ("binomial", 4), ("binomial", 5), ("binomial", 6),
)


def binomial_schema() -> dict:
    """The binomial ladder: D x_n = sum_k C(n, k) x_k (x) x_(n-k)."""
    cuts, deg = O.ladder_structure(BINOMIAL_DEGREE, binomial=True, prefix="x")
    return {
        "generators": [{"name": g, "degree": deg[g]} for g in O.generators_in_order(deg)],
        "reducedCoproduct": {
            g: [{"left": [[x, 1] for x in left], "right": right, "coeff": str(c)} for left, right, c in terms]
            for g, terms in cuts.items()
            if terms
        },
    }


def _verify(w: Workload, rng: random.Random, outdir: str) -> None:
    custom = "custom:" + _write(os.path.join(outdir, "binomial-schema.json"), binomial_schema())
    for i, (schema, d) in enumerate(VERIFY_CASES):
        selector = custom if schema == "binomial" else schema
        cli_seed = rng.randint(0, 10**6)
        tag = f"verify-{schema.replace(':', '')}-d{d}-{i}"
        w.add(Job(tag, ["verify", "--schema", selector, "--max-degree", str(d), "--seed", str(cli_seed)], d,
                  _verify_check, suite_degree=min(d, 4)), selector)


def _verify_check(code, out, err):
    bad = _expect_exit(code, 0)
    if bad:
        return bad
    data = _json(out) or {}
    if data.get("passed") is not True:
        return "verify did not pass"
    for section, names, key in (
        ("axioms", AXIOM_CHECKS, "axiom"),
        ("dualConvolution", DUAL_SUITE_CHECKS, "check"),
        ("birkhoff", BIRKHOFF_SUITE_CHECKS, "check"),
    ):
        checks = (data.get(section) or {}).get("checks") or []
        if [c.get(key) for c in checks] != names or not all(c.get("passed") for c in checks):
            return f"{section} checks differ from the recorded list or failed"
    return None


def reported_suite_degree(stdout: str) -> Optional[int]:
    """The degree a verify report claims for its suites (it may exceed the run)."""
    data = _json(stdout) or {}
    return (data.get("dualConvolution") or {}).get("maxDegree")


BUILDERS = {"dual": _dual, "birkhoff": _birkhoff, "verify": _verify}


def build(name: str, seed: int, outdir: str) -> Workload:
    """Write the seeded inputs of one workload under outdir and return its jobs."""
    os.makedirs(outdir, exist_ok=True)
    w = Workload(name, seed)
    BUILDERS[name](w, random.Random(f"{name}:{seed}"), outdir)
    return w
