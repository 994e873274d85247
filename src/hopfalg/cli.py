"""Command-line surface: schema selection, element/functional I/O, reports.

Exit codes form the contract CI consumes: 0 on success, 1 when an internal
verification fails (axiom suite, reconstruction, specialness), 2 on input,
parse or schema errors; diagnostics name the violated invariant.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .axioms import verify_axioms
from .birkhoff import (
    beta_data,
    birkhoff_decompose,
    build_special_loop,
    rg_limit_check,
    scattering_check,
)
from .duals import (
    NOT_MULTIPLICATIVE,
    Character,
    InfinitesimalCharacter,
    TableFunctional,
    convolve_tables,
    exp_star,
    log_star,
    materialize,
    tabulate,
)
from .errors import HopfError, TruncationError, VerificationError
from .exprparse import parse_element
from .hopf import HopfAlgebra
from .instances import enumerate_trees, ladder_schema, load_schema, rooted_tree_schema
from .rings import QQ, PolynomialRing
from .serialize import (
    canonical_dumps,
    element_to_json,
    functional_to_json,
    load_functional,
    tensor_to_json,
)
from .suites import birkhoff_suite, dual_convolution_suite

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


def resolve_schema(selector: str):
    if selector == "ladder":
        return ladder_schema()
    if selector.startswith("trees:"):
        try:
            n = int(selector.split(":", 1)[1])
        except ValueError:
            raise HopfError(f"bad tree cutoff in schema selector {selector!r}") from None
        return rooted_tree_schema(n)
    if selector.startswith("custom:"):
        return load_schema(selector.split(":", 1)[1])
    if selector == "custom":
        path = os.environ.get("HOPF_SCHEMA_PATH")
        if not path:
            raise HopfError(
                "schema selector 'custom' needs HOPF_SCHEMA_PATH in the environment"
            )
        return load_schema(path)
    raise HopfError(
        f"unknown schema selector {selector!r}; expected ladder, trees:<n> or custom:<path>"
    )


def build_context(args) -> HopfAlgebra:
    schema = resolve_schema(args.schema)
    validate_to = None if schema.max_degree is not None else max(args.max_degree, 1)
    return HopfAlgebra(schema, validate_to=validate_to)


def emit(args, payload: dict, text: str = None) -> None:
    if args.output == "text" and text is not None:
        sys.stdout.write(text + "\n")
    else:
        sys.stdout.write(canonical_dumps(payload))


def read_expression(ctx, args):
    if args.expr is not None:
        return parse_element(ctx, args.expr)
    with open(args.file, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    from .serialize import element_from_json

    return element_from_json(ctx, data)


# -- commands -------------------------------------------------------------------


def cmd_coproduct(args) -> int:
    ctx = build_context(args)
    h = read_expression(ctx, args)
    result = ctx.coproduct(h)
    emit(args, tensor_to_json(result), str(result))
    return EXIT_OK


def cmd_antipode(args) -> int:
    ctx = build_context(args)
    h = read_expression(ctx, args)
    result = ctx.antipode(h)
    emit(args, element_to_json(result), str(result))
    return EXIT_OK


def cmd_convolve(args) -> int:
    ctx = build_context(args)
    f = load_functional(ctx, args.functionals[0])
    g = load_functional(ctx, args.functionals[1])
    f._check_compatible(g)
    basis = ctx.basis_up_to(args.max_degree)
    table = convolve_tables(ctx, f.ring, tabulate(f, basis), tabulate(g, basis), basis)
    if isinstance(f, Character) and isinstance(g, Character):
        result = materialize(ctx, f.ring, table, args.max_degree, failure=NOT_MULTIPLICATIVE)
    else:
        result = TableFunctional(ctx, f.ring, table)
    emit(args, functional_to_json(result))
    return EXIT_OK


def cmd_exp(args) -> int:
    ctx = build_context(args)
    z = load_functional(ctx, args.functional)
    if not isinstance(z, InfinitesimalCharacter):
        raise HopfError("exp expects an infinitesimal-character file")
    result = exp_star(z, args.max_degree)
    emit(args, functional_to_json(result))
    return EXIT_OK


def cmd_log(args) -> int:
    ctx = build_context(args)
    chi = load_functional(ctx, args.functional)
    if not isinstance(chi, Character):
        raise HopfError("log expects a character file")
    result = log_star(chi, args.max_degree)
    emit(args, functional_to_json(result))
    return EXIT_OK


def cmd_birkhoff(args) -> int:
    ctx = build_context(args)
    phi = load_functional(ctx, args.functional)
    if not isinstance(phi, Character):
        raise HopfError("birkhoff expects a Laurent-valued character file")
    try:
        pair = birkhoff_decompose(ctx, phi, args.max_degree)
    except VerificationError as exc:
        emit(
            args,
            {"passed": False, "error": str(exc), "witness": exc.witness},
            f"verification failed: {exc}",
        )
        return EXIT_VERIFICATION
    payload = {
        "phiMinus": functional_to_json(pair.phi_minus()),
        "phiPlus": functional_to_json(pair.phi_plus()),
        "report": pair.report,
    }
    emit(args, payload)
    return EXIT_OK


def cmd_beta(args) -> int:
    # Reads the eps-expansion of exactly the functional in the file (pass the
    # loop itself, or the counterterm part of a Birkhoff pair).
    ctx = build_context(args)
    phi = load_functional(ctx, args.functional)
    max_order = args.max_order or args.max_degree
    data = beta_data(ctx, phi, max_order, args.max_degree)
    payload = {
        "beta": functional_to_json(data.beta),
        "d": {
            str(n): functional_to_json(data.d(n)) for n in range(1, max_order + 1)
        },
        "maxOrder": data.max_order,
        "certifiedOrder": data.max_degree,
        "violations": data.violations,
        "passed": data.passed,
    }
    emit(args, payload)
    return EXIT_OK if data.passed else EXIT_VERIFICATION


def cmd_build_loop(args) -> int:
    ctx = build_context(args)
    beta = load_functional(ctx, args.functional)
    if not isinstance(beta, InfinitesimalCharacter):
        raise HopfError("build-loop expects an infinitesimal-character file")
    max_order = max(args.max_order or args.max_degree, args.max_degree)
    loop = build_special_loop(ctx, beta, max_order, args.max_degree)
    emit(args, functional_to_json(loop))
    return EXIT_OK


def cmd_rg_check(args) -> int:
    ctx = build_context(args)
    phi = load_functional(ctx, args.functional)
    if not isinstance(phi, Character):
        raise HopfError("rg-check expects a Laurent-valued character file")
    report = rg_limit_check(ctx, phi, args.max_degree, eps_margin=args.eps_order)
    poly_t = PolynomialRing(QQ, "t")
    flow = {
        str(m): poly_t.value_to_json(p)
        for m, p in sorted(report.flow_table.items(), key=lambda kv: kv[0].sort_key())
    }
    payload = {
        "special": report.special,
        "witnesses": report.witnesses,
        "certifiedOrder": report.certified_order,
        "maxDegree": report.max_degree,
        "flow": flow,
        "beta": functional_to_json(report.beta),
        "flowAdditive": report.flow_additive,
        "flowIsExponential": report.flow_is_exponential,
        "residueIdentity": report.residue_identity,
        "betaMatchesResidue": report.beta_matches_residue,
        "passed": report.passed,
    }
    text = (
        f"special: {report.special}"
        + ("" if report.special else f", witness {report.witnesses[0]['monomial']}")
    )
    emit(args, payload, text)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def cmd_scattering(args) -> int:
    ctx = build_context(args)
    beta = load_functional(ctx, args.functional)
    if not isinstance(beta, InfinitesimalCharacter):
        raise HopfError("scattering expects an infinitesimal-character file")
    max_order = args.max_order or min(args.max_degree, 3)
    report = scattering_check(ctx, beta, max_order, args.max_degree)
    payload = {
        "maxOrder": report.max_order,
        "maxDegree": report.max_degree,
        "orders": report.orders,
        "passed": report.passed,
    }
    emit(args, payload)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def cmd_verify(args) -> int:
    schema = resolve_schema(args.schema)
    axiom_report = verify_axioms(schema, args.max_degree)
    payload = {
        "axioms": axiom_report.to_json(),
        "passed": axiom_report.passed,
    }
    if axiom_report.passed:
        ctx = HopfAlgebra(schema, validate_to=0)
        dual = dual_convolution_suite(ctx, args.max_degree, args.seed)
        renorm = birkhoff_suite(ctx, args.max_degree, args.seed)
        payload["dualConvolution"] = dual.to_json()
        payload["birkhoff"] = renorm.to_json()
        payload["passed"] = axiom_report.passed and dual.passed and renorm.passed
    if args.output == "text":
        lines = []
        for check in axiom_report.checks:
            status = "pass" if check.passed else f"FAIL ({check.counterexample})"
            lines.append(f"{check.name}: {status}")
        lines.append(f"overall: {'pass' if payload['passed'] else 'FAIL'}")
        emit(args, payload, "\n".join(lines))
    else:
        emit(args, payload)
    return EXIT_OK if payload["passed"] else EXIT_VERIFICATION


def cmd_enumerate_trees(args) -> int:
    trees = enumerate_trees(args.vertices)
    payload = {
        "vertices": args.vertices,
        "count": len(trees),
        "trees": [t.encoding() for t in trees],
    }
    emit(args, payload, " ".join(t.encoding() for t in trees))
    return EXIT_OK


# -- argument plumbing ---------------------------------------------------------------


def add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--schema",
        default=os.environ.get("HOPF_SCHEMA_PATH") and "custom" or "ladder",
        help="ladder | trees:<maxVertices> | custom:<path> (default: ladder, "
        "or custom via HOPF_SCHEMA_PATH)",
    )
    parser.add_argument("--max-degree", type=int, default=4, metavar="N")
    parser.add_argument(
        "--eps-order",
        type=int,
        default=1,
        metavar="N",
        help="extra positive series orders to certify",
    )
    parser.add_argument("--seed", type=int, default=0, metavar="N")
    parser.add_argument("--output", choices=("json", "text"), default="json")


def add_expression_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--expr", help="element expression, e.g. 't1^2*t2 + 3*t3'")
    group.add_argument("--file", help="element JSON file")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfalg",
        description="Exact coproducts, antipodes, convolution calculus and "
        "Birkhoff renormalization on graded connected Hopf algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coproduct", help="coproduct of an element")
    add_common(p)
    add_expression_args(p)
    p.set_defaults(fn=cmd_coproduct)

    p = sub.add_parser("antipode", help="antipode of an element")
    add_common(p)
    add_expression_args(p)
    p.set_defaults(fn=cmd_antipode)

    p = sub.add_parser("convolve", help="convolution of two functionals")
    add_common(p)
    p.add_argument("functionals", nargs=2, metavar="FUNCTIONAL_JSON")
    p.set_defaults(fn=cmd_convolve)

    p = sub.add_parser("exp", help="convolution exponential of an infinitesimal")
    add_common(p)
    p.add_argument("functional", metavar="Z_JSON")
    p.set_defaults(fn=cmd_exp)

    p = sub.add_parser("log", help="convolution logarithm of a character")
    add_common(p)
    p.add_argument("functional", metavar="CHI_JSON")
    p.set_defaults(fn=cmd_log)

    p = sub.add_parser("birkhoff", help="Birkhoff decomposition of a Laurent character")
    add_common(p)
    p.add_argument("functional", metavar="PHI_JSON")
    p.set_defaults(fn=cmd_birkhoff)

    p = sub.add_parser(
        "beta",
        help="residue, beta-function and pole tower of a Laurent character "
        "(pass the loop, or the counterterm part of a Birkhoff pair)",
    )
    add_common(p)
    p.add_argument("functional", metavar="PHI_JSON")
    p.add_argument("--max-order", type=int, default=0, metavar="N")
    p.set_defaults(fn=cmd_beta)

    p = sub.add_parser("build-loop", help="assemble the loop with a given beta-function")
    add_common(p)
    p.add_argument("functional", metavar="BETA_JSON")
    p.add_argument("--max-order", type=int, default=0, metavar="N")
    p.set_defaults(fn=cmd_build_loop)

    p = sub.add_parser("rg-check", help="specialness and scale-flow limit of a loop")
    add_common(p)
    p.add_argument("functional", metavar="PHI_JSON")
    p.set_defaults(fn=cmd_rg_check)

    p = sub.add_parser("scattering", help="finite-time limit certification of the tower")
    add_common(p)
    p.add_argument("functional", metavar="BETA_JSON")
    p.add_argument("--max-order", type=int, default=0, metavar="N")
    p.set_defaults(fn=cmd_scattering)

    p = sub.add_parser("verify", help="run the axiom and property suites")
    add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("enumerate-trees", help="rooted trees with n vertices")
    add_common(p)
    p.add_argument("vertices", type=int, metavar="N")
    p.set_defaults(fn=cmd_enumerate_trees)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except TruncationError as exc:
        diagnostic = {"error": "TruncationError", "message": str(exc)}
        if exc.required_order is not None:
            diagnostic["requiredOrder"] = exc.required_order
        sys.stderr.write(canonical_dumps(diagnostic))
        return EXIT_INPUT
    except VerificationError as exc:
        sys.stderr.write(
            canonical_dumps(
                {"error": "VerificationError", "message": str(exc), "witness": exc.witness}
            )
        )
        return EXIT_VERIFICATION
    except HopfError as exc:
        sys.stderr.write(
            canonical_dumps({"error": type(exc).__name__, "message": str(exc)})
        )
        return EXIT_INPUT
    except OSError as exc:
        sys.stderr.write(canonical_dumps({"error": "OSError", "message": str(exc)}))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
