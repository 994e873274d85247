"""Command-line surface: schema selection, element/functional I/O, reports.

Exit codes form the contract CI consumes: 0 on success, 1 when an internal
verification fails (axiom suite, reconstruction, specialness), 2 on input,
parse or schema errors; diagnostics name the violated invariant.  Each
command returns its payload, and ``main`` alone writes it: a payload with
``"passed": false`` exits 1.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import sys

from .errors import DomainError, HopfError, TruncationError, VerificationError, quoted

# Each command imports the engine modules it runs inside its own body, so a
# process loads only the code of the command it was started for.

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2

# The commands that run at no --max-degree below 1, checked in ``main`` before
# any input is read.  beta and scattering read their default --max-order off
# --max-degree, so for them the floor holds while --max-order is not set.
DEGREE_ONE_COMMANDS = frozenset({"exp", "birkhoff", "beta", "build-loop", "scattering", "verify"})

# The highest ``beta``/``scattering --max-order`` and ``rg-check --eps-order``,
# checked in ``main`` before any input is read (whole process, one core of a
# 2-core x86 machine).  Tower orders above --max-degree are zero, yet each
# builds a table over the basis: at this order, scattering of a ladder beta
# runs in 0.09 s at --max-degree 2 and 0.31 s at --max-degree 8.  The flow
# reads only the coefficients at eps^0 and below, so its time hardly grows with
# the order: a ladder loop of degree 6 runs in 0.09-0.12 s at --max-degree 3
# and 0.11-0.14 s at --max-degree 6, at this order as at 0.
MAX_ORDER = 100
MAX_EPS_ORDER = 100


def resolve_schema(selector: str):
    if selector == "ladder":
        from .instances import ladder_schema

        return ladder_schema()
    if selector.startswith("trees:"):
        from .trees import rooted_tree_schema

        try:
            return rooted_tree_schema(option_int(selector.split(":", 1)[1]))
        except argparse.ArgumentTypeError:
            raise HopfError(f"bad tree cutoff in schema selector {quoted(selector)}") from None
    if selector.startswith("custom:"):
        from .instances import load_schema

        return load_schema(selector.split(":", 1)[1])
    raise HopfError(
        f"unknown schema selector {quoted(selector)}; expected ladder, trees:<n> or custom:<path>"
    )


def option_int(text: str) -> int:
    """An integer option or tree cutoff, read by ``rationals`` (imported here, so ``cli`` loads alone)."""
    from .rationals import parse_integer

    try:
        n = parse_integer(text)
    except ValueError:  # past the interpreter's limit on the digits of an int
        n = None
    if n is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return n


def read_inputs(args, read):
    """The command's schema context and ``read(ctx)``, its inputs read on
    that context before the context is validated as ``HopfAlgebra(schema)``
    validates one, so that a bad input fails before any coproduct is built."""
    from .hopf import HopfAlgebra

    ctx = HopfAlgebra(resolve_schema(args.schema), validate_to=0)
    inputs = read(ctx)
    ctx.validate(max(args.max_degree, 1) if ctx.schema.max_degree is None and hasattr(args, "max_degree") else None)
    return ctx, inputs


def build_context(args):
    return read_inputs(args, lambda ctx: None)[0]


def read_expression(args):
    """The context and the element of --expr or --file, priced as it is read, before any coproduct is filled."""
    from .pricing import check_price, coproduct_term_bound

    def parse(ctx):
        if args.expr is not None:
            from .exprparse import parse_element

            h = parse_element(ctx, args.expr)
        else:
            from .serialize import element_from_json, read_json

            h = element_from_json(ctx, read_json(args.file, "element"))
        check_price(coproduct_term_bound(ctx, h), "coproducts")
        return h

    return read_inputs(args, parse)


def read_functionals(args) -> list:
    """The functionals of the command's files on one schema context, each
    checked against the command's input contract before any engine call."""
    from .serialize import load_functional

    kind, ring, noun = COMMANDS[args.command][2]

    def load(ctx, path):
        f = load_functional(ctx, path)
        if kind not in (ANY, f.kind):
            raise HopfError(f"{args.command} expects {noun} file")
        tag = f.ring.tag
        if ring not in (ANY, tag):
            raise HopfError(f"{args.command} expects {noun} file with ring {ring!r}, got {tag!r}")
        return f

    return read_inputs(args, lambda ctx: [load(ctx, path) for path in args.functional])[1]


# -- commands -------------------------------------------------------------------
# Each returns its payload, or a (payload, text) pair when it declares --output.


def cmd_coproduct(args):
    from .serialize import tensor_to_json

    ctx, h = read_expression(args)
    result = ctx.coproduct(h)
    return tensor_to_json(result), str(result)


def cmd_antipode(args):
    from .pricing import antipode_term_bound, check_price
    from .serialize import element_to_json

    ctx, h = read_expression(args)
    check_price(antipode_term_bound(ctx, h), "antipode")
    result = ctx.antipode(h)
    return element_to_json(result), str(result)


def cmd_convolve(args):
    from . import duals
    from .serialize import functional_to_json

    f, g = read_functionals(args)
    f._check_compatible(g)
    ctx = f.ctx
    basis = ctx.basis_up_to(args.max_degree)
    table = duals.convolve_tables(ctx, f.ring, f.tabulate(basis), g.tabulate(basis), basis)
    if f.kind == g.kind == duals.Character.kind:
        result = duals.materialize(ctx, f.ring, table, args.max_degree, failure=duals.NOT_MULTIPLICATIVE)
    else:
        result = duals.TableFunctional(ctx, f.ring, table)
    return functional_to_json(result)


def cmd_exp(args):
    from .duals import exp_star
    from .serialize import functional_to_json

    z, = read_functionals(args)
    return functional_to_json(exp_star(z, args.max_degree))


def cmd_log(args):
    from .duals import log_star
    from .serialize import functional_to_json

    chi, = read_functionals(args)
    return functional_to_json(log_star(chi, args.max_degree))


def cmd_birkhoff(args):
    from .birkhoff import birkhoff_decompose
    from .serialize import functional_to_json

    phi, = read_functionals(args)
    try:
        pair = birkhoff_decompose(phi, args.max_degree)
    except VerificationError as exc:
        return {"passed": False, "error": str(exc), "witness": exc.witness}
    return {
        "phiMinus": functional_to_json(pair.phi_minus()),
        "phiPlus": functional_to_json(pair.phi_plus()),
        "report": pair.report,
    }


def cmd_beta(args):
    # Reads the eps-expansion of exactly the functional in the file (pass the
    # loop itself, or the counterterm part of a Birkhoff pair).
    from .rg import beta_data
    from .serialize import functional_to_json

    phi, = read_functionals(args)
    max_order = args.max_order or args.max_degree
    data = beta_data(phi, max_order, args.max_degree)
    return {
        "beta": functional_to_json(data.beta),
        "d": {str(n): functional_to_json(data.d(n)) for n in range(1, max_order + 1)},
        "maxOrder": data.max_order,
        "certifiedOrder": data.max_degree,
        "violations": data.violations,
        "passed": data.passed,
    }


def cmd_build_loop(args):
    from .rg import build_special_loop
    from .serialize import functional_to_json

    beta, = read_functionals(args)
    return functional_to_json(build_special_loop(beta, args.max_degree))


def cmd_rg_check(args):
    from .polynomials import POLY_T
    from .rg import rg_limit_check
    from .serialize import functional_to_json

    phi, = read_functionals(args)
    report = rg_limit_check(phi, args.max_degree, eps_margin=args.eps_order)
    flow = {
        str(m): POLY_T.value_to_json(p)
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
    if report.check_witnesses:
        payload["checkWitnesses"] = report.check_witnesses
    return payload, f"special: {report.special}" + (
        "" if report.special else f", witness {report.witnesses[0]['monomial']}")


def cmd_scattering(args):
    from .rg import scattering_check

    beta, = read_functionals(args)
    max_order = args.max_order or min(args.max_degree, 3)
    report = scattering_check(beta, max_order, args.max_degree)
    return {"maxOrder": report.max_order, "maxDegree": report.max_degree, "orders": report.orders,
            "passed": report.passed}


def cmd_verify(args):
    from .axioms import verify_axioms
    from .hopf import HopfAlgebra
    from .suites import birkhoff_suite, dual_convolution_suite

    ctx = HopfAlgebra(resolve_schema(args.schema), validate_to=0)
    axiom_report = verify_axioms(ctx, args.max_degree)
    payload = {"axioms": axiom_report.to_json(), "passed": axiom_report.passed}
    if axiom_report.passed:
        dual = dual_convolution_suite(ctx, args.max_degree, args.seed)
        renorm = birkhoff_suite(ctx, args.max_degree, args.seed)
        payload["dualConvolution"] = dual.to_json()
        payload["birkhoff"] = renorm.to_json()
        payload["passed"] = dual.passed and renorm.passed
    lines = [f"{c.name}: {'pass' if c.passed else f'FAIL ({c.counterexample})'}" for c in axiom_report.checks]
    lines.append(f"overall: {'pass' if payload['passed'] else 'FAIL'}")
    return payload, "\n".join(lines)


def cmd_enumerate_trees(args):
    from .trees import enumerate_trees

    trees = [t.encoding() for t in enumerate_trees(args.vertices)]
    return {"vertices": args.vertices, "count": len(trees), "trees": trees}, " ".join(trees)


# -- argument plumbing ---------------------------------------------------------------


def join_dash_expressions(argv: list) -> list:
    """argv with each word after ``--expr`` that starts with one '-' joined
    to it, as ``--expr=-t2``: argparse would read ``-t2`` as an unknown flag.
    A word argparse reads as a flag still does: one that starts with '--',
    or with '-h', the one flag with a single dash."""
    out = []
    for word in argv:
        if out and out[-1] == "--expr" and word.startswith("-") and not word.startswith(("--", "-h")):
            out[-1] = "--expr=" + word
        else:
            out.append(word)
    return out


# The command table: name -> (help, every argument the command declares, the
# input contract of its functional files or None).  An argument is a (flag,
# add_argument keywords) pair, or ELEMENT for the --expr | --file group of an
# element input; a command declares only the options it reads.  A contract is
# (kind, ring tag, the noun its error message uses), where ANY accepts every
# kind or ring; ``read_functionals`` checks each file against it.  Each name
# runs cmd_<name with - as _>.
ELEMENT = "element"
ANY = "any"
# The two options of every command that builds a schema context; coproduct and antipode take only the first.
_SCHEMA = [("--schema", {"default": "ladder",
                         "help": "ladder | trees:<maxVertices> | custom:<path> (default: ladder)"}),
           ("--max-degree", {"type": option_int, "default": 4, "metavar": "N"})]
_EPS_ORDER = ("--eps-order", {"type": option_int, "default": 1, "metavar": "N",
                              "help": "extra positive series orders to certify"})
_SEED = ("--seed", {"type": option_int, "default": 0, "metavar": "N"})
_OUTPUT = ("--output", {"choices": ("json", "text"), "default": "json"})
_MAX_ORDER = ("--max-order", {"type": option_int, "default": 0, "metavar": "N"})


def _functional(metavar: str, nargs: int = 1) -> tuple:
    return ("functional", {"nargs": nargs, "metavar": metavar})


COMMANDS = {
    "coproduct": ("coproduct of an element", [_SCHEMA[0], _OUTPUT, ELEMENT], None),
    "antipode": ("antipode of an element", [_SCHEMA[0], _OUTPUT, ELEMENT], None),
    "convolve": ("convolution of two functionals", [*_SCHEMA, _functional("FUNCTIONAL_JSON", 2)],
                 (ANY, ANY, "a functional")),
    "exp": ("convolution exponential of an infinitesimal", [*_SCHEMA, _functional("Z_JSON")],
            ("infinitesimal", ANY, "an infinitesimal-character")),
    "log": ("convolution logarithm of a character", [*_SCHEMA, _functional("CHI_JSON")],
            ("character", ANY, "a character")),
    "birkhoff": ("Birkhoff decomposition of a Laurent character", [*_SCHEMA, _functional("PHI_JSON")],
                 ("character", "laurent", "a Laurent-valued character")),
    "beta": ("residue, beta-function and pole tower of a Laurent character "
             "(pass the loop, or the counterterm part of a Birkhoff pair)",
             [*_SCHEMA, _functional("PHI_JSON"), _MAX_ORDER],
             (ANY, "laurent", "a Laurent-valued functional")),
    "build-loop": ("build the loop of a beta-function on its generators",
                   [*_SCHEMA, _functional("BETA_JSON")],
                   ("infinitesimal", "rational", "an infinitesimal-character")),
    "rg-check": ("specialness and scale-flow limit of a loop",
                 [*_SCHEMA, _EPS_ORDER, _OUTPUT, _functional("PHI_JSON")],
                 ("character", "laurent", "a Laurent-valued character")),
    "scattering": ("finite-time limit certification of the tower",
                   [*_SCHEMA, _functional("BETA_JSON"), _MAX_ORDER],
                   ("infinitesimal", ANY, "an infinitesimal-character")),
    "verify": ("run the axiom and property suites", [*_SCHEMA, _SEED, _OUTPUT], None),
    "enumerate-trees": ("rooted trees with n vertices",
                        [_OUTPUT, ("vertices", {"type": option_int, "metavar": "N"})], None),
}


class _Parser(argparse.ArgumentParser):
    """Writes a usage error as a JSON diagnostic, with no usage text."""

    def error(self, message):
        from .serialize import canonical_dumps

        sys.stderr.write(canonical_dumps({"error": "UsageError", "message": message}))
        raise SystemExit(EXIT_INPUT)


def make_parser(command: str = None) -> argparse.ArgumentParser:
    """The parser of every command, or only of ``command`` when it names one.

    Each command's function is looked up when its subparser is built, so a
    wrapper installed on the module attribute runs in its place.
    """
    parser = _Parser(
        prog="hopfalg",
        description="Exact coproducts, antipodes, convolution calculus and "
        "Birkhoff renormalization on graded connected Hopf algebras.",
    )
    names = [command] if command in COMMANDS else list(COMMANDS)
    # With one subparser built, the usage line still lists every command.
    usage = None if len(names) > 1 else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=usage)
    for name in names:
        help_text, arguments, _ = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for argument in arguments:
            if argument == ELEMENT:
                group = p.add_mutually_exclusive_group(required=True)
                group.add_argument("--expr", help="element expression, e.g. 't1^2*t2 + 3*t3'")
                group.add_argument("--file", help="element JSON file")
            else:
                flag, kwargs = argument
                p.add_argument(flag, **kwargs)
        p.set_defaults(fn=globals()["cmd_" + name.replace("-", "_")])
    return parser


@functools.cache
def freeze_heap_at_exit() -> None:
    """Register ``gc.freeze`` to run at exit, once per process."""
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    """Run one command: its payload goes to stdout (exit 1 when it reports
    ``"passed": false``), a diagnostic to stderr.

    The process that runs a command ends with its verdict, so ``main`` has
    the interpreter freeze every object alive at exit: the full collection
    of the interpreter's shutdown then skips them, where it would only free
    memory the operating system takes back anyway.  The collector runs as
    usual while the command runs, every stream is still flushed, and a
    process that only imports ``hopfalg`` keeps the default shutdown.
    """
    freeze_heap_at_exit()
    argv = join_dash_expressions(sys.argv[1:] if argv is None else argv)
    parser = make_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    # argparse drops the value of --flag=-- and leaves []: --expr reads it back
    # as the expression "--", and any other flag is refused without its value.
    for name, value in vars(args).items():
        if value == []:
            if name != "expr":
                parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
            args.expr = "--"
    from .serialize import canonical_dumps

    try:
        floor = int(args.command in DEGREE_ONE_COMMANDS and not getattr(args, "max_order", 0))
        if getattr(args, "max_degree", 0) < floor:
            unset = " when --max-order is not set" if floor and hasattr(args, "max_order") else ""
            raise DomainError(f"--max-degree must be >= {floor}{unset}, got {args.max_degree}")
        for name, limit, top in (("max_order", "MAX_ORDER", MAX_ORDER), ("eps_order", "MAX_EPS_ORDER", MAX_EPS_ORDER)):
            value, flag = getattr(args, name, 0), "--" + name.replace("_", "-")
            if value < 0:
                raise DomainError(f"{flag} must be >= 0, got {value}")
            if value > top:
                raise DomainError(f"{flag} {value} is above the limit {limit} = {top}")
        out = args.fn(args)
        payload, text = out if isinstance(out, tuple) else (out, None)
        if text is not None and args.output == "text":
            sys.stdout.write(text + "\n")
        else:
            sys.stdout.write(canonical_dumps(payload))
        return EXIT_VERIFICATION if payload.get("passed") is False else EXIT_OK
    except TruncationError as exc:
        code, diagnostic = EXIT_INPUT, {"error": "TruncationError", "message": str(exc)}
        if exc.required_order is not None:
            diagnostic["requiredOrder"] = exc.required_order
    except VerificationError as exc:
        code = EXIT_VERIFICATION
        diagnostic = {"error": "VerificationError", "message": str(exc), "witness": exc.witness}
    except HopfError as exc:
        code, diagnostic = EXIT_INPUT, {"error": type(exc).__name__, "message": str(exc)}
    except OSError as exc:
        code, diagnostic = EXIT_INPUT, {"error": "OSError", "message": str(exc)}
    sys.stderr.write(canonical_dumps(diagnostic))
    return code


if __name__ == "__main__":
    sys.exit(main())
