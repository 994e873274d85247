"""Exact convolution calculus and Birkhoff renormalization on graded
connected commutative Hopf algebras.

The public names below load their submodule on first access (PEP 562), so
``import hopfalg`` and ``from hopfalg import cli`` load no engine module.
"""

from importlib import import_module

_EXPORTS = {
    "algebra": ("Element", "Generator", "Monomial", "TensorElement"),
    "axioms": ("AxiomReport", "verify_axioms"),
    "birkhoff": ("BirkhoffPair", "birkhoff_decompose", "rota_baxter_T"),
    "duals": ("Character", "InfinitesimalCharacter", "TableFunctional", "counit_functional", "exp_star",
              "log_star"),
    "errors": ("CutoffExceededError", "DomainError", "HopfError", "RankMismatchError",
               "RingMismatchError", "SchemaError", "SingularInputError", "TruncationError",
               "UnsupportedRingError", "VerificationError"),
    "hopf": ("HopfAlgebra", "HopfSchema", "ReducedTerm", "TableSchema"),
    "functionals": ("ConvolutionProduct", "character_inverse", "convolve", "lie_bracket", "metric_distance"),
    "instances": ("ladder_schema", "load_schema"),
    "polynomials": ("PolynomialRing",),
    "rationals": ("QQ", "RationalField"),
    "rg": ("BetaData", "beta_data", "build_special_loop", "dn_recursive", "dn_simplex",
           "residue", "rg_limit_check", "scattering_check"),
    "rings": ("LaurentRing", "LaurentSeries"),
    "trees": ("RootedTree", "admissible_cuts", "enumerate_trees", "parse_tree", "rooted_tree_schema"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


def _forwarder(module: str, home: str, names):
    """The ``__getattr__`` of ``module`` that reads each of ``names`` off ``home`` on every access."""

    def __getattr__(name):
        if name not in names:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        return getattr(import_module(f"{__name__}.{home}"), name)

    return __getattr__
