"""Exact convolution calculus and Birkhoff renormalization on graded
connected commutative Hopf algebras.

The public names below load their submodule on first access (PEP 562), so
``import hopfalg`` and ``from hopfalg import cli`` load no engine module.
"""

from importlib import import_module

_EXPORTS = {
    "algebra": ("Element", "Generator", "Monomial", "TensorElement"),
    "axioms": ("AxiomReport", "verify_axioms"),
    "birkhoff": ("BetaData", "BirkhoffPair", "beta_data", "beta_functional", "birkhoff_decompose",
                 "build_special_loop", "dn_recursive", "dn_simplex", "residue", "rg_limit_check",
                 "rota_baxter_T", "scattering_check"),
    "duals": ("Character", "ConvolutionProduct", "InfinitesimalCharacter", "TableFunctional",
              "character_inverse", "convolve", "counit_functional", "exp_star", "lie_bracket",
              "log_star", "metric_distance", "theta_star", "y_star", "y_star_inverse"),
    "errors": ("CutoffExceededError", "DomainError", "HopfError", "RankMismatchError",
               "RingMismatchError", "SchemaError", "SingularInputError", "TruncationError",
               "UnsupportedRingError", "VerificationError"),
    "hopf": ("HopfAlgebra", "HopfSchema", "ReducedTerm", "TableSchema"),
    "instances": ("RootedTree", "admissible_cuts", "enumerate_trees", "ladder_schema", "load_schema",
                  "parse_tree", "rooted_tree_schema"),
    "rationals": ("QQ", "RationalField"),
    "rings": ("LaurentRing", "LaurentSeries", "PolynomialRing"),
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
