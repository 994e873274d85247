"""Every engine name the benchmark's tracer wraps still resolves.

``perfbench.trace.install`` looks each target of ``TARGETS`` up by module,
class and attribute, and wraps ``RationalField``'s ``QQ_OPS`` and
``HopfAlgebra.monomials_of_degree`` too.  A change that deletes or renames one
of them breaks the traced benchmark pass; this test names it without running
a job.

Some of these names are kept only because the tracer holds them (ROADMAP
item 9), until the tracer reads the engine without a name list (item 20):
  - the PEP 562 forwarders ``birkhoff.__getattr__`` (the ``rg`` names
    ``dn_recursive``, ``dn_simplex``, ``build_special_loop``, ``beta_data``,
    ``rg_limit_check``, ``_flow_is_additive``, ``_flow_matches_exponential``,
    ``_residue_identity_holds`` and ``scattering_check``),
    ``duals.__getattr__`` (``ConvolutionProduct``, ``materialize_character``
    and ``character_inverse``), ``rings.__getattr__`` (``PolynomialRing``),
    ``instances.__getattr__`` (``rooted_tree_schema``) and
    ``hopfalg._forwarder``, which builds them;
  - ``LaurentRing.invert_unit`` and ``PolynomialRing.mul``, which no engine
    code calls;
  - ``materialize_character``, which no engine code calls.
"""

import importlib

from perfbench.trace import QQ_OPS, TARGETS


def unresolved():
    """The tracer's targets, as ``module:Class.attr``, that name no callable."""
    wanted = [(owner, attr) for _, owner, attrs, _ in TARGETS for attr in attrs]
    wanted += [("rings:RationalField", op) for op in QQ_OPS] + [("hopf:HopfAlgebra", "monomials_of_degree")]
    missing = []
    for owner, attr in wanted:
        module_name, _, class_name = owner.partition(":")
        holder = importlib.import_module(f"hopfalg.{module_name}")
        if class_name:
            holder = getattr(holder, class_name, None)
        if not callable(getattr(holder, attr, None)):
            missing.append(f"{owner}.{attr}")
    return missing


def test_every_tracer_target_resolves_in_the_engine():
    missing = unresolved()
    assert not missing, f"perfbench.trace targets that no longer resolve: {', '.join(missing)}"
