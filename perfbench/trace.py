"""In-process tracer for one hopfalg job, installed from outside the engine.

``install(tracer)`` replaces public functions and methods of the already
imported ``hopfalg`` modules with wrappers that time each call.  Every module
that imported a wrapped function by name (the CLI looks its commands up in
its own namespace) gets the wrapper too.  Nothing under ``src/`` changes and
no private attribute of an engine object is read: memo sizes are the term
counts of results, summed over the distinct keys the wrappers see.

A span's self time is its duration minus the durations of the spans called
directly inside it.  Spans nest on one stack, so this is the part of the
interval that no child covers.  Coarse spans (commands, phases) are also kept
one by one as (name, start, end, parent, job) records.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Callable, Dict, List

# span name, owner ("module" or "module:Class"), attribute names, kept one by one
TARGETS = (
    ("cli.command", "cli", ("cmd_coproduct", "cmd_antipode", "cmd_convolve", "cmd_exp", "cmd_log",
                            "cmd_birkhoff", "cmd_beta", "cmd_build_loop", "cmd_rg_check",
                            "cmd_scattering", "cmd_verify", "cmd_enumerate_trees"), True),
    ("serialize.load", "serialize", ("load_functional",), True),
    ("serialize.dump", "serialize", ("functional_to_json", "element_to_json", "tensor_to_json",
                                     "canonical_dumps"), True),
    ("instances.schema_build", "instances", ("ladder_schema", "rooted_tree_schema", "load_schema"), True),
    ("hopf.context_init", "hopf:HopfAlgebra", ("__init__",), True),
    ("hopf.coproduct", "hopf:HopfAlgebra", ("coproduct_monomial",), False),
    ("hopf.iterated", "hopf:HopfAlgebra", ("iterated_coproduct_monomial",), False),
    ("hopf.plus_iterated", "hopf:HopfAlgebra", ("plus_iterated_monomial",), False),
    ("hopf.antipode", "hopf:HopfAlgebra", ("antipode_monomial", "antipode_left_monomial"), False),
    ("algebra.tensor_mul", "algebra:TensorElement", ("__mul__",), False),
    ("algebra.element_mul", "algebra:Element", ("__mul__",), False),
    ("algebra.apply_to_leg", "algebra:TensorElement", ("apply_to_leg",), False),
    ("rings.laurent.mul", "rings:LaurentRing", ("mul",), False),
    ("rings.laurent.add", "rings:LaurentRing", ("add",), False),
    ("rings.laurent.exp", "rings:LaurentRing", ("exp",), False),
    ("rings.laurent.invert", "rings:LaurentRing", ("invert_unit",), False),
    ("rings.poly.mul", "rings:PolynomialRing", ("mul",), False),
    ("duals.conv_eval", "duals:ConvolutionProduct", ("value_on",), False),
    ("duals.exp_star", "duals", ("exp_star",), True),
    ("duals.log_star", "duals", ("log_star",), True),
    ("duals.materialize", "duals", ("materialize_character",), True),
    ("duals.inverse", "duals", ("character_inverse",), True),
    ("birkhoff.recursion", "birkhoff", ("birkhoff_decompose",), True),
    ("birkhoff.verification", "birkhoff", ("birkhoff_verification_report",), True),
    ("birkhoff.tower", "birkhoff", ("dn_recursive",), True),
    ("birkhoff.simplex", "birkhoff", ("dn_simplex",), True),
    ("birkhoff.build_loop", "birkhoff", ("build_special_loop",), True),
    ("birkhoff.beta_data", "birkhoff", ("beta_data",), True),
    ("birkhoff.rg.theta", "birkhoff", ("rg_limit_check",), True),
    ("birkhoff.rg.additive", "birkhoff", ("_flow_is_additive",), True),
    ("birkhoff.rg.exponential", "birkhoff", ("_flow_matches_exponential",), True),
    ("birkhoff.rg.residue", "birkhoff", ("_residue_identity_holds",), True),
    ("birkhoff.scattering", "birkhoff", ("scattering_check",), True),
    ("axioms.verify", "axioms", ("verify_axioms",), True),
    ("suites.dual", "suites", ("dual_convolution_suite",), True),
    ("suites.birkhoff", "suites", ("birkhoff_suite",), True),
)

# Rational-field calls are too many to time one by one; they are only counted.
QQ_OPS = ("add", "neg", "sub", "mul", "eq", "is_zero", "from_rational", "scale", "invert")

# span name -> the size metric of the memo it fills
MEMOS = {
    "hopf.coproduct": "hopf.coproduct_terms",
    "hopf.iterated": "hopf.iterated_memo_terms",
    "hopf.antipode": "hopf.antipode_memo_terms",
}


class Tracer:
    """Spans, counts and memo sizes of one job, kept in memory."""

    def __init__(self, job: str = "", clock: Callable[[], float] = time.perf_counter):
        self.job = job
        self.clock = clock
        self.stack: List[list] = []  # per open span: [child seconds, record index or None]
        self.totals: Dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.records: List[list] = []  # [name, start, end, parent record, job]
        self.qq_ops = 0
        self.memo_keys: Dict[str, dict] = {name: {} for name in MEMOS.values()}
        self.basis: set = set()

    def wrap(self, name: str, fn: Callable, keep: bool, on_result=None) -> Callable:
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack, records, clock, job = self.stack, self.records, self.clock, self.job

        def traced(*args, **kwargs):
            index = None
            if keep:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                index = len(records)
                records.append([name, 0.0, 0.0, parent, job])
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if index is not None:
                    records[index][1:3] = [start, end]
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def count(self, fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            self.qq_ops += 1
            return fn(*args, **kwargs)

        return counted

    def memo_observer(self, memo: str, method: str):
        """Record len(result.terms) once per distinct (method, context, arguments) key."""
        seen = self.memo_keys[memo]

        def observe(args, result):
            ctx, key = args[0], args[1:]
            if key[-1:] == (0,):  # D^(0) is the identity, never memoized
                return
            seen.setdefault((method, id(ctx)) + key, len(result.terms))

        return observe

    def observe_basis(self, args, result):
        self.basis.update(result)

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds; plus counts and sizes."""
        sizes = {memo: sum(seen.values()) for memo, seen in self.memo_keys.items()}
        sizes["hopf.basis_size"] = len(self.basis)
        return {
            "job": self.job,
            "spans": {n: {"calls": c, "total_s": t, "self_s": s} for n, (c, t, s) in self.totals.items()},
            "rings.qq.ops": self.qq_ops,
            "sizes": sizes,
        }

    def dump(self, path: str) -> None:
        payload = self.summary()
        payload["records"] = self.records
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def install(tracer: Tracer) -> None:
    """Wrap every target in the imported hopfalg modules (call once per process)."""
    replaced = {}
    for name, owner, attrs, keep in TARGETS:
        module_name, _, class_name = owner.partition(":")
        module = importlib.import_module(f"hopfalg.{module_name}")
        holder = getattr(module, class_name) if class_name else module
        for attr in attrs:
            original = getattr(holder, attr)
            observer = tracer.memo_observer(MEMOS[name], attr) if name in MEMOS else None
            wrapped = tracer.wrap(name, original, keep, observer)
            setattr(holder, attr, wrapped)
            if not class_name:
                replaced[id(original)] = (original, wrapped)

    hopf = importlib.import_module("hopfalg.hopf")
    hopf.HopfAlgebra.monomials_of_degree = tracer.wrap(
        "hopf.basis", hopf.HopfAlgebra.monomials_of_degree, False, tracer.observe_basis
    )
    rings = importlib.import_module("hopfalg.rings")
    for op in QQ_OPS:
        setattr(rings.RationalField, op, tracer.count(getattr(rings.RationalField, op)))

    # Modules that imported a wrapped function by name get the wrapper too.
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "hopfalg" and not mod_name.startswith("hopfalg."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
