"""Outside-in layer tracing: wrap hyperdiff's public functions, keep spans in memory.

Nothing under ``src/`` knows about this module. ``Tracer.install`` replaces
each target named in ``TARGETS`` with a timing wrapper, in its home module or
class and in every ``hyperdiff`` module that bound the same object with
``from .x import y``; ``Tracer.uninstall`` puts the originals back.

Each wrapped call is a span keyed by a metric name such as
``series.apply_operator``. A span's self time is its duration minus the time
of the wrapped spans it called; ``.s`` is inclusive time of the outermost span
of a key, so recursion and nested aliases are not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter, defaultdict
from typing import Dict, List, Tuple

# (metric key, home module, attribute path). Several targets may share a key;
# class attributes that alias a target (``__rmul__ = __mul__``) share it too.
TARGETS: List[Tuple[str, str, str]] = [
    ("scalars.qcomplex_mul", "scalars", "QComplex.__mul__"),
    ("scalars.qcomplex_add", "scalars", "QComplex.__add__"),
    ("scalars.qcomplex_sub", "scalars", "QComplex.__sub__"),
    ("scalars.qcomplex_sub", "scalars", "QComplex.__rsub__"),
    ("scalars.qcomplex_div", "scalars", "QComplex.__truediv__"),
    ("scalars.qcomplex_pow", "scalars", "QComplex.__pow__"),
    ("scalars.scale_by_int", "scalars", "scale_by_int"),
    ("scalars.divide_by_int", "scalars", "divide_by_int"),
    ("series.apply_operator", "series", "apply_operator"),
    ("series.differentiate", "series", "TaylorPolynomial.differentiate"),
    ("series.majorant_norm", "series", "TaylorPolynomial.majorant_norm"),
    ("series.scale", "series", "TaylorPolynomial.scale"),
    ("series.add", "series", "TaylorPolynomial.__add__"),
    ("series.add", "series", "TaylorPolynomial.__sub__"),
    ("series.evaluate", "series", "TaylorPolynomial.evaluate"),
    ("series.value_at", "series", "PolynomialOperator.value_at"),
    ("series.to_float", "series", "PolynomialOperator.to_float"),
    ("series.derivative_majorant", "series", "PolynomialOperator.derivative_majorant"),
    ("series.exp_truncate", "series", "exp_truncate"),
    ("series.eigen_defect_bound", "series", "eigen_defect_bound"),
    ("families.make_family", "families", "make_family"),
    ("families.op", "families", "OperatorSequence.op"),
    ("families.valence", "families", "OperatorSequence.valence"),
    ("families.log_coeff", "families", "OperatorSequence.log_coeff"),
    ("families.log_abs_at", "families", "OperatorSequence.log_abs_at"),
    ("families.classify", "families", "GrowthRule.classify"),
    ("families.check_P", "families", "check_property_P"),
    ("families.check_Q", "families", "check_property_Q"),
    ("families.check_R", "families", "check_property_R"),
    ("inverses.build_f_nk", "inverses", "build_f_nk"),
    ("inverses.solve_monic_system", "inverses", "solve_monic_system"),
    ("inverses.inverse_for_polynomial", "inverses", "inverse_for_polynomial"),
    ("inverses.fnk_decay", "inverses", "fnk_decay"),
    ("inverses.fnk_norm_log", "inverses", "fnk_norm_log"),
    ("lacunary.select_indices", "lacunary", "select_indices"),
    ("lacunary.m0_member", "lacunary", "m0_member"),
    ("lacunary.decay_report", "lacunary", "decay_report"),
    ("lacunary.verify_ineq_ak", "lacunary", "verify_ineq_ak"),
    ("criterion.verify_hypotheses", "criterion", "verify_hypotheses"),
    ("synthesis.synthesize", "synthesis", "synthesize"),
    ("synthesis.augment", "synthesis", "augment"),
    ("synthesis.perturb", "synthesis", "perturb"),
    ("synthesis.joint_family", "synthesis", "joint_family"),
    ("cli.main", "cli", "main"),
    ("cli.write", "families", "write_evidence_csv"),
    ("cli.write", "lacunary", "write_basis_csv"),
    ("cli.write", "lacunary", "write_decay_csv"),
    ("cli.write", "inverses", "write_right_inverse"),
    ("cli.write", "criterion", "write_criterion_jsonl"),
    ("cli.write", "synthesis", "write_trace_jsonl"),
    ("cli.write", "synthesis", "write_residual_csv"),
    ("cli.write", "series", "write_taylor"),
    ("cli.write", "series", "write_operator"),
]

# counter name -> (callee key, parent keys): counts calls of the callee made
# directly from a span of one of the parents.
NESTED_COUNTS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "lacunary.candidates": ("families.valence", ("lacunary.select_indices",)),
    "synthesis.candidates": ("inverses.inverse_for_polynomial", ("synthesis.synthesize",)),
}

# The class whose constructions count the greedy steps that were chosen.
STEP_CLASS = ("synthesis", "SynthesisStep")


class TraceSetupError(RuntimeError):
    """A target is missing or a binding of it was left unwrapped."""


class Tracer:
    """Spans and counters for the wrapped targets, kept in memory."""

    def __init__(self):
        self._stack: List[list] = []  # [key, time covered by child spans]
        self._depth: Counter = Counter()
        self._nested = {callee: (name, set(parents)) for name, (callee, parents) in NESTED_COUNTS.items()}
        self._restore: List[Tuple[object, str, object]] = []
        self._originals: Dict[int, object] = {}
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()

    # -- spans -------------------------------------------------------------

    def _call(self, key, fn, args, kwargs):
        self.calls[key] += 1
        stack = self._stack
        nested = self._nested.get(key)
        if nested is not None and stack and stack[-1][0] in nested[1]:
            self.counts[nested[0]] += 1
        frame = [key, 0.0]
        stack.append(frame)
        depth = self._depth[key]
        self._depth[key] = depth + 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            self._depth[key] = depth
            self.self_s[key] += elapsed - frame[1]
            if depth == 0:
                self.total_s[key] += elapsed
            if stack:
                stack[-1][1] += elapsed

    def _wrap(self, key, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(key, fn, args, kwargs)

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = _hyperdiff_modules()
        missing = []
        for key, home, path in TARGETS:
            owner_name, _, attr = path.rpartition(".")
            owner = modules.get(home)
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                missing.append(f"{home}.{path}")
                continue
            self._originals[id(original)] = original
            wrapper = self._wrap(key, original)
            # class aliases, or every module that imported the function
            owners = [owner] if owner_name else list(modules.values())
            for holder in owners:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, name, value))
                        setattr(holder, name, wrapper)
        module, cls_name = STEP_CLASS
        step_cls = getattr(modules.get(module), cls_name, None)
        if step_cls is None:
            missing.append(f"{module}.{cls_name}")
        else:
            self._restore.append((modules[module], cls_name, step_cls))
            setattr(modules[module], cls_name, self._counted(step_cls))
        if missing:
            self.uninstall()
            raise TraceSetupError(f"trace targets not found: {', '.join(missing)}")
        left = self.unwrapped_bindings()
        if left:
            self.uninstall()
            raise TraceSetupError(f"bindings left unwrapped: {', '.join(left)}")

    def _counted(self, cls):
        def make_step(*args, **kwargs):
            self.counts["synthesis.steps"] += 1
            return cls(*args, **kwargs)

        return make_step

    def uninstall(self) -> None:
        for holder, name, value in reversed(self._restore):
            setattr(holder, name, value)
        self._restore.clear()

    def unwrapped_bindings(self) -> List[str]:
        """Every module or class attribute that still holds an original target."""
        left = []
        for mod_name, mod in _hyperdiff_modules().items():
            holders = [mod] + [v for v in vars(mod).values() if isinstance(v, type)]
            for holder in holders:
                for name, value in vars(holder).items():
                    if self._originals.get(id(value), self) is value:
                        left.append(f"{mod_name}:{getattr(holder, '__name__', mod_name)}.{name}")
        return sorted(set(left))

    # -- summaries -----------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for key, value in self.self_s.items():
            out[key.split(".", 1)[0]] += value
        return out


def _hyperdiff_modules() -> Dict[str, types.ModuleType]:
    """Loaded hyperdiff modules by short name (``""`` for the package)."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "hyperdiff" or name.startswith("hyperdiff."):
            out[name.partition(".")[2]] = mod
    return out
