"""Result records are immutable named tuples, and importing the package stays light."""

import importlib
import json
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hyperdiff
from hyperdiff.criterion import CriterionConfig
from hyperdiff.families import check_property_Q, make_family
from hyperdiff.inverses import build_f_nk
from hyperdiff.lacunary import decay_report, m0_member, select_indices
from hyperdiff.scalars import QComplex
from hyperdiff.synthesis import enumerate_targets, synthesize

SRC = str(Path(hyperdiff.__file__).resolve().parents[1])


def _records():
    """Every named tuple class defined in a hyperdiff module, by name."""
    found = {}
    for info in pkgutil.iter_modules(hyperdiff.__path__):
        module = importlib.import_module(f"hyperdiff.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, type) and issubclass(value, tuple) and hasattr(value, "_fields"):
                if value.__module__ == module.__name__:
                    found[name] = value
    return found


def test_import_loads_neither_dataclasses_nor_inspect():
    # -I ignores PYTHONPATH and user site-packages; modules that site loads are in `before`
    script = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import hyperdiff, hyperdiff.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", script, SRC], capture_output=True, text=True, timeout=60, check=True
    )
    added = set(json.loads(done.stdout))
    assert "hyperdiff.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_no_record_default_is_a_shared_container():
    records = _records()
    assert {"GrowthRule", "EvidenceReport", "HypothesisEvidence", "SynthesisStep", "Key"} <= set(records)
    for name, cls in records.items():
        mutable = [f for f, v in cls._field_defaults.items() if isinstance(v, (list, dict, set))]
        assert not mutable, (name, mutable)


def _built_records():
    """(record, one of its fields) for one built instance of each kind."""
    seq = make_family("F4")
    trace = synthesize(seq, enumerate_targets(3))
    basis = select_indices(seq, 2)
    member = m0_member(basis, [QComplex(Fraction(1, 4**e.valence)) for e in basis.entries])
    return [
        (trace, "steps"),
        (trace.steps[0], "n"),
        (trace.residuals[0], "certified"),
        (check_property_Q(seq, 1, (1, 10)), "verdict"),
        (CriterionConfig(), "n_hi"),
        (build_f_nk(seq.op(3), 1), "f"),
        (decay_report(basis, member, 1.0), "rows"),
    ]


BUILT = _built_records()


@pytest.mark.parametrize("record, name", BUILT, ids=[type(record).__name__ for record, _ in BUILT])
def test_fields_cannot_be_assigned(record, name):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    assert getattr(record, name) is before
