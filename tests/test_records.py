"""The frozen value records, and what ``import mvcalc.cli`` loads.

The records share one base, ``indexes.Record``; these tests pin the
behaviour they had as frozen dataclasses: construction, reprs, equality
and hashing, refused assignment, ``__post_init__`` checks, copy and
pickle.
"""

import ast
import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mvcalc
from mvcalc import AlgebraError, GradeError, Metric, MaxwellConfig, FieldSymbol, FieldEquation
from mvcalc import derive_equations
from mvcalc.indexes import Record
from mvcalc.variational import CHAIN_OPS, ChainOp, IdentityReport
from mvcalc.verify import PropertyOutcome

_EQ = derive_equations(MaxwellConfig(Metric(1, 3), 2))

# (class, fields by keyword in order, repr as a frozen dataclass printed it,
#  a bad field value for __post_init__ and the error it raises, or None)
RECORDS = [
    (Metric, {"k": 1, "n": 3}, "Metric(k=1, n=3)", ("k", -1, AlgebraError)),
    (MaxwellConfig, {"metric": Metric(1, 3), "r": 2, "mass": 0, "xi": None},
     "MaxwellConfig(metric=Metric(k=1, n=3), r=2, mass=0, xi=None)", ("r", 0, GradeError)),
    (MaxwellConfig, {"metric": Metric(1, 3), "r": 2, "mass": Fraction(1, 2), "xi": Fraction(6, 2)},
     "MaxwellConfig(metric=Metric(k=1, n=3), r=2, mass=Fraction(1, 2), xi=3)",
     ("mass", -1, AlgebraError)),
    (FieldSymbol, {"name": "A", "grade": 1, "role": "dynamical"},
     "FieldSymbol(name='A', grade=1, role='dynamical')", ("grade", -1, GradeError)),
    (FieldSymbol, {"name": "J", "grade": 1, "role": "source"},
     "FieldSymbol(name='J', grade=1, role='source')", ("role", "free", AlgebraError)),
    (FieldEquation, {"lhs": _EQ.lhs, "rhs": _EQ.rhs, "grade": 1},
     "FieldEquation(lhs=<FormalExpr d_| ( d^ A )>, rhs=<FormalExpr J>, grade=1)",
     ("grade", 2, GradeError)),
    (IdentityReport, {"metric": Metric(0, 3), "grade": 1, "trials": 2,
                      "counterexamples": ((0, 3, 1, 0),)},
     "IdentityReport(metric=Metric(k=0, n=3), grade=1, trials=2, counterexamples=((0, 3, 1, 0),))",
     None),
    (PropertyOutcome, {"suite": "em", "name": "gauge_invariance", "cases": 3, "failures": 1,
                       "first_counterexample": "case 2"},
     "PropertyOutcome(suite='em', name='gauge_invariance', cases=3, failures=1, "
     "first_counterexample='case 2')", None),
]


@pytest.fixture(params=RECORDS, ids=lambda case: case[2].split("(")[0])
def record(request):
    return request.param


def test_repr_matches_the_dataclass_format(record):
    cls, fields, text, _ = record
    assert repr(cls(*fields.values())) == text
    assert repr(cls(**fields)) == text


def _others(cls):
    """One field changed to another valid value, per class."""
    return {Metric: {"n": 2}, MaxwellConfig: {"r": 3}, FieldSymbol: {"name": "B"},
            FieldEquation: {"lhs": _EQ.rhs}, IdentityReport: {"trials": 3},
            PropertyOutcome: {"cases": 4}}[cls]


def test_equal_but_distinct_records_match(record):
    cls, fields, _, _ = record
    one, other = cls(*fields.values()), cls(**fields)
    assert one is not other
    assert one == other and not one != other
    values = tuple(fields.values())
    assert one != values
    assert cls(**dict(fields, **_others(cls))) != one
    if cls is FieldEquation:  # its FormalExpr sides are unhashable, as they were
        with pytest.raises(TypeError, match="unhashable type: 'FormalExpr'"):
            hash(one)
        return
    assert hash(one) == hash(other)
    assert len({one, other}) == 1
    assert hash(one) == hash(values)  # the dataclass hash, so set orders stay as they were


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda value: pickle.loads(pickle.dumps(value))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copy_and_pickle_round_trip(record, clone):
    cls, fields, text, _ = record
    original = cls(**fields)
    twin = clone(original)
    assert type(twin) is cls
    assert twin == original
    assert repr(twin) == text


def test_construction_checks_the_argument_list(record):
    cls, fields, _, _ = record
    values = list(fields.values())
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(**fields, extra=1)
    first = next(iter(fields))
    with pytest.raises(TypeError):
        cls(**{name: value for name, value in fields.items() if name != first})


def test_records_refuse_assignment_and_deletion(record):
    cls, fields, text, _ = record
    value = cls(**fields)
    for name in (*fields, "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert repr(value) == text


def test_post_init_checks_still_run(record):
    cls, fields, _, bad = record
    if bad is None:
        return
    name, value, error = bad
    with pytest.raises(error):
        cls(**dict(fields, **{name: value}))


def test_defaults():
    metric = Metric(1, 3)
    assert MaxwellConfig(metric, 2) == MaxwellConfig(metric, 2, mass=0, xi=None)
    assert MaxwellConfig(metric, r=2, xi=Fraction(1, 2)).xi == Fraction(1, 2)
    assert type(MaxwellConfig(metric, 2, mass=Fraction(4, 2)).mass) is int  # __post_init__ normalises
    assert FieldSymbol("A", 1) == FieldSymbol("A", 1, "dynamical")
    assert FieldSymbol(grade=1, name="A").role == "dynamical"
    with pytest.raises(TypeError):
        Metric()


def _modules_after(code):
    # -S: a site .pth hook may import modules (random among them) of its own
    src = str(Path(mvcalc.__file__).parents[1])
    probe = f"import sys; sys.path.insert(0, {src!r}); {code}; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("code", ["import mvcalc.cli", "import mvcalc"])
def test_cli_import_loads_neither_dataclasses_nor_verify(code):
    assert not _modules_after(code) & {"dataclasses", "inspect", "mvcalc.verify",
                                       "random", "bisect", "mvcalc.randgen"}


def test_verify_names_load_on_demand():
    assert "mvcalc.verify" in _modules_after("import mvcalc; mvcalc.run_suites")
    from mvcalc import verify

    assert mvcalc.run_suites is verify.run_suites
    assert mvcalc.format_report is verify.format_report
    assert "mvcalc.randgen" in _modules_after("import mvcalc; mvcalc.random_field")
    from mvcalc import randgen

    assert mvcalc.random_field is randgen.random_field
    assert mvcalc.rng_for is randgen.rng_for
    namespace = {}
    exec("from mvcalc import *", namespace)
    assert set(mvcalc.__all__) <= set(namespace)
    assert set(mvcalc.__all__) <= set(dir(mvcalc))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        mvcalc.no_such_name
    assert not hasattr(mvcalc, "SUITES")


def test_metric_stores_its_dimension_once():
    # dim is read on every flat-key split, so it is a stored value, not a k + n property;
    # equality, hash and repr still read (k, n) only
    metric = Metric(1, 3)
    assert vars(metric)["dim"] == metric.dim == 4 and "dim" not in Metric._fields
    assert not isinstance(getattr(Metric, "dim", None), property)
    for twin in (copy.copy(metric), copy.deepcopy(metric), pickle.loads(pickle.dumps(metric))):
        assert twin.dim == 4 and twin == metric and hash(twin) == hash((1, 3))
    with pytest.raises(AttributeError, match="cannot assign to field 'dim'"):
        metric.dim = 5


def test_chain_operators_are_records():
    assert all(type(op) is ChainOp for op in CHAIN_OPS.values())
    assert issubclass(ChainOp, Record)
    assert repr(CHAIN_OPS["ext"]) == "ChainOp(text='d^', shift=1, function='ext_deriv')"
    assert CHAIN_OPS["tensor"] == ChainOp("dX", None, "tensor_deriv")


def test_no_module_imports_typing():
    # annotations are strings here, so typing would be loaded for nothing at each CLI start
    for path in sorted(Path(mvcalc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            assert "typing" not in modules, f"{path.name} line {node.lineno}"
