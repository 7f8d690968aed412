"""The value rules that the four slotted value types share.

``Multivector`` and ``MvMatrix`` take theirs from ``blades._Sparse``;
``FormalExpr`` and ``LagrangianDensity`` refuse assignment through the
same ``indexes.Frozen``.  Each value survives ``copy``, ``deepcopy`` and
``pickle`` unchanged, and refuses assignment and deletion.
"""

import copy
import pickle

import pytest

from mvcalc import (DerivOp, FieldSymbol, FormalExpr, LagrangianDensity, Metric, Multivector,
                    MvMatrix, PolyScalar)

M13 = Metric(1, 3)
X1 = PolyScalar.variable(4, 1)
A = FieldSymbol("A", 1, "dynamical")
J = FieldSymbol("J", 1, "source")

VALUES = [
    pytest.param(Multivector(M13, 2, {(0, 1): X1 + 1, (2, 3): 3}), ("metric", "grade"),
                 id="Multivector"),
    pytest.param(MvMatrix(M13, 1, 2, {((0,), (1, 2)): X1, ((3,), (0, 1)): -2}),
                 ("metric", "row_grade", "col_grade"), id="MvMatrix"),
    pytest.param(FormalExpr([(("int", "ext"), A, 2), ((), J, -1)]), ("terms",), id="FormalExpr"),
    pytest.param(LagrangianDensity([(-1, (DerivOp.EXT, A), (DerivOp.EXT, A)),
                                    (2, (DerivOp.ID, A), (DerivOp.ID, J))]),
                 ("terms",), id="LagrangianDensity"),
]


@pytest.mark.parametrize("value, fields", VALUES)
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_are_equal_values(value, fields, clone):
    twin = clone(value)
    assert type(twin) is type(value)
    assert twin == value
    for name in fields:
        assert getattr(twin, name) == getattr(value, name)


@pytest.mark.parametrize("value", [VALUES[0].values[0], VALUES[1].values[0]],
                         ids=["Multivector", "MvMatrix"])
def test_deepcopy_copies_polynomial_coefficients(value):
    twin = copy.deepcopy(value)
    for key, coeff in value.terms.items():
        assert twin.terms[key] == coeff
        if isinstance(coeff, PolyScalar):
            assert twin.terms[key] is not coeff


@pytest.mark.parametrize("value, fields", VALUES)
def test_assignment_and_deletion_are_refused(value, fields):
    before = copy.deepcopy(value)
    message = f"{type(value).__name__} is immutable"
    for name in (*fields, "other"):
        with pytest.raises(AttributeError, match=message):
            setattr(value, name, 1)
        with pytest.raises(AttributeError, match=message):
            delattr(value, name)
    assert value == before
    with pytest.raises(TypeError):
        hash(value)
