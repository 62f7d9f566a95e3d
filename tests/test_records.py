"""The record contract of the value types (`lattice._Record`).

Records are frozen: assigning or deleting a field, or any other attribute,
raises AttributeError.  The decisions and tables that operators keep, and
a pwl kernel's breakpoint abscissas, rely on it.  The shared constructor
refuses a call that does not bind each field exactly once.
"""

import pytest

from uryson.dsl import Settings
from uryson.kernels import BuiltinKernel, PwlKernel
from uryson.lattice import Vector
from uryson.operators import KernelOperator

RECORDS = {
    "Vector": lambda: Vector((1.0, -2.0)),
    "KernelOperator": lambda: KernelOperator(((BuiltinKernel("abs"),),)),
    "PwlKernel": lambda: PwlKernel(((0.0, 0.0), (1.0, 2.0))),
    "Settings": lambda: Settings(tol=1e-6),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_frozen(name):
    record = RECORDS[name]()
    for field in record._fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(record, field, value)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        record.extra = 1
    with pytest.raises(AttributeError, match="^cannot delete field 'extra'$"):
        del record.extra
    assert not hasattr(record, "extra")
    assert record == RECORDS[name]()


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: Settings(1e-9, 1.0, 0.5, 40, 20, 0, 7),
         r"^Settings\(\) takes at most 6 arguments \(7 given\)$"),
        (lambda: Settings(beta=1), r"^Settings\(\) got an unexpected or repeated argument 'beta'$"),
        (lambda: Settings(1e-9, tol=1e-9),
         r"^Settings\(\) got an unexpected or repeated argument 'tol'$"),
        (lambda: BuiltinKernel(scale=2.0), r"^BuiltinKernel\(\) missing argument 'name'$"),
    ],
    ids=["too-many", "unknown-keyword", "repeated-keyword", "missing"],
)
def test_shared_constructor_refuses_unbound_calls(call, message):
    with pytest.raises(TypeError, match=message):
        call()
