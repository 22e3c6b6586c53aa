"""Unit tests for servants, state capture, and the execution engine."""

import pytest

from repro import NestedCall, Servant
from repro.errors import BadOperation, InvocationFailure
from repro.eternal.execution import Execution, Outcome
from repro.iiop import TC_LONG, TC_STRING
from repro.iiop.giop import RequestMessage
from repro.orb import Interface, Operation, Param, encode_arguments

CALC = Interface("Calc", [
    Operation("add", [Param("a", TC_LONG), Param("b", TC_LONG)], TC_LONG),
    Operation("chain", [Param("x", TC_LONG)], TC_LONG),
    Operation("boom", [], TC_LONG),
])


class CalcServant(Servant):
    interface = CALC

    def __init__(self):
        self.calls = 0
        self._secret = "hidden"

    def add(self, a, b):
        self.calls += 1
        return a + b

    def chain(self, x):
        doubled = yield NestedCall("Helper", "double", [x])
        tripled = yield NestedCall("Helper", "triple", [doubled])
        return tripled

    def boom(self):
        raise InvocationFailure("IDL:repro/Boom:1.0", "bang")


def request_for(op_name, args):
    op = CALC.operation(op_name)
    return RequestMessage(request_id=1, response_expected=True,
                          object_key=b"k", operation=op_name,
                          body=encode_arguments(op, args))


def test_default_get_state_excludes_private_attributes():
    servant = CalcServant()
    servant.calls = 5
    state = servant.get_state()
    assert state == {"calls": 5}


def test_state_snapshot_is_deep_copied():
    class Holder(Servant):
        interface = CALC

        def __init__(self):
            self.items = [1, 2]

    servant = Holder()
    snapshot = servant.get_state()
    servant.items.append(3)
    assert snapshot == {"items": [1, 2]}


def test_set_state_restores():
    a, b = CalcServant(), CalcServant()
    a.calls = 9
    b.set_state(a.get_state())
    assert b.calls == 9


def test_execution_simple_method_completes():
    execution = Execution(CalcServant(), CALC, request_for("add", [2, 3]), 100)
    outcome = execution.start()
    assert outcome.kind == Outcome.DONE
    assert outcome.value == 5


def test_execution_decodes_arguments_in_order():
    execution = Execution(CalcServant(), CALC, request_for("add", [10, -4]), 1)
    assert execution.start().value == 6


def test_execution_application_error_becomes_error_outcome():
    execution = Execution(CalcServant(), CALC, request_for("boom", []), 1)
    outcome = execution.start()
    assert outcome.kind == Outcome.ERROR
    assert isinstance(outcome.error, InvocationFailure)


def test_execution_unknown_operation_is_error():
    request = RequestMessage(request_id=1, response_expected=True,
                             object_key=b"k", operation="missing")
    execution = Execution(CalcServant(), CALC, request, 1)
    outcome = execution.start()
    assert outcome.kind == Outcome.ERROR


def test_generator_execution_yields_nested_calls():
    execution = Execution(CalcServant(), CALC, request_for("chain", [5]), 100)
    outcome = execution.start()
    assert outcome.kind == Outcome.NESTED
    assert outcome.nested == NestedCall("Helper", "double", [5])
    outcome = execution.resume(10)
    assert outcome.kind == Outcome.NESTED
    assert outcome.nested.operation == "triple"
    outcome = execution.resume(30)
    assert outcome.kind == Outcome.DONE
    assert outcome.value == 30


def test_child_operation_ids_count_from_one():
    execution = Execution(CalcServant(), CALC, request_for("chain", [5]), 100)
    execution.start()
    first = execution.next_child_op_id()
    second = execution.next_child_op_id()
    assert (first.parent_ts, first.child_seq) == (100, 1)
    assert (second.parent_ts, second.child_seq) == (100, 2)


def test_resume_error_propagates_into_generator():
    execution = Execution(CalcServant(), CALC, request_for("chain", [5]), 1)
    execution.start()
    outcome = execution.resume_error(InvocationFailure("IDL:x:1.0", "no"))
    assert outcome.kind == Outcome.ERROR
    assert isinstance(outcome.error, InvocationFailure)


def test_yielding_non_nested_call_is_an_error():
    BAD = Interface("Bad", [Operation("go", [], TC_LONG)])

    class BadServant(Servant):
        interface = BAD

        def go(self):
            yield 42

    request = RequestMessage(request_id=1, response_expected=True,
                             object_key=b"k", operation="go")
    execution = Execution(BadServant(), BAD, request, 1)
    outcome = execution.start()
    assert outcome.kind == Outcome.ERROR
