"""The declarative typestate engine, exercised with a minimal spec."""

import re
import textwrap

from repro.analysis.core import FileContext
from repro.analysis.protocol import ProtocolSpec, check_protocol

SPEC = ProtocolSpec(
    name="test-lock",
    receiver=re.compile(r"lock"),
    method_events=(
        (re.compile(r"^acquire$"), "acquire"),
        (re.compile(r"^release$"), "release"),
        (re.compile(r"^publish$"), "publish"),
    ),
    obligation="acquire",
    discharge=frozenset({"release"}),
    forbidden_events=frozenset({"publish"}),
    exit_message="{recv} escapes without release",
    forbidden_event_message="publish while {recv} held",
)

GATED = ProtocolSpec(
    name="test-gate",
    receiver=re.compile(r"gate"),
    method_events=(
        (re.compile(r"^enter$"), "enter"),
        (re.compile(r"^leave$"), "leave"),
    ),
    obligation="enter",
    discharge=frozenset({"leave"}),
    exit_message="{recv} admitted without leave",
    gate=True,
)


def violations(source: str, spec=SPEC):
    ctx = FileContext.parse(textwrap.dedent(source), "mod.py")
    return list(check_protocol(ctx, spec))


def test_obligation_escaping_to_exit_is_reported_once():
    found = violations("""
        def f(self):
            self.lock.acquire()
            if self.a:
                return 1
            if self.b:
                return 2
            return 3
    """)
    # three distinct escaping returns, one finding at the obligation
    assert len(found) == 1
    assert found[0].node.lineno == 3
    assert "lock escapes" in found[0].message


def test_discharge_on_every_path_is_clean():
    assert violations("""
        def f(self):
            self.lock.acquire()
            if self.a:
                self.lock.release()
                return 1
            self.lock.release()
            return 2
    """) == []


def test_discharge_must_be_same_receiver():
    found = violations("""
        def f(self):
            self.read_lock.acquire()
            self.write_lock.release()
    """)
    assert len(found) == 1
    assert "read_lock" in found[0].message


def test_forbidden_event_anchored_at_the_event():
    found = violations("""
        def f(self):
            self.lock.acquire()
            self.publish()
            self.lock.release()
    """)
    assert len(found) == 1
    assert found[0].node.lineno == 4
    assert "publish while lock held" in found[0].message


def test_uncaught_exception_path_is_excused():
    assert violations("""
        def f(self):
            self.lock.acquire()
            if self.bad:
                raise RuntimeError()
            self.lock.release()
    """) == []


def test_handler_that_returns_is_not_excused():
    found = violations("""
        def f(self):
            try:
                self.lock.acquire()
                self.work()
            except KeyError:
                return None
            self.lock.release()
    """)
    assert len(found) == 1


def test_gated_obligation_opens_on_admitted_edge_only():
    assert violations("""
        def f(self):
            if not self.gate.enter():
                return None
            self.work()
            self.gate.leave()
    """, GATED) == []
    found = violations("""
        def f(self):
            if not self.gate.enter():
                return None
            if self.hurry:
                return None
            self.gate.leave()
    """, GATED)
    assert len(found) == 1
    assert found[0].node.lineno == 3


def test_gated_positive_test_obligates_true_branch():
    found = violations("""
        def f(self):
            if self.gate.enter():
                self.work()
            return None
    """, GATED)
    assert len(found) == 1
    assert violations("""
        def f(self):
            if self.gate.enter():
                self.gate.leave()
            return None
    """, GATED) == []


def test_ungated_call_result_obligates_conservatively():
    # result stored, not branched on: both continuations must leave
    found = violations("""
        def f(self):
            admitted = self.gate.enter()
            return admitted
    """, GATED)
    assert len(found) == 1
