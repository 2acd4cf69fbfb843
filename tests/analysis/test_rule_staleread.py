"""The stale-read rule (``atomicity-violation``): a read of mutable
shared state that crosses a yield point — here a direct network call —
must be re-read before it drives a decision or a write-back.

Every case is a method of a class that mutates the attribute it reads:
state no method ever stores to cannot go stale under a yield.
"""

import textwrap
from pathlib import Path

from tests.analysis.conftest import lint

RULE = "atomicity-violation"
FIXTURES = Path(__file__).parent / "fixtures" / "atomicity"

#: the class every case is a method of; :func:`lint_method` reports
#: lines relative to the method source, as the cases are written
_HEADER = '''
class Replica:
    def mutate(self, value):
        self.partition_scn = self.current_leader = value
        self.role = self.queue_depth = self.peer_status = value

'''
_OFFSET = _HEADER.count("\n")


def lint_method(source: str) -> list:
    findings = lint(
        _HEADER + textwrap.indent(textwrap.dedent(source), "    "), RULE)
    return [(f.line - _OFFSET, f) for f in findings]


def test_check_then_act_across_invoke_flagged():
    findings = lint_method("""
        def advance(self):
            current = self.partition_scn
            self.net.invoke(self.relay_pull, current)
            if current < self.high_water:
                self.apply(current)
    """)
    assert [f.rule for _, f in findings] == [RULE]
    line, finding = findings[0]
    assert line == 5   # the stale decision, not the read
    # names the crossing call
    assert f"line {4 + _OFFSET}" in finding.message
    assert "<invoke> blocks on rpc" in finding.message


def test_send_also_counts_as_crossing():
    findings = lint_method("""
        def push(self):
            leader = self.current_leader
            self.network.send(self.peer, "sync")
            if leader == self.node_id:
                self.flush()
    """)
    assert len(findings) == 1


def test_any_receiver_of_invoke_is_a_crossing():
    # the yield-point summaries key on the method name, not on a
    # ``net``-looking receiver
    findings = lint_method("""
        def push(self):
            leader = self.current_leader
            self.transport.invoke(self.peer, "sync")
            if leader == self.node_id:
                self.flush()
    """)
    assert len(findings) == 1


def test_write_back_across_a_direct_rpc_is_flagged():
    findings = lint_method("""
        def bump(self):
            current = self.partition_scn
            self.net.invoke(self.relay_pull, current)
            self.partition_scn = current + 1
    """)
    assert [line for line, _ in findings] == [5]
    assert "written back" in findings[0][1].message


def test_reread_after_call_is_clean():
    findings = lint_method("""
        def advance(self):
            current = self.partition_scn
            self.net.invoke(self.relay_pull, current)
            current = self.partition_scn
            if current < self.high_water:
                self.apply(current)
    """)
    assert findings == []


def test_decision_before_the_call_is_clean():
    findings = lint_method("""
        def maybe_ping(self):
            role = self.role
            if role == "leader":
                self.net.send(self.peer, "ping")
            return role
    """)
    assert findings == []


def test_rpc_result_binding_is_the_reread_not_the_bug():
    findings = lint_method("""
        def check(self):
            status = self.net.invoke(self.peer_status)
            if status:
                self.mark_alive()
    """)
    assert findings == []


def test_locals_not_derived_from_shared_state_are_ignored():
    findings = lint_method("""
        def retry(self, attempts):
            budget = attempts * 2
            self.net.invoke(self.peer_status)
            if budget > 0:
                self.again()
    """)
    assert findings == []


def test_state_no_method_mutates_cannot_go_stale():
    findings = lint_method("""
        def advance(self):
            limit = self.configured_limit
            self.net.invoke(self.relay_pull)
            if limit > 0:
                self.apply(limit)
    """)
    assert findings == []


def test_stale_read_on_loop_back_edge_flagged():
    findings = lint_method("""
        def drain(self):
            pending = self.queue_depth
            while pending > 0:
                self.net.invoke(self.pop_one)
    """)
    # the while test re-runs after the RPC on the back edge, still on
    # the pre-call read: this loop can never observe the drained queue
    assert [line for line, _ in findings] == [4]


def test_local_recompute_counts_as_redefinition():
    findings = lint_method("""
        def drain(self):
            pending = self.queue_depth
            while pending > 0:
                self.net.invoke(self.pop_one)
                pending = pending - 1
    """)
    # any redefinition kills the stale path, even a local recompute
    assert findings == []


def test_stale_use_after_a_lambda_in_the_same_test_is_flagged():
    # regression: ``uses()`` used to stop at the first lambda it met,
    # hiding every later read in the same expression
    source = """
        def advance(self):
            current = self.partition_scn
            self.helper_that_sleeps()
            if check({first}current):
                self.apply(current)

        def helper_that_sleeps(self):
            self.clock.sleep(1.0)
    """
    plain = lint_method(source.format(first=""))
    behind_lambda = lint_method(source.format(first="lambda: 0, "))
    assert [line for line, _ in plain] == [5]
    assert [line for line, _ in behind_lambda] == [5]


def test_pragma_suppresses():
    findings = lint_method("""
        def advance(self):
            current = self.partition_scn
            self.net.invoke(self.relay_pull, current)
            if current < self.high_water:  # repro-lint: disable=atomicity-violation
                self.apply(current)
    """)
    assert findings == []


def test_a_stale_local_across_two_branch_yields_names_the_earliest():
    # the fixture's relay call (line 20) and fsync (line 22) each make
    # the read stale on one arm; both reach the write-back, and the
    # conviction names the earlier yield point
    source = (FIXTURES / "bad_stale_local_two_yields.py").read_text()
    findings = lint(source, RULE)
    assert [f.line for f in findings] == [23]
    assert "'current' was read from self.partition_scn before the yield " \
        "point on line 20 (<invoke> blocks on rpc" in findings[0].message
