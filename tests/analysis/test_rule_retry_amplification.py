"""The retry-amplification rule: no retrying context nested inside
another — retry budgets multiply into metastable overload."""

from tests.analysis.conftest import lint, lint_project

RULE = "retry-amplification"


def test_nested_call_with_retries_flagged():
    findings = lint("""
        from repro.common.resilience import call_with_retries

        def fetch(clock, node):
            return call_with_retries(
                lambda: call_with_retries(lambda: node.read(), clock=clock),
                clock=clock)
    """, RULE)
    assert [f.rule for f in findings] == [RULE]
    assert "nested call_with_retries" in findings[0].message


def test_retrying_function_passed_by_reference_flagged():
    findings = lint("""
        from repro.common.resilience import call_with_retries

        def fetch(clock, node):
            def outer():
                return call_with_retries(
                    lambda: node.read(), clock=clock)
            return call_with_retries(outer, clock=clock)
    """, RULE)
    assert [f.rule for f in findings] == [RULE]
    assert "passed as the retried function" in findings[0].message


def test_retry_loop_wrapping_call_with_retries_flagged():
    findings = lint("""
        from repro.common.errors import NodeUnavailableError
        from repro.common.resilience import call_with_retries

        def fetch(clock, node):
            for attempt in range(5):
                try:
                    return call_with_retries(
                        lambda: node.read(), clock=clock)
                except NodeUnavailableError:
                    continue
    """, RULE)
    assert [f.rule for f in findings] == [RULE]


def test_retry_loop_inside_retry_loop_flagged():
    findings = lint("""
        from repro.common.errors import NodeUnavailableError

        def fetch(clock, node, policy, rng):
            for attempt in range(3):
                try:
                    for retry in range(3):
                        try:
                            return node.read()
                        except NodeUnavailableError:
                            clock.sleep(policy.backoff(retry + 1, rng))
                except NodeUnavailableError:
                    clock.sleep(policy.backoff(attempt + 1, rng))
    """, RULE)
    assert [f.rule for f in findings] == [RULE]
    assert "nested retry loop" in findings[0].message


def test_call_to_retrying_helper_from_retrying_context_flagged():
    findings = lint("""
        from repro.common.resilience import call_with_retries

        def read_one(clock, node):
            return call_with_retries(lambda: node.read(), clock=clock)

        def read_quorum(clock, nodes):
            return call_with_retries(
                lambda: [read_one(clock, n) for n in nodes], clock=clock)
    """, RULE)
    assert [f.rule for f in findings] == [RULE]
    assert "read_one" in findings[0].message


def test_single_layer_retries_are_clean():
    findings = lint("""
        from repro.common.errors import NodeUnavailableError
        from repro.common.resilience import call_with_retries

        def fetch(clock, node):
            return call_with_retries(lambda: node.read(), clock=clock)

        def fetch_loop(clock, node, policy, rng):
            for attempt in range(3):
                try:
                    return node.read()
                except NodeUnavailableError:
                    clock.sleep(policy.backoff(attempt + 1, rng))
    """, RULE)
    assert findings == []


def test_fanout_loop_around_retrying_call_is_clean():
    # a fan-out over replicas is not a retry loop: each iteration is a
    # different node, not a re-attempt of the same work
    findings = lint("""
        from repro.common.resilience import call_with_retries

        def fetch_all(clock, replicas):
            out = []
            for node in replicas:
                out.append(call_with_retries(
                    lambda: node.read(), clock=clock))
            return out
    """, RULE)
    assert findings == []


def test_call_to_non_retrying_helper_is_clean():
    findings = lint("""
        from repro.common.resilience import call_with_retries

        def decode(data):
            return data.strip()

        def fetch(clock, node):
            return call_with_retries(
                lambda: decode(node.read()), clock=clock)
    """, RULE)
    assert findings == []


def test_pragma_suppression():
    findings = lint("""
        from repro.common.resilience import call_with_retries

        def fetch(clock, node):
            return call_with_retries(
                lambda: call_with_retries(lambda: node.read(), clock=clock),  # repro-lint: disable=retry-amplification
                clock=clock)
    """, RULE)
    assert findings == []


def test_retrying_helper_in_another_file_flagged(tmp_path):
    # the nesting the one-file approximation could not see: the inner
    # budget lives in another module, reached through the call graph
    findings = lint_project({
        "src/repro/pkg/util.py": """
            from repro.common.resilience import call_with_retries

            def read_one(clock, node):
                return call_with_retries(lambda: node.read(), clock=clock)
        """,
        "src/repro/pkg/mod.py": """
            from repro.common.resilience import call_with_retries
            from repro.pkg.util import read_one

            def read_quorum(clock, nodes):
                return call_with_retries(
                    lambda: [read_one(clock, n) for n in nodes], clock=clock)

            def read_first(clock, nodes):
                return call_with_retries(read_one, clock=clock)
        """,
    }, RULE, tmp_path)
    assert [(f.path, f.line) for f in findings] == [
        ("src/repro/pkg/mod.py", 7), ("src/repro/pkg/mod.py", 10)]
    assert "call to read_one(), which retries internally" \
        in findings[0].message
    assert "read_one (which retries internally) passed as the retried " \
        "function" in findings[1].message
