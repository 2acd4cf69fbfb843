"""The repro-lint rule set.

Importing this package registers every rule with the global registry
in :mod:`repro.analysis.core`.  Each module holds one rule, named
after the contract it enforces:

* :mod:`.wallclock` — ``wall-clock``: no direct wall-clock reads or
  sleeps outside ``common/clock.py``;
* :mod:`.randomness` — ``unseeded-random``: no module-level
  ``random.*`` calls or unseeded ``random.Random()``;
* :mod:`.ordering` — ``set-iteration``: no iteration-order-sensitive
  use of sets on fan-out/serialization paths;
* :mod:`.swallowed` — ``swallowed-transport-error``: no silently
  discarded transport failures;
* :mod:`.retry_backoff` — ``retry-without-backoff``: retry loops must
  back off (or use ``call_with_retries``);
* :mod:`.retry_amplification` — ``retry-amplification``: no retrying
  context nested inside another (budgets multiply under overload);
* :mod:`.deadline` — ``deadline-dropped``: a function that accepts a
  ``Deadline`` must consult it before network work;
* :mod:`.durability` — ``durability-unsynced-ack``: every path from a
  WAL/disk write to a return, ack, or watermark advance passes an
  fsync (flow-sensitive typestate; acked ⇒ fsynced ⇒ recoverable);
* :mod:`.breaker` — ``breaker-unrecorded-outcome``: an admitted
  ``CircuitBreaker.allow()`` reaches ``record_success`` or
  ``record_failure`` on every normal path;
* :mod:`.layering` — ``layering-contract``: imports follow the
  committed layer map in :mod:`repro.analysis.architecture`;
* :mod:`.unbounded_rpc` — ``unbounded-rpc``: a held deadline bounds
  every transitive RPC (interprocedural, call-chain findings);
* :mod:`.escaped_error` — ``escaped-internal-error``: only taxonomy
  errors escape the package-exported public API (interprocedural);
* :mod:`.atomicity` — ``atomicity-violation``,
  ``non-atomic-multi-write``, ``yield-in-atomic-section``: multi-step
  shared-state updates — a check-then-act on a value read before the
  yield included — must not straddle a yield point (RPC/sleep/fsync,
  direct or anywhere down the call chain) without revalidation, a
  journal record, or an ``@atomic_section`` proof.

Four rules run on the control-flow graphs of
:mod:`repro.analysis.flow` rather than on per-line syntax, and all
four are one forward dataflow each, solved once per function by
:func:`~repro.analysis.flow.solve` and read off its fixpoint: the
typestate pair (``durability-unsynced-ack``,
``breaker-unrecorded-outcome``) through :mod:`repro.analysis.protocol`
(facts: open obligations), ``atomicity-violation`` (values read from
shared state, fresh or stale since a yield) and
``non-atomic-multi-write`` (pending writes) as transfer functions of
their own.  Seven are
:class:`~repro.analysis.core.ProjectRule`\\ s, which read the
repo-wide call graph (:mod:`repro.analysis.callgraph`) and effect
summaries (:mod:`repro.analysis.summaries`) instead of re-deriving
them: ``deadline-dropped`` and ``unbounded-rpc`` (one set of deadline
drops, split by whether the function reads its budget),
``retry-amplification`` (the ``retries`` effect),
``escaped-internal-error`` and the three atomicity rules.
"""

from repro.analysis.rules import (  # noqa: F401
    atomicity,
    breaker,
    deadline,
    durability,
    escaped_error,
    layering,
    ordering,
    randomness,
    retry_amplification,
    retry_backoff,
    swallowed,
    unbounded_rpc,
    wallclock,
)
