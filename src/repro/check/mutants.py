"""Deliberately broken protocol variants for oracle self-tests.

An oracle that never fires is indistinguishable from one that cannot
fire.  These mutants each break exactly one commit-rule ingredient the
paper's safety argument depends on — by re-parameterizing the one
:class:`~repro.core.commit.CommitRule`, not by re-deriving it; the fuzzer
run against them (tests and the ``--mutants`` CLI flag) must catch and
shrink a violation, which is the evidence the oracles have teeth.

They are kept out of :data:`~repro.harness.runner.PROTOCOL_REGISTRY` —
callers opt in by passing a merged registry to
:func:`~repro.harness.runner.run_experiment` or
:func:`~repro.check.fuzzer.fuzz`.
"""

from __future__ import annotations

from ..core.lightdag1 import LightDag1Node


class UnsafeSupportLightDag1Node(LightDag1Node):
    """Commits a wave leader on a single supporting block instead of f+1.

    With support 1 two replicas can directly commit different leader
    subsets whose cascades disagree — the committed-leader-sequence and
    digest-prefix oracles must flag the divergence (Theorem 2 is exactly
    the claim that f+1 support makes this impossible).
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.commit.support_threshold = 1


class NoCascadeLightDag1Node(LightDag1Node):
    """Never commits skipped leaders indirectly (Algorithm 1 disabled).

    A replica that directly commits wave v while another replica first
    cascades v-1's leader in produces ledgers that disagree at the first
    skipped position — caught by the position/commit-metadata agreement
    oracles.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.commit.cascade = False


#: name → node class, same shape as PROTOCOL_REGISTRY, for merging.
MUTANT_REGISTRY = {
    "lightdag1-unsafe-support": UnsafeSupportLightDag1Node,
    "lightdag1-no-cascade": NoCascadeLightDag1Node,
}
