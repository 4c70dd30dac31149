"""The reduction profiler: per-evaluation step breakdowns vs. static bounds.

The engines already *count* steps (that is what the Theorem 5.1/5.2 cost
certificates bound); this module gives the count structure.  Engines
accept an ``observer`` callable — see
:func:`repro.lam.nbe.nbe_normalize_counted`,
:func:`repro.lam.reduce.normalize`, and the stage loop
:func:`repro.compile.fixpoint.run_fixpoint_query_compiled` — which they
invoke with a plain dict breakdown (``steps``/``beta``/``delta``/
``let``/``quote``/``max_depth``) when the evaluation finishes *or*
exhausts its fuel.  The
engines stay dependency-free: they emit dicts, and this module provides
the typed accumulator (:class:`ProfileCollector`) that merges the
per-stage dicts of a fixpoint run into one :class:`ReductionProfile`.

``quote`` counts the steps spent in NBE readback (a subset of ``beta`` +
``delta``: readback re-enters application to go under binders);
``max_depth`` is the readback binder-depth watermark.  The profile
surfaces on :class:`~repro.service.runtime.QueryResponse` as ``profile``,
with the observed/static-bound ratio mirrored to the
``repro_steps_bound_ratio`` gauge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

__all__ = ["ProfileCollector", "ReductionProfile", "bound_ratio"]


@dataclass
class ReductionProfile:
    """Accumulated step breakdown of one (possibly multi-stage) evaluation.

    ``steps`` is the engine's authoritative total (the quantity fuel
    budgets and cost certificates are measured in); the per-kind fields
    partition it for engines that discriminate (NBE and the small-step
    engines both do).  ``events`` counts how many engine invocations were
    merged in — 1 for a plain term plan, one per stage normalization for a
    fixpoint run.
    """

    steps: int = 0
    beta: int = 0
    delta: int = 0
    let: int = 0
    quote: int = 0
    max_depth: int = 0
    events: int = 0

    def merge(self, breakdown: Mapping[str, int]) -> None:
        """Fold one engine-emitted breakdown dict into the totals."""
        self.steps += int(breakdown.get("steps", 0))
        self.beta += int(breakdown.get("beta", 0))
        self.delta += int(breakdown.get("delta", 0))
        self.let += int(breakdown.get("let", 0))
        self.quote += int(breakdown.get("quote", 0))
        self.max_depth = max(
            self.max_depth, int(breakdown.get("max_depth", 0))
        )
        self.events += 1

    def as_dict(self) -> dict:
        return {
            "steps": self.steps,
            "beta": self.beta,
            "delta": self.delta,
            "let": self.let,
            "quote": self.quote,
            "max_depth": self.max_depth,
            "events": self.events,
        }


@dataclass
class ProfileCollector:
    """The observer hook handed to the engines: collect every breakdown
    they emit into one profile.  Instances are callables, so they plug
    directly into the ``observer=`` parameters."""

    profile: ReductionProfile = field(default_factory=ReductionProfile)

    def __call__(self, breakdown: Mapping[str, int]) -> None:
        self.profile.merge(breakdown)


def bound_ratio(
    observed_steps: Optional[int], static_bound: Optional[int]
) -> Optional[float]:
    """Observed steps as a fraction of the static cost bound.

    ``None`` when either side is unavailable (no certificate, or an engine
    that did not report steps).  Theorem 5.1-honest plans satisfy
    ``ratio <= 1``; a ratio above 1 means the static envelope was violated
    and the certifier's model is wrong for this plan — worth alerting on.
    """
    if observed_steps is None or not static_bound:
        return None
    return observed_steps / static_bound
