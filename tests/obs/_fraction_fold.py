"""Frozen ``Fraction`` reference for invariant B — a test-only oracle.

This is :func:`repro.obs.attribution._fold_channel` as it was before the
fold moved to integer 2⁻¹⁰⁷⁴ units: every marginal and every dust term
is built as a :class:`fractions.Fraction`.  It is slow and obviously
exact, which is what an oracle should be; keep its logic unchanged.
``tests/obs/test_attribution_fold.py`` checks the production fold
against it.
"""

from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

from repro.obs.attribution import _MOVEMENT, _component_of
from repro.trace.events import TraceEvent

_ZERO = Fraction(0)


def fraction_fold_channel(
    groups: Iterable[List[TraceEvent]],
) -> Tuple[float, Dict[str, Fraction]]:
    """Invariants A and B for one channel, in ``Fraction`` arithmetic."""
    total = 0.0
    comps: Dict[str, Fraction] = {}
    for g in groups:
        inner = 0.0
        marginals: List[Tuple[str, Fraction]] = []
        for e in g:
            before = inner
            inner = inner + e.time_s
            marginals.append((_component_of(e), Fraction(inner) - Fraction(before)))
        outer_before = total
        total = total + inner
        group_share = Fraction(total) - Fraction(outer_before)
        dust = group_share - Fraction(inner)
        for comp, m in marginals:
            comps[comp] = comps.get(comp, _ZERO) + m
        if dust:
            last = g[-1]
            comp = (
                _component_of(last)
                if (last.kind in _MOVEMENT or last.kind == "xfer")
                else "fault_penalty"
            )
            comps[comp] = comps.get(comp, _ZERO) + dust
    return total, comps
