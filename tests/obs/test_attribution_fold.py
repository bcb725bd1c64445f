"""Invariant B's integer fold against the frozen ``Fraction`` oracle.

:func:`repro.obs.attribution._fold_channel` partitions a channel total
in integer units of 2⁻¹⁰⁷⁴; :func:`tests.obs._fraction_fold.fraction_fold_channel`
does the same partition with ``Fraction`` marginals.  Both are exact, so
they must agree exactly — the same float total, the same components in
the same order, the same rational values — on any group mix, including
multi-event fault/retry groups, orphans, peer transfers, subnormals and
magnitudes from 1e-300 to 1e300.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.attribution import _fold_channel, attribute_frames
from repro.trace import TraceEvent
from repro.trace.events import MOVEMENT_KINDS

from tests.obs._fraction_fold import fraction_fold_channel

_UNIT = 1 << 1074

_TIMES = st.one_of(
    # signed zeros, subnormals (5e-324 is the smallest), the normal boundary
    st.sampled_from([0.0, -0.0, 5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308]),
    # log-uniform magnitudes, 1e-300 .. 1e300
    st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-996, 997)),
    # device-like service times
    st.floats(1e-7, 0.5),
)


@st.composite
def _group(draw):
    """One fetch group: fault/retry attempts closed by a movement (plus
    optional peer transfers), or an orphan with no closing movement."""
    shape = draw(st.sampled_from(("closed", "orphan", "xfer-orphan")))
    level = draw(st.sampled_from(("dram", "ssd", "hdd")))
    key = draw(st.integers(0, 3))
    if shape == "xfer-orphan":
        return [TraceEvent(0, "xfer", 0, "n0->n1", key, 4096, draw(_TIMES))]
    n_attempts = draw(st.integers(0 if shape == "closed" else 1, 4))
    group = [
        TraceEvent(0, draw(st.sampled_from(("fault", "retry"))), 0, level, key, 0, draw(_TIMES))
        for _ in range(n_attempts)
    ]
    if shape == "closed":
        kind = draw(st.sampled_from(MOVEMENT_KINDS))
        group.append(TraceEvent(0, kind, 0, level, key, 4096, draw(_TIMES)))
        for _ in range(draw(st.integers(0, 2))):
            group.append(TraceEvent(0, "xfer", 0, "n0->n1", key, 4096, draw(_TIMES)))
    return group


def _as_fractions(units):
    return {k: Fraction(v, _UNIT) for k, v in units.items()}


@given(groups=st.lists(_group(), max_size=30))
@settings(max_examples=300, deadline=None)
def test_integer_fold_matches_fraction_oracle(groups):
    total, units = _fold_channel(groups)
    oracle_total, oracle = fraction_fold_channel(groups)
    assert total == oracle_total
    assert math.copysign(1.0, total) == math.copysign(1.0, oracle_total)
    got = _as_fractions(units)
    assert got == oracle
    assert list(got) == list(oracle)  # same insertion order → same JSON
    assert sum(units.values()) * Fraction(1, _UNIT) == Fraction(total)


def _fetch(t, key=1):
    return TraceEvent(0, "fetch", 0, "hdd", key, 4096, t)


def _fault(t, key=2, kind="fault"):
    return TraceEvent(0, kind, 0, "hdd", key, 0, t, span="replay/fetch")


class TestDust:
    """A group's dust is its outer share minus its inner total: the
    rounding of ``total + inner``.  It is nonzero whenever that sum
    rounds, and may have either sign."""

    @staticmethod
    def _dust(before, inner):
        return Fraction(before + inner) - Fraction(before) - Fraction(inner)

    def test_negative_dust_goes_to_closing_movement(self):
        # 1 + 2**-53 rounds (ties-to-even) down to 1: the group's share
        # is 0, so its dust is -2**-53.
        groups = [[_fetch(1.0)], [_fault(2.0**-54), _fetch(2.0**-54, key=2)]]
        assert self._dust(1.0, 2.0**-53) == -Fraction(2) ** -53
        total, units = _fold_channel(groups)
        assert total == 1.0
        comps = _as_fractions(units)
        assert comps == {
            "miss_transfer:hdd": 1 - Fraction(2) ** -54,
            "fault_penalty": Fraction(2) ** -54,
        }
        assert comps == fraction_fold_channel(groups)[1]

    def test_positive_dust_goes_to_closing_movement(self):
        # inner = 1.5 * 2**-53; 1 + inner rounds up to 1 + 2**-52, so
        # the dust is 2**-52 - 1.5 * 2**-53 = +2**-54.
        groups = [[_fetch(1.0)], [_fault(2.0**-53), _fetch(2.0**-54, key=2)]]
        assert self._dust(1.0, 1.5 * 2.0**-53) == Fraction(2) ** -54
        total, units = _fold_channel(groups)
        assert total == 1.0 + 2.0**-52
        comps = _as_fractions(units)
        assert comps == {
            "miss_transfer:hdd": 1 + Fraction(2) ** -53,
            "fault_penalty": Fraction(2) ** -53,
        }
        assert comps == fraction_fold_channel(groups)[1]

    def test_single_event_group_keeps_its_dust(self):
        # Fault-free: the fetch is charged its outer share 2**-52, not its
        # own time 1.5 * 2**-53 — the dust stays with its component.
        groups = [[TraceEvent(0, "hit", 0, "dram", 1, 4096, 1.0)], [_fetch(1.5 * 2.0**-53)]]
        total, units = _fold_channel(groups)
        comps = _as_fractions(units)
        assert comps == {"hit_service": Fraction(1), "miss_transfer:hdd": Fraction(2) ** -52}
        assert comps["miss_transfer:hdd"] != Fraction(1.5 * 2.0**-53)
        assert comps == fraction_fold_channel(groups)[1]

    def test_orphan_dust_goes_to_fault_penalty(self):
        # A retry-only orphan: its backoff keeps its marginal, the dust
        # (+2**-54, as above) is charged to the fault penalty.
        groups = [[_fetch(1.0)], [_fault(2.0**-53, kind="retry"), _fault(2.0**-54, kind="retry")]]
        total, units = _fold_channel(groups)
        comps = _as_fractions(units)
        assert list(comps) == ["miss_transfer:hdd", "retry_backoff", "fault_penalty"]
        assert comps["retry_backoff"] == Fraction(3, 2**54)
        assert comps["fault_penalty"] == Fraction(2) ** -54
        assert sum(comps.values()) == Fraction(total)
        assert comps == fraction_fold_channel(groups)[1]

    def test_dust_frame_reconciles_and_totals_are_exact(self):
        groups = [[_fetch(1.0)], [_fault(2.0**-53), _fetch(2.0**-54, key=2)]]
        events = [e for g in groups for e in g]
        report = attribute_frames([(0, events, (1.0 + 2.0**-52, 0.0, 0.0, 0.0))] * 3)
        assert report.reconciled is True
        frame = report.frames[0]
        assert all(type(v) is Fraction for v in frame.components.values())
        assert frame.components["miss_transfer:hdd"] == 1 + Fraction(2) ** -53
        assert report.demand_components["miss_transfer:hdd"] == 3 * (1 + Fraction(2) ** -53)
        assert report.totals["io_time_s"] == float(3 * Fraction(1.0 + 2.0**-52))
