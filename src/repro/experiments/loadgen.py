"""Synthetic multi-viewer load generation (``repro serve-sim``).

Synthesizes N user streams — an orbit/zoom/flythrough mix with seeded
exponential inter-arrival times — and drives them through the
:mod:`repro.runtime.sessions` scheduler over one shared hierarchy.  Every
number :func:`run_load` reports is *simulated* (frame-time percentiles
per tenant, fairness, quota ledger, byte ledger), so two machines produce
byte-identical results.  ``repro serve-sim`` runs the bundled
``serve-baseline`` matrix spec, whose ``serve`` cell runner calls
:func:`run_load`, and writes the one snapshot layout as
``SERVE_<label>.json``; CI gates it like every other snapshot.

Everything is derived from ``LoadGenConfig.seed`` through a
:class:`numpy.random.SeedSequence` tree: child 0 draws the workload mix
and the arrival process, child ``i + 1`` seeds session ``i``'s camera
path — so adding a session never reshuffles the existing ones.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.experiments.runner import ExperimentSetup, fresh_hierarchy
from repro.runtime.context import RunContext
from repro.runtime.sessions import SessionSpec, run_sessions

__all__ = ["LoadGenConfig", "make_session_specs", "run_load"]

#: workload mix entry -> runtime workload name ("orbit" is the paper's
#: spherical great-circle path).
_MIX_WORKLOADS = {"orbit": "spherical", "zoom": "zoom", "flythrough": "flythrough"}


@dataclass(frozen=True)
class LoadGenConfig:
    """Shape of one synthetic serving scenario (fully seeded)."""

    n_sessions: int = 8
    #: (orbit, zoom, flythrough) mix weights; normalised internally.
    mix: Tuple[float, float, float] = (0.5, 0.25, 0.25)
    #: mean session arrival rate, sessions per simulated second
    #: (exponential inter-arrivals); <= 0 means all arrive at t = 0.
    arrival_rate_hz: float = 2.0
    steps: int = 24
    degrees: Tuple[float, float] = (5.0, 10.0)
    distance: float = 2.5
    dataset: str = "3d_ball"
    blocks: int = 256
    scale: Optional[float] = 0.08
    cache_ratio: float = 0.5
    policy: str = "lru"
    partition: str = "equal"  # "equal" | "none"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_sessions < 1:
            raise ValueError(f"n_sessions must be >= 1, got {self.n_sessions}")
        if len(self.mix) != 3 or any(w < 0 for w in self.mix) or sum(self.mix) <= 0:
            raise ValueError(f"mix must be 3 non-negative weights, got {self.mix}")
        if self.partition not in ("equal", "none"):
            raise ValueError(f"partition must be 'equal' or 'none', got {self.partition!r}")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["mix"] = list(d["mix"])
        d["degrees"] = list(d["degrees"])
        return d


def make_session_specs(config: LoadGenConfig) -> List[SessionSpec]:
    """The deterministic session list a config describes.

    Session ``i`` is named ``s<i:03d>``; its workload is drawn from the
    mix, its arrival from the exponential inter-arrival process, and its
    camera-path seed from SeedSequence child ``i + 1`` — all pure
    functions of ``config.seed``.
    """
    root = np.random.SeedSequence(config.seed)
    children = root.spawn(config.n_sessions + 1)
    draw = np.random.default_rng(children[0])
    weights = np.asarray(config.mix, dtype=np.float64)
    weights = weights / weights.sum()
    kinds = list(_MIX_WORKLOADS)
    picks = draw.choice(len(kinds), size=config.n_sessions, p=weights)
    if config.arrival_rate_hz > 0:
        gaps = draw.exponential(1.0 / config.arrival_rate_hz, size=config.n_sessions)
        arrivals = np.concatenate(([0.0], np.cumsum(gaps)[:-1]))
    else:
        arrivals = np.zeros(config.n_sessions)
    specs = []
    for i in range(config.n_sessions):
        path_seed = int(
            np.random.default_rng(children[i + 1]).integers(0, 2**31 - 1)
        )
        specs.append(
            SessionSpec(
                session_id=f"s{i:03d}",
                workload=_MIX_WORKLOADS[kinds[int(picks[i])]],
                steps=config.steps,
                degrees=config.degrees,
                distance=config.distance,
                seed=path_seed,
                arrival_s=float(arrivals[i]),
            )
        )
    return specs


def run_load(
    config: Optional[LoadGenConfig] = None,
    ctx: Optional[RunContext] = None,
    attribution: bool = False,
    tracer_capacity: int = 500_000,
) -> dict:
    """Run one serving scenario end to end.

    Returns ``{"config", "workloads", "multi_tenant"}``: only simulated
    (machine-independent) numbers plus the config that produced them;
    repeat runs are byte-identical.

    ``attribution=True`` adds the per-tenant latency attribution section
    (see :mod:`repro.obs.attribution`) to ``multi_tenant``; when no
    ``ctx`` was passed, a :class:`~repro.trace.Tracer` of
    ``tracer_capacity`` events is created to feed it (a caller-supplied
    ``ctx`` must then carry an enabled tracer itself).
    """
    config = config if config is not None else LoadGenConfig()
    if attribution and ctx is None:
        from repro.trace import Tracer

        ctx = RunContext(tracer=Tracer(capacity=tracer_capacity))
    setup = ExperimentSetup.for_dataset(
        config.dataset,
        target_n_blocks=config.blocks,
        scale=config.scale,
        cache_ratio=config.cache_ratio,
        seed=config.seed,
    )
    hierarchy = fresh_hierarchy(setup.grid, config.cache_ratio, config.policy)
    specs = make_session_specs(config)
    result = run_sessions(
        specs,
        hierarchy,
        setup.grid,
        view_angle_deg=setup.view_angle_deg,
        render_model=setup.render_model,
        ctx=ctx,
        partition="equal" if config.partition == "equal" else None,
        attribution=attribution,
    )
    return {
        "config": config.to_dict(),
        "workloads": {s.session_id: s.workload for s in specs},
        "multi_tenant": result.as_dict(),
    }
