"""Run-level evaluation metrics.

ATTR averages each run's per-node times to rendezvous and then averages
across runs, reported in slots (a first-half completion in slot k counts as
k - 0.5). PPR divides each run's total packet transmissions by its count of
successful rendezvous events and averages the per-run ratios; runs without a
single rendezvous have no defined PPR and are reported separately. Censored
nodes enter ATTR at the slot budget so that slow protocols are not flattered
by dropping their failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import RunRecord
from .errors import InvalidComparisonError, InvalidParameterError, UndefinedPprError


def per_run_attr_slots(record: RunRecord) -> float:
    """Node-mean time to rendezvous of one run, in slots."""
    if record.node_count == 0:
        raise InvalidParameterError("record has no nodes")
    return sum(record.ttr_half_slots) / record.node_count / 2.0


def attr(records) -> float:
    """Mean over runs of the per-run node-mean TTR, in slots."""
    records = list(records)
    if not records:
        raise InvalidParameterError("attr needs at least one run record")
    return sum(per_run_attr_slots(r) for r in records) / len(records)


def ppr(records) -> float:
    """Mean over runs of packets per successful rendezvous.

    Runs with zero rendezvous are excluded; if every run is like that the
    ratio is undefined and UndefinedPprError is raised.
    """
    records = list(records)
    if not records:
        raise InvalidParameterError("ppr needs at least one run record")
    ratios = [r.packets / r.rendezvous for r in records if r.rendezvous > 0]
    if not ratios:
        raise UndefinedPprError(
            f"all {len(records)} runs recorded zero successful rendezvous"
        )
    return sum(ratios) / len(ratios)


def sign_test_less(wins: int, losses: int) -> float:
    """One-sided sign-test p-value for "A < B" given win/loss counts.

    Ties are dropped by the caller. With no discordant pairs the test is
    uninformative and the p-value is 1.
    """
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(wins, n + 1))
    return tail / 2.0**n


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregated metrics of one scenario cell across its runs."""

    scenario: dict
    seeds: tuple[int, ...]
    records: tuple[RunRecord, ...]
    attr_slots: float
    ppr: float | None
    attr_sd: float
    attr_min: float
    attr_max: float
    censored_nodes: int
    undefined_ppr_runs: int


def summarize(scenario_desc: dict, seeds, records) -> ExperimentResult:
    records = tuple(records)
    if not records:
        raise InvalidParameterError("summarize needs at least one run record")
    seeds = tuple(seeds)
    per_run = [per_run_attr_slots(r) for r in records]
    mean = sum(per_run) / len(per_run)
    sd = math.sqrt(sum((x - mean) ** 2 for x in per_run) / len(per_run))
    try:
        ppr_value = ppr(records)
    except UndefinedPprError:
        ppr_value = None
    return ExperimentResult(
        scenario=dict(scenario_desc),
        seeds=seeds,
        records=records,
        attr_slots=mean,
        ppr=ppr_value,
        attr_sd=sd,
        attr_min=min(per_run),
        attr_max=max(per_run),
        censored_nodes=sum(sum(r.censored) for r in records),
        undefined_ppr_runs=sum(1 for r in records if r.rendezvous == 0),
    )


@dataclass(frozen=True)
class ComparisonSummary:
    """Paired-seed comparison of result A against result B."""

    attr_ratio: float | None  # None when ATTR_B is 0
    improvement_pct: float | None  # 100 * (1 - ATTR_A / ATTR_B)
    attr_p_value: float  # one-sided sign test for ATTR_A < ATTR_B
    ppr_ratio: float | None
    ppr_p_value: float | None  # one-sided sign test for PPR_A < PPR_B
    pairs: int
    attr_ties: int


def compare(a: ExperimentResult, b: ExperimentResult) -> ComparisonSummary:
    """Compare two cells that differ in exactly one axis, over paired seeds."""
    if a.seeds != b.seeds:
        raise InvalidComparisonError("results were not produced from paired seeds")
    attrs_a = [per_run_attr_slots(r) for r in a.records]
    attrs_b = [per_run_attr_slots(r) for r in b.records]
    wins = sum(1 for x, y in zip(attrs_a, attrs_b) if x < y)
    losses = sum(1 for x, y in zip(attrs_a, attrs_b) if x > y)
    ties = len(attrs_a) - wins - losses

    ppr_pairs = [
        (ra.packets / ra.rendezvous, rb.packets / rb.rendezvous)
        for ra, rb in zip(a.records, b.records)
        if ra.rendezvous > 0 and rb.rendezvous > 0
    ]
    if ppr_pairs and a.ppr is not None and b.ppr is not None:
        ppr_wins = sum(1 for x, y in ppr_pairs if x < y)
        ppr_losses = sum(1 for x, y in ppr_pairs if x > y)
        ppr_ratio = a.ppr / b.ppr
        ppr_p = sign_test_less(ppr_wins, ppr_losses)
    else:
        ppr_ratio = None
        ppr_p = None

    attr_ratio = a.attr_slots / b.attr_slots if b.attr_slots else None
    return ComparisonSummary(
        attr_ratio=attr_ratio,
        improvement_pct=None if attr_ratio is None else 100.0 * (1.0 - attr_ratio),
        attr_p_value=sign_test_less(wins, losses),
        ppr_ratio=ppr_ratio,
        ppr_p_value=ppr_p,
        pairs=len(attrs_a),
        attr_ties=ties,
    )
