"""The shared sweep/grid executor.

Every experiment in this repository is a *grid*: a list of sweep points
(protocol labels, thresholds, ablation variants, churn levels, ...) crossed
with the configured master seeds, where each (point, seed) cell is one
independent simulation.  :func:`run_seed_grid` is the single place that
cross-product is built, fanned out and regrouped:

1. jobs are constructed **point-major, seed-minor** — exactly the order the
   pre-grid serial loops used;
2. they fan out over the active
   :class:`~repro.experiments.backends.ExecutionPlan`, which returns results
   in submission order regardless of completion order;
3. the flat result list is regrouped into one ``(point, seed_results)`` pair
   per sweep point, with seed results in seed order.

Because both the job order and the regrouping are deterministic, any merge a
driver performs over the grouped results is identical for every worker count —
the same invariance contract the hand-written drivers upheld, now provided in
one place.  Every experiment registered through
:mod:`repro.experiments.api` gets ``--workers`` fan-out for free by building
on this executor.

The raw-sample capture layer inherits the same contract: a driver's
``collect_samples`` hook fills a :class:`~repro.analysis.samples.SampleLog`
from results merged in this submission order (one series per (point, seed),
see ``SampleLog.add_per_seed``), so the ``samples`` field persisted into the
:class:`~repro.experiments.results.ExperimentResult` envelope — and every
figure ``repro report`` later regenerates from it — is byte-identical for
every worker count.

The plan picks the executor from the worker count (inline at one worker,
a process pool with warm workers otherwise), consults the checkpoint store
for already-completed cells, applies the shard slice and the cell budget,
and persists each freshly computed cell the moment the streaming regroup
emits it.  ``run_experiment`` installs the plan with
:func:`~repro.experiments.backends.use_plan`, so every registered
experiment inherits pooled execution, checkpoint/resume and sharding for
free; a driver called directly (tests, examples) gets an ephemeral default
plan driven by ``config.workers``.

Drivers pool each point's seed results through :class:`SeedCells`: the
pooled result keeps the cells and derives every total, per-seed map and
pooled sample series from them where it is read, so no driver carries a
merge loop that mirrors its cell fields.

Job specs must be picklable (frozen dataclasses of plain values) and
``job_fn`` must be a module-level callable, so both survive the trip
through a process pool.  Each driver defines its own job/result dataclass
pair next to the ``run_*_seed`` body it passes here.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, TypeVar

from repro.experiments.backends import ExecutionPlan, current_plan
from repro.experiments.config import ExperimentConfig

PointT = TypeVar("PointT")
JobT = TypeVar("JobT")
ResultT = TypeVar("ResultT")


def run_seed_grid(
    points: Sequence[PointT],
    make_job: Callable[[PointT, int], JobT],
    job_fn: Callable[[JobT], ResultT],
    config: ExperimentConfig,
    *,
    plan: Optional[ExecutionPlan] = None,
) -> list[tuple[PointT, list[ResultT]]]:
    """Run ``job_fn`` over the (point, seed) grid and regroup per point.

    Args:
        points: the sweep axis (labels, thresholds, variants, ...).
        make_job: builds the picklable job spec for one (point, seed) cell.
        job_fn: module-level job body, executed possibly in a worker process.
        config: supplies the seeds and the worker count.
        plan: execution plan; defaults to the plan installed by
            :func:`~repro.experiments.backends.use_plan` (how
            ``run_experiment`` threads checkpoints and shards through without
            changing driver signatures), and otherwise to an ephemeral
            default plan driven by ``config.workers``.

    Returns:
        One ``(point, seed_results)`` pair per sweep point, in sweep order,
        with ``seed_results`` in ``config.seeds`` order — the same sequence a
        serial ``for point: for seed:`` loop would produce.  Cells the plan
        did not produce (shard slice, cell budget) come back as the
        :data:`~repro.experiments.backends.MISSING` placeholder.

    Raises:
        ValueError: two sweep points are equal; the grid would run (and a
            driver would pool) the same cells twice.
    """
    points = list(points)
    for index, point in enumerate(points):
        # ``in`` compares with ``==``: churn and ablation points hold dicts
        # and schedules, which are not hashable.
        if point in points[:index]:
            raise ValueError(f"duplicate sweep point {point!r}")
    jobs = [make_job(point, seed) for point in points for seed in config.seeds]
    active = plan if plan is not None else current_plan()
    if active is None:
        active = ExecutionPlan()
    results = active.run_cells(job_fn, jobs, config)
    per_point = len(config.seeds)
    return [
        (point, results[index * per_point : (index + 1) * per_point])
        for index, point in enumerate(points)
    ]


class SeedCells:
    """Mixin for a pooled result that is a view over its per-seed cells.

    A subclass is a frozen dataclass whose ``cells`` field holds one sweep
    point's cell results in ``config.seeds`` order, as :func:`run_seed_grid`
    returns them.  Pooled figures are derived from the cells on read, so a
    new cell field needs no merge code, and the result compares equal across
    worker counts whenever its cells do.
    """

    cells: tuple

    def total(self, name: str):
        """One cell field summed over the seeds."""
        return sum(getattr(cell, name) for cell in self.cells)

    def by_seed(self, name: str) -> dict:
        """One cell field per master seed."""
        return {cell.seed: getattr(cell, name) for cell in self.cells}

    def pooled(self, name: str) -> list:
        """One sequence-valued cell field concatenated in seed order."""
        return [value for cell in self.cells for value in getattr(cell, name)]
