"""Benchmark workloads: input generators and per-workload settings.

Every input is made from a workload seed. A run uses several replicates,
each with its own sub-seed, so that one run averages over datasets and
chains instead of following a single trajectory.
"""

from dataclasses import dataclass, field

import numpy as np

from sparseclust.model import DataMatrix
from sparseclust.simulate import gen_example2, gen_example4


def gen_tall_n200(seed):
    """Example 3's design scaled to n=200: groups of 30/30/70/70 samples,
    mean c/4 for group c=1..4 on attributes 1-10, zero elsewhere,
    noise sd 0.1, p=50."""
    n, p = 200, 50
    labels = np.repeat(np.arange(4), [30, 30, 70, 70])
    mu = np.zeros((n, p))
    mu[:, 0:10] = ((labels + 1) / 4.0)[:, None]
    rng = np.random.default_rng(seed)
    y = mu + 0.1 * rng.standard_normal(mu.shape)
    return DataMatrix(y)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_data: object  # sub-seed -> DataMatrix
    fit_source: str  # "ex2"/"ex4" for --simulate, "csv" for --data
    replicates: int
    warmup: int  # untimed sweeps per replicate, part of set-up
    min_sweeps: int  # timed sweeps per replicate, at least
    sweep_rate: float  # sweeps per calibrated second over all replicates at 0.1.0
    sweep_share: float  # share of --seconds the sweep phase takes at that rate
    fits: int  # replicates fitted in an untraced run
    fit_repeats: int  # fits of each of those replicates; repeats must match
    fit_iters: int
    fit_burn_in: int
    init_mode: str = "one"
    hp_overrides: dict = field(default_factory=dict)
    expect_k: int | None = None  # modal K every fit must report

    def sub_seeds(self, seed):
        """Seed of each replicate; distinct for every workload seed as long
        as there are fewer than 1000 replicates."""
        return [1000 * seed + r for r in range(self.replicates)]

    def sweeps_per_replicate(self, seconds):
        """Timed sweeps per replicate for a run of ``seconds``. The count is
        fixed by the run length, not by the speed of the program, so two
        versions of the program sweep the same chains equally far."""
        nominal = seconds * self.sweep_share * self.sweep_rate / self.replicates
        return max(self.min_sweeps, round(nominal))

    def fit_argv(self, seed, out_dir, data_csv=None, config=None):
        """Command line of one fit of replicate data with this sub-seed."""
        argv = ["--seed", str(seed), "--iters", str(self.fit_iters),
                "--burn-in", str(self.fit_burn_in), "--init", self.init_mode,
                "--out", out_dir]
        if self.fit_source == "csv":
            argv += ["--data", data_csv]
        else:
            argv += ["--simulate", self.fit_source]
        if config is not None:
            argv += ["--config", config]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ex2_wide",
            why="paper's widest design (20x1000): baseline DP over 1000 attributes "
                "and spike-only birth scans dominate the sweep",
            make_data=lambda s: gen_example2(s)[0],
            fit_source="ex2",
            replicates=4,
            warmup=10,
            min_sweeps=25,
            sweep_rate=4.6,
            sweep_share=0.72,
            fits=4,
            fit_repeats=2,
            fit_iters=4,
            fit_burn_in=2,
        ),
        Workload(
            name="tall_n200",
            why="ex3 scaled to n=200 (p=50): per-sample birth, death and "
                "reassignment dominate; baseline DP is a small share",
            make_data=gen_tall_n200,
            fit_source="csv",
            replicates=6,
            warmup=10,
            min_sweeps=17,
            sweep_rate=16.0,
            sweep_share=0.85,
            fits=6,
            fit_repeats=1,
            fit_iters=10,
            fit_burn_in=5,
        ),
        Workload(
            name="fit_ex4_dense",
            why="full CLI fit of ex4 with rho ~ Beta(2,2): dense slab means, "
                "trace recording, summaries and CSV output",
            make_data=lambda s: gen_example4(s)[0],
            fit_source="ex4",
            replicates=8,
            warmup=20,
            min_sweeps=13,
            sweep_rate=52.0,
            sweep_share=0.35,
            fits=1,
            fit_repeats=2,
            fit_iters=800,
            fit_burn_in=400,
            init_mode="singletons",
            hp_overrides={"rho_a": 2.0, "rho_b": 2.0},
            expect_k=2,
        ),
    )
}
