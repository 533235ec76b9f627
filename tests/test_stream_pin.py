"""Pins of the random stream: integer fingerprints of five short chains.

Each chain runs ``init_state`` and then ``sweep`` on a simulated design
with a fixed seed. A fingerprint holds, per sweep, K, the numbers of
baseline-mean and baseline-variance clusters and the number of nonzero mean
components; after the last sweep, the canonical sample labels and the
generator's 128-bit state. The four paper designs have n = 20; the tall
chain (n = 200) has birth/death passes long enough for long runs of
rejected births. Any change to the draws, their order or the
arithmetic that feeds them changes these numbers.

A change that alters the stream on purpose regenerates the pins (run this
file as a script and paste its output over ``PINS``) and says so in
CHANGES.md; any other change must leave them as they are.
"""

import numpy as np
import pytest

from sparseclust.chain import ALL_ONE_CLUSTER, ALL_SINGLETONS, ChainConfig, init_state, sweep
from sparseclust.model import DataMatrix, Hyperparams, default_hyperparams
from sparseclust.simulate import gen_example1, gen_example2, gen_example3, gen_example4

SWEEPS = 20


def gen_tall(seed):
    """Example 3's means at n = 200, p = 50: groups of 30/30/70/70 samples
    with mean c/4 for group c = 1..4 on attributes 1-10, zero elsewhere,
    noise sd 0.1."""
    n, p = 200, 50
    labels = np.repeat(np.arange(4), [30, 30, 70, 70])
    mu = np.zeros((n, p))
    mu[:, 0:10] = ((labels + 1) / 4.0)[:, None]
    y = mu + 0.1 * np.random.default_rng(seed).standard_normal(mu.shape)
    return DataMatrix(y), None


# name -> (design, data seed, chain seed, init mode, rho prior or None)
CHAINS = {
    "ex1_default_one": (gen_example1, 0, 1, ALL_ONE_CLUSTER, None),
    "ex2_default_one": (gen_example2, 0, 4, ALL_ONE_CLUSTER, None),
    "ex3_beta22_singletons": (gen_example3, 0, 2, ALL_SINGLETONS, (2.0, 2.0)),
    "ex4_default_one": (gen_example4, 0, 3, ALL_ONE_CLUSTER, None),
    "tall_default_one": (gen_tall, 0, 5, ALL_ONE_CLUSTER, None),
}


def fingerprint(name):
    design, data_seed, chain_seed, init_mode, rho = CHAINS[name]
    data, _truth = design(data_seed)
    hp = default_hyperparams(data)
    if rho is not None:
        hp = Hyperparams(**{**hp.__dict__, "rho_a": rho[0], "rho_b": rho[1]})
    rng = np.random.default_rng(chain_seed)
    state = init_state(data, hp, ChainConfig(seed=chain_seed, init_mode=init_mode), rng)
    per_sweep = []
    for _ in range(SWEEPS):
        sweep(state, data, hp, rng)
        per_sweep.append((
            state.samples.n_clusters(),
            state.mean_part.n_clusters(),
            state.var_part.n_clusters(),
            sum(m.nonzero_count() for m in state.cluster_means.values()),
        ))
    labels, _order = state.samples.canonical()
    return {
        "per_sweep": per_sweep,
        "labels": [int(v) for v in labels],
        "rng_state": rng.bit_generator.state["state"]["state"],
    }


PINS = {'ex1_default_one': {'labels': [0, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0],
                            'per_sweep': [(4, 78, 13, 0), (4, 54, 4, 0), (6, 44, 4, 0),
                                          (5, 32, 2, 0), (4, 34, 2, 0), (4, 22, 2, 0),
                                          (5, 18, 2, 0), (5, 19, 2, 0), (4, 14, 2, 0),
                                          (4, 17, 2, 0), (3, 18, 2, 0), (2, 16, 2, 0),
                                          (3, 20, 2, 0), (3, 18, 2, 0), (2, 13, 3, 0),
                                          (3, 15, 2, 0), (2, 14, 2, 0), (3, 18, 2, 0),
                                          (2, 17, 2, 0), (2, 19, 2, 0)],
                            'rng_state': 255832593491834758840366567638086885623},
        'ex2_default_one': {'labels': [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                            'per_sweep': [(2, 352, 19, 0), (2, 245, 5, 0), (2, 227, 2, 0),
                                          (3, 188, 2, 0), (3, 189, 2, 0), (4, 166, 2, 0),
                                          (4, 162, 2, 0), (3, 149, 2, 0), (3, 132, 2, 0),
                                          (2, 119, 2, 0), (1, 119, 2, 0), (1, 117, 2, 0),
                                          (1, 112, 2, 0), (1, 88, 2, 0), (1, 79, 2, 0),
                                          (1, 76, 2, 0), (1, 81, 2, 0), (1, 83, 2, 0),
                                          (1, 87, 2, 0), (1, 76, 2, 0)],
                            'rng_state': 205720357734011461801179963433785811570},
        'ex3_beta22_singletons': {'labels': [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2,
                                             2, 2],
                                  'per_sweep': [(6, 17, 12, 10), (6, 11, 4, 55), (5, 10, 3, 66),
                                                (4, 8, 2, 65), (4, 6, 2, 79), (4, 5, 2, 69),
                                                (4, 5, 2, 69), (4, 6, 2, 66), (4, 5, 2, 65),
                                                (3, 3, 1, 47), (3, 3, 1, 42), (3, 2, 1, 41),
                                                (3, 2, 1, 39), (3, 2, 1, 39), (3, 2, 1, 47),
                                                (3, 2, 1, 36), (3, 2, 1, 49), (3, 2, 1, 50),
                                                (3, 2, 1, 55), (3, 2, 1, 53)],
                                  'rng_state': 283616447589986463561046632643922237316},
        'ex4_default_one': {'labels': [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
                            'per_sweep': [(2, 19, 18, 0), (1, 20, 12, 0), (1, 18, 10, 0),
                                          (1, 18, 6, 0), (2, 13, 6, 0), (3, 11, 5, 0),
                                          (3, 9, 4, 0), (3, 7, 3, 0), (2, 9, 3, 0), (2, 9, 3, 0),
                                          (2, 10, 3, 0), (2, 8, 3, 0), (2, 6, 3, 0), (3, 9, 3, 0),
                                          (4, 8, 3, 0), (3, 8, 3, 0), (2, 6, 3, 0), (1, 5, 3, 0),
                                          (1, 4, 3, 0), (2, 3, 3, 0)],
                            'rng_state': 47302650398176722501549956356371098542},
        'tall_default_one': {'labels': [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                        0],
                             'per_sweep': [(2, 20, 8, 0), (3, 11, 3, 0), (2, 8, 2, 0),
                                           (2, 5, 2, 0), (1, 4, 2, 0), (1, 3, 2, 0), (1, 3, 2, 0),
                                           (1, 3, 2, 0), (1, 3, 2, 0), (1, 3, 2, 0), (1, 3, 2, 0),
                                           (2, 2, 2, 0), (1, 2, 2, 0), (1, 2, 2, 0), (1, 2, 2, 0),
                                           (1, 2, 2, 0), (1, 2, 2, 0), (1, 2, 2, 0), (1, 2, 2, 0),
                                           (1, 2, 2, 0)],
                             'rng_state': 306343284178560722768700971659027450536}}


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_stream_matches_pin(name):
    assert fingerprint(name) == PINS[name]


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: fingerprint(name) for name in sorted(CHAINS)}, width=92, compact=True)
