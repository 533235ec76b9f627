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


PINS = {'ex1_default_one': {'labels': [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 2, 0, 0, 0],
                            'per_sweep': [(3, 77, 13, 2), (1, 49, 4, 0), (1, 44, 3, 0),
                                          (1, 34, 2, 0), (1, 37, 2, 0), (2, 33, 2, 0),
                                          (2, 29, 2, 0), (2, 30, 2, 0), (2, 29, 2, 0),
                                          (2, 21, 2, 0), (3, 15, 2, 0), (3, 13, 2, 0),
                                          (2, 13, 2, 0), (3, 13, 2, 0), (4, 11, 2, 0),
                                          (3, 13, 2, 0), (3, 13, 2, 0), (3, 14, 2, 0),
                                          (4, 13, 2, 0), (3, 13, 2, 0)],
                            'rng_state': 256663742941771922795008659864794796788},
        'ex2_default_one': {'labels': [0, 1, 2, 1, 3, 0, 1, 0, 1, 1, 2, 1, 0, 2, 0, 0, 0, 0, 0, 0],
                            'per_sweep': [(2, 351, 14, 1), (2, 233, 5, 1), (2, 196, 2, 1),
                                          (2, 193, 2, 1), (2, 181, 2, 2), (2, 156, 2, 1),
                                          (2, 143, 2, 1), (3, 133, 2, 3), (4, 106, 2, 2),
                                          (4, 96, 2, 2), (6, 84, 2, 3), (7, 78, 2, 3),
                                          (6, 87, 2, 3), (4, 94, 2, 3), (4, 91, 2, 2),
                                          (5, 89, 2, 4), (5, 85, 2, 3), (5, 81, 2, 4),
                                          (4, 77, 2, 3), (4, 87, 2, 3)],
                            'rng_state': 226403712607237447900620735563516533616},
        'ex3_beta22_singletons': {'labels': [0, 0, 0, 1, 2, 1, 3, 3, 3, 3, 3, 4, 3, 5, 5, 5, 5, 5,
                                             5, 5],
                                  'per_sweep': [(6, 18, 8, 27), (5, 9, 3, 45), (5, 7, 2, 65),
                                                (6, 4, 2, 92), (8, 4, 2, 136), (8, 4, 1, 148),
                                                (6, 2, 1, 87), (6, 2, 1, 104), (6, 2, 1, 91),
                                                (6, 2, 1, 95), (6, 2, 1, 104), (7, 2, 1, 114),
                                                (7, 2, 1, 103), (7, 2, 1, 112), (6, 2, 1, 94),
                                                (6, 2, 1, 94), (6, 2, 1, 98), (7, 2, 1, 115),
                                                (7, 2, 1, 125), (6, 2, 1, 95)],
                                  'rng_state': 102937612207451558540693065878820857838},
        'ex4_default_one': {'labels': [0, 1, 2, 1, 2, 2, 2, 2, 3, 3, 2, 3, 3, 2, 2, 2, 2, 3, 2, 2],
                            'per_sweep': [(1, 20, 14, 0), (1, 13, 8, 0), (2, 11, 6, 0),
                                          (5, 12, 5, 0), (4, 13, 5, 0), (3, 8, 4, 0), (1, 9, 4, 0),
                                          (1, 9, 4, 0), (1, 7, 4, 0), (1, 9, 4, 0), (2, 7, 4, 0),
                                          (2, 7, 4, 0), (2, 6, 4, 0), (4, 5, 4, 0), (3, 5, 4, 0),
                                          (3, 5, 4, 0), (3, 4, 4, 1), (3, 3, 4, 0), (4, 3, 5, 0),
                                          (4, 4, 4, 1)],
                            'rng_state': 45076883225530987410968944315343048774},
        'tall_default_one': {'labels': [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                             'per_sweep': [(2, 22, 8, 0), (1, 12, 4, 0), (1, 6, 3, 0),
                                           (1, 5, 2, 0), (1, 5, 2, 0), (1, 4, 2, 0),
                                           (1, 4, 2, 0), (1, 4, 2, 0), (1, 4, 2, 0),
                                           (1, 4, 2, 0), (1, 4, 2, 0), (1, 4, 2, 0),
                                           (1, 2, 2, 0), (1, 2, 2, 0), (1, 2, 2, 0),
                                           (1, 2, 2, 0), (1, 2, 2, 0), (1, 2, 2, 0),
                                           (1, 2, 2, 0), (1, 2, 2, 0)],
                             'rng_state': 211430084409540762834577666095589033611}}


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_stream_matches_pin(name):
    assert fingerprint(name) == PINS[name]


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: fingerprint(name) for name in sorted(CHAINS)}, width=92, compact=True)
