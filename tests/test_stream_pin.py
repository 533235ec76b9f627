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


PINS = {'ex1_default_one': {'labels': [0, 1, 2, 2, 3, 2, 4, 4, 3, 0, 2, 4, 1, 2, 4, 2, 1, 2, 5, 2],
                            'per_sweep': [(3, 77, 13, 1), (3, 48, 4, 1), (3, 46, 3, 1),
                                          (12, 40, 2, 1), (6, 37, 2, 2), (7, 30, 2, 2),
                                          (10, 29, 2, 2), (9, 29, 2, 2), (9, 21, 2, 2),
                                          (11, 16, 2, 2), (6, 13, 2, 2), (6, 9, 2, 2),
                                          (8, 10, 2, 2), (6, 9, 2, 1), (5, 11, 2, 1),
                                          (5, 12, 2, 2), (6, 13, 2, 2), (5, 12, 2, 3),
                                          (6, 10, 2, 2), (6, 10, 2, 2)],
                            'rng_state': 195038177119335591979521192698446678523},
        'ex2_default_one': {'labels': [0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 2, 0, 0, 1, 1],
                            'per_sweep': [(3, 351, 14, 2), (3, 245, 6, 0), (2, 207, 4, 0),
                                          (1, 214, 3, 0), (1, 183, 3, 0), (1, 182, 2, 0),
                                          (1, 166, 2, 0), (1, 129, 2, 0), (2, 119, 2, 0),
                                          (1, 115, 2, 0), (1, 109, 2, 0), (1, 103, 2, 0),
                                          (1, 108, 2, 0), (1, 101, 2, 0), (1, 96, 2, 0),
                                          (1, 94, 2, 0), (1, 87, 2, 0), (1, 84, 2, 0),
                                          (2, 77, 2, 0), (3, 72, 2, 0)],
                            'rng_state': 320542244248386457813216099632016170388},
        'ex3_beta22_singletons': {'labels': [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                             0, 0],
                                  'per_sweep': [(5, 18, 8, 11), (3, 9, 5, 37), (3, 8, 3, 51),
                                                (3, 7, 3, 60), (4, 5, 2, 98), (3, 4, 2, 66),
                                                (3, 4, 2, 61), (3, 5, 2, 53), (3, 4, 2, 56),
                                                (2, 4, 2, 38), (1, 3, 2, 25), (1, 2, 2, 21),
                                                (1, 2, 2, 18), (1, 2, 2, 24), (1, 2, 2, 25),
                                                (1, 2, 2, 16), (1, 2, 2, 17), (1, 2, 2, 17),
                                                (1, 2, 2, 21), (1, 2, 2, 25)],
                                  'rng_state': 73562011703741400292954233090128630378},
        'ex4_default_one': {'labels': [0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 1, 0],
                            'per_sweep': [(3, 20, 14, 0), (4, 14, 7, 0), (6, 14, 7, 0),
                                          (4, 18, 5, 0), (4, 17, 4, 0), (4, 11, 4, 0),
                                          (3, 10, 3, 0), (4, 6, 3, 0), (5, 5, 3, 0), (3, 4, 3, 0),
                                          (4, 4, 3, 0), (6, 4, 3, 0), (6, 4, 3, 0), (5, 4, 3, 0),
                                          (7, 5, 3, 0), (7, 7, 3, 0), (8, 6, 3, 0), (7, 5, 3, 0),
                                          (6, 6, 3, 0), (3, 6, 3, 0)],
                            'rng_state': 182310167149724418847101298852364343193},
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
                             'per_sweep': [(1, 22, 8, 0), (1, 14, 3, 0), (1, 11, 2, 0),
                                           (1, 10, 2, 0), (1, 7, 2, 0), (1, 7, 2, 0), (1, 4, 2, 0),
                                           (1, 4, 2, 0), (2, 3, 2, 0), (1, 3, 2, 0), (1, 3, 2, 0),
                                           (1, 3, 2, 0), (1, 2, 2, 0), (1, 2, 2, 0), (1, 2, 2, 0),
                                           (1, 2, 2, 0), (1, 2, 2, 0), (1, 2, 2, 0), (1, 2, 2, 0),
                                           (1, 2, 2, 0)],
                             'rng_state': 29408493879983888159641354960390531624}}


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_stream_matches_pin(name):
    assert fingerprint(name) == PINS[name]


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: fingerprint(name) for name in sorted(CHAINS)}, width=92, compact=True)
