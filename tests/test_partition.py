import itertools
import math

import numpy as np
import pytest

from sparseclust.partition import crp_log_prob, crp_seat

from conftest import build_partition


def test_move_from_singleton_deletes_cluster():
    part = build_partition([[0, 1], [2]])
    part.move(2, part.cluster_of(0))
    assert part.sizes() == [3]
    assert part.labels.tolist() == [0, 0, 0]
    part.validate()


def test_move_decrements_old_count():
    part = build_partition([[0, 1], [2]])
    part.move(0, part.cluster_of(2))
    assert part.sizes() == [1, 2]
    part.validate()


def test_move_of_spike_item_is_error():
    part = build_partition([[1]], [2.5], p=2)
    before = part.to_dict()
    with pytest.raises(RuntimeError):
        part.move(0)
    assert part.to_dict() == before


def test_move_to_new_and_back_roundtrip():
    part = build_partition([[0, 1], [2]], [1.5, 2.5])
    before = sorted(part.sizes())
    new = part.move(1)
    assert part.cluster_of(1) == new and part.values.tolist() == [1.5, 2.5, 0.0]
    part.move(1, part.cluster_of(0))
    assert sorted(part.sizes()) == before
    part.validate()


def test_move_to_dead_cluster_is_error():
    part = build_partition([[0], [1]])
    dead = part.cluster_of(1)
    part.move(1, part.cluster_of(0))
    before = part.to_dict()
    with pytest.raises(RuntimeError):
        part.move(0, dead)
    assert part.to_dict() == before


def test_random_operation_sequence_vs_set_oracle():
    """1000 random moves tracked against an oracle of member sets and
    cluster values; a new cluster holds 0.0, every start value differs."""
    rng = np.random.default_rng(42)
    n = 30
    part = build_partition([[i] for i in range(n)], [i + 1.0 for i in range(n)])
    oracle = {cid: {i} for i, cid in enumerate(part.cluster_ids())}  # cid -> set of items
    values = {cid: i + 1.0 for i, cid in enumerate(part.cluster_ids())}

    for _ in range(1000):
        item = int(rng.integers(n))
        old = part.cluster_of(item)
        live = part.cluster_ids()
        if rng.random() < 0.7:
            cid = part.move(item, live[int(rng.integers(len(live)))])
        else:
            cid = part.move(item)
            values[cid] = 0.0
        oracle[old].discard(item)
        oracle.setdefault(cid, set()).add(item)
        if not oracle[old]:
            del oracle[old], values[old]

        part.validate()
        assert part.cluster_ids() == sorted(oracle)
        for cid, members in oracle.items():
            assert part.sizes()[part.cluster_ids().index(cid)] == len(members)
            assert all(part.cluster_of(i) == cid for i in members)
        assert sum(part.sizes()) == n
        assert dict(zip(part.cluster_ids(), part.values.tolist())) == values


def test_spike_assignments():
    part = build_partition([[1]], [2.5], p=3)
    assert part.n_clusters() == 1
    vec = part.values_vector()
    assert vec[0] == 0.0 and vec[1] == 2.5 and vec[2] == 0.0
    part.validate()


def test_canonical_orders_by_first_appearance():
    part = build_partition([[1, 2], [0, 3]])
    c1, c0 = part.cluster_ids()
    labels, order = part.canonical()
    # item 0 appears first, so its cluster gets label 0 regardless of cid age
    assert labels.tolist() == [0, 1, 1, 0]
    assert order == [c0, c1]


class _FixedUniform:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_crp_seat_joins_first_slot_whose_cumulative_count_reaches_u():
    # counts [2, 1] with conc 1: u * 4 against the cumulative counts 2, 3
    for u, want in ((0.0, 0), (0.5, 0), (0.5001, 1), (0.75, 1), (0.7501, 2)):
        assert crp_seat([2, 1], 1.0, _FixedUniform(u)) == want
    assert crp_seat([], 0.5, _FixedUniform(0.3)) == 0
    # with conc 0, as the death move draws its target, no table opens
    assert crp_seat([2, 1], 0.0, _FixedUniform(np.nextafter(1.0, 0.0))) == 1


# -- crp_log_prob oracles ---------------------------------------------------


def test_crp_single_item_certain():
    for conc in (0.1, 1.0, 10.0):
        assert crp_log_prob([1], conc) == pytest.approx(0.0, abs=1e-14)


def test_crp_pair_half():
    assert crp_log_prob([2], 1.0) == pytest.approx(math.log(0.5), abs=1e-14)


def _seating_probability_of(target_partition, conc):
    """Brute force: total probability of seating sequences that induce
    exactly the given set partition of items 0..n-1."""
    target = frozenset(frozenset(b) for b in target_partition)
    n = sum(len(b) for b in target_partition)
    total = 0.0

    def rec(step, tables, prob):
        nonlocal total
        if step == n:
            if frozenset(frozenset(t) for t in tables) == target:
                total += prob
            return
        denom = conc + step
        for t in range(len(tables)):
            rec(step + 1, [tb | {step} if i == t else tb for i, tb in enumerate(tables)],
                prob * len(tables[t]) / denom)
        rec(step + 1, tables + [{step}], prob * conc / denom)

    rec(0, [], 1.0)
    return total


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def test_crp_sizes_21_matches_enumeration():
    conc = 0.5
    want = _seating_probability_of([{0, 1}, {2}], conc)
    assert crp_log_prob([2, 1], conc) == pytest.approx(math.log(want), rel=1e-12)
    want4 = _seating_probability_of([{0, 2}, {1, 3}], 1.7)
    assert crp_log_prob([2, 2], 1.7) == pytest.approx(math.log(want4), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("conc", [0.5, 1.0, 2.7])
def test_crp_sums_to_one_over_all_partitions(n, conc):
    total = sum(
        math.exp(crp_log_prob([len(b) for b in p], conc))
        for p in _set_partitions(list(range(n)))
    )
    assert total == pytest.approx(1.0, rel=1e-12)


def test_crp_rejects_bad_input():
    with pytest.raises(ValueError):
        crp_log_prob([], 1.0)
    with pytest.raises(ValueError):
        crp_log_prob([1, 2], 0.0)
