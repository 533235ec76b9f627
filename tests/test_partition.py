import itertools
import math

import numpy as np
import pytest

from sparseclust.partition import DETACHED, SPIKE, Partition, crp_log_prob


def build(assignment_lists):
    """Partition from explicit member lists, e.g. [[0,1],[2]]."""
    n = sum(len(m) for m in assignment_lists)
    part = Partition(n)
    for members in assignment_lists:
        cid = part.attach_new(members[0], 0.0)
        for item in members[1:]:
            part.attach(item, cid)
    return part


def test_detach_singleton_deletes_cluster():
    part = build([[0, 1], [2]])
    part.detach(2)
    assert sorted(part.sizes()) == [2]
    assert part.cluster_of(2) == DETACHED


def test_detach_decrements_count():
    part = build([[0, 1], [2]])
    part.detach(0)
    assert sorted(part.sizes()) == [1, 1]


def test_detach_unassigned_is_error():
    part = build([[0, 1], [2]])
    part.detach(0)
    with pytest.raises(RuntimeError):
        part.detach(0)


def test_attach_new_then_detach_roundtrip():
    part = build([[0, 1], [2]])
    before = sorted(part.sizes())
    part.detach(1)
    part.attach_new(1, 7.0)
    part.detach(1)
    cid = part.cluster_of(0)
    part.attach(1, cid)
    assert sorted(part.sizes()) == before


def test_attach_to_dead_cluster_is_error():
    part = build([[0], [1]])
    dead = part.cluster_of(1)
    part.detach(1)
    with pytest.raises(RuntimeError):
        part.attach(1, dead)


def test_random_operation_sequence_vs_set_oracle():
    """1000 random detach/attach ops tracked against a list-of-sets oracle."""
    rng = np.random.default_rng(42)
    n = 30
    part = Partition(n)
    oracle = {}  # cid -> set of items
    for i in range(n):
        cid = part.attach_new(i, float(i))
        oracle[cid] = {i}

    for _ in range(1000):
        item = int(rng.integers(n))
        old = part.detach(item)
        oracle[old].discard(item)
        if not oracle[old]:
            del oracle[old]
        live = part.cluster_ids()
        if live and rng.random() < 0.7:
            cid = live[int(rng.integers(len(live)))]
            part.attach(item, cid)
            oracle[cid].add(item)
        else:
            cid = part.attach_new(item, rng.random())
            oracle[cid] = {item}

        part.validate()
        assert set(part.cluster_ids()) == set(oracle.keys())
        for cid, members in oracle.items():
            assert part.size_of(cid) == len(members)
        assert sum(part.sizes()) == n


def test_spike_assignments():
    part = Partition(3, allow_spike=True)
    part.attach_spike(0)
    part.attach_new(1, 2.5)
    part.attach_spike(2)
    assert part.n_clusters() == 1
    vec = part.values_vector()
    assert vec[0] == 0.0 and vec[1] == 2.5 and vec[2] == 0.0
    part.validate()


def test_canonical_orders_by_first_appearance():
    part = Partition(4)
    c1 = part.attach_new(1, 0.0)
    c0 = part.attach_new(0, 0.0)
    part.attach(2, c1)
    part.attach(3, c0)
    labels, order = part.canonical()
    # item 0 appears first, so its cluster gets label 0 regardless of cid age
    assert labels.tolist() == [0, 1, 1, 0]
    assert order == [c0, c1]


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
