"""Partition structure with Chinese-restaurant bookkeeping.

One structure serves four roles: sample clusters, baseline-mean clusters,
baseline-variance clusters, and the inner partition of each cluster mean
vector (which additionally admits a SPIKE state meaning "exactly zero").

The stored form is a set of slot arrays. The live clusters occupy slots
0..K-1 in creation order; per slot, ``counts`` holds its member count,
``values`` its value (0.0 where a role has none) and ``ids`` its stable id.
Ids grow with creation, so slot order is id order. Per item, ``labels``
holds its slot or SPIKE (-1); every item is always seated. A partition is
written whole, through the constructor or ``set_slots``; the one per-item
write, ``move``, serves the sample moves; when ``move`` empties a cluster,
its slot goes and later slots move down one. A pass that rewrites a whole
partition (the baseline DPs, the component walk) lets emptied slots stand at
count 0 while it runs and compacts them once with ``drop_empty``. The rest
of the state keys per-cluster payloads by id; contiguous labels are produced
only when a trace is recorded (see ``canonical``).
"""

import bisect
import math

import numpy as np

from .densities import pick_with_lse

# The label of a zero component in an inner mean partition.
SPIKE = -1


class Partition:
    __slots__ = ("n_items", "allow_spike", "labels", "counts", "values", "ids", "_next_id")

    def __init__(self, labels, counts, values, allow_spike=False):
        """A partition from slot arrays, as ``set_slots`` takes them; its K
        clusters get ids 0..K-1. An array argument of the stored dtype is
        kept, not copied."""
        self.allow_spike = allow_spike
        self.labels = np.asarray(labels, dtype=np.intp)
        self.n_items = len(self.labels)
        self.counts = np.asarray(counts, dtype=np.intp)
        self.values = np.asarray(values, dtype=float)
        self.ids = np.arange(len(self.counts), dtype=np.int64)
        self._next_id = len(self.counts)

    # -- mutation ---------------------------------------------------------

    # Per-item methods read single entries with ``item``, which returns a
    # Python number without building a numpy scalar.

    def move(self, item, cid=None):
        """Move a seated item to live cluster ``cid``, or to a new singleton
        cluster with value 0.0 when ``cid`` is None; returns the item's new
        cid. A cluster the move empties is deleted."""
        s = self.labels.item(item)
        if s < 0:
            raise RuntimeError(f"item {item} is not in a cluster")
        if cid is not None:
            t = bisect.bisect_left(self.ids, cid)  # ids increase with slot
            if t == len(self.ids) or self.ids.item(t) != cid:
                raise RuntimeError(f"cluster {cid} is not live")
            if t == s:
                return cid
        count = self.counts.item(s) - 1
        if count:
            self.counts[s] = count
        else:
            self.counts = np.delete(self.counts, s)
            self.values = np.delete(self.values, s)
            self.ids = np.delete(self.ids, s)
            self.labels[self.labels > s] -= 1
        if cid is None:
            t = len(self.counts)
            cid = self._next_id
            self._next_id += 1
            self.counts = np.append(self.counts, 1)
            self.values = np.append(self.values, 0.0)
            self.ids = np.append(self.ids, cid)
        else:
            if t > s and not count:
                t -= 1  # slot s went
            self.counts[t] = self.counts.item(t) + 1
        self.labels[item] = t
        return cid

    def set_slots(self, ids, labels, counts, values):
        """Replace the whole partition by slot arrays, slots in creation
        order; a None id marks a new cluster, which takes the next id. An
        array argument of the stored dtype is kept, not copied."""
        ids = list(ids)
        for t, cid in enumerate(ids):
            if cid is None:
                ids[t] = self._next_id
                self._next_id += 1
        self.ids = np.array(ids, dtype=np.int64)
        self.labels = np.asarray(labels, dtype=np.intp)
        self.counts = np.asarray(counts, dtype=np.intp)
        self.values = np.asarray(values, dtype=float)

    # -- queries ----------------------------------------------------------

    def cluster_of(self, item):
        """The id of the item's cluster, or SPIKE."""
        s = self.labels.item(item)
        return self.ids.item(s) if s >= 0 else s

    def cluster_size(self, item):
        """Member count of the item's cluster."""
        return self.counts.item(self.labels.item(item))

    def n_clusters(self):
        return len(self.counts)

    def cluster_ids(self):
        """Live cluster ids in creation order."""
        return self.ids.tolist()

    def sizes(self):
        """Member counts in creation order."""
        return self.counts.tolist()

    def members(self):
        """Items of each live cluster, by id in creation order (SPIKE items
        are skipped). Items are in ascending order, the order data rows are
        summed in."""
        order = np.argsort(self.labels, kind="stable")
        seated = order[self.n_items - int(self.counts.sum()):]  # SPIKE sorts first
        return dict(zip(self.cluster_ids(), np.split(seated, np.cumsum(self.counts)[:-1])))

    def values_vector(self):
        """Per-item value; SPIKE items contribute exactly 0.0."""
        return np.concatenate((self.values, (0.0,)))[self.labels]  # SPIKE reads the 0.0

    def canonical(self):
        """Contiguous labels in order of first appearance.

        Returns (labels, slot_order) where labels[i] is the 0-based label of
        item i (SPIKE stays -1) and slot_order is the slot of each label.
        """
        seated = self.labels >= 0
        slots, first = np.unique(self.labels[seated], return_index=True)
        order = slots[np.argsort(first)]
        rank = np.empty(len(self.counts), dtype=np.int64)
        rank[order] = np.arange(len(order))
        labels = np.full(self.n_items, -1, dtype=np.int64)
        labels[seated] = rank[self.labels[seated]]
        return labels, order

    def validate(self):
        """Check the structural invariants; raises AssertionError on failure."""
        labels, k = self.labels, len(self.counts)
        if labels.shape != (self.n_items,) or len(self.values) != k or len(self.ids) != k:
            raise AssertionError("slot arrays out of shape")
        lowest = SPIKE if self.allow_spike else 0
        bad = np.flatnonzero((labels < lowest) | (labels >= k))
        if bad.size:
            raise AssertionError(f"item {bad[0]} has label {labels[bad[0]]} with {k} slots")
        tally = np.bincount(labels[labels >= 0], minlength=k)
        if (self.counts <= 0).any() or (tally != self.counts).any():
            raise AssertionError(f"counts {self.counts} != memberships {tally}")
        if not np.isfinite(self.values).all():
            raise AssertionError("non-finite cluster value")
        if k and not (0 <= self.ids[0] and (np.diff(self.ids) > 0).all()
                      and self.ids[-1] < self._next_id):
            raise AssertionError(f"ids {self.ids} not increasing below {self._next_id}")

    # -- serialization ----------------------------------------------------

    def to_dict(self):
        arrays = ("labels", "counts", "values", "ids")
        return {
            "n_items": self.n_items, "allow_spike": self.allow_spike, "next_id": self._next_id,
            **{name: getattr(self, name).tolist() for name in arrays},
        }

    @classmethod
    def from_dict(cls, d):
        out = cls(d["labels"], d["counts"], d["values"], d["allow_spike"])
        out.ids = np.array(d["ids"], dtype=np.int64)
        out._next_id = d["next_id"]
        return out


def drop_empty(ids, labels, counts):
    """Slot arrays without their count-0 slots: (ids, labels, counts), the
    live slots moved down in order. SPIKE labels and None ids are kept."""
    counts = np.asarray(counts, dtype=np.intp)
    live = counts > 0
    slot = np.append(live.cumsum() - 1, SPIKE)  # a SPIKE label reads the last entry
    return [cid for cid, keep in zip(ids, live.tolist()) if keep], slot[labels], counts[live]


def crp_draw(n, conc, rng, draw_value, seated=None):
    """A partition of n items drawn from its prior: each item is seated in
    turn by a CRP with concentration ``conc``, and ``draw_value()`` gives
    each new cluster its value. With ``seated``, an array of n
    probabilities, item j takes a seat only when ``seated[j] > rng.random()``
    and is SPIKE otherwise."""
    labels, counts, values = [], [], []
    log_conc = math.log(conc)
    for j in range(n):
        if seated is not None and not seated[j] > rng.random():
            labels.append(SPIKE)
            continue
        t, _lse = pick_with_lse([*map(math.log, counts), log_conc], rng.random())
        if t == len(counts):
            counts.append(1)
            values.append(draw_value())
        else:
            counts[t] += 1
        labels.append(t)
    return Partition(labels, counts, values, allow_spike=seated is not None)
