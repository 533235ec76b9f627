"""Partition structure with Chinese-restaurant bookkeeping.

One structure serves four roles: sample clusters, baseline-mean clusters,
baseline-variance clusters, and the inner partition of each cluster mean
vector (which additionally admits a SPIKE state meaning "exactly zero").

Cluster ids are stable handles, not contiguous integers; contiguous labels
are produced only when a trace is recorded (see ``canonical``).
"""

import math

import numpy as np

# Sentinels stored in ``assignments``. SPIKE marks a zero component in an
# inner mean partition; DETACHED marks an item between detach and attach.
SPIKE = -1
DETACHED = -2


class Partition:
    __slots__ = ("n_items", "allow_spike", "assignments", "clusters", "_next_id")

    def __init__(self, n_items, allow_spike=False):
        self.n_items = n_items
        self.allow_spike = allow_spike
        self.assignments = [DETACHED] * n_items
        self.clusters = {}  # cid -> [count, value]
        self._next_id = 0

    # -- mutation ---------------------------------------------------------

    def detach(self, item):
        """Remove an item from its cluster, deleting the cluster if emptied.

        Returns the previous assignment (cid or SPIKE). The partition itself
        is the view of the remaining counts and payloads.
        """
        cid = self.assignments[item]
        if cid == DETACHED:
            raise RuntimeError(f"item {item} is not assigned")
        if cid != SPIKE:
            cl = self.clusters[cid]
            cl[0] -= 1
            if cl[0] == 0:
                del self.clusters[cid]
        self.assignments[item] = DETACHED
        return cid

    def attach(self, item, cid):
        """Attach a detached item to a live cluster."""
        if self.assignments[item] != DETACHED:
            raise RuntimeError(f"item {item} is already assigned")
        cl = self.clusters.get(cid)
        if cl is None:
            raise RuntimeError(f"cluster {cid} is not live")
        cl[0] += 1
        self.assignments[item] = cid

    def attach_new(self, item, value):
        """Attach a detached item to a fresh singleton cluster with payload."""
        if self.assignments[item] != DETACHED:
            raise RuntimeError(f"item {item} is already assigned")
        cid = self._next_id
        self._next_id += 1
        self.clusters[cid] = [1, value]
        self.assignments[item] = cid
        return cid

    def attach_spike(self, item):
        if not self.allow_spike:
            raise RuntimeError("partition does not admit SPIKE assignments")
        if self.assignments[item] != DETACHED:
            raise RuntimeError(f"item {item} is already assigned")
        self.assignments[item] = SPIKE

    # -- queries ----------------------------------------------------------

    def cluster_of(self, item):
        return self.assignments[item]

    def size_of(self, cid):
        return self.clusters[cid][0]

    def value_of(self, cid):
        return self.clusters[cid][1]

    def set_value(self, cid, value):
        self.clusters[cid][1] = value

    def n_clusters(self):
        return len(self.clusters)

    def sizes(self):
        return [cl[0] for cl in self.clusters.values()]

    def members(self):
        """Bucket items by cluster id (spike/detached items are skipped)."""
        out = {cid: [] for cid in self.clusters}
        for item, cid in enumerate(self.assignments):
            if cid >= 0:
                out[cid].append(item)
        return out

    def values_vector(self):
        """Per-item payload value; SPIKE items contribute exactly 0.0."""
        clusters = self.clusters
        return np.array([
            0.0 if cid == SPIKE else clusters[cid][1] for cid in self.assignments
        ])

    def slots(self):
        """Creation-ordered slot view of a partition with every item in a
        cluster: (cids, labels), where slot t is the t-th live cluster,
        cids[t] its id and labels[item] the item's slot."""
        cids = list(self.clusters)
        slot_of = {cid: t for t, cid in enumerate(cids)}
        return cids, np.array([slot_of[cid] for cid in self.assignments], dtype=np.intp)

    def set_slots(self, cids, counts, labels, values):
        """Replace the whole partition by a slot view with one value per
        slot; None cids (new clusters) get the next ids in slot order."""
        cids = list(cids)
        for t, cid in enumerate(cids):
            if cid is None:
                cids[t] = self._next_id
                self._next_id += 1
        self.assignments = [cids[t] for t in labels.tolist()]
        self.clusters = {
            cid: [n, v] for cid, n, v in zip(cids, counts.tolist(), values.tolist())
        }

    def canonical(self):
        """Contiguous labels in order of first appearance.

        Returns (labels, cid_order) where labels[i] is the 0-based label of
        item i (SPIKE stays -1) and cid_order lists the cid for each label.
        """
        labels = np.empty(self.n_items, dtype=np.int64)
        order = []
        seen = {}
        for item, cid in enumerate(self.assignments):
            if cid == SPIKE:
                labels[item] = -1
                continue
            if cid not in seen:
                seen[cid] = len(order)
                order.append(cid)
            labels[item] = seen[cid]
        return labels, order

    def validate(self):
        """Check the structural invariants; raises AssertionError on failure."""
        tally = {}
        for item, cid in enumerate(self.assignments):
            if cid == DETACHED:
                raise AssertionError(f"item {item} left detached")
            if cid == SPIKE:
                if not self.allow_spike:
                    raise AssertionError(f"item {item} marked SPIKE in a no-spike partition")
                continue
            if cid not in self.clusters:
                raise AssertionError(f"item {item} references dead cluster {cid}")
            tally[cid] = tally.get(cid, 0) + 1
        for cid, cl in self.clusters.items():
            if cl[0] <= 0:
                raise AssertionError(f"cluster {cid} persists with count {cl[0]}")
            if tally.get(cid, 0) != cl[0]:
                raise AssertionError(
                    f"cluster {cid} count {cl[0]} != membership {tally.get(cid, 0)}"
                )
            if cl[1] is not None and not np.all(np.isfinite(cl[1])):
                raise AssertionError(f"cluster {cid} has non-finite payload")

    def copy(self):
        out = Partition(self.n_items, self.allow_spike)
        out.assignments = list(self.assignments)
        out.clusters = {cid: [cl[0], cl[1]] for cid, cl in self.clusters.items()}
        out._next_id = self._next_id
        return out


def crp_seat(part, conc, rng):
    """Seat one new item by the Chinese-restaurant rule.

    Returns the live cid to join (probability proportional to its count) or
    None for a new table (proportional to ``conc``). Draws exactly one
    uniform and visits clusters in creation order, so a fixed stream gives a
    fixed partition.
    """
    u = rng.random() * (conc + sum(cl[0] for cl in part.clusters.values()))
    acc = 0.0
    for cid, cl in part.clusters.items():
        acc += cl[0]
        if u <= acc:
            return cid
    return None


def crp_log_prob(sizes, conc):
    """Log probability of a labeled set partition under a CRP.

    For cluster sizes n_1..n_K over n = sum(n_c) items:
    conc^K * prod (n_c - 1)! / prod_{i=0}^{n-1} (conc + i).
    """
    if conc <= 0.0:
        raise ValueError(f"concentration must be positive, got {conc}")
    sizes = list(sizes)
    if not sizes:
        raise ValueError("sizes must be non-empty")
    n = sum(sizes)
    out = len(sizes) * math.log(conc)
    for s in sizes:
        out += math.lgamma(s)
    for i in range(n):
        out -= math.log(conc + i)
    return out
