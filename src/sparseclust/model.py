"""Domain types: data matrix, hyperparameters, and the full latent state."""

from dataclasses import dataclass, fields

import numpy as np

from .clusters import ClusterMeanVector
from .partition import SPIKE, Partition


class DegenerateDataError(ValueError):
    """Raised when the data cannot identify the base-measure spread."""


class DataMatrix:
    """An n x p matrix of observed values, one sample per row."""

    __slots__ = ("y", "names")

    def __init__(self, y, names=None):
        y = np.asarray(y, dtype=float)
        if y.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {y.shape}")
        if y.shape[0] < 2 or y.shape[1] < 1:
            raise ValueError(f"need at least 2 samples and 1 attribute, got {y.shape}")
        if not np.all(np.isfinite(y)):
            bad = np.argwhere(~np.isfinite(y))[0]
            raise ValueError(f"non-finite entry at row {bad[0]}, column {bad[1]}")
        if names is not None and len(names) != y.shape[1]:
            raise ValueError("names length does not match attribute count")
        self.y = y
        self.names = list(names) if names is not None else None

    @property
    def n(self):
        return self.y.shape[0]

    @property
    def p(self):
        return self.y.shape[1]


@dataclass
class Hyperparams:
    """Fixed constants of the model.

    base_mean/base_var parameterize the normal base measure for baseline
    means; var_shape/var_rate the inverse-gamma base for baseline variances;
    slab_a/slab_b the Beta slab for inclusion probabilities; rho_a/rho_b the
    Beta prior for attribute activity propensities.
    """

    base_mean: float
    base_var: float
    var_shape: float = 0.5
    var_rate: float = 0.5
    eta_shape: float = 0.5
    eta_rate: float = 0.5
    conc_shape: float = 0.5
    conc_rate: float = 0.5
    slab_a: float = 9.0
    slab_b: float = 1.0
    rho_a: float = 0.2
    rho_b: float = 199.8

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not np.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v}")
            if f.name != "base_mean" and v <= 0.0:
                raise ValueError(f"{f.name} must be strictly positive, got {v}")


def default_hyperparams(data):
    """Hyperparameters with the base measure centered on the data.

    The base-measure mean is the grand mean of the attribute means and the
    base-measure variance is the spread of the attribute means around it.
    """
    col_means = data.y.mean(axis=0)
    grand = float(col_means.mean())
    spread = float(((col_means - grand) ** 2).mean())
    if spread == 0.0:
        raise DegenerateDataError(
            "attribute means are all identical; base-measure variance would be zero"
        )
    return Hyperparams(base_mean=grand, base_var=spread)


class ModelState:
    """Complete latent state of one chain.

    mean_part / var_part partition the attributes and carry the baseline
    means / variances as cluster payloads. ``samples`` partitions the
    samples; per live sample-cluster id there is a ClusterMeanVector, an
    inclusion-probability row, and a cached column sum of the member rows.
    """

    __slots__ = (
        "mean_part", "var_part", "samples", "cluster_means", "incl_prob",
        "cluster_data_sum", "attr_prob", "slab_var",
        "conc_samples", "conc_mean", "conc_var", "conc_inner",
    )

    def __init__(self, mean_part, var_part, samples, cluster_means, incl_prob,
                 cluster_data_sum, attr_prob, slab_var,
                 conc_samples, conc_mean, conc_var, conc_inner):
        self.mean_part = mean_part
        self.var_part = var_part
        self.samples = samples
        self.cluster_means = cluster_means
        self.incl_prob = incl_prob
        self.cluster_data_sum = cluster_data_sum
        self.attr_prob = attr_prob
        self.slab_var = slab_var
        self.conc_samples = conc_samples
        self.conc_mean = conc_mean
        self.conc_var = conc_var
        self.conc_inner = conc_inner

    @property
    def n(self):
        return self.samples.n_items

    @property
    def p(self):
        return self.mean_part.n_items

    def validate(self, data=None):
        """Structural invariants; raises AssertionError on the first failure."""
        self.mean_part.validate()
        self.var_part.validate()
        self.samples.validate()
        for part in (self.mean_part, self.var_part):
            if any(a == SPIKE for a in part.assignments):
                raise AssertionError("baseline partitions must not contain spikes")
        for cl in self.var_part.clusters.values():
            if cl[1] <= 0.0:
                raise AssertionError(f"non-positive baseline variance {cl[1]}")
        live = set(self.samples.clusters)
        if set(self.cluster_means) != live or set(self.incl_prob) != live \
                or set(self.cluster_data_sum) != live:
            raise AssertionError("per-cluster payload keys out of sync with live clusters")
        for cid in live:
            mean = self.cluster_means[cid]
            mean.inner.validate()
            row = self.incl_prob[cid]
            if row.shape != (self.p,):
                raise AssertionError("inclusion row has wrong shape")
            if np.any(row < 0.0) or np.any(row > 1.0):
                raise AssertionError("inclusion probabilities outside [0,1]")
            for j, a in enumerate(mean.inner.assignments):
                if a != SPIKE and row[j] <= 0.0:
                    raise AssertionError(
                        f"nonzero mean component ({cid},{j}) with zero inclusion probability"
                    )
        if np.any(self.attr_prob <= 0.0) or np.any(self.attr_prob >= 1.0):
            raise AssertionError("attribute propensities must lie strictly inside (0,1)")
        for name in ("slab_var", "conc_samples", "conc_mean", "conc_var", "conc_inner"):
            v = getattr(self, name)
            if not (v > 0.0 and np.isfinite(v)):
                raise AssertionError(f"{name} must be positive and finite, got {v}")
        if data is not None:
            for cid, mem in self.samples.members().items():
                expect = data.y[mem].sum(axis=0)
                if not np.allclose(self.cluster_data_sum[cid], expect, atol=1e-8):
                    raise AssertionError(f"stale data sums for cluster {cid}")

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        def part(p):
            return {
                "n_items": p.n_items,
                "allow_spike": p.allow_spike,
                "assignments": list(p.assignments),
                "clusters": [[cid, cl[0], cl[1]] for cid, cl in p.clusters.items()],
                "next_id": p._next_id,
            }

        return {
            "mean_part": part(self.mean_part),
            "var_part": part(self.var_part),
            "samples": part(self.samples),
            "cluster_means": {str(cid): part(m.inner) for cid, m in self.cluster_means.items()},
            "incl_prob": {str(cid): row.tolist() for cid, row in self.incl_prob.items()},
            "cluster_data_sum": {str(cid): v.tolist() for cid, v in self.cluster_data_sum.items()},
            "attr_prob": self.attr_prob.tolist(),
            "slab_var": self.slab_var,
            "conc_samples": self.conc_samples,
            "conc_mean": self.conc_mean,
            "conc_var": self.conc_var,
            "conc_inner": self.conc_inner,
        }

    @classmethod
    def from_dict(cls, d):
        def part(pd):
            p = Partition(pd["n_items"], pd["allow_spike"])
            p.assignments = list(pd["assignments"])
            p.clusters = {cid: [cnt, val] for cid, cnt, val in pd["clusters"]}
            p._next_id = pd["next_id"]
            return p

        means = {}
        for cid, pd in d["cluster_means"].items():
            m = ClusterMeanVector.__new__(ClusterMeanVector)
            m.inner = part(pd)
            means[int(cid)] = m
        return cls(
            mean_part=part(d["mean_part"]),
            var_part=part(d["var_part"]),
            samples=part(d["samples"]),
            cluster_means=means,
            incl_prob={int(c): np.array(v) for c, v in d["incl_prob"].items()},
            cluster_data_sum={int(c): np.array(v) for c, v in d["cluster_data_sum"].items()},
            attr_prob=np.array(d["attr_prob"]),
            slab_var=d["slab_var"],
            conc_samples=d["conc_samples"],
            conc_mean=d["conc_mean"],
            conc_var=d["conc_var"],
            conc_inner=d["conc_inner"],
        )

    def copy(self):
        return ModelState.from_dict(self.to_dict())
