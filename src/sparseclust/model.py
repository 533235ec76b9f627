"""Domain types: data matrix, hyperparameters, and the full latent state."""

from dataclasses import dataclass, fields

import numpy as np

from .clusters import ClusterMeanVector
from .partition import Partition


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
            raise ValueError(f"non-finite entry y[{bad[0]}, {bad[1]}] (0-based)")
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


def default_hyperparams(data, **overrides):
    """Hyperparameters with the base measure centered on the data.

    ``overrides`` set any fields. The data supplies only the base-measure
    keys they leave unset: base_mean is the grand mean of the attribute
    means, base_var the spread of the attribute means around it. A spread
    that is negligible next to the variance of the data (identical or
    standardized attribute means) cannot identify base_var, and raises.
    """
    col_means = data.y.mean(axis=0)
    grand = float(col_means.mean())
    base = {"base_mean": grand}
    if "base_var" not in overrides:
        spread = float(((col_means - grand) ** 2).mean())
        scale = float(data.y.var())
        if spread <= np.finfo(float).eps * scale:
            raise DegenerateDataError(
                f"attribute means are all identical (spread {spread:.3g} against a "
                f"data variance of {scale:.3g}), so the base-measure variance would "
                "be zero; set base_var (and base_mean) in the config"
            )
        base["base_var"] = spread
    return Hyperparams(**{**base, **overrides})


_PARTITIONS = ("mean_part", "var_part", "samples")
_SCALARS = ("slab_var", "conc_samples", "conc_mean", "conc_var", "conc_inner")


@dataclass(eq=False, slots=True)
class ModelState:
    """Complete latent state of one chain.

    mean_part / var_part partition the attributes and carry the baseline
    means / variances as cluster values. ``samples`` partitions the
    samples; per live sample-cluster id there is a ClusterMeanVector and an
    inclusion-probability row. The state holds only unknowns: quantities
    derived from the data, such as a cluster's summed member rows, are
    computed where they are read.
    """

    mean_part: Partition
    var_part: Partition
    samples: Partition
    cluster_means: dict
    incl_prob: dict
    attr_prob: np.ndarray
    slab_var: float
    conc_samples: float
    conc_mean: float
    conc_var: float
    conc_inner: float

    @property
    def n(self):
        return self.samples.n_items

    @property
    def p(self):
        return self.mean_part.n_items

    def validate(self, data=None):
        """Structural invariants, and that ``data`` (if given) has the
        state's shape; raises AssertionError on the first failure."""
        self.mean_part.validate()
        self.var_part.validate()
        self.samples.validate()
        if self.mean_part.allow_spike or self.var_part.allow_spike:
            raise AssertionError("baseline partitions must not admit spikes")
        if (self.var_part.values <= 0.0).any():
            raise AssertionError(f"non-positive baseline variance in {self.var_part.values}")
        live = set(self.samples.cluster_ids())
        if set(self.cluster_means) != live or set(self.incl_prob) != live:
            raise AssertionError("per-cluster payload keys out of sync with live clusters")
        for cid in live:
            mean = self.cluster_means[cid]
            mean.inner.validate()
            row = self.incl_prob[cid]
            if row.shape != (self.p,):
                raise AssertionError("inclusion row has wrong shape")
            if np.any(row < 0.0) or np.any(row > 1.0):
                raise AssertionError("inclusion probabilities outside [0,1]")
            bad = np.flatnonzero(~mean.inner.spike_mask() & (row <= 0.0))
            if bad.size:
                raise AssertionError(
                    f"nonzero mean component ({cid},{bad[0]}) with zero inclusion probability"
                )
        if np.any(self.attr_prob <= 0.0) or np.any(self.attr_prob >= 1.0):
            raise AssertionError("attribute propensities must lie strictly inside (0,1)")
        for name in _SCALARS:
            v = getattr(self, name)
            if not (v > 0.0 and np.isfinite(v)):
                raise AssertionError(f"{name} must be positive and finite, got {v}")
        if data is not None and data.y.shape != (self.n, self.p):
            raise AssertionError(f"data shape {data.y.shape} != state shape {(self.n, self.p)}")

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        """The state as plain lists, dicts and numbers (JSON-serializable)."""
        return {
            **{name: getattr(self, name).to_dict() for name in _PARTITIONS},
            "cluster_means": {str(c): m.inner.to_dict() for c, m in self.cluster_means.items()},
            "incl_prob": {str(c): row.tolist() for c, row in self.incl_prob.items()},
            "attr_prob": self.attr_prob.tolist(),
            **{name: getattr(self, name) for name in _SCALARS},
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            **{name: Partition.from_dict(d[name]) for name in _PARTITIONS},
            cluster_means={int(c): ClusterMeanVector(pd["n_items"], Partition.from_dict(pd))
                           for c, pd in d["cluster_means"].items()},
            incl_prob={int(c): np.array(v) for c, v in d["incl_prob"].items()},
            attr_prob=np.array(d["attr_prob"]),
            **{name: d[name] for name in _SCALARS},
        )
