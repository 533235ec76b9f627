"""DP-clustered updates of the attribute baseline means and variances.

Both updates follow the same shape: per attribute, resample the cluster
assignment from a collapsed predictive (conditioning on the other members
of each cluster), then redraw every cluster's unique value from its
conjugate posterior (Neal 2000, JCGS 9:249, Algorithm 3).

A step works on the slot arrays of its partition (see ``partition.py``):
slot t is the t-th cluster in creation order, with its member count and its
members' sufficient statistics summed, and each attribute holds its slot
label. An attribute is scored against one table of three rows of terms:
column t < k holds slot t's, rewritten when the slot changes, and column k
a new cluster's. A column's weight reads it and the attribute's own terms.

- Mean step: a slot's terms are log c, its posterior variance and its
  negated posterior mean; the weight adds to log c the normal log density
  of rbar_j with variance (posterior variance + sigma_j^2 / n). A new
  cluster's column is (log conc, base_var, -base_mean).
- Variance step: a slot of posterior shape u and rate v holds
  A = log c + u log v - lgamma(u) + lgamma(u + n/2), then u + n/2 and v;
  the weight is A - (u + n/2) log(v + ssq_j / 2). A new cluster's column
  is (log conc + a log b - lgamma(a) + lgamma(a + n/2), a + n/2, b) for
  the prior shape a and rate b. The count-indexed terms depend only on a,
  n and p, so a chain builds them once. A one-row step's slot sums them as
  Python floats around numpy's log v, the array form's arithmetic, bit
  for bit.

The pass draws all p uniforms in one vector, then reseats the attributes in
order under two rules:

- An attribute that keeps its slot changes nothing. It is weighed against
  the slots as they stand with only itself taken out of its own, and only
  an attribute that moves is written.
- A slot its last member leaves stays, at count 0 and statistic 0, until
  the pass ends. Its log count is -inf, so it weighs nothing; a new cluster
  takes the next slot. ``partition.drop_empty`` drops the empty slots once
  at the end, so slot order stays creation order.

A row scored alone is weighed against the table itself, its own slot's
column rewritten without it and written back if it stays. Since a row that
stays changes nothing, the rows after it see the same slots, and a block
of consecutive rows is scored as one matrix, committed up to and including
the first row that moves; the next block starts after it. The pass opens
with a block over all of it. After a move, a block spans the longer of the
mean run of rows between moves so far and the run since the last move,
and rows are scored alone while both are short. Rows times slots stay
under a fixed number of cells, so many clusters mean short blocks, not
large temporaries. All values are then redrawn in one vector draw and the
partition is written back once.
"""

import functools
import math

import numpy as np

from .densities import LOG_2PI, SamplerAbort
from .partition import drop_empty


def _log_count_table(p):
    """log c for member counts c = 0..p; an empty slot's entry 0 is -inf."""
    with np.errstate(divide="ignore"):
        return np.log(np.arange(p + 1.0))


# The most cells, rows times (slots + 1), a block's weight matrix holds.
_BLOCK_CELLS = 4096
# The shortest run of rows between moves, mean or current, at which blocks
# span several rows: a block costs about four one-row steps and wastes its
# rows after the first that moves, so blocks pay only where most rows stay.
_MIN_RUN = 8
# The mean step's constants as 0-d arrays, which numpy takes faster than floats.
_LOG_2PI = np.array(LOG_2PI)
_HALF = np.array(0.5)


def _run_step(part, step, rng, where):
    """Reseat every attribute of ``part`` in order, then redraw every value
    and write the partition back.

    ``step.items[j]`` is attribute j's sufficient statistic (one number).
    ``step.slot_terms(count, stat)`` gives the three terms of a slot from
    its member count and summed statistic (scalars or arrays), and
    ``step.new_slot`` those of a new cluster. The table holds them in
    columns 0..k-1 and k, and one more new-cluster column for each slot the
    pass may open. ``step.logits(rows, terms)`` scores attribute ``rows``,
    an index with the table's three rows of k + 1 columns or a slice with
    a (3, rows, k + 1) array; ``step.values(labels, counts, rng)`` draws
    the final values.

    An attribute whose largest log weight is not finite (a NaN, +inf, or
    every weight -inf) raises SamplerAbort naming ``where`` and its 0-based
    index. The pass draws its p uniforms first, so a pass that aborts has
    drawn them all.
    """
    ids = part.cluster_ids()
    labels = part.labels.tolist()
    items = step.items.tolist()
    p = len(labels)
    k = len(ids)
    cnt = np.bincount(labels, minlength=k)
    stat = np.zeros(k, dtype=step.items.dtype)
    np.add.at(stat, labels, step.items)
    # A slot the pass opens at column k leaves the new cluster in column k + 1.
    table = np.empty((3, k + p + 1))
    table[:, :k] = step.slot_terms(cnt, stat)
    table[:, k:] = np.reshape(step.new_slot, (3, 1))
    cnt, stat = cnt.tolist(), stat.tolist()
    t0, t1, t2 = table  # a row view each, which one-row steps read and write
    seen = t0[:k + 1], t1[:k + 1], t2[:k + 1]  # the table as one row sees it
    uniforms = rng.random(p)
    u = uniforms.tolist()
    slot_terms, logits = step.slot_terms, step.logits
    exp, reduce, accumulate, isfinite = np.exp, np.add.reduce, np.add.accumulate, math.isfinite
    j = moves = last = 0  # moves: rows that left their slots; last: the row after the latest
    # A row with a non-finite weight aborts below; its arithmetic stays quiet.
    with np.errstate(all="ignore"):
        while j < p:
            n = 1 if j < _MIN_RUN * moves and j - last < _MIN_RUN else min(
                max(j // moves, j - last) if moves else p, max(1, _BLOCK_CELLS // (k + 1)), p - j)
            if n == 1:
                # One row is scored against the table itself: its own slot's
                # column is written without it, and back if it stays.
                r, s = 0, labels[j]
                c = cnt[s] - 1
                kept = t0[s], t1[s], t2[s]
                t0[s], t1[s], t2[s] = slot_terms(c, stat[s] - items[j] if c else 0)
                logw = logits(j, seen)
                prob = exp(logw - logw[logw.argmax()])  # a NaN is the argmax
                total = reduce(prob)
                if not isfinite(total):  # exactly when the largest weight is not
                    raise SamplerAbort(f"{where} j={j}: non-finite log weights {logw}")
                t = min(int(accumulate(prob).searchsorted(u[j] * total)), k)
                if t == s:
                    t0[s], t1[s], t2[s] = kept
                    j += 1
                    continue
            else:
                own = np.array(labels[j:j + n], np.intp)
                c = np.array(cnt)[own] - 1
                left = np.array(stat)[own] - step.items[j:j + n]
                block = table[:, None, :k + 1].repeat(n, 1)
                block[:, np.arange(n), own] = slot_terms(c, np.where(c > 0, left, 0))
                logw = logits(slice(j, j + n), block)
                prob = np.exp(logw - np.maximum.reduce(logw, -1, keepdims=True))
                total = np.add.reduce(prob, -1)
                # Row r joins the first slot whose running weight reaches
                # u_r * total_r, or the last slot. The block is committed up
                # to its first row that moves or weighs a non-finite total.
                draws = np.add.reduce(
                    np.add.accumulate(prob, -1) < (uniforms[j:j + n] * total)[:, None], -1, np.intp)
                stop = (draws != own) | ~np.isfinite(total)
                r = int(stop.argmax())
                if not stop[r]:  # every row of the block stayed
                    j += n
                    continue
                if not isfinite(total[r]):
                    raise SamplerAbort(f"{where} j={j + r}: non-finite log weights {logw[r]}")
                s, t = labels[j + r], min(int(draws[r]), k)
                table[:, s] = block[:, r, s]
            # Row j + r leaves slot s for slot t; the rows before it stayed.
            x = items[j + r]
            cnt[s] -= 1
            stat[s] = stat[s] - x if cnt[s] else 0
            if t == k:
                ids.append(None)
                cnt.append(1)
                stat.append(x)
                k += 1
                seen = t0[:k + 1], t1[:k + 1], t2[:k + 1]
            else:
                cnt[t] += 1
                stat[t] += x
            t0[t], t1[t], t2[t] = slot_terms(cnt[t], stat[t])
            labels[j + r] = t
            moves += 1
            j = last = j + r + 1
    ids, labels, counts = drop_empty(ids, labels, cnt)
    part.set_slots(ids, labels, counts, step.values(labels, counts, rng))


def _residual_col_means(state, data):
    """Per-attribute mean of y - mu_ij over samples (the step-1 statistic)."""
    samples = state.samples
    means = np.array([state.cluster_means[cid].mu() for cid in samples.cluster_ids()])
    return (data.y.sum(axis=0) - samples.counts @ means) / data.n


class _MeanStep:
    """The baseline-mean step's terms. Attribute j contributes precision
    w_j = n / sigma_j^2 and statistic q_j = w_j * rbar_j to its cluster,
    carried as the one number q_j + i w_j, so one Python number carries both
    sums through the per-slot lists."""

    def __init__(self, state, data, hp):
        sigma_sq = state.var_part.values_vector()
        rbar = _residual_col_means(state, data)
        w = data.n / sigma_sq
        self.items = data.n * rbar / sigma_sq + 1j * w
        self.prior_prec = 1.0 / hp.base_var
        self.prior_stat = hp.base_mean / hp.base_var
        self.log_count = _log_count_table(data.p)
        # Each attribute's own terms, sigma_j^2 / n and rbar_j: columns for
        # a block, 0-d arrays for one row, which numpy adds faster than floats.
        self.obs = np.stack((1.0 / w, rbar))[:, :, None]
        self.obs_var, self.rbar = self.obs[:, :, 0]
        self.new_slot = math.log(state.conc_mean), hp.base_var, -hp.base_mean

    def slot_terms(self, count, stat):
        """log c, then the slot's posterior variance and negated mean."""
        v = self.prior_prec + stat.imag
        return self.log_count[count], 1.0 / v, -((self.prior_stat + stat.real) / v)

    def logits(self, rows, terms):
        # With the mean negated, d = rbar_j - u is exactly an addition.
        log_c, post_var, neg_mean = terms
        if type(rows) is slice:
            obs_var, rbar = self.obs[:, rows]
        else:
            obs_var, rbar = self.obs_var[rows, ...], self.rbar[rows, ...]
        pv, d = post_var + obs_var, neg_mean + rbar
        return log_c - _HALF * (_LOG_2PI + np.log(pv) + d * d / pv)

    def values(self, labels, counts, rng):
        """One draw of every cluster value from its normal posterior."""
        prec = np.full(len(counts), self.prior_prec)
        np.add.at(prec, labels, self.items.imag)
        stat = np.full(len(counts), self.prior_stat)
        np.add.at(stat, labels, self.items.real)
        return stat / prec + np.sqrt(1.0 / prec) * rng.standard_normal(len(counts))


def step_baseline_means(state, data, hp, rng):
    _run_step(state.mean_part, _MeanStep(state, data, hp), rng, "baseline-mean assignment")


def _residual_sq_colsums(state, data):
    """Per-attribute sum over samples of (y - mu_j - mu_ij)^2."""
    mu_base = state.mean_part.values_vector()
    out = np.zeros(data.p)
    for cid, mem in state.samples.members().items():
        d = data.y[mem] - mu_base - state.cluster_means[cid].mu()
        out += (d * d).sum(axis=0)
    return out


@functools.lru_cache(maxsize=8)
def _var_tables(var_shape, n, p):
    """Count-indexed terms of a variance cluster of c = 0..p members: log c,
    its posterior shape u, lgamma(u), lgamma(u + n/2) and u + n/2, as a
    (5, p + 1) array and, per count, as a tuple of Python floats. Read-only,
    shared by every pass with these three numbers."""
    half_n = 0.5 * n
    shape = var_shape + np.arange(p + 1.0) * half_n
    shape1 = shape + half_n  # lgamma(u + n/2) reads u + n/2 as written
    tables = np.stack((
        _log_count_table(p), shape, [math.lgamma(u) for u in shape.tolist()],
        [math.lgamma(u) for u in shape1.tolist()], shape1,
    ))
    tables.flags.writeable = False
    return tables, tuple(map(tuple, tables.T.tolist()))


class _VarStep:
    """The baseline-variance step's terms. Attribute j contributes half its
    residual sum of squares over the n samples, ssq_j / 2, to its cluster."""

    def __init__(self, state, data, hp):
        self.items = 0.5 * _residual_sq_colsums(state, data)
        self.hp = hp
        self.n = data.n
        self.tables, self.by_count = _var_tables(hp.var_shape, data.n, data.p)
        shape1 = hp.var_shape + 0.5 * data.n
        base = (
            math.log(state.conc_var)
            + hp.var_shape * math.log(hp.var_rate) - math.lgamma(hp.var_shape)
            + math.lgamma(shape1)
        )
        self.new_slot = base, shape1, hp.var_rate

    def slot_terms(self, count, stat):
        """A = log c + u log v - lgamma(u) + lgamma(u + n/2) of a slot with
        posterior shape u and rate v, then u + n/2 and v. One slot, an int
        count, sums the same terms in Python floats."""
        v = self.hp.var_rate + stat
        if type(count) is int:
            log_c, u, gl_u, gl_u1, u1 = self.by_count[count]
            return log_c + u * float(np.log(v)) - gl_u + gl_u1, u1, v
        log_c, u, gl_u, gl_u1, u1 = self.tables[:, count]
        return log_c + u * np.log(v) - gl_u + gl_u1, u1, v

    def logits(self, rows, terms):
        a, u1, v = terms
        item = self.items[rows, None] if type(rows) is slice else self.items[rows, ...]
        return a - u1 * np.log(v + item)

    def values(self, labels, counts, rng):
        """One draw of every cluster value from its inverse-gamma posterior."""
        rate = np.full(len(counts), self.hp.var_rate)
        np.add.at(rate, labels, self.items)
        return rate / rng.gamma(self.hp.var_shape + counts * self.n / 2.0)


def step_baseline_vars(state, data, hp, rng):
    _run_step(state.var_part, _VarStep(state, data, hp), rng, "baseline-var assignment")
