"""DP-clustered updates of the attribute baseline means and variances.

Both updates follow the same shape: per attribute, resample the cluster
assignment from a collapsed predictive (conditioning on the other members
of each cluster), then redraw every cluster's unique value from its
conjugate posterior.

A step works on the slot arrays of its partition (see ``partition.py``):
slot t is the t-th live cluster in creation order, with its member count
and its members' sufficient statistics summed in attribute order, and each
attribute holds its slot label. A cluster that its last attribute leaves
gives up its slot and later slots move down one, so slot order stays
creation order; a new cluster takes the next slot. A slot's log weights read
a few terms of its count and statistic, kept per slot and updated when the
slot changes; the attribute's own terms enter as scalars (one attribute) or
as a column (several).

The pass draws all p uniforms in one vector, then walks the attributes in
blocks of consecutive rows. A block is scored as one matrix on the
assumption that none of its rows moves: each row then sees every earlier row
of the block left and rejoined (exactly as the sequential pass rounds it)
and its own slot without it. Rows are committed up to and including the
first that moves, whose state was still exact, and the next block starts
after it. Blocks span several rows only after a run of rows that stayed,
and grow with the run; a row whose slot it is the last member of is a block
of its own; and rows times slots stay under a fixed number of cells, so many
clusters mean short blocks, not large temporaries. All values are then
redrawn in one vector draw and the partition is written back once. Each
draw, its uniform and its arithmetic equal those of the sequential pass, one
attribute at a time, so a seed gives the same chain.
"""

import math

import numpy as np
from scipy.special import gammaln

from .densities import LOG_2PI, SamplerAbort


def _log_count_table(p):
    """log c for member counts c = 0..p (entry 0 unused, set to 0)."""
    return np.log(np.maximum(np.arange(p + 1.0), 1.0))


# The most cells, rows times (live slots + 1), a block's weight matrix holds.
_BLOCK_CELLS = 4096
# Rows that must stay in a row before a block spans several: setting up a
# multi-row block costs about one more one-row block, so it pays only where
# most rows stay.
_MIN_RUN = 8


def _run_step(part, step, rng, where):
    """Reseat every attribute of ``part`` in order, then redraw every value
    and write the partition back.

    ``step.items[j]`` is attribute j's sufficient statistic (one number),
    ``step.new_logw[j]`` its log weight of a new cluster and
    ``step.slot_terms(count, stat)`` the terms a slot's log weights read,
    from its member count and summed statistic (scalars or arrays).
    ``step.logits(rows, terms)`` scores attribute ``rows``, an index with
    the (terms, slots) array it sees or a slice with a (terms, rows, slots)
    array; ``step.values(labels, counts, rng)`` draws the final values.

    An attribute whose largest log weight is not finite (a NaN, +inf, or
    every weight -inf) raises SamplerAbort naming ``where`` and its 0-based
    index. The pass draws its p uniforms first, so a pass that aborts has
    drawn them all.
    """
    ids = part.cluster_ids()
    labels = part.labels.copy()
    items = step.items.tolist()
    p = len(labels)
    k = len(ids)
    cnt = np.bincount(labels, minlength=k)
    stat = np.zeros(k, dtype=step.items.dtype)
    np.add.at(stat, labels, step.items)
    live_terms = np.array(step.slot_terms(cnt, stat), dtype=float)
    terms = np.empty((len(live_terms), p))  # room for the most slots, p
    terms[:, :k] = live_terms
    cnt, stat = cnt.tolist(), stat.tolist()
    uniforms = rng.random(p)
    j = stays = 0  # stays: rows committed in place since the last move
    # A row with a non-finite weight aborts below; its arithmetic stays quiet.
    with np.errstate(all="ignore"):
        while j < p:
            # The block's first row leaves its slot in place. A slot its last
            # member leaves goes, and that row is a block of its own.
            s = labels.item(j)
            c = cnt[s]
            if c == 1:
                del cnt[s], stat[s], ids[s]
                terms[:, s:k - 1] = terms[:, s + 1:k]
                labels[labels > s] -= 1
                k -= 1
                own, n = [-1], 1
            else:
                cnt[s] = c - 1
                stat[s] = left = stat[s] - items[j]
                terms[:, s] = step.slot_terms(c - 1, left)
                own, n = [s], (min(stays, max(1, _BLOCK_CELLS // (k + 1)), p - j)
                               if stays >= _MIN_RUN else 1)
            # Row i's state if no earlier row of the block moves: each earlier
            # row left its slot and rejoined it, which may round the slot's
            # statistic, and row i left its own. A singleton ends the block
            # before it.
            if n > 1:
                count, lefts, after = [c], [left], [left + items[j]]
                run = {s: after[0]}
                for i, s in enumerate(labels[j + 1:j + n].tolist(), 1):
                    c = cnt[s] + (s == own[0])
                    if c == 1:
                        break
                    lefts.append(run.get(s, stat[s]) - items[j + i])
                    run[s] = lefts[i] + items[j + i]
                    own.append(s)
                    count.append(c)
                    after.append(run[s])
                n = len(own)
            # One row is scored as vectors against scalars: numpy calls cost
            # more on (1, k) matrices, and a pass whose rows mostly move is
            # nearly all one-row blocks.
            if n == 1:
                rows, seen = j, terms[:, :k]
            else:
                order, slots = np.arange(n), np.array(own)
                # The last earlier row of each slot, or -1.
                last = np.full((n, k), -1)
                last[order[1:], slots[:-1]] = order[:-1]
                np.maximum.accumulate(last, 0, out=last)
                rejoined = last >= 0
                count = np.array(count)
                block = terms[:, None, :k].repeat(n, 1)
                block[:, rejoined] = np.array(
                    step.slot_terms(count, np.array(after)))[:, last[rejoined]]
                block[:, order, slots] = step.slot_terms(count - 1, np.array(lefts))
                rows, seen = slice(j, j + n), block
            logw = np.concatenate((step.logits(rows, seen), step.new_logw[rows, None]), -1)
            top = np.maximum.reduce(logw, -1, keepdims=n > 1)
            prob = np.exp(logw - top)
            acc = np.add.accumulate(prob, -1)
            total = np.add.reduce(prob, -1, keepdims=n > 1)
            # Row r joins the first slot whose running weight reaches
            # u_r * total_r, or the last slot.
            if n == 1:
                draws, totals = [acc.searchsorted(uniforms[j] * total)], [total]
            else:
                draws = np.add.reduce(acc < uniforms[rows, None] * total, -1, np.intp).tolist()
                totals = total.ravel().tolist()
            for r, (t, total) in enumerate(zip(draws, totals)):
                # A row's total is finite exactly when its largest weight is.
                if not math.isfinite(total):
                    raise SamplerAbort(
                        f"{where} j={j + r}: non-finite log weights {logw.reshape(n, -1)[r]}")
                t = min(int(t), k)
                if t != own[r]:
                    break
            # Commit rows 0..r: the earlier rows rejoined their slots, row r
            # left its own and joins slot t.
            if r:
                terms[:, :k] = block[:, r]
                cnt[own[0]] += 1
                for s, x in zip(own[:r], after):
                    stat[s] = x
                cnt[own[r]] -= 1
                stat[own[r]] -= items[j + r]
            x = items[j + r]
            if t == k:
                ids.append(None)
                cnt.append(1)
                stat.append(x)
                k += 1
            else:
                cnt[t] += 1
                stat[t] += x
            terms[:, t] = step.slot_terms(cnt[t], stat[t])
            labels[j + r] = t
            stays = stays + n if t == own[r] else 0
            j += r + 1
    counts = np.array(cnt, dtype=np.intp)
    part.set_slots(ids, labels, counts, step.values(labels, counts, rng))


def _residual_col_means(state, data):
    """Per-attribute mean of y - mu_ij over samples (the step-1 statistic)."""
    samples = state.samples
    means = np.array([state.cluster_means[cid].mu() for cid in samples.cluster_ids()])
    return (data.y.sum(axis=0) - samples.counts @ means) / data.n


class _MeanStep:
    """The baseline-mean step's terms. Attribute j contributes precision
    w_j = n / sigma_j^2 and statistic q_j = w_j * rbar_j to its cluster,
    carried as the one number q_j + i w_j: complex sums add the two parts
    separately, each exactly as a float sum would."""

    def __init__(self, state, data, hp):
        sigma_sq = state.var_part.values_vector()
        rbar = _residual_col_means(state, data)
        w = data.n / sigma_sq
        self.items = data.n * rbar / sigma_sq + 1j * w
        self.prior_prec = 1.0 / hp.base_var
        self.prior_stat = hp.base_mean / hp.base_var
        self.log_count = _log_count_table(data.p)
        obs_var = 1.0 / w  # sigma_j^2 / n
        self.obs = np.stack((obs_var, rbar))  # each attribute's own terms
        pv, d = hp.base_var + obs_var, rbar - hp.base_mean
        self.new_logw = math.log(state.conc_mean) - 0.5 * (LOG_2PI + np.log(pv) + d * d / pv)

    def slot_terms(self, count, stat):
        """log c, then the slot's posterior variance and negated mean."""
        v = self.prior_prec + stat.imag
        return self.log_count[count], 1.0 / v, -((self.prior_stat + stat.real) / v)

    def logits(self, rows, terms):
        # With the mean negated, d = rbar_j - u is exactly an addition, so pv =
        # post_var + sigma_j^2 / n and d come from one broadcast add.
        pv, d = terms[1:] + self.obs[:, rows, None]
        return terms[0] - 0.5 * (LOG_2PI + np.log(pv) + d * d / pv)

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


class _VarStep:
    """The baseline-variance step's terms. Attribute j contributes half its
    residual sum of squares over the n samples, ssq_j / 2, to its cluster."""

    def __init__(self, state, data, hp):
        self.items = 0.5 * _residual_sq_colsums(state, data)
        self.hp = hp
        self.n = data.n
        half_n = 0.5 * data.n
        # Count-indexed terms of a cluster of c members: log c, its posterior
        # shape u, gammaln(u), gammaln(u + n/2) and u + n/2.
        shape = hp.var_shape + np.arange(data.p + 1.0) * half_n
        self.tables = np.stack((
            _log_count_table(data.p), shape, gammaln(shape), gammaln(shape + half_n),
            shape + half_n,
        ))
        shape1 = hp.var_shape + half_n
        base = (
            math.log(state.conc_var)
            + hp.var_shape * math.log(hp.var_rate) - gammaln(hp.var_shape)
            + gammaln(shape1)
        )
        self.new_logw = base - shape1 * np.log(hp.var_rate + self.items)

    def slot_terms(self, count, stat):
        """A slot's member count and posterior rate."""
        return count, self.hp.var_rate + stat

    def logits(self, rows, terms):
        count, v = terms
        log_c, u, gl_u, gl_u1, u1 = self.tables.take(count.astype(np.intp), axis=1)
        return log_c + u * np.log(v) - gl_u + gl_u1 - u1 * np.log(v + self.items[rows, None])

    def values(self, labels, counts, rng):
        """One draw of every cluster value from its inverse-gamma posterior."""
        rate = np.full(len(counts), self.hp.var_rate)
        np.add.at(rate, labels, self.items)
        return rate / rng.gamma(self.hp.var_shape + counts * self.n / 2.0)


def step_baseline_vars(state, data, hp, rng):
    _run_step(state.var_part, _VarStep(state, data, hp), rng, "baseline-var assignment")
