"""Sample-cluster moves: MH birth/death with a sequential proposal, Gibbs
reassignment, and the inner Gibbs update of cluster mean vectors.

One component walk (``_scan_components``) seats a cluster's mean vector,
each component in turn (SPIKE, a live inner cluster or a new one) from the
collapsed spike/CRP conditional, then draws the inner values from their
conjugate posteriors: from an all-SPIKE mean for a birth proposal, from a
cluster's current mean for the inner Gibbs pass.
``diagnostics.draw_prior_mean`` draws a mean vector from the prior itself.

A walk returns one number, log W: the sum over components of the log
normaliser Z_j of the pick that seats component j. From an all-SPIKE mean
the walk is a sequential importance sampler (Kong, Liu & Wong 1994, JASA
89:278) of a new cluster's mean m for row i: each seat weight is the prior
seat probability times the predictive density of x_ij given the seats
before, and the values are drawn from their exact posterior given the
seats, so their densities cancel and

    F(y_i; m) Q0(m) / Q(m) = prod_j Z_j = W,

with F the likelihood, Q0 the prior and Q the proposal density of m. A
birth's log MH ratio is therefore log conc_samples - log(n - 1) - log F_old
+ log W, with F_old the sample's likelihood under its own cluster. A death
scores the birth that proposes its singleton's mean from the mean's fixed
seats (``_seated_log_w``): each slot's count, summed precision and summed
statistic before component j are cumulative sums along the components, a
slot not yet opened weighs log 0, and one (slots + 2, p) array gives every
Z_j. Its log MH ratio is log(n - 1) - log conc_samples + log F_target - log
W. Neither move scores the proposed or the dying mean's likelihood.

The walk keeps its per-slot sums in lists indexed by the partition's
slots; a new inner cluster takes the next slot. A slot whose last member
leaves stays, at count 0, until write-back: it weighs -inf, which changes
neither the pick nor its normalizer, and ``partition.drop_empty`` drops it
at the end. The walk writes the seats into the partition's labels as it
draws them and the slot arrays back once, at the end; a walk that seats
every component of an all-SPIKE mean on SPIKE writes nothing more. The
values are drawn by one value tail, ``_values``, from the slots' member
sums (``_member_sums``), added afresh in component order.

The walk seats runs of SPIKE seats in blocks (``_block``). A SPIKE seat
changes no slot and not the walk's member total, so while the seats stay
SPIKE the next components' weights are fixed: one array comparison of their
uniforms against their SPIKE weights seats them up to the first one off
SPIKE, whose seat is read from its running sums. A block weighs every slot
from the terms the walk keeps per slot (log count, posterior mean and
variance, updated when the slot changes), summed as the scalar step sums
them, and returns every pick's normaliser. While no member is seated, a
block starts at a component that favours SPIKE and spans to p: no later
component starts seated, and with every slot empty only SPIKE and a new
cluster weigh anything. With members seated, a block starts only after 16
SPIKE seats in a row, so dense vectors stay on the scalar path; it spans up
to a fixed number of cells and stops before the next component that starts
seated.

The walk reads its per-component inputs in place from a ``WalkTerms`` row,
arrays built before the walk, of which a scalar step reads component j's
entries by ``item``. None of them depends on a seat. In step 5 they depend
only on the baselines, attr_prob, slab_var and conc_inner, and no birth,
death or reassignment move changes any of those. So
``step_clusters`` builds one ``BirthDeathPass`` for the birth/death loop and
the reassignment pass: the terms of every sample's residual y_i - mu_base as
(n, p) rows, together with log(2 pi sigma^2), every sample's log likelihood
under a zero mean, and each live cluster's column of log likelihoods,
computed once when first read. A birth reads its sample's own column, a
death its target's, the reassignment pass every cluster's. The elementwise
ufuncs and the row sums give the same bits on the (n, p) arrays as on one
row, so a row of the pass walks as its one-row terms do. The inner Gibbs
pass then reads each cluster's member rows from the data, in ascending
sample order.

Every sample move is handed its uniforms, and so is a drawing walk, one per
component: component j is seated by u[j]. The birth/death pass draws one
(n, p + 1) uniform matrix when it starts, and the move of sample i reads
only row i. A birth walk reads column j to seat component j and column p
for its MH test; a death reads column 0 for its target (a uniform pick
among the other n - 1 samples) and column p for its test. The reassignment
pass hands each row one scalar draw (see below). The inner Gibbs pass draws
one p-vector per cluster. Normal and beta draws come from the generator.
This is valid: each uniform is read by one draw only, and it is drawn
before, and independently of, the state it is used in.

Nearly every birth proposal is rejected, and the pass proves most of these
rejections before or early in the walk. Whatever the seats, every slot's
and a new cluster's predictive density at component j is a normal of
variance at least v_j = sigma_j^2, and the CRP weights of the slots and of
a new cluster sum to 1, so

    Z_j <= (1 - s_j) N(x_ij; 0, v_j) + s_j / sqrt(2 pi v_j) = exp(b_ij),

s_j = slab_coef * attr_prob_j. So, for every J, log W is at most the log
normalisers summed over the components before J plus rest[i, J], the sum
of b_ij over j >= J; this prefix bound only falls as J grows. A birth
rejects whatever its walk draws once log u[p] is at least the log ratio
with log W at the bound, by a margin of 1e-9 relative plus 1e-9 that keeps
a rounding-level tie unproven: once the bound is at most the row's floor.
One (n, p) ``logaddexp`` and suffix sum at pass start
(``BirthDeathPass.screened_births``) gives every row's rest and floor, and
the check at J = 0, the screen, marks the rows whose births reject before
their walk. Every other birth of the pass walks with the check at each
component it reaches (a block's at its end: the bound only falls) and once
more at p, before the values. A walk the check stops returns at once: it
seats nothing more, draws no values, and the move rejects. So a birth
draws its values only if it is not proven to reject. A row whose bound or
likelihood is not finite is never stopped, so its walk still aborts at the
pick. The inner Gibbs pass and ``diagnostics.measure_birth_acceptance``
walk without the check.

The floor depends on the row's uniforms, the pass's terms and the sample's
log likelihood under its own cluster, and no earlier move of the pass
changes the last: a move relocates only its own sample and changes no
mean. So the pass reads these likelihoods once (``own_loglik``) and skips a
screened row, a non-singleton at the start, that is still not a singleton
when it is reached: the skip is its rejected birth move, and it walks
nothing and draws nothing.

The reassignment pass (``_reassignments``) hands each non-singleton, in
sample order, one scalar uniform, its row of the pass's columns and the
clusters' sizes, which the pass reads once and each move keeps current: no
move of the pass empties a cluster. With one cluster no row can move, so
when every row is finite the pass only draws the rows' uniforms:
``random(m)`` gives the values of m scalar draws on every bit generator. A
non-finite row still goes to ``gibbs_reassign`` to abort on.
"""

import bisect
import math

import numpy as np

from .densities import LOG_2PI, SamplerAbort, pick_with_lse
from .partition import SPIKE, Partition, drop_empty
from .sparsity import slab_coef

# SPIKE seats in a row before the scalar walk starts a block while members
# are seated: a block costs several scalar steps and wastes the components
# after its stop, so it pays only in a run.
_LIVE_RUN = 16
# Cells, components times (slots + 2), that the walk's block spans while
# members are seated: wider arrays take fresh memory on every block.
_BLOCK_CELLS = 4096


class ClusterMeanVector:
    """Mean vector of one sample cluster: an inner partition of its p
    components (SPIKE meaning exactly zero) plus one value per inner cluster.
    It is all SPIKE unless ``inner`` gives the partition."""

    __slots__ = ("inner",)

    def __init__(self, p, inner=None):
        if inner is None:
            inner = Partition(np.full(p, SPIKE), [], [], allow_spike=True)
        self.inner = inner

    def mu(self):
        """Dense p-vector of mean components (zeros at spike positions)."""
        return self.inner.values_vector()

    def nonzero_count(self):
        return sum(self.inner.sizes())

    def inner_cluster_count(self):
        return self.inner.n_clusters()


class WalkTerms:
    """The terms of the component walk that no seat changes, for each row of
    ``x``, a (p,) or an (n, p) array of averaged residuals, each the mean of
    ``n_count`` observations with variances ``sigma_sq``.

    Per component j and row: the SPIKE weight ``spike`` and the new-cluster
    weight ``new`` (the seat weights with the inner values integrated out;
    ``new`` before the CRP denominator). Shared by all rows: log s, the
    observation variance and precision.
    """

    def __init__(self, x, n_count, sigma_sq, state, hp):
        self.x = np.atleast_2d(np.asarray(x, dtype=float))
        sig = np.asarray(sigma_sq, dtype=float)
        self.v_obs = sig / n_count
        self.prec = n_count / sig
        s_vec = slab_coef(hp) * np.asarray(state.attr_prob, dtype=float)
        self.slab_var = state.slab_var
        self.conc_inner = state.conc_inner
        self.log_conc = math.log(state.conc_inner)
        x = self.x
        with np.errstate(divide="ignore"):
            self.log_s = np.log(s_vec)
            new_var = self.slab_var + self.v_obs
            xx = x * x
            self.spike = np.log1p(-s_vec) - 0.5 * (LOG_2PI + np.log(self.v_obs) + xx / self.v_obs)
            self.new = self.log_s + self.log_conc - 0.5 * (LOG_2PI + np.log(new_var) + xx / new_var)


class BirthDeathPass(WalkTerms):
    """What the birth, death and reassignment moves of one step-5 pass read:
    the walk terms of every sample's residual ``x[i] = y_i - mu_base``
    (n_count 1), ``log(2 pi sigma_sq)`` and every sample's log likelihood
    under a zero mean. Each live cluster's column of log likelihoods is
    computed when first read. See the module docstring for why none of it
    changes in the pass. ``screened_births`` adds every row's ``rest`` and
    ``floor``, which stop the pass's birth walks."""

    def __init__(self, y, mu_base, sigma_sq, state, hp):
        sigma_sq = np.asarray(sigma_sq, dtype=float)
        super().__init__(y - mu_base, 1, sigma_sq, state, hp)
        self.sigma_sq = sigma_sq
        self.log_2pi_var = np.log(2.0 * np.pi * sigma_sq)
        self.zero_loglik = _loglik_rows(self.x, self.log_2pi_var, sigma_sq)
        self._columns = {}
        self.rest = self.floor = None

    def propose(self, i, u, rng):
        """(mean, log W): a new cluster mean for row i, drawn by the scalar
        walk from an all-SPIKE mean from the uniforms ``u`` (one per
        component) and ``rng``, with its walk's log W (see the module
        docstring). After ``screened_births`` the walk checks row i's prefix
        bound against its floor, and (None, None) is a walk the check
        stopped: the birth rejects whatever the rest of the walk would
        draw."""
        mean = ClusterMeanVector(self.x.shape[1])
        stop = None if self.floor is None else (self.rest[i], self.floor.item(i))
        log_w = _scan_components(mean.inner, self, i, u, rng, stop)
        return (None, None) if log_w is None else (mean, log_w)

    def loglik(self, i, mean):
        """Log F(y_i; mu_base + mean): sample i's normal log likelihood under
        a mean drawn outside the pass, as ``diagnostics.draw_prior_mean``
        draws one; a live cluster's is read from its column."""
        if not mean.inner.n_clusters():  # every component is SPIKE
            return self.zero_loglik.item(i)
        return float(_loglik_rows(self.x[i] - mean.mu(), self.log_2pi_var, self.sigma_sq))

    def loglik_column(self, state, cid):
        """Every sample's log F(y_i; mu_base + mean of cluster cid), entry i
        bitwise ``loglik(i, mean)``. Computed once per pass: no move changes
        a live cluster's mean, and ids are never reused."""
        col = self._columns.get(cid)
        if col is None:
            mean = state.cluster_means[cid]
            if not mean.inner.n_clusters():  # every component is SPIKE
                col = self.zero_loglik
            else:
                col = _loglik_rows(self.x - mean.mu(), self.log_2pi_var, self.sigma_sq)
            self._columns[cid] = col
        return col

    def own_loglik(self, state):
        """Every sample's log likelihood under its own cluster in ``state``,
        entry i bitwise entry i of that cluster's ``loglik_column``. It reads
        every live cluster's column, which the pass reads later anyway: the
        reassignment pass each cluster's, a death its own."""
        samples = state.samples
        cols = np.array([self.loglik_column(state, c) for c in samples.cluster_ids()])
        return cols[samples.labels, np.arange(len(samples.labels))]

    def birth_log_ratio(self, state, log_f_old, log_w):
        """The log MH ratio of moving a sample out of its cluster, under
        whose mean its log likelihood is ``log_f_old``, into a new one whose
        proposal's walk has log W ``log_w``: floats, or arrays over rows."""
        return math.log(state.conc_samples) - math.log(len(self.x) - 1) + log_w - log_f_old

    def screened_births(self, state, u, log_f_old):
        """Per row of the uniforms ``u``, whether the birth move of that
        sample, reading that row, rejects whatever its walk would draw, by
        the bound rest[i, 0] >= log W of any proposal of that row (see the
        module docstring); ``log_f_old`` is every sample's ``own_loglik``.

        Keeps, per row, ``rest``, the suffix sums of the bound's terms, of
        shape (n, p + 1) with rest[i, p] = 0, and ``floor``: the walk's
        bound proves that the birth rejects where it is at most the floor,
        that is where log u[i, p] is at least the log ratio r with log W at
        the bound plus 1e-9 |r| + 1e-9, which for log u < 0 reads r <= (log
        u - 1e-9) / (1 - 1e-9). The floor is NaN, so no check stops the
        walk, where the bound or the likelihood is not finite: the walk
        still aborts. Rows are marked where rest[i, 0] is at most the
        floor."""
        p = self.x.shape[1]
        with np.errstate(all="ignore"):
            # b_ij = log((1 - s_j) N(x_ij; 0, v_j) + s_j / sqrt(2 pi v_j)) >= log Z_j.
            terms = np.logaddexp(self.spike, self.log_s - 0.5 * (LOG_2PI + np.log(self.v_obs)))
            self.rest = np.zeros((len(terms), p + 1))
            np.cumsum(terms[:, ::-1], axis=1, out=self.rest[:, p - 1::-1])
            bound = self.rest[:, 0]
            floor = (np.log(u[:, p]) - 1e-9) / (1.0 - 1e-9) - self.birth_log_ratio(
                state, log_f_old, 0.0)
            self.floor = np.where(np.isfinite(bound) & np.isfinite(log_f_old), floor, np.nan)
            return bound <= self.floor


@np.errstate(all="ignore")  # a non-finite weight stops a block; the scalar pick aborts on it
def _scan_components(inner, terms, i, u, rng, stop=None):
    """Walk a mean vector's components in order, seating component j by the
    uniform u[j], then draw every inner value from its conjugate posterior
    by ``rng``, and write the seats and values into ``inner``. Returns log
    W, the sum of the log normalisers of the seat picks; or None if
    ``stop``, a row's (rest, floor) of ``BirthDeathPass.screened_births``,
    stops the walk: at a component j it reaches, and once more at p before
    the values, log W so far plus rest[j] is at most the floor. A stopped
    walk seats nothing more and draws nothing (see the module docstring).

    Each component j leaves its seat (if it has one), then SPIKE, every live
    inner cluster and a new cluster are weighed with the inner values
    integrated out, and j is seated. The walk's inputs are row ``i`` of
    ``terms`` (a ``WalkTerms``), read in place. From an all-SPIKE mean the
    walk is the sequential proposal, and log W scores it (see the module
    docstring). From a cluster's current mean it is the inner Gibbs pass,
    whose caller ignores log W. While no member is seated, a block starts
    at a component that favours SPIKE, ``spike >= new - log_conc`` (the CRP
    denominator is then conc_inner). A block's components are checked at
    its end: the bound only falls along the walk, so a check inside a block
    stops no walk that the one at its end does not.

    ``x[j]`` averages n_count observations, so member j carries precision
    n_count / sigma_sq[j] in the inner-value posteriors (the per-observation
    1 / sigma_sq[j] fails the joint-distribution test).
    """
    labels = inner.labels
    p = len(labels)
    conc_inner = terms.conc_inner
    log_conc = terms.log_conc
    inv_slab_var = 1.0 / terms.slab_var
    x, spike, new = terms.x[i], terms.spike[i], terms.new[i]
    log_s, v_obs, prec = terms.log_s, terms.v_obs, terms.prec
    rest, floor = stop or (None, None)
    k_start = inner.n_clusters()

    # Per slot (see the module docstring), its member count, summed member
    # precision and summed statistic; an emptied slot's sums are reset to 0.
    # From them, its weight terms: log count (-inf once emptied), posterior
    # mean and posterior variance, updated when the slot changes.
    counts, sprec, sstat, slot_terms = [], [], [], []

    def refresh(t):
        c = counts[t]
        v_post = inv_slab_var + sprec[t]
        slot_terms[t] = (math.log(c) if c else -math.inf, sstat[t] / v_post, 1.0 / v_post)

    seated_at = []  # the components that start seated, in order
    if k_start:
        start = labels.tolist()
        seated_at = np.flatnonzero(labels >= 0).tolist()
        counts = inner.sizes()
        sprec, sstat = (a.tolist() for a in _member_sums(labels, prec, x, k_start))
        slot_terms = [None] * k_start
        for t in range(k_start):
            refresh(t)
        labels.fill(SPIKE)  # the seat of every component not drawn off SPIKE
    m_total = sum(counts)

    log_w = 0.0
    j = 0
    spikes = 0  # SPIKE seats since the last seat off SPIKE
    while j < p:
        if rest is not None and log_w + rest.item(j) <= floor:
            return None
        if k_start:
            t = start[j]
            if t >= 0:
                m_total -= 1
                counts[t] -= 1
                if counts[t]:
                    sprec[t] -= prec.item(j)
                    sstat[t] -= prec.item(j) * x.item(j)
                else:
                    sprec[t] = sstat[t] = 0.0
                refresh(t)

        log_denom = math.log(conc_inner + m_total)
        k = len(counts)
        choice = None
        if (spikes >= _LIVE_RUN) if m_total else spike.item(j) >= new.item(j) - log_conc:
            # A block: see the module docstring. With no member seated no
            # later component starts seated, and the block spans to p.
            end = p
            if m_total:
                nxt = bisect.bisect_right(seated_at, j)
                end = min(j + max(1, _BLOCK_CELLS // (k + 2)),
                          seated_at[nxt] if nxt < len(seated_at) else p)
            c, choice, lse = _block(terms, i, j, end, log_denom, u,
                                    np.array(slot_terms).T[..., None] if k else None)
            if choice is not None and math.isnan(lse.item(c)):
                choice = None  # a pick with a non-finite weight: the scalar pick aborts on it
            log_w += float(np.add.reduce(lse[:c + (choice is not None)]))
            spikes += c
            j += c
            if j == end:
                continue
        if choice is None:
            xj = x.item(j)
            v_obs_j = v_obs.item(j)
            lsj = log_s.item(j)
            logw = [spike.item(j)]
            for c, (log_c, mean, var) in zip(counts, slot_terms):
                if c:  # summed as the live block sums it
                    d = xj - mean
                    var += v_obs_j
                    logw.append(lsj + log_c - log_denom
                                - 0.5 * (LOG_2PI + math.log(var) + d * d / var))
                else:  # an emptied slot: adds 0 to the pick's sums
                    logw.append(-math.inf)
            logw.append(new.item(j) - log_denom)
            choice, lse = pick_with_lse(logw, u.item(j))
            log_w += lse

        if choice == 0:
            spikes += 1
            j += 1
            continue
        spikes = 0
        prec_j = prec.item(j)
        stat_j = prec_j * x.item(j)
        m_total += 1
        t = choice - 1
        if t < k:
            counts[t] += 1
            sprec[t] += prec_j
            sstat[t] += stat_j
        else:
            counts.append(1)
            sprec.append(prec_j)
            sstat.append(stat_j)
            slot_terms.append(None)
        refresh(t)
        labels[j] = t
        j += 1

    if rest is not None and log_w <= floor:  # rest[p] is 0
        return None
    if not counts:  # every seat stayed SPIKE, and none was off it at the start
        return log_w
    ids, seats, counts = drop_empty(
        inner.cluster_ids() + [None] * (len(counts) - k_start), labels, counts)
    # The posterior is recomputed from scratch over the members, free of the
    # running sums' float drift.
    values = _values(*_member_sums(seats, prec, x, len(counts)), terms.slab_var, rng)
    inner.set_slots(ids, seats, counts, values)
    return log_w


@np.errstate(all="ignore")  # an unopened slot weighs log 0; a non-finite weight aborts below
def _seated_log_w(terms, i, inner):
    """log W of the walk of row ``i`` of ``terms`` that seats every
    component as ``inner`` holds it: a death's score of the birth that
    proposes its singleton's mean (see the module docstring). Aborts where
    that walk's pick would."""
    labels, k = inner.labels, inner.n_clusters()
    x = terms.x[i]
    w = np.empty((k + 2, len(labels)))  # SPIKE, the slots, a new cluster
    w[0] = terms.spike[i]
    log_denom = terms.log_conc
    if k:
        # Per slot and component j, the slot's count, summed precision and
        # summed statistic over the components before j: a slot not yet
        # opened has count 0, and weighs -inf, as in the walk.
        prec = terms.prec
        own = np.where(labels == np.arange(k)[:, None],
                       np.stack((np.ones_like(x), prec, prec * x))[:, None], 0.0)
        count, sprec, sstat = before = np.zeros(own.shape)
        np.cumsum(own[..., :-1], axis=-1, out=before[..., 1:])
        v_post = 1.0 / terms.slab_var + sprec
        var = 1.0 / v_post + terms.v_obs
        d = x - sstat / v_post
        log_denom = np.log(terms.conc_inner + count.sum(axis=0))
        w[1:-1] = terms.log_s + np.log(count) - log_denom - 0.5 * (LOG_2PI + np.log(var) + d * d / var)
    w[-1] = terms.new[i] - log_denom
    top = np.maximum.reduce(w)
    log_z = top + np.log(np.add.reduce(np.exp(w - top)))  # NaN where the pick aborts
    log_w = float(np.add.reduce(log_z))
    if not math.isfinite(log_w):  # abort as the walk's pick at the first non-finite Z_j
        pick_with_lse(w[:, np.isfinite(log_z).argmin()].tolist(), 0.0)
    return log_w


def _values(prec_sums, stat_sums, slab_var, rng):
    """The value tail of every walk: the values of k inner clusters, in slot
    order, whose members' summed precision and precision-weighted value are
    the arrays ``prec_sums`` and ``stat_sums``, drawn from their conjugate
    posteriors by one ``standard_normal(k)``, which gives k scalar draws'
    values and leaves every bit generator where they do."""
    prec = prec_sums + 1.0 / slab_var
    return stat_sums / prec + np.sqrt(1.0 / prec) * rng.standard_normal(len(prec))


def _block(terms, i, j, end, log_denom, u, slots=None):
    """Weigh components j..end-1 of row i of ``terms`` (a ``WalkTerms``) and
    seat the row on SPIKE up to its first component off SPIKE, summing every
    weight as the scalar step does. ``log_denom`` is the CRP log
    denominator, ``slots`` the slots' log count (-inf once emptied),
    posterior mean and variance, each (slots, 1). The row leaves SPIKE where
    its uniform in ``u`` times the total weight exceeds the SPIKE weight; a
    non-finite weight stops it too (the caller quiets numpy).

    Returns (c, choice, lse): ``c``, the first component the row leaves
    SPIKE at (from j; the width if none, 0 in a block of one component,
    which seats the row there); its seat at c (0 SPIKE, 1 + t slot t, then
    new), or None if c is the width; and the log normaliser of the pick at
    each component, NaN where the scalar pick would abort."""
    spike, new = terms.spike[i, j:end], terms.new[i, j:end]
    width = len(spike)
    k = 0 if slots is None else len(slots[0])
    # Row 0 SPIKE, row 1 + t slot t, the last row a new cluster.
    w = np.empty((k + 2, width))
    w[0] = spike
    if k:
        log_c, mean, var = slots
        var = var + terms.v_obs[j:end]
        d = terms.x[i, j:end] - mean
        np.subtract(terms.log_s[j:end] + log_c - log_denom,
                    0.5 * (LOG_2PI + np.log(var) + d * d / var), out=w[1:-1])
    np.subtract(new, log_denom, out=w[-1])
    top = np.maximum.reduce(w) if k else np.maximum(w[0], w[1])
    acc = np.subtract(w, top)
    np.exp(acc, out=acc)
    # The cumulative weights: a wide block adds the rows in turn, the same
    # sums in the same order as numpy's accumulate, which is slow along a
    # short first axis of a wide array.
    if width > 1:
        for t in range(1, k + 2):
            acc[t] += acc[t - 1]
    else:
        np.add.accumulate(acc, out=acc)
    total = acc[-1]
    lse = top + np.log(total)
    scaled = u[j:end] * total
    c = 0  # a one-component block seats the row at its component
    if width > 1:
        stays = scaled <= acc[0]
        c = int(stays.argmin())
        if stays[c]:
            return width, None, lse
    choice = int((scaled[c] <= acc[:, c]).argmax())  # the first to reach u * total
    return c, choice, lse


def _member_sums(seats, prec, x, k):
    """Per slot 0..k-1, the summed precision and precision-weighted value of
    the components seated there, added in order: ``seats`` holds slots or
    SPIKE, ``prec`` and ``x`` each component's precision and value, all of
    one shape."""
    seated = seats >= 0
    slots = seats[seated]
    prec = prec[seated]
    return np.bincount(slots, prec, k), np.bincount(slots, prec * x[seated], k)


def _loglik_rows(d, log_2pi_var, sigma_sq):
    """Per row of residuals ``d`` (mean removed), the normal log density."""
    return (-0.5 * (log_2pi_var + d * d / sigma_sq)).sum(axis=-1)


def _mh_accepts(log_ratio, v):
    """The MH test: whether the uniform ``v`` accepts a move of log ratio
    ``log_ratio``. A NaN ratio rejects."""
    return log_ratio >= 0.0 or v < math.exp(log_ratio)


def mh_birth_move(state, i, rng, bd, u):
    """Propose moving a non-singleton sample into a fresh cluster; returns
    (accepted, log MH ratio), the ratio None where the walk stopped (see
    ``BirthDeathPass.propose``): the move rejects.

    ``bd`` is the step's ``BirthDeathPass`` and ``u`` the sample's row of
    p + 1 uniforms: u[j] seats component j, u[p] is the MH test's. ``rng``
    draws the slab values.
    """
    if state.samples.cluster_size(i) <= 1:
        raise RuntimeError(f"sample {i} is a singleton; birth move not applicable")

    try:
        mean_new, log_w = bd.propose(i, u, rng)
    except SamplerAbort as exc:
        raise SamplerAbort(f"birth proposal i={i}: {exc}") from exc
    if mean_new is None:
        return False, None
    log_f_old = bd.loglik_column(state, state.samples.cluster_of(i)).item(i)
    log_ratio = bd.birth_log_ratio(state, log_f_old, log_w)
    accepted = _mh_accepts(log_ratio, u.item(-1))
    if accepted:
        new_cid = state.samples.move(i)
        state.cluster_means[new_cid] = mean_new
    return accepted, log_ratio


def mh_death_move(state, i, bd, u):
    """Propose absorbing a singleton sample into an existing cluster;
    returns (accepted, log MH ratio).

    ``bd`` is the step's ``BirthDeathPass`` and ``u`` the sample's row of
    p + 1 uniforms: u[0] picks the target, u[p] is the MH test's. The move
    draws nothing; the reverse birth is scored from the singleton's seats
    (``_seated_log_w``).
    """
    samples = state.samples
    cid = samples.cluster_of(i)
    if samples.cluster_size(i) != 1:
        raise RuntimeError(f"sample {i} is not a singleton; death move not applicable")

    # The target is the cluster of a sample drawn uniformly from the other
    # n - 1 samples.
    n = len(bd.x)
    k = int(u.item(0) * (n - 1))
    target = samples.cluster_of(k + (k >= i))

    try:
        log_w = _seated_log_w(bd, i, state.cluster_means[cid].inner)
    except SamplerAbort as exc:
        raise SamplerAbort(f"death proposal i={i}: {exc}") from exc

    log_ratio = (math.log(n - 1) - math.log(state.conc_samples)
                 + bd.loglik_column(state, target).item(i) - log_w)
    accepted = _mh_accepts(log_ratio, u.item(-1))
    if accepted:
        samples.move(i, target)
        del state.cluster_means[cid]
    return accepted, log_ratio


def gibbs_reassign(state, loglik_row, col_order, i, u, sizes):
    """Resample a non-singleton sample's cluster among existing clusters by
    the uniform ``u``; returns its new cluster id.

    ``loglik_row[t]`` is sample i's log likelihood under cluster
    ``col_order[t]``: entry i of that cluster's ``BirthDeathPass.loglik_column``.
    ``sizes[t]`` is that cluster's member count; the move keeps it current.
    """
    s = state.samples.labels.item(i)
    if sizes[s] <= 1:
        raise RuntimeError(f"sample {i} is a singleton; Gibbs reassignment skipped")

    # Sample i's cluster keeps other members, so the cluster set is the one
    # ``col_order`` lists, and slots are in the same creation order. Each
    # weight counts the cluster's members other than sample i.
    sizes[s] -= 1
    logw = [math.log(c) + w for c, w in zip(sizes, loglik_row.tolist())]
    try:
        choice, _lse = pick_with_lse(logw, u)
    except SamplerAbort as exc:
        raise SamplerAbort(f"reassignment i={i}: {exc}") from exc
    sizes[choice] += 1
    if choice == s:
        return col_order[s]
    return state.samples.move(i, col_order[choice])


def gibbs_update_cluster_mean(state, data, hp, cid, rng, mu_base, sigma_sq, mem):
    """Partially collapsed Gibbs pass over one cluster's mean components.

    ``mem`` lists the cluster's samples in ascending order, as
    ``Partition.members`` gives them; the pass reads their average residual.
    Component memberships are resampled with the inner values and the
    inclusion probabilities integrated out, component j reading u[j] of one
    uniform p-vector, then every inner value is redrawn from its conjugate
    posterior.
    """
    n_count = len(mem)
    x = data.y[mem].sum(axis=0) / n_count - mu_base
    try:
        _scan_components(state.cluster_means[cid].inner,
                         WalkTerms(x, n_count, sigma_sq, state, hp), 0,
                         rng.random(data.p), rng)
    except SamplerAbort as exc:
        raise SamplerAbort(f"inner mean update cid={cid}: {exc}") from exc


def _births_and_deaths(state, rng, bd):
    """The MH birth/death pass: a birth move per non-singleton and a death
    move per singleton, in sample order, move i reading row i of one uniform
    matrix. A row that was not a singleton at the start and that
    ``screened_births`` marks is skipped if still not a singleton when
    reached; every other birth walks with the screen's stop (see the module
    docstring)."""
    n, p = bd.x.shape
    u = rng.random((n, p + 1))
    births = state.samples.counts[state.samples.labels] > 1
    skip = (births & bd.screened_births(state, u, bd.own_loglik(state))).tolist()
    for i in range(n):
        if state.samples.cluster_size(i) == 1:
            mh_death_move(state, i, bd, u[i])
        elif not skip[i]:
            mh_birth_move(state, i, rng, bd, u[i])


def _reassignments(state, rng, loglik, col_order):
    """The Gibbs reassignment pass: ``gibbs_reassign`` of every non-singleton
    in sample order, row i of ``loglik`` holding sample i's log likelihood
    under each cluster of ``col_order``. With one cluster and every row
    finite, no row moves and the pass only draws the rows' uniforms (see the
    module docstring)."""
    n, k = loglik.shape
    if k == 1 and np.isfinite(loglik).all():
        if n > 1:  # a lone sample is a singleton, and draws nothing
            rng.random(n)
        return
    labels, sizes = state.samples.labels, state.samples.sizes()
    for i in range(n):
        if sizes[labels.item(i)] > 1:
            gibbs_reassign(state, loglik[i], col_order, i, rng.random(), sizes)


def step_clusters(state, data, hp, rng):
    """One full pass of step 5: MH birth/death per sample, Gibbs
    reassignment per non-singleton, then inner mean updates per cluster."""
    mu_base = state.mean_part.values_vector()
    sigma_sq = state.var_part.values_vector()

    bd = BirthDeathPass(data.y, mu_base, sigma_sq, state, hp)
    _births_and_deaths(state, rng, bd)

    # The cluster set and the means are fixed during the reassignment pass,
    # so it reads the pass's columns.
    col_order = state.samples.cluster_ids()
    loglik = np.column_stack([bd.loglik_column(state, c) for c in col_order])
    del bd  # (n, p) arrays the rest of the step does not read
    _reassignments(state, rng, loglik, col_order)

    # The inner pass moves no sample.
    for cid, mem in state.samples.members().items():
        gibbs_update_cluster_mean(state, data, hp, cid, rng, mu_base, sigma_sq, mem)
