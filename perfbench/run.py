"""Sweep-throughput benchmark for sparseclust.

Run from the repository root:

    python3 perfbench/run.py --workload ex2_wide --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the run is untraced and reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer split from span-recording
wrappers. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record,
including the environment, is written to ``perfbench/out/``. Times are in
calibrated seconds (see ``calib.py``); the record also holds wall times.
"""

import argparse
import copy
import dataclasses
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

END_TO_END_UNITS = {
    "sweeps_per_s": "1/s",
    "sweep_ms_p90": "ms",
    "fit_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Span name -> per-layer metric (ms of self time per sweep).
SWEEP_SELF_METRICS = {
    "baseline.means": "baseline.means_s",
    "baseline.vars": "baseline.vars_s",
    "sparsity.pi": "sparsity.pi_s",
    "sparsity.rho": "sparsity.rho_s",
    "sparsity.eta": "sparsity.eta_s",
    "concentration": "concentration.s",
    "clusters.step": "clusters.self_s",
    "clusters.birth": "clusters.birth_s",
    "clusters.death": "clusters.death_s",
    "clusters.reassign": "clusters.reassign_s",
    "clusters.inner_gibbs": "clusters.inner_gibbs_s",
}
FIT_SELF_METRICS = {
    "chain.record": "chain.record_s",
    "summarize.relabel": "summarize.relabel_s",
    "summarize.coclustering": "summarize.coclustering_s",
    "summarize.fitted_mean": "summarize.fitted_mean_s",
    "io.write": "io.write_s",
}
# State-size counters, averaged over timed sweeps.
STATE_COUNTERS = {
    "chain.K": lambda s: s.samples.n_clusters(),
    "baseline.mean_clusters": lambda s: s.mean_part.n_clusters(),
    "baseline.var_clusters": lambda s: s.var_part.n_clusters(),
    "chain.nonzero_components": lambda s: sum(
        m.nonzero_count() for m in s.cluster_means.values()),
    "clusters.inner_clusters": lambda s: sum(
        m.inner_cluster_count() for m in s.cluster_means.values()),
}
PER_LAYER_UNITS = {
    **{m: "ms" for m in SWEEP_SELF_METRICS.values()},
    **{m: "ms" for m in FIT_SELF_METRICS.values()},
    "chain.sweep_s": "ms",
    **{m: "count" for m in STATE_COUNTERS},
    "clusters.birth_calls": "count",
    "clusters.reassign_moved": "count",
    "clusters.birth_accept": "ratio",
    "clusters.death_accept": "ratio",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
}
FIT_FILES = (
    "k_trace.csv", "k_posterior.csv", "rho_mean.csv", "pi_mean.csv", "mu_hat.csv",
    "coclustering.csv", "assignments.csv", "selected_attributes.csv", "run_manifest.txt",
)
FIT_PROBES = 3  # reference probes before and after each fit
# A sweep phase stops after this many times the nominal duration of its
# sweeps even if they are not done, so that a much slower program still ends
# in time.
CAP_FACTOR = 3.0


def state_digest(state, rng):
    """Digest of a chain's full state and its generator's position."""
    blob = json.dumps([state.to_dict(), rng.bit_generator.state], sort_keys=True,
                      default=int)
    return hashlib.sha256(blob.encode()).hexdigest()


def outputs_digest(out_dir):
    h = hashlib.sha256()
    for name in FIT_FILES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Run:
    """One benchmark run: set-up, fit phase, sweep phase, checks."""

    def __init__(self, workload, seed, seconds, trace, import_s):
        self.np = importlib.import_module("numpy")
        self.chain = importlib.import_module("sparseclust.chain")
        self.clusters = importlib.import_module("sparseclust.clusters")
        self.cli = importlib.import_module("sparseclust.cli")
        self.model = importlib.import_module("sparseclust.model")
        self.sc_io = importlib.import_module("sparseclust.io")
        self.spans = importlib.import_module("spans")
        calib = importlib.import_module("calib")
        self.cal = calib.Calibrator(window=3)
        self.fit_cal = calib.Calibrator(window=2 * FIT_PROBES)
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.import_s = import_s
        self.attempted = 0
        self.failures = []
        self.replicates = []
        self.fits = []
        self.fit_times = []
        self.sweep_times = []
        self.sweep_counters = {}
        self.metrics = {}
        self.config_path = None
        self.capped = False

    def fail(self, what):
        self.failures.append(what)
        print(f"perfbench: FAILED {what}", file=sys.stderr)

    # -- set-up ---------------------------------------------------------------

    def setup(self, work_dir):
        """Make every replicate's inputs and warm its chain; each replicate's
        set-up is timed on its own."""
        if self.wl.hp_overrides:
            self.config_path = os.path.join(work_dir, "fit.cfg")
            with open(self.config_path, "w", encoding="utf-8") as fh:
                for key, value in self.wl.hp_overrides.items():
                    fh.write(f"{key}={value!r}\n")
        for seed_r in self.wl.sub_seeds(self.seed):
            rep, wall, calibrated = self.cal.timed(
                self.make_replicate, seed_r, work_dir, probes_before=3)
            rep.update(setup_s=calibrated, setup_wall_s=wall,
                       warmup_digest=state_digest(rep["state"], rep["rng"]))
            self.replicates.append(rep)

    def make_replicate(self, seed_r, work_dir):
        wl = self.wl
        data = wl.make_data(seed_r)
        hp = self.model.default_hyperparams(data)
        if wl.hp_overrides:
            hp = dataclasses.replace(hp, **wl.hp_overrides)
        cfg = self.chain.ChainConfig(seed=seed_r, init_mode=wl.init_mode)
        rng = self.np.random.default_rng(seed_r)
        state = self.chain.init_state(data, hp, cfg, rng)
        ok = True
        try:
            for _ in range(wl.warmup):
                self.chain.sweep(state, data, hp, rng)
        except Exception:  # noqa: BLE001 - any error is a failed replicate
            traceback.print_exc()
            self.fail(f"warm-up of replicate {seed_r} raised")
            ok = False
        data_csv = None
        if wl.fit_source == "csv":
            data_csv = os.path.join(work_dir, f"data_{seed_r}.csv")
            self.sc_io.save_matrix_csv(data_csv, data.y)
        return {"sub_seed": seed_r, "data": data, "hp": hp, "rng": rng, "state": state,
                "data_csv": data_csv, "ok": ok}

    # -- sweeps ---------------------------------------------------------------

    @staticmethod
    def start_timing(rep, state=None, rng=None):
        rep.update(times=[], wall=[], counters={k: [] for k in STATE_COUNTERS})
        if state is not None:
            rep.update(state=state, rng=rng)
        return rep

    def sweep_once(self, rep, sweep):
        """One timed sweep of a replicate, with its state counters taken
        after the clock stops."""
        self.attempted += 1
        try:
            _, wall, calibrated = self.cal.timed(
                sweep, rep["state"], rep["data"], rep["hp"], rep["rng"])
        except Exception:  # noqa: BLE001 - any error is a failed sweep
            traceback.print_exc()
            self.fail(f"sweep {len(rep['times'])} of replicate {rep['sub_seed']} raised")
            rep["ok"] = False
            return
        rep["times"].append(calibrated)
        rep["wall"].append(wall)
        for key, fn in STATE_COUNTERS.items():
            rep["counters"][key].append(fn(rep["state"]))

    def round_robin(self, reps, n, cap_s):
        """Sweep each live replicate in turn until each has done ``n`` timed
        sweeps, or ``cap_s`` wall seconds have passed."""
        sweep = self.chain.sweep  # looked up now, so a swapped wrapper is used
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < cap_s:
            live = [r for r in reps if r["ok"] and len(r["times"]) < n]
            if not live:
                return
            for rep in live:
                self.sweep_once(rep, sweep)
        self.capped = True

    def validate(self, rep):
        if not rep["ok"]:
            return
        try:
            rep["state"].validate(rep["data"])
        except AssertionError as exc:
            rep["ok"] = False
            self.fail(f"replicate {rep['sub_seed']} state invalid: {exc}")

    def sweep_phase(self):
        reps = [self.start_timing(r) for r in self.replicates]
        n = self.wl.sweeps_per_replicate(self.seconds)
        if self.trace:
            n = max(1, n // 2)  # the traced replay repeats them
            replays = [copy.deepcopy((r["state"], r["rng"])) for r in reps]
        self.round_robin(reps, n, CAP_FACTOR * n * len(reps) / self.wl.sweep_rate)
        for rep in reps:
            self.validate(rep)
            rep.update(sweeps=len(rep["times"]), sweep_s=sum(rep["times"]),
                       sweep_wall_s=sum(rep["wall"]), ks=rep["counters"]["chain.K"],
                       final_digest=state_digest(rep["state"], rep["rng"]))
        self.sweep_times = [t for r in reps for t in r["times"]]
        pooled = {k: [x for r in reps for x in r["counters"][k]] for k in STATE_COUNTERS}
        self.sweep_counters = {k: statistics.fmean(v) if v else 0.0
                               for k, v in pooled.items()}
        if self.trace:
            self.traced_replay(reps, replays)

    def traced_replay(self, reps, replays):
        """Repeat each replicate's timed sweeps traced, from a copy of its
        starting state and generator; both runs must end identical."""
        rec = self.spans.SpanRecorder()
        untraced, traced, traced_wall = [], [], []
        with self.spans.swapped(self.layer_patches(rec)):
            sweep = self.chain.sweep
            for rep, (state, rng) in zip(reps, replays):
                if not rep["ok"]:
                    continue
                twin = self.start_timing(dict(rep), state, rng)
                while twin["ok"] and len(twin["times"]) < len(rep["times"]):
                    self.sweep_once(twin, sweep)
                self.validate(twin)
                untraced += rep["times"]
                traced += twin["times"]
                traced_wall += twin["wall"]
                if twin["ok"] and state_digest(state, rng) != rep["final_digest"]:
                    self.fail(f"replicate {rep['sub_seed']}: traced and untraced "
                              "sweeps ended in different states")
        n = max(len(traced), 1)
        # Spans are wall times; scale them like the sweeps that contain them.
        to_ms = 1000.0 * sum(traced) / max(sum(traced_wall), 1e-12) / n
        spans = rec.spans()
        self_t = self.spans.self_times(spans)
        m = self.metrics
        for span_name, metric in SWEEP_SELF_METRICS.items():
            m[metric] = self_t.get(span_name, 0.0) * to_ms
        m["chain.sweep_s"] = self.spans.inclusive_times(spans).get("chain.sweep", 0.0) * to_ms
        m.update(self.sweep_counters)
        c = rec.counts
        m["clusters.birth_calls"] = c["birth_calls"] / n
        m["clusters.reassign_moved"] = c["reassign_moved"] / n
        m["clusters.birth_accept"] = c["birth_accepted"] / max(c["birth_calls"], 1)
        m["clusters.death_accept"] = c["death_accepted"] / max(c["death_calls"], 1)
        m["trace.overhead_frac"] = sum(traced) / max(sum(untraced), 1e-12) - 1.0

    def layer_patches(self, rec):
        """(owner, attribute, wrapper) for every layer boundary that a sweep
        and a fit cross."""
        ch, cl, cli = self.chain, self.clusters, self.cli

        def count_move(kind):
            def after(counts, args, result, token):
                counts[f"{kind}_calls"] += 1
                counts[f"{kind}_accepted"] += bool(result[0])
            return after

        def cluster_before(args):
            return args[0].samples.cluster_of(args[3])

        def count_moved(counts, args, result, old_cid):
            counts["reassign_moved"] += result != old_cid

        w = rec.wrap
        return [
            (ch, "sweep", w("chain.sweep", ch.sweep)),
            (ch, "step_baseline_means", w("baseline.means", ch.step_baseline_means)),
            (ch, "step_baseline_vars", w("baseline.vars", ch.step_baseline_vars)),
            (ch, "step_pi", w("sparsity.pi", ch.step_pi)),
            (ch, "step_rho", w("sparsity.rho", ch.step_rho)),
            (ch, "step_clusters", w("clusters.step", ch.step_clusters)),
            (ch, "update_eta_sq", w("sparsity.eta", ch.update_eta_sq)),
            (ch, "step_concentrations", w("concentration", ch.step_concentrations)),
            (cl, "mh_birth_move", w("clusters.birth", cl.mh_birth_move,
                                    after=count_move("birth"))),
            (cl, "mh_death_move", w("clusters.death", cl.mh_death_move,
                                    after=count_move("death"))),
            (cl, "gibbs_reassign", w("clusters.reassign", cl.gibbs_reassign,
                                     before=cluster_before, after=count_moved)),
            (cl, "gibbs_update_cluster_mean",
             w("clusters.inner_gibbs", cl.gibbs_update_cluster_mean)),
            (ch.ChainTrace, "record", w("chain.record", ch.ChainTrace.record)),
            (cli, "relabel_conditional_on_K",
             w("summarize.relabel", cli.relabel_conditional_on_K)),
            (cli, "coclustering", w("summarize.coclustering", cli.coclustering)),
            (cli, "fitted_mean_posterior",
             w("summarize.fitted_mean", cli.fitted_mean_posterior)),
            (cli, "_write_outputs", w("io.write", cli._write_outputs)),
            (cli, "write_manifest", w("io.write", cli.write_manifest)),
        ]

    # -- fits -----------------------------------------------------------------

    def one_fit(self, rep, work_dir, rec=None):
        """Run ``cli.main`` on a replicate's inputs, traced when ``rec`` is
        given. Returns (calibrated seconds, outputs digest); the digest is
        None when the outputs fail a check."""
        out_dir = tempfile.mkdtemp(prefix="fit_", dir=work_dir)
        argv = self.wl.fit_argv(rep["sub_seed"], out_dir, rep["data_csv"], self.config_path)
        self.attempted += 1
        try:
            with self.spans.swapped([] if rec is None else self.layer_patches(rec)):
                rc, wall, calibrated = self.fit_cal.timed(
                    self.cli.main, argv, probes_before=FIT_PROBES, probes_after=FIT_PROBES)
            problem, modal_k = self.check_fit(rc, out_dir)
            digest = None if problem else outputs_digest(out_dir)
        except (Exception, SystemExit):  # noqa: BLE001 - any error is a failed fit
            traceback.print_exc()
            self.fail(f"fit of replicate {rep['sub_seed']} raised")
            return None, None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.fits.append({"sub_seed": rep["sub_seed"], "fit_s": calibrated,
                          "fit_wall_s": wall, "rc": rc, "modal_k": modal_k,
                          "traced": rec is not None, "problem": problem})
        if problem:
            self.fail(f"fit of replicate {rep['sub_seed']}: {problem}")
        return calibrated, digest

    def check_fit(self, rc, out_dir):
        """(problem, modal K): problem is None if the fit's outputs are sound,
        else what is wrong."""
        np = self.np
        if rc != 0:
            return f"return code {rc}", None
        missing = [f for f in FIT_FILES if not os.path.isfile(os.path.join(out_dir, f))]
        if missing:
            return f"missing outputs {missing}", None
        kp = np.loadtxt(os.path.join(out_dir, "k_posterior.csv"), delimiter=",",
                        skiprows=1, ndmin=2)
        modal_k = int(kp[np.argmax(kp[:, 1]), 0])
        if abs(kp[:, 1].sum() - 1.0) > 1e-9:
            return f"k_posterior sums to {kp[:, 1].sum()!r}", modal_k
        co = np.loadtxt(os.path.join(out_dir, "coclustering.csv"), delimiter=",",
                        skiprows=1, ndmin=2)[:, 1:]
        if co.shape[0] != co.shape[1] or not np.array_equal(co, co.T):
            return "coclustering matrix not symmetric", modal_k
        if not np.all(np.diag(co) == 1.0):
            return "coclustering diagonal not 1", modal_k
        if self.wl.expect_k is not None and modal_k != self.wl.expect_k:
            return f"modal K {modal_k}, expected {self.wl.expect_k}", modal_k
        return None, modal_k

    def fit_phase(self, work_dir):
        if not self.trace:
            for rep in self.replicates[:self.wl.fits]:
                digests = set()
                for _ in range(self.wl.fit_repeats):
                    fit_s, digest = self.one_fit(rep, work_dir)
                    if fit_s is not None:
                        self.fit_times.append(fit_s)
                    digests.add(digest)
                if len(digests) > 1:
                    self.fail(f"fit of replicate {rep['sub_seed']}: repeated fits "
                              "wrote different outputs")
            return
        rep = self.replicates[0]
        rec = self.spans.SpanRecorder()
        _, plain = self.one_fit(rep, work_dir)
        fit_s, traced = self.one_fit(rep, work_dir, rec)
        if plain is not None and traced is not None and plain != traced:
            self.fail(f"fit of replicate {rep['sub_seed']}: traced and untraced "
                      "outputs differ")
        if fit_s is None:
            return
        to_ms = 1000.0 * fit_s / self.fits[-1]["fit_wall_s"] / self.wl.fit_iters
        self_t = self.spans.self_times(rec.spans())
        for span_name, metric in FIT_SELF_METRICS.items():
            self.metrics[metric] = self_t.get(span_name, 0.0) * to_ms

    # -- whole run ------------------------------------------------------------

    def run(self):
        os.makedirs(OUT, exist_ok=True)
        work_dir = tempfile.mkdtemp(prefix=f"{self.wl.name}_", dir=OUT)
        try:
            self.setup(work_dir)
            self.fit_phase(work_dir)
            self.sweep_phase()
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        if self.trace:
            self.metrics["failed_frac"] = len(self.failures) / max(self.attempted, 1)
            units = PER_LAYER_UNITS
        else:
            self.end_to_end_metrics()
            units = END_TO_END_UNITS
        return {name: {"value": float(self.metrics.get(name, 0.0)), "unit": unit}
                for name, unit in units.items()}

    def end_to_end_metrics(self):
        times = self.sweep_times
        m = self.metrics
        if times:
            m["sweeps_per_s"] = len(times) / sum(times)
            m["sweep_ms_p90"] = float(self.np.percentile(times, 90)) * 1000.0
        if self.fit_times:
            m["fit_s"] = statistics.median(self.fit_times)
        m["setup_s"] = self.import_s + statistics.median(
            r["setup_s"] for r in self.replicates)
        m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def record(self, metrics):
        """Full record of the run for ``perfbench/out/``."""
        np = self.np
        scipy = importlib.import_module("scipy")
        times = self.sweep_times
        beyond = int(np.sum(np.asarray(times) > np.percentile(times, 90))) if times else 0
        return {
            "workload": self.wl.name, "seed": self.seed, "seconds": self.seconds,
            "trace": self.trace, "metrics": metrics,
            "attempted": self.attempted, "failures": self.failures,
            "import_s": self.import_s, "state_counters": self.sweep_counters,
            "timed_sweeps": len(times), "sweeps_beyond_p90": beyond,
            "sweep_phase_capped": self.capped,
            "replicates": [
                {k: r.get(k) for k in ("sub_seed", "setup_s", "setup_wall_s",
                                       "warmup_digest", "sweeps", "sweep_s",
                                       "sweep_wall_s", "final_digest", "ks")}
                for r in self.replicates
            ],
            "fits": self.fits,
            "workload_settings": {
                k: v for k, v in dataclasses.asdict(self.wl).items() if k != "make_data"},
            "environment": {
                "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "platform": platform.platform(),
                "commit": git_commit(),
            },
        }


def git_commit():
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sparseclust", "__init__.py")):
        print(f"perfbench: no sparseclust package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    # The sampler is single-threaded; keep numpy's BLAS from starting threads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    for name in ("numpy", "sparseclust", "sparseclust.cli"):
        importlib.import_module(name)
    import_wall_s = time.perf_counter() - t0
    cal = importlib.import_module("calib").Calibrator(window=3)
    cal.probe(3)
    import_s = import_wall_s * cal.scale()

    workloads = importlib.import_module("workloads")
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run = Run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
              import_s)
    metrics = run.run()
    record = run.record(metrics)
    path = os.path.join(OUT, f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps({k: record[k] for k in ("environment", "state_counters",
                                             "timed_sweeps", "sweeps_beyond_p90")}))
    failed = len(run.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
