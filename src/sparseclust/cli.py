"""Command-line front end: fit a dataset or a simulated example and emit
CSV summaries plus a manifest sufficient to reproduce the run."""

import argparse
import concurrent.futures
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import __version__
from .chain import ALL_ONE_CLUSTER, ALL_SINGLETONS, ChainConfig, merge_traces, run_chain
from .densities import SamplerAbort
from .io import (
    load_csv,
    parse_config_file,
    preprocess_expression,
    save_matrix_csv,
    standardize_columns,
    write_csv,
    write_manifest,
)
from .model import Hyperparams, default_hyperparams
from .simulate import gen_example1, gen_example2, gen_example3, gen_example4
from .summarize import (
    coclustering,
    fitted_mean_posterior,
    k_posterior,
    relabel_conditional_on_K,
    select_attributes,
)

_SIMULATORS = {
    "ex1": gen_example1,
    "ex2": gen_example2,
    "ex3": gen_example3,
    "ex4": gen_example4,
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="sparseclust",
        description="Sparse Bayesian Dirichlet-process clustering with variable selection",
    )
    ap.add_argument("--data", help="CSV file: header row of attribute names, one sample per row")
    ap.add_argument("--simulate", choices=sorted(_SIMULATORS), help="fit a built-in simulated example")
    ap.add_argument("--config", help="key=value file mirroring hyperparameter and chain settings")
    ap.add_argument("--iters", type=int, help=f"total sweeps (default {ChainConfig.iterations})")
    ap.add_argument("--burn-in", type=int, dest="burn_in",
                    help=f"burn-in sweeps (default {ChainConfig.burn_in})")
    ap.add_argument("--thin", type=int,
                    help=f"record every thin-th sweep (default {ChainConfig.thin})")
    ap.add_argument("--seed", type=int, help=f"base RNG seed (default {ChainConfig.seed})")
    ap.add_argument("--init", choices=[ALL_ONE_CLUSTER, ALL_SINGLETONS],
                    help=f"starting sample partition (default {ChainConfig.init_mode})")
    ap.add_argument("--chains", type=int, default=1, help="independent chains with seeds seed+0..N-1")
    ap.add_argument("--preprocess", action="store_true",
                    help="apply expression preprocessing (clamp/filter/top-variance)")
    ap.add_argument("--standardize", action="store_true", help="column-standardize before fitting")
    ap.add_argument("--threshold", type=float, default=0.5, help="attribute-selection threshold")
    ap.add_argument("--out", required=True, help="output directory")
    return ap


def _resolve(args, file_cfg):
    """The chain settings and the hyperparameter overrides. Precedence:
    command line > config file > ChainConfig defaults. Every config value
    is parsed, also one a flag overrides; raises ValueError naming the key
    for an unknown key or a value that does not parse."""
    chain_fields, hp_fields = fields(ChainConfig), fields(Hyperparams)
    types = {f.name: f.type for f in (*chain_fields, *hp_fields)}
    unknown = sorted(set(file_cfg) - set(types))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    parsed = {}
    for key, text in file_cfg.items():
        try:
            parsed[key] = types[key](text)
        except ValueError:
            raise ValueError(
                f"config key {key}: {text!r} is not a valid {types[key].__name__}"
            ) from None

    flags = {"iterations": args.iters, "burn_in": args.burn_in, "thin": args.thin,
             "seed": args.seed, "init_mode": args.init}
    chain = {f.name: parsed[f.name] for f in chain_fields if f.name in parsed}
    chain.update((k, v) for k, v in flags.items() if v is not None)
    hp_overrides = {f.name: parsed[f.name] for f in hp_fields if f.name in parsed}
    return ChainConfig(**chain), hp_overrides


def _load_data(args, parser, seed):
    """The data to fit and its source; ``--simulate`` draws it with the
    resolved chain ``seed`` (command line, else config file, else the
    ChainConfig default)."""
    if args.data and args.simulate:
        parser.error("--data and --simulate are mutually exclusive")
    if not args.data and not args.simulate:
        parser.error("one of --data or --simulate is required")
    if args.simulate:
        data, _truth = _SIMULATORS[args.simulate](seed)
        source = f"simulate:{args.simulate}"
    else:
        data = load_csv(args.data)
        source = os.path.abspath(args.data)
    return data, source


def _run_one_chain(payload):
    data, hp, cfg = payload
    return run_chain(data, hp, cfg)


def _attr_names(data):
    return data.names or [f"x{j + 1}" for j in range(data.p)]


def _write_outputs(outdir, trace, data, threshold, cfg, chains=1):
    """Write the summaries of ``trace``, which pools ``chains`` equal-length
    chains; if several, k_trace.csv numbers them from 0 in its own column."""
    os.makedirs(outdir, exist_ok=True)
    names = _attr_names(data)
    hist, mode = k_posterior(trace)

    start = cfg.burn_in + cfg.thin - 1
    per_chain = len(trace.ks) // chains
    first = 1 if chains == 1 else 0  # one chain gets no chain column
    write_csv(
        os.path.join(outdir, "k_trace.csv"), ["chain", "iteration", "K"][first:],
        ([t // per_chain, start + t % per_chain * cfg.thin, k][first:]
         for t, k in enumerate(trace.ks)),
    )
    write_csv(os.path.join(outdir, "k_posterior.csv"), ["K", "probability"],
              ([k, hist[k]] for k in sorted(hist)))

    # Every emitted cell is numeric; attribute names appear only as column
    # headers so each file stays loadable by load_csv conventions.
    rho_mean = np.mean(np.stack(trace.rhos), axis=0)
    write_csv(os.path.join(outdir, "rho_mean.csv"), ["attribute", "rho_mean"],
              enumerate(rho_mean.tolist(), start=1))

    _mu_al, pi_al, membership, _used = relabel_conditional_on_K(trace, mode)
    pi_mean = pi_al.mean(axis=0)
    save_matrix_csv(
        os.path.join(outdir, "pi_mean.csv"), pi_mean, names,
        index_name="cluster", index=range(1, mode + 1),
    )

    mu_hat = fitted_mean_posterior(trace, k=mode)
    save_matrix_csv(
        os.path.join(outdir, "mu_hat.csv"), mu_hat, names,
        index_name="sample", index=range(1, data.n + 1),
    )

    save_matrix_csv(
        os.path.join(outdir, "coclustering.csv"), coclustering(trace),
        [f"s{i + 1}" for i in range(data.n)],
        index_name="sample", index=range(1, data.n + 1),
    )

    write_csv(
        os.path.join(outdir, "assignments.csv"),
        ["sample", "map_cluster", *(f"p_c{c + 1}" for c in range(mode))],
        ([i, int(np.argmax(row)) + 1, *row] for i, row in enumerate(membership, start=1)),
    )
    write_csv(os.path.join(outdir, "selected_attributes.csv"), ["attribute"],
              ([j] for j in sorted(select_attributes(pi_mean, threshold))))


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.chains < 1:
        parser.error("--chains must be at least 1")

    # Settings are checked before data loads and data before any sweep, so
    # bad input is a usage error that leaves no output directory behind.
    try:
        file_cfg = parse_config_file(args.config) if args.config else {}
        cfg, hp_overrides = _resolve(args, file_cfg)
        configs = [replace(cfg, seed=cfg.seed + c) for c in range(args.chains)]
        # The data-centred base measure is not known yet; stand-ins let
        # Hyperparams check the overrides.
        Hyperparams(**{"base_mean": 0.0, "base_var": 1.0, **hp_overrides})
        if not 0.0 < args.threshold < 1.0:
            raise ValueError(f"--threshold must be in (0, 1), got {args.threshold}")
        if os.path.exists(args.out) and not os.path.isdir(args.out):
            raise ValueError(f"--out {args.out} exists and is not a directory")
        data, source = _load_data(args, parser, cfg.seed)
        if args.preprocess:
            data = preprocess_expression(data)
        if args.standardize:
            data = standardize_columns(data)
        hp = default_hyperparams(data, **hp_overrides)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))

    try:
        if args.chains == 1:
            traces = [run_chain(data, hp, configs[0])]
        else:
            workers = min(args.chains, os.cpu_count() or 1)
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                traces = list(pool.map(_run_one_chain, [(data, hp, c) for c in configs]))
    except SamplerAbort as exc:
        print(f"sampler aborted: {exc}", file=sys.stderr)
        return 1

    os.makedirs(args.out, exist_ok=True)
    if args.chains == 1:
        _write_outputs(args.out, traces[0], data, args.threshold, configs[0])
    else:
        for c, tr in enumerate(traces):
            _write_outputs(os.path.join(args.out, f"chain_{c:02d}"), tr, data,
                           args.threshold, configs[c])
        _write_outputs(args.out, merge_traces(traces), data, args.threshold, configs[0],
                       chains=args.chains)

    manifest = {
        "version": f"sparseclust-{__version__}",
        "source": source,
        "preprocess": args.preprocess,
        "standardize": args.standardize,
        "threshold": args.threshold,
        "chains": args.chains,
        "n": data.n,
        "p": data.p,
        **{f"chain.{k}": v for k, v in asdict(configs[0]).items()},
        **{f"hp.{k}": v for k, v in asdict(hp).items()},
    }
    write_manifest(os.path.join(args.out, "run_manifest.txt"), manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
