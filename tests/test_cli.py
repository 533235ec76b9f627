import filecmp
import os
from dataclasses import fields

import numpy as np
import pytest

from sparseclust.chain import ChainConfig
from sparseclust.cli import main
from sparseclust.io import load_csv
from sparseclust.model import Hyperparams

EXPECTED_FILES = [
    "k_trace.csv", "k_posterior.csv", "rho_mean.csv", "pi_mean.csv",
    "mu_hat.csv", "coclustering.csv", "assignments.csv",
    "selected_attributes.csv", "run_manifest.txt",
]


def _run(args):
    return main(args)


def test_missing_out_is_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        _run(["--simulate", "ex3", "--iters", "5", "--burn-in", "1"])
    assert e.value.code == 2


def test_data_and_simulate_conflict(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("a\n1\n2\n")
    with pytest.raises(SystemExit) as e:
        _run(["--data", str(f), "--simulate", "ex3", "--out", str(tmp_path / "o")])
    assert e.value.code == 2


def test_neither_data_nor_simulate(tmp_path):
    with pytest.raises(SystemExit) as e:
        _run(["--out", str(tmp_path / "o")])
    assert e.value.code == 2


def test_thin_recording_nothing_is_usage_error(tmp_path):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as e:
        _run(["--simulate", "ex3", "--iters", "10", "--burn-in", "5", "--thin", "10",
              "--out", str(out)])
    assert e.value.code == 2
    assert not out.exists()


def test_threshold_outside_unit_interval_is_usage_error(tmp_path, capsys):
    for value in ("1.5", "0", "1", "-0.2", "nan"):
        out = tmp_path / f"o{value}"
        with pytest.raises(SystemExit) as e:
            _run(["--simulate", "ex3", "--iters", "6", "--burn-in", "2",
                  "--threshold", value, "--out", str(out)])
        assert e.value.code == 2
        assert "--threshold" in capsys.readouterr().err
        assert not out.exists()


# name -> (CSV text or None for a missing file, extra flags, text on stderr)
BAD_DATA = {
    "missing_file": (None, [], "No such file"),
    "non_numeric_cell": ("a,b\n1,2\n3,x\n", [], "non-numeric cell 'x' at row 3, column 2"),
    "nan_cell": ("a,b\n1,2\n3,nan\n", [], "non-finite cell 'nan' at row 3, column 2"),
    "inf_cell": ("a,b\ninf,2\n3,4\n", [], "non-finite cell 'inf' at row 2, column 1"),
    "equal_attribute_means": ("a,b\n0,1\n1,0\n", [], "attribute means are all identical"),
    "preprocess_drops_all": ("a,b\n1,2\n3,4\n", ["--preprocess"], "no attributes survive"),
}


@pytest.mark.parametrize("case", sorted(BAD_DATA))
def test_bad_data_is_usage_error(tmp_path, capsys, case):
    text, flags, message = BAD_DATA[case]
    src = tmp_path / "in.csv"
    if text is not None:
        src.write_text(text)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as e:
        _run(["--data", str(src), "--iters", "6", "--burn-in", "2", *flags, "--out", str(out)])
    assert e.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["flag", "config", "flag_two_chains"])
def test_negative_seed_is_usage_error(tmp_path, capsys, where):
    """Rejected with the settings, before data loads or a worker starts."""
    cfg = tmp_path / "cfg"
    cfg.write_text("seed=-1\n")
    args = {"flag": ["--seed", "-1"], "config": ["--config", str(cfg)],
            "flag_two_chains": ["--seed", "-1", "--chains", "2"]}[where]
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as e:
        _run(["--simulate", "ex3", "--iters", "6", "--burn-in", "2", *args, "--out", str(out)])
    assert e.value.code == 2
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def _bad_config_usage_error(tmp_path, capsys, line, key, flags=()):
    """A --config file holding ``line`` (from its line 3), run with
    ``flags``, exits 2 before data loads, names ``key`` on stderr and
    creates no output directory; returns stderr."""
    cfg = tmp_path / "cfg"
    cfg.write_text(f"iterations=10\nburn_in=5\n{line}\n")
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as e:
        _run(["--simulate", "ex3", "--config", str(cfg), *flags, "--out", str(out)])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert key in err
    assert not out.exists()
    return err


def test_config_unknown_key_is_usage_error(tmp_path, capsys):
    _bad_config_usage_error(tmp_path, capsys, "slab_A=8.0", "slab_A")


def test_config_unparsable_value_is_usage_error(tmp_path, capsys):
    _bad_config_usage_error(tmp_path, capsys, "thin=abc", "thin")


def test_config_value_a_flag_overrides_is_parsed(tmp_path, capsys):
    _bad_config_usage_error(tmp_path, capsys, "thin=abc", "thin", ["--thin", "1"])


def test_config_invalid_hyperparameter_is_usage_error(tmp_path, capsys):
    _bad_config_usage_error(tmp_path, capsys, "slab_a=-1", "slab_a")


def test_config_duplicate_key_is_usage_error(tmp_path, capsys):
    err = _bad_config_usage_error(tmp_path, capsys, "seed=1\nseed=2", "seed")
    assert "line 4 repeats line 3" in err


def test_out_naming_a_file_is_usage_error(tmp_path, capsys):
    out = tmp_path / "results"
    out.write_text("keep me\n")
    with pytest.raises(SystemExit) as e:
        _run(["--simulate", "ex3", "--iters", "20", "--burn-in", "5", "--out", str(out)])
    assert e.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert out.read_text() == "keep me\n"


def test_short_run_outputs_and_determinism(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    args = ["--simulate", "ex3", "--iters", "60", "--burn-in", "20", "--seed", "7"]
    assert _run(args + ["--out", str(out1)]) == 0
    assert _run(args + ["--out", str(out2)]) == 0
    for name in EXPECTED_FILES:
        assert (out1 / name).is_file(), name
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name


def test_outputs_reparse_and_shapes(tmp_path):
    out = tmp_path / "r"
    assert _run(["--simulate", "ex3", "--iters", "40", "--burn-in", "10",
                 "--seed", "3", "--out", str(out)]) == 0
    mu_hat = load_csv(out / "mu_hat.csv")
    assert mu_hat.n == 20 and mu_hat.p == 51  # index column + 50 attributes
    co = load_csv(out / "coclustering.csv")
    assert co.n == 20
    ktr = load_csv(out / "k_trace.csv")
    assert ktr.n == 30  # iterations - burn_in
    assert ktr.y[0, 0] == 10.0  # first recorded sweep index


def test_csv_input_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    y = np.round(rng.normal(0, 1, size=(8, 6)), 6)
    src = tmp_path / "in.csv"
    with open(src, "w") as fh:
        fh.write(",".join(f"g{j}" for j in range(6)) + "\n")
        for row in y:
            fh.write(",".join(str(v) for v in row) + "\n")
    out = tmp_path / "r"
    assert _run(["--data", str(src), "--iters", "30", "--burn-in", "5",
                 "--seed", "2", "--out", str(out)]) == 0
    manifest = (out / "run_manifest.txt").read_text()
    assert "source=" in manifest and "chain.seed=2" in manifest


def test_config_base_measure_replaces_data_default(tmp_path):
    """With base_mean and base_var set in the config, data whose attribute
    means are identical fits: the data default is not consulted."""
    src = tmp_path / "in.csv"
    src.write_text("a,b\n0,1\n1,0\n0,1\n1,0\n")
    cfg = tmp_path / "cfg"
    cfg.write_text("base_mean=0\nbase_var=1\n")
    out = tmp_path / "r"
    assert _run(["--data", str(src), "--config", str(cfg), "--iters", "6",
                 "--burn-in", "2", "--out", str(out)]) == 0
    manifest = (out / "run_manifest.txt").read_text()
    assert "hp.base_mean=0" in manifest and "hp.base_var=1" in manifest


def test_standardize_needs_a_configured_base_measure(tmp_path, capsys):
    """Standardized attribute means differ only by rounding: without a
    configured base measure that is a usage error naming the config keys."""
    out = tmp_path / "o"
    args = ["--simulate", "ex3", "--standardize", "--iters", "6", "--burn-in", "2"]
    with pytest.raises(SystemExit) as e:
        _run([*args, "--out", str(out)])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "base_var" in err and "base_mean" in err
    assert not out.exists()
    cfg = tmp_path / "cfg"
    cfg.write_text("base_mean=0\nbase_var=1\n")
    assert _run([*args, "--config", str(cfg), "--out", str(out)]) == 0


def test_config_file_and_cli_precedence(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("iterations=40\nburn_in=10\nseed=5\nslab_a=8.0\n")
    out = tmp_path / "r"
    assert _run(["--simulate", "ex3", "--config", str(cfg), "--iters", "30",
                 "--out", str(out)]) == 0
    manifest = (out / "run_manifest.txt").read_text()
    assert "chain.iterations=30" in manifest  # CLI wins
    assert "chain.burn_in=10" in manifest  # config applies
    assert "hp.slab_a=8" in manifest


def test_manifest_reproduces_the_run(tmp_path):
    """The manifest has one line per ChainConfig and Hyperparams field, in
    field order, and a config built from those lines repeats the run."""
    first, again = tmp_path / "first", tmp_path / "again"
    args = ["--simulate", "ex3", "--iters", "6", "--burn-in", "2", "--seed", "4"]
    assert _run([*args, "--out", str(first)]) == 0
    lines = (first / "run_manifest.txt").read_text().splitlines()
    settings = [line for line in lines if line.startswith(("chain.", "hp."))]
    assert [line.split("=", 1)[0] for line in settings] == [
        *(f"chain.{f.name}" for f in fields(ChainConfig)),
        *(f"hp.{f.name}" for f in fields(Hyperparams)),
    ]
    cfg = tmp_path / "cfg"
    cfg.write_text("".join(line.split(".", 1)[1] + "\n" for line in settings))
    assert _run(["--simulate", "ex3", "--config", str(cfg), "--out", str(again)]) == 0
    for name in EXPECTED_FILES:
        assert filecmp.cmp(first / name, again / name, shallow=False), name


def test_config_seed_seeds_simulated_data(tmp_path):
    """A seed from --config draws the same simulated data, and so writes the
    same files, as the same seed given with --seed."""
    cfg = tmp_path / "cfg"
    cfg.write_text("seed=5\n")
    flag, config = tmp_path / "flag", tmp_path / "config"
    args = ["--simulate", "ex3", "--iters", "3", "--burn-in", "1"]
    assert _run(args + ["--seed", "5", "--out", str(flag)]) == 0
    assert _run(args + ["--config", str(cfg), "--out", str(config)]) == 0
    for name in EXPECTED_FILES:
        assert filecmp.cmp(flag / name, config / name, shallow=False), name


def test_multichain_writes_subdirs_and_merged(tmp_path):
    out = tmp_path / "r"
    assert _run(["--simulate", "ex3", "--iters", "30", "--burn-in", "10",
                 "--seed", "1", "--chains", "2", "--out", str(out)]) == 0
    for sub in ("chain_00", "chain_01"):
        for name in EXPECTED_FILES[:-1]:
            assert (out / sub / name).is_file(), (sub, name)
    for name in EXPECTED_FILES:
        assert (out / name).is_file(), name
    # merged k_trace holds both chains' records
    merged = load_csv(out / "k_trace.csv")
    assert merged.n == 2 * 20


def test_merged_k_trace_numbers_iterations_per_chain(tmp_path):
    out = tmp_path / "r"
    assert _run(["--simulate", "ex3", "--iters", "6", "--burn-in", "2",
                 "--seed", "1", "--chains", "2", "--out", str(out)]) == 0
    merged = load_csv(out / "k_trace.csv")
    assert merged.names == ["chain", "iteration", "K"]
    assert merged.y[:, 0].tolist() == [0] * 4 + [1] * 4
    assert merged.y[:, 1].tolist() == [2, 3, 4, 5] * 2
    for c in (0, 1):
        own = load_csv(out / f"chain_{c:02d}" / "k_trace.csv")
        assert own.names == ["iteration", "K"]
        np.testing.assert_array_equal(merged.y[4 * c:4 * (c + 1), 1:], own.y)
