import builtins
import csv
import io
import os
import re
from pathlib import Path

import numpy as np
import pytest

from costbench.harness import (
    _CONFIG_KEYS,
    ConfigError,
    ExperimentConfig,
    ROW_FIELDS,
    ResultRow,
    aggregate,
    apply_preset,
    emit_table,
    parse_config,
    read_rows_csv,
    run_experiment,
    write_rows_csv,
)
from costbench.seeding import mix_seed


SMALL_CFG = ExperimentConfig(
    dataset="synthetic",
    n_samples=120,
    n_seeds=2,
    losses=("cross_entropy", "embedding_softmax"),
    n_epochs=60,
    learning_rate=0.5,
    rows_csv="rows.csv",
    table_path="table.md",
)


# --- seed mixing ------------------------------------------------------------


def test_mix_seed_deterministic():
    assert mix_seed(0, "synthetic", "ce", 3) == mix_seed(0, "synthetic", "ce", 3)


def test_mix_seed_sensitive_to_every_part():
    base = mix_seed(0, "synthetic", "ce", 3)
    assert mix_seed(1, "synthetic", "ce", 3) != base
    assert mix_seed(0, "german", "ce", 3) != base
    assert mix_seed(0, "synthetic", "emb", 3) != base
    assert mix_seed(0, "synthetic", "ce", 4) != base


def test_mix_seed_pinned_values():
    # Frozen so config reproducibility survives refactors.
    assert mix_seed(0, "synthetic", "cross_entropy", 0) == 990471442454312336
    assert mix_seed(7, "german_credit", "embedding", 19) == 15220686785290670277


def test_mix_seed_fits_64_bits():
    for i in range(50):
        assert 0 <= mix_seed(i, "x", i * 7) < 2**64


# --- config parsing -----------------------------------------------------------


def test_parse_config_round_trip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        """
[experiment]
dataset = synthetic
n_samples = 250
alpha = 1/6
losses = cross_entropy, embedding
n_seeds = 3
master_seed = 11

[train]
learning_rate = 0.25
n_epochs = 100
selection = val_loss

[output]
rows_csv = out/rows.csv
table = out/table.md
"""
    )
    cfg = parse_config(path)
    assert cfg.dataset == "synthetic"
    assert cfg.n_samples == 250
    assert cfg.alpha == pytest.approx(1 / 6)
    assert cfg.losses == ("cross_entropy", "embedding")
    assert cfg.n_seeds == 3
    assert cfg.master_seed == 11
    assert cfg.learning_rate == 0.25
    assert cfg.table_path == "out/table.md"


REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", sorted(p.name for p in (REPO / "configs").glob("*.cfg")))
def test_shipped_configs_parse(name):
    # Reads no data file, so the UCI configs are checked without their data.
    cfg = parse_config(REPO / "configs" / name)
    assert Path(cfg.rows_csv).parent == Path(cfg.table_path).parent == Path("results")


def test_readme_config_table_lists_every_key():
    keys, section = set(), None
    for line in (REPO / "README.md").read_text().splitlines():
        if m := re.match(r"\| (?:`\[(\w+)\]`)? *\| `(\w+)` \|", line):
            section = m[1] or section
            keys.add((section, m[2]))
    assert keys == set(_CONFIG_KEYS)


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[experiment]\ndataset = synthetic\nturbo = yes\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_parse_config_rejects_unknown_dataset(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[experiment]\ndataset = mnist\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_parse_config_missing_file():
    with pytest.raises(ConfigError):
        parse_config("definitely/not/here.cfg")


def test_parse_config_names_key_of_malformed_value(tmp_path, capsys):
    from costbench.cli import main

    path = tmp_path / "bad.cfg"
    path.write_text("[experiment]\ndataset = synthetic\nn_seeds = two\n")
    with pytest.raises(ConfigError) as info:
        parse_config(path)
    message = str(info.value)
    assert str(path) in message and "n_seeds" in message and "[experiment]" in message
    assert main(["run", str(path)]) == 2
    assert "n_seeds" in capsys.readouterr().err


def test_config_rejects_duplicate_or_empty_losses(tmp_path):
    # Duplicates would run every cell twice and count the copies in the SEM;
    # an empty list would write a header-only rows CSV.
    with pytest.raises(ConfigError, match="more than once"):
        ExperimentConfig(losses=("cross_entropy", "cross_entropy"))
    with pytest.raises(ConfigError, match="at least one"):
        ExperimentConfig(losses=())
    path = tmp_path / "empty.cfg"
    path.write_text("[experiment]\nlosses = ,\n")
    with pytest.raises(ConfigError, match="at least one"):
        parse_config(path)


def test_config_rejects_post_on_deferral():
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset="german_credit_deferral",
                         losses=("cross_entropy", "cross_entropy_post"))


def test_config_rejects_loss_the_matrix_cannot_take(tmp_path, capsys):
    # Rejected when the config is read, before any cell trains.
    from costbench.cli import main

    with pytest.raises(ConfigError, match="losses: weighted_hinge cannot train on"):
        ExperimentConfig(dataset="german_credit_deferral",
                         losses=("cross_entropy", "weighted_hinge"))
    with pytest.raises(ConfigError, match="losses: cross_entropy_post cannot train on"):
        ExperimentConfig(dataset="german_credit_deferral", losses=("cross_entropy_post",))
    with pytest.raises(ConfigError, match="zero-diagonal 2x2"):
        ExperimentConfig(dataset="student_performance", losses=("weighted_hinge",))
    ExperimentConfig(dataset="german_credit", losses=("weighted_hinge",))
    for alpha in (0.0, 1.0, 1.5, float("nan")):
        with pytest.raises(ConfigError, match="alpha"):
            ExperimentConfig(alpha=alpha)
    path = tmp_path / "deferral.cfg"
    path.write_text("[experiment]\ndataset = german_credit_deferral\n"
                    "losses = cross_entropy, weighted_hinge\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}: [experiment] losses: weighted_hinge")):
        parse_config(path)
    assert main(["run", str(path)]) == 2
    assert "losses: weighted_hinge" in capsys.readouterr().err


def test_config_rejects_alpha_off_the_synthetic_task(tmp_path):
    # A UCI dataset trains on its own matrix, so a set alpha would be ignored.
    with pytest.raises(ConfigError, match="alpha"):
        ExperimentConfig(dataset="german_credit", alpha=5.0)
    with pytest.raises(ConfigError, match="alpha"):
        ExperimentConfig(dataset="student_performance", alpha=0.25)
    assert ExperimentConfig(dataset="german_credit").alpha == ExperimentConfig().alpha
    assert ExperimentConfig(alpha=0.25).alpha == 0.25
    path = tmp_path / "credit.cfg"
    path.write_text("[experiment]\ndataset = german_credit\nalpha = 1/4\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}: [experiment] alpha")):
        parse_config(path)


@pytest.mark.parametrize("line, key", [
    ("n_samples = 2", "n_samples"),   # train 1, val 0, test 1 under 0.6/0.2/0.2
    ("n_samples = 0", "n_samples"),
    ("workers = 0", "workers"),
    ("workers = -3", "workers"),
])
def test_config_rejects_empty_split_or_no_workers(tmp_path, capsys, line, key):
    # Rejected when the config is read, naming the file and the key, not in
    # the first cell with a message that names neither.
    from costbench.cli import main

    path = tmp_path / "small.cfg"
    path.write_text(f"[experiment]\ndataset = synthetic\n{line}\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}: [experiment] {key}")):
        parse_config(path)
    assert main(["run", str(path)]) == 2
    assert f"[experiment] {key}" in capsys.readouterr().err


@pytest.mark.parametrize("text, section, key", [
    ("[experiment]\ndataset = mnist\n", "experiment", "dataset"),
    ("[experiment]\ndataset = german_credit\nalpha = 1/4\n", "experiment", "alpha"),
    ("[experiment]\nalpha = 3/2\n", "experiment", "alpha"),
    ("[experiment]\nn_seeds = 0\n", "experiment", "n_seeds"),
    ("[experiment]\nlosses = ,\n", "experiment", "losses"),
    ("[experiment]\nlosses = hinge\n", "experiment", "losses"),
    ("[experiment]\nlosses = embedding, embedding\n", "experiment", "losses"),
    ("[experiment]\ndataset = german_credit_deferral\nlosses = weighted_hinge\n",
     "experiment", "losses"),
    ("[experiment]\nmaster_seed = -1\n", "experiment", "master_seed"),
    ("[experiment]\nmaster_seed = 18446744073709551616\n", "experiment", "master_seed"),
    ("[train]\nselection = best\n", "train", "selection"),
])
def test_config_errors_name_section_and_key(tmp_path, text, section, key):
    path = tmp_path / "a.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: [{section}] {key}")):
        parse_config(path)


def test_config_accepts_smallest_nonempty_split():
    assert ExperimentConfig(n_samples=4).n_samples == 4
    assert ExperimentConfig(workers=1).workers == 1


def test_parse_config_rejects_batch_size(tmp_path):
    path = tmp_path / "minibatch.cfg"
    path.write_text("[train]\nbatch_size = 32\n")
    with pytest.raises(ConfigError, match="unknown key 'batch_size' in \\[train\\]"):
        parse_config(path)


def test_config_rejects_bad_train_values(tmp_path, capsys):
    # Rejected when the config is read, not once the first cell has trained.
    from costbench.cli import main

    for section, key, value in [("train", "n_epochs", "0"),
                                ("train", "learning_rate", "-1"),
                                ("train", "learning_rate", "nan")]:
        path = tmp_path / f"{key}_{value}.cfg"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: [{section}] {key}")):
            parse_config(path)
        assert main(["run", str(path)]) == 2
        assert f"{path}: [{section}] {key}" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="n_epochs"):
        ExperimentConfig(n_epochs=0)


def test_parse_config_rejects_model_kind(tmp_path, capsys):
    # The hidden widths alone say what the model is: none is a linear model.
    from costbench.cli import main

    path = tmp_path / "kind.cfg"
    path.write_text("[model]\nkind = mlp\n")
    with pytest.raises(ConfigError, match="unknown key 'kind' in \\[model\\]"):
        parse_config(path)
    assert main(["run", str(path)]) == 2
    assert "unknown key 'kind' in [model]" in capsys.readouterr().err


def test_named_hidden_widths_train_an_mlp(tmp_path):
    # Without a kind key, named widths are an MLP at the MLP learning rate;
    # an empty list is a linear model, the only kind with a boundary slope.
    path = tmp_path / "mlp.cfg"
    path.write_text("[experiment]\nn_samples = 60\nlosses = cross_entropy\nn_seeds = 1\n"
                    "[model]\nhidden_dims = 3\n[train]\nn_epochs = 5\n")
    cfg = parse_config(path)
    assert cfg.hidden_dims == (3,) and cfg.effective_learning_rate == 0.01
    [row] = run_experiment(cfg)
    assert not row.failed and row.boundary_slope is None
    path.write_text(path.read_text().replace("hidden_dims = 3", "hidden_dims ="))
    linear = parse_config(path)
    assert linear.hidden_dims == () and linear.effective_learning_rate == 1.0
    [row] = run_experiment(linear)
    assert isinstance(row.boundary_slope, float)


def test_config_rejects_the_removed_candidates_and_format_keys(tmp_path, capsys):
    # Both held one value in every shipped config: cross_entropy_post searches
    # postprocess_search's default 100 weight vectors, and run and ablate write
    # markdown tables (`costbench table --format csv` still writes CSV).
    from costbench.cli import main

    for text, error in [("[postprocess]\nn_candidates = 100\n", "unknown section [postprocess]"),
                        ("[output]\nformat = markdown\n", "unknown key 'format' in [output]")]:
        path = tmp_path / "old.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {error}")):
            parse_config(path)
        assert main(["run", str(path)]) == 2
        assert error in capsys.readouterr().err


@pytest.mark.parametrize("widths", ["0", "4, 0"])
def test_config_rejects_mlp_without_positive_hidden_widths(tmp_path, capsys, widths):
    # A zero width would fail only in the first cell, with a message that
    # names neither file nor key. (An empty list is a linear model.)
    from costbench.cli import main

    path = tmp_path / "mlp.cfg"
    path.write_text(f"[model]\nhidden_dims = {widths}\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}: [model] hidden_dims")):
        parse_config(path)
    for command in (["run", str(path)], ["ablate", "mlp", str(path)]):
        assert main(command) == 2
        assert f"{path}: [model] hidden_dims" in capsys.readouterr().err


def test_preset_application():
    from dataclasses import replace

    cfg = ExperimentConfig(dataset="synthetic", n_samples=500)
    full = apply_preset(cfg, "full_data")
    assert full.n_samples == 10000
    mlp = apply_preset(cfg, "mlp")
    assert mlp.hidden_dims == (100,) * 4
    named = apply_preset(replace(cfg, hidden_dims=(8, 8), learning_rate=0.5), "mlp")
    assert named.hidden_dims == (8, 8) and named.learning_rate is None
    with pytest.raises(ConfigError):
        apply_preset(cfg, "bigger")


# --- aggregation -----------------------------------------------------------------


def make_row(loss, seed, csl, acc=None):
    return ResultRow("synthetic", loss, seed, csl, acc, 0.1, 0.2, 0.3)


def test_aggregate_constant_rows_zero_sem():
    rows = [make_row("ce", i, 0.5) for i in range(4)]
    cells = {c.metric: c for c in aggregate(rows) if c.loss == "ce"}
    assert cells["csl"].mean == 0.5
    assert cells["csl"].sem == 0.0


def test_aggregate_hand_value():
    rows = [make_row("ce", 0, 0.3), make_row("ce", 1, 0.5)]
    cell = next(c for c in aggregate(rows) if c.metric == "csl")
    assert cell.mean == pytest.approx(0.4)
    assert cell.sem == pytest.approx(0.1)
    assert cell.n == 2


def test_aggregate_single_row_flagged():
    cell = next(c for c in aggregate([make_row("ce", 0, 0.7)]) if c.metric == "csl")
    assert cell.sem == 0.0 and cell.n == 1


def test_aggregate_skips_failed_cells():
    rows = [make_row("ce", 0, 0.4), make_row("ce", 1, 0.6)]
    rows.append(ResultRow("synthetic", "ce", 2, float("nan"), None,
                          float("nan"), float("nan"), float("nan"),
                          failed="diverged"))
    cell = next(c for c in aggregate(rows) if c.metric == "csl")
    assert cell.n == 2 and cell.mean == pytest.approx(0.5)


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate([])


# --- tables -----------------------------------------------------------------------


def test_emit_csv_round_trip(tmp_path):
    rows = [make_row("ce", 0, 0.3, 0.9), make_row("ce", 1, 0.5, 0.8)]
    cells = aggregate(rows)
    text = emit_table(cells, "csv")
    import csv as csv_mod
    import io

    parsed = list(csv_mod.reader(io.StringIO(text)))
    assert parsed[0] == ["dataset", "loss", "metric", "mean", "sem", "n"]
    by_metric = {row[2]: row for row in parsed[1:]}
    assert float(by_metric["csl"][3]) == 0.4
    assert float(by_metric["csl"][4]) == pytest.approx(0.1)


def test_markdown_marks_best_and_missing_accuracy():
    rows = [
        make_row("cross_entropy", 0, 0.5),
        make_row("cross_entropy", 1, 0.5),
        make_row("embedding", 0, 0.3),
        make_row("embedding", 1, 0.3),
    ]
    text = emit_table(aggregate(rows), "markdown")
    lines = text.splitlines()
    emb_line = next(l for l in lines if "| embedding |" in l)
    ce_line = next(l for l in lines if "| cross_entropy |" in l)
    assert "**" in emb_line and "**" not in ce_line
    assert ce_line.rstrip().endswith("- |")  # accuracy column shows "-"


def test_markdown_groups_by_dataset_in_first_appearance_order():
    # Losses of two datasets interleave in the rows; the table lists each
    # dataset's losses together and bolds the best CSL within each dataset.
    rows = [ResultRow("d1", "a", 0, 0.4, 0.9, 0.1, 0.2, 0.3),
            ResultRow("d2", "b", 0, 0.2, None, 0.1, 0.2, 0.3),
            ResultRow("d1", "c", 0, 0.3, 0.8, 0.1, 0.2, 0.3)]
    assert emit_table(aggregate(rows), "markdown").splitlines()[2:] == [
        "| d1 | a | 0.400 ± 0.000 | 0.900 ± 0.000 |",
        "| d1 | c | **0.300 ± 0.000** | 0.800 ± 0.000 |",
        "| d2 | b | **0.200 ± 0.000** | - |",
    ]


def test_emit_table_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_table(aggregate([make_row("ce", 0, 0.1)]), "latex")


def test_rows_csv_round_trip(tmp_path):
    rows = [make_row("ce", 0, 0.25, 0.75), make_row("emb", 1, 0.5)]
    path = tmp_path / "rows.csv"
    write_rows_csv(rows, path)
    back = read_rows_csv(path)
    assert len(back) == 2
    assert back[0].csl == 0.25 and back[0].accuracy == 0.75
    assert back[1].accuracy is None
    assert back[0].loss == "ce" and back[1].seed == 1


def _spy_truncating_opens(monkeypatch):
    """Record every open that truncates the file it opens."""
    seen = []
    real_open, real_os_open = builtins.open, os.open

    def spy_open(file, mode="r", *args, **kwargs):
        if not isinstance(file, int) and "w" in mode:
            seen.append((str(file), mode))
        return real_open(file, mode, *args, **kwargs)

    def spy_os_open(path, flags, *args, **kwargs):
        if flags & os.O_TRUNC:
            seen.append((str(path), flags))
        return real_os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy_open)
    monkeypatch.setattr(io, "open", spy_open)  # what Path.write_text calls
    monkeypatch.setattr(os, "open", spy_os_open)
    return seen


@pytest.mark.parametrize("what", ["rows", "csv", "markdown"])
def test_writers_rewrite_a_longer_file_without_a_truncating_open(what, tmp_path, monkeypatch):
    rows = [make_row("ce", 0, 0.25, 0.75), make_row("emb", 1, 0.5), make_row("ce", 1, 1e-17)]
    if what == "rows":
        def write(path):
            write_rows_csv(rows, path)
        # What a truncating csv.writer wrote: \r\n line ends.
        with open(tmp_path / "want", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(ROW_FIELDS)
            for r in rows:
                w.writerow(["" if v is None else repr(v) if isinstance(v, float) else v
                            for v in (getattr(r, f) for f in ROW_FIELDS)])
        want = (tmp_path / "want").read_bytes()
        assert b"\r\n" in want
    else:
        text = emit_table(aggregate(rows), what)

        def write(path):
            emit_table(aggregate(rows), what, path)
        want = text.encode()
    fresh, path = tmp_path / "fresh", tmp_path / "sub" / "existing"
    write(fresh)
    assert fresh.read_bytes() == want
    path.parent.mkdir()
    path.write_bytes(b"x" * (10 * len(want)) + b"\n")
    seen = _spy_truncating_opens(monkeypatch)
    write(path)
    monkeypatch.undo()
    assert seen == []
    assert path.read_bytes() == want


# --- experiment runs ----------------------------------------------------------------


@pytest.fixture(scope="module")
def small_run():
    return run_experiment(SMALL_CFG)


def test_run_produces_full_grid(small_run):
    assert len(small_run) == 4  # 2 losses x 2 seeds
    keys = [(r.loss, r.seed) for r in small_run]
    assert keys == [("cross_entropy", 0), ("cross_entropy", 1),
                    ("embedding_softmax", 0), ("embedding_softmax", 1)]
    for r in small_run:
        assert not r.failed
        assert r.csl >= 0
        assert 0 <= r.accuracy <= 1


def test_run_deterministic(small_run, tmp_path):
    again = run_experiment(SMALL_CFG)
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    write_rows_csv(small_run, a_path)
    write_rows_csv(again, b_path)
    assert a_path.read_bytes() == b_path.read_bytes()


def test_run_same_split_across_losses(small_run):
    # Same seed index means the same subsample for every loss: the surrogate
    # test losses differ, but the split seed derivation ignores the loss name.
    s_a = mix_seed(SMALL_CFG.master_seed, "synthetic", 0, "split")
    s_b = mix_seed(SMALL_CFG.master_seed, "synthetic", 0, "split")
    assert s_a == s_b


def test_run_workers_do_not_change_bytes(tmp_path):
    from dataclasses import replace

    seq = run_experiment(SMALL_CFG)
    par = run_experiment(replace(SMALL_CFG, workers=2))
    a_path, b_path = tmp_path / "seq.csv", tmp_path / "par.csv"
    write_rows_csv(seq, a_path)
    write_rows_csv(par, b_path)
    assert a_path.read_bytes() == b_path.read_bytes()


def test_adding_a_loss_never_perturbs_other_cells():
    from dataclasses import replace

    base = run_experiment(SMALL_CFG)
    more = run_experiment(
        replace(SMALL_CFG, losses=SMALL_CFG.losses + ("scaled_cross_entropy",))
    )
    base_keys = {(r.loss, r.seed): r.csl for r in base}
    for r in more:
        if (r.loss, r.seed) in base_keys:
            assert r.csl == base_keys[(r.loss, r.seed)]


def test_failed_cell_isolated(monkeypatch):
    # Steps at the float ceiling overflow the parameters; every cell must
    # still report instead of aborting the run.
    from dataclasses import replace

    cfg = replace(SMALL_CFG, learning_rate=1e308, losses=("cross_entropy",),
                  n_seeds=2)
    with np.errstate(all="ignore"):
        rows = run_experiment(cfg)
    assert len(rows) == 2
    assert all(r.failed.startswith("diverged at epoch ") for r in rows)


def test_cell_error_other_than_divergence_propagates(monkeypatch):
    # Serial mode: a bug inside training ends the run instead of being
    # recorded as a diverged cell.
    from costbench.losses import BoundLoss

    original = BoundLoss.batch
    calls = []

    def buggy_batch(self, scores, ys):
        calls.append(None)
        if len(calls) == 5:
            raise ValueError("index bug in the loss")
        return original(self, scores, ys)

    monkeypatch.setattr(BoundLoss, "batch", buggy_batch)
    with pytest.raises(ValueError, match="index bug"):
        run_experiment(SMALL_CFG)


def test_pool_mode_propagates_cell_error(monkeypatch):
    # Pool mode (forked workers inherit the patch): a bug inside a cell ends
    # the run instead of being recorded as a diverged cell.
    from dataclasses import replace

    from costbench.losses import BoundLoss

    def buggy_batch(self, scores, ys):
        raise ValueError("index bug in the loss")

    monkeypatch.setattr(BoundLoss, "batch", buggy_batch)
    with pytest.raises(ValueError, match="index bug"):
        run_experiment(replace(SMALL_CFG, workers=2))


def test_pool_mode_records_diverged_cell():
    from dataclasses import replace

    cfg = replace(SMALL_CFG, learning_rate=1e308, losses=("cross_entropy",),
                  n_seeds=2, workers=2)
    with np.errstate(all="ignore"):
        rows = run_experiment(cfg)
    assert [r.seed for r in rows] == [0, 1]
    assert all(r.failed.startswith("diverged at epoch ") for r in rows)


# sha256 of the rows CSV of GUARD_CFG, taken from the training loop that
# evaluated the loss three times per epoch; any change to training or
# evaluation arithmetic moves it.
GUARD_CFG = ExperimentConfig(n_seeds=2, n_epochs=50, workers=1)
GUARD_ROWS_SHA256 = "f395afff2398204ca648bef500d03d1cd57401e728e3d9ac3bcdcb7e12f66e51"


def test_rows_csv_bytes_pinned(tmp_path):
    import hashlib

    assert len(GUARD_CFG.losses) == 5
    path = tmp_path / "rows.csv"
    write_rows_csv(run_experiment(GUARD_CFG), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GUARD_ROWS_SHA256


# The same for GUARD_CFG under val_csl selection, taken from the loop whose
# selection metric ran its own forward pass over the validation split.
VAL_CSL_ROWS_SHA256 = "63ce89c0cb8695884bf469a7ce7c27e7bc1c2902e9651a1911acaea99849e4f6"


def test_val_csl_rows_csv_bytes_pinned(tmp_path):
    import hashlib
    from dataclasses import replace

    path = tmp_path / "rows.csv"
    write_rows_csv(run_experiment(replace(GUARD_CFG, selection="val_csl")), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == VAL_CSL_ROWS_SHA256


def test_val_csl_selection_reuses_epoch_scores(monkeypatch):
    # One forward pass per split and epoch: the selection metric scores the
    # validation split from the epoch's loss pass, not from a pass of its own.
    from dataclasses import replace

    from costbench import harness, models

    n_passes, per_train = [0], []
    forward_cache, train = models._forward_cache, harness.train

    def counted_forward(*args):
        n_passes[0] += 1
        return forward_cache(*args)

    def counted_train(*args, **kwargs):
        before = n_passes[0]
        model = train(*args, **kwargs)
        per_train.append(n_passes[0] - before)
        return model

    monkeypatch.setattr(models, "_forward_cache", counted_forward)
    monkeypatch.setattr(harness, "train", counted_train)
    cfg = replace(SMALL_CFG, selection="val_csl", n_epochs=12)
    assert not any(r.failed for r in run_experiment(cfg))
    assert per_train == [2 * (cfg.n_epochs + 1)] * (cfg.n_seeds * len(cfg.losses))


def test_missing_uci_dataset_aborts(tmp_path, monkeypatch):
    monkeypatch.setenv("COSTBENCH_DATA_DIR", str(tmp_path))
    cfg = ExperimentConfig(dataset="diabetes", n_samples=50, n_seeds=1,
                           losses=("cross_entropy",), n_epochs=5)
    with pytest.raises(FileNotFoundError):
        run_experiment(cfg)


def test_val_csl_selection_mode_runs():
    from dataclasses import replace

    cfg = replace(SMALL_CFG, selection="val_csl", n_seeds=1,
                  losses=("cross_entropy",))
    rows = run_experiment(cfg)
    assert len(rows) == 1 and not rows[0].failed
