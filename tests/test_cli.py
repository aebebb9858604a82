import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import costbench
from costbench.cli import main


# Directory holding the imported package, so the child process runs the same
# code as the in-process tests whatever the working directory is.
PACKAGE_ROOT = str(Path(costbench.__file__).resolve().parent.parent)


def run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "costbench", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


@pytest.fixture
def tiny_config(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        """
[experiment]
dataset = synthetic
n_samples = 100
alpha = 1/6
losses = cross_entropy, embedding_softmax
n_seeds = 2
master_seed = 5

[train]
learning_rate = 0.5
n_epochs = 40

[output]
rows_csv = out/rows.csv
table = out/table.md
"""
    )
    return cfg


def test_run_subcommand_writes_outputs(tiny_config, tmp_path):
    res = run_cli(["run", str(tiny_config)], cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    rows = (tmp_path / "out/rows.csv").read_text().splitlines()
    assert rows[0].startswith("dataset,loss,seed,csl")
    assert len(rows) == 5  # header + 2 losses x 2 seeds
    table = (tmp_path / "out/table.md").read_text()
    assert "| Dataset | Loss |" in table


def test_run_byte_identical_reruns(tiny_config, tmp_path):
    assert run_cli(["run", str(tiny_config)], cwd=tmp_path).returncode == 0
    first = (tmp_path / "out/rows.csv").read_bytes()
    assert run_cli(["run", str(tiny_config)], cwd=tmp_path).returncode == 0
    assert (tmp_path / "out/rows.csv").read_bytes() == first


def test_run_missing_config_exits_2(tmp_path):
    res = run_cli(["run", "nope.cfg"], cwd=tmp_path)
    assert res.returncode == 2


def test_run_bad_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[experiment]\ndataset = synthetic\nwarp = 9\n")
    res = run_cli(["run", str(cfg)], cwd=tmp_path)
    assert res.returncode == 2
    assert "configuration error" in res.stderr


def test_run_bad_workers_flag_exits_2(tiny_config, capsys):
    # The error names the flag, not the [experiment] key the file never set.
    for value in ("0", "-3", "two"):
        with pytest.raises(SystemExit) as exc:
            main(["run", str(tiny_config), "--workers", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --workers" in err
        assert "[experiment]" not in err


def test_table_subcommand_round_trip(tiny_config, tmp_path):
    ran = run_cli(["run", str(tiny_config)], cwd=tmp_path)
    assert ran.returncode == 0, ran.stderr
    res = run_cli(["table", "out/rows.csv", "--format", "csv"], cwd=tmp_path)
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "dataset,loss,metric,mean,sem,n"
    # Aggregation from the CSV matches a direct recomputation from the rows.
    from costbench.harness import aggregate, emit_table, read_rows_csv

    rows = read_rows_csv(tmp_path / "out/rows.csv")
    direct = emit_table(aggregate(rows), "csv")
    assert res.stdout.strip().endswith(direct.strip().splitlines()[-1])


@pytest.mark.parametrize("text, names", [
    ("dataset,loss,seed\nsynthetic,cross_entropy,0\n", "missing column(s) csl, accuracy"),
    ("dataset,loss,seed,csl,accuracy,train_loss,val_loss,test_loss,failed\n"
     "synthetic,cross_entropy,0,0.5,,0.1,0.1,0.1,\n"
     "synthetic,cross_entropy,one,0.5,,0.1,0.1,0.1,\n", "line 3"),
    ("dataset,loss,seed,csl,accuracy,train_loss,val_loss,test_loss,failed\n"
     "synthetic,cross_entropy,0\n", "line 2: expected 9 fields"),
])
def test_table_rejects_malformed_rows_csv(tmp_path, text, names):
    # A missing column or a bad value is a usage error that names the file.
    rows = tmp_path / "rows.csv"
    rows.write_text(text)
    res = run_cli(["table", str(rows)], cwd=tmp_path)
    assert res.returncode == 2
    assert f"error: {rows}" in res.stderr and names in res.stderr
    assert "Traceback" not in res.stderr


def test_table_renders_a_dataset_without_a_finite_csl(tmp_path, capsys):
    # No loss has a CSL to bold: the cell reads "-", as for one such loss
    # beside another.
    rows = tmp_path / "rows.csv"
    rows.write_text("dataset,loss,seed,csl,accuracy,train_loss,val_loss,test_loss,failed\n"
                    "synthetic,cross_entropy,0,,0.5,0.1,0.1,0.1,\n")
    assert main(["table", str(rows)]) == 0
    assert "| synthetic | cross_entropy | - | 0.500 ± 0.000 |" in capsys.readouterr().out


def test_other_os_errors_exit_2(tmp_path, capsys):
    # Exit 1 means failed cells or checks; a path the command cannot use is
    # an error, as a missing file is: a directory as the rows CSV, and an
    # output directory that is a regular file.
    assert main(["table", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    rows = tmp_path / "rows.csv"
    rows.write_text("dataset,loss,seed,csl,accuracy,train_loss,val_loss,test_loss,failed\n"
                    "synthetic,cross_entropy,0,0.5,0.5,0.1,0.1,0.1,\n")
    (tmp_path / "file").write_text("")
    assert main(["table", str(rows), "--out", str(tmp_path / "file" / "table.md")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_fast_passes(tmp_path):
    res = run_cli(["verify", "--fast"], cwd=tmp_path)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "PASS" in res.stdout
    assert "FAIL" not in res.stdout


def test_verify_rejects_corrupt_matrix_file(tmp_path):
    bad = tmp_path / "bad_matrix.txt"
    bad.write_text("2 2\n0 -3\n1 0\n")  # negative cost: invalid
    res = run_cli(["verify", "--fast", "--matrix", str(bad)], cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert "nonnegative" in res.stderr


def test_verify_accepts_valid_matrix_file(tmp_path):
    extra = tmp_path / "extra.txt"
    extra.write_text("3 3\n0.0 6.0 10.0\n2.0 0.0 6.0\n6.0 2.0 0.0\n")  # severity x 2
    res = run_cli(["verify", "--fast", "--matrix", str(extra)], cwd=tmp_path)
    assert res.returncode == 0, res.stdout
    assert "extra" in res.stdout


def test_verify_rejects_repeated_matrix_name(tmp_path):
    # a/costs.txt and b/costs.txt would both be named "costs", and one of
    # them would never be checked.
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "costs.txt").write_text("2 2\n0.0 1.0\n1.0 0.0\n")
    res = run_cli(["verify", "--fast", "--matrix", "a/costs.txt",
                   "--matrix", "b/costs.txt"], cwd=tmp_path)
    assert res.returncode == 2, res.stdout + res.stderr
    assert res.stderr.startswith("error: ")
    assert "a/costs.txt" in res.stderr and "b/costs.txt" in res.stderr
    assert res.stdout == ""


def test_verify_rejects_matrix_named_like_stock(tmp_path):
    # Named german_credit, this file would be checked in place of the stock
    # lending matrix.
    (tmp_path / "german_credit.txt").write_text("2 2\n0.0 9.0\n1.0 0.0\n")
    res = run_cli(["verify", "--fast", "--matrix", "german_credit.txt"], cwd=tmp_path)
    assert res.returncode == 2, res.stdout + res.stderr
    assert res.stderr.startswith("error: ")
    assert "german_credit.txt" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 2.52 GiB")])
def test_verify_out_of_memory_is_an_error_not_a_failed_check(monkeypatch, capsys, exc):
    # Exit 1 means a check failed; a grid too large for the host checked nothing.
    from costbench import verify

    def run_verify(**kwargs):
        raise exc

    monkeypatch.setattr(verify, "run_verify", run_verify)
    assert main(["verify", "--fast"]) == 2
    out, err = capsys.readouterr()
    assert err == (f"error: out of memory ({exc})\n" if str(exc) else "error: out of memory\n")
    assert out == ""


def test_ablate_preset(tmp_path):
    cfg = tmp_path / "abl.cfg"
    cfg.write_text(
        """
[experiment]
dataset = synthetic
n_samples = 80
losses = cross_entropy
n_seeds = 1

[train]
learning_rate = 0.3
n_epochs = 10

[output]
rows_csv = out/rows.csv
table = out/table.md
"""
    )
    res = run_cli(["ablate", "mlp", str(cfg)], cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "out/rows_mlp.csv").exists()


def test_ablate_names_failed_cells(tiny_config, tmp_path, monkeypatch, capsys):
    # ablate shares run's output path: a failed cell is named on stderr.
    from costbench import cli
    from costbench.harness import ResultRow

    nan = float("nan")
    row = ResultRow("synthetic", "cross_entropy", 1, nan, None, nan, nan, nan,
                    failed="diverged at epoch 7")
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: [row])
    monkeypatch.chdir(tmp_path)
    assert main(["ablate", "mlp", str(tiny_config)]) == 1
    err = capsys.readouterr().err
    assert "cell failed: synthetic/cross_entropy/seed 1: diverged at epoch 7" in err
    assert (tmp_path / "out/rows_mlp.csv").exists()


def test_main_function_direct(tiny_config, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(tiny_config)]) == 0
    assert main(["table", "out/rows.csv"]) == 0


REPRODUCE_TABLES = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_tables.py"


def test_reproduce_tables_bad_workers_flag_exits_2(tmp_path):
    env = dict(os.environ, COSTBENCH_DATA_DIR=str(tmp_path / "data"))
    res = subprocess.run(
        [sys.executable, str(REPRODUCE_TABLES), "--workers", "0"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert res.returncode == 2
    assert "--workers" in res.stderr


def _load_reproduce_tables():
    import importlib.util

    spec = importlib.util.spec_from_file_location("reproduce_tables", REPRODUCE_TABLES)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_reproduce_tables_preset_writes_suffixed_outputs(tmp_path, monkeypatch):
    # A preset run keeps the main tables, as `costbench ablate` does.
    from costbench.harness import ResultRow

    script = _load_reproduce_tables()
    row = ResultRow("synthetic", "cross_entropy", 0, 0.5, 0.5, 0.1, 0.1, 0.1)
    monkeypatch.setattr(script, "run_experiment", lambda cfg: [row])
    monkeypatch.setenv("COSTBENCH_DATA_DIR", str(tmp_path / "data"))
    monkeypatch.setattr(sys, "argv", ["reproduce_tables.py", "--preset", "mlp"])
    monkeypatch.chdir(tmp_path)
    assert script.main() == 0
    assert (tmp_path / "results/synthetic_rows_mlp.csv").exists()
    assert not (tmp_path / "results/synthetic_rows.csv").exists()


def test_reproduce_tables_names_failed_cells(tmp_path, monkeypatch, capsys):
    # The script shares run's output path: a failed cell is named on stderr.
    from costbench.harness import ResultRow

    script = _load_reproduce_tables()
    nan = float("nan")
    row = ResultRow("synthetic", "cross_entropy", 1, nan, None, nan, nan, nan,
                    failed="diverged at epoch 7")
    monkeypatch.setattr(script, "run_experiment", lambda cfg: [row])
    monkeypatch.setenv("COSTBENCH_DATA_DIR", str(tmp_path / "data"))
    monkeypatch.setattr(sys, "argv", ["reproduce_tables.py"])
    monkeypatch.chdir(tmp_path)
    assert script.main() == 1
    err = capsys.readouterr().err
    assert "cell failed: synthetic/cross_entropy/seed 1: diverged at epoch 7" in err
    assert (tmp_path / "results/synthetic_rows.csv").exists()


def test_reproduce_tables_reports_bad_config(tmp_path, monkeypatch, capsys):
    # A bad config ends the script as it ends `costbench run`: exit 2, no traceback.
    script = _load_reproduce_tables()
    (tmp_path / "bad.cfg").write_text("[experiment]\ndataset = synthetic\nn_seeds = 0\n")
    monkeypatch.setattr(script, "CONFIG_DIR", tmp_path)
    monkeypatch.setattr(script, "run_experiment", lambda cfg: pytest.fail("a cell ran"))
    monkeypatch.setattr(sys, "argv", ["reproduce_tables.py"])
    monkeypatch.chdir(tmp_path)
    assert script.main() == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {tmp_path / 'bad.cfg'}: [experiment] n_seeds")


BENCH_AB = REPRODUCE_TABLES.parent / "bench_ab.py"


@pytest.mark.skipif(not Path("/proc/self/mounts").exists(), reason="needs /proc/self/mounts")
def test_bench_ab_names_the_filesystem_of_a_path(tmp_path):
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_ab", BENCH_AB)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    # /proc/self is below the proc mount, which is deeper than the root's.
    assert script.filesystem_type(Path("/proc/self")) == "proc"
    assert script.filesystem_type(tmp_path) not in ("unknown", "proc")


@pytest.mark.skipif(not Path("/proc/cpuinfo").exists(), reason="needs /proc/cpuinfo")
def test_bench_ab_records_bytecode_and_malloc_variables(monkeypatch):
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_ab", BENCH_AB)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("MALLOC_TOP_PAD_", "67108864")
    monkeypatch.setenv("MALLOC_PERTURB_", "7")  # not named by the script
    monkeypatch.delenv("MALLOC_TRIM_THRESHOLD_", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    env = script.environment()
    assert env["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    runtime = env["runtime"]
    assert runtime["PYTHONDONTWRITEBYTECODE"] == "1"
    assert runtime["MALLOC_TOP_PAD_"] == "67108864"
    assert runtime["MALLOC_PERTURB_"] == "7"
    assert runtime["MALLOC_TRIM_THRESHOLD_"] is None  # unset is recorded as such
    assert {"MALLOC_MMAP_THRESHOLD_", "GLIBC_TUNABLES"} <= set(runtime)
    json.dumps(env)
