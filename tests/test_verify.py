import hashlib

import numpy as np
import pytest

from costbench.costs import save_cost_matrix, severity_three_class_matrix, stock_matrices
from costbench.diagnostics import embedding_regret_profile
from costbench.embedding import build_embedding_surrogate, link_many, sample_predictions
from costbench.verify import run_verify, verify_matrix_files


def test_fast_suite_all_pass(tmp_path):
    ok, results = run_verify(fast=True)
    assert ok
    names = [r.name for r in results]
    assert any("embedding-conditions" in n for n in names)
    assert any("alpha-separation" in n for n in names)
    assert "gradient-finite-difference" in names
    assert "cost-optimal-decision-agreement" in names
    for r in results:
        assert r.ok, r.line()


def test_report_artifacts_written(tmp_path):
    ok, _ = run_verify(fast=False, report_dir=tmp_path / "rep",
                       extra_matrices={})
    assert ok
    assert (tmp_path / "rep" / "regret_profile.csv").exists()
    svg = (tmp_path / "rep" / "regret_scatter.svg").read_text()
    assert svg.startswith("<svg")


def test_extra_matrix_included(tmp_path):
    extra = {"doubled": severity_three_class_matrix().scaled(2.0)}
    ok, results = run_verify(fast=True, extra_matrices=extra)
    assert ok
    assert any("doubled" in r.name for r in results)


def test_matrix_file_loading(tmp_path):
    good = tmp_path / "good.txt"
    save_cost_matrix(severity_three_class_matrix(), good)
    loaded = verify_matrix_files([good])
    assert "good" in loaded
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n0 nope\n1 0\n")
    with pytest.raises(ValueError):
        verify_matrix_files([bad])


# sha256 of the link's decisions on every stock matrix and of the verify
# suite's regret report; any change to the link's argmin or to the regret
# arithmetic moves them.
LINK_SHA256 = "a6bc6e86b3641aa750455ca037f2bad15ee3c8dc272dfb6add747d897b4238f3"
REGRET_PROFILE_SHA256 = "564c494bdd668fb849f3a31786712dfe1bc391afe2b5883ebe8b468f61f1c06d"


def test_verify_side_bytes_pinned(tmp_path):
    h = hashlib.sha256()
    for cost in stock_matrices().values():
        s = build_embedding_surrogate(cost)
        U = sample_predictions(s, 2000, np.random.default_rng(0))
        h.update(np.ascontiguousarray(link_many(s, U), dtype=np.int64).tobytes())
    assert h.hexdigest() == LINK_SHA256
    s = build_embedding_surrogate(stock_matrices()["german_credit"])
    path = tmp_path / "regret_profile.csv"
    embedding_regret_profile(s, 0.05, 100, seed=0).export_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REGRET_PROFILE_SHA256
