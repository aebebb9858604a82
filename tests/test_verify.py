import hashlib

import numpy as np
import pytest

from costbench.costs import (
    CostMatrix,
    severity_three_class_matrix,
    stock_matrices,
    zero_one_matrix,
)
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
    extra = {"doubled": CostMatrix(severity_three_class_matrix().entries * 2.0)}
    ok, results = run_verify(fast=True, extra_matrices=extra)
    assert ok
    assert any("doubled" in r.name for r in results)


def test_extra_matrix_may_not_replace_a_stock_matrix():
    with pytest.raises(ValueError, match="german_credit"):
        run_verify(fast=True, extra_matrices={"german_credit": CostMatrix([[0, 9], [1, 0]])})


def test_matrix_file_loading(tmp_path):
    good = tmp_path / "good.txt"
    good.write_text("3 3\n0.0 3.0 5.0\n1.0 0.0 3.0\n3.0 1.0 0.0\n")  # severity matrix
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


# sha256 of the regret-profile CSV at (0.1, 50, seed 0) on every stock matrix
# and a 4-label zero-one matrix: guards the 3- and 4-label and deferral
# arithmetic, which the german_credit digest above does not reach.
MATRIX_REGRET_PROFILE_SHA256 = {
    "binary_alpha_1_6": "5e5ce152676e7e9ac3f1a488aee0f20f0f2dd62c59605fc6e6c8e35796ddba9c",
    "binary_alpha_1_4": "2b5c556da124afab0ee75f6d404bb931e76984d1afdb0258df6f51f140df12ce",
    "zero_one_binary": "61ab3a5263b7b3a8575788e633c75ab480e2951a6e65d8e776418ea1e69c8bea",
    "zero_one_three_class": "9cc53062243d562528a36e4500e078f0a9db881d3fbf50ff8d5ed7ba58439d71",
    "german_credit": "051cc4f6aadb9e3cf8f13886c6fca5ddf1e46efe7512b3494464a82c0cbe4562",
    "german_credit_deferral": "325b46f47b5d61f9ba61e46e9685307e244e00ccd1a360537c1b617fe12ca56e",
    "severity_three_class": "fa0d2db5ec55cce7d5f3e42be3fd3595c62dec6d93f93eac4242ba38e2397fe5",
    "zero_one_4": "f08b7d14726fecba713368082febf07849547962789e2ce51170aec3b7dd3b7c",
}


@pytest.mark.parametrize("name", sorted(MATRIX_REGRET_PROFILE_SHA256))
def test_regret_profile_bytes_pinned_per_matrix(name, tmp_path):
    matrices = {**stock_matrices(), "zero_one_4": zero_one_matrix(4)}
    s = build_embedding_surrogate(matrices[name])
    path = tmp_path / "regret_profile.csv"
    embedding_regret_profile(s, 0.1, 50, seed=0).export_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MATRIX_REGRET_PROFILE_SHA256[name]


# sha256 of the fast suite's PASS/FAIL lines without their timings: every
# check's name, verdict and counts.
FAST_SUITE_LINES_SHA256 = "71b8b84b5e64aade4a4a80c15c18a9101b240c472b67ce75819b48b6f3e51ad2"


def test_fast_suite_lines_pinned():
    _, results = run_verify(fast=True, rng_seed=0)
    h = hashlib.sha256()
    for r in results:
        h.update(f"{'PASS' if r.ok else 'FAIL'} {r.name} {r.detail}\n".encode())
    assert h.hexdigest() == FAST_SUITE_LINES_SHA256


# sha256, per rng_seed, of the full suite's PASS/FAIL lines without their
# timings, then its regret_profile.csv and regret_scatter.svg bytes.
FULL_SUITE_SHA256 = {
    0: "aecb76fdc204fb6114fc47bacfb01225544c28135b72a41712ff464060e08cde",
    1: "76e56d3e7be2693be0af1b8ee04472b86fbf0fd3fb397edf927da937ae0913ef",
}


@pytest.mark.parametrize("seed", sorted(FULL_SUITE_SHA256))
def test_full_suite_lines_and_report_bytes_pinned(seed, tmp_path):
    _, results = run_verify(fast=False, report_dir=tmp_path, rng_seed=seed)
    h = hashlib.sha256()
    for r in results:
        h.update(f"{'PASS' if r.ok else 'FAIL'} {r.name} {r.detail}\n".encode())
    for name in ("regret_profile.csv", "regret_scatter.svg"):
        h.update((tmp_path / name).read_bytes())
    assert h.hexdigest() == FULL_SUITE_SHA256[seed]
