import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from costbench.costs import SimplexDist, binary_alpha_matrix, bayes_optimal_reports
from costbench.data import (
    SPLIT_FRACTIONS,
    UCI_SPECS,
    bayes_decision_many,
    load_uci,
    posterior_pos_many,
    sample_synthetic,
    subsample_and_split,
)


# --- synthetic sampling -------------------------------------------------------


def test_synthetic_label_frequency():
    ds = sample_synthetic(100_000, rng_seed=0)
    freq = ds.labels.mean()
    # Binomial 3-sigma band around 1/2.
    assert abs(freq - 0.5) < 3 * 0.5 / np.sqrt(100_000)


def test_synthetic_conditional_mean():
    ds = sample_synthetic(100_000, rng_seed=1)
    x1 = ds.features[:, 0]
    pos = ds.labels == 1
    # E[x1 | y=+1] = E[x2] = 1/2; x1 has conditional std x2 <= 1.
    assert abs(x1[pos].mean() - 0.5) < 3 * 1.2 / np.sqrt(pos.sum())
    assert abs(x1[~pos].mean() + 0.5) < 3 * 1.2 / np.sqrt((~pos).sum())


def test_synthetic_scale_feature_in_unit_interval():
    ds = sample_synthetic(50_000, rng_seed=2)
    x2 = ds.features[:, 1]
    assert x2.min() >= 0.0 and x2.max() <= 1.0


def test_synthetic_deterministic():
    a = sample_synthetic(500, rng_seed=7)
    b = sample_synthetic(500, rng_seed=7)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_synthetic_rejects_empty():
    with pytest.raises(ValueError):
        sample_synthetic(0, rng_seed=0)


# --- posterior ------------------------------------------------------------------


def test_posterior_symmetry_at_zero():
    eta = posterior_pos_many(np.array([[0.0, 0.5]]))[0]
    assert np.allclose([1.0 - eta, eta], [0.5, 0.5])


def test_posterior_boundary_value():
    # On the optimal boundary x1 = (x2/2) log(alpha/(1-alpha)) the positive
    # probability equals alpha.
    for alpha in (1 / 6, 1 / 4, 0.4):
        for x2 in (0.2, 0.7, 1.0):
            x1 = 0.5 * x2 * np.log(alpha / (1 - alpha))
            eta = posterior_pos_many(np.array([[x1, x2]]))[0]
            assert eta == pytest.approx(alpha, abs=1e-12)


def test_posterior_closed_forms_agree(rng):
    # Gaussian density ratio vs logistic form, 10^4 random points. The ratio
    # form underflows for |x1/x2| beyond ~38, so sample where it is computable.
    x = np.column_stack(
        [rng.normal(0, 0.5, 10_000), rng.uniform(0.2, 1.0, 10_000)]
    )
    eta = posterior_pos_many(x)
    z_minus = (x[:, 0] - x[:, 1]) / x[:, 1]
    z_plus = (x[:, 0] + x[:, 1]) / x[:, 1]
    f_minus = np.exp(-0.5 * z_minus**2)
    f_plus = np.exp(-0.5 * z_plus**2)
    ref = f_minus / (f_minus + f_plus)
    assert np.allclose(eta, ref, atol=1e-12)


def test_posterior_requires_positive_scale():
    with pytest.raises(ValueError):
        posterior_pos_many(np.array([[0.0, 0.0]]))
    with pytest.raises(ValueError):
        posterior_pos_many(np.array([[0.0, -1.0]]))


def _posterior_masked(x):
    """The posterior by boolean masks, one formula per sign of z: the
    reference for the mask-free posterior_pos_many."""
    x = np.asarray(x, dtype=float)
    z = 2.0 * x[:, 0] / x[:, 1]
    out = np.empty(len(x))
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_posterior_matches_masked_formulas_bit_for_bit():
    draws = sample_synthetic(1_000_000, rng_seed=11).features
    x2 = 0.5
    z = np.array([0.0, -0.0, 1.6e6, -1.6e6, 1.6e6 + 0.5, -1.6e6 - 0.5, 36.0, -36.0,
                  709.0, -709.0, 745.0, -745.0, 746.0, -746.0, np.inf, -np.inf,
                  5e-324, -5e-324])
    edges = np.column_stack([z * x2 / 2.0, np.full(len(z), x2)])
    nan_x1 = np.array([[np.nan, 0.3], [-np.nan, 1.0]])
    for x in (draws, edges, nan_x1, np.empty((0, 2))):
        got, want = posterior_pos_many(x), _posterior_masked(x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert np.isnan(posterior_pos_many(nan_x1)).all()
    assert posterior_pos_many(edges[:2]).tolist() == [0.5, 0.5]


@pytest.mark.parametrize("bad", [np.nan, -np.nan, 0.0, -1.0])
def test_nan_or_nonpositive_scale_is_rejected(bad):
    x = np.array([[0.3, 1.0], [0.3, bad]])
    with pytest.raises(ValueError, match="x2 > 0"):
        posterior_pos_many(x)
    with pytest.raises(ValueError, match="x2 > 0"):
        bayes_decision_many(x, 0.25)


# --- cost-optimal decisions ------------------------------------------------------


def test_bayes_decision_half_is_sign():
    pts = np.column_stack([np.linspace(-2, 2, 101), np.full(101, 0.5)])
    dec = bayes_decision_many(pts, 0.5)
    assert np.array_equal(dec, np.where(pts[:, 0] >= 0, 1, -1))


def test_bayes_decision_specific_point():
    # alpha = 1/6 at x = (-0.5, 0.6): threshold = 0.3 log(1/5) = -0.483; the
    # point sits below it, so the decision must be -1 and must agree with the
    # enumerated rule at the exact posterior.
    x = np.array([-0.5, 0.6])
    got = bayes_decision_many(x[None], 1 / 6)[0]
    assert got == -1
    eta = posterior_pos_many(x[None])[0]
    optimal = bayes_optimal_reports(binary_alpha_matrix(1 / 6),
                                    SimplexDist(np.array([1.0 - eta, eta])))
    assert (1 if got > 0 else 0) in optimal


def test_bayes_decision_boundary_tie_goes_positive():
    x2 = 0.8
    alpha = 1 / 4
    x1 = 0.5 * x2 * np.log(alpha / (1 - alpha))
    assert bayes_decision_many(np.array([[x1, x2]]), alpha)[0] == 1


def test_bayes_decision_agrees_with_enumeration_bulk():
    ds = sample_synthetic(100_000, rng_seed=3)
    x = ds.features
    for alpha in (1 / 6, 1 / 4, 1 / 2):
        closed = bayes_decision_many(x, alpha)
        eta = posterior_pos_many(x)
        cost = binary_alpha_matrix(alpha)
        c0 = eta * (1 - alpha)
        c1 = (1 - eta) * alpha
        lbar = np.minimum(c0, c1)
        want = (closed > 0).astype(int)
        chosen_cost = np.where(want == 1, c1, c0)
        assert (chosen_cost <= lbar + 1e-9).all()


def test_bayes_rule_beats_random_linear_rules():
    alpha = 1 / 6
    cost = binary_alpha_matrix(alpha)
    ds = sample_synthetic(100_000, rng_seed=4)
    x, y = ds.features, ds.labels
    def empirical_csl(preds01):
        costs = cost.entries[preds01, y]
        return costs.mean()
    bayes_preds = (bayes_decision_many(x, alpha) > 0).astype(int)
    bayes_csl = empirical_csl(bayes_preds)
    rng = np.random.default_rng(5)
    for _ in range(100):
        w = rng.normal(size=3)
        preds = ((x @ w[:2] + w[2]) >= 0).astype(int)
        assert bayes_csl <= empirical_csl(preds) + 1e-12


# --- splits -----------------------------------------------------------------------


def test_split_sizes_and_disjointness():
    ds = sample_synthetic(1000, rng_seed=6)
    tr, va, te = subsample_and_split(ds, 500, seed=0)
    assert len(tr) == 300 and len(va) == 100 and len(te) == 100
    all_idx = np.concatenate([tr, va, te])
    assert len(set(all_idx.tolist())) == 500


def test_split_deterministic():
    ds = sample_synthetic(600, rng_seed=6)
    a = subsample_and_split(ds, 400, seed=3)
    b = subsample_and_split(ds, 400, seed=3)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[2], b[2])


@given(st.integers(10, 300), st.integers(0, 2**31))
@settings(max_examples=60)
def test_split_structure_property(n, seed):
    ds = sample_synthetic(400, rng_seed=1)
    sp = subsample_and_split(ds, n, seed=seed)
    sizes = tuple(map(len, sp))
    assert sum(sizes) == n
    for size, frac in zip(sizes, SPLIT_FRACTIONS):
        assert abs(size - frac * n) <= 1
    joined = np.concatenate(sp)
    assert len(np.unique(joined)) == n
    assert joined.max() < len(ds)


def test_split_of_full_dataset_is_pure_split():
    ds = sample_synthetic(200, rng_seed=2)
    sp = subsample_and_split(ds, 200, seed=9)
    joined = np.sort(np.concatenate(sp))
    assert np.array_equal(joined, np.arange(200))


def test_split_too_large_rejected():
    ds = sample_synthetic(100, rng_seed=0)
    with pytest.raises(ValueError):
        subsample_and_split(ds, 101, seed=0)


# --- UCI loading on fixture files --------------------------------------------------


GERMAN_ROWS = [
    # Mimics the credit-data format: categorical codes + integers, label 1/2.
    "A11 6 A34 A43 1169 A65 A75 4 A93 A101 4 A121 67 A143 A152 2 A173 1 A192 A201 1",
    "A12 48 A32 A43 5951 A61 A73 2 A92 A101 2 A121 22 A143 A152 1 A173 1 A191 A201 2",
    "A14 12 A34 A46 2096 A61 A74 2 A93 A101 3 A121 49 A143 A152 1 A172 2 A191 A201 1",
    "A11 42 A32 A42 7882 A61 A74 2 A93 A103 4 A122 45 A143 A153 1 A173 2 A191 A201 1",
    "A11 24 A33 A40 4870 A61 A73 3 A93 A101 4 A124 53 A143 A153 2 A173 2 A191 A201 2",
    "A14 36 A32 A46 9055 A65 A73 2 A93 A101 4 A124 35 A143 A153 1 A172 2 A192 A201 1",
]


@pytest.fixture
def german_dir(tmp_path, monkeypatch):
    root = tmp_path / "data"
    d = root / "german_credit"
    d.mkdir(parents=True)
    (d / "raw.data").write_text("\n".join(GERMAN_ROWS) + "\n")
    monkeypatch.setenv("COSTBENCH_DATA_DIR", str(root))
    return d


def _feature_layout(raw_rows):
    """Feature-matrix position of each numeric raw column, and the width.

    Columns come out in raw order: a numeric column is one feature, any
    other column one feature per distinct value.
    """
    columns = list(zip(*raw_rows))
    positions, pos = {}, 0
    for j, column in enumerate(columns):
        if all(t.isdigit() for t in column):
            positions[j] = pos
            pos += 1
        else:
            pos += len(set(column))
    return positions, pos


def test_load_german_fixture(german_dir):
    with pytest.warns(UserWarning):  # row count differs from the real dataset
        ds = load_uci("german_credit")
    cost = UCI_SPECS["german_credit"].cost_factory()
    assert cost.entries.tolist() == [[0.0, 5.0], [1.0, 0.0]]
    assert len(ds) == 6
    assert ds.labels.tolist() == [0, 1, 0, 0, 1, 0]
    # Numeric columns standardized over the full dataset.
    numeric, width = _feature_layout([r.split()[:-1] for r in GERMAN_ROWS])
    assert numeric, "expected numeric columns detected"
    assert ds.n_features == width
    for pos in numeric.values():
        col = ds.features[:, pos]
        assert abs(col.mean()) <= 1e-8
        if np.ptp(col) > 0:
            assert abs(col.var() - 1.0) <= 1e-6
    # Every categorical block is one-hot.
    onehot = np.delete(ds.features, list(numeric.values()), axis=1)
    assert set(np.unique(onehot)) == {0.0, 1.0}


def test_load_german_deferral_shares_data(german_dir):
    with pytest.warns(UserWarning):
        ds = load_uci("german_credit_deferral")
    cost = UCI_SPECS["german_credit_deferral"].cost_factory()
    assert cost.entries.tolist() == [[0.0, 5.0], [1.0, 0.0], [0.5, 0.5]]
    assert len(ds) == 6


def test_german_deferral_spec_differs_only_in_its_costs():
    import dataclasses

    from costbench.harness import DATASET_NAMES

    plain, deferral = UCI_SPECS["german_credit"], UCI_SPECS["german_credit_deferral"]
    assert plain.cost_factory is not deferral.cost_factory
    assert dataclasses.replace(deferral, cost_factory=plain.cost_factory) == plain
    assert DATASET_NAMES == ("synthetic", "german_credit", "german_credit_deferral",
                             "student_performance", "diabetes")


def test_load_memo_reuses_dataset(german_dir):
    with pytest.warns(UserWarning):
        first = load_uci("german_credit")
    second = load_uci("german_credit")
    assert second is first  # same immutable object from the process memo


def test_manifest_mismatch_warns(german_dir):
    (german_dir / "manifest").write_text("sha256 " + "0" * 64 + "\n")
    with pytest.warns(UserWarning) as caught:
        load_uci("german_credit")
    assert any("hash" in str(w.message) for w in caught)


def test_missing_file_raises(tmp_path, monkeypatch):
    monkeypatch.setenv("COSTBENCH_DATA_DIR", str(tmp_path))
    with pytest.raises(FileNotFoundError):
        load_uci("student_performance")


def test_unknown_dataset_rejected():
    with pytest.raises(ValueError):
        load_uci("mystery_data")


STUDENT_HEADER = "Marital status;Application mode;Age at enrollment;Target"
STUDENT_ROWS = [
    "1;17;20;Dropout",
    "1;15;19;Graduate",
    "2;1;37;Enrolled",
    "1;17;22;Graduate",
    "1;1;24;Dropout",
]


def test_load_student_fixture(tmp_path, monkeypatch):
    root = tmp_path / "data"
    d = root / "student_performance"
    d.mkdir(parents=True)
    (d / "raw.csv").write_text(STUDENT_HEADER + "\n" + "\n".join(STUDENT_ROWS) + "\n")
    monkeypatch.setenv("COSTBENCH_DATA_DIR", str(root))
    with pytest.warns(UserWarning):
        ds = load_uci("student_performance")
    assert UCI_SPECS["student_performance"].cost_factory().n_reports == 3
    assert ds.labels.tolist() == [0, 2, 1, 2, 0]
    assert ds.label_map == {"Dropout": 0, "Enrolled": 1, "Graduate": 2}


DIABETES_HEADER = "Diabetes_012,HighBP,BMI,Smoker"
DIABETES_ROWS = ["0.0,1.0,40.0,1.0", "2.0,0.0,25.0,0.0", "1.0,1.0,28.0,0.0",
                 "0.0,0.0,27.0,1.0"]


def test_load_diabetes_fixture(tmp_path, monkeypatch):
    root = tmp_path / "data"
    d = root / "diabetes"
    d.mkdir(parents=True)
    (d / "raw.csv").write_text(DIABETES_HEADER + "\n" + "\n".join(DIABETES_ROWS) + "\n")
    monkeypatch.setenv("COSTBENCH_DATA_DIR", str(root))
    with pytest.warns(UserWarning):
        ds = load_uci("diabetes")
    assert ds.labels.tolist() == [0, 2, 1, 0]
    assert UCI_SPECS["diabetes"].cost_factory().n_labels == 3


def test_incomplete_rows_dropped(tmp_path, monkeypatch):
    root = tmp_path / "data"
    d = root / "diabetes"
    d.mkdir(parents=True)
    rows = DIABETES_ROWS + ["1.0,,30.0,0.0"]
    (d / "raw.csv").write_text(DIABETES_HEADER + "\n" + "\n".join(rows) + "\n")
    monkeypatch.setenv("COSTBENCH_DATA_DIR", str(root))
    with pytest.warns(UserWarning):
        ds = load_uci("diabetes")
    assert len(ds) == 4
    assert ds.labels.tolist() == [0, 2, 1, 0]  # the incomplete class-1 row is gone


def test_short_first_row_dropped(tmp_path, monkeypatch):
    # The header, not the first data row, sets the row width.
    root = tmp_path / "data"
    d = root / "diabetes"
    d.mkdir(parents=True)
    rows = ["1.0,1.0,30.0"] + DIABETES_ROWS
    (d / "raw.csv").write_text(DIABETES_HEADER + "\n" + "\n".join(rows) + "\n")
    monkeypatch.setenv("COSTBENCH_DATA_DIR", str(root))
    with pytest.warns(UserWarning):
        ds = load_uci("diabetes")
    assert ds.labels.tolist() == [0, 2, 1, 0]


def test_headerless_short_first_row_dropped(german_dir):
    # Without a header the most common row length sets the width.
    first = GERMAN_ROWS[0].split()
    rows = [" ".join(first[:1] + first[2:])] + GERMAN_ROWS[1:]  # one field short
    (german_dir / "raw.data").write_text("\n".join(rows) + "\n")
    with pytest.warns(UserWarning):
        ds = load_uci("german_credit")
    assert ds.labels.tolist() == [1, 0, 0, 1, 0]
    assert ds.n_features == _feature_layout([r.split()[:-1] for r in GERMAN_ROWS[1:]])[1]


def test_non_integer_label_code_rejected(tmp_path, monkeypatch):
    root = tmp_path / "data"
    d = root / "diabetes"
    d.mkdir(parents=True)
    rows = DIABETES_ROWS + ["1.5,1.0,30.0,0.0"]
    (d / "raw.csv").write_text(DIABETES_HEADER + "\n" + "\n".join(rows) + "\n")
    monkeypatch.setenv("COSTBENCH_DATA_DIR", str(root))
    with pytest.raises(ValueError, match="diabetes: non-integer label value '1.5'"):
        load_uci("diabetes")


def test_label_codes_not_starting_at_zero_rejected(tmp_path, monkeypatch):
    # Three distinct codes pass the class-count check; they must still be 0..2.
    root = tmp_path / "data"
    d = root / "diabetes"
    d.mkdir(parents=True)
    rows = ["1.0,1.0,40.0,1.0", "2.0,0.0,25.0,0.0", "3.0,1.0,28.0,0.0"]
    (d / "raw.csv").write_text(DIABETES_HEADER + "\n" + "\n".join(rows) + "\n")
    monkeypatch.setenv("COSTBENCH_DATA_DIR", str(root))
    with pytest.raises(ValueError, match=re.escape(
            "diabetes: label codes must be 0..2, got [1, 2, 3]")):
        load_uci("diabetes")


def test_load_leaves_data_dir_unchanged(german_dir):
    before = {p.name: p.read_bytes() for p in german_dir.iterdir()}
    with pytest.warns(UserWarning):
        load_uci("german_credit")
    assert {p.name: p.read_bytes() for p in german_dir.iterdir()} == before


def _load_digest(ds):
    h = hashlib.sha256()
    h.update(ds.features.astype("<f8").tobytes())
    h.update(ds.labels.astype("<i8").tobytes())
    h.update(repr(sorted(ds.label_map.items())).encode())
    return h.hexdigest()


# Digests of features, labels and label map, taken when load_uci still went
# through a per-token transform, so the column-wise parse must match it bit
# for bit. Raw lines of None mean the 700-row pseudo-german file.
PINNED_LOADS = {
    "german": ("german_credit", "raw.data", GERMAN_ROWS,
               "4ad0b78be83a4094bc6b823856eeab9c1c61707a6ba198670db3c619debd7508"),
    "deferral": ("german_credit_deferral", "raw.data", GERMAN_ROWS,
                 "4ad0b78be83a4094bc6b823856eeab9c1c61707a6ba198670db3c619debd7508"),
    "student": ("student_performance", "raw.csv", [STUDENT_HEADER] + STUDENT_ROWS,
                "b4da0759b7e44905faf98b5e9861828af522d8d5b4216b6fdde160d75560ac3e"),
    "diabetes_incomplete": ("diabetes", "raw.csv",
                            [DIABETES_HEADER] + DIABETES_ROWS + ["1.0,,30.0,0.0"],
                            "c2e58f236adf34f3c95837262f1385511d4fc7db8eda0d310dc66686ac68c800"),
    "pseudo_german": ("german_credit", "raw.data", None,
                      "ac5bff9abfe5cd635b3dadf9dc04bd183189ed973fbcdddef1620f2af3f78340"),
}


@pytest.mark.parametrize("key", sorted(PINNED_LOADS))
def test_uci_load_bytes_pinned(key, tmp_path, monkeypatch):
    from test_integration_uci import write_pseudo_german

    name, filename, lines, want = PINNED_LOADS[key]
    d = tmp_path / UCI_SPECS[name].dirname
    d.mkdir()
    if lines is None:
        write_pseudo_german(d / filename)
    else:
        (d / filename).write_text("\n".join(lines) + "\n")
    monkeypatch.setenv("COSTBENCH_DATA_DIR", str(tmp_path))
    with pytest.warns(UserWarning):  # row counts differ from the real datasets
        ds = load_uci(name)
    assert _load_digest(ds) == want


# --- real UCI files, exercised only when present -----------------------------------


@pytest.mark.parametrize("name", ["german_credit", "student_performance", "diabetes"])
def test_real_uci_when_available(name, monkeypatch):
    monkeypatch.delenv("COSTBENCH_DATA_DIR", raising=False)
    spec = UCI_SPECS[name]
    raw = spec.raw_path()
    if not raw.exists():
        pytest.skip(f"{raw} not present; see scripts/fetch_uci.py")
    ds = load_uci(name)
    assert len(ds) == spec.expected_rows
    assert len(ds.label_map) == spec.cost_factory().n_labels
