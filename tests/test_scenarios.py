import numpy as np
import pytest

from ucsm.errors import BalancingFailed
from ucsm.scenarios import (BALANCE_RATIO, LOAD_FACTOR_HI, LOAD_FACTOR_LO,
                            TRAIN_FRACTION, Z_MAX, Z_MIN, Z_STEP,
                            build_scenarios, dataset_from_csv, dataset_to_csv,
                            generate_dataset, wind_realization, z_grid)


def test_z_grid_shape_and_endpoints():
    zs = z_grid()
    assert zs[0] == pytest.approx(Z_MIN)
    assert zs[-1] == pytest.approx(Z_MAX)
    np.testing.assert_allclose(np.diff(zs), Z_STEP)


def test_wind_realization_clamped_at_zero():
    mu = np.array([10.0, 2.0])
    sigma = np.array([3.0, 5.0])
    w = wind_realization(mu, sigma, -4.0)
    assert w[0] == pytest.approx(0.0)  # 10 - 12 clamps
    assert w[1] == pytest.approx(0.0)
    w2 = wind_realization(mu, sigma, 1.5)
    np.testing.assert_allclose(w2, [14.5, 9.5])


def test_generate_dataset_counts_and_labels(sixbus):
    ds = generate_dataset(sixbus, 200, rng_seed=3)
    assert len(ds) >= 200
    n_pos, n_neg = ds.class_counts()
    assert n_pos > 0 and n_neg > 0
    assert min(n_pos, n_neg) / max(n_pos, n_neg) >= BALANCE_RATIO - 1e-9


def test_feature_vector_layout(sixbus):
    ds = generate_dataset(sixbus, 100, rng_seed=0)
    assert ds.feature_names == sixbus.feature_names()
    x, y = ds.x, ds.y
    assert x.shape == (len(ds), len(ds.feature_names))
    assert set(np.unique(y)) <= {-1, 1}


def test_split_fractions(sixbus):
    ds = generate_dataset(sixbus, 200, rng_seed=1)
    n = len(ds)
    assert len(ds.train_indices) == int(round(TRAIN_FRACTION * n))
    assert len(ds.train_indices) + len(ds.test_indices) == n
    assert not set(ds.train_indices) & set(ds.test_indices)


def test_determinism(sixbus):
    a = generate_dataset(sixbus, 150, rng_seed=9)
    b = generate_dataset(sixbus, 150, rng_seed=9)
    xa, ya = a.x, a.y
    xb, yb = b.x, b.y
    np.testing.assert_array_equal(xa, xb)
    np.testing.assert_array_equal(ya, yb)
    assert dataset_to_csv(a) == dataset_to_csv(b)


def test_seed_changes_data(sixbus):
    a = generate_dataset(sixbus, 150, rng_seed=9)
    b = generate_dataset(sixbus, 150, rng_seed=10)
    assert dataset_to_csv(a) != dataset_to_csv(b)


def test_csv_round_trip(sixbus):
    ds = generate_dataset(sixbus, 120, rng_seed=4)
    text = dataset_to_csv(ds)
    back = dataset_from_csv(text)
    xa, ya = ds.x, ds.y
    xb, yb = back.x, back.y
    np.testing.assert_array_equal(xa, xb)
    np.testing.assert_array_equal(ya, yb)
    assert back.split_seed == ds.split_seed
    assert back.case_hash == ds.case_hash
    np.testing.assert_array_equal(back.train_indices, ds.train_indices)
    assert dataset_to_csv(back) == text


def test_build_scenarios_structure(sixbus):
    scens = build_scenarios(sixbus, 4, 6, rng_seed=2)
    assert len(scens) == 4
    probs = [s.probability for s in scens]
    assert sum(probs) == pytest.approx(1.0)
    for s in scens:
        assert s.wind_mw.shape == (sixbus.n_wind, 6)
        assert np.all(s.wind_mw >= 0.0)
        assert s.load_multiplier.shape == (sixbus.n_buses, 6)
        assert np.all(s.load_multiplier >= LOAD_FACTOR_LO - 1e-12)
        assert np.all(s.load_multiplier <= LOAD_FACTOR_HI + 1e-12)
        loads = s.loads(sixbus)
        assert loads.shape == (sixbus.n_buses, 6)


def test_build_scenarios_deterministic(sixbus):
    a = build_scenarios(sixbus, 3, 5, rng_seed=7)
    b = build_scenarios(sixbus, 3, 5, rng_seed=7)
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.wind_mw, sb.wind_mw)
        np.testing.assert_array_equal(sa.load_multiplier, sb.load_multiplier)


def test_balancing_failure_reports(ring3):
    # A case where relaxed dispatch is almost always line-feasible cannot
    # reach the balance ratio within budget.
    with pytest.raises(BalancingFailed) as exc:
        generate_dataset(ring3, 50, rng_seed=0)
    assert exc.value.attempts > 0
    assert 0.0 <= exc.value.achieved_ratio < BALANCE_RATIO
