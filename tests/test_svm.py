import numpy as np
import pytest

from ucsm.errors import DimensionMismatch, FeatureMismatch, SingleClassData
from ucsm.svm import (ConfusionMatrix, Hyperplane, SvmConfig, compute_margin,
                      evaluate, fit_standardizer, model_from_text,
                      model_to_text, train_svm, unscale_hyperplane)


def test_two_point_toy_recovers_unit_hyperplane():
    """Points (+1, +1) and (-1, -1): w=1, b=0, geometric margin 1."""
    x = np.array([[1.0], [-1.0]])
    y = np.array([1.0, -1.0])
    h, rep = train_svm(x, y, SvmConfig(c_positive=10.0, c_negative=10.0),
                       ("x0",))
    assert rep.converged
    assert h.weights_scaled[0] == pytest.approx(1.0, abs=1e-6)
    assert h.bias_scaled == pytest.approx(0.0, abs=1e-6)
    assert rep.margin == pytest.approx(1.0, abs=1e-6)


def test_dual_trace_monotone_nondecreasing(rng):
    x = rng.normal(size=(80, 3))
    y = np.where(x[:, 0] + 0.5 * x[:, 1] + 0.1 * rng.normal(size=80) > 0, 1.0, -1.0)
    _, rep = train_svm(x, y, SvmConfig(tolerance=1e-8, max_passes=300),
                       ("x0", "x1", "x2"))
    trace = np.array(rep.dual_trace)
    assert np.all(np.diff(trace) >= -1e-9)


def test_single_class_raises():
    with pytest.raises(SingleClassData):
        train_svm(np.ones((4, 2)), np.ones(4), SvmConfig(), ("a", "b"))


def test_label_count_mismatch():
    with pytest.raises(DimensionMismatch):
        train_svm(np.ones((4, 2)), np.array([1.0, -1.0]), SvmConfig(),
                  ("a", "b"))


def test_standardizer_drops_constant_features():
    x = np.array([[1.0, 5.0, 2.0], [2.0, 5.0, 4.0], [3.0, 5.0, 6.0]])
    s = fit_standardizer(x)
    assert list(s.kept) == [0, 2]
    z = s.transform(x)
    assert z.shape == (3, 2)
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)


def test_sign_equivalence_scaled_vs_physical(rng):
    """Same predicted label from scaled and physical forms on every sample."""
    x = rng.normal(size=(120, 4)) * np.array([3.0, 10.0, 0.5, 1.0]) + 2.0
    y = np.where(x @ np.array([1.0, -0.2, 3.0, 0.5]) > 4.0, 1.0, -1.0)
    if len(set(y)) < 2:
        pytest.skip("degenerate draw")
    std = fit_standardizer(x)
    hs, _ = train_svm(std.transform(x), y, SvmConfig(),
                      ("x0", "x1", "x2", "x3"))
    hp = unscale_hyperplane(hs, std)
    scaled_sign = np.sign(std.transform(x) @ hs.weights_scaled + hs.bias_scaled)
    phys_sign = np.sign(x @ hp.weights_physical + hp.bias_physical)
    np.testing.assert_array_equal(scaled_sign, phys_sign)


def test_unscale_assigns_zero_to_dropped_features():
    x = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0], [4.0, 7.0]])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    std = fit_standardizer(x)
    hs, _ = train_svm(std.transform(x), y, SvmConfig(), ("x0", "x1"))
    hp = unscale_hyperplane(hs, std)
    assert hp.weights_physical.size == 2
    assert hp.weights_physical[1] == 0.0


def test_class_weighting_reduces_false_positives(rng):
    """Heavier penalty on the infeasible class cannot increase FP count."""
    x = rng.normal(size=(300, 2))
    margin_noise = rng.normal(scale=0.6, size=300)
    y = np.where(x[:, 0] + margin_noise > 0, 1.0, -1.0)
    std = fit_standardizer(x)
    z = std.transform(x)
    h_flat, _ = train_svm(z, y, SvmConfig(c_positive=1.0, c_negative=1.0),
                          ("x0", "x1"))
    h_weighted, _ = train_svm(z, y, SvmConfig(c_positive=1.0, c_negative=50.0),
                              ("x0", "x1"))
    fp_flat = evaluate(unscale_hyperplane(h_flat, std), x, y).false_pos
    fp_weighted = evaluate(unscale_hyperplane(h_weighted, std), x, y).false_pos
    assert fp_weighted <= fp_flat


def test_confusion_matrix_metrics():
    cm = ConfusionMatrix(true_neg=90, false_pos=10, false_neg=5, true_pos=95)
    assert cm.total == 200
    assert cm.accuracy == pytest.approx(0.925)
    assert cm.false_positive_rate == pytest.approx(0.10)


def test_predict_tie_maps_to_positive():
    from ucsm.svm import Hyperplane
    h = Hyperplane(weights_scaled=np.array([1.0]), bias_scaled=0.0,
                   weights_physical=np.array([1.0]), bias_physical=0.0,
                   feature_names=("x0",))
    assert h.predict(np.array([[0.0]]))[0] == 1


def test_margin_of_known_geometry():
    from ucsm.svm import Hyperplane
    h = Hyperplane(weights_scaled=np.array([2.0, 0.0]), bias_scaled=0.0,
                   weights_physical=np.array([2.0, 0.0]), bias_physical=0.0,
                   feature_names=("a", "b"))
    x = np.array([[1.0, 0.0], [3.0, 1.0], [-2.0, 0.5]])
    y = np.array([1.0, 1.0, -1.0])
    assert compute_margin(h, x, y) == pytest.approx(1.0)


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        SvmConfig(c_positive=2.0, c_negative=1.0)
    with pytest.raises(ValueError):
        SvmConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SvmConfig(max_passes=0)


def test_model_text_round_trip(rng):
    x = rng.normal(size=(60, 3)) + np.array([1.0, -2.0, 0.5])
    y = np.where(x[:, 0] - x[:, 2] > 0.2, 1.0, -1.0)
    if len(set(y)) < 2:
        pytest.skip("degenerate draw")
    std = fit_standardizer(x)
    hs, rep = train_svm(std.transform(x), y, SvmConfig(),
                        feature_names=("f0", "f1", "f2"))
    hp = unscale_hyperplane(hs, std)
    text = model_to_text(hp, std, train_seed=5, margin=rep.margin)
    h2, s2, seed, margin = model_from_text(text)
    assert seed == 5
    assert margin == pytest.approx(rep.margin)
    np.testing.assert_array_equal(h2.weights_physical, hp.weights_physical)
    np.testing.assert_array_equal(s2.kept, std.kept)
    assert model_to_text(h2, s2, train_seed=seed, margin=margin) == text


def test_model_from_text_missing_field():
    with pytest.raises(FeatureMismatch):
        model_from_text("w_scaled=1.0\nb_scaled=0.0\n")


def _reference_train(x, y, config):
    """One coordinate step per visit, every visit: the loop ``train_svm``
    must reproduce bit for bit. Returns (w_aug, trace, passes, converged)."""
    n, d = x.shape
    xa = np.hstack([x, np.ones((n, 1))])
    cvec = np.where(y > 0, config.c_positive, config.c_negative)
    qdiag = np.einsum("ij,ij->i", xa, xa)
    alpha = np.zeros(n)
    w = np.zeros(d + 1)
    rng = np.random.Generator(np.random.PCG64(config.rng_seed))

    trace = []
    converged = False
    passes = 0
    for passes in range(1, config.max_passes + 1):
        pg_max, pg_min = -np.inf, np.inf
        for i in rng.permutation(n):
            g = y[i] * (xa[i] @ w) - 1.0
            if alpha[i] <= 0.0:
                pg = min(g, 0.0)
            elif alpha[i] >= cvec[i]:
                pg = max(g, 0.0)
            else:
                pg = g
            pg_max = max(pg_max, pg)
            pg_min = min(pg_min, pg)
            if pg != 0.0:
                new = min(max(alpha[i] - g / qdiag[i], 0.0), cvec[i])
                if new != alpha[i]:
                    w += (new - alpha[i]) * y[i] * xa[i]
                    alpha[i] = new
        trace.append(float(alpha.sum() - 0.5 * (w @ w)))
        if pg_max - pg_min < config.tolerance:
            converged = True
            break
    return w, trace, passes, converged


def _equivalence_inputs():
    toy = (np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]))
    # Each point of the first 8 again with the opposite label: their
    # alphas end at C, where the bulk test must prove g <= 0.
    base = np.random.default_rng(3).normal(size=(20, 2))
    label = np.where(base[:, 0] > 0, 1.0, -1.0)
    dup = (np.vstack([base, base[:8]]),
           np.concatenate([label, -label[:8]]))
    # Integer lattice points, five copies each: w reaches values such as
    # (1, 1/3, 0) and many y*(xa @ w) come out exactly 1.
    pts = np.array([[1, 0], [-1, 0], [2, 1], [-2, -1], [1, 2], [-1, -2],
                    [3, 0], [-3, 0]], dtype=float)
    lattice = (np.repeat(pts, 5, axis=0),
               np.repeat(np.array([1.0, -1.0] * 4), 5))
    # Ten copies each of 8 points with features of mixed scale: copies
    # left at alpha = 0 sit on the margin, where the bulk and per-row
    # products round apart and only the tolerance keeps them on the step.
    draw = np.random.default_rng(2)
    pts = draw.normal(size=(8, 5)) * np.exp(draw.normal(size=(8, 5)))
    copies = (np.repeat(pts, 10, axis=0),
              np.repeat(np.where(pts[:, 0] > 0, 1.0, -1.0), 10))
    return {"toy": toy, "dup": dup, "lattice": lattice, "copies": copies}


@pytest.fixture(scope="module")
def sixbus_train_split(sixbus):
    from ucsm.scenarios import generate_dataset
    xtr, ytr = generate_dataset(sixbus, 300, 0).train
    return fit_standardizer(xtr).transform(xtr), ytr


@pytest.mark.parametrize("max_passes", [1, 7, 300])
@pytest.mark.parametrize("name", ["toy", "dup", "lattice", "copies",
                                  "sixbus"])
def test_bulk_certified_training_matches_every_visit(name, max_passes,
                                                     sixbus_train_split):
    """Skipping the visits certified idle changes no bit of the result."""
    x, y = (sixbus_train_split if name == "sixbus"
            else _equivalence_inputs()[name])
    names = tuple(f"x{j}" for j in range(x.shape[1]))
    for seed in range(3):
        cfg = SvmConfig(c_positive=1.0 if name != "toy" else 10.0,
                        c_negative=10.0, max_passes=max_passes,
                        rng_seed=seed)
        w, trace, passes, converged = _reference_train(x, y, cfg)
        h, rep = train_svm(x, y, cfg, names)
        assert h.weights_scaled.tobytes() == w[:-1].tobytes()
        assert repr(h.bias_scaled) == repr(float(w[-1]))
        assert rep.dual_trace.tobytes() == np.array(trace).tobytes()
        assert (rep.passes, rep.converged) == (passes, converged)
        ref = Hyperplane(w[:-1], float(w[-1]), w[:-1], float(w[-1]), names)
        assert repr(rep.margin) == repr(compute_margin(ref, x, y))
