import warnings
from dataclasses import replace

import numpy as np
import pytest

from ucsm.errors import ParseError, SingularMatrix, ValidationError
from ucsm.grid import (Bus, Generator, Line, SystemCase, WindUnit, _inverse,
                       build_matrices, bundled_case_text, load_bundled_case,
                       parse_case)
from tests.conftest import make_tiny_case

RING_TEXT = """
[config]
ref_bus = 1
[buses]
1, 0
2, 20
3, 60
[lines]
1, 2, 0.1, 120
2, 3, 0.1, 120
1, 3, 0.1, 120
[generators]
1, 10, 150, 150, 150, 1, 1, 300, 100, 50, 18, 0.04
[wind]
2, 5, 20, 1, 6
"""


def test_parse_round_numbers():
    case = parse_case(RING_TEXT, name="ring")
    assert case.n_buses == 3
    assert case.n_lines == 3
    assert case.n_gens == 1
    assert case.n_wind == 1
    assert case.ref_bus == 1
    assert case.base_mva == 100.0
    np.testing.assert_allclose(case.loads, [0.0, 20.0, 60.0])


def test_parse_comments_and_blank_lines():
    text = "# header\n\n" + RING_TEXT + "\n# trailing\n"
    assert parse_case(text).content_hash() == parse_case(RING_TEXT).content_hash()


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_case("[lines]\n1, 2\n")
    assert exc.value.line == 2


def test_data_before_section_rejected():
    with pytest.raises(ParseError):
        parse_case("1, 2, 0.1, 100\n[lines]\n")


def test_unknown_config_key_rejected():
    """A misspelt key is an error at its line, not a silent default."""
    text = RING_TEXT.replace("ref_bus = 1", "ref_bus = 1\nbase_mav = 50")
    with pytest.raises(ParseError) as exc:
        parse_case(text)
    assert exc.value.line == 4
    assert "base_mav" in exc.value.reason


def test_missing_ref_bus_rejected():
    text = RING_TEXT.replace("ref_bus = 1", "base_mva = 100")
    with pytest.raises(ValidationError):
        parse_case(text)


def test_unknown_bus_reference_rejected():
    text = RING_TEXT.replace("2, 5, 20, 1, 6", "9, 5, 20, 1, 6")
    with pytest.raises(ValidationError):
        parse_case(text)


def test_disconnected_graph_rejected():
    with pytest.raises(ValidationError):
        SystemCase(
            buses=(Bus(1, 0.0), Bus(2, 10.0), Bus(3, 10.0)),
            lines=(Line(1, 2, 0.1, 100.0),),
            generators=(Generator(1, 0.0, 50.0, 50.0, 50.0, 1, 1,
                                  10.0, 10.0, 0.0, 10.0, 0.0),),
            wind_units=(),
            ref_bus=1,
        )


def test_negative_reactance_rejected():
    with pytest.raises(ValidationError):
        Line(1, 2, -0.1, 100.0)


def test_susceptance_must_be_finite():
    """A reactance so small that 1/x overflows is rejected with the line,
    and so are parallel lines whose 1/x sum past the float range at a bus,
    named in the message, with no numpy overflow warning on the way."""
    with pytest.raises(ValidationError, match="finite susceptance 1/x"):
        Line(1, 2, 1e-320, 100.0)
    base = make_tiny_case()
    tight = Line(1, 2, 6e-309, 100.0)  # 1/x is finite, twice it is not
    case = replace(base, lines=base.lines + (tight, tight))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError,
                           match="^bus 1: summed susceptance 1/x not finite$"):
            build_matrices(case)


def test_inverse_swaps_rows():
    """A zero leading entry needs a row swap."""
    a = np.array([[0.0, 2.0, 1.0], [4.0, 0.0, 0.0], [1.0, 1.0, 3.0]])
    np.testing.assert_allclose(_inverse(a), np.linalg.inv(a),
                               rtol=1e-12, atol=1e-15)
    np.testing.assert_array_equal(_inverse(np.array([[0.0, 2.0], [4.0, 0.0]])),
                                  [[0.0, 0.25], [0.5, 0.0]])


def test_inverse_of_singular_matrix_raises():
    with pytest.raises(SingularMatrix):
        _inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_solves_known_system():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([5.0, 10.0])
    x = _inverse(a) @ b
    np.testing.assert_allclose(a @ x, b, atol=1e-12)


def test_random_systems_match_numpy(rng):
    for _ in range(50):
        n = int(rng.integers(1, 12))
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        np.testing.assert_allclose(_inverse(a) @ b, np.linalg.solve(a, b),
                                   rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(_inverse(a), np.linalg.inv(a),
                                   rtol=1e-9, atol=1e-9)


def test_content_hash_sensitive_to_limits():
    a = make_tiny_case(line_limit=120.0)
    b = make_tiny_case(line_limit=121.0)
    assert a.content_hash() != b.content_hash()


def test_feature_names_layout(tiny_case):
    assert tiny_case.feature_names() == ["mu_1", "sigma_1", "pg_1", "pg_2"]


def test_b_matrix_is_susceptance_laplacian(tiny_case):
    mats = build_matrices(tiny_case)
    bmat = mats.b_matrix
    np.testing.assert_allclose(bmat, bmat.T)
    np.testing.assert_allclose(bmat.sum(axis=1), 0.0, atol=1e-12)
    # Off-diagonal between buses 1 and 2 is -1/x of the connecting line.
    assert bmat[0, 1] == pytest.approx(-1.0 / 0.10)


def test_ptdf_rows_ignore_ref_injection(tiny_case):
    mats = build_matrices(tiny_case)
    assert np.all(mats.ptdf[:, tiny_case.ref_index] == 0.0)


def test_ptdf_matches_angle_flows(tiny_case, rng):
    mats = build_matrices(tiny_case)
    for _ in range(100):
        inj = rng.normal(scale=40.0, size=tiny_case.n_buses)
        inj -= inj.mean()  # balanced
        via_ptdf = mats.ptdf @ inj
        theta = mats.angles(inj)
        direct = np.array([
            (theta[tiny_case.bus_index(ln.from_bus)]
             - theta[tiny_case.bus_index(ln.to_bus)])
            / ln.reactance_x * tiny_case.base_mva
            for ln in tiny_case.lines
        ])
        np.testing.assert_allclose(via_ptdf, direct, atol=1e-8)


def test_injection_matches_unit_loop(rng):
    """Two generators and two wind units on bus 3: each unit adds in unit
    order, exactly as a per-unit bus_index loop does."""
    base = make_tiny_case()
    wind_unit = replace(base.wind_units[0], bus=3)
    case = replace(base, generators=(replace(base.generators[0], bus=3),
                                     base.generators[1]),
                   wind_units=(wind_unit, wind_unit))
    mats = build_matrices(case)
    for trailing in ((), (2, 5)):  # an (N,) load and an (N, S, T) load
        load = rng.normal(size=(case.n_buses, *trailing)) * 50.0
        wind = rng.uniform(0.0, 30.0, size=(case.n_wind, *trailing))
        gen = rng.uniform(5.0, 80.0, size=(case.n_gens, *trailing))
        loop = np.zeros(load.shape)
        for w, unit in enumerate(case.wind_units):
            loop[case.bus_index(unit.bus)] += wind[w]
        loop = loop - load
        assert mats.injection(load, wind).tobytes() == loop.tobytes()
        for g, unit in enumerate(case.generators):
            loop[case.bus_index(unit.bus)] += gen[g]
        got = mats.injection(load, wind, gen)
        assert got.shape == load.shape
        assert got.tobytes() == loop.tobytes()


def test_angles_reproduce_injection(tiny_case, rng):
    mats = build_matrices(tiny_case)
    inj = rng.normal(scale=30.0, size=3)
    inj -= inj.mean()
    theta = mats.angles(inj)
    assert theta[tiny_case.ref_index] == 0.0
    np.testing.assert_allclose(
        mats.b_matrix @ theta * tiny_case.base_mva, inj, atol=1e-6)
    # Any trailing shape solves each column as a single call would.
    batch = rng.normal(scale=30.0, size=(3, 2, 5))
    batch -= batch.mean(axis=0)
    batch[:, 0, 0] = inj
    thetas = mats.angles(batch)
    assert thetas.shape == batch.shape
    for i, j in np.ndindex(2, 5):
        np.testing.assert_allclose(thetas[:, i, j], mats.angles(batch[:, i, j]),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", ["ring3", "sixbus", "grid24"])
def test_bundled_cases_parse(name):
    case = load_bundled_case(name)
    assert case.n_buses >= 3
    assert case.n_gens >= 1
    assert case.n_wind >= 1
    build_matrices(case)  # must not raise


def test_bundled_case_text_round_trip():
    text = bundled_case_text("ring3")
    case = parse_case(text, name="ring3")
    assert case.content_hash() == load_bundled_case("ring3").content_hash()
