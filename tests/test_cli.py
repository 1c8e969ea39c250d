import ast
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from ucsm import cli
from ucsm.grid import bundled_case_text, load_bundled_case
from ucsm.scenarios import dataset_from_csv, generate_dataset
from ucsm.svm import SvmConfig, fit_standardizer, model_from_text, train_svm
from ucsm.tsuc import DEFAULT_GAP_TOL, TsucInstance


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    """A small sixbus dataset generated once for the CLI tests."""
    path = tmp_path_factory.mktemp("cli") / "sixbus.csv"
    rc = cli.main(["gen-data", "--case", "sixbus", "--samples", "200",
                   "--seed", "3", "--out", str(path)])
    assert rc == cli.EXIT_OK
    return path


@pytest.fixture(scope="module")
def model_file(tmp_path_factory, data_file):
    path = tmp_path_factory.mktemp("cli") / "sixbus.model"
    rc = cli.main(["train", "--data", str(data_file), "--out", str(path)])
    assert rc == cli.EXIT_OK
    return path


def test_gen_data_writes_parseable_csv(data_file):
    ds = dataset_from_csv(data_file.read_text())
    assert len(ds) >= 200
    x, y = ds.x, ds.y
    assert set(np.unique(y)) <= {-1, 1}


def test_gen_data_deterministic(tmp_path, data_file):
    again = tmp_path / "again.csv"
    rc = cli.main(["gen-data", "--case", "sixbus", "--samples", "200",
                   "--seed", "3", "--out", str(again)])
    assert rc == cli.EXIT_OK
    assert again.read_bytes() == data_file.read_bytes()


def test_gen_data_unknown_case_exit_2(tmp_path):
    rc = cli.main(["gen-data", "--case", str(tmp_path / "nope.case"),
                   "--samples", "100", "--out", str(tmp_path / "o.csv")])
    assert rc == cli.EXIT_INPUT


def test_gen_data_balancing_failure_exit_3(tmp_path):
    # ring3's relaxed dispatch is essentially always line-feasible, so the
    # sampler cannot reach a balanced label mix.
    rc = cli.main(["gen-data", "--case", "ring3", "--samples", "60",
                   "--out", str(tmp_path / "o.csv")])
    assert rc == cli.EXIT_DATA


def test_train_writes_model(model_file, capsys):
    hp, std, seed, margin = model_from_text(model_file.read_text())
    case = load_bundled_case("sixbus")
    assert tuple(hp.feature_names) == tuple(case.feature_names())
    assert margin > 0.0


def test_train_prints_passes_and_convergence(tmp_path, data_file, capsys):
    ds = dataset_from_csv(data_file.read_text())
    xtr, ytr = ds.train
    std = fit_standardizer(xtr)
    _, rep = train_svm(std.transform(xtr), ytr, SvmConfig(max_passes=20),
                       tuple(ds.feature_names))
    rc = cli.main(["train", "--data", str(data_file), "--max-passes", "20",
                   "--out", str(tmp_path / "m.model")])
    assert rc == cli.EXIT_OK
    assert (f"  converged: {rep.converged}  passes: {rep.passes}\n"
            in capsys.readouterr().out)


def test_train_deterministic(tmp_path, data_file, model_file):
    again = tmp_path / "again.model"
    rc = cli.main(["train", "--data", str(data_file), "--out", str(again)])
    assert rc == cli.EXIT_OK
    assert again.read_bytes() == model_file.read_bytes()


def test_solve_full_reports_row_counts(capsys, tmp_path):
    out = tmp_path / "sol.csv"
    rc = cli.main(["solve", "--case", "sixbus", "--mode", "full",
                   "--scenarios", "3", "--horizon", "4",
                   "--segments", "3", "--out", str(out)])
    assert rc == cli.EXIT_OK
    text = capsys.readouterr().out
    # full rows = 2 * n_lines * S * T = 2 * 7 * 3 * 4
    assert "constraint rows: 168 flow, 0 surrogate" in text
    assert "status: optimal" in text
    body = out.read_text()
    assert body.startswith("# objective=")
    assert "# flow_rows=168 surrogate_rows=0\n" in body
    lp_iterations = [line for line in body.splitlines()
                     if line.startswith("# lp_iterations=")]
    assert len(lp_iterations) == 1 and int(lp_iterations[0][16:]) > 0
    assert "section,g,s,t,value" in body


def test_solve_surrogate_reports_row_counts(capsys, model_file, tmp_path):
    out = tmp_path / "sol.csv"
    rc = cli.main(["solve", "--case", "sixbus", "--mode", "surrogate",
                   "--model", str(model_file),
                   "--scenarios", "3", "--horizon", "4", "--segments", "3",
                   "--out", str(out)])
    assert rc == cli.EXIT_OK
    text = capsys.readouterr().out
    # surrogate rows = S * T = 12
    assert "constraint rows: 0 flow, 12 surrogate" in text
    assert "status: optimal" in text
    assert "# flow_rows=0 surrogate_rows=12\n" in out.read_text()


def test_solve_surrogate_without_model_exit_2(capsys):
    rc = cli.main(["solve", "--case", "sixbus", "--mode", "surrogate"])
    assert rc == cli.EXIT_INPUT


def test_solve_model_case_mismatch_exit_4(model_file, tmp_path):
    # sixbus model against the 3-bus ring case: feature layouts differ.
    rc = cli.main(["solve", "--case", "ring3", "--mode", "surrogate",
                   "--model", str(model_file),
                   "--scenarios", "2", "--horizon", "3"])
    assert rc == cli.EXIT_MISMATCH


def test_solve_reads_case_from_file(tmp_path, capsys):
    path = tmp_path / "mycase.case"
    path.write_text(bundled_case_text("sixbus"))
    rc = cli.main(["solve", "--case", str(path), "--scenarios", "2",
                   "--horizon", "3", "--segments", "2"])
    assert rc == cli.EXIT_OK


def test_solve_malformed_case_exit_2(tmp_path):
    path = tmp_path / "bad.case"
    path.write_text("this is not a case file\n")
    rc = cli.main(["solve", "--case", str(path)])
    assert rc == cli.EXIT_INPUT


@pytest.mark.parametrize("old, new", [
    pytest.param("3, 70.0", "3, nan", id="load-nan"),
    pytest.param("120, 18, 0.020", "120, nan, 0.020", id="c1-nan"),
    pytest.param("2, 30.0", "nan, 30.0", id="bus-nan"),
    pytest.param("90, 90, 1, 1,", "90, 90, inf, 1,", id="min-up-inf"),
    pytest.param("90, 90, 1, 1,", "90, 90, 1.5, 1,", id="min-up-1.5"),
    pytest.param("base_mva = 100", "base_mva = inf", id="base-mva-inf"),
    pytest.param("ref_bus = 1", "ref_bus = 1.5", id="ref-bus-1.5"),
    pytest.param("1, 2, 0.08", "1, 2, 1e-320", id="susceptance-inf"),
    # A zero base gave NaN angles and a negative one flipped their sign.
    pytest.param("base_mva = 100", "base_mva = 0", id="base-mva-0"),
    pytest.param("base_mva = 100", "base_mva = -100", id="base-mva-negative"),
])
def test_solve_case_number_not_finite_or_whole_exit_2(tmp_path, capsys,
                                                      old, new):
    text = bundled_case_text("sixbus")
    path = tmp_path / "bad.case"
    path.write_text(text.replace(old, new, 1))
    rc = cli.main(["solve", "--case", str(path), "--scenarios", "2",
                   "--horizon", "3", "--segments", "2"])
    assert rc == cli.EXIT_INPUT
    line = text[:text.index(old)].count("\n") + 1
    assert f"line {line}:" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, message", [
    # B's reduced matrix has a pivot of 1.1e-13, under the LU's 1e-12 floor;
    # the graph is connected, so it is the reactances, not the topology.
    pytest.param("1, 2, 0.08,", "1, 2, 1e13,",
                 "reactances too far apart to invert B: pivot 1.101e-13",
                 id="reactance-huge"),
    # Each line's 1/x is finite; bus 2 and 3's sums are not.
    pytest.param("2, 3, 0.08, 160", "2, 3, 6e-309, 160\n2, 3, 6e-309, 160\n"
                 "2, 3, 0.08, 160", "bus 2: summed susceptance 1/x not finite",
                 id="susceptance-sum-inf"),
])
def test_solve_case_network_not_invertible_exit_2(tmp_path, capsys, old, new,
                                                  message):
    path = tmp_path / "bad.case"
    path.write_text(bundled_case_text("sixbus").replace(old, new, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["solve", "--case", str(path), "--scenarios", "2",
                       "--horizon", "3", "--segments", "2"])
    assert rc == cli.EXIT_INPUT
    assert f"error: {message}" in capsys.readouterr().err


def test_solve_case_unknown_config_key_exit_2(tmp_path, capsys):
    """A misspelt ``base_mva`` is rejected at its line instead of leaving
    the base at its default of 100."""
    text = bundled_case_text("sixbus")
    path = tmp_path / "bad.case"
    path.write_text(text.replace("base_mva = 100", "base_mav = 50", 1))
    rc = cli.main(["solve", "--case", str(path), "--scenarios", "2",
                   "--horizon", "3", "--segments", "2"])
    assert rc == cli.EXIT_INPUT
    line = text[:text.index("base_mva")].count("\n") + 1
    assert f"line {line}: unknown [config] key 'base_mav'" in capsys.readouterr().err


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "ucsm.cfg"
    cfg.write_text("scenarios = 2\nhorizon = 3\nsegments = 2\n")
    rc = cli.main(["--config", str(cfg), "solve", "--case", "sixbus"])
    assert rc == cli.EXIT_OK
    # 2 * 7 lines * 2 scenarios * 3 hours
    assert "constraint rows: 84 flow" in capsys.readouterr().out


def test_explicit_flag_beats_config(tmp_path, capsys):
    cfg = tmp_path / "ucsm.cfg"
    cfg.write_text("scenarios = 2\nhorizon = 3\nsegments = 2\n")
    rc = cli.main(["--config", str(cfg), "solve", "--case", "sixbus",
                   "--scenarios", "1"])
    assert rc == cli.EXIT_OK
    assert "constraint rows: 42 flow" in capsys.readouterr().out
    # A flag equal to its default still beats the config: 2 * 7 * 3 * 3.
    rc = cli.main(["--config", str(cfg), "solve", "--case", "sixbus",
                   "--scenarios", "3"])
    assert rc == cli.EXIT_OK
    assert "constraint rows: 126 flow" in capsys.readouterr().out


def test_malformed_config_value_exit_2(tmp_path):
    cfg = tmp_path / "ucsm.cfg"
    cfg.write_text("horizon = three\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(cfg), "solve", "--case", "sixbus"])
    assert exc.value.code == cli.EXIT_INPUT


def test_config_value_outside_choices_exit_2(tmp_path):
    cfg = tmp_path / "ucsm.cfg"
    cfg.write_text("mode = bogus\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(cfg), "solve", "--case", "sixbus"])
    assert exc.value.code == cli.EXIT_INPUT


@pytest.mark.parametrize("key, value", [
    ("b_scaled", "abc"), ("b_physical", "inf"), ("w_physical", "nan"),
    ("standardizer_std", "-inf"),
])
def test_solve_malformed_model_number_exit_2(model_file, tmp_path, capsys,
                                             key, value):
    lines = model_file.read_text().splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith(key + "="))
    # The field's first value becomes ``value``; any others stay.
    rest = lines[row].partition("=")[2].partition(",")[2]
    lines[row] = f"{key}={value}" + (f",{rest}" if rest else "")
    bad = tmp_path / "bad.model"
    bad.write_text("\n".join(lines) + "\n")
    rc = cli.main(["solve", "--case", "sixbus", "--mode", "surrogate",
                   "--model", str(bad), "--scenarios", "2", "--horizon", "3"])
    assert rc == cli.EXIT_INPUT
    assert f"line {row + 1}:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["xyz", "nan", "inf"])
def test_train_malformed_feature_exit_2(data_file, tmp_path, capsys, value):
    lines = data_file.read_text().splitlines()
    # The first row after the header holds the first sample.
    row = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 1
    lines[row] = value + lines[row][lines[row].index(","):]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    rc = cli.main(["train", "--data", str(bad),
                   "--out", str(tmp_path / "m.model")])
    assert rc == cli.EXIT_INPUT
    assert f"line {row + 1}:" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["+2", "0"])
def test_train_label_outside_pm1_exit_2(data_file, tmp_path, capsys, label):
    lines = data_file.read_text().splitlines()
    row = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 1
    lines[row] = lines[row][:lines[row].rindex(",") + 1] + label
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    rc = cli.main(["train", "--data", str(bad),
                   "--out", str(tmp_path / "m.model")])
    assert rc == cli.EXIT_INPUT
    assert f"line {row + 1}:" in capsys.readouterr().err


ONE_BUS_CASE = """[config]
ref_bus = 1
[buses]
1, 50.0
[generators]
1, 10, 150, 150, 150, 1, 1, 300, 100, 50, 18, 0.04
[wind]
1, 5, 20, 1, 6
"""


def test_one_bus_case(tmp_path, capsys):
    """A case with one bus has no lines: it solves with no flow rows, and
    gen-data cannot balance its labels, since no line can overload."""
    path = tmp_path / "one.case"
    path.write_text(ONE_BUS_CASE)
    rc = cli.main(["solve", "--case", str(path), "--scenarios", "2",
                   "--horizon", "3"])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "constraint rows: 0 flow" in out
    assert "status: optimal" in out
    rc = cli.main(["gen-data", "--case", str(path), "--samples", "50",
                   "--out", str(tmp_path / "o.csv")])
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["solve", "--scenarios", "1", "--horizon", "2"],
    ["gen-data", "--samples", "50"],
])
def test_case_without_generators_exit_2(tmp_path, capsys, command):
    text = bundled_case_text("sixbus")
    head, rest = text.split("[generators]")
    path = tmp_path / "nogen.case"
    path.write_text(head + "[generators]\n[" + rest.split("[", 1)[1])
    rc = cli.main([command[0], "--case", str(path), *command[1:],
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_INPUT
    assert "no generators" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["solve", "--horizon", "0"],
    ["solve", "--scenarios", "0"],
    ["solve", "--segments", "0"],
    ["gen-data", "--samples", "10"],
    ["solve", "--gap-tol", "nan"],
    ["solve", "--gap-tol", "-0.5"],
    ["bench", "--gap-tol", "nan"],
    ["bench", "--gap-tol", "-0.5"],
    ["solve", "--seed", "-1"],
    ["bench", "--seed", "-1"],
    ["gen-data", "--seed", "-1"],
])
def test_count_below_bound_exit_2(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command[0], "--case", "sixbus", *command[1:],
                  "--out", str(tmp_path / "out")])
    assert exc.value.code == cli.EXIT_INPUT
    assert f"argument {command[1]}: must be >= " in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["train", "--data", "d.csv", "--out", "m.model", "--seed", "-1"],
    ["validate", "--seed", "-1"],
])
def test_negative_seed_exit_2(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main(command)
    assert exc.value.code == cli.EXIT_INPUT
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err


def test_config_count_below_bound_exit_2(tmp_path, capsys):
    cfg = tmp_path / "ucsm.cfg"
    for line, message in (
            ("horizon = 0", "argument --horizon: must be >= 1, got 0"),
            ("seed = -2", "argument --seed: must be >= 0, got -2")):
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", str(cfg), "solve", "--case", "sixbus"])
        assert exc.value.code == cli.EXIT_INPUT
        assert message in capsys.readouterr().err


def test_train_defaults_are_svm_config_defaults():
    parser, _ = cli.build_parser()
    args = parser.parse_args(["train", "--data", "d.csv", "--out", "m.model"])
    assert SvmConfig(c_negative=args.cneg_ratio, tolerance=args.tolerance,
                     max_passes=args.max_passes,
                     rng_seed=args.seed) == SvmConfig()


def test_benchmark_copies_train_defaults():
    """The learn benchmark trains with its own copies of ``ucsm train``'s
    defaults, so its pins cover the defaults only while the copies in
    ``perfbench/workloads.py`` equal ``SvmConfig()``'s."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    names = ("C_NEGATIVE", "SVM_TOLERANCE", "SVM_MAX_PASSES")
    copies = {node.targets[0].id: ast.literal_eval(node.value)
              for node in ast.parse(path.read_text()).body
              if isinstance(node, ast.Assign)
              and getattr(node.targets[0], "id", None) in names}
    assert SvmConfig() == SvmConfig(c_positive=1.0,
                                    c_negative=copies["C_NEGATIVE"],
                                    tolerance=copies["SVM_TOLERANCE"],
                                    max_passes=copies["SVM_MAX_PASSES"])


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_instance_defaults_are_library_defaults(command):
    parser, _ = cli.build_parser()
    args = parser.parse_args([command, "--case", "sixbus"])
    assert args.segments == TsucInstance.pwl_segments
    assert args.gap_tol == DEFAULT_GAP_TOL


@pytest.mark.parametrize("flag, value", [
    ("--tolerance", "0"),
    ("--tolerance", "-1"),
    ("--cneg-ratio", "0.5"),  # below c_positive = 1
    ("--max-passes", "0"),
])
def test_train_flag_out_of_range_exit_2(data_file, tmp_path, capsys, flag,
                                        value):
    out = tmp_path / "m.model"
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--data", str(data_file), "--out", str(out),
                  flag, value])
    assert exc.value.code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert f"argument {flag}: must be " in err and f", got {value}" in err
    assert not out.exists()


def test_config_tolerance_out_of_range_exit_2(data_file, tmp_path, capsys):
    cfg = tmp_path / "ucsm.cfg"
    cfg.write_text("tolerance = 0\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(cfg), "train", "--data", str(data_file),
                  "--out", str(tmp_path / "m.model")])
    assert exc.value.code == cli.EXIT_INPUT
    assert "argument --tolerance: must be > 0, got 0" in capsys.readouterr().err


def test_directory_as_case_exit_2(tmp_path, capsys):
    rc = cli.main(["gen-data", "--case", str(tmp_path),
                   "--out", str(tmp_path / "o.csv")])
    assert rc == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--data", "--case", "--model", "--config"])
def test_undecodable_data_exit_2(tmp_path, capsys, flag):
    """A non-UTF-8 input file exits 2 with one line that names it."""
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe\x00label\n")
    argv = {
        "--data": ["train", "--data", str(bad),
                   "--out", str(tmp_path / "m.model")],
        "--case": ["solve", "--case", str(bad)],
        "--model": ["solve", "--case", "sixbus", "--mode", "surrogate",
                    "--model", str(bad)],
        "--config": ["--config", str(bad), "solve", "--case", "sixbus"],
    }[flag]
    rc = cli.main(argv)
    assert rc == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(bad) in err


@pytest.mark.parametrize("key, value", [
    ("train_indices", None),      # line missing
    ("test_indices", None),
    ("test_indices", ""),         # empty split
    ("train_indices", "0,1,100000"),  # index past the last sample
    ("test_indices", "-1"),
])
def test_train_bad_split_exit_2(data_file, tmp_path, capsys, key, value):
    lines = data_file.read_text().splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith(f"# {key}="))
    if value is None:
        del lines[row]
        row = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    else:
        lines[row] = f"# {key}={value}"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    rc = cli.main(["train", "--data", str(bad),
                   "--out", str(tmp_path / "m.model")])
    assert rc == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {row + 1}: ") and key in err
    assert err.count("\n") == 1


def test_solve_model_weight_count_mismatch_exit_4(model_file, tmp_path, capsys):
    # One physical weight short of the feature names; the standardizer
    # count agrees with the weights.
    lines = model_file.read_text().splitlines()
    for i, ln in enumerate(lines):
        key, _, val = ln.partition("=")
        if key == "w_physical":
            lines[i] = key + "=" + val.rsplit(",", 1)[0]
        elif key == "standardizer_n_features":
            lines[i] = f"{key}={int(val) - 1}"
    bad = tmp_path / "bad.model"
    bad.write_text("\n".join(lines) + "\n")
    rc = cli.main(["solve", "--case", "sixbus", "--mode", "surrogate",
                   "--model", str(bad), "--scenarios", "2", "--horizon", "3"])
    assert rc == cli.EXIT_MISMATCH
    err = capsys.readouterr().err
    assert err.startswith("error: model has ") and err.count("\n") == 1


def test_missing_config_exit_2(tmp_path):
    rc = cli.main(["--config", str(tmp_path / "absent.cfg"),
                   "solve", "--case", "sixbus"])
    assert rc == cli.EXIT_INPUT


def test_validate_lp_suite(capsys):
    rc = cli.main(["validate", "--suite", "lp", "--seed", "0"])
    assert rc == cli.EXIT_OK
    assert "lp: PASS" in capsys.readouterr().out


def test_validate_grid_suite(capsys):
    rc = cli.main(["validate", "--suite", "grid", "--seed", "1"])
    assert rc == cli.EXIT_OK
    assert "grid: PASS" in capsys.readouterr().out


def test_validate_tsuc_suite(capsys):
    rc = cli.main(["validate", "--suite", "tsuc", "--seed", "2"])
    assert rc == cli.EXIT_OK
    assert "tsuc: PASS" in capsys.readouterr().out


def test_bench_cost_error_is_relative_to_abs_full():
    """Each pair's cost error is |surrogate - full| over |full|: positive
    for a negative full objective, 0 when both are 0, inf when only the
    full objective is 0."""
    from ucsm.bench import BenchmarkReport, TrialRow
    pairs = [(-200.0, -202.0), (0.0, 0.0), (0.0, 5.0), (400.0, 402.0)]
    report = BenchmarkReport(rows=[
        TrialRow(seed, mode, obj, 1.0, 1, 1, "optimal")
        for seed, objs in enumerate(pairs)
        for mode, obj in zip(("full", "surrogate"), objs)])
    np.testing.assert_array_equal(report.cost_errors_pct(),
                                  [1.0, 0.0, np.inf, 0.5])
    assert "cost error %: min 0.00 avg inf max inf" in report.summary_text()


def test_bench_every_trial_failed_exit_3(capsys):
    # ring3's sampler cannot balance its labels, so no trial pairs.
    rc = cli.main(["bench", "--case", "ring3", "--trials", "1",
                   "--samples", "60", "--scenarios", "1", "--horizon", "2",
                   "--repeats", "1"])
    assert rc == cli.EXIT_DATA
    out = capsys.readouterr().out
    assert "paired trials: 0" in out and "class balancing failed" in out


def test_bench_runs_and_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = cli.main(["bench", "--case", "sixbus", "--trials", "1",
                   "--samples", "150", "--scenarios", "2", "--horizon", "3",
                   "--segments", "2", "--repeats", "1", "--out", str(out)])
    assert rc == cli.EXIT_OK
    body = out.read_text()
    assert body.splitlines()[0].startswith("seed,mode,")
    text = capsys.readouterr().out
    assert "cost" in text
    # The kept trial's training passes and convergence, on both reports.
    shown = re.search(r"^classifier: .* margin \S+ passes (\d+) converged "
                      r"(True|False)$", text, re.M)
    written = re.search(r"^# confusion .* accuracy=\S+ passes=(\d+) "
                        r"converged=(True|False)$", body, re.M)
    assert shown and written and shown.groups() == written.groups()
