import numpy as np
import pytest

from ucsm import cli
from ucsm.grid import bundled_case_text, load_bundled_case
from ucsm.scenarios import dataset_from_csv, generate_dataset
from ucsm.svm import model_from_text


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
    assert len(ds.samples) >= 200
    x, y = ds.matrix()
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


def test_solve_malformed_model_number_exit_2(model_file, tmp_path, capsys):
    lines = model_file.read_text().splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith("b_scaled="))
    lines[row] = "b_scaled=abc"
    bad = tmp_path / "bad.model"
    bad.write_text("\n".join(lines) + "\n")
    rc = cli.main(["solve", "--case", "sixbus", "--mode", "surrogate",
                   "--model", str(bad), "--scenarios", "2", "--horizon", "3"])
    assert rc == cli.EXIT_INPUT
    assert f"line {row + 1}:" in capsys.readouterr().err


def test_train_malformed_feature_exit_2(data_file, tmp_path, capsys):
    lines = data_file.read_text().splitlines()
    # The first row after the header holds the first sample.
    row = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 1
    lines[row] = "xyz" + lines[row][lines[row].index(","):]
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


@pytest.mark.parametrize("command", [
    ["solve", "--scenarios", "1", "--horizon", "2"],
    ["gen-data", "--samples", "20"],
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


def test_bench_runs_and_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = cli.main(["bench", "--case", "sixbus", "--trials", "1",
                   "--samples", "150", "--scenarios", "2", "--horizon", "3",
                   "--segments", "2", "--repeats", "1", "--out", str(out)])
    assert rc == cli.EXIT_OK
    body = out.read_text()
    assert body.splitlines()[0].startswith("seed,mode,")
    assert "cost" in capsys.readouterr().out
