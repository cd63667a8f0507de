"""Command-line front end: CSV output, determinism, scenario files,
exit codes, regime warnings."""

import math

import numpy as np
import pytest

from vortexscatter import cli
from vortexscatter.radial import VortexParams


def run(argv):
    return cli.main(argv)


def test_curve_free_case_null(tmp_path, capsys):
    out = tmp_path / "free.csv"
    code = run(["curve", "--kr-c", "50", "--mu", "0", "--kappa", "0",
                "--phi-min", "-1.0", "--phi-max", "1.0", "--steps", "51",
                "--method", "Exact", "--out", str(out)])
    assert code == cli.EXIT_OK
    rows = out.read_text().strip().split("\n")
    assert rows[0] == ("phi,method,value,f1_re,f1_im,f2_re,f2_im,"
                       "f3_re,f3_im,fab_re,fab_im")
    for row in rows[1:]:
        cells = row.split(",")
        assert cells[1] == "Exact"
        assert float(cells[2]) <= 1e-12


def test_curve_byte_identical_reruns(tmp_path):
    args = ["curve", "--kr-c", "25", "--mu", "0.7", "--kappa", "1",
            "--phi-min", "-2.0", "--phi-max", "2.0", "--steps", "101",
            "--method", "Exact", "--method", "Fraunhofer"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(a)]) == cli.EXIT_OK
    assert run(args + ["--out", str(b)]) == cli.EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_curve_non_exact_has_empty_amplitude_columns(tmp_path):
    out = tmp_path / "f.csv"
    run(["curve", "--kr-c", "30", "--mu", "0.3", "--steps", "11",
         "--phi-min", "-0.5", "--phi-max", "0.5",
         "--method", "Fraunhofer", "--out", str(out)])
    row = out.read_text().strip().split("\n")[1].split(",")
    assert row[1] == "Fraunhofer"
    assert all(c == "" for c in row[3:])


def test_curve_rc_units_rescale(tmp_path):
    base = ["--kr-c", "40", "--mu", "30", "--steps", "11",
            "--phi-min", "-1.0", "--phi-max", "1.0", "--method", "Classical"]
    a, b = tmp_path / "k.csv", tmp_path / "rc.csv"
    run(["curve"] + base + ["--units", "k", "--out", str(a)])
    run(["curve"] + base + ["--units", "rc", "--out", str(b)])
    va = [float(r.split(",")[2]) for r in a.read_text().strip().split("\n")[1:]]
    vb = [float(r.split(",")[2]) for r in b.read_text().strip().split("\n")[1:]]
    assert np.allclose(np.array(va) / 40.0, vb)


def test_scenario_file_and_flag_override(tmp_path):
    scen = tmp_path / "scenario.txt"
    scen.write_text(
        "kr_c = 30\nmu = 0.3\nkappa = 1\n# comment line\n"
        "phi_min = -0.5\nphi_max = 0.5\nsteps = 21\nmethods = Fraunhofer\n"
        f"out = {tmp_path/'s.csv'}\n")
    code = run(["curve", "--scenario", str(scen)])
    assert code == cli.EXIT_OK
    rows = (tmp_path / "s.csv").read_text().strip().split("\n")
    assert len(rows) == 22

    # a flag overrides the file value
    code = run(["curve", "--scenario", str(scen), "--steps", "5",
                "--out", str(tmp_path / "s2.csv")])
    assert code == cli.EXIT_OK
    assert len((tmp_path / "s2.csv").read_text().strip().split("\n")) == 6


def test_scenario_file_units_are_validated(tmp_path, capsys):
    # the file value gets the same check as the --units flag
    scen = tmp_path / "scenario.txt"
    scen.write_text(f"kr_c = 30\nmu = 0.3\nunits = RC\nmethods = Fraunhofer\n"
                    f"steps = 5\nout = {tmp_path / 'u.csv'}\n")
    assert run(["curve", "--scenario", str(scen)]) == cli.EXIT_INVALID
    assert "units" in capsys.readouterr().err
    assert not (tmp_path / "u.csv").exists()


def test_kappa_inf_spelling(tmp_path):
    out = tmp_path / "inf.csv"
    code = run(["curve", "--kr-c", "20", "--mu", "0.4", "--kappa", "inf",
                "--phi-min", "-1.0", "--phi-max", "1.0", "--steps", "11",
                "--method", "Exact", "--out", str(out)])
    assert code == cli.EXIT_OK


def test_invalid_input_exit_code(tmp_path):
    assert run(["curve", "--kr-c", "-3", "--mu", "0",
                "--out", str(tmp_path / "x.csv")]) == cli.EXIT_INVALID
    assert run(["curve", "--kr-c", "10", "--method", "Bogus",
                "--out", str(tmp_path / "y.csv")]) == cli.EXIT_INVALID
    assert run(["compare", "--kr-c", "10", "--method", "Fraunhofer",
                "--out", str(tmp_path / "z.csv")]) == cli.EXIT_INVALID


def test_regime_warnings(tmp_path, capsys):
    run(["curve", "--kr-c", "4", "--mu", "30", "--steps", "5",
         "--phi-min", "-0.5", "--phi-max", "0.5",
         "--method", "Fraunhofer", "--out", str(tmp_path / "w.csv")])
    err = capsys.readouterr().err
    assert "kr_c >> 1" in err
    assert "|mu| << (kr_c)^2/2" in err


def test_sweep_periodicity_and_structure(tmp_path):
    out = tmp_path / "fr.csv"
    code = run(["sweep", "--kr-c", "100", "--mu-min", "0", "--mu-max", "2",
                "--mu-steps", "9", "--out", str(out)])
    assert code == cli.EXIT_OK
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "mu,peak_phi_1,peak_value_1,peak_phi_2,peak_value_2"
    body = [r.split(",") for r in rows[1:]]
    # one or two peaks per row
    for cells in body:
        found = sum(1 for c in cells[1:] if c != "")
        assert found in (2, 4)
    # rows one flux quantum apart are identical except the mu column
    by_mu = {float(c[0]): c[1:] for c in body}
    for mu in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert by_mu[mu] == by_mu[mu + 1.0]


def test_sweep_reports_a_failed_peak_search(tmp_path, monkeypatch):
    # a failing peak search is an error, not a row of empty cells
    def failing(mu, X):
        raise ValueError("no bracket")

    monkeypatch.setattr(cli, "_fringe_peaks", failing)
    out = tmp_path / "fr.csv"
    assert run(["sweep", "--kr-c", "100", "--out", str(out)]) == cli.EXIT_INVALID
    assert not out.exists()


def test_sweep_half_quantum_forward_minimum(tmp_path):
    # at mu = 1/2 the central fringe is a null: the pattern shows two
    # symmetric peaks instead of a forward one
    out = tmp_path / "half.csv"
    run(["sweep", "--kr-c", "100", "--mu-min", "0.5", "--mu-max", "0.5",
         "--mu-steps", "1", "--out", str(out)])
    cells = out.read_text().strip().split("\n")[1].split(",")
    p1, p2 = float(cells[1]), float(cells[3])
    assert p1 == pytest.approx(-p2, rel=1e-9)
    assert float(cells[2]) == pytest.approx(float(cells[4]), rel=1e-9)
    from vortexscatter.asymptotics import fraunhofer_cs
    assert fraunhofer_cs(0.0, 0.5, 100.0) == pytest.approx(0.0, abs=1e-20)


def test_compare_report_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    base = ["compare", "--kr-c", "30", "--mu", "0.37", "--kappa", "1",
            "--phi-min", "-0.4", "--phi-max", "0.4", "--steps", "81",
            "--method", "Exact", "--method", "Fraunhofer", "--out", str(out)]
    code = run(base + ["--max-unitarity", "1e-8"])
    assert code == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "unitarity worst" in text

    # impossible tolerance forces exit code 1
    code = run(base + ["--max-l2", "1e-12"])
    assert code == cli.EXIT_TOLERANCE

    rows = out.read_text().strip().split("\n")
    assert rows[0] == "phi,method,exact,asymptotic,rel_diff"
    assert len(rows) == 82


def test_compare_unitarity_value(tmp_path):
    scenario = cli.Scenario(
        params=VortexParams(X=30.0, mu=0.37, kappa=1.0),
        grid=(-0.3, 0.3, 41), methods=(cli.amp.EXACT, cli.amp.FRAUNHOFER),
        output_path=str(tmp_path / "u.csv"))
    report = cli.compare_report(scenario)
    assert report.unitarity_worst <= 1e-8
    assert math.isfinite(report.interference_rel_l2)
    assert report.spin_difference >= 0.0


def test_sweep_rejects_shell_and_spin_flags(tmp_path, capsys):
    # the closed-form fringe pattern depends on k r_c alone, so the sweep
    # takes no shell strength or spin projection
    for flag in (["--kappa", "1"], ["--sigma", "-1"]):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--kr-c", "100", *flag, "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == cli.EXIT_INVALID
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()
