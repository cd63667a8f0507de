"""Command-line front end: CSV output, determinism, scenario files,
exit codes, regime warnings."""

import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vortexscatter
from vortexscatter import asymptotics as asy
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


@pytest.mark.parametrize("command, line", [
    ("curve", "kapa = inf"),          # misspelt kappa
    ("compare", "max_l2 = 1e-9"),     # a compare flag, not a file key
    ("sweep", "mu_steps = 3"),        # a sweep flag, not a file key
])
def test_scenario_file_refuses_unknown_keys(tmp_path, capsys, command, line):
    scen = tmp_path / "scenario.txt"
    scen.write_text(f"kr_c = 30\nmu = 0.3\nmethods = Exact;Fraunhofer\nsteps = 5\n"
                    f"{line}\nout = {tmp_path / 'x.csv'}\n")
    assert run([command, "--scenario", str(scen)]) == cli.EXIT_INVALID
    key = line.split("=")[0].strip()
    assert f"unknown scenario key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["curve", "compare", "sweep"])
def test_scenario_file_refuses_a_value_its_key_cannot_convert(tmp_path, capsys, command):
    # every command converts every file value, also one it does not read
    scen = tmp_path / "scenario.txt"
    scen.write_text(f"kr_c = 30\nmu = 0.3\nmethods = Exact;Fraunhofer\nsteps = five\n"
                    f"out = {tmp_path / 'x.csv'}\n")
    assert run([command, "--scenario", str(scen)]) == cli.EXIT_INVALID
    assert "'five'" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("flag, line", [(["--sigma", "2"], "sigma = 2"),
                                        (["--units", "RC"], "units = RC")])
def test_flag_and_file_values_out_of_range_get_one_message(tmp_path, capsys, flag, line):
    out = tmp_path / "x.csv"
    base = ["curve", "--kr-c", "30", "--mu", "0.3", "--method", "Fraunhofer", "--steps", "5",
            "--out", str(out)]
    assert run(base + flag) == cli.EXIT_INVALID
    from_flag = capsys.readouterr().err
    scen = tmp_path / "scenario.txt"
    scen.write_text(line + "\n")
    assert run(base + ["--scenario", str(scen)]) == cli.EXIT_INVALID
    assert capsys.readouterr().err == from_flag and from_flag.startswith("error: ")
    assert not out.exists()


def test_method_flags_replace_the_file_methods(tmp_path):
    scen = tmp_path / "scenario.txt"
    scen.write_text("kr_c = 30\nmu = 0.3\nmethods = Exact;AB\nsteps = 5\n"
                    f"out = {tmp_path / 'm.csv'}\n")
    assert run(["curve", "--scenario", str(scen), "--method", "Fraunhofer"]) == cli.EXIT_OK
    rows = (tmp_path / "m.csv").read_text().strip().split("\n")[1:]
    assert [r.split(",")[1] for r in rows] == ["Fraunhofer"] * 5


def test_sweep_reads_a_curve_scenario_file(tmp_path):
    # every key a curve or compare file may set is known to the sweep too
    scen = tmp_path / "scenario.txt"
    scen.write_text("kr_c = 30\nmu = 0.3\nkappa = 1\nsigma = -1\nphi_min = -0.5\n"
                    "phi_max = 0.5\nsteps = 5\nmethods = Exact;Fraunhofer\nunits = rc\n"
                    f"out = {tmp_path / 'x.csv'}\n")
    assert run(["sweep", "--scenario", str(scen), "--mu-steps", "3"]) == cli.EXIT_OK
    assert len((tmp_path / "x.csv").read_text().strip().split("\n")) == 4


def test_zero_sample_nudged_off_a_roundoff_residue(tmp_path):
    # linspace(-0.23, 0.23, 101) leaves -2.8e-17 where 0 belongs; the curve
    # wrote 7e32 there, beside neighbours of 2e4
    out = tmp_path / "nudge.csv"
    assert run(["curve", "--kr-c", "30", "--mu", "0.37", "--phi-min", "-0.23",
                "--phi-max", "0.23", "--steps", "101", "--method", "Exact", "--method", "AB",
                "--out", str(out)]) == cli.EXIT_OK
    cells = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
    phi, value = min((abs(float(c[0])), float(c[2])) for c in cells if c[1] == "Exact")
    assert phi == pytest.approx(0.25 * 0.46 / 100, rel=1e-12)
    assert value < 1e6


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


def test_extreme_flux_exact_is_a_compute_error(tmp_path, capsys):
    # round(mu) beyond 2^53: the Exact solver refuses, the closed forms answer
    out = tmp_path / "e.csv"
    argv = ["curve", "--kr-c", "30", "--mu", "1e20", "--steps", "5", "--out", str(out)]
    assert run(argv + ["--method", "Exact"]) == cli.EXIT_COMPUTE
    assert "compute error: X=30.0, mu=1e+20" in capsys.readouterr().err and not out.exists()
    assert run(argv + ["--method", "Fraunhofer"]) == cli.EXIT_OK
    assert len(out.read_text().strip().split("\n")) == 6


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


@pytest.mark.parametrize("X", [30.0, 100.0, 480.0])
def test_sweep_breaks_mirror_ties_by_the_smaller_phi(X):
    # at integer mu the first side lobes are mirror images whose heights
    # differ by roundoff alone; the left one is reported with the forward peak
    for (p1, v1), (p2, v2) in cli._fringe_peaks([0.0, 1.0, 2.0, 3.0], X):
        assert p1 < 0.0 and p2 == pytest.approx(0.0, abs=1e-12) and v2 > v1
        assert asy.fraunhofer_cs(-p1, 0.0, X) == pytest.approx(v1, rel=1e-12)
    # whichever mirror lobe roundoff makes higher
    v = asy.fraunhofer_cs(0.15, 0.0, X)
    for left, right in ((v, v * (1.0 + 4e-16)), (v * (1.0 + 4e-16), v)):
        assert cli._dominant([(-0.15, left), (0.0, 2.0 * v), (0.15, right)])[0] == (-0.15, left)


def test_sweep_rows_do_not_depend_on_the_other_rows():
    mu_grid = np.linspace(0.0, 3.0, 25)
    together = cli._fringe_peaks(mu_grid, 100.0)
    assert [cli._fringe_peaks([mu], 100.0)[0] for mu in mu_grid] == together


def test_package_import_leaves_scipy_optimize_out():
    # importing scipy.optimize costs every process about 0.3 s and 20 MB
    src = Path(vortexscatter.__file__).parent
    code = "import sys, vortexscatter, vortexscatter.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=src.parent, timeout=60)
    assert out.stdout.strip() == "False"
    assert [p.name for p in src.glob("*.py") if "brentq" in p.read_text()] == []


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


def test_sweep_scenario_file_sets_output(tmp_path, monkeypatch):
    # sweep reads kr_c and out from the scenario file like curve and compare
    monkeypatch.chdir(tmp_path)
    scen = tmp_path / "scenario.txt"
    scen.write_text(f"kr_c = 100\nout = {tmp_path / 'from_file.csv'}\n")
    assert run(["sweep", "--scenario", str(scen), "--mu-steps", "3"]) == cli.EXIT_OK
    assert len((tmp_path / "from_file.csv").read_text().strip().split("\n")) == 4
    assert not (tmp_path / "fringes.csv").exists()
    # a flag overrides the file value
    assert run(["sweep", "--scenario", str(scen), "--mu-steps", "3",
                "--out", str(tmp_path / "flag.csv")]) == cli.EXIT_OK
    assert (tmp_path / "flag.csv").exists()


def test_sweep_rejects_an_empty_flux_grid(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    assert run(["sweep", "--kr-c", "100", "--mu-steps", "0", "--out", str(out)]) == cli.EXIT_INVALID
    assert "non-empty" in capsys.readouterr().err
    assert not out.exists()
    assert run(["sweep", "--out", str(out)]) == cli.EXIT_INVALID  # no kr_c anywhere


def test_sweep_refuses_a_radius_below_two(tmp_path, capsys):
    # below kr_c = 2 the central lobe |phi| <= 2 pi/kr_c passes phi = pi;
    # the sweep used to fail there with an angle-range message
    out = tmp_path / "small.csv"
    assert run(["sweep", "--kr-c", "1.5", "--out", str(out)]) == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert "kr_c" in err and "phi must lie" not in err
    assert not out.exists()
    assert run(["sweep", "--kr-c", "2", "--mu-steps", "3", "--out", str(out)]) == cli.EXIT_OK


def test_classical_curve_refuses_zero_flux(tmp_path, capsys):
    # without a field the classical form is undefined at phi = 0; the curve
    # used to write nan there and exit 0
    out = tmp_path / "classical.csv"
    code = run(["curve", "--kr-c", "30", "--mu", "0", "--method", "Classical",
                "--phi-min", "-1", "--phi-max", "1", "--steps", "3", "--out", str(out)])
    assert code == cli.EXIT_INVALID
    assert "mu != 0" in capsys.readouterr().err
    assert not out.exists()


def test_negative_values_after_a_space(tmp_path):
    # argparse reads -5e-05 and -inf after a space as options unless the
    # CLI joins them to their flags
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert run(["curve", "--kr-c", "30", "--mu", "-5e-05", "--out", str(spaced)]) == cli.EXIT_OK
    assert run(["curve", "--kr-c", "30", "--mu=-5e-05", "--out", str(joined)]) == cli.EXIT_OK
    assert spaced.read_bytes() == joined.read_bytes()
    assert run(["curve", "--kr-c", "30", "--mu", "5", "--kappa", "-inf",
                "--out", str(tmp_path / "hard.csv")]) == cli.EXIT_OK


@pytest.mark.parametrize("method", ["PenetrationAsymptotic", "Rainbow"])
def test_tiny_flux_rainbow_forms_exit_invalid(tmp_path, capsys, method):
    # (X/2mu)^2 overflowed and the CLI printed a traceback
    out = tmp_path / "tiny.csv"
    assert run(["curve", "--kr-c", "30", "--mu", "1e-300", "--method", method,
                "--out", str(out)]) == cli.EXIT_INVALID
    assert "overflows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mu, deep, other", [(0.37, "--phi-max", ("--phi-min", "-0.5")),
                                             (-0.37, "--phi-min", ("--phi-max", "0.5"))])
def test_rainbow_refusal_names_the_deepest_accepted_angle(tmp_path, capsys, mu, deep, other):
    base = ["curve", "--kr-c", "30", "--mu", str(mu), "--method", "Rainbow", *other]
    assert run(base + ["--out", str(tmp_path / "deep.csv")]) == cli.EXIT_INVALID
    found = re.search(r"needs phi [<>]= (\S+) \(rainbow angle (\S+)\)$", capsys.readouterr().err)
    assert float(found[2]) == pytest.approx(asy.rainbow_angle(mu, 30.0), abs=1e-6)
    bound = float(found[1])
    assert run(base + [deep, found[1], "--out", str(tmp_path / "ok.csv")]) == cli.EXIT_OK
    past = f"{bound + math.copysign(1e-5, mu):.6f}"
    assert run(base + [deep, past, "--out", str(tmp_path / "past.csv")]) == cli.EXIT_INVALID


@pytest.mark.parametrize("flag", ["--max-l2", "--max-unitarity"])
@pytest.mark.parametrize("value", ["nan", "-1e-3"])
def test_compare_refuses_a_nan_or_negative_tolerance(tmp_path, capsys, flag, value):
    # every comparison with nan is false, so a nan tolerance would pass any curve
    out = tmp_path / "cmp.csv"
    base = ["compare", "--kr-c", "30", "--mu", "0.37", "--kappa", "1",
            "--phi-min", "-0.4", "--phi-max", "0.4", "--steps", "41",
            "--method", "Exact", "--method", "Fraunhofer", "--out", str(out)]
    assert run(base + [flag, value]) == cli.EXIT_INVALID
    assert flag in capsys.readouterr().err
    assert not out.exists()
    assert run(base + [flag, "inf"]) == cli.EXIT_OK  # no limit


@pytest.mark.parametrize("command", ["curve", "compare"])
def test_compute_failure_exit_code(tmp_path, capsys, command):
    # X = 1500 lies past the cylinder functions' supported range
    out = tmp_path / "big.csv"
    argv = [command, "--kr-c", "1500", "--mu", "0.3", "--out", str(out)]
    if command == "compare":
        argv += ["--method", "Exact", "--method", "Fraunhofer"]
    assert run(argv) == cli.EXIT_COMPUTE
    err = capsys.readouterr().err
    assert err.startswith("compute error: ") and "X=1500.0, mu=0.3" in err
    assert not out.exists()
