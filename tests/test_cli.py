"""The command-line studies: exit codes, the one report format and the
Monte Carlo z-gate."""

import configparser
import csv
import math
from pathlib import Path

import pytest

from poissonpert import battery, cli, discrete, levy, series, void_indicator
from poissonpert.battery import CheckRow, z_gate
from poissonpert.cli import EXIT_ADMISSIBILITY, EXIT_CHECK, EXIT_CONFIG, EXIT_OK, main
from poissonpert.rng import RngStream

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
STUDY_OF_CONFIG = {
    "deriv_pivotal.ini": "deriv",
    "hellinger.ini": "hellinger",
    "levy_deriv_gamma_scale.ini": "levy-deriv",
    "levy_sim_gamma.ini": "levy-sim",
    "levy_sup_cp.ini": "levy-sup",
    "likelihood.ini": "likelihood",
    "series_void.ini": "series",
}
MAX_SAMPLES = 4_000
# levy-sim keeps its checked-in 20,000 samples (under a second per run): at
# 4,000 samples and seed 42 its variance estimate lies 3.3 standard errors
# low, a chance deviation (over 200 seeds at that size the z-scores average
# 0.06 with spread near 1), and any other size would be picked to pass
FULL_SIZE = {"levy_sim_gamma.ini"}


def small_copy(name: str, tmp_path: Path, **settings) -> Path:
    """The checked-in config with absolute data-file paths and, unless it
    is in ``FULL_SIZE``, at most ``MAX_SAMPLES`` Monte Carlo samples; then
    each keyword ``section__key=value`` of ``settings`` is set."""
    cfg = configparser.ConfigParser()
    cfg.read(CONFIGS / name)
    for section in cfg.sections():
        for key, value in cfg.items(section):
            if key.endswith("_file"):
                cfg.set(section, key, str(CONFIGS / value))
    if cfg.has_option("mc", "samples") and name not in FULL_SIZE:
        cfg.set("mc", "samples", str(min(cfg.getint("mc", "samples"), MAX_SAMPLES)))
    for option, value in settings.items():
        cfg.set(*option.split("__"), value)
    path = tmp_path / name
    with path.open("w") as fh:
        cfg.write(fh)
    return path


def read_rows(out: Path, study: str) -> dict:
    with (out / f"{study}.csv").open(newline="") as fh:
        return {r["check"]: r for r in csv.DictReader(fh)}


def test_a_study_without_check_rows_fails(tmp_path):
    # "0/0 checks passed" used to exit 0: a study that checks nothing shows nothing
    assert cli._report(tmp_path, "series", [], []) == EXIT_CHECK
    assert (tmp_path / "series_summary.txt").read_text().endswith("0/0 checks passed\n")


class TestSeriesStudy:
    def test_monte_carlo_mode_is_checked_against_the_direct_expectation(self, tmp_path):
        # Monte Carlo mode used to write no check row at all
        path = small_copy("series_void.ini", tmp_path, series__mode="mc", mc__samples="2000")
        out = tmp_path / "out"
        assert main(["series", "--config", str(path), "--out", str(out)]) == EXIT_OK
        row = read_rows(out, "series")["series_vs_direct_expectation"]
        assert row["mode"] == "z" and row["pass"] == "pass"
        assert 0.0 < float(row["tol"]) < 0.05
        summary = (out / "series_summary.txt").read_text()
        assert summary.endswith("1/1 checks passed\n")

    def test_monte_carlo_mode_above_the_enumeration_limit(self, tmp_path):
        # 7 atoms exceed exact.MAX_ATOMS: the check row used to enumerate
        # E_nu f and exit 2; a direct Monte Carlo estimate is the target now
        atoms = [f"a{i}" for i in range(7)]
        for name, mass in (("lam.txt", 0.2), ("nu.txt", 0.3)):
            (tmp_path / name).write_text("".join(f"{a} {mass}\n" for a in atoms))
        path = tmp_path / "series.ini"
        path.write_text("[series]\nfunctional = void\nlambda_file = lam.txt\n"
                        "nu_file = nu.txt\nmode = mc\nn_max = 12\n\n"
                        "[mc]\nsamples = 2000\nseed = 42\n")
        out = tmp_path / "out"
        assert main(["series", "--config", str(path), "--out", str(out)]) == EXIT_OK
        rows = read_rows(out, "series")
        assert list(rows) == ["series_vs_mc_expectation"]
        row = rows["series_vs_mc_expectation"]
        assert row["mode"] == "z" and row["pass"] == "pass"
        assert 0.0 < float(row["tol"]) < 0.05
        assert abs(float(row["target"]) - math.exp(-2.1)) < 0.05

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_negative_order_is_a_config_error(self, tmp_path, capsys, mode):
        # exact mode used to exit 1 on an IndexError; Monte Carlo mode exited 0,
        # its truncation budget covering a series of no computed terms
        path = small_copy("series_void.ini", tmp_path, series__mode=mode, series__n_max="-1")
        assert main(["series", "--config", str(path), "--out", str(tmp_path / "out")]) \
            == EXIT_CONFIG
        assert "config error: n_max must be nonnegative, got -1" in capsys.readouterr().err


def test_data_files_round_trip_through_the_report(tmp_path):
    # result objects hold numbers only; ``_report`` renders the data files
    # (this was the series module's ``to_csv`` round trip)
    for name, mass in (("lam.txt", 1.0), ("nu.txt", 2.0)):
        (tmp_path / name).write_text(f"b {mass}\n")
    path = tmp_path / "series.ini"
    path.write_text("[series]\nfunctional = void\nlambda_file = lam.txt\n"
                    "nu_file = nu.txt\nn_max = 10\n")
    out = tmp_path / "out"
    assert main(["series", "--config", str(path), "--out", str(out)]) == EXIT_OK
    res = series.variational_series(void_indicator(), discrete({"b": 1.0}),
                                    discrete({"b": 2.0}), n_max=10)
    with (out / "series_terms.csv").open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["order", "term", "partial_sum", "abs_term"]
    assert [[int(r[0])] + [float(v) for v in r[1:]] for r in rows] == [
        [n, t, p, a] for n, (t, p, a) in
        enumerate(zip(res.terms, res.partial_sums, res.abs_terms))]

    path = small_copy("levy_sup_cp.ini", tmp_path)
    assert main(["levy-sup", "--config", str(path), "--out", str(out)]) == EXIT_OK
    with (out / "levy-sup_q.csv").open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["bin_left", "bin_right", "count"]
    assert len(rows) == levy.Q_BINS
    assert all(a[1] == b[0] for a, b in zip(rows, rows[1:]))


class TestZGate:
    def test_finite_stderr_gates_at_three_sigma(self):
        assert z_gate(0.3, 0.1)
        assert not z_gate(0.31, 0.1)

    def test_budget_widens_the_gate(self):
        assert z_gate(0.35, 0.1, budget=0.05)

    @pytest.mark.parametrize("se", [math.inf, math.nan])
    def test_unusable_stderr_fails(self, se):
        assert not z_gate(0.0, se)
        assert not CheckRow("z", 1.0, 1.0, se, "z").passed


class TestBattery:
    def test_no_generator_per_replication(self, monkeypatch):
        # mc_mean builds one generator per block; a row that builds one per
        # replication (the battery's rows run 8,000-50,000) exceeds the limit
        built = []
        generator = RngStream.generator

        def counted(stream):
            built.append(stream)
            return generator(stream)

        monkeypatch.setattr(RngStream, "generator", counted)
        battery.run_battery(42)
        assert len(built) < 1_000


class TestDerivStudy:
    def test_single_sample_fails_instead_of_passing_on_infinite_stderr(self, tmp_path):
        # one sample is one chunk: the batch-means stderr is inf, which every
        # 3-sigma bound used to accept
        cfg = configparser.ConfigParser()
        cfg.read(CONFIGS / "deriv_pivotal.ini")
        cfg.set("deriv", "lambda_file", str(CONFIGS / cfg.get("deriv", "lambda_file")))
        cfg.set("mc", "samples", "1")
        path = tmp_path / "deriv.ini"
        with path.open("w") as fh:
            cfg.write(fh)
        out = tmp_path / "out"
        assert main(["deriv", "--config", str(path), "--out", str(out)]) == EXIT_CHECK
        summary = (out / "deriv_summary.txt").read_text()
        assert "pivotal:" in summary and "stderr inf [FAIL]" in summary
        assert "[pass]" not in summary

    @pytest.mark.parametrize("theta, shift, verdict", [
        ("0.5", 0.0, "pass"), ("0.5", 1e-3, "FAIL"),
        ("0.005", 0.0, "pass"),  # below the default finite-difference step
    ])
    def test_scaled_estimator_is_checked_against_a_finite_difference(
            self, tmp_path, monkeypatch, theta, shift, verdict):
        # the scaled row used to compare the exact derivative with itself, so
        # no derivative, however wrong, could fail it
        exact_derivative = cli.scaled_derivative
        monkeypatch.setattr(cli, "scaled_derivative",
                            lambda *args: exact_derivative(*args) + shift)
        path = small_copy("deriv_pivotal.ini", tmp_path, deriv__estimator="scaled",
                          deriv__theta=theta, deriv__fd_delta=str(float(theta) / 4))
        out = tmp_path / "out"
        main(["deriv", "--config", str(path), "--out", str(out)])
        row = read_rows(out, "deriv")["scaled"]
        assert row["pass"] == verdict
        assert abs(float(row["value"]) - shift - float(row["target"])) < 1e-9

    def test_scaled_estimator_at_theta_zero_is_a_config_error(self, tmp_path, capsys):
        # both Richardson steps are 0 there: a ZeroDivisionError traceback (exit 1)
        path = small_copy("deriv_pivotal.ini", tmp_path, deriv__estimator="scaled",
                          deriv__theta="0")
        assert main(["deriv", "--config", str(path), "--out", str(tmp_path / "out")]) \
            == EXIT_CONFIG
        assert "config error: theta must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("functional", ["void", "count", "count_sq", "one"])
    def test_pivotal_estimator_needs_an_increasing_event(self, tmp_path, capsys, functional):
        # an uncaught exception traceback (exit 1)
        path = small_copy("deriv_pivotal.ini", tmp_path, deriv__functional=functional)
        assert main(["deriv", "--config", str(path), "--out", str(tmp_path / "out")]) \
            == EXIT_ADMISSIBILITY
        assert "admissibility failure: functional not declared increasing" \
            in capsys.readouterr().err

    def test_nonlinear_family_hypothesis_failure_exits_3(self, tmp_path, capsys):
        # the sampled family checks raised ValueError, reported as a config error (exit 2)
        files = {"rho.txt": "a 1.0\nb 0.5\n", "base.txt": "a 1.0\nb -0.5\n",
                 "rate.txt": "a 0.3\nb 0.2\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        (tmp_path / "deriv.ini").write_text(
            "[deriv]\nestimator = nonlinear\nfunctional = void\nrho_file = rho.txt\n"
            "base_file = base.txt\nrate_file = rate.txt\ntheta = 0.2\n"
            "interval = -0.5 0.5\n\n[mc]\nseed = 42\n")
        out = tmp_path / "out"
        assert main(["deriv", "--config", str(tmp_path / "deriv.ini"), "--out", str(out)]) \
            == EXIT_ADMISSIBILITY
        assert "admissibility failure: family density negative at 'b'" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("direction, code", [
        ("a 0.5\nb -0.25\n", EXIT_OK),
        ("a 0.5\nb -0.25\na 0.3\n", EXIT_CONFIG),  # a density file lists atom a twice
    ])
    def test_density_file_parsed_like_a_measure_file(self, tmp_path, capsys, direction, code):
        files = {"rho.txt": "a 1.0\nb 0.5\n", "base.txt": "a 1.0\nb 1.0\n",
                 "direction.txt": direction}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        (tmp_path / "deriv.ini").write_text(
            "[deriv]\nestimator = linear\nfunctional = void\nrho_file = rho.txt\n"
            "base_file = base.txt\ndirection_file = direction.txt\ntheta = 0.2\n"
            "interval = -0.5 0.5\n\n[mc]\nseed = 42\n")
        out = tmp_path / "out"
        assert main(["deriv", "--config", str(tmp_path / "deriv.ini"), "--out", str(out)]) == code
        if code == EXIT_CONFIG:
            assert "line 3: duplicate atom 'a'" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "-2"])
def test_at_least_below_one_point_is_a_config_error(k, tmp_path, capsys):
    # 1{N(W) >= k} is the constant 1 there: the study exited 0, "1/1 checks passed"
    path = small_copy("series_void.ini", tmp_path, series__functional="at_least",
                      series__functional_k=k)
    assert main(["series", "--config", str(path), "--out", str(tmp_path / "out")]) \
        == EXIT_CONFIG
    assert f"config error: functional_k must be at least 1 for at_least, got {k}" \
        in capsys.readouterr().err


@pytest.mark.parametrize("config", ["series_void.ini", "deriv_pivotal.ini", "likelihood.ini"])
def test_window_atom_without_mass_is_a_config_error(config, tmp_path, capsys):
    # N(W) = 0 whatever the configuration, so the functional is a constant:
    # each of these studies exited 0 with every check passed
    study = STUDY_OF_CONFIG[config]
    path = small_copy(config, tmp_path, **{f"{study}__functional_window": "zz"})
    assert main([study, "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "config error: functional_window atom 'zz' has no mass under the study's measures" \
        in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_worker_count_below_one_is_a_config_error(workers, tmp_path, capsys):
    argv = ["levy-sim", "--config", str(small_copy("levy_sim_gamma.ini", tmp_path))]
    assert main(argv + ["--workers", workers, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert f"workers must be at least 1, got {workers}" in capsys.readouterr().err


@pytest.mark.parametrize("config, settings, name", [
    # an uncaught QuadratureError traceback (exit 1)
    ("levy_sim_gamma.ini", {"levy__beta": "nan"}, "beta"),
    # a failed check (exit 4)
    ("levy_sim_gamma.ini", {"levy__sigma2": "nan"}, "sigma2"),
    ("levy_sim_gamma.ini", {"levy__drift": "inf"}, "drift"),
    # exit 2, but with a message about lam from the Poisson sampler
    ("levy_sim_gamma.ini", {"levy__t0": "nan"}, "t0"),
    # an uncaught BatchMismatchError (exit 1)
    ("levy_sup_cp.ini", {"levy__atoms": "inf:1.0, -0.6:0.5", "levy__direction": "-0.6:-0.5"},
     "jump size"),
], ids=["beta", "sigma2", "drift", "t0", "atoms"])
def test_non_finite_levy_value_is_a_config_error(config, settings, name, tmp_path, capsys):
    path = small_copy(config, tmp_path, **settings)
    argv = [STUDY_OF_CONFIG[config], "--config", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    assert f"config error: {name} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("settings, moment", [
    # plain form at alpha = 0.5: int x nu(dx) diverges at infinity
    ({"levy__builder": "stable"}, "terminal mean"),
    # compensated at alpha = 1.5: the mean converges, int x^2 nu(dx) does not
    ({"levy__builder": "stable", "levy__drift_form": "compensated", "levy__alpha": "1.5"},
     "terminal variance"),
], ids=["plain", "compensated"])
def test_divergent_stable_moment_is_named(settings, moment, tmp_path, capsys):
    # an uncaught QuadratureError traceback (exit 1) that named no integral
    path = small_copy("levy_sim_gamma.ini", tmp_path, **settings)
    argv = ["levy-sim", "--config", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_ADMISSIBILITY
    assert f"admissibility failure: {moment}: quadrature error" in capsys.readouterr().err


@pytest.mark.parametrize("settings, name", [
    # a ZeroDivisionError traceback (exit 1)
    ({"levy__beta0": "0"}, "beta0"),
    # exit 2, but blaming the declared bound of the jump density
    ({"levy__theta": "-0.5"}, "theta"),
], ids=["beta0", "theta"])
def test_nonpositive_gamma_overlay_value_is_a_config_error(settings, name, tmp_path, capsys):
    path = small_copy("levy_deriv_gamma_scale.ini", tmp_path, **settings)
    argv = ["levy-deriv", "--config", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    assert f"config error: {name} must be finite and positive" in capsys.readouterr().err


def test_direction_off_the_reference_sizes_is_a_config_error(tmp_path, capsys):
    # the direction was 0: both estimators gave exact zeros and 3/3 checks passed
    path = small_copy("levy_sup_cp.ini", tmp_path, levy__direction="3.0:1.0",
                      mc__samples="2000")
    argv = ["levy-sup", "--config", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    assert "config error: direction sizes [3.0] are not jump sizes" in capsys.readouterr().err


def test_repeated_jump_size_is_a_config_error(tmp_path, capsys):
    # only the last mass of a repeated size was kept (exit 0)
    path = small_copy("levy_sim_gamma.ini", tmp_path, levy__builder="cp",
                      levy__atoms="1.0:0.5, 1.0:0.3")
    argv = ["levy-sim", "--config", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    assert "config error: jump size 1.0 is listed twice" in capsys.readouterr().err


def test_likelihood_second_moment_overflow_is_a_config_error(tmp_path, capsys):
    # a traceback of a bare OverflowError (exit 1)
    (tmp_path / "nu.txt").write_text("a 3.0\n")
    (tmp_path / "rho.txt").write_text("a 0.1\n")
    path = small_copy("likelihood.ini", tmp_path, likelihood__functional_window="a",
                      likelihood__nu_file=str(tmp_path / "nu.txt"),
                      likelihood__rho_file=str(tmp_path / "rho.txt"))
    argv = ["likelihood", "--config", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    assert "config error: E_rho L^2 overflows on the enumeration lattice (bound exp(84.1))" \
        in capsys.readouterr().err


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.ini")) + [None])
def test_study_reports_check_rows_identically_for_any_worker_count(config, tmp_path):
    if config is None:
        study, argv = "validate", ["validate", "--seed", "42"]
    else:
        study = STUDY_OF_CONFIG[config]
        argv = [study, "--config", str(small_copy(config, tmp_path))]
    outs = [tmp_path / f"workers{w}" for w in (1, 2)]
    for w, out in zip((1, 2), outs):
        assert main(argv + ["--workers", str(w), "--out", str(out)]) == EXIT_OK
    with (outs[0] / f"{study}.csv").open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["check", "value", "target", "tol", "mode", "pass"]
    assert rows
    passed = sum(r[-1] == "pass" for r in rows)
    summary = (outs[0] / f"{study}_summary.txt").read_text().splitlines()
    assert summary[-1] == f"{passed}/{len(rows)} checks passed"
    files = sorted(f.name for f in outs[0].iterdir())
    assert files == sorted(f.name for f in outs[1].iterdir())
    for name in files:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
