import os
import subprocess
import sys

import numpy as np
import pytest

from clusternull import cli, montecarlo


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "clusternull.cli", *args],
                          capture_output=True, text=True, env=env)


def read_table(path):
    meta, header, rows = {}, None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                k, _, v = line.lstrip("# ").partition("=")
                meta[k] = v
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header, rows


@pytest.mark.parametrize("module", ["scipy.integrate", "scipy.spatial", "scipy",
                                    "multiprocessing"])
def test_cli_import_leaves_out_scipy_module(module):
    # only the scalar 2F1 oracle's quadrature fallback uses scipy.integrate,
    # the cell clip needs no scipy.spatial, the analytic kernels import
    # scipy.special on their first call and a collection imports the
    # process pool only when it runs more than one range on more than one
    # worker
    r = subprocess.run([sys.executable, "-c",
                        "import sys, clusternull.cli; "
                        f"print({module!r} in sys.modules)"],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


@pytest.mark.parametrize("args,loaded", [
    (["pmf-n", "--ratio", "3", "--max-n", "5"], ()),
    (["sweep", "--mode", "mc", "--nt", "12", "--ratio-grid", "2,5",
      "--strategy", "icin,nic,lf-adaptive", "--trials", "20"], ()),
    (["coverage", "--mode", "analytic", "--dnt", "1", "--t-db", "0"],
     ("scipy", "scipy.special")),
], ids=["pmf-n", "sweep-mc", "coverage-analytic"])
def test_command_imports_only_what_it_runs(tmp_path, args, loaded):
    # a one-worker Monte Carlo run and the PMF never load scipy or
    # multiprocessing; an analytic bound loads scipy.special at its first
    # kernel call
    code = ("import sys; from clusternull import cli; "
            f"rc = cli.main({[*args, '--out', str(tmp_path / 'x.csv')]!r}); "
            "print(rc, *(m for m in ('scipy', 'scipy.special', "
            "'multiprocessing') if m in sys.modules))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=dict(os.environ, CLUSTER_SIM_THREADS="1"))
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["0", *loaded]


def test_parse_range():
    assert cli.parse_range("-10:2:20") == tuple(float(x) for x in range(-10, 22, 2))
    assert cli.parse_range("10:10:50") == (10.0, 20.0, 30.0, 40.0, 50.0)
    assert cli.parse_range("1,3,6") == (1.0, 3.0, 6.0)
    with pytest.raises(ValueError):
        cli.parse_range("1:2")
    for text in ("0:1:inf", "nan:1:3", "0:inf:3", "1:1:1e400"):
        with pytest.raises(ValueError):
            cli.parse_range(text)
    assert len(cli.parse_range("1:1:10000")) == cli.MAX_GRID_POINTS
    with pytest.raises(ValueError):
        cli.parse_range("1:1:10001")
    assert cli.parse_range("1:5e-324:0") == ()     # descending: empty


def test_pmf_command_normalizes(tmp_path):
    out = tmp_path / "pmf.csv"
    r = run_cli(["pmf-n", "--ratio", "3", "--max-n", "40", "--out", str(out)])
    assert r.returncode == 0, r.stderr
    meta, header, rows = read_table(out)
    assert header == ["n", "pmf"]
    total = sum(float(row[1]) for row in rows)
    assert total >= 1.0 - 1e-6
    assert meta["command"] == "pmf-n"


def test_coverage_contract(tmp_path):
    out = tmp_path / "cov.csv"
    r = run_cli(["coverage", "--ratio", "3", "--alpha", "4", "--dnt", "7",
                 "--t-db", "-10:2:20", "--mode", "mc", "--trials", "200",
                 "--seed", "7", "--out", str(out)])
    assert r.returncode == 0, r.stderr
    meta, header, rows = read_table(out)
    assert len(rows) == 16
    assert header == ["t_db", "value", "mc_mean", "mc_ci95",
                      "analytic_value", "analytic_err"]
    cov = [float(row[2]) for row in rows]
    assert all(a >= b for a, b in zip(cov, cov[1:]))
    assert meta["dnt"] == "7"


def _main_stderr(capsys, args):
    """Exit code and stderr of an in-process cli.main run."""
    code = cli.main(args)
    return code, capsys.readouterr().err


def test_bad_config_exit_code(capsys):
    code, err = _main_stderr(capsys, ["coverage", "--dnt", "3", "--nt", "5"])
    assert code == cli.EXIT_CONFIG
    assert "configuration" in err
    # parses, but the thresholded bound needs n_t >= 2
    code, err = _main_stderr(capsys, ["coverage", "--mode", "analytic",
                                      "--nt", "1", "--t-db", "0"])
    assert code == cli.EXIT_CONFIG
    assert err.startswith("error: bad configuration")
    # rate-loss needs antennas following N, policy series and bit budgets
    # that are integers >= 1
    for extra in (["--nt", "12"], ["--policy", "foo"],
                  ["--btot-grid", "10.5,10"], ["--btot-grid=-10"],
                  ["--btot-grid=0", "--policy", "adaptive", "--mode", "mc"]):
        code, err = _main_stderr(capsys, ["rate-loss", "--mode", "analytic",
                                          *extra])
        assert code == cli.EXIT_CONFIG
        assert err.startswith("error: bad configuration")
        assert len(err.splitlines()) == 1
    # scalar bit budgets below 1, density ratios below 1 (lambda_c above
    # lambda_b, zero or negative), a negative PMF range, unknown strategy
    # tokens, no antennas, a window with no clusters on average, descending
    # (empty) grids and repeated series tokens
    for args in (["coverage", "--mode", "mc", "--strategy", "lf-adaptive",
                  "--btot=-5", "--trials", "20", "--t-db", "0",
                  "--lambda-b", "1", "--snr-db", "20"],
                 ["sweep", "--mode", "mc", "--strategy", "lf-equal-bias",
                  "--btot=0"],
                 ["rate", "--mode", "mc", "--ratio", "0"],
                 ["sweep", "--mode", "mc", "--ratio-grid", "0.5"],
                 ["rate", "--mode", "mc", "--ratio=-3"],
                 ["rate", "--mode", "analytic", "--dnt", "1", "--ratio=-3"],
                 ["pmf-n", "--max-n", "-1"],
                 ["coverage", "--mode", "mc", "--strategy", "foo",
                  "--trials", "5", "--t-db", "0"],
                 ["rate", "--mode", "analytic", "--dnt", "1",
                  "--strategy", "icin,foo"],
                 ["rate-loss", "--mode", "mc", "--dnt", "0", "--trials", "20",
                  "--btot-grid", "20"],
                 ["rate-loss", "--mode", "mc", "--dnt=-1", "--trials", "20",
                  "--btot-grid", "20"],
                 ["coverage", "--mode", "mc", "--nt", "0", "--trials", "5",
                  "--t-db", "0"],
                 ["rate-loss", "--mode", "mc", "--window-clusters=-3",
                  "--trials", "20", "--btot-grid", "20"],
                 ["rate-loss", "--mode", "mc", "--window-clusters", "0",
                  "--trials", "20", "--btot-grid", "20"],
                 ["coverage", "--mode", "mc", "--trials", "5", "--t-db", "5:1:0"],
                 ["sweep", "--mode", "mc", "--trials", "5", "--ratio-grid", "3:1:1"],
                 ["rate", "--mode", "mc", "--trials", "5", "--ratio-grid", "3:1:1"],
                 ["rate-loss", "--mode", "mc", "--trials", "5",
                  "--btot-grid", "20:1:10"],
                 ["coverage", "--mode", "mc", "--strategy", "icin,icin",
                  "--trials", "5", "--t-db", "0"],
                 ["sweep", "--mode", "mc", "--strategy", "nic,lf-adaptive,nic",
                  "--trials", "5", "--ratio-grid", "2"],
                 ["rate-loss", "--mode", "mc", "--policy", "adaptive,adaptive",
                  "--trials", "5", "--btot-grid", "20"],
                 # non-finite grid values and thresholds whose linear value
                 # overflows
                 ["coverage", "--mode", "analytic", "--dnt", "1", "--t-db", "4000"],
                 ["coverage", "--mode", "analytic", "--dnt", "1", "--t-db", "0:1:inf"],
                 ["coverage", "--mode", "analytic", "--dnt", "1", "--t-db", "nan"],
                 ["coverage", "--mode", "analytic", "--dnt", "1", "--t-db", "inf"],
                 ["coverage", "--mode", "mc", "--trials", "5", "--t-db=-inf"],
                 ["rate-loss", "--mode", "analytic", "--btot-grid", "10:10:inf"],
                 ["sweep", "--mode", "mc", "--trials", "5",
                  "--ratio-grid", "1:1:1e400"],
                 # grids of more than MAX_GRID_POINTS points, rejected
                 # before they are built
                 ["coverage", "--mode", "analytic", "--dnt", "1",
                  "--t-db", "0:1e-6:1"],
                 ["coverage", "--mode", "analytic", "--dnt", "1",
                  "--t-db", "0:1e-15:1"],
                 ["coverage", "--mode", "analytic", "--dnt", "1",
                  "--t-db", "0:5e-324:1"],
                 ["pmf-n", "--max-n", "1000000000000"],
                 # non-finite model values, noise power that overflows and a
                 # negative seed, which the config itself rejects
                 *(["coverage", "--mode", "both", "--dnt", "2", "--t-db", "0",
                    "--trials", "5", *bad]
                   for bad in (["--alpha", "nan"], ["--alpha", "inf"],
                               ["--snr-db", "nan"], ["--snr-db=-inf"],
                               ["--snr-db=-4000"], ["--lambda-b", "inf"],
                               ["--seed", "-1"])),
                 ["rate-loss", "--mode", "analytic", "--seed", "-1"],
                 # work that grows without bound: a count law far past the
                 # pmf's term cap, and windows far past the station cap
                 ["coverage", "--mode", "analytic", "--nt", "12",
                  "--ratio", "1e7", "--t-db", "0"],
                 ["rate-loss", "--mode", "analytic", "--policy", "equal-bias",
                  "--ratio", "1e7"],
                 ["rate-loss", "--mode", "analytic", "--policy", "adaptive",
                  "--ratio", "2e5"],
                 ["coverage", "--mode", "mc", "--ratio", "2e5", "--trials", "1",
                  "--t-db", "0"],
                 ["coverage", "--mode", "mc", "--window-clusters", "1e300",
                  "--trials", "1", "--t-db", "0"],
                 # trial counts far past MAX_TRIALS, rejected before any work
                 ["coverage", "--mode", "mc", "--trials", "1000000000000",
                  "--t-db", "0"],
                 ["rate-loss", "--mode", "mc", "--trials", "1000000000000",
                  "--btot-grid", "20"],
                 # flag values argparse cannot convert, and an unknown flag
                 ["pmf-n", "--max-n", "4.5"],
                 ["coverage", "--trials", "1e3"],
                 ["coverage", "--mode", "mc", "--no-such-flag", "1"]):
        code, err = _main_stderr(capsys, args)
        assert code == cli.EXIT_CONFIG
        assert err.startswith("error: bad configuration")
        assert len(err.splitlines()) == 1
    # densities the default SNR cannot serve: its noise power lambda_b^2/100
    # underflows below about 1e-161, and log10 needs lambda_b > 0
    for args in (["pmf-n", "--lambda-b", "1e-200"],
                 ["coverage", "--mode", "analytic", "--lambda-b", "1e-200",
                  "--t-db", "0"],
                 ["pmf-n", "--lambda-b", "0"],
                 ["pmf-n", "--lambda-b=-1"]):
        code, err = _main_stderr(capsys, args)
        assert code == cli.EXIT_CONFIG
        assert err.startswith("error: bad configuration: --lambda-b")
        assert len(err.splitlines()) == 1
    # densities whose path loss (1 + r)^alpha overflows at the sampling
    # window's edge, where a trial's SINR would read 0/0: refused before
    # any draw, naming the density
    for args in (["coverage", "--mode", "mc", "--lambda-b", "1e-200",
                  "--snr-db", "inf", "--dnt", "2", "--t-db", "0", "--trials", "3"],
                 ["rate-loss", "--mode", "analytic", "--policy", "adaptive",
                  "--lambda-b", "1e-200", "--snr-db", "10"]):
        code, err = _main_stderr(capsys, args)
        assert code == cli.EXIT_CONFIG
        assert err.startswith("error: bad configuration: lambda_b = 1e-200")
        assert len(err.splitlines()) == 1


def test_help_still_exits_zero(capsys):
    # only parse errors become the one-line exit 2; --help prints and exits
    with pytest.raises(SystemExit) as exc:
        cli.main(["pmf-n", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: clusternull pmf-n")


def test_bound_domain_fails_before_any_trial(capsys, monkeypatch):
    # the analytic columns are evaluated first: --nt 1 is outside the
    # thresholded bound's domain, so no trial may be drawn
    def no_trials(*args, **kwargs):
        pytest.fail("montecarlo.collect_trials called before the bound failed")

    monkeypatch.setattr(montecarlo, "collect_trials", no_trials)
    code, err = _main_stderr(capsys, ["coverage", "--mode", "both", "--nt", "1",
                                      "--t-db", "0", "--trials", "3000"])
    assert code == cli.EXIT_CONFIG
    assert err.startswith("error: bad configuration")


def test_btot_checked_only_where_read(capsys, tmp_path):
    # rate-loss takes its budgets from --btot-grid and pmf-n takes none
    for args in (["rate-loss", "--mode", "analytic", "--policy", "equal-bias",
                  "--btot", "0", "--btot-grid", "10"],
                 ["pmf-n", "--max-n", "3", "--btot", "0"]):
        code, err = _main_stderr(capsys, [*args, "--out", str(tmp_path / "x.csv")])
        assert code == 0, err
    code, err = _main_stderr(capsys, ["coverage", "--mode", "mc", "--btot", "0",
                                      "--trials", "5", "--t-db", "0"])
    assert code == cli.EXIT_CONFIG
    assert err.startswith("error: bad configuration")


def test_package_error_exit_code(tmp_path):
    # a window of 1.5 clusters never holds an acceptable typical cluster
    r = run_cli(["coverage", "--mode", "mc", "--window-clusters", "1.5",
                 "--trials", "5", "--t-db", "0:5:5", "--out", str(tmp_path / "x.csv")])
    assert r.returncode == cli.EXIT_MODEL
    assert r.stderr.startswith("error: DegenerateRealizationError")
    assert len(r.stderr.splitlines()) == 1


def test_io_error_exit_code(tmp_path):
    r = run_cli(["pmf-n", "--max-n", "5", "--out", str(tmp_path / "nope" / "x.csv")])
    assert r.returncode == cli.EXIT_IO


def test_determinism_across_thread_counts(tmp_path):
    args = ["rate-loss", "--ratio", "3", "--dnt", "4", "--btot-grid", "12:12:24",
            "--policy", "equal-bias", "--mode", "mc", "--trials", "96",
            "--seed", "3"]
    outs = []
    for threads in ("1", "2"):
        path = tmp_path / f"t{threads}.csv"
        r = run_cli([*args, "--out", str(path)],
                    env_extra={"CLUSTER_SIM_THREADS": threads})
        assert r.returncode == 0, r.stderr
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("args,btot", [
    pytest.param(["coverage", "--ratio", "2", "--dnt", "3", "--t-db", "0:5:10"],
                 "50", id="coverage"),
    pytest.param(["coverage", "--strategy", "icin,lf-adaptive", "--btot", "30",
                  "--t-db", "0:5:10"], "30", id="coverage-lf-adaptive"),
    pytest.param(["rate-loss", "--btot", "17", "--btot-grid", "12,24"], "17",
                 id="rate-loss"),
])
def test_metadata_round_trip(tmp_path, args, btot):
    # replaying a result file through --config rewrites it byte for byte,
    # scalar bit budget included
    first = tmp_path / "a.csv"
    r = run_cli([*args, "--mode", "mc", "--trials", "64", "--seed", "5",
                 "--out", str(first)])
    assert r.returncode == 0, r.stderr
    assert read_table(first)[0]["btot"] == btot
    second = tmp_path / "b.csv"
    r = run_cli([args[0], "--config", str(first), "--out", str(second)])
    assert r.returncode == 0, r.stderr
    assert second.read_text() == first.read_text()


def test_mode_both_rows_consistent(tmp_path):
    out = tmp_path / "both.csv"
    r = run_cli(["coverage", "--ratio", "3", "--dnt", "7", "--t-db", "0:5:5",
                 "--mode", "both", "--trials", "400", "--seed", "1",
                 "--out", str(out)])
    assert r.returncode == 0, r.stderr
    _, header, rows = read_table(out)
    for row in rows:
        mc_mean, mc_ci = float(row[2]), float(row[3])
        lb = float(row[4])
        assert lb <= mc_mean + 2.0 * mc_ci + 1e-12


def _series_columns(path, series):
    """{(grid value, series): the four value cells} of a CSV."""
    _, header, rows = read_table(path)
    out = {}
    for row in rows:
        for s in series:
            k = header.index(f"{s}.mc_mean") if len(series) > 1 else 2
            out[row[0], s] = row[k:k + 4]
    return out


@pytest.mark.parametrize("command,flag,grid,series,extra", [
    ("sweep", "--strategy", ("2", "5"), ("icin", "nic", "lf-adaptive"),
     ["--mode", "mc", "--nt", "12", "--trials", "40"]),
    ("rate-loss", "--policy", ("20", "40"), ("adaptive", "equal-bias"),
     ["--mode", "both", "--lambda-b", "1", "--snr-db", "20", "--dnt", "5",
      "--ratio", "3", "--trials", "40"]),
    ("coverage", "--strategy", ("0", "5"), ("icin", "lf-adaptive"),
     ["--mode", "both", "--btot", "30", "--trials", "40"]),
])
def test_one_collection_serves_every_series(tmp_path, command, flag, grid,
                                            series, extra):
    # a multi-series run equals the single-series runs at the same seed,
    # value for value
    grid_flag = {"coverage": "--t-db", "sweep": "--ratio-grid",
                 "rate-loss": "--btot-grid"}[command]
    base = [command, *extra, "--seed", "31"]
    multi = tmp_path / "multi.csv"
    r = run_cli([*base, grid_flag, ",".join(grid), flag, ",".join(series),
                 "--out", str(multi)])
    assert r.returncode == 0, r.stderr
    got = _series_columns(multi, series)
    assert len(got) == len(grid) * len(series)
    for s in series:
        for g in grid:
            one = tmp_path / f"{s}-{g}.csv"
            r = run_cli([*base, grid_flag, g, flag, s, "--out", str(one)])
            assert r.returncode == 0, r.stderr
            want = _series_columns(one, (s,))
            assert all(cells[0] != "" for cells in want.values())
            assert {k: got[k] for k in want} == want
