import os
import subprocess
import sys

import numpy as np
import pytest

from clusternull import cli


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


def test_parse_range():
    assert cli.parse_range("-10:2:20") == tuple(float(x) for x in range(-10, 22, 2))
    assert cli.parse_range("10:10:50") == (10.0, 20.0, 30.0, 40.0, 50.0)
    assert cli.parse_range("1,3,6") == (1.0, 3.0, 6.0)
    with pytest.raises(ValueError):
        cli.parse_range("1:2")


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


def test_bad_config_exit_code():
    r = run_cli(["coverage", "--dnt", "3", "--nt", "5"])
    assert r.returncode == cli.EXIT_CONFIG
    assert "configuration" in r.stderr
    # parses, but the thresholded bound needs n_t >= 2
    r = run_cli(["coverage", "--mode", "analytic", "--nt", "1", "--t-db", "0"])
    assert r.returncode == cli.EXIT_CONFIG
    assert r.stderr.startswith("error: bad configuration")
    # rate-loss needs antennas following N and policy series
    for extra in (["--nt", "12"], ["--policy", "foo"]):
        r = run_cli(["rate-loss", "--mode", "analytic", *extra])
        assert r.returncode == cli.EXIT_CONFIG
        assert r.stderr.startswith("error: bad configuration")
        assert len(r.stderr.splitlines()) == 1


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


def test_metadata_round_trip(tmp_path):
    first = tmp_path / "a.csv"
    r = run_cli(["coverage", "--ratio", "2", "--dnt", "3", "--t-db", "0:5:10",
                 "--mode", "mc", "--trials", "64", "--seed", "5",
                 "--out", str(first)])
    assert r.returncode == 0, r.stderr
    second = tmp_path / "b.csv"
    r = run_cli(["coverage", "--config", str(first), "--out", str(second)])
    assert r.returncode == 0, r.stderr
    a = first.read_text().splitlines()
    b = second.read_text().splitlines()
    # identical numeric payload (header + rows); metadata may reorder
    assert [x for x in a if not x.startswith("#")] == \
        [x for x in b if not x.startswith("#")]


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
])
def test_one_collection_serves_every_series(tmp_path, command, flag, grid,
                                            series, extra):
    # a multi-series run equals the single-series runs at the same seed,
    # value for value
    grid_flag = "--ratio-grid" if command == "sweep" else "--btot-grid"
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
