"""Experiment runner: parses a run configuration, dispatches analytical
and/or Monte Carlo evaluations, and writes CSV tables (one row per grid
point) suitable for external plotting.

Config precedence: command-line flags > config-file keys > defaults.  The
config file is flat key=value text; the metadata block embedded in every
output CSV uses the same syntax (prefixed '# '), so a previous result file
can be replayed directly via --config.

Exit codes: 0 success, 2 bad configuration (also a value a bound finds
outside its domain, such as --nt 1), 4 a file could not be read or
written, 5 any other package error while evaluating (for example no
acceptable deployment realization within the sampler's attempt budget).
Each failure prints one `error:` line on stderr.
"""

import argparse
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import analysis, geometry, montecarlo
from .errors import ClusterNullError, DomainError
from .geometry import FixedNt, FollowN, SimConfig

EXIT_CONFIG = 2
EXIT_IO = 4
EXIT_MODEL = 5

LF_STRATEGIES = {
    "lf-adaptive": "adaptive",
    "lf-equal-bias": "equal-bias",
    "lf-equal-nobias": "equal-nobias",
}


@dataclass
class RunSpec:
    command: str                    # coverage | rate | rate-loss | pmf-n | sweep
    mode: str = "both"              # mc | analytic | both
    cfg: SimConfig = field(default_factory=SimConfig)
    grid_param: str = ""
    grid: tuple = ()
    series: tuple = ("icin",)
    output_path: str = "-"
    max_n: int = 40


def parse_range(text):
    """Inclusive start:step:stop range, or a comma-separated list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:step:stop, got {text!r}")
        start, step, stop = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("range step must be positive")
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        return tuple(start + i * step for i in range(n))
    return tuple(float(p) for p in text.split(","))


def load_config(path):
    """Flat key=value lines; '#'-prefixed lines are unwrapped first so a
    result CSV's metadata block round-trips."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line.startswith("#"):
                line = line.lstrip("#").strip()
            if not line or "=" not in line:
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            if key and " " not in key:
                out[key] = value.strip()
    return out


_DEFAULTS = {
    "mode": "both",
    "lambda_b": 1e-4,
    "ratio": 3.0,
    "alpha": 4.0,
    "snr_db": None,   # resolved against lambda_b below
    "dnt": None,
    "nt": None,
    "btot": 50,
    "trials": 1000,
    "seed": 0,
    "window_clusters": 100.0,
    "strategy": "icin",
    "policy": "adaptive,equal-bias",
    "max_n": 40,
}


def default_snr_db(lambda_b):
    """Transmit SNR giving a fixed ~20 dB interference-to-noise operating
    point regardless of the density units (the bounded path-loss law is not
    scale free, so the absolute density matters)."""
    return 20.0 - 10.0 * math.log10(lambda_b ** 2)


def _build_spec(args, file_cfg):
    def pick(key, cast):
        cli_val = getattr(args, key.replace("-", "_"), None)
        if cli_val is not None:
            return cli_val if not isinstance(cli_val, str) else cast(cli_val)
        if key in file_cfg:
            return cast(file_cfg[key])
        dflt = _DEFAULTS.get(key)
        return dflt

    lambda_b = float(pick("lambda_b", float))
    ratio = float(pick("ratio", float))
    alpha = float(pick("alpha", float))
    snr = pick("snr_db", float)
    snr_db = float(snr) if snr is not None else default_snr_db(lambda_b)
    dnt = pick("dnt", int)
    nt = pick("nt", int)
    if dnt is not None and nt is not None:
        raise ValueError("give either dnt (antennas follow N) or nt (fixed), not both")
    if nt is not None:
        mode_ant = FixedNt(int(nt))
    else:
        mode_ant = FollowN(int(dnt) if dnt is not None else 4)
    cfg = SimConfig(
        lambda_b=lambda_b,
        lambda_c=lambda_b / ratio,
        alpha=alpha,
        snr_db=snr_db,
        antenna_mode=mode_ant,
        b_tot=int(pick("btot", int)),
        trials=int(pick("trials", int)),
        seed=int(pick("seed", int)),
        window_cluster_count=float(pick("window_clusters", float)),
    )

    command = args.command
    mode = str(pick("mode", str))
    if mode not in ("mc", "analytic", "both"):
        raise ValueError(f"mode must be mc|analytic|both, got {mode!r}")
    out = getattr(args, "out", None) or file_cfg.get("output", "-")

    if command == "coverage":
        grid_text = getattr(args, "t_db", None) or file_cfg.get("t_db", "-10:2:20")
        grid = parse_range(grid_text)
        series = tuple(str(pick("strategy", str)).split(","))
        return RunSpec(command, mode, cfg, "t_db", grid, series, out)
    if command == "rate":
        grid_text = getattr(args, "ratio_grid", None) or file_cfg.get("ratio_grid", "")
        grid = parse_range(grid_text) if grid_text else (ratio,)
        series = tuple(str(pick("strategy", str)).split(","))
        return RunSpec(command, mode, cfg, "ratio", grid, series, out)
    if command == "rate-loss":
        if not isinstance(mode_ant, FollowN):
            raise ValueError("rate-loss needs antennas following N (use dnt)")
        grid_text = getattr(args, "btot_grid", None) or file_cfg.get("btot_grid", "10:10:50")
        grid = parse_range(grid_text)
        series = tuple(str(pick("policy", str)).split(","))
        for s in series:
            if s not in montecarlo.POLICIES:
                raise ValueError(f"rate-loss series must be a policy, got {s!r}")
        return RunSpec(command, mode, cfg, "b_tot", grid, series, out)
    if command == "pmf-n":
        max_n = int(pick("max_n", int))
        return RunSpec(command, "analytic", cfg, "n",
                       tuple(float(n) for n in range(max_n + 1)), ("pmf",), out,
                       max_n=max_n)
    if command == "sweep":
        grid_text = getattr(args, "ratio_grid", None) or file_cfg.get("ratio_grid", "1:1:6")
        grid = parse_range(grid_text)
        series = tuple(str(pick("strategy", str)).split(","))
        return RunSpec(command, mode, cfg, "ratio", grid, series, out)
    raise ValueError(f"unknown command {command!r}")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _fmt(x):
    if x is None:
        return ""
    return repr(float(x))


def _cfg_at_ratio(cfg, ratio):
    return replace(cfg, lambda_c=cfg.lambda_b / ratio)


def _collect(cfg, series):
    """One trial collection serving every strategy in `series`: the
    limited-feedback ones become (policy, cfg.b_tot) pairs."""
    return montecarlo.collect_trials(
        cfg, [(LF_STRATEGIES[s], cfg.b_tot) for s in series if s in LF_STRATEGIES])


def _strategy(token):
    """(montecarlo strategy, policy) of a CLI series token."""
    if token in LF_STRATEGIES:
        return "lf", LF_STRATEGIES[token]
    return token, None


def _analytic_rate(cfg, token):
    if token != "icin":
        return None, None
    if isinstance(cfg.antenna_mode, FollowN):
        return analysis.rate_lb_ic(cfg), math.nan
    return analysis.rate_lb_thresholded(cfg), math.nan


def run(spec):
    """Execute the run and return (header, rows, metadata) for CSV output."""
    cfg = spec.cfg
    want_mc = spec.mode in ("mc", "both")
    want_an = spec.mode in ("analytic", "both")
    multi = len(spec.series) > 1

    def cols(series):
        names = ["mc_mean", "mc_ci95", "analytic_value", "analytic_err"]
        return [f"{series}.{n}" for n in names] if multi else names

    header = [spec.grid_param, "value"]
    rows = []

    if spec.command == "pmf-n":
        header = ["n", "pmf"]
        for n in range(spec.max_n + 1):
            rows.append([str(n), _fmt(analysis.pmf_n(n, cfg.ratio))])
        return header, rows, _metadata(spec)

    for s in spec.series:
        header.extend(cols(s))

    if spec.command == "coverage":
        ts = [10.0 ** (tdb / 10.0) for tdb in spec.grid]
        arrays = _collect(cfg, spec.series) if want_mc else None
        per_series = {}
        for s in spec.series:
            mc_vals = [None] * len(ts)
            mc_cis = [None] * len(ts)
            an_vals = [None] * len(ts)
            an_errs = [None] * len(ts)
            if want_mc:
                strategy, policy = _strategy(s)
                ests = montecarlo.estimate_coverage(cfg, ts, strategy, policy,
                                                    arrays=arrays)
                mc_vals = [e.mean for e in ests]
                mc_cis = [e.ci95_halfwidth for e in ests]
            if want_an and s == "icin":
                curve = analysis.coverage_curve(cfg, spec.grid)
                an_vals = list(curve.y)
                an_errs = list(curve.quadrature_error)
            per_series[s] = (mc_vals, mc_cis, an_vals, an_errs)
        for i, tdb in enumerate(spec.grid):
            row = [_fmt(tdb), _fmt(ts[i])]
            for s in spec.series:
                mv, mci, av, ae = per_series[s]
                row.extend([_fmt(mv[i]), _fmt(mci[i]), _fmt(av[i]), _fmt(ae[i])])
            rows.append(row)
        return header, rows, _metadata(spec)

    if spec.command in ("rate", "sweep"):
        for ratio in spec.grid:
            cfg_r = _cfg_at_ratio(cfg, ratio)
            arrays = _collect(cfg_r, spec.series) if want_mc else None
            row = [_fmt(ratio), _fmt(ratio)]
            for s in spec.series:
                mc_mean = mc_ci = an_val = an_err = None
                if want_mc:
                    strategy, policy = _strategy(s)
                    est = montecarlo.estimate_rate(cfg_r, strategy, policy,
                                                   arrays=arrays)
                    mc_mean, mc_ci = est.mean, est.ci95_halfwidth
                if want_an:
                    an_val, an_err = _analytic_rate(cfg_r, s)
                row.extend([_fmt(mc_mean), _fmt(mc_ci), _fmt(an_val), _fmt(an_err)])
            rows.append(row)
        return header, rows, _metadata(spec)

    if spec.command == "rate-loss":
        budgets = [int(b_tot) for b_tot in spec.grid]
        if want_mc:
            # every (policy, b_tot) cell reads its column of one collection
            arrays = montecarlo.collect_trials(
                cfg, [(s, b) for b in budgets for s in spec.series])
        if want_an and "adaptive" in spec.series:
            adaptive_ub = analysis.rate_loss_ub_adaptive(cfg, b_tots=budgets)
        for k, b_tot in enumerate(spec.grid):
            cfg_b = replace(cfg, b_tot=budgets[k])
            row = [_fmt(b_tot), _fmt(b_tot)]
            for s in spec.series:
                mc_mean = mc_ci = an_val = an_err = None
                if want_mc:
                    est = montecarlo.estimate_rate_loss(cfg_b, s, arrays=arrays)
                    mc_mean, mc_ci = est.mean, est.ci95_halfwidth
                if want_an:
                    if s == "adaptive":
                        an_val = adaptive_ub[k]
                    else:
                        an_val = analysis.rate_loss_ub_equal(
                            cfg_b, bias=(s == "equal-bias"))
                    an_err = math.nan
                row.extend([_fmt(mc_mean), _fmt(mc_ci), _fmt(an_val), _fmt(an_err)])
            rows.append(row)
        return header, rows, _metadata(spec)

    raise ValueError(f"unknown command {spec.command!r}")


def _metadata(spec):
    cfg = spec.cfg
    meta = {
        "artifact": "clusternull",
        "version": "0.1.0",
        "command": spec.command,
        "mode": spec.mode,
        "lambda_b": repr(cfg.lambda_b),
        "ratio": repr(cfg.ratio),
        "alpha": repr(cfg.alpha),
        "snr_db": repr(cfg.snr_db),
        "btot": str(cfg.b_tot),
        "trials": str(cfg.trials),
        "seed": str(cfg.seed),
        "window_clusters": repr(cfg.window_cluster_count),
        "strategy" if spec.command != "rate-loss" else "policy":
            ",".join(spec.series),
    }
    if isinstance(cfg.antenna_mode, FollowN):
        meta["dnt"] = str(cfg.antenna_mode.d_nt)
    else:
        meta["nt"] = str(cfg.antenna_mode.n_t)
    if spec.command == "coverage":
        meta["t_db"] = ",".join(repr(float(g)) for g in spec.grid)
    elif spec.command in ("rate", "sweep"):
        meta["ratio_grid"] = ",".join(repr(float(g)) for g in spec.grid)
    elif spec.command == "rate-loss":
        meta["btot_grid"] = ",".join(repr(float(g)) for g in spec.grid)
    elif spec.command == "pmf-n":
        meta["max_n"] = str(spec.max_n)
    return meta


def write_csv(path, header, rows, meta):
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append(",".join(header))
    lines.extend(",".join(r) for r in rows)
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def build_parser():
    p = argparse.ArgumentParser(
        prog="clusternull",
        description="Coverage/rate evaluation of clustered interference "
                    "nulling in Poisson cellular networks")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="flat key=value file (a result CSV works)")
        sp.add_argument("--mode", choices=["mc", "analytic", "both"])
        sp.add_argument("--lambda-b", dest="lambda_b", type=float)
        sp.add_argument("--ratio", type=float)
        sp.add_argument("--alpha", type=float)
        sp.add_argument("--snr-db", dest="snr_db", type=float)
        sp.add_argument("--dnt", type=int, help="antennas follow N: n_t = N + dnt")
        sp.add_argument("--nt", type=int, help="fixed antenna count (thresholding)")
        sp.add_argument("--btot", type=int)
        sp.add_argument("--trials", type=int)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--window-clusters", dest="window_clusters", type=float)
        sp.add_argument("--out", help="output CSV path ('-' for stdout)")

    sp = sub.add_parser("coverage", help="coverage vs SINR threshold")
    common(sp)
    sp.add_argument("--t-db", dest="t_db", help="threshold grid, start:step:stop dB")
    sp.add_argument("--strategy", help="comma list: icin,nic,lf-adaptive,...")

    sp = sub.add_parser("rate", help="average rate (optionally vs ratio grid)")
    common(sp)
    sp.add_argument("--ratio-grid", dest="ratio_grid", help="start:step:stop")
    sp.add_argument("--strategy")

    sp = sub.add_parser("rate-loss", help="mean rate loss of limited feedback")
    common(sp)
    sp.add_argument("--btot-grid", dest="btot_grid", help="start:step:stop bits")
    sp.add_argument("--policy", help="comma list: adaptive,equal-bias,equal-nobias")

    sp = sub.add_parser("pmf-n", help="interferer-count PMF")
    common(sp)
    sp.add_argument("--max-n", dest="max_n", type=int)

    sp = sub.add_parser("sweep", help="rate vs cluster-size ratio, multi-strategy")
    common(sp)
    sp.add_argument("--ratio-grid", dest="ratio_grid", help="start:step:stop")
    sp.add_argument("--strategy", help="comma list of series")
    return p


_VALUE_FLAGS = ("--t-db", "--ratio-grid", "--btot-grid", "--snr-db", "--ratio",
                "--alpha", "--lambda-b")


def _merge_negative_values(argv):
    """Let `--t-db -10:2:20` parse: argparse rejects option values with a
    leading dash unless they are attached with '='."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_negative_values(list(argv)))
    try:
        file_cfg = load_config(args.config) if args.config else {}
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        spec = _build_spec(args, file_cfg)
    except (ValueError, TypeError) as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        header, rows, meta = run(spec)
    except DomainError as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ClusterNullError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MODEL
    try:
        write_csv(spec.output_path, header, rows, meta)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return 0


if __name__ == "__main__":
    sys.exit(main())
