"""Experiment runner: parses a run configuration, dispatches analytical
and/or Monte Carlo evaluations, and writes CSV tables (one row per grid
point) suitable for external plotting.

Config precedence: command-line flags > config-file keys > defaults.  The
config file is flat key=value text; the metadata block embedded in every
output CSV uses the same syntax (prefixed '# '), so a previous result file
can be replayed directly via --config.

Exit codes: 0 success, 2 bad configuration (also a flag or flag value
the parser rejects, and a value a bound finds outside its domain, such as
--nt 1, a bit budget that is not an integer >= 1, a density ratio
below 1, a grid value that is not finite, such as a threshold whose
linear value overflows, a grid of more than MAX_GRID_POINTS points, more
than MAX_TRIALS trials, a --lambda-b too small for the default SNR, a
model value SimConfig rejects, such as a non-finite alpha or a negative
seed, or work past a cap: a sampling window of too many base stations
or an interferer-count law of too many terms),
4 a file could not be read or written,
5 any other package error while evaluating (for example no acceptable
deployment realization within the sampler's attempt budget).
Each failure prints one `error:` line on stderr.
"""

import argparse
import math
import sys
from dataclasses import dataclass, field, replace

from . import __version__, analysis, montecarlo
from .errors import ClusterNullError, DomainError
from .geometry import FixedNt, FollowN, SimConfig

EXIT_CONFIG = 2
EXIT_IO = 4
EXIT_MODEL = 5

MAX_GRID_POINTS = 10_000
# Most Monte Carlo trials one config may ask for: 50 times the README's
# largest count.  A run holds its trials' SINR columns in memory.
MAX_TRIALS = 1_000_000

LF_STRATEGIES = {
    "lf-adaptive": "adaptive",
    "lf-equal-bias": "equal-bias",
    "lf-equal-nobias": "equal-nobias",
}
SERIES = ("icin", "nic", *LF_STRATEGIES)


@dataclass
class RunSpec:
    command: str                    # a key of COMMANDS
    mode: str = "both"              # mc | analytic | both
    cfg: SimConfig = field(default_factory=SimConfig)
    grid: tuple = ()
    series: tuple = ("icin",)
    output_path: str = "-"
    b_tot: int = 50                 # --btot: the budget of every lf-* series


def parse_range(text):
    """Inclusive start:step:stop range, or a comma-separated list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:step:stop, got {text!r}")
        start, step, stop = (float(p) for p in parts)
        if not all(math.isfinite(x) for x in (start, step, stop)):
            raise ValueError(f"range bounds must be finite, got {text!r}")
        if step <= 0:
            raise ValueError("range step must be positive")
        last = (stop - start) / step + 1e-9      # inf for a subnormal step
        _check_last_index(last, text)
        # a descending range is empty
        return tuple(start + i * step
                     for i in range(math.floor(max(last, -1.0)) + 1))
    return tuple(float(p) for p in text.split(","))


def _check_last_index(last, text):
    """Rejects a grid 0..last of more than MAX_GRID_POINTS points before it
    is built."""
    if not last < MAX_GRID_POINTS:
        raise ValueError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")


def _counts(max_n):
    """pmf-n's grid 0..max_n."""
    _check_last_index(int(max_n), max_n)
    return tuple(range(int(max_n) + 1))


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
}


def default_snr_db(lambda_b):
    """Transmit SNR giving a fixed ~20 dB interference-to-noise operating
    point regardless of the density units (the bounded path-loss law is not
    scale free, so the absolute density matters): 20 dB at lambda_b = 1,
    10 dB more per decade of lower density."""
    if not 0.0 < lambda_b < math.inf:
        raise ValueError(f"--lambda-b must be finite and > 0, got {lambda_b!r}")
    snr_db = 20.0 - 20.0 * math.log10(lambda_b)
    if 10.0 ** (-snr_db / 10.0) == 0.0:
        # the noise power, lambda_b^2 / 100, underflows below about 1e-161
        raise ValueError(f"--lambda-b {lambda_b!r} is too small for the default "
                         "SNR, whose noise power underflows to 0; give --snr-db")
    return snr_db


def _check_ratio(ratio):
    """A density ratio lambda_b / lambda_c that keeps 0 < lambda_c <= lambda_b."""
    if not 1.0 <= ratio < math.inf:
        raise ValueError(f"ratio must be finite and >= 1, got {ratio!r}")


def _check_t_db(t_db):
    """A dB threshold whose linear value 10^(t_db/10) is a finite float."""
    try:
        finite = math.isfinite(t_db) and math.isfinite(10.0 ** (t_db / 10.0))
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"t_db must have a finite linear value, got {t_db!r}")


def _check_budget(b_tot):
    if not float(b_tot).is_integer() or b_tot < 1:
        raise ValueError(f"bit budgets must be integers >= 1, got {b_tot!r}")


def _tokens(text, allowed, key):
    series = tuple(text.split(","))
    for s in series:
        if s not in allowed:
            raise ValueError(f"{key} must be one of {', '.join(allowed)}, got {s!r}")
    if len(set(series)) < len(series):
        raise ValueError(f"{key} repeats a series: {text!r}")
    return series


def _strategies(text, cfg, b_tot):
    """The series of coverage, rate and sweep; the lf-* series read b_tot."""
    _check_budget(b_tot)
    return _tokens(text, SERIES, "strategy")


def _policies(text, cfg, b_tot):
    """The series of rate-loss, whose allocations need antennas following N."""
    if not isinstance(cfg.antenna_mode, FollowN):
        raise ValueError("rate-loss needs antennas following N (use dnt)")
    return _tokens(text, montecarlo.POLICIES, "policy")


def _strategy_pair(token, point, b_tot):
    """An lf-* strategy's (policy, b_tot); icin and nic need none."""
    return (LF_STRATEGIES[token], b_tot) if token in LF_STRATEGIES else None


def _cfg_at_ratio(cfg, ratio):
    return replace(cfg, lambda_c=cfg.lambda_b / ratio)


def _pointwise(bound):
    """An analytic column evaluated point by point; its errors read nan."""
    return lambda cfg, grid: ([bound(cfg, g) for g in grid], [math.nan] * len(grid))


@dataclass(frozen=True)
class Command:
    """What a command's run reads: its grid, its series and how a cell of
    either kind is evaluated.  The callables look the package functions up
    at call time, so a wrapped montecarlo.* or analysis.* is what runs."""
    grid_key: str                   # flag dest, config and metadata key
    grid_column: str                # CSV header of the grid column
    default_grid: object            # None: the one point --ratio
    value: object = lambda cfg, point: point     # the CSV value cell
    series_key: str = "strategy"    # config and metadata key of the series
    series: object = _strategies    # (text, cfg, b_tot) -> checked tokens
    parse_grid: object = parse_range
    check_point: object = lambda point: None
    grid_text: object = lambda grid: ",".join(repr(float(g)) for g in grid)
    value_column: str = "value"
    config_at: object = lambda cfg, point: cfg
    pair: object = _strategy_pair   # (token, point, b_tot) -> pair or None
    estimate: object = None         # (arrays, column, value) -> Estimate
    analytic: dict = field(default_factory=dict)  # token -> (cfg, grid) -> (values, errors)


_RATE = Command(
    grid_key="ratio_grid", grid_column="ratio", default_grid=None,
    check_point=_check_ratio, config_at=_cfg_at_ratio,
    estimate=lambda arrays, sinr, value: montecarlo.estimate_rate(sinr),
    analytic={"icin": _pointwise(
        lambda cfg, ratio: analysis.rate_lb_ic(_cfg_at_ratio(cfg, ratio)))})

COMMANDS = {
    "coverage": Command(
        grid_key="t_db", grid_column="t_db", default_grid="-10:2:20",
        check_point=_check_t_db, value=lambda cfg, t_db: 10.0 ** (t_db / 10.0),
        estimate=lambda arrays, sinr, t: montecarlo.estimate_coverage(sinr, [t])[0],
        analytic={"icin": lambda cfg, grid: analysis.coverage_curve(cfg, grid)}),
    "rate": _RATE,
    "sweep": replace(_RATE, default_grid="1:1:6"),
    "rate-loss": Command(
        grid_key="btot_grid", grid_column="b_tot", default_grid="10:10:50",
        series_key="policy", series=_policies, check_point=_check_budget,
        pair=lambda policy, b_tot, scalar_b_tot: (policy, int(b_tot)),
        estimate=lambda arrays, sinr, value: montecarlo.estimate_rate_loss(
            arrays.sinr_ic, sinr),
        analytic={
            "adaptive": lambda cfg, grid: analysis.rate_loss_ub_adaptive(cfg, grid),
            "equal-bias": _pointwise(lambda cfg, b_tot: analysis.rate_loss_ub_equal(
                cfg, int(b_tot), bias=True)),
            "equal-nobias": _pointwise(lambda cfg, b_tot: analysis.rate_loss_ub_equal(
                cfg, int(b_tot), bias=False))}),
    # the trivial case: no series, the PMF as the value of a count
    "pmf-n": Command(
        grid_key="max_n", grid_column="n", default_grid="40",
        value=lambda cfg, n: analysis.pmf_n(n, cfg.ratio),
        series=lambda text, cfg, b_tot: (),
        parse_grid=_counts,
        grid_text=lambda grid: str(grid[-1]),
        value_column="pmf"),
}


def _build_spec(args, file_cfg):
    def pick(key, cast):
        cli_val = getattr(args, key.replace("-", "_"), None)
        if cli_val is not None:
            return cli_val if not isinstance(cli_val, str) else cast(cli_val)
        if key in file_cfg:
            return cast(file_cfg[key])
        return _DEFAULTS.get(key)

    lambda_b = float(pick("lambda_b", float))
    ratio = float(pick("ratio", float))
    _check_ratio(ratio)
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
    b_tot = int(pick("btot", int))
    cfg = SimConfig(
        lambda_b=lambda_b,
        lambda_c=lambda_b / ratio,
        alpha=alpha,
        snr_db=snr_db,
        antenna_mode=mode_ant,
        trials=int(pick("trials", int)),
        seed=int(pick("seed", int)),
        window_cluster_count=float(pick("window_clusters", float)),
    )
    if cfg.trials > MAX_TRIALS:
        raise ValueError(f"trials={cfg.trials} is more than {MAX_TRIALS}")

    command = COMMANDS[args.command]
    mode = str(pick("mode", str))
    if mode not in ("mc", "analytic", "both"):
        raise ValueError(f"mode must be mc|analytic|both, got {mode!r}")
    if command.estimate is None:      # pmf-n draws no trials
        mode = "analytic"
    out = getattr(args, "out", None) or file_cfg.get("output", "-")

    series = command.series(str(pick(command.series_key, str)), cfg, b_tot)
    text = pick(command.grid_key, str)
    if text is None:
        text = command.default_grid
    grid = command.parse_grid(text) if text is not None else (ratio,)
    if not grid:
        raise ValueError(f"{command.grid_key}={text} gives an empty grid")
    for point in grid:
        command.check_point(point)
    return RunSpec(args.command, mode, cfg, grid, series, out, b_tot)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _fmt(x):
    if x is None:
        return ""
    return repr(float(x))


def _column(arrays, token, pair):
    """A series' SINR column in its trial collection."""
    if pair is not None:
        return arrays.lf(*pair)
    return arrays.sinr_ic if token == "icin" else arrays.sinr_nic


def run(spec):
    """Execute the run and return (header, rows, metadata) for CSV output."""
    command = COMMANDS[spec.command]
    grid, series = spec.grid, spec.series
    want_mc = spec.mode in ("mc", "both")
    want_an = spec.mode in ("analytic", "both")

    names = ("mc_mean", "mc_ci95", "analytic_value", "analytic_err")
    header = [command.grid_column, command.value_column]
    header += [f"{s}.{n}" if len(series) > 1 else n for s in series for n in names]

    # the bounds first, so one outside its domain fails before any trial
    bounds = {s: command.analytic[s](spec.cfg, grid)
              for s in series if want_an and s in command.analytic}
    cfgs = [command.config_at(spec.cfg, g) for g in grid]
    pairs = [[command.pair(s, g, spec.b_tot) for s in series] for g in grid]
    # one collection per distinct config serves every cell of it;
    # montecarlo drops the repeated pairs
    wanted = {}
    for cfg, point_pairs in zip(cfgs, pairs):
        wanted.setdefault(cfg, []).extend(p for p in point_pairs if p)
    collections = {cfg: montecarlo.collect_trials(cfg, cfg_pairs)
                   for cfg, cfg_pairs in wanted.items() if want_mc}

    rows = []
    for i, point in enumerate(grid):
        value = command.value(cfgs[i], point)
        row = [str(point), _fmt(value)]       # str: pmf-n's counts are ints
        for s, pair in zip(series, pairs[i]):
            mc_mean = mc_ci = an_val = an_err = None
            if want_mc:
                trials = collections[cfgs[i]]
                est = command.estimate(trials, _column(trials, s, pair), value)
                mc_mean, mc_ci = est.mean, est.ci95_halfwidth
            if s in bounds:
                an_val, an_err = bounds[s][0][i], bounds[s][1][i]
            row.extend([_fmt(mc_mean), _fmt(mc_ci), _fmt(an_val), _fmt(an_err)])
        rows.append(row)
    return header, rows, _metadata(spec)


def _metadata(spec):
    cfg = spec.cfg
    command = COMMANDS[spec.command]
    meta = {
        "artifact": "clusternull",
        "version": __version__,
        "command": spec.command,
        "mode": spec.mode,
        "lambda_b": repr(cfg.lambda_b),
        "ratio": repr(cfg.ratio),
        "alpha": repr(cfg.alpha),
        "snr_db": repr(cfg.snr_db),
        "btot": str(spec.b_tot),
        "trials": str(cfg.trials),
        "seed": str(cfg.seed),
        "window_clusters": repr(cfg.window_cluster_count),
        # pmf-n names its one value column
        command.series_key: ",".join(spec.series) or command.value_column,
    }
    if isinstance(cfg.antenna_mode, FollowN):
        meta["dnt"] = str(cfg.antenna_mode.d_nt)
    else:
        meta["nt"] = str(cfg.antenna_mode.n_t)
    meta[command.grid_key] = command.grid_text(spec.grid)
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


class _Parser(argparse.ArgumentParser):
    """Raises ValueError where argparse would print its usage block and
    exit, so a bad flag gets the one `error:` line of a bad config value.
    add_subparsers builds every subparser with this class too."""

    def error(self, message):
        raise ValueError(message)


def build_parser():
    p = _Parser(
        prog="clusternull",
        description="Coverage/rate evaluation of clustered interference "
                    "nulling in Poisson cellular networks")
    sub = p.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--config", help="flat key=value file (a result CSV works)")
    common.add_argument("--mode", choices=["mc", "analytic", "both"])
    common.add_argument("--lambda-b", dest="lambda_b", type=float)
    common.add_argument("--ratio", type=float)
    common.add_argument("--alpha", type=float)
    common.add_argument("--snr-db", dest="snr_db", type=float)
    common.add_argument("--dnt", type=int, help="antennas follow N: n_t = N + dnt")
    common.add_argument("--nt", type=int, help="fixed antenna count (thresholding)")
    common.add_argument("--btot", type=int)
    common.add_argument("--trials", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--window-clusters", dest="window_clusters", type=float)
    common.add_argument("--out", help="output CSV path ('-' for stdout)")

    sp = sub.add_parser("coverage", parents=[common], help="coverage vs SINR threshold")
    sp.add_argument("--t-db", dest="t_db", help="threshold grid, start:step:stop dB")
    sp.add_argument("--strategy", help="comma list: icin,nic,lf-adaptive,...")

    sp = sub.add_parser("rate", parents=[common],
                        help="average rate (optionally vs ratio grid)")
    sp.add_argument("--ratio-grid", dest="ratio_grid", help="start:step:stop")
    sp.add_argument("--strategy")

    sp = sub.add_parser("rate-loss", parents=[common],
                        help="mean rate loss of limited feedback")
    sp.add_argument("--btot-grid", dest="btot_grid", help="start:step:stop bits")
    sp.add_argument("--policy", help="comma list: adaptive,equal-bias,equal-nobias")

    sp = sub.add_parser("pmf-n", parents=[common], help="interferer-count PMF")
    sp.add_argument("--max-n", dest="max_n", type=int)

    sp = sub.add_parser("sweep", parents=[common],
                        help="rate vs cluster-size ratio, multi-strategy")
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


def _bad_config(exc):
    print(f"error: bad configuration: {exc}", file=sys.stderr)
    return EXIT_CONFIG


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_negative_values(list(argv)))
    except ValueError as exc:
        return _bad_config(exc)
    try:
        file_cfg = load_config(args.config) if args.config else {}
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        spec = _build_spec(args, file_cfg)
    except (ValueError, TypeError) as exc:
        return _bad_config(exc)
    try:
        header, rows, meta = run(spec)
    except DomainError as exc:
        return _bad_config(exc)
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
