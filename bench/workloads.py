"""The operations of one benchmark round, built from the workload seed.

Every operation is what a user runs: a `clusternull` CLI command with the
README's flag syntax, or (for the rate bound only) the public
`analysis.rate_lb_ic` call at reduced radius nodes.  Round r of a run with
seed s passes `--seed s*1000 + r` to every command, so repeated Monte Carlo
rounds draw fresh trials and no round can reuse another's results.  The
analytic operations take no random input: their thresholds and configs are
fixed, which keeps their cost identical from seed to seed.
"""

from dataclasses import dataclass, field

WORKLOADS = ("mc-sweep", "analytic", "rate-loss")

# Sharp regime: lambda_b = 1e-4 (station spacing ~100), default SNR.
SHARP = ("--lambda-b", "1e-4")
# Plateau regime, where the rate-loss machinery is well conditioned.
PLATEAU = ("--lambda-b", "1", "--snr-db", "20")

SWEEP_RATIOS = (1, 2, 3, 4, 5, 6)
SWEEP_SERIES = ("icin", "nic", "lf-adaptive")
SWEEP_TRIALS = 100
COVERAGE_T_DB = (0.0, 5.0)
LOSS_BTOT = (20, 40)
LOSS_POLICIES = ("adaptive", "equal-bias")
LOSS_TRIALS = 150
# Rate bound: the README's `rate --mode analytic --dnt 1` config in the
# plateau regime.  At the default 16x10 radius nodes it takes ~54 s and
# would not fit a run, so the public call runs at 8x6 nodes (~23 s).
RATE_BOUND = {"lambda_b": 1.0, "ratio": 3.0, "alpha": 4.0, "snr_db": 20.0,
              "d_nt": 1, "n_r0": 8, "n_rm": 6}
# 1-vs-2-worker identity: 70 trials split into blocks of 64 and 6, so the
# second worker really runs.
DETERMINISM_TRIALS = 70


@dataclass
class Op:
    name: str                  # unique within a round; names the output file
    argv: tuple = ()           # CLI arguments without --out; empty for the rate bound
    points: int = 1            # grid points (CSV data rows) it produces
    mc_results: int = 0        # (config, series, trial) entries it produces
    params: dict = field(default_factory=dict)

    @property
    def is_cli(self):
        return bool(self.argv)


def round_seed(seed, r):
    return seed * 1000 + r


def _csv_list(values):
    return ",".join(str(v) for v in values)


def _sweep(seed, ratios, trials, name="sweep"):
    argv = ("sweep", "--mode", "mc", "--nt", "12", *SHARP,
            "--ratio-grid", _csv_list(ratios), "--strategy", _csv_list(SWEEP_SERIES),
            "--trials", str(trials), "--seed", str(seed))
    return Op(name, argv, points=len(ratios),
              mc_results=len(ratios) * len(SWEEP_SERIES) * trials)


def _loss(seed, mode, btot, trials=None, name=None):
    argv = ("rate-loss", "--mode", mode, *PLATEAU, "--dnt", "5", "--ratio", "3",
            "--policy", _csv_list(LOSS_POLICIES), "--btot-grid", _csv_list(btot),
            "--seed", str(seed))
    mc = 0
    if trials is not None:
        argv += ("--trials", str(trials))
        mc = len(btot) * len(LOSS_POLICIES) * trials
    return Op(name or f"loss-{mode}", argv, points=len(btot), mc_results=mc)


def round_ops(workload, seed, r):
    """The operations of round r, in execution order."""
    s = round_seed(seed, r)
    if workload == "mc-sweep":
        return [_sweep(s, SWEEP_RATIOS, SWEEP_TRIALS)]
    if workload == "analytic":
        t_db = _csv_list(COVERAGE_T_DB)
        return [
            Op("coverage-dnt1", ("coverage", "--mode", "analytic", "--dnt", "1",
                                 *SHARP, "--t-db", t_db, "--seed", str(s)),
               points=len(COVERAGE_T_DB)),
            Op("coverage-nt12", ("coverage", "--mode", "analytic", "--nt", "12",
                                 *SHARP, "--t-db", t_db, "--seed", str(s)),
               points=len(COVERAGE_T_DB)),
            Op("rate-bound", params=dict(RATE_BOUND)),
        ]
    if workload == "rate-loss":
        return [_loss(s, "mc", LOSS_BTOT, LOSS_TRIALS),
                _loss(s, "analytic", LOSS_BTOT)]
    raise ValueError(f"unknown workload {workload!r}")


def determinism_op(workload, seed):
    """One reduced Monte Carlo command compared at 1 and 2 workers, or None."""
    if workload == "mc-sweep":
        return _sweep(seed, (2, 5), DETERMINISM_TRIALS, name="determinism")
    if workload == "rate-loss":
        return _loss(seed, "mc", LOSS_BTOT[:1], DETERMINISM_TRIALS,
                     name="determinism")
    return None
