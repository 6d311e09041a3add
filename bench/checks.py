"""Correctness checks on the CSV outputs of a benchmark round.

Each check returns a list of failure messages (empty when it passes).
None compares against a stored copy of earlier output: the analytic d_nt = 1
values are checked against the independent oracle in `oracle.py`, and
everything else against properties the model guarantees.
"""

import math

import oracle

# The program's outer radius quadrature is coarse: at d_nt = 1 its
# coverage bound sits 3-5e-5 from the converged oracle at the default
# 20x14 nodes and its rate bound 5.3e-4 below it at the 8x6 nodes the
# workload uses.  The tolerances admit that error with margin, so a more
# accurate version of the program still passes.
COVERAGE_TOL = 5e-4
RATE_TOL = 2e-3


def read_csv(path):
    """(metadata, rows) of a clusternull result CSV; empty cells are None."""
    meta, header, rows = {}, None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
            elif header is None:
                header = line.split(",")
            else:
                cells = [float(c) if c else None for c in line.split(",")]
                rows.append(dict(zip(header, cells)))
    return meta, rows


def _finite(x):
    return x is not None and math.isfinite(x)


def _model(meta):
    """(lambda_b, lambda_c, alpha, snr_db) from a CSV's metadata block."""
    lambda_b = float(meta["lambda_b"])
    return (lambda_b, lambda_b / float(meta["ratio"]), float(meta["alpha"]),
            float(meta["snr_db"]))


def check_sweep(path, series):
    """Rates are finite and positive, and limited-feedback nulling never beats
    perfect-CSI nulling: each trial pairs both on one random tape."""
    _, rows = read_csv(path)
    bad = []
    if not rows:
        bad.append(f"{path}: no rows")
    for row in rows:
        for s in series:
            mean, ci = row.get(f"{s}.mc_mean"), row.get(f"{s}.mc_ci95")
            if not (_finite(mean) and mean > 0.0 and _finite(ci) and ci >= 0.0):
                bad.append(f"{path}: ratio {row['ratio']}: {s} rate {mean} +- {ci}")
        lf, ic = row.get("lf-adaptive.mc_mean"), row.get("icin.mc_mean")
        if _finite(lf) and _finite(ic) and lf > ic:
            bad.append(f"{path}: ratio {row['ratio']}: lf-adaptive {lf} > icin {ic}")
    return bad


def check_coverage(path, against_oracle):
    """Values lie in [0, 1] and do not increase with the threshold; with
    `against_oracle` (d_nt = 1 only) each agrees with the oracle."""
    meta, rows = read_csv(path)
    bad = []
    values = [row.get("analytic_value") for row in rows]
    if not rows or not all(_finite(v) and 0.0 <= v <= 1.0 for v in values):
        bad.append(f"{path}: coverage outside [0, 1]: {values}")
        return bad
    order = sorted(rows, key=lambda row: row["t_db"])
    for lo, hi in zip(order, order[1:]):
        if hi["analytic_value"] > lo["analytic_value"]:
            bad.append(f"{path}: coverage rises from {lo['t_db']} to {hi['t_db']} dB")
    if against_oracle:
        model = _model(meta)
        for row in rows:
            ref = oracle.coverage(row["value"], *model)
            if abs(row["analytic_value"] - ref) > COVERAGE_TOL:
                bad.append(f"{path}: t={row['t_db']} dB: bound {row['analytic_value']}"
                           f" vs oracle {ref} (tolerance {COVERAGE_TOL})")
    return bad


def check_rate_bound(value, params):
    """The d_nt = 1 rate bound agrees with the oracle's rate integral."""
    if params["d_nt"] != 1:
        raise ValueError("the oracle covers d_nt = 1 only")
    if not _finite(value):
        return [f"rate bound {value} is not finite"]
    ref = oracle.rate(params["lambda_b"], params["lambda_b"] / params["ratio"],
                      params["alpha"], params["snr_db"])
    if abs(value - ref) > RATE_TOL:
        return [f"rate bound {value} vs oracle {ref} (tolerance {RATE_TOL})"]
    return []


def check_oracle_kernel():
    """The oracle's closed-form exclusion kernel matches its defining integral."""
    bad = []
    for x, s in ((0.3, 2.0), (50.0, 1e7)):
        a, b = oracle.excl_kernel(x, s, 4.0), oracle.excl_kernel_quad(x, s, 4.0)
        if abs(a - b) > 1e-9 * abs(b):
            bad.append(f"oracle kernel A({x}, {s}) = {a} but quadrature gives {b}")
    return bad


def check_rate_loss(mc_path, bound_path, policies):
    """Monte Carlo losses are >= 0 and adaptive beats equal-bias; each bound
    lies above its Monte Carlo mean less the CI; the equal-bias bound does
    not increase with the budget."""
    _, mc_rows = read_csv(mc_path)
    _, bound_rows = read_csv(bound_path)
    bad = []
    if len(mc_rows) != len(bound_rows) or not mc_rows:
        return [f"{mc_path}, {bound_path}: row counts differ or are empty"]
    for mc, bd in zip(mc_rows, bound_rows):
        b_tot = mc["b_tot"]
        for p in policies:
            mean, ci = mc.get(f"{p}.mc_mean"), mc.get(f"{p}.mc_ci95")
            bound = bd.get(f"{p}.analytic_value")
            if not (_finite(mean) and _finite(ci) and _finite(bound)):
                bad.append(f"b_tot={b_tot}: {p}: non-finite {mean}, {ci}, {bound}")
                continue
            if mean < 0.0:
                bad.append(f"b_tot={b_tot}: {p}: negative Monte Carlo loss {mean}")
            if bound < mean - ci:
                bad.append(f"b_tot={b_tot}: {p}: bound {bound} < MC {mean} - {ci}")
        ad, eq = mc.get("adaptive.mc_mean"), mc.get("equal-bias.mc_mean")
        if _finite(ad) and _finite(eq) and not ad < eq:
            bad.append(f"b_tot={b_tot}: adaptive loss {ad} >= equal-bias {eq}")
    eq_bounds = [bd.get("equal-bias.analytic_value") for bd in bound_rows]
    if any(b > a for a, b in zip(eq_bounds, eq_bounds[1:])):
        bad.append(f"equal-bias bound rises with b_tot: {eq_bounds}")
    return bad


def check_identical(path_a, path_b):
    """Two CSVs are byte-identical."""
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        if fa.read() != fb.read():
            return [f"{path_a} and {path_b} differ"]
    return []
