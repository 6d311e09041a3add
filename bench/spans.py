"""Spans and counters around the calls into each clusternull layer.

Each timer wraps a name in the module where its caller looks it up (for
example `montecarlo.zf_null_beamformer`, which montecarlo imports by name)
and is reported under the layer that defines it.  Spans live in memory: a
span's self time is its duration minus the durations of the spans it
encloses.  A name a later version of the package no longer has is skipped
and its metrics read 0.
"""

import inspect
import os
import time
from collections import Counter

import numpy as np

# (module the caller looks the name up in, attribute, reported layer name)
TARGETS = (
    ("specfun", "hyp2f1_a1", "specfun.hyp2f1_a1"),
    ("analysis", "fourier_ccdf", "analysis.fourier_ccdf"),
    ("analysis", "coverage_lb_ic", "analysis.coverage_lb_ic"),
    ("analysis", "rate_lb_ic", "analysis.rate_lb_ic"),
    ("analysis", "rate_loss_ub_adaptive", "analysis.rate_loss_ub_adaptive"),
    ("geometry", "sample_typical_cluster", "geometry.sample_typical_cluster"),
    ("geometry", "sample_realization", "geometry.sample_realization"),
    ("geometry", "build_typical_cluster", "geometry.build_typical_cluster"),
    ("geometry", "voronoi_cell", "geometry.voronoi_cell"),
    ("montecarlo", "sample_channels", "channel.sample_channels"),
    ("montecarlo", "zf_null_beamformer", "beamforming.zf_null_beamformer"),
    ("feedback", "adaptive_allocation", "feedback.adaptive_allocation"),
    ("feedback", "sample_rvq_sin2", "feedback.sample_rvq_sin2"),
    ("montecarlo", "run_trial", "montecarlo.run_trial"),
    ("montecarlo", "collect_trials", "montecarlo.collect_trials"),
    ("cli", "run", "cli.run"),
    ("cli", "write_csv", "cli.write_csv"),
)


class Tracer:
    def __init__(self):
        self._stack = []                 # open spans: [name, start, child_s]
        self.calls = Counter()
        self.self_s = Counter()
        self.errors = Counter()          # (name, exception type name)
        self.nested = Counter()          # (enclosing name, name) -> calls
        self.counts = Counter()          # work counters named like metrics
        self.err_ratios = []             # fourier_ccdf achieved error / target
        self.trial_configs = {}          # repr(cfg) -> trials, per collect_trials config
        self._patched = []

    def install(self, modules):
        """Wrap every target found in `modules` (short name -> module)."""
        hooks = {
            "specfun.hyp2f1_a1": self._count_points,
            "analysis.fourier_ccdf": self._fourier_error,
            "montecarlo.collect_trials": self._trial_config,
            "cli.write_csv": self._csv_bytes,
        }
        for mod_name, attr, name in TARGETS:
            mod = modules[mod_name]
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            self._patched.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, hooks.get(name)))

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _wrap(self, fn, name, hook):
        stack = self._stack
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            for enclosing in {frame[0] for frame in stack}:
                self.nested[enclosing, name] += 1
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[name, type(exc).__name__] += 1
                raise
            finally:
                stack.pop()
                duration = time.perf_counter() - frame[1]
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if hook is not None:
                hook(signature.bind(*args, **kwargs), result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- per-target counters ------------------------------------------------

    # A hook that no longer finds its argument (a later signature) skips.

    def _count_points(self, bound, _result):
        z = bound.arguments.get("z")
        if z is not None:
            self.counts["specfun.hyp2f1_a1.points"] += int(np.size(z))

    def _fourier_error(self, bound, result):
        bound.apply_defaults()
        tol = bound.arguments.get("tol")
        if tol:
            self.err_ratios.append(float(result[1]) / float(tol))

    def _trial_config(self, bound, _result):
        cfg = bound.arguments.get("cfg")
        if cfg is not None:
            self.trial_configs[repr(cfg)] = cfg.trials

    def _csv_bytes(self, bound, _result):
        path = bound.arguments.get("path")
        if path not in (None, "-"):
            self.counts["cli.write_csv.bytes"] += os.path.getsize(path)

    # -- report ---------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metric values keyed by their benchmark names."""
        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        for _, _, name in TARGETS:
            m[f"{name}.calls"] = self.calls[name]
            m[f"{name}.self_s"] = self.self_s[name]
        m.update(self.counts)
        for key in ("specfun.hyp2f1_a1.points", "cli.write_csv.bytes"):
            m.setdefault(key, 0)
        m["analysis.fourier_ccdf.err_ratio"] = (
            float(np.median(self.err_ratios)) if self.err_ratios else 0.0)
        m["analysis.coverage_evals_per_rate_bound"] = ratio(
            self.nested["analysis.rate_lb_ic", "analysis.coverage_lb_ic"],
            self.calls["analysis.rate_lb_ic"])
        m["analysis.rate_loss_ub_adaptive.draws_per_point"] = ratio(
            self.nested["analysis.rate_loss_ub_adaptive",
                        "geometry.sample_typical_cluster"],
            self.calls["analysis.rate_loss_ub_adaptive"])
        accepted = (self.calls["geometry.sample_typical_cluster"]
                    - sum(n for (name, _), n in self.errors.items()
                          if name == "geometry.sample_typical_cluster"))
        m["geometry.accepted_per_sampled"] = ratio(
            accepted, self.calls["geometry.sample_realization"])
        m["beamforming.zf_null_beamformer.rank_deficient"] = self.errors[
            "beamforming.zf_null_beamformer", "RankDeficientError"]
        m["montecarlo.draws_per_config_trial"] = ratio(
            self.nested["montecarlo.collect_trials",
                        "geometry.sample_typical_cluster"],
            sum(self.trial_configs.values()))
        m["trace.spans"] = sum(self.calls.values())
        return m

