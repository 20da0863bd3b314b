"""Arithmetic of the repo benchmark: percentiles, ratios, span self time,
and the per-layer / end-to-end metric builders. Pure functions, so
perfbench/test_perfbench.py can check them without building anything."""

import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Timings report p50 and this high percentile. It needs at least
# MIN_BEYOND samples above it, so a timing needs >= MIN_BEYOND / (1 - 0.9)
# samples; the replay takes 120 per layer.
HIGH_PERCENTILE = 90
MIN_BEYOND = 10


def samples_beyond(n, pct):
    """How many of n samples lie strictly above the pct-th percentile."""
    return n - math.ceil(n * pct / 100.0)


def percentile_allowed(n, pct):
    return n > 0 and samples_beyond(n, pct) >= MIN_BEYOND


def percentile(values, pct):
    """Nearest-rank percentile (the ceil(n * pct / 100)-th smallest value)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * pct / 100.0))
    return ordered[rank - 1]


def high_percentile(values):
    """The HIGH_PERCENTILE value; refuses a sample too small for the rule."""
    if not percentile_allowed(len(values), HIGH_PERCENTILE):
        raise ValueError(
            f"p{HIGH_PERCENTILE} needs {MIN_BEYOND} samples beyond it; got {len(values)} samples")
    return percentile(values, HIGH_PERCENTILE)


def ratio(value, base):
    """value / base; a ratio without a positive base is an error, not 0."""
    if base is None or base <= 0:
        raise ValueError(f"ratio base must be positive, got {base!r}")
    return value / base


def spread(values):
    """Inter-quartile range over the median (the benchmark's stability rule)."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def self_times(spans):
    """Self time (ns) per span id: duration minus the part of it covered by
    its direct children (children never overlap: the replay is sequential)."""
    covered = {}
    for span in spans:
        parent = span["parent"]
        if parent >= 0:
            covered[parent] = covered.get(parent, 0) + span["end_ns"] - span["start_ns"]
    return {span["id"]: span["end_ns"] - span["start_ns"] - covered.get(span["id"], 0)
            for span in spans}


def group_spans(spans):
    """name -> list of (duration_ns, work)."""
    out = {}
    for span in spans:
        out.setdefault(span["name"], []).append((span["end_ns"] - span["start_ns"], span["work"]))
    return out


def rates(samples):
    """Per-span work per second (work units / s)."""
    return [work / (dur / 1e9) for dur, work in samples if dur > 0]


def durations(samples, unit_ns):
    return [dur / unit_ns for dur, _ in samples]


# (span name, metric stem, unit, ns per unit) for the timings reported as
# <stem>.p50 / <stem>.p90.
TIMINGS = [
    ("training.step", "training.step_ms", "ms", 1e6),
    ("storage.capture", "storage.capture_ms", "ms", 1e6),
    ("storage.commit", "storage.commit_us", "us", 1e3),
    ("storage.delta_build", "storage.delta_build_ms", "ms", 1e6),
    ("storage.delta_append", "storage.delta_append_us", "us", 1e3),
    ("storage.materialize", "storage.materialize_ms", "ms", 1e6),
    ("storage.persistent_save", "storage.persistent_save_ms", "ms", 1e6),
    ("replicator.reprotect", "replicator.reprotect_ms", "ms", 1e6),
    ("placement.build", "placement.build_ms", "ms", 1e6),
    ("training.profile", "training.profile_ms", "ms", 1e6),
    ("schedule.frequency", "schedule.frequency_ms", "ms", 1e6),
    ("obs.audit", "obs.audit_us", "us", 1e3),
]

# (span name, metric, unit, scale) for throughputs: median of per-span rates.
THROUGHPUTS = [
    ("sim.batch", "sim.events_per_s", "1/s", 1.0),
    ("training.step", "training.step_mb_s", "MB/s", 1e-6),
    ("storage.capture", "storage.capture_mb_s", "MB/s", 1e-6),
    ("storage.verify", "storage.verify_mb_s", "MB/s", 1e-6),
    ("storage.serialize", "storage.serialize_mb_s", "MB/s", 1e-6),
    ("storage.deserialize", "storage.deserialize_mb_s", "MB/s", 1e-6),
    ("ceiling.memcpy", "ceiling.memcpy_mb_s", "MB/s", 1e-6),
    ("ceiling.crc", "ceiling.crc_mb_s", "MB/s", 1e-6),
]

# Stage throughput over the ceiling measured in the same binary on the same
# shard size and shard count: (metric, numerator, base).
CEILING_RATIOS = [
    ("storage.capture_vs_memcpy", "storage.capture_mb_s", "ceiling.memcpy_mb_s"),
    ("storage.verify_vs_crc", "storage.verify_mb_s", "ceiling.crc_mb_s"),
]

# Registry counts copied from the untraced replicate: (metric, counter, better).
COUNTS = [
    ("kv.proposals", "kv.proposals", "lower"),
    ("agent.keepalives", "agent.keepalives", "lower"),
    ("agent.root_scans", "agent.root_scans", "lower"),
    ("cpu_store.commits", "cpu_store.commits", "lower"),
    ("compaction.folds", "compaction.folds", "lower"),
    ("persistent.saves", "persistent.saves", "lower"),
    ("persistent.delta_saves", "persistent.delta_saves", "lower"),
    ("system.recoveries.local_cpu", "system.recoveries.local_cpu", "higher"),
    ("system.recoveries.remote_cpu", "system.recoveries.remote_cpu", "higher"),
    ("system.recoveries.persistent", "system.recoveries.persistent", "lower"),
    ("replicator.retries", "replicator.retries", "lower"),
    ("obs.trace_records", "obs.trace_records", "lower"),
]

MINUTES_PER_HOUR = 60.0


def control_plane_samples(groups):
    """(kvstore ms/sim-h samples, agent ms/sim-h samples). The agent figure is
    an idle created system's minute minus the median idle KV minute."""
    kv = durations(groups["kvstore.sim_minute"], 1e6)
    system = durations(groups["system.sim_minute"], 1e6)
    kv_median = statistics.median(kv)
    return ([m * MINUTES_PER_HOUR for m in kv],
            [(m - kv_median) * MINUTES_PER_HOUR for m in system])


def layer_metrics(spans, untraced, facts, wall_on, wall_off, num_machines):
    """Every per-layer metric as {name: (value, unit)}.

    spans: span dicts from the spans-on replays; untraced: one untraced
    replicate's record (counts, train_s, sim_hours); facts: the replay's
    simulated schedule facts; wall_on / wall_off: replay wall seconds with
    spans on / off."""
    groups = group_spans(spans)
    out = {}
    for span, stem, unit, ns in TIMINGS:
        values = durations(groups[span], ns)
        out[stem + ".p50"] = (statistics.median(values), unit)
        out[f"{stem}.p{HIGH_PERCENTILE}"] = (high_percentile(values), unit)
    kv_ms_h, agent_ms_h = control_plane_samples(groups)
    for stem, values in (("kvstore.host_ms_per_sim_hour", kv_ms_h),
                         ("agent.host_ms_per_sim_hour", agent_ms_h)):
        out[stem + ".p50"] = (statistics.median(values), "ms")
        out[f"{stem}.p{HIGH_PERCENTILE}"] = (high_percentile(values), "ms")
    for span, metric, unit, scale in THROUGHPUTS:
        out[metric] = (statistics.median(rates(groups[span])) * scale, unit)
    for metric, numerator, base in CEILING_RATIOS:
        out[metric] = (ratio(out[numerator][0], out[base][0]), "ratio")

    counts = untraced["counts"]
    for metric, counter, _ in COUNTS:
        out[metric] = (counts[counter], "count")
    commits = counts["cpu_store.commits"] + counts["cpu_store.delta_commits"]
    out["storage.delta_commit_ratio"] = (ratio(counts["cpu_store.delta_commits"], commits),
                                         "ratio")
    out["recovery.preempted_ratio"] = (ratio(counts["system.recoveries.preempted"],
                                             counts["system.recoveries"]), "ratio")
    out["schedule.ckpt_interval_iters"] = (facts["schedule.ckpt_interval_iters"], "count")
    out["schedule.transmission_s"] = (facts["schedule.transmission_s"], "sim_s")

    out["sim_hours_per_s"] = (ratio(untraced["sim_hours"], untraced["train_s"]), "sim_h/s")
    out["trace.coverage"] = (coverage(spans, groups, untraced, num_machines), "ratio")
    on, off = statistics.median(wall_on), statistics.median(wall_off)
    out["trace.overhead_pct"] = (100.0 * (on - off) / off, "%")
    return out


def coverage(spans, groups, untraced, num_machines):
    """Replayed layers' self time per simulated hour over the untraced host
    seconds per simulated hour. Per-call self time comes from the spans; how
    many calls a simulated hour makes comes from the untraced run's counts."""
    selfs = self_times(spans)
    mean_self = {}
    for span in spans:
        mean_self.setdefault(span["name"], []).append(selfs[span["id"]])
    mean_self = {name: statistics.fmean(v) / 1e9 for name, v in mean_self.items()}
    counts = untraced["counts"]
    hours = untraced["sim_hours"]
    incremental = counts["cpu_store.delta_commits"] > 0
    captures = (counts["system.cpu_checkpoint_commits"] +
                counts["system.persistent_checkpoints"]) * num_machines
    calls = {
        "training.step": counts["trainer.steps"],
        "storage.capture": captures,
        "storage.commit": counts["cpu_store.commits"],
        "storage.delta_append": counts["cpu_store.delta_commits"],
        "storage.delta_build": (counts["system.cpu_checkpoint_commits"] * num_machines +
                                counts["persistent.delta_saves"]) if incremental else 0,
        "storage.persistent_save": counts["persistent.saves"] + counts["persistent.delta_saves"],
        "storage.verify": counts["system.recoveries"] * num_machines,
        "replicator.reprotect": counts["system.reprotections"],
        "obs.audit": counts["obs.audits"],
    }
    per_hour = sum(mean_self[name] * n for name, n in calls.items()) / hours
    # The idle system minute already holds the KV and agent work.
    per_hour += mean_self["system.sim_minute"] * MINUTES_PER_HOUR
    untraced_per_hour = untraced["train_s"] / hours
    return ratio(per_hour, untraced_per_hour)


def outcomes(record):
    """Simulated end-to-end outcomes of one replicate record."""
    recoveries = record["recovery_records"]
    if not recoveries:
        raise ValueError("no recoveries to average")
    n = len(recoveries)
    in_memory = sum(1 for r in recoveries
                    if r["source"] in ("local_cpu_memory", "remote_cpu_memory"))
    sim = record["sim"]
    return {
        "iteration_time_ratio": sim["iteration_time_ratio"],
        "effective_ratio": sim["effective_ratio"],
        "wasted_s_mean": sum(r["wasted_s"] for r in recoveries) / n,
        "downtime_s_mean": sum(r["downtime_s"] for r in recoveries) / n,
        "in_memory_recovery_ratio": in_memory / n,
        "recoveries": n,
        "ckpt_overhead_pct": sim["ckpt_overhead_pct"],
    }
