#!/usr/bin/env python3
"""Perf-smoke floor checks for the CI pipeline.

Compares a freshly measured BENCH_1.json (per-alert solve-chain throughput)
against the committed baseline and sanity-checks BENCH_2.json (the scenario
registry replay, the scaling curves, durability, and the network load
runs). Floors are deliberately generous — CI runners are noisy — so only
real regressions (a lost warm-start path, an accidentally quadratic replay)
trip them.

Every check is one row of RULES, judged by one evaluator. Rows are grouped
into named sections selectable with `--sections`, so each CI job gates
exactly the reports it produced. Every row is isolated: a malformed or
truncated report fails the rows it breaks and every other row still prints
its verdict, so one broken file can never mask the rest of the report.
Exit status is non-zero on any violation; every check prints PASS, FAIL or
SKIP so the workflow log reads as a report.
"""

import argparse
import json
import math
import re
import sys

# Each section gates one JSON object: (report, path of the object). A
# section whose object is missing fails `<section>.present` and skips its
# other rows.
SECTIONS = {
    "bench1": ("bench1", ""),
    "lp_kernel": ("bench1", "lp_kernel"),
    "scenarios": ("bench2", ""),
    "durability": ("bench2", "durability"),
    "scaling": ("bench2", "scaling"),
    "service_network": ("bench2", "service_network"),
    "service_chaos": ("bench2", "service_chaos"),
}

# Rule kinds. Paths are relative to the section's object: `a.b` follows
# keys, `a.0` indexes a list, `a[k=v]` picks the list element whose `k` is
# `v`, and `a[*].b` maps the rest of the path over a list.
PRESENT = "present"  # the path exists
TRUE = "hard-true"  # the value is exactly `true`: a correctness flag
# A Python comparison over `$path` (fresh report) and `@path` (committed
# baseline) values, `floor` (the --floor argument), `hit_floor` (the
# BENCH_1 baseline warm-hit rate times floor, or 0.2 without one) and
# len/sum/set/max. Absolute floors, ranges, baseline×floor floors and
# baseline÷floor ceilings are all bounds. A bound naming `@` values is
# skipped when no baseline was given, and fails when the baseline lacks
# them (regenerate it to re-arm the gate). Operators need spaces around
# them.
BOUND = "bound"
# `(cores, floor, needs_parallel)`: the value must exceed `floor` when the
# measuring host has at least `cores` threads (and, for the replay curve,
# the `parallel` build), and prints SKIP otherwise — an honest ~1.0x on a
# small host is a pass.
SPEEDUP = "core-gated speedup"

FEDERATED = ("multi-site", "metro-grid")

RULES = [
    # -- bench1: solve-chain throughput, streaming latency, pruning.
    ("throughput.alerts_per_sec", "bench1", BOUND,
     "$alerts_per_sec >= @alerts_per_sec * floor"),
    ("throughput.warm_start_hit_rate", "bench1", BOUND,
     "$warm_start_hit_rate >= @warm_start_hit_rate * floor"),
    ("throughput.warm_speedup_5type", "bench1", BOUND,
     "$warm_vs_cold_5type.speedup >= 1.0"),
    # A missing or zeroed streaming block means the session ingest path
    # silently stopped being measured. Latency is lower-is-better, so the
    # fresh p99 may be at most 1/floor (4x at the default) of the baseline.
    ("streaming.present", "bench1", PRESENT, "streaming.latency_micros"),
    ("streaming.latency_sane", "bench1", BOUND,
     "0.0 < $streaming.latency_micros.p50 <= $streaming.latency_micros.p99"),
    ("streaming.alerts_per_sec", "bench1", BOUND,
     "$streaming.alerts_per_sec >= @streaming.alerts_per_sec * floor"),
    ("streaming.p99_micros", "bench1", BOUND,
     "$streaming.latency_micros.p99 <= @streaming.latency_micros.p99 / floor"),
    # The pruning skip counters are deterministic, so they are gated
    # tightly: the pruned arm must retire most candidate LPs and the
    # exhaustive arm must still solve one per type (7 on this game). A
    # pruning layer that slows the solver down is a regression even on a
    # noisy runner.
    ("pruning.present", "bench1", PRESENT, "pruning"),
    ("pruning.pruned_lp_fraction", "bench1", BOUND,
     "0.5 <= $pruning.pruned_lp_fraction <= 1.0"),
    ("pruning.exhaustive_arm_is_exhaustive", "bench1", BOUND,
     "$pruning.lp_solves_per_solve_exhaustive > 6.0"),
    ("pruning.speedup", "bench1", BOUND, "$pruning.speedup >= 1.1"),

    # -- lp_kernel: blocked simplex kernel vs the frozen scalar reference,
    # and the certified ε-approximate mode. The committed baseline carries
    # the headline claim (>= 1.5x at 128 types, same Bland pivot sequence,
    # so the ratio is pure per-pivot throughput); the fresh run only needs
    # a noise-scaled floor. The ε counters are deterministic and the
    # certificate (<= ε per solve) is a hard engine guarantee.
    ("lp_kernel.sizes", "lp_kernel", BOUND,
     "{28, 64, 128} <= set($sizes[*].types)"),
    ("lp_kernel.speedup_128_baseline", "lp_kernel", BOUND,
     "@sizes[types=128].speedup >= 1.5"),
    ("lp_kernel.speedup_128", "lp_kernel", BOUND,
     "$sizes[types=128].speedup >= max(1.1, 1.5 * floor)"),
    ("lp_kernel.pivots_128", "lp_kernel", BOUND,
     "$sizes[types=128].pivots_per_lp >= 10.0"),
    ("lp_kernel.epsilon_mode.present", "lp_kernel", PRESENT, "epsilon_mode"),
    ("lp_kernel.epsilon_mode.skips", "lp_kernel", BOUND,
     "$epsilon_mode.skipped_candidate_lps >= 1 and "
     "0.0 < $epsilon_mode.skip_fraction <= 1.0"),
    ("lp_kernel.epsilon_mode.certificate", "lp_kernel", BOUND,
     "0.0 <= $epsilon_mode.worst_day_certified_loss and "
     "$epsilon_mode.total_certified_loss <= "
     "$epsilon_mode.epsilon * $epsilon_mode.solves + 1e-9"),

    # -- scenarios: every registered scenario replays at real throughput.
    # `{name}` rows repeat for every scenario in the fresh report. The
    # throughput floor is absolute — scenarios are free to be heavier than
    # the 7-type BENCH_1 game — and only catches catastrophes like an
    # accidentally quadratic replay. The federated scenarios are what the
    # incremental solve layer exists for: their skip rate is gated, and so
    # is their throughput against the committed baseline.
    ("scenarios.count", "scenarios", BOUND, "len($scenarios) >= 7"),
    ("scenario.{name}.alerts", "scenarios", BOUND,
     "$scenarios[name={name}].alerts > 100"),
    ("scenario.{name}.alerts_per_sec", "scenarios", BOUND,
     "$scenarios[name={name}].alerts_per_sec >= 500.0"),
    ("scenario.{name}.warm_start_hit_rate", "scenarios", BOUND,
     "$scenarios[name={name}].warm_start_hit_rate >= hit_floor"),
    ("scenario.{name}.pruned_lp_fraction_sane", "scenarios", BOUND,
     "0.0 <= $scenarios[name={name}].pruned_lp_fraction < 1.0"),
    *[rule for name in FEDERATED for rule in (
        (f"scenario.{name}.pruned_lp_fraction", "scenarios", BOUND,
         f"$scenarios[name={name}].pruned_lp_fraction >= 0.5"),
        (f"scenario.{name}.alerts_per_sec_vs_baseline", "scenarios", BOUND,
         f"$scenarios[name={name}].alerts_per_sec >= "
         f"@scenarios[name={name}].alerts_per_sec * floor"),
    )],

    # -- durability: a 10k-alert day through the WAL, recovered from the
    # surviving bytes. A recovered day that diverges is a bug regardless of
    # runner noise. fsync-on gets a much lower floor: a barrier per record
    # is disk-bound, and CI disks vary wildly.
    ("durability.alerts", "durability", BOUND, "$alerts >= 10000"),
    ("durability.recovered_bitwise_equal", "durability", TRUE,
     "recovered_bitwise_equal"),
    ("durability.fsync_off_alerts_per_sec", "durability", BOUND,
     "$fsync_off_alerts_per_sec >= 500.0"),
    ("durability.fsync_on_alerts_per_sec", "durability", BOUND,
     "$fsync_on_alerts_per_sec >= 25.0"),
    ("durability.recovery_alerts_per_sec", "durability", BOUND,
     "$recovery_alerts_per_sec >= 500.0"),
    ("durability.recovery_vs_baseline", "durability", BOUND,
     "$recovery_alerts_per_sec >= @recovery_alerts_per_sec * floor"),

    # -- scaling: the replay, service and cluster curves over 1/2/4/8
    # shards. The perf-smoke job always builds with `parallel`, so a
    # missing feature is a CI misconfiguration. A shard count that changes
    # any result bitwise breaks the routing invariant. The service curve's
    # 1-point (inline, no pool) carries the front door's throughput
    # floors. A broken parallel path on >= 4 cores measures ~1.0x; the
    # floors sit well under what a quiet host shows because shared
    # runners are noisy and each leg is only tens of milliseconds.
    ("scaling.parallel_feature", "scaling", TRUE, "parallel_feature"),
    ("scaling.results_identical", "scaling", TRUE, "results_identical"),
    ("scaling.points", "scaling", BOUND,
     "len($points) >= 1 and $points.0.shards == 1"),
    ("scaling.service_alerts", "scaling", BOUND, "$service.alerts > 1000"),
    ("scaling.service_alerts_per_sec", "scaling", BOUND,
     "$points[shards=1].service.alerts_per_sec >= 500.0"),
    ("scaling.service_alerts_per_sec_vs_baseline", "scaling", BOUND,
     "$points[shards=1].service.alerts_per_sec >= "
     "@points[shards=1].service.alerts_per_sec * floor"),
    ("scaling.replay_speedup", "scaling", SPEEDUP,
     "points[shards=4].replay.speedup", (4, 1.3, False)),
    ("scaling.service_speedup", "scaling", SPEEDUP,
     "points[shards=4].service.speedup", (4, 1.3, False)),
    *[(f"scaling.cluster_speedup_{n}shards", "scaling", SPEEDUP,
       f"points[shards={n}].cluster.speedup", (n, 1.2, False))
      for n in (2, 4, 8)],
    *[(f"scaling.replay_speedup_{n}shards", "scaling", SPEEDUP,
       f"points[shards={n}].replay.speedup", (n, 1.2, True))
      for n in (2, 4, 8)],

    # -- service_network: the TCP front door under load (load_gen). The
    # scraped counters either account for every request sent or the
    # observability layer is lying. A sharded run's per-shard slices must
    # add up to the aggregate burst; the shed probe's counters are
    # deterministic.
    ("service_network.metrics_consistent", "service_network", TRUE,
     "metrics_consistent"),
    ("service_network.alerts", "service_network", BOUND, "$alerts > 500"),
    ("service_network.alerts_per_sec", "service_network", BOUND,
     "$alerts_per_sec >= 300.0"),
    ("service_network.latency_sane", "service_network", BOUND,
     "0.0 < $latency_micros.p50 <= $latency_micros.p99"),
    ("service_network.per_shard", "service_network", BOUND,
     "$shards == 1 or (len($per_shard) == $shards and "
     "sum($per_shard[*].alerts) == $alerts)"),
    ("service_network.shed_probe.present", "service_network", PRESENT,
     "shed_probe"),
    ("service_network.shed_probe.sheds", "service_network", BOUND,
     "$shed_probe.shed >= 1 and $shed_probe.served >= 1"),
    ("service_network.shed_probe.retries", "service_network", BOUND,
     "$shed_probe.retried_ok == $shed_probe.shed"),
    ("service_network.alerts_per_sec_vs_baseline", "service_network", BOUND,
     "$alerts_per_sec >= @alerts_per_sec * floor"),
    ("service_network.p99_micros", "service_network", BOUND,
     "$latency_micros.p99 <= @latency_micros.p99 / floor"),

    # -- service_chaos: the front door under injected faults (load_gen
    # --chaos). Exactly-once either holds under faults or the protocol is
    # broken. Goodput gets a low floor: the run spends real wall-clock in
    # backoff sleeps by design.
    ("service_chaos.bitwise_equal", "service_chaos", TRUE, "bitwise_equal"),
    ("service_chaos.recovery_converged", "service_chaos", TRUE,
     "recovery_converged"),
    ("service_chaos.faults_injected", "service_chaos", BOUND,
     "$faults_injected >= 10"),
    ("service_chaos.retries", "service_chaos", BOUND, "$retries >= 1"),
    ("service_chaos.duplicates_suppressed", "service_chaos", BOUND,
     "$duplicates_suppressed + $duplicates_replayed >= 1"),
    ("service_chaos.goodput_alerts_per_sec", "service_chaos", BOUND,
     "$goodput_alerts_per_sec >= 100.0"),
    ("service_chaos.goodput_vs_baseline", "service_chaos", BOUND,
     "$goodput_alerts_per_sec >= @goodput_alerts_per_sec * floor"),
]

REF = re.compile(r"([$@])([\w.\[\]=*-]+)")

failures = []


class Missing(Exception):
    """A path the rule reads is absent."""


def report(status, label, detail):
    print(f"[{status}] {label}: {detail}")
    if status == "FAIL":
        failures.append(label)


def resolve(node, path):
    """Follow `path` from `node` (see the path syntax above)."""
    if not path:
        return node
    step, _, rest = path.partition(".")
    key, _, select = step.partition("[")
    try:
        if key:
            node = node[int(key)] if isinstance(node, list) else node[key]
        if select == "*]":
            return [resolve(item, rest) for item in node]
        if select:
            field, _, want = select[:-1].partition("=")
            node = next(i for i in node if str(i.get(field)) == want)
    except (KeyError, IndexError, TypeError, ValueError, StopIteration):
        raise Missing(path) from None
    return resolve(node, rest)


def show(value):
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, list) and any(isinstance(v, dict) for v in value):
        return f"[{len(value)} rows]"
    return str(value)


def judge(kind, spec, arg, fresh, base, env):
    """Evaluate one rule against the section objects; return
    (status, detail)."""
    if kind == PRESENT:
        resolve(fresh, spec)
        return "PASS", f"report carries {spec}"
    if kind == TRUE:
        value = resolve(fresh, spec)
        return ("PASS" if value is True else "FAIL"), f"{spec} = {show(value)}"
    if kind == SPEEDUP:
        cores, bound, needs_parallel = arg
        value = resolve(fresh, spec)
        threads = resolve(fresh, "threads_available")
        parallel = resolve(fresh, "parallel_feature")
        if threads < cores or (needs_parallel and parallel is not True):
            why = (f"only {threads} thread(s) available for {cores} shards"
                   if threads < cores else "built without `parallel`")
            note = fresh.get("note")
            return "SKIP", (f"{why}, measured {value:.2f}x"
                            + (f" — {note}" if note else ""))
        return ("PASS" if value > bound else "FAIL"), (
            f"{value:.2f}x over {cores} shards (floor {bound}, "
            f"{threads} threads available)")
    # BOUND: values are looked up lazily, so `a or b` may skip what `b`
    # reads.
    if "@" in spec and base is None:
        return None, ""
    seen = {}

    def lookup(doc, path):
        node = fresh if doc == "$" else base
        try:
            value = resolve(node, path)
        except Missing:
            where = "report" if doc == "$" else "committed baseline"
            raise Missing(f"{path} missing from the {where}") from None
        seen[doc + path] = value
        return value

    # The expression is one of RULES' own constants, never report input.
    code = REF.sub(lambda m: f"_ref({m.group(1)!r}, {m.group(2)!r})", spec)
    ok = eval(code, {"__builtins__": {}}, dict(env, _ref=lookup))
    detail = REF.sub(lambda m: show(seen.get(m.group(0), m.group(0))), spec)
    detail = re.sub(r"\b(hit_floor|floor)\b",
                    lambda m: show(env[m.group(1)]), detail)
    return ("PASS" if ok else "FAIL"), detail


def run(selected, docs, bases, env):
    """Evaluate every rule of the selected sections."""
    for section in selected:
        name, root = SECTIONS[section]
        if docs[name] is None:
            continue
        try:
            fresh = resolve(docs[name], root)
        except Missing:
            report("FAIL", f"{section}.present", f"report has no {root}")
            continue
        if root:
            report("PASS", f"{section}.present", f"report carries {root}")
        base = None
        if bases[name] is not None:
            try:
                base = resolve(bases[name], root)
            except Missing:
                base = {}  # every `@` lookup fails: re-arm by regenerating
        for label, rule_section, kind, spec, *arg in RULES:
            if rule_section != section:
                continue
            names = [None]
            if "{name}" in label:
                try:
                    names = [row["name"] for row in fresh["scenarios"]]
                except (KeyError, TypeError) as e:
                    report("FAIL", label, f"no scenario rows: {e!r}")
                    continue
            for row in names:
                row_label, row_spec = label, spec
                if row is not None:
                    row_label = label.replace("{name}", row)
                    row_spec = spec.replace("{name}", row)
                try:
                    status, detail = judge(kind, row_spec,
                                           arg[0] if arg else None,
                                           fresh, base, env)
                except (Missing, TypeError, KeyError) as e:
                    status, detail = "FAIL", f"malformed report: {e}"
                if status:
                    report(status, row_label, detail)


def load_json(path, label):
    """Load a report, charging unreadability to `label` instead of dying."""
    if not path:
        return None
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        report("FAIL", f"{label}.readable", f"{path}: {e}")
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline",
                        help="committed BENCH_1.json baseline "
                             "(required by the bench1 section)")
    parser.add_argument("--throughput",
                        help="freshly measured BENCH_1.json "
                             "(required by the bench1 section)")
    parser.add_argument("--scenarios",
                        help="freshly measured BENCH_2.json (required by "
                             "every section except bench1)")
    parser.add_argument("--scenario-baseline", default=None,
                        help="committed BENCH_2.json baseline (enables "
                             "per-scenario, service and network floors "
                             "against the committed numbers)")
    parser.add_argument("--sections", default=",".join(SECTIONS),
                        help="comma-separated subset of: "
                             + ", ".join(SECTIONS))
    parser.add_argument("--floor", type=float, default=0.25,
                        help="fraction of the baseline the fresh run must "
                             "retain")
    args = parser.parse_args()

    selected = [s.strip() for s in args.sections.split(",") if s.strip()]
    unknown = [s for s in selected if s not in SECTIONS]
    if unknown:
        parser.error(f"unknown section(s): {', '.join(unknown)}")

    needs_bench1 = any(SECTIONS[s][0] == "bench1" for s in selected)
    needs_scenarios = any(SECTIONS[s][0] == "bench2" for s in selected)
    if needs_bench1 and not (args.baseline and args.throughput):
        parser.error("the bench1 and lp_kernel sections need --baseline "
                     "and --throughput")
    if needs_scenarios and not args.scenarios:
        parser.error("every section except bench1/lp_kernel needs "
                     "--scenarios")

    bases = {
        "bench1": load_json(args.baseline, "bench1") if needs_bench1 else None,
        "bench2": load_json(args.scenario_baseline, "scenario_baseline"),
    }
    docs = {
        "bench1": load_json(args.throughput, "bench1") if needs_bench1 else None,
        "bench2": (load_json(args.scenarios, "scenarios")
                   if needs_scenarios else None),
    }
    if bases["bench1"] is None:
        docs["bench1"] = None  # every bench1 floor is relative to it
    try:
        hit_floor = bases["bench1"]["warm_start_hit_rate"] * args.floor
    except (KeyError, TypeError):
        hit_floor = 0.2
    env = {"floor": args.floor, "hit_floor": hit_floor, "inf": math.inf,
           "len": len, "sum": sum, "set": set, "max": max}
    run(selected, docs, bases, env)

    if failures:
        print(f"\n{len(failures)} perf floor(s) violated: "
              f"{', '.join(failures)}")
        return 1
    print("\nall perf floors hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
