#!/usr/bin/env python3
"""CI perf-regression gate over the committed BENCH_*.json baselines.

Compares a freshly generated bench JSON (a `--smoke` run of
`exp_throughput` / `exp_backends`) against the committed baseline of the
same schema. The bench box and CI hardware differ, so the gate splits
fields by nature:

* **deterministic work counts** (`reports`) and **bytes** (`acc_bytes`
  of the backends grid, `population_bytes` of every throughput row: the
  population's heap counted by capacity) are pure functions of (code,
  n, d, k, seed) and must match the baseline **exactly** — any drift is
  a semantic change that must be reviewed via a baseline regeneration,
  not slipped in silently;
* **wall-clock** (`elapsed_s`) is the median of a row's three timed
  repetitions, each a whole run after one untimed warm-up
  (`exp_throughput` also records `repeats` and `elapsed_spread_s`, the
  slowest minus the fastest repetition). It is compared **loosely**: a
  fresh row may be up to --wall-factor x slower than its baseline row
  before the gate fires (default 10x — generous across hardware, still catches
  order-of-magnitude regressions). Rows where BOTH sides sit under
  --wall-floor seconds are below the clock's useful resolution: their
  ratio is meaningless (a near-zero baseline maps any fresh value to
  ~inf), so the ratio is skipped instead of spuriously failing as SLOW.

Rows are matched by identity key (throughput: engine/n/d/mode/workers;
backends: backend/n/d). Baseline rows without a fresh counterpart are
reported as "not measured" and ignored (the smoke grid is a subset of
the full grid); fresh rows without a baseline are reported as NEW and
pass (adding coverage is not a regression) — but at least one row must
match per engine/backend, otherwise the comparison is vacuous and the
gate fails.

Scenario-engine rows and batched (`mode` parallel) event rows
additionally carry a per-stage wall-clock decomposition (`stage_emit_s`
/ `stage_merge_s` / `stage_ingest_s`, on sequential and parallel
scenario rows alike). On parallel rows, emit is the shard
fan-out including the fault pre-walk's tally of honest residue verdicts
and routing each Byzantine fabrication to its recipient's roster shard,
merge is the pool phase (per roster shard, the fabrication merge and the
checked ladder, fused, plus the residue verdict corrections of the
clients an accepted fabrication impersonated), and ingest is
registration plus the serial absorb of tallies and folds and the period
close; on sequential rows merge is zero and ingest is the whole checked
ladder. On batched event rows emit is the pool phase (client build and
span walk per shard), merge is zero, and ingest is registration plus
the serial absorb and period close. Sequential and live event rows carry
no stages and are exempt. Every **fresh** staged row must carry all three — a missing field means the bench silently stopped
attributing time — and their sum, taken from the same median
repetition as `elapsed_s`, must land within 20% of `elapsed_s`
(unattributed time hiding outside the stage timers is exactly the kind
of regression the decomposition exists to surface). The sum check is
skipped below --wall-floor, where the residue is clock noise; presence
is still required.

Fresh **batched** staged rows (`mode` parallel, scenario and event
alike) further split the emission stage into the sub-stages of the shard
whose emission finished last: `stage_build_s` (client build),
`stage_prewalk_s` (the fault pre-walk), `stage_fabricate_s` (Byzantine
fabrications) and `stage_span_walk_s` (the span walk); the event engine
has no fault layer, so its pre-walk and fabrication stay zero. All four
must be present, and
since they time part of the emission stage, their sum must not exceed
`stage_emit_s` by more than the same 20% (skipped below --wall-floor).

`--self-test` runs the built-in unit checks (including the wall-clock
floor) on synthetic data and exits; CI runs it before trusting the gate.

Exit status: 0 = pass, 1 = regression (a readable delta table is
printed either way).
"""

import argparse
import json
import sys

KINDS = {
    "throughput": {
        "key": ("engine", "n", "d", "mode", "workers"),
        "exact": ("reports", "population_bytes"),
        "loose": ("elapsed_s",),
        "group": "engine",
        # Scenario rows and batched event rows must decompose their
        # wall-clock into stages; the stage sum is validated against
        # elapsed_s (see module doc). Each (engine, mode) pair names the
        # staged rows, None matching every mode.
        "stages": {
            "rows": (("scenario", None), ("event", "parallel")),
            "fields": ("stage_emit_s", "stage_merge_s", "stage_ingest_s"),
            "tolerance": 0.20,
            # Batched rows split emission further; the parts sum to at
            # most the emission stage.
            "parts_of": "stage_emit_s",
            "parts": (
                "stage_build_s",
                "stage_prewalk_s",
                "stage_fabricate_s",
                "stage_span_walk_s",
            ),
            "parts_mode": "parallel",
        },
    },
    "backends": {
        "key": ("backend", "n", "d"),
        "exact": ("reports", "acc_bytes"),
        "loose": ("elapsed_s",),
        "group": "backend",
    },
}


def row_key(row, fields):
    return tuple(row[f] for f in fields)


def is_staged(row, spec):
    """Whether `row` must carry the stage decomposition of spec["stages"]."""
    return any(
        row.get(spec["group"]) == group and mode in (None, row.get("mode"))
        for group, mode in spec["stages"]["rows"]
    )


def fmt_key(key):
    return "/".join(str(k) for k in key)


def compare(baseline, fresh, spec, wall_factor, wall_floor):
    """Differences fresh["results"] against baseline["results"].

    Returns (table, regressions, missing_groups): the printable delta
    rows, the number of failing comparisons, and the identity groups the
    comparison never matched (vacuous coverage).
    """
    base_rows = {row_key(r, spec["key"]): r for r in baseline["results"]}
    fresh_rows = {row_key(r, spec["key"]): r for r in fresh["results"]}

    table = []
    regressions = 0
    matched_groups = set()

    for key, frow in fresh_rows.items():
        # Stage-decomposition checks are self-consistency checks on the
        # FRESH row alone, so they run before (and regardless of)
        # baseline matching — a NEW row with broken stage timings is
        # still broken.
        stages = spec.get("stages")
        if stages is not None and is_staged(frow, spec):
            absent = [f for f in stages["fields"] if f not in frow]
            if absent:
                regressions += 1
                table.append(
                    (
                        fmt_key(key),
                        "stages",
                        "-",
                        "absent: " + ",".join(absent),
                        "-",
                        "MISSING-STAGES",
                    )
                )
            else:
                total = sum(frow[f] for f in stages["fields"])
                elapsed = frow["elapsed_s"]
                if elapsed < wall_floor:
                    # Sub-resolution rows: the unattributed residue is
                    # clock noise, so only presence is enforced above.
                    table.append(
                        (
                            fmt_key(key),
                            "stages",
                            f"{elapsed:.4f}",
                            f"{total:.4f}",
                            "-",
                            "ok (sub-floor)",
                        )
                    )
                else:
                    drift = abs(total - elapsed) / elapsed
                    status = "ok" if drift <= stages["tolerance"] else "STAGE-SUM-DRIFT"
                    if drift > stages["tolerance"]:
                        regressions += 1
                    table.append(
                        (
                            fmt_key(key),
                            "stages",
                            f"{elapsed:.4f}",
                            f"{total:.4f}",
                            f"{drift * 100:.1f}%",
                            status,
                        )
                    )
            if frow.get("mode") == stages["parts_mode"]:
                regressions += check_parts(table, key, frow, stages, wall_floor)

        brow = base_rows.get(key)
        if brow is None:
            table.append((fmt_key(key), "-", "-", "-", "-", "NEW"))
            continue
        matched_groups.add(frow[spec["group"]])
        for field in spec["exact"]:
            b, f_ = brow[field], frow[field]
            status = "ok" if b == f_ else "EXACT-MISMATCH"
            if b != f_:
                regressions += 1
            table.append(
                (fmt_key(key), field, str(b), str(f_), str(f_ - b), status)
            )
        for field in spec["loose"]:
            b, f_ = brow[field], frow[field]
            if b < wall_floor and f_ < wall_floor:
                # Both sides are under the wall-clock floor: the ratio
                # of two sub-resolution timings is noise (and a
                # near-zero baseline would map to inf → spurious SLOW).
                table.append(
                    (
                        fmt_key(key),
                        field,
                        f"{b:.4f}",
                        f"{f_:.4f}",
                        "-",
                        "ok (sub-floor)",
                    )
                )
                continue
            ratio = f_ / b if b > 0 else float("inf")
            status = "ok" if ratio <= wall_factor else "SLOW"
            if ratio > wall_factor:
                regressions += 1
            table.append(
                (fmt_key(key), field, f"{b:.4f}", f"{f_:.4f}", f"{ratio:.2f}x", status)
            )

    unmeasured = [k for k in base_rows if k not in fresh_rows]
    for key in unmeasured:
        table.append((fmt_key(key), "-", "-", "-", "-", "not measured"))

    groups = {r[spec["group"]] for r in baseline["results"]}
    missing_groups = groups - matched_groups
    return table, regressions, missing_groups


def check_parts(table, key, frow, stages, wall_floor):
    """Checks a batched staged row's emission sub-stages: all present,
    and summing to at most the emission stage plus the tolerance.
    Appends to `table` and returns the number of regressions."""
    absent = [f for f in stages["parts"] if f not in frow]
    if absent:
        table.append(
            (fmt_key(key), "sub-stages", "-", "absent: " + ",".join(absent), "-", "MISSING-STAGES")
        )
        return 1
    whole = frow.get(stages["parts_of"], 0.0)
    total = sum(frow[f] for f in stages["parts"])
    if frow["elapsed_s"] < wall_floor:
        table.append(
            (fmt_key(key), "sub-stages", f"{whole:.4f}", f"{total:.4f}", "-", "ok (sub-floor)")
        )
        return 0
    excess = (total - whole) / whole if whole > 0 else float("inf")
    failed = excess > stages["tolerance"]
    table.append(
        (
            fmt_key(key),
            "sub-stages",
            f"{whole:.4f}",
            f"{total:.4f}",
            f"{excess * 100:+.1f}%",
            "SUBSTAGE-SUM-EXCEEDS" if failed else "ok",
        )
    )
    return int(failed)


def print_table(table):
    header = ("row", "field", "baseline", "fresh", "delta", "status")
    widths = [
        max(len(h), *(len(row[i]) for row in table)) if table else len(h)
        for i, h in enumerate(header)
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for row in table:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def self_test():
    """Unit checks of the gate logic itself on synthetic data."""
    spec = KINDS["throughput"]

    def rows(*triples):
        return {
            "results": [
                {
                    "engine": e,
                    "n": 1,
                    "d": 1,
                    "mode": "sequential",
                    "workers": w,
                    "reports": r,
                    "population_bytes": 4096,
                    "elapsed_s": s,
                }
                for (e, w, r, s) in triples
            ]
        }

    # 1. Identical data passes.
    base = rows(("event", 0, 100, 1.0))
    _, reg, missing = compare(base, base, spec, 10.0, 0.05)
    assert reg == 0 and not missing, "identical data must pass"

    # 2. An exact-field drift fires.
    doctored = rows(("event", 0, 101, 1.0))
    _, reg, _ = compare(base, doctored, spec, 10.0, 0.05)
    assert reg == 1, "exact mismatch must fire"

    # 2b. So does a population-bytes drift (say, a heap vector per user
    #     coming back), with the work count unchanged.
    grown = rows(("event", 0, 100, 1.0))
    grown["results"][0]["population_bytes"] += 32
    table, reg, _ = compare(base, grown, spec, 10.0, 0.05)
    assert reg == 1 and any(
        r[1] == "population_bytes" and r[5] == "EXACT-MISMATCH" for r in table
    ), "population_bytes mismatch must fire"

    # 3. A >factor wall-clock regression fires.
    slow = rows(("event", 0, 100, 20.0))
    _, reg, _ = compare(base, slow, spec, 10.0, 0.05)
    assert reg == 1, "10x+ slowdown must fire"

    # 4. The wall-clock floor: a near-zero baseline row used to map any
    #    fresh timing to ratio=inf and fail as SLOW; with both sides
    #    under the floor the ratio is skipped.
    tiny_base = rows(("event", 0, 100, 0.0))
    tiny_fresh = rows(("event", 0, 100, 0.002))
    table, reg, _ = compare(tiny_base, tiny_fresh, spec, 10.0, 0.05)
    assert reg == 0, "sub-floor rows must not fail as SLOW"
    assert any(r[5] == "ok (sub-floor)" for r in table), "floor must be reported"
    # ... even at ratios far beyond the factor, as long as both sit
    # under the floor.
    tiny_fresh = rows(("event", 0, 100, 0.049))
    _, reg, _ = compare(tiny_base, tiny_fresh, spec, 10.0, 0.05)
    assert reg == 0, "sub-floor ratio must be skipped regardless of magnitude"
    # But a fresh timing ABOVE the floor against a near-zero baseline is
    # a real order-of-magnitude regression and must still fire.
    grown = rows(("event", 0, 100, 1.0))
    _, reg, _ = compare(tiny_base, grown, spec, 10.0, 0.05)
    assert reg == 1, "above-floor fresh vs near-zero baseline must fire"

    # 5. NEW rows pass; a fully unmatched group is vacuous.
    extra = rows(("event", 0, 100, 1.0), ("event", 4, 50, 0.5))
    _, reg, missing = compare(base, extra, spec, 10.0, 0.05)
    assert reg == 0 and not missing, "NEW rows must pass"
    other = rows(("scenario", 0, 100, 1.0))
    _, _, missing = compare(base, other, spec, 10.0, 0.05)
    assert missing == {"event"}, "unmatched group must be reported vacuous"

    # 6. Scenario stage decomposition. A fresh scenario row must carry
    #    all three stage fields and their sum must land within the
    #    tolerance of elapsed_s; event rows are exempt.
    def scen_rows(elapsed, emit=None, merge=None, ingest=None):
        data = rows(("scenario", 1, 100, elapsed))
        r = data["results"][0]
        if emit is not None:
            r["stage_emit_s"] = emit
            r["stage_merge_s"] = merge
            r["stage_ingest_s"] = ingest
        return data

    staged = scen_rows(1.0, emit=0.5, merge=0.1, ingest=0.38)  # sum 0.98
    _, reg, missing = compare(staged, staged, spec, 10.0, 0.05)
    assert reg == 0 and not missing, "consistent stage sum must pass"

    doctored_sum = scen_rows(1.0, emit=0.2, merge=0.1, ingest=0.1)  # sum 0.4
    table, reg, _ = compare(staged, doctored_sum, spec, 10.0, 0.05)
    assert reg == 1, "stage sum drifting 60% off elapsed_s must fire"
    assert any(r[5] == "STAGE-SUM-DRIFT" for r in table), "drift must be labelled"

    stageless = scen_rows(1.0)  # scenario row with no stage fields at all
    table, reg, _ = compare(staged, stageless, spec, 10.0, 0.05)
    assert reg == 1, "a scenario row missing its stage fields must fire"
    assert any(r[5] == "MISSING-STAGES" for r in table), "absence must be labelled"

    tiny_staged = scen_rows(0.004, emit=0.0, merge=0.0, ingest=0.0)
    _, reg, _ = compare(tiny_staged, tiny_staged, spec, 10.0, 0.05)
    assert reg == 0, "sub-floor rows must skip the stage-sum ratio"

    # Sequential event rows carry no stages and must stay exempt — and
    # the stage check applies to NEW fresh rows too (no baseline needed).
    table, reg, _ = compare(staged, rows(("event", 0, 100, 1.0)), spec, 10.0, 0.05)
    assert reg == 0, "sequential event rows are exempt from stage checks"
    table, reg, _ = compare(
        rows(("event", 0, 100, 1.0)), stageless, spec, 10.0, 0.05
    )
    assert reg == 1 and any(
        r[5] == "MISSING-STAGES" for r in table
    ), "NEW scenario rows are still stage-checked"

    # 7. Emission sub-stages on batched (parallel) scenario rows: all
    #    four present, summing to at most stage_emit_s plus the
    #    tolerance. Sequential rows carry none and need none.
    def batched(elapsed, parts):
        data = scen_rows(elapsed, emit=0.5, merge=0.1, ingest=0.38)
        r = data["results"][0]
        r["mode"] = "parallel"
        names = ("stage_build_s", "stage_prewalk_s", "stage_fabricate_s", "stage_span_walk_s")
        for name, value in zip(names, parts):
            r[name] = value
        return data

    split = batched(1.0, (0.2, 0.2, 0.0, 0.08))  # 0.48 of 0.5
    table, reg, _ = compare(split, split, spec, 10.0, 0.05)
    assert reg == 0, "sub-stages within the emission stage must pass"

    unsplit = batched(1.0, (0.2, 0.2))  # fabricate and span walk absent
    table, reg, _ = compare(split, unsplit, spec, 10.0, 0.05)
    assert reg == 1 and any(
        r[5] == "MISSING-STAGES" and r[1] == "sub-stages" for r in table
    ), "a batched row missing emission sub-stages must fire"

    overfull = batched(1.0, (0.3, 0.3, 0.0, 0.1))  # 0.7 of 0.5: +40%
    table, reg, _ = compare(split, overfull, spec, 10.0, 0.05)
    assert reg == 1 and any(
        r[5] == "SUBSTAGE-SUM-EXCEEDS" for r in table
    ), "sub-stages exceeding the emission stage by more than 20% must fire"

    near = batched(1.0, (0.3, 0.2, 0.0, 0.08))  # 0.58 of 0.5: +16%
    _, reg, _ = compare(split, near, spec, 10.0, 0.05)
    assert reg == 0, "sub-stages within the tolerance must pass"

    # 8. Batched event rows carry the same stages: emission (build and
    #    span walk; pre-walk and fabrication zero), a zero merge, and
    #    ingest. The stage sum and the sub-stage sum are checked as on
    #    scenario rows; sequential and live event rows stay exempt.
    def event_batched(elapsed, emit, ingest, parts):
        data = batched(elapsed, parts)
        r = data["results"][0]
        r["engine"] = "event"
        r["stage_emit_s"], r["stage_merge_s"], r["stage_ingest_s"] = emit, 0.0, ingest
        return data

    event_split = event_batched(1.0, 0.9, 0.08, (0.5, 0.0, 0.0, 0.38))  # 0.98; 0.88 of 0.9
    _, reg, missing = compare(event_split, event_split, spec, 10.0, 0.05)
    assert reg == 0 and not missing, "a consistent batched event row must pass"

    drifted = event_batched(1.0, 0.4, 0.08, (0.2, 0.0, 0.0, 0.18))  # sum 0.48 of 1.0
    table, reg, _ = compare(event_split, drifted, spec, 10.0, 0.05)
    assert reg == 1 and any(
        r[5] == "STAGE-SUM-DRIFT" for r in table
    ), "a batched event row whose stages drift off elapsed_s must fire"

    overfull = event_batched(1.0, 0.9, 0.08, (0.7, 0.0, 0.0, 0.5))  # 1.2 of 0.9: +33%
    table, reg, _ = compare(event_split, overfull, spec, 10.0, 0.05)
    assert reg == 1 and any(
        r[5] == "SUBSTAGE-SUM-EXCEEDS" for r in table
    ), "a batched event row whose sub-stages exceed its emission stage must fire"

    unstaged = rows(("event", 1, 100, 1.0))
    unstaged["results"][0]["mode"] = "parallel"
    table, reg, _ = compare(event_split, unstaged, spec, 10.0, 0.05)
    assert reg == 2 and {r[1] for r in table if r[5] == "MISSING-STAGES"} == {
        "stages",
        "sub-stages",
    }, "a batched event row without stages or sub-stages must fire on both"

    live = rows(("event", 1, 100, 1.0))
    live["results"][0]["mode"] = "live"
    _, reg, _ = compare(live, live, spec, 10.0, 0.05)
    assert reg == 0, "live event rows are exempt from stage checks"

    print("self-test PASS: 8 gate-logic checks")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kind", choices=sorted(KINDS))
    ap.add_argument("--baseline", help="committed BENCH_*.json")
    ap.add_argument("--fresh", help="freshly generated BENCH_*.json")
    ap.add_argument(
        "--wall-factor",
        type=float,
        default=10.0,
        help="max allowed fresh/baseline wall-clock ratio (default 10)",
    )
    ap.add_argument(
        "--wall-floor",
        type=float,
        default=0.05,
        help="seconds under which wall-clock ratios are noise and skipped "
        "when both sides are below it (default 0.05)",
    )
    ap.add_argument(
        "--self-test",
        action="store_true",
        help="run the built-in gate-logic checks and exit",
    )
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not (args.kind and args.baseline and args.fresh):
        ap.error("--kind, --baseline and --fresh are required (or --self-test)")
    spec = KINDS[args.kind]

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)

    table, regressions, missing_groups = compare(
        baseline, fresh, spec, args.wall_factor, args.wall_floor
    )
    print_table(table)

    if missing_groups:
        print(
            f"\nFAIL: no comparable rows for {sorted(missing_groups)} — "
            "the comparison is vacuous (did the smoke grid drift off the baseline?)"
        )
        return 1
    if regressions:
        print(f"\nFAIL: {regressions} regression(s) against {args.baseline}")
        return 1
    ok = sum(1 for r in table if r[5].startswith("ok"))
    print(f"\nPASS: {ok} field comparison(s) within tolerance, 0 regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
