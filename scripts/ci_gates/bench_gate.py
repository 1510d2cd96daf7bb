#!/usr/bin/env python3
"""Gate the rar-bench/1 document that `bench/main.exe MODE` writes.

Checks the shared header once, requires exactly the sections MODE
runs, and holds each section to its floors in bench/smoke_floor.json:

- kernels: every estimate positive; in smoke mode the floor kernel
  within 2x of its checked-in ns/run;
- overheads: every armed/plain ratio positive, the deadline and
  tracing ratios within their caps;
- wallclock: Stage.make seq/par and the all_tables jobs curve present
  and positive;
- scaling: every row's phases, spans, counters and stats present; in
  scale mode exactly the classic-FEAS row and the G-RAR row, each
  under its wall-clock ceiling, the G-RAR row with stage cone work
  (stage_cone_nodes > 0);
- eco: the session outcome identical to the cold re-solve; in eco mode
  at eco_gates gates with the median resolve at least
  eco_speedup_min_ratio faster than the cold solve.

Usage: bench_gate.py MODE BENCH_EVAL_JSON FLOOR_JSON
"""

import json
import sys

SCHEMA = "rar-bench/1"
HEADER = ("schema", "mode", "host", "total_s")
SECTIONS = {
    "full": ("scaling", "kernels", "overheads", "wallclock", "eco"),
    "smoke": ("kernels", "overheads", "wallclock", "eco"),
    "scale": ("scaling",),
    "eco": ("eco",),
}
CAPS = (
    ("deadline_overhead_ratio", "deadline_overhead_max_ratio"),
    ("trace_overhead_ratio", "trace_overhead_max_ratio"),
)


class GateError(Exception):
    pass


def need(cond, msg):
    if not cond:
        raise GateError(msg)


def check_kernels(mode, kernels, floor):
    need(kernels, "no kernels measured")
    for k in kernels:
        need(k["name"] and k["ns_per_run"] > 0, f"bad kernel {k}")
    if mode != "smoke":
        return []
    ns = {k["name"]: k["ns_per_run"] for k in kernels}
    name = floor["kernel"]
    need(name in ns, f"floor kernel {name!r} not measured")
    limit = 2.0 * floor["ns_per_run_floor"]
    need(ns[name] <= limit,
         f"{name} regressed: {ns[name]:.0f} ns/run > "
         f"2x floor ({limit:.0f} ns/run)")
    return [f"{name}: {ns[name]:.0f} ns/run (limit {limit:.0f})"]


def check_overheads(mode, res, floor):
    for label, ratio in res.items():
        need(ratio > 0, f"{label} is {ratio}")
    lines = []
    for label, cap_key in CAPS:
        need(label in res, f"overheads lack {label!r}; present: {sorted(res)}")
        ratio, cap = res[label], floor[cap_key]
        need(ratio <= cap, f"{label} {ratio:.3f}x exceeds the {cap:.2f}x budget")
        lines.append(f"{label}: {ratio:.3f}x (cap {cap:.2f}x)")
    return lines


def check_wallclock(mode, w, floor):
    s = w["stage_make"]
    need(s["circuits"] and s["seq_s"] > 0 and s["par_s"] > 0, f"bad stage_make {s}")
    need(s["jobs"] >= 1 and s["speedup"] > 0, f"bad stage_make {s}")
    jc = w["jobs_curve"]
    need(jc["circuits"] and jc["points"], f"bad jobs_curve {jc}")
    for p in jc["points"]:
        need(p["all_tables_s"] > 0 and p["jobs_effective"] >= 1
             and p["speedup_vs_first"] > 0, f"bad jobs_curve point {p}")
    return []


def check_row(row):
    ph = row["phases"]
    need(row["gates"] > 0 and row["total_s"] > 0 and ph["generate_s"] > 0,
         f"bad scaling row {row}")
    if row["path"] == "classic_feas":
        need(ph["retime_s"] > 0, f"bad FEAS phases {ph}")
        need(row["spans"].get("classic/feas", 0) > 0, f"no FEAS span: {row['spans']}")
        need(row["registers_after"] > 0 and row["period_after_ns"] > 0,
             f"bad FEAS row {row}")
    elif row["path"] == "grar":
        c = row["counters"]
        need(ph["run_s"] > 0, f"bad G-RAR phases {ph}")
        need(c["netsimplex_pivots"] > 0 and c["netsimplex_block_hits"] > 0,
             f"G-RAR counters missing: {c}")
        need(row["n_slaves"] > 0 and row["p_ns"] > 0, f"bad G-RAR row {row}")
    else:
        raise GateError(f"unknown scaling path {row['path']!r}")


def check_scaling(mode, rows, floor):
    need(rows, "empty scaling curve")
    for row in rows:
        check_row(row)
    if mode != "scale":
        return []
    need(len(rows) == 2, "expected FEAS + G-RAR rows")
    feas, grar = rows
    need(feas["path"] == "classic_feas" and feas["gates"] == floor["scale_gates"],
         f"first row is not the {floor['scale_gates']}-gate FEAS row")
    need(grar["path"] == "grar" and grar["gates"] == floor["grar_scale_gates"],
         f"second row is not the {floor['grar_scale_gates']}-gate G-RAR row")
    cap, feas_s = floor["scale_total_max_s"], feas["total_s"]
    need(feas_s <= cap, f"FEAS scale smoke took {feas_s:.1f} s > {cap:.0f} s ceiling")
    need(grar["counters"]["stage_cone_nodes"] > 0,
         f"G-RAR row has no stage cone work: {grar['counters']}")
    gcap, grar_s = floor["grar_scale_max_s"], grar["phases"]["run_s"]
    need(grar_s <= gcap,
         f"G-RAR scale smoke took {grar_s:.1f} s > {gcap:.0f} s ceiling")
    return [f"{feas['circuit']}: feas {feas_s:.1f} s (ceiling {cap:.0f} s), "
            f"spans {sorted(feas['spans'])}",
            f"{grar['circuit']}: grar run {grar_s:.1f} s (ceiling {gcap:.0f} s)"]


def check_eco(mode, e, floor):
    need(e["engine"] == "grar", f"eco engine {e['engine']!r}")
    need(e["identical"] is True, "session resolve diverged from the cold re-solve")
    need(e["cold_solve_s"] > 0 and e["resolve_s"] and e["mean_resolve_s"] > 0,
         f"bad eco timings {e}")
    cold_s, med_s, sp = e["cold_solve_s"], e["median_resolve_s"], e["speedup"]
    line = (f"{e['circuit']}: cold {cold_s:.2f} s, median resolve "
            f"{med_s:.3f} s -> {sp:.1f}x, identical")
    if mode != "eco":
        return [line]
    need(e["gates"] == floor["eco_gates"],
         f"eco ran at {e['gates']} gates, gated at {floor['eco_gates']}")
    want = floor["eco_speedup_min_ratio"]
    need(sp >= want, f"eco speedup {sp:.1f}x < required {want:.0f}x "
                     f"(cold {cold_s:.1f} s, median resolve {med_s:.3f} s)")
    return [f"{line} (floor {want:.0f}x)"]


CHECKS = {
    "kernels": check_kernels,
    "overheads": check_overheads,
    "wallclock": check_wallclock,
    "scaling": check_scaling,
    "eco": check_eco,
}


def check(mode, doc, floor):
    """Gate [doc] as MODE's document; return the summary lines or raise
    GateError naming the first failed assertion."""
    need(mode in SECTIONS, f"unknown mode {mode!r}")
    need(floor.get("schema") == "rar-bench-smoke-floor/1", "bad floor schema")
    need(doc.get("schema") == SCHEMA,
         f"schema {doc.get('schema')!r}, expected {SCHEMA!r}")
    need(doc.get("mode") == mode, f"document mode {doc.get('mode')!r} != {mode!r}")
    try:
        host = doc["host"]
        need(host["cores"] >= 1 and host["jobs_effective"] >= 1, f"bad host {host}")
        need(doc["total_s"] > 0, "total_s not positive")
        present, want = set(doc) - set(HEADER), set(SECTIONS[mode])
        need(present == want, f"{mode} document has sections {sorted(present)}, "
                              f"expected {sorted(want)}")
        lines = []
        for section in SECTIONS[mode]:
            lines += CHECKS[section](mode, doc[section], floor)
        return lines
    except (KeyError, TypeError, ValueError) as exc:
        raise GateError(f"malformed document: {exc!r}") from exc


def main(argv):
    if len(argv) != 4:
        raise SystemExit(f"usage: {argv[0]} MODE BENCH_EVAL_JSON FLOOR_JSON")
    mode, doc_path, floor_path = argv[1:]
    with open(doc_path) as f:
        doc = json.load(f)
    with open(floor_path) as f:
        floor = json.load(f)
    try:
        lines = check(mode, doc, floor)
    except GateError as exc:
        raise SystemExit(f"bench gate ({mode}): {exc}")
    for line in lines:
        print(line)
    print(f"bench gate ({mode}): ok")


if __name__ == "__main__":
    main(sys.argv)
