#!/usr/bin/env python3
"""Unit tests for bench_gate.py on in-memory rar-bench/1 documents.

A valid document for each mode must pass; each broken variant must be
rejected with a GateError. Floors come from the checked-in
bench/smoke_floor.json.

Usage: test_bench_gate.py
"""

import copy
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench_gate  # noqa: E402

with open(os.path.join(HERE, "..", "..", "bench", "smoke_floor.json")) as f:
    FLOOR = json.load(f)

COUNTERS = {
    "netsimplex_pivots": 1000, "netsimplex_block_hits": 900,
    "netsimplex_cycle_arcs": 5000, "netsimplex_shift_nodes": 20000,
    "endpoints_pruned": 0, "feas_parallel_sweeps": 3,
}


def feas_row(gates):
    return {
        "circuit": f"gen{gates}", "gates": gates, "path": "classic_feas",
        "total_s": 25.0,
        "phases": {"generate_s": 0.5, "retime_s": 24.0},
        "spans": {"classic/feas": 20.0}, "counters": COUNTERS,
        "period_before_ns": 5.0, "period_after_ns": 5.1,
        "registers_before": 4000, "registers_after": 5600,
    }


def grar_row(gates):
    return {
        "circuit": f"gen{gates}", "gates": gates, "path": "grar",
        "total_s": 40.0,
        "phases": {"generate_s": 0.1, "run_s": 39.0},
        "spans": {"grar": 30.0}, "counters": COUNTERS,
        "p_ns": 4.2, "n_slaves": 1180, "edl_count": 125, "total_area": 13508.9,
    }


def eco_section(gates, speedup):
    cold = 100.0
    return {
        "circuit": f"gen{gates}", "gates": gates, "engine": "grar",
        "stage_make_s": 5.0, "cold_solve_s": cold, "warmup_resolve_s": 90.0,
        "resolve_s": [cold / speedup] * 4, "mean_resolve_s": cold / speedup,
        "median_resolve_s": cold / speedup, "speedup": speedup,
        "identical": True, "counters": COUNTERS,
    }


SECTIONS = {
    "scaling": lambda mode: (
        [feas_row(FLOOR["scale_gates"]), grar_row(FLOOR["grar_scale_gates"])]
        if mode == "scale"
        else [feas_row(25000), grar_row(25000), feas_row(100000)]),
    "kernels": lambda mode: [
        {"name": FLOOR["kernel"], "ns_per_run": FLOOR["ns_per_run_floor"] / 4},
        {"name": "g/table_i/prepare", "ns_per_run": 1e6},
    ],
    "overheads": lambda mode: {
        "deadline_overhead_ratio": 1.0, "trace_overhead_ratio": 1.01,
        "verify_overhead_ratio": 1.2, "fallback_overhead_ratio": 2.5,
    },
    "wallclock": lambda mode: {
        "stage_make": {"circuits": ["s1196"], "seq_s": 0.01, "par_s": 0.01,
                       "jobs": 2, "speedup": 1.0},
        "jobs_curve": {"circuits": ["s1196"], "sim_cycles": 5, "points": [
            {"jobs_requested": j, "jobs_effective": min(j, 2),
             "all_tables_s": 0.5, "speedup_vs_first": 1.0}
            for j in (1, 2, 4)]},
    },
    "eco": lambda mode: eco_section(
        FLOOR["eco_gates"] if mode == "eco" else 2000, 40.0),
}


def valid(mode):
    doc = {"schema": "rar-bench/1", "mode": mode,
           "host": {"cores": 2, "jobs_effective": 1}, "total_s": 60.0}
    for section in bench_gate.SECTIONS[mode]:
        doc[section] = SECTIONS[section](mode)
    return doc


class BenchGateTest(unittest.TestCase):
    def rejects(self, mode, doc):
        with self.assertRaises(bench_gate.GateError):
            bench_gate.check(mode, doc, FLOOR)

    def test_valid_documents_pass(self):
        for mode in bench_gate.SECTIONS:
            with self.subTest(mode=mode):
                bench_gate.check(mode, valid(mode), FLOOR)

    def test_wrong_schema(self):
        for schema in ("rar-bench-eval/1", "rar-bench-scale/2", None):
            doc = valid("smoke")
            doc["schema"] = schema
            self.rejects("smoke", doc)

    def test_wrong_mode(self):
        self.rejects("scale", valid("eco"))

    def test_missing_required_section(self):
        for mode, sections in bench_gate.SECTIONS.items():
            for section in sections:
                with self.subTest(mode=mode, section=section):
                    doc = valid(mode)
                    del doc[section]
                    self.rejects(mode, doc)

    def test_section_the_mode_did_not_run(self):
        doc = valid("eco")
        doc["kernels"] = SECTIONS["kernels"]("eco")
        self.rejects("eco", doc)

    def test_eco_not_identical(self):
        for mode in ("smoke", "eco", "full"):
            doc = valid(mode)
            doc["eco"]["identical"] = False
            self.rejects(mode, doc)

    def test_overhead_above_cap(self):
        for label, cap_key in bench_gate.CAPS:
            doc = valid("smoke")
            doc["overheads"][label] = FLOOR[cap_key] + 0.01
            self.rejects("smoke", doc)

    def test_overhead_missing(self):
        doc = valid("smoke")
        del doc["overheads"]["deadline_overhead_ratio"]
        self.rejects("smoke", doc)

    def test_kernel_above_twice_floor(self):
        doc = valid("smoke")
        doc["kernels"][0]["ns_per_run"] = 2.0 * FLOOR["ns_per_run_floor"] + 1
        self.rejects("smoke", doc)

    def test_eco_speedup_below_floor(self):
        doc = valid("eco")
        doc["eco"] = eco_section(FLOOR["eco_gates"],
                                 FLOOR["eco_speedup_min_ratio"] - 0.5)
        self.rejects("eco", doc)

    def test_eco_wrong_size(self):
        doc = valid("eco")
        doc["eco"]["gates"] = 2000
        self.rejects("eco", doc)

    def test_feas_row_over_ceiling(self):
        doc = valid("scale")
        doc["scaling"][0]["total_s"] = FLOOR["scale_total_max_s"] + 1
        self.rejects("scale", doc)

    def test_grar_row_over_ceiling(self):
        doc = valid("scale")
        doc["scaling"][1]["phases"]["run_s"] = FLOOR["grar_scale_max_s"] + 1
        self.rejects("scale", doc)

    def test_grar_row_without_pivots(self):
        doc = valid("scale")
        doc["scaling"][1]["counters"] = dict(COUNTERS, netsimplex_pivots=0)
        self.rejects("scale", doc)

    def test_scale_needs_exactly_two_rows(self):
        doc = valid("scale")
        doc["scaling"].append(copy.deepcopy(doc["scaling"][0]))
        self.rejects("scale", doc)

    def test_malformed_value(self):
        doc = valid("smoke")
        doc["host"] = {"cores": "two"}
        self.rejects("smoke", doc)


if __name__ == "__main__":
    unittest.main()
