#!/usr/bin/env python3
"""Pin the CLI engine verbs to `rar serve`: same request, same document.

`rar run`, `rar eco` and `rar bench` build a rar-req/1 run request from
their arguments and run it in-process through the executor `rar serve`
uses. This gate sends the equivalent requests to a `rar serve` over
stdio and requires each CLI document to equal the daemon's result,
compared without `wall_s` (and, for `bench`, without `circuit`: the
CLI labels the netlist by name, the daemon answers "bench" for inline
netlist text):

  * `rar run s1196 --approach A --format json` for grar, base, rvl and
    movable;
  * the final record of `rar eco s1196 --edits SCRIPT`;
  * `rar bench examples/data/s27.bench --format json` (base, rvl, grar).

Used by the build-and-test CI job. Requires bin/rar_cli.exe to be built
(RAR_EXE overrides the path).

Usage: cli_serve_parity.py
"""

import json
import os
import subprocess
import tempfile

EXE = os.environ.get("RAR_EXE", "_build/default/bin/rar_cli.exe")
CIRCUIT = "s1196"
APPROACHES = ["grar", "base", "rvl", "movable"]
BENCH_FILE = "examples/data/s27.bench"
BENCH_APPROACHES = ["base", "rvl", "grar"]
EDITS = """\
resize g5_3 2
annotate g8_1 0.05
commit
c 0.8
commit
resize g3_2 4
annotate g12_0 0.03
"""


def cli(*args):
    cmd = [EXE, *args]
    r = subprocess.run(cmd, capture_output=True, text=True)
    if r.returncode != 0:
        raise SystemExit(
            f"command failed ({r.returncode}): {' '.join(cmd)}\n"
            f"stdout: {r.stdout}\nstderr: {r.stderr}")
    return r.stdout


def serve(requests):
    """Run the requests through one `rar serve` over stdio; results by id."""
    lines = "".join(json.dumps(req) + "\n" for req in requests)
    r = subprocess.run([EXE, "serve"], input=lines, capture_output=True,
                       text=True)
    assert r.returncode == 0, f"rar serve exited {r.returncode}: {r.stderr}"
    results = {}
    for line in r.stdout.splitlines():
        resp = json.loads(line)
        assert resp["status"] == "ok", resp
        results[resp["id"]] = resp["result"]
    assert len(results) == len(requests), sorted(results)
    return results


def strip(doc, *keys):
    return {k: v for k, v in doc.items() if k not in ("wall_s", *keys)}


def same(what, cli_doc, serve_doc, *keys):
    a, b = strip(cli_doc, *keys), strip(serve_doc, *keys)
    assert a == b, (
        f"{what}: CLI and serve documents differ\n"
        f"cli:   {json.dumps(a, sort_keys=True)}\n"
        f"serve: {json.dumps(b, sort_keys=True)}")
    print(f"parity: {what}")


def main():
    bench_text = open(BENCH_FILE).read()
    requests = [{"id": f"run:{a}", "circuit": CIRCUIT, "approach": a}
                for a in APPROACHES]
    requests.append({"id": "eco", "circuit": CIRCUIT, "edits": EDITS})
    requests += [{"id": f"bench:{a}", "bench": bench_text, "approach": a}
                 for a in BENCH_APPROACHES]
    served = serve(requests)

    for a in APPROACHES:
        doc = json.loads(cli("run", CIRCUIT, "--approach", a,
                             "--format", "json"))
        same(f"run {CIRCUIT} --approach {a}", doc, served[f"run:{a}"])

    with tempfile.NamedTemporaryFile("w", suffix=".edits") as f:
        f.write(EDITS)
        f.flush()
        records = cli("eco", CIRCUIT, "--edits", f.name).splitlines()
    assert len(records) == EDITS.count("commit") + 1, records
    same(f"eco {CIRCUIT} (final record)", json.loads(records[-1]),
         served["eco"])

    docs = json.loads(cli("bench", BENCH_FILE, "--format", "json"))
    assert [d["approach"] for d in docs] == BENCH_APPROACHES, docs
    for d in docs:
        same(f"bench {BENCH_FILE} --approach {d['approach']}", d,
             served[f"bench:{d['approach']}"], "circuit")


if __name__ == "__main__":
    main()
