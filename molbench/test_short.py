#!/usr/bin/env python3
"""Short-run test of the Molecule simulator benchmark.

Usage, from the repository root:

    python3 molbench/test_short.py

Runs every workload briefly, untraced and traced, and checks that:
  * each run exits 0 and its repetitions agree (the binary's own
    correctness checks: accounting identities, one digest across all
    repetitions, traced and untraced, every metric finite);
  * every end-to-end and per-layer metric named in BENCHMARK.json (plus
    the table-only failed_frac and cost_cents_per_kinv) is printed with
    a unit, and the JSON line carries exactly the BENCHMARK.json set;
  * the traced and untraced processes report the same digest;
  * the layer predictions hold: core.cold_frac >= 0.5 on cold_churn and
    <= 0.01 on overload_warm; cluster.queue_max_depth is 0 on
    cold_churn and at the queue capacity (2048) on overload_warm;
  * a held-out seed (7) still passes every check while its simulated
    metrics differ from seed 1's.
Exits 1 on the first failure.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TABLE_ONLY = {"failed_frac": "frac", "cost_cents_per_kinv": "cents/kinv"}
ROW = re.compile(r"^(\S+)\s+(\S+)\s+(\S+)\s+(.*)$")


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    tag = "%s seed=%d trace=%d" % (workload, seed, trace)
    if out.returncode != 0:
        fail("%s exited %d\n%s" % (tag, out.returncode, out.stderr[-3000:]))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    rows = {}
    digest = None
    for line in lines[:-1]:
        m = re.match(r"^checks: .* agree \(digest ([0-9a-f]+)\)$", line)
        if m:
            digest = m.group(1)
            continue
        m = ROW.match(line)
        if m:
            rows[m.group(1)] = (m.group(2), m.group(3))
    if digest is None:
        fail(tag + ": no checks line")
    return tag, result, rows, digest


def expect_metrics(tag, result, rows, spec):
    if result.get("correct") is not True or result["attempted"] < 1:
        fail(tag + ": result not correct")
    printed = dict(spec)
    if "sim_ops_per_host_s" in spec:
        printed.update(TABLE_ONLY)
    for name, unit in printed.items():
        if name not in rows:
            fail("%s: metric %s not printed" % (tag, name))
        if rows[name][1] != unit:
            fail("%s: %s printed with unit %s, want %s"
                 % (tag, name, rows[name][1], unit))
    if set(result["metrics"]) != set(spec):
        fail(tag + ": JSON metrics differ from BENCHMARK.json")
    for name, m in result["metrics"].items():
        if m["unit"] != spec[name]:
            fail("%s: JSON unit of %s is %s" % (tag, name, m["unit"]))


def value(rows, name):
    return float(rows[name][0])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    sim_metrics = [n for n in e2e if n.startswith("sim_") and
                   n != "sim_ops_per_host_s"]

    for w in bench["workloads"]:
        name = w["name"]
        tag, plain, rows, digest = run(name, 1, 0)
        expect_metrics(tag, plain, rows, e2e)
        tag, traced, layer_rows, traced_digest = run(name, 1, 1)
        expect_metrics(tag, traced, layer_rows, layers)
        if traced_digest != digest:
            fail("%s: traced digest %s != untraced %s"
                 % (name, traced_digest, digest))

        if name == "overload_warm":
            if value(layer_rows, "core.cold_frac") > 0.01:
                fail("overload_warm: core.cold_frac above 0.01")
            if value(layer_rows, "cluster.queue_max_depth") != 2048:
                fail("overload_warm: queue never reached its capacity")
        if name == "cold_churn":
            if value(layer_rows, "core.cold_frac") < 0.5:
                fail("cold_churn: core.cold_frac below 0.5")
            if value(layer_rows, "cluster.queue_max_depth") != 0:
                fail("cold_churn: the gateway queued")

        tag, held, held_rows, held_digest = run(name, 7, 0)
        expect_metrics(tag, held, held_rows, e2e)
        if held_digest == digest:
            fail(name + ": seed 7 computed the same digest as seed 1")
        same = [n for n in sim_metrics
                if held["metrics"][n]["value"] == plain["metrics"][n]["value"]]
        if same:
            fail("%s: seed 7 left %s unchanged" % (name, ", ".join(same)))
        print("ok   %-14s seed 1 digest %s, seed 7 digest %s" %
              (name, digest, held_digest))
        for n in sim_metrics:
            print("     %-18s seed 1 %.10g   seed 7 %.10g" %
                  (n, plain["metrics"][n]["value"],
                   held["metrics"][n]["value"]))
    print("PASS")


if __name__ == "__main__":
    main()
