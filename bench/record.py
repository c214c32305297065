#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread and record it in bench/baseline.json.

Runs every workload of BENCHMARK.json ROUNDS times (default 10), one
round after another, reversing the workload order every other round and
giving round r the seed r. Rounds 1-5 form set A and rounds 6-10 set B.
For each workload and end-to-end metric it records each set's median
and quartiles, the shift between the two set medians as a share of set
A's, and the interquartile range of all the rounds as a share of their
median (statistics.quantiles, n=4). It prints the spreads against each
metric's bound and exits 1 if any run was incorrect.

Run from the root of the repository:

    python3 bench/record.py [ROUNDS]
"""
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds):
    out = subprocess.run(
        ["bash", "bench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout.strip().splitlines()
    env = next(json.loads(l[len("# env "):]) for l in out if l.startswith("# env "))
    return env, json.loads(out[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3}


def main():
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    runs = {w: [] for w in names}
    ok = True
    env = None
    for r in range(rounds):
        for w in (names if r % 2 == 0 else names[::-1]):
            env, res = run(w, r + 1, bench["run_seconds"])
            ok = ok and res["correct"] and res["failed"] == 0
            runs[w].append(res)
            print(f"round {r + 1} {w}: correct={res['correct']}", file=sys.stderr)

    half = rounds // 2
    out = {"env": env, "run_seconds": bench["run_seconds"], "seeds": list(range(1, rounds + 1)),
           "set_a_rounds": [1, half], "set_b_rounds": [half + 1, rounds], "workloads": {}}
    print(f"{'workload':20} {'metric':18} {'bound':>6} {'iqr':>7} {'shift':>7}")
    for w in names:
        per = {}
        for m in bench["end_to_end"]:
            vals = [x["metrics"][m["name"]]["value"] for x in runs[w]]
            a, b, every = quartiles(vals[:half]), quartiles(vals[half:]), quartiles(vals)
            iqr = (every["q3"] - every["q1"]) / every["median"]
            shift = abs(b["median"] - a["median"]) / a["median"]
            per[m["name"]] = {"unit": m["unit"], "bound": m["bound"], "values": vals,
                              "set_a": a, "set_b": b, "iqr_share": iqr, "set_median_shift": shift}
            flag = "  > bound" if max(iqr, shift) > m["bound"] else "  > bound/3" if iqr > m["bound"] / 3 else ""
            print(f"{w:20} {m['name']:18} {m['bound']:6.2f} {iqr:7.4f} {shift:7.4f}{flag}")
        out["workloads"][w] = per
    with open("bench/baseline.json", "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
