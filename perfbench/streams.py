"""Seeded NDJSON request streams for the perfbench workloads.

    python3 perfbench/streams.py --workload NAME --seed N --out DIR

writes four files into DIR:

  stream.ndjson       the request lines the server receives, in send order;
                      the load generator cycles them if a run outlasts them
  stream.meta.ndjson  one line per stream line: op, shape, simulated jobs,
                      and a key shared by every line that asks for the
                      same work (never sent)
  warmup.ndjson       the one set-up request sent to a freshly spawned server
  probe.ndjson        a request of another kind, on which the traced run
                      times the layers this workload's requests never reach

The same workload and seed always give byte-identical files. Every draw
comes from one random.Random seeded with the workload and seed, so nothing
depends on the clock or the host.
"""

import argparse
import copy
import itertools
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))

# The warm request of bench/serve.cpp: 16 jobs at fixed 0.5 s spacing on an
# 8-GPU burst_lending cluster. Only workload.seed changes between requests,
# so after the first request every job shape is resident in the PlanCache.
WARM_SPEC = {
    "kind": "schedule",
    "name": "bench_serve",
    "workload": {
        "arrival": "fixed",
        "interval_s": 0.5,
        "num_jobs": 16,
        "seed": 5,
        "min_iterations": 10,
        "max_iterations": 20,
    },
    "cluster": {
        "num_gpus": 8,
        "policy": "burst_lending",
        "util_timeline_bins": 8,
    },
}

# cold_plan_sim grid. plan covers every (model, batch, amp, gpus) point;
# simulate runs the fig09-style collocated scenario on 8 or 16 GPUs.
MODELS = ["vgg16", "resnet50", "wide_resnet101_2", "inception_v3"]
BATCHES = [16, 32, 64]
AMP_LIMITS = [1.25, 1.5, 2.0]
PLAN_GPUS = [8, 64, 256, 1024]
SIM_GPUS = [8, 16]
BLOCK = 8  # one simulate request in every block of eight

# One cold_plan_sim pass holds every simulate shape once (72) plus seven
# plan requests per simulate; a round sends its pass twice. A run ends on a
# round boundary, so every run measures the same multiset of simulate
# shapes, in a seeded order, twice.
SIM_GRID = list(itertools.product(MODELS, BATCHES, AMP_LIMITS, SIM_GPUS))
PLAN_GRID = list(itertools.product(MODELS, BATCHES, AMP_LIMITS, PLAN_GPUS))
ROUND_PASS = len(SIM_GRID) * BLOCK

# fleet_replay rounds: FLEET_DISTINCT reseeded requests, sent in turn
# FLEET_SENDS times each.
FLEET_DISTINCT = 2
FLEET_SENDS = 4

# Lines per stream file; the load generator cycles the file if a run
# outlasts it. The round sizes here are the "round" of spec.json.
STREAM_LINES = {"warm_schedule": 1024,
                "fleet_replay": 4 * FLEET_DISTINCT * FLEET_SENDS,
                "cold_plan_sim": 4 * ROUND_PASS}


def dumps(obj):
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def schedule_line(spec):
    return {"op": "schedule", "spec": spec}


def warm_schedule(rng, lines):
    stream, meta = [], []
    for _ in range(lines):
        spec = copy.deepcopy(WARM_SPEC)
        spec["workload"]["seed"] = rng.randrange(1 << 31)
        stream.append(schedule_line(spec))
        meta.append({"op": "schedule", "shape": "schedule/bench_serve",
                     "jobs": spec["workload"]["num_jobs"],
                     "key": spec["workload"]["seed"]})
    warm = copy.deepcopy(WARM_SPEC)
    warm["workload"]["seed"] = rng.randrange(1 << 31)
    # The default foreground mix entry: vgg16, batch 32, amp_limit 1.5.
    probe = {"op": "simulate",
             "spec": simulate_spec(rng, "vgg16", 32, 1.5, SIM_GPUS[0])}
    return stream, meta, schedule_line(warm), probe


def fleet_spec():
    with open(os.path.join(HERE, "inputs", "sched_fleet_100k.json")) as f:
        return json.load(f)


def fleet_replay(rng, lines):
    base = fleet_spec()
    stream, meta = [], []
    while len(stream) < lines:
        specs = []
        for _ in range(FLEET_DISTINCT):
            spec = copy.deepcopy(base)
            spec["workload"]["seed"] = rng.randrange(1 << 31)
            specs.append(spec)
        for spec in specs * FLEET_SENDS:
            meta.append({"op": "schedule", "shape": "schedule/" + spec["name"],
                         "jobs": spec["workload"]["num_jobs"],
                         "key": spec["workload"]["seed"]})
            stream.append(schedule_line(spec))
    # The set-up request resolves the same five job shapes on the same
    # 1000-GPU cluster with 1% of the jobs, so the measured requests find
    # every shape resident.
    warm = copy.deepcopy(base)
    warm["workload"]["num_jobs"] = 1000
    warm["workload"]["seed"] = rng.randrange(1 << 31)
    fg = base["workload"]["fg_mix"][0]
    probe = {"op": "simulate",
             "spec": simulate_spec(rng, fg["model"], fg["global_batch"],
                                   fg["amp_limit"], SIM_GPUS[0])}
    return stream, meta, schedule_line(warm), probe


def plan_spec(rng, model, batch, amp, gpus):
    return {"name": "cold_plan", "seed": rng.randrange(1 << 31),
            "model": model, "global_batch": batch, "amp_limit": amp,
            "num_gpus": gpus}


def simulate_spec(rng, model, batch, amp, gpus):
    spec = plan_spec(rng, model, batch, amp, gpus)
    spec.update({"name": "cold_sim", "collocate_bg": True,
                 "bg_on_idle_gpus": True, "bg_batch": 8,
                 "warmup_iters": 4, "measure_iters": 24})
    return spec


def cold_plan_sim(rng, lines):
    def plan_shapes():
        while True:
            cycle = list(PLAN_GRID)
            rng.shuffle(cycle)
            yield from cycle

    plans = plan_shapes()
    stream, meta = [], []
    while len(stream) < lines:
        sims = list(SIM_GRID)
        rng.shuffle(sims)
        round_lines = []
        for sim in sims:
            at = rng.randrange(BLOCK)
            for k in range(BLOCK):
                if k == at:
                    op, spec = "simulate", simulate_spec(rng, *sim)
                else:
                    op, spec = "plan", plan_spec(rng, *next(plans))
                round_lines.append((op, spec))
        # The round's requests go out twice, a whole pass apart. Requests
        # of one shape differ only in their provenance seed.
        for op, spec in round_lines + round_lines:
            meta.append({"op": op, "shape": op + "/" + spec["model"],
                         "jobs": 1,
                         "key": "/".join(str(spec[k]) for k in (
                             "model", "global_batch", "amp_limit",
                             "num_gpus")) + "/" + op})
            stream.append({"op": op, "spec": spec})
    warm = {"op": "plan", "spec": plan_spec(rng, "vgg16", 32, 1.5, 8)}
    probe = copy.deepcopy(WARM_SPEC)
    probe["workload"]["seed"] = rng.randrange(1 << 31)
    return stream, meta, warm, schedule_line(probe)


GENERATORS = {"warm_schedule": warm_schedule, "fleet_replay": fleet_replay,
              "cold_plan_sim": cold_plan_sim}


def write(workload, seed, out_dir):
    """Writes the stream files for `workload` into out_dir."""
    rng = random.Random(f"perfbench/{workload}/{seed}")
    stream, meta, warm, probe = GENERATORS[workload](
        rng, STREAM_LINES[workload])
    os.makedirs(out_dir, exist_ok=True)
    for name, rows in (("stream.ndjson", stream),
                       ("stream.meta.ndjson", meta),
                       ("warmup.ndjson", [warm]),
                       ("probe.ndjson", [probe])):
        with open(os.path.join(out_dir, name), "w") as f:
            f.writelines(dumps(row) + "\n" for row in rows)
    return len(stream)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    n = write(args.workload, args.seed, args.out)
    print(f"wrote {n} {args.workload} requests (seed {args.seed}) to {args.out}")


if __name__ == "__main__":
    main()
