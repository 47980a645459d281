"""Time one cold set-up in a fresh interpreter; print it as JSON.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED [--smoke]

Set-up runs from before `import moverb` to the end of a warm-up render of
the first 0.25 s of the clip under the workload's config. It includes the
filter design, the room and path generation, and any lazily built tables.
The seeded inputs are made before the clock starts. run.py starts this
script several times and reports the median.
"""

import json
import os
import sys
import time

import workloads


def main(argv):
    name, seed, smoke = argv[0], int(argv[1]), "--smoke" in argv[2:]
    workload = workloads.WORKLOADS[name]
    clip_s = workloads.clip_seconds(workload, smoke)
    direction, dry = workloads.make_inputs(seed, clip_s)

    t0 = time.perf_counter()
    moverb = workloads.import_moverb(os.getcwd())
    scene = workloads.build_scene(moverb, workload, direction, clip_s)
    s, traj = workloads.head(moverb, scene, dry, workloads.WARMUP_S)
    out = workloads.entry_point(moverb, workload)(
        s, traj, scene.room, scene.mic, scene.filt, scene.cfg
    )
    setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "warmup_len": int(out.size)}))


if __name__ == "__main__":
    main(sys.argv[1:])
