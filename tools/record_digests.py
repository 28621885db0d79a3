"""Print the digest of every benchmark record as one JSON map.

For each seed, runs every steer-full, steer-local and certify scenario of
`perfbench/scenarios.generate` once, through the runners of
`perfbench/worker.py`, and maps ``workload/seed/id`` to the record's
`worker._digest`. Each cli case runs once through `worker.Cli` in process,
in a temporary directory; its digest covers the exit code and the bytes of
``report.json`` and ``trajectory.csv``. The package is imported from this
checkout's `src`, so two checkouts give two maps that `diff` compares
record by record:

    python3 tools/record_digests.py 1 2 3 > before.json   # in one checkout
    python3 tools/record_digests.py 1 2 3 > after.json    # in the other
    diff before.json after.json
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import impulse_gcac as ig  # noqa: E402
import scenarios  # noqa: E402
import worker  # noqa: E402

RUNNERS = {"steer-full": worker.SteerFull, "steer-local": worker.SteerLocal,
           "certify": worker.Certify}


def digests(seeds):
    """``{workload/seed/id: digest}`` over the given seeds."""
    out = {}
    for seed in seeds:
        for workload, runner_type in RUNNERS.items():
            scns = scenarios.generate(workload, seed)
            runner = runner_type(ig, scns)
            runner.build()
            for i, scn in enumerate(scns):
                out[f"{workload}/{seed}/{scn['id']}"] = worker._digest(runner.execute(i))
        scns = scenarios.generate("cli", seed)
        with tempfile.TemporaryDirectory() as workdir:
            runner = worker.Cli(scns, Path(workdir), env=None)
            runner.build()
            for i, scn in enumerate(scns):
                out[f"cli/{seed}/{scn['id']}"] = worker._digest(runner.execute_in_process(i))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args()
    json.dump(digests(args.seeds), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
