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

With ``--values`` each record maps to its scalar fields instead of a
digest: horizons, residuals, certificates, verdicts, constants and gap
pairs, with every impulse array left out, and the exit code for a cli
case. Floats print exactly, so two such maps can be compared field by
field, to the relative drift of each number. ``--values --against FILE``
does that comparison against a map saved from another checkout: for each
record of the run whose scalars differ from FILE's it prints every
differing field, both values and the relative drift
``|new - old| / |old|``, then the count of such records, and exits 1
when there is one:

    python3 tools/record_digests.py --values 1 2 3 > before.json   # in one checkout
    python3 tools/record_digests.py --values --against before.json 1 2 3   # in the other
"""

import argparse
import json
import math
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


def scalars(value):
    """A record with its arrays left out, nested as the record nests it."""
    def array(v):
        return hasattr(v, "shape") or (
            isinstance(v, tuple) and v and all(hasattr(x, "shape") for x in v)
        )

    if isinstance(value, dict):
        return {key: scalars(v) for key, v in value.items() if not array(v)}
    if isinstance(value, (list, tuple)):
        return [scalars(v) for v in value if not array(v)]
    return value.item() if hasattr(value, "item") else value


def digests(seeds, values=False):
    """``{workload/seed/id: digest}`` over the given seeds; with values,
    each record's `scalars` (the exit code for a cli case) instead."""
    read = scalars if values else worker._digest
    out = {}
    for seed in seeds:
        for workload, runner_type in RUNNERS.items():
            scns = scenarios.generate(workload, seed)
            runner = runner_type(ig, scns)
            runner.build()
            for i, scn in enumerate(scns):
                out[f"{workload}/{seed}/{scn['id']}"] = read(runner.execute(i))
        scns = scenarios.generate("cli", seed)
        with tempfile.TemporaryDirectory() as workdir:
            runner = worker.Cli(scns, Path(workdir), env=None)
            runner.build()
            for i, scn in enumerate(scns):
                outcome = runner.execute_in_process(i)
                out[f"cli/{seed}/{scn['id']}"] = outcome["code"] if values else read(outcome)
    return out


def fields(value, path=""):
    """``{path: leaf}`` of a nested record, paths like ``gap[1]`` or
    ``verdict.k_star``."""
    if isinstance(value, dict):
        items = ((f"{path}.{key}" if path else key, v) for key, v in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return {path: value}
    return {p: leaf for key, v in items for p, leaf in fields(v, key).items()}


def drift(old, new):
    """``|new - old| / |old|`` for two numbers (inf from 0), else None."""
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
    if not numbers:
        return None
    return abs(new - old) / abs(old) if old else math.inf


def compare(old, new):
    """Lines naming each differing field of each record of the value map
    `new` that differs from the saved map `old`, then their count; and
    that count. Records of `old` that `new` lacks were not run, and are
    left out."""
    lines, differing = [], 0
    keys = sorted(new)
    for key in keys:
        if key not in old:
            differing += 1
            lines.append(f"{key}: not in FILE")
            continue
        a, b = fields(old[key]), fields(new[key])
        paths = sorted(a.keys() | b.keys())
        changed = [p for p in paths if p not in a or p not in b or a[p] != b[p]]
        differing += bool(changed)
        for p in changed:
            was, now = a.get(p, "absent"), b.get(p, "absent")
            rel = drift(was, now)
            lines.append(f"{key} {p}".rstrip() + f": {was!r} -> {now!r}"
                         + ("" if rel is None else f"  drift {rel:.3g}"))
    lines.append(f"{differing} of {len(keys)} records differ")
    return lines, differing


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument("--values", action="store_true",
                        help="print each record's scalar fields instead of its digest")
    parser.add_argument("--against", metavar="FILE",
                        help="with --values: print the fields that differ from FILE's "
                             "and their relative drift")
    args = parser.parse_args()
    if args.against and not args.values:
        parser.error("--against needs --values")
    out = digests(args.seeds, args.values)
    if args.against:
        with open(args.against) as saved:
            lines, differing = compare(json.load(saved), out)
        print("\n".join(lines))
        sys.exit(1 if differing else 0)
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
