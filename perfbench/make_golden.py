#!/usr/bin/env python3
"""Write the golden CLI reports that the skeleton-batch workload compares against.

The goldens pin the report bytes of the commit they were taken at; ROADMAP
requires byte-identical CLI output, so regenerate them only for a change
that is meant to alter a report.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_golden.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def main():
    os.makedirs(workloads.GOLDEN, exist_ok=True)
    # the homology job reads the link complex of P2 x P2 from the dual-complex report
    for job in workloads.cli_jobs(workloads.GOLDEN):
        code = job.run()
        if code != 0:
            sys.exit(f"{job.name} exited with {code}")
        if job.name == "cli:dual-complex-p2xp2":
            with open(os.path.join(workloads.GOLDEN, "dual-complex-p2xp2.json")) as fh:
                link = json.load(fh)["complex"]
            with open(os.path.join(workloads.GOLDEN, "p2xp2_link.json"), "w") as fh:
                json.dump(link, fh, sort_keys=True, indent=1)
                fh.write("\n")
    print(f"wrote {len(os.listdir(workloads.GOLDEN))} files to {os.path.relpath(workloads.GOLDEN)}")


if __name__ == "__main__":
    main()
