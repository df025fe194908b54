"""Run momentshift CLI commands as child processes and gate on their exit codes,
output and peak RSS.

    python .github/child_gate.py [--max-rss-mb MB] [--refused] [--f VALUE] -- ARGV [-- ARGV ...]

Each ARGV is one ``momentshift.cli`` command, run from the checkout with
PYTHONPATH=src; ``{tmp}`` in it names a fresh temporary directory that the
step's commands share.  The commands run in order and the first nonzero exit
fails the step, unless ``--refused``: then every command must exit 1 with an
``error: `` line on stderr and no traceback.  ``--f`` requires the last
command's ``f:`` line to lie within 1e-6 of VALUE.  The peak RSS is
RUSAGE_CHILDREN's, the largest peak of every child this process has waited
for, so each gated step runs in its own invocation.
"""

import argparse
import math
import os
import re
import resource
import subprocess
import sys
import tempfile


def main(argv: list[str]) -> int:
    groups = [[]]
    for arg in argv:
        if arg == "--":
            groups.append([])
        else:
            groups[-1].append(arg)
    options, *commands = groups
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--max-rss-mb", type=float, default=math.inf)
    p.add_argument("--refused", action="store_true")
    p.add_argument("--f", type=float, default=None)
    args = p.parse_args(options)
    tmp, env = tempfile.mkdtemp(), {**os.environ, "PYTHONPATH": "src"}
    failed = False
    for command in commands:
        run = subprocess.run([sys.executable, "-m", "momentshift.cli",
                              *(arg.replace("{tmp}", tmp) for arg in command)],
                             text=True, capture_output=True, env=env)
        print(run.stdout, run.stderr, sep="")
        if args.refused:
            failed |= (run.returncode != 1 or not run.stderr.startswith("error: ")
                       or "Traceback" in run.stderr)
        elif run.returncode:
            failed = True
            break
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    report = f"exit code {run.returncode}, peak RSS {rss_mb:.1f} MB"
    if args.f is not None:
        found = re.search(r"^f: (\S+)$", run.stdout, re.M)
        f = float(found.group(1)) if found else math.nan
        failed |= not abs(f - args.f) <= 1e-6
        report += f", f {f}"
    print(report)
    return 1 if failed or rss_mb >= args.max_rss_mb else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
