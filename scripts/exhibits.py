#!/usr/bin/env python3
"""Hash every figure exhibit, or check the hashes against the recorded ones.

usage: exhibits.py <bin-dir> [--record] [--keep <dir>]

Runs fig3, fig9a-c, fig10-14, fig_optimizer, fig_profile and fig_chaos from
<bin-dir> (e.g. target/release) at NTGA_SCALE=small in a temporary
directory, each with `--json`, `--profile` and `--trace` under fixed
relative names (`<fig>.rows.json`, `<fig>.profile.json`, `<fig>.trace.json`
+ `.jsonl`), and prints `sha256  name` for each stdout and each file
written. Without `--record` the listing is compared with
tests/fixtures/exhibits.sha256 and a mismatch exits 1; with it the fixture
is rewritten. With `--keep <dir>` the binaries run in <dir> (new or empty)
and their files stay there, so scripts/ci_smoke.py can read what this run
wrote without running a binary again. A binary that exits non-zero — a
paper figure whose claim does not hold, or a failed in-process assert —
fails the run (exit 1). The exhibits are deterministic: a
refactor that "moves nothing" leaves every line as recorded.
"""

import hashlib
import os
import subprocess
import sys
import tempfile

FIGS = ["fig3", "fig9a", "fig9b", "fig9c", "fig10", "fig11", "fig12", "fig13", "fig14",
        "fig_optimizer", "fig_profile", "fig_chaos"]
FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "..", "tests", "fixtures", "exhibits.sha256")


def listing(bin_dir, out_dir):
    lines = []
    env = dict(os.environ, NTGA_SCALE="small")
    for fig in FIGS:
        cmd = [os.path.join(bin_dir, fig), "--json", f"{fig}.rows.json",
               "--profile", f"{fig}.profile.json", "--trace", f"{fig}.trace.json"]
        out = subprocess.run(cmd, cwd=out_dir, env=env, check=True, stdout=subprocess.PIPE).stdout
        lines.append(f"{hashlib.sha256(out).hexdigest()}  {fig}.stdout")
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as f:
            lines.append(f"{hashlib.sha256(f.read()).hexdigest()}  {name}")
    return "".join(line + "\n" for line in lines)


def main(argv):
    args = [a for a in argv if a != "--record"]
    keep = None
    if "--keep" in args:
        at = args.index("--keep")
        if at + 1 == len(args):
            sys.exit(__doc__)
        keep = os.path.abspath(args[at + 1])
        del args[at:at + 2]
    if len(args) != 1:
        sys.exit(__doc__)
    bin_dir = os.path.abspath(args[0])
    if keep:
        os.makedirs(keep, exist_ok=True)
        fresh = listing(bin_dir, keep)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            fresh = listing(bin_dir, tmp)
    sys.stdout.write(fresh)
    if "--record" in argv:
        with open(FIXTURE, "w") as f:
            f.write(fresh)
        return
    with open(FIXTURE) as f:
        recorded = f.read()
    if fresh != recorded:
        moved = sorted(set(fresh.splitlines()) ^ set(recorded.splitlines()))
        sys.exit("exhibits differ from tests/fixtures/exhibits.sha256:\n" + "\n".join(moved))
    print(f"ok: {len(fresh.splitlines())} exhibit hashes unchanged")


if __name__ == "__main__":
    main(sys.argv[1:])
