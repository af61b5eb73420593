#!/usr/bin/env python3
"""Hash every figure exhibit, or check the hashes against the recorded ones.

usage: exhibits.py <bin-dir> [--record]

Runs fig3, fig9a-c, fig10-14, fig_optimizer, fig_profile and fig_chaos from
<bin-dir> (e.g. target/release) at NTGA_SCALE=small in a temporary
directory, each with `--json`, `--profile` and `--trace` under fixed
relative names, and prints `sha256  name` for each stdout and each file
written. Without `--record` the listing is compared with
tests/fixtures/exhibits.sha256 and a mismatch exits 1; with it the fixture
is rewritten. The exhibits are deterministic: a refactor that "moves
nothing" leaves every line as recorded.
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


def listing(bin_dir):
    lines = []
    env = dict(os.environ, NTGA_SCALE="small")
    with tempfile.TemporaryDirectory() as tmp:
        for fig in FIGS:
            cmd = [os.path.join(bin_dir, fig), "--json", f"{fig}.rows.json",
                   "--profile", f"{fig}.profile.json", "--trace", f"{fig}.trace.json"]
            out = subprocess.run(cmd, cwd=tmp, env=env, check=True, stdout=subprocess.PIPE).stdout
            lines.append(f"{hashlib.sha256(out).hexdigest()}  {fig}.stdout")
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name), "rb") as f:
                lines.append(f"{hashlib.sha256(f.read()).hexdigest()}  {name}")
    return "".join(line + "\n" for line in lines)


def main(argv):
    args = [a for a in argv if a != "--record"]
    if len(args) != 1:
        sys.exit(__doc__)
    fresh = listing(os.path.abspath(args[0]))
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
