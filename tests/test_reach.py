"""Smoke test of ``tools/reach.py --list``: the census names a function
no example or workload calls, and none that every workload calls."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_list_names_the_unreached_functions():
    done = subprocess.run([sys.executable, "tools/reach.py", "--list"],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True)
    assert done.returncode == 0, done.stdout
    rows = [line.split("  ") for line in done.stdout.splitlines()]
    assert rows and all(len(row) == 4 and row[3].isdigit() for row in rows)
    names = {row[2] for row in rows}
    # Kept for section 3.1 though no run calls it.
    assert "EternalInterceptor.interpose_orb" in names
    assert "ReplicationMechanisms._process_invocation" not in names
    interpose = next(row for row in rows
                     if row[2] == "EternalInterceptor.interpose_orb")
    assert interpose[0] == "eternal"
    assert interpose[1].startswith("src/repro/eternal/interceptor.py:")
