"""Smoke test of ``tools/reach.py --list``: the census names a function
no example or workload calls, and none that every workload calls.  And
``--unread`` on a small planted source: a write-only attribute is
listed, one read only through ``getattr`` is not."""

import importlib.util
import pathlib
import subprocess
import sys
import textwrap

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


def test_unread_lists_write_only_state_and_nothing_read(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "reach", ROOT / "tools" / "reach.py")
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "box.py").write_text(textwrap.dedent("""\
        class Box:
            declared: int = 0
            read_field: int = 0

            def __init__(self):
                self.planted = 1
                self.kept = 2
                self.by_name = 3
                self._private = 4
                self._sunder_ = 5

            def total(self):
                self._private += 1
                return self.kept + self.read_field + getattr(self, "by_name")
        """))
    rows = reach.unread(package, [package])
    assert sorted(name for _, _, name in rows) == [
        "Box._private", "Box.declared", "Box.planted"]
    planted = next(row for row in rows if row[2] == "Box.planted")
    assert planted[:2] == (package / "box.py", 6)
