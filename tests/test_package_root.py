"""The package root resolves its exports on first access (PEP 562), so a
subpackage import loads that subpackage, not every index family."""

import os
import subprocess
import sys
from pathlib import Path

import repro


def loaded_after(statement):
    """The ``repro`` modules a fresh interpreter holds after ``statement``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    listing = "print(' '.join(m for m in sys.modules if m.startswith('repro')))"
    code = f"{statement}\nimport sys\n{listing}"
    pythonpath = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return set(completed.stdout.split())


def test_the_durability_codec_loads_no_fst():
    loaded = loaded_after("import repro.durability.codec")
    assert "repro.durability.codec" in loaded
    assert not {name for name in loaded if name.startswith("repro.fst")}, sorted(loaded)


def test_an_export_is_imported_when_first_read():
    loaded = loaded_after("import repro")
    assert loaded == {"repro"}
    loaded = loaded_after("import repro\nrepro.FST")
    assert "repro.fst.trie" in loaded and "repro.bptree.hybrid" not in loaded


def test_dir_lists_every_export():
    assert set(repro.__all__) <= set(dir(repro))
    assert "__version__" in repro.__all__
