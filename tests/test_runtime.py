"""The package runs on the standard library alone."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    "arcseq" if p.stem == "__init__" else f"arcseq.{p.stem}"
    for p in (ROOT / "src" / "arcseq").glob("*.py")
)

# Runs with site disabled and the environment ignored, so only the standard
# library and src are importable; prints the top-level names the imports
# added to sys.modules.
PROBE = """
import sys
before = {name.partition(".")[0] for name in sys.modules}
sys.path.insert(0, sys.argv[1])
for name in sys.argv[2:]:
    __import__(name)
after = {name.partition(".")[0] for name in sys.modules}
print("\\n".join(sorted(after - before)))
"""


# Standard-library modules that no arcseq module may load, for their import
# cost at every start of the CLI: dataclasses pulls in inspect, ast, dis and
# tokenize. The blocked frame's lock comes from the built-in _thread, and
# random mode imports random when it runs.
UNLOADED = {"dataclasses", "typing", "threading", "random"}


def test_importing_every_module_loads_only_the_standard_library():
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", PROBE, str(ROOT / "src"), *MODULES],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "arcseq" in loaded and "arcseq.cli" in MODULES
    allowed = sys.stdlib_module_names | set(sys.builtin_module_names) | {"arcseq"}
    assert [name for name in loaded if name not in allowed] == []
    assert UNLOADED & set(loaded) == set()
