"""README's library quickstart runs as written.

The package namespace re-exports nothing, so the quickstart's imports are
the documented surface; running it in a fresh interpreter pins every name
it imports to the module it is documented under.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

from dilshape import shape

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_code() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quickstart_runs():
    code = quickstart_code()
    assert "from dilshape." in code
    src = Path(shape.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr
