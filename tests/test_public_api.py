"""Every name in ``vortexscatter.__all__`` is used outside the tests: by the
package itself, by the benchmark in ``perfbench/`` or in README.md.  A name
that only tests read is test-only API; the test that needs it keeps a
private copy instead."""

import re
from pathlib import Path

import vortexscatter

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vortexscatter"


def test_every_public_name_is_used_outside_the_tests():
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "README.md"]
    lines = [line for path in sources for line in path.read_text().splitlines()]
    unused = []
    for name in vortexscatter.__all__:
        word = re.compile(rf"\b{name}\b")
        # its own def, class or module-level assignment is not a use
        own = re.compile(rf"\s*(def|class)\s+{name}\b|{name}\s*(:[^=]*)?=[^=]")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert unused == []
