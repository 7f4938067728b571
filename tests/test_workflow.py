"""Every test node the CI workflow names must exist.

``.github/workflows/tier1.yml`` runs some tests by node id in named steps,
so that a numpy release that breaks one fails by name.  A test renamed or
moved here would fail only there; this resolves each named node the way
pytest does: the file, then the class or function, then the method.
"""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"

# tests/<file>.py, optionally followed by ::Class and ::name parts
_NODE = re.compile(r"\btests/\w+\.py(?:::\w+)*")


def _resolves(node: str) -> bool:
    path, *names = node.split("::")
    if not (ROOT / path).is_file():
        return False
    owner = importlib.import_module(Path(path).stem)
    for name in names:
        owner = getattr(owner, name, None)
        if owner is None or not name.lower().startswith("test"):
            return False
    return True


def test_named_nodes_resolve():
    nodes = sorted(set(_NODE.findall(WORKFLOW.read_text())))
    assert len(nodes) >= 19
    assert [node for node in nodes if not _resolves(node)] == []
