"""Digests of every data file the shipped commands write.

Each run in ``RUNS`` goes through ``cli.main`` into its own directory, and
every file it writes except the manifest (which holds run facts such as the
elapsed time) is pinned in ``golden.json`` two ways:

* ``integers``: the SHA-256 of the file's integer tokens, line by line
  (failure counts, trial and slot counts, trace selections and correctness).
  These follow from the seeded draws and the picks alone, so they are pinned
  on every environment.
* ``sha256``: the SHA-256 of the bytes.  The floats go through libm and the
  BLAS numpy ships, so the bytes are pinned only where numpy's version and
  the machine equal the recorded ``environment``.

A change that alters a data file on purpose regenerates the digests with
``PYTHONPATH=src python tests/test_golden.py --regen`` and names every changed
file and the reason for it.
"""

import hashlib
import json
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from beamest import cli

GOLDEN = Path(__file__).with_name("golden.json")

K7_SWEEP = """\
n = 343
k = 7
variants = overlapped, non_overlapped
trials = 2000
et_db = 15, 20, 25, 30
seed = 8151372
bound = false
outputs = pcef
"""

# name -> (command, preset name or config text)
RUNS = {
    "sweep_fig3": ("sweep", "fig3"),
    "sweep_fig4": ("sweep", "fig4"),
    "sweep_table1": ("sweep", "table1"),
    "bound_fig3": ("bound", "fig3"),
    "sweep_k7_n343": ("sweep", K7_SWEEP),
    "trace_n27": ("trace", "n = 27\nk = 3\ntrials = 500\net_db = 14\nseed = 5\n"),
    "trace_n343_k7": ("trace", "n = 343\nk = 7\ntrials = 500\net_db = 20\nseed = 5\n"),
    **{f"codebook_n{n}_k{k}_{variant}": ("codebook", f"n = {n}\nk = {k}\nvariant = {variant}\n")
       for n, k in ((27, 3), (343, 7)) for variant in ("overlapped", "non_overlapped")},
}

# a token is whatever lies between CSV, JSON and whitespace delimiters; floats
# always carry a '.', an exponent, 'nan' or 'inf', so only counts, indices and
# flags match
_TOKEN = re.compile(r'[^,\s\[\]{}:"]+')
_INTEGER = re.compile(r"-?\d+|true|false")


def environment() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def _integers(data: bytes) -> str:
    lines = (" ".join(t for t in _TOKEN.findall(line) if _INTEGER.fullmatch(t))
             for line in data.decode().splitlines())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def record(root: Path) -> dict:
    """``{run: {file: {"sha256", "integers"}}}`` of every run's data files."""
    digests = {}
    for name, (command, config) in RUNS.items():
        out = root / name
        if "\n" in config:
            out.mkdir()
            (out / "run.cfg").write_text(config)
            config = str(out / "run.cfg")
        assert cli.main([command, "--config", config, "--out", str(out), "--quiet"]) == 0
        digests[name] = {
            path.name: {"sha256": hashlib.sha256(data).hexdigest(),
                        "integers": _integers(data)}
            for path in sorted(out.iterdir())
            if path.name != "run.cfg" and not path.name.endswith("_manifest.json")
            for data in (path.read_bytes(),)}
    return digests


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return record(tmp_path_factory.mktemp("golden"))


def _differing(golden, digests, key):
    return [f"{run}/{name}" for run, files in golden["runs"].items()
            for name, pinned in files.items()
            if digests.get(run, {}).get(name, {}).get(key) != pinned[key]]


def test_every_data_file_is_pinned(golden, digests):
    assert {run: sorted(files) for run, files in digests.items()} == {
        run: sorted(files) for run, files in golden["runs"].items()}


def test_integers_match_on_every_environment(golden, digests):
    assert _differing(golden, digests, "integers") == []


def test_bytes_match_on_the_recording_environment(golden, digests):
    if environment() != golden["environment"]:
        pytest.skip(f"bytes recorded on {golden['environment']}, running on {environment()}")
    assert _differing(golden, digests, "sha256") == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regen")
    with tempfile.TemporaryDirectory() as root:
        runs = record(Path(root))
    GOLDEN.write_text(json.dumps({"environment": environment(), "runs": runs},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
