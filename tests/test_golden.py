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

The sweep engine's raw per-trial outcomes are pinned too: the ``tobytes()``
SHA-256 of ``_sweep_chunk``'s failure indicators on every environment, and
of its two gain-error arrays on the recording one, for each run in
``CHUNKS``.  The fig3 sweep reuses the session's shared ``fig3_sweep`` run.

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
from beamest.montecarlo import ExperimentConfig, _sweep_chunk

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

# name -> (config, trial splits) of each _sweep_chunk run: the fig3 and fig4
# presets' geometry, grids and seeds at 2,000 trials, whole and as an
# unaligned part, and the k7_n343 sweep at 200 trials
CHUNKS = {
    "fig3": (ExperimentConfig(n=27, k=3, et_db=tuple(range(-4, 33, 2)), trials=2000,
                              master_seed=8151372), ((0, 2000), (37, 1001))),
    "fig4": (ExperimentConfig(n=27, k=3, et_db=tuple(range(8, 33, 3)), trials=2000,
                              master_seed=479001600), ((0, 2000), (37, 1001))),
    "k7_n343": (ExperimentConfig(n=343, k=7, et_db=(15, 20, 25, 30), trials=200,
                                 master_seed=8151372), ((0, 200),)),
}
_CHUNK_ARRAYS = ("fails", "err_mmse", "err_final")

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


def record(root: Path, ran: dict | None = None) -> dict:
    """``{run: {file: {"sha256", "integers"}}}`` of every run's data files.

    ``ran`` maps a run's name to a directory that already holds its outputs.
    """
    ran = ran or {}
    digests = {}
    for name, (command, config) in RUNS.items():
        out = ran.get(name, root / name)
        if name not in ran:
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


def record_chunks() -> dict:
    """``{run: {variant: {array: sha256}}}`` of every ``CHUNKS`` split."""
    digests = {}
    for name, (cfg, splits) in CHUNKS.items():
        for lo, hi in splits:
            digests[f"{name}_{lo}_{hi}"] = {
                variant: {key: hashlib.sha256(array.tobytes()).hexdigest()
                          for key, array in zip(_CHUNK_ARRAYS, arrays)}
                for variant, arrays in _sweep_chunk(cfg, lo, hi).items()}
    return digests


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def digests(tmp_path_factory, fig3_sweep):
    return record(tmp_path_factory.mktemp("golden"), {"sweep_fig3": fig3_sweep["dir"]})


@pytest.fixture(scope="module")
def chunk_digests():
    return record_chunks()


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


def _differing_chunks(golden, chunk_digests, keys):
    assert sorted(chunk_digests) == sorted(golden["chunks"])
    return [f"{run}/{variant}/{key}" for run, variants in golden["chunks"].items()
            for variant, pinned in variants.items() for key in keys
            if chunk_digests[run].get(variant, {}).get(key) != pinned[key]]


def test_chunk_failures_match_on_every_environment(golden, chunk_digests):
    assert _differing_chunks(golden, chunk_digests, ["fails"]) == []


def test_chunk_errors_match_on_the_recording_environment(golden, chunk_digests):
    if environment() != golden["environment"]:
        pytest.skip(f"bytes recorded on {golden['environment']}, running on {environment()}")
    assert _differing_chunks(golden, chunk_digests, ["err_mmse", "err_final"]) == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regen")
    with tempfile.TemporaryDirectory() as root:
        runs = record(Path(root))
    GOLDEN.write_text(json.dumps({"environment": environment(), "runs": runs,
                                  "chunks": record_chunks()},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
