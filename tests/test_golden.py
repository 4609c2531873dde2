"""The standing digest gate: verdicts, report bytes, ``detect`` and
``calibrate`` output and statistic bits of a set of small configs stay
those of tests/golden.json.

``scripts/golden.py`` writes the file and derives every entry; see its
docstring for the configs.  Verdicts, reports, detect and calibrate
output are the gate.  The statistic section is a tripwire that a change which moves
rounding regenerates with the script, saying so.
"""
import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def golden():
    """The file's digests, and this tree's, or None on another toolchain."""
    spec = importlib.util.spec_from_file_location(
        "changeid_golden", os.path.join(ROOT, "scripts", "golden.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with open(module.GOLDEN) as fh:
        want = json.load(fh)
    here = module.toolchain()
    return want, here, module.derive() if want["toolchain"] == here else None


@pytest.mark.parametrize("section", ["verdicts", "reports", "detect",
                                     "statistics", "calibrate"])
def test_digests_match_golden(golden, section):
    want, here, got = golden
    if got is None:
        pytest.fail(f"tests/golden.json was written with {want['toolchain']} "
                    f"and this is {here}; compare the digests on the "
                    f"recorded toolchain, or regenerate them with "
                    f"scripts/golden.py and say so")
    moved = sorted(name for name in want[section]
                   if got[section].get(name) != want[section][name])
    assert set(got[section]) == set(want[section])
    assert not moved, f"{section} entries moved: {moved}"
